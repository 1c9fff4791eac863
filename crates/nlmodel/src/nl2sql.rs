//! The analytic-task IR, NL phrasings, and SQL rendering.
//!
//! An [`AnalyticTask`] is the structured meaning of an analytical question
//! over one table: an aggregate over a metric column, optional grouping,
//! filtering, ordering, and limiting. The workload generator produces
//! `(question, task, gold SQL)` triples over a schema; the oracle task is
//! what the simulated LM perturbs, and the gold SQL is what execution-based
//! verification compares against.

use cda_dataframe::kernels::AggKind;
use cda_dataframe::{DataType, Schema, Value};
use cda_testkit::rng::StdRng;
use std::fmt;

/// Comparison operator in a task filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Greater than.
    Gt,
    /// Less than.
    Lt,
}

impl CmpOp {
    /// SQL rendering.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
        }
    }

    /// NL rendering.
    pub(crate) fn phrase(self) -> &'static str {
        match self {
            CmpOp::Eq => "is",
            CmpOp::Gt => "is above",
            CmpOp::Lt => "is below",
        }
    }
}

/// One filter predicate: `column op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFilter {
    /// Filtered column.
    pub column: String,
    /// Comparison.
    pub op: CmpOp,
    /// Constant.
    pub value: Value,
}

/// The structured meaning of an analytical question.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticTask {
    /// Target table.
    pub table: String,
    /// Aggregate function.
    pub agg: AggKind,
    /// Aggregated column (`None` = COUNT(*)).
    pub metric: Option<String>,
    /// Group-by column.
    pub group_by: Option<String>,
    /// Conjunctive filters.
    pub filters: Vec<TaskFilter>,
    /// Order the grouped result by the aggregate, descending.
    pub order_desc: bool,
    /// LIMIT.
    pub limit: Option<usize>,
}

impl AnalyticTask {
    /// Render the task as SQL (the gold program).
    pub fn to_sql(&self) -> String {
        let agg_expr = match (&self.agg, &self.metric) {
            (AggKind::CountDistinct, Some(m)) => format!("COUNT(DISTINCT {m})"),
            (_, Some(m)) => format!("{}({m})", self.agg.name()),
            (_, None) => "COUNT(*)".to_owned(),
        };
        let mut sql = String::from("SELECT ");
        if let Some(g) = &self.group_by {
            sql.push_str(g);
            sql.push_str(", ");
        }
        sql.push_str(&agg_expr);
        sql.push_str(" AS result FROM ");
        sql.push_str(&self.table);
        if !self.filters.is_empty() {
            sql.push_str(" WHERE ");
            let parts: Vec<String> = self
                .filters
                .iter()
                .map(|f| {
                    let v = match &f.value {
                        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
                        other => other.to_string(),
                    };
                    format!("{} {} {}", f.column, f.op.sql(), v)
                })
                .collect();
            sql.push_str(&parts.join(" AND "));
        }
        if let Some(g) = &self.group_by {
            sql.push_str(" GROUP BY ");
            sql.push_str(g);
        }
        if self.order_desc {
            sql.push_str(" ORDER BY result DESC");
        }
        if let Some(l) = self.limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        sql
    }

    /// Render a natural-language phrasing of the task (deterministic,
    /// phrasing variant selected by `variant`).
    pub fn to_question(&self, variant: usize) -> String {
        let metric_phrase = match (&self.agg, &self.metric) {
            (AggKind::Count, None) => "the number of records".to_owned(),
            (AggKind::Count, Some(m)) => format!("the number of {m} entries"),
            (AggKind::Sum, Some(m)) => format!("the total {m}"),
            (AggKind::Avg, Some(m)) => format!("the average {m}"),
            (AggKind::Min, Some(m)) => format!("the minimum {m}"),
            (AggKind::Max, Some(m)) => format!("the maximum {m}"),
            (AggKind::StdDev, Some(m)) => format!("the variability of {m}"),
            (AggKind::CountDistinct, Some(m)) => format!("the number of distinct {m} values"),
            _ => "the aggregate".to_owned(),
        };
        let mut q = match variant % 3 {
            0 => format!("What is {metric_phrase} in {}", self.table),
            1 => format!("Show {metric_phrase} from {}", self.table),
            _ => format!("Give me {metric_phrase} in the {} data", self.table),
        };
        if let Some(g) = &self.group_by {
            q.push_str(&format!(" per {g}"));
        }
        for f in &self.filters {
            q.push_str(&format!(" where {} {} {}", f.column, f.op.phrase(), f.value));
        }
        if self.order_desc {
            q.push_str(", highest first");
        }
        if let Some(l) = self.limit {
            q.push_str(&format!(", top {l}"));
        }
        q.push('?');
        q
    }
}

impl fmt::Display for AnalyticTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

/// One NL2SQL benchmark item.
#[derive(Debug, Clone, PartialEq)]
pub struct Nl2SqlTask {
    /// The user question.
    pub question: String,
    /// The oracle task.
    pub task: AnalyticTask,
    /// Gold SQL (rendered from the oracle task).
    pub gold_sql: String,
}

/// A schema a workload is generated over.
#[derive(Debug, Clone)]
pub struct WorkloadTable {
    /// Table name.
    pub name: String,
    /// Schema (numeric columns become metrics; string columns become
    /// group-by / filter candidates).
    pub schema: Schema,
    /// Example values per string column, used to build filters.
    pub string_values: Vec<(String, Vec<String>)>,
}

/// A generated NL2SQL workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark items.
    pub tasks: Vec<Nl2SqlTask>,
}

impl Workload {
    /// Generate `n` seeded tasks over the given tables.
    pub fn generate(tables: &[WorkloadTable], n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n {
            let wt = &tables[rng.gen_range(0..tables.len())];
            let numeric: Vec<&str> = wt
                .schema
                .fields()
                .iter()
                .filter(|f| f.data_type().is_numeric())
                .map(|f| f.name())
                .collect();
            let strings: Vec<&str> = wt
                .schema
                .fields()
                .iter()
                .filter(|f| f.data_type() == DataType::Str)
                .map(|f| f.name())
                .collect();
            let agg = match rng.gen_range(0..6) {
                0 => AggKind::Count,
                1 => AggKind::Sum,
                2 => AggKind::Avg,
                3 => AggKind::Min,
                4 => AggKind::Max,
                _ => AggKind::StdDev,
            };
            let metric = if (agg == AggKind::Count && rng.gen_bool(0.5)) || numeric.is_empty() {
                None
            } else {
                Some(numeric[rng.gen_range(0..numeric.len())].to_owned())
            };
            let agg = if metric.is_none() { AggKind::Count } else { agg };
            let group_by = if !strings.is_empty() && rng.gen_bool(0.6) {
                Some(strings[rng.gen_range(0..strings.len())].to_owned())
            } else {
                None
            };
            let mut filters = Vec::new();
            if rng.gen_bool(0.5) {
                if let Some((col, values)) = pick_string_filter(wt, &mut rng, group_by.as_deref())
                {
                    filters.push(TaskFilter {
                        column: col,
                        op: CmpOp::Eq,
                        value: Value::Str(values),
                    });
                }
            }
            if rng.gen_bool(0.3) && !numeric.is_empty() {
                let col = numeric[rng.gen_range(0..numeric.len())];
                if Some(col) != metric.as_deref() {
                    filters.push(TaskFilter {
                        column: col.to_owned(),
                        op: if rng.gen_bool(0.5) { CmpOp::Gt } else { CmpOp::Lt },
                        value: Value::Int(rng.gen_range(10..100)),
                    });
                }
            }
            let order_desc = group_by.is_some() && rng.gen_bool(0.5);
            let limit = if order_desc && rng.gen_bool(0.4) {
                Some(rng.gen_range(1..=5))
            } else {
                None
            };
            let task = AnalyticTask {
                table: wt.name.clone(),
                agg,
                metric,
                group_by,
                filters,
                order_desc,
                limit,
            };
            tasks.push(Nl2SqlTask {
                question: task.to_question(i),
                gold_sql: task.to_sql(),
                task,
            });
        }
        Self { tasks }
    }
}

/// Parse a natural-language analytical question back into an
/// [`AnalyticTask`] over the given tables — the transparent, rule-based
/// semantic parser of the NL model layer (the simulated LM then perturbs the
/// parsed oracle task; see [`crate::lm`]). Returns `None` when no table or
/// aggregate can be grounded.
pub fn parse_question(text: &str, tables: &[WorkloadTable]) -> Option<AnalyticTask> {
    let lower = text.to_lowercase();
    let tokens: Vec<String> = cda_kg::vocab::tokenize(&lower);
    // table: the one whose name (or name words) appears in the text
    let wt = tables.iter().find(|t| {
        let name = t.name.to_lowercase();
        lower.contains(&name) || name.split('_').all(|w| tokens.iter().any(|t| t == w))
    })?;
    // aggregate keyword
    let agg = if lower.contains("average") || lower.contains("mean ") || lower.contains("avg") {
        AggKind::Avg
    } else if lower.contains("total") || lower.contains("sum") {
        AggKind::Sum
    } else if lower.contains("maximum") || lower.contains("highest value") || lower.contains("max ")
    {
        AggKind::Max
    } else if lower.contains("minimum") || lower.contains("lowest value") || lower.contains("min ")
    {
        AggKind::Min
    } else if lower.contains("variability") || lower.contains("deviation") {
        AggKind::StdDev
    } else if lower.contains("distinct") || lower.contains("unique") || lower.contains("different")
    {
        AggKind::CountDistinct
    } else if lower.contains("number of") || lower.contains("count") || lower.contains("how many")
    {
        AggKind::Count
    } else {
        return None;
    };
    // metric: the *earliest-mentioned* numeric column (the aggregate phrase
    // precedes filter clauses, so a column that only appears in a filter
    // must not win). Underscore names like `median_wage` tokenize into
    // pieces, so substring-match them too.
    let metric = wt
        .schema
        .fields()
        .iter()
        .filter(|f| f.data_type().is_numeric())
        .filter_map(|f| {
            let name = f.name().to_lowercase();
            lower.find(&name).map(|pos| (pos, f.name().to_owned()))
        })
        .min_by_key(|(pos, _)| *pos)
        .map(|(_, name)| name);
    let agg =
        if metric.is_none() && agg != AggKind::CountDistinct { AggKind::Count } else { agg };
    // COUNT DISTINCT works over any column type; point it at the first
    // column named in the text regardless of numeric-ness
    let (agg, metric) = if agg == AggKind::CountDistinct {
        let any_col = wt
            .schema
            .fields()
            .iter()
            .filter_map(|f| {
                let name = f.name().to_lowercase();
                lower.find(&name).map(|pos| (pos, f.name().to_owned()))
            })
            .min_by_key(|(pos, _)| *pos)
            .map(|(_, name)| name);
        match any_col {
            Some(c) => (AggKind::CountDistinct, Some(c)),
            None => (AggKind::Count, None),
        }
    } else {
        (agg, metric)
    };
    // group by: "per <col>" / "by <col>" / "for each <col>"
    let group_by = wt.schema.fields().iter().find_map(|f| {
        let name = f.name().to_lowercase();
        [format!("per {name}"), format!("by {name}"), format!("for each {name}")]
            .iter()
            .any(|p| lower.contains(p.as_str()))
            .then(|| f.name().to_owned())
    });
    // filters: "<col> is <value>" / "<col> is above <n>" / "<col> is below <n>"
    let mut filters = Vec::new();
    for f in wt.schema.fields() {
        let name = f.name().to_lowercase();
        if let Some(pos) = lower.find(&format!("{name} is above ")) {
            let rest = &lower[pos + name.len() + 10..];
            if let Some(v) = first_number(rest) {
                filters.push(TaskFilter { column: f.name().to_owned(), op: CmpOp::Gt, value: Value::Int(v) });
            }
        } else if let Some(pos) = lower.find(&format!("{name} is below ")) {
            let rest = &lower[pos + name.len() + 10..];
            if let Some(v) = first_number(rest) {
                filters.push(TaskFilter { column: f.name().to_owned(), op: CmpOp::Lt, value: Value::Int(v) });
            }
        } else if let Some(pos) = lower.find(&format!("{name} is ")) {
            let rest = text[pos + name.len() + 4..].trim_start();
            let word: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !word.is_empty() && !["above", "below"].contains(&word.to_lowercase().as_str()) {
                // only string columns take equality filters from bare words
                if f.data_type() == DataType::Str {
                    filters.push(TaskFilter {
                        column: f.name().to_owned(),
                        op: CmpOp::Eq,
                        value: Value::Str(word),
                    });
                }
            }
        }
    }
    let order_desc = lower.contains("highest first") || lower.contains("descending");
    let limit = lower.find("top ").and_then(|p| first_number(&lower[p + 4..])).map(|v| v as usize);
    Some(AnalyticTask {
        table: wt.name.clone(),
        agg,
        metric,
        group_by,
        filters,
        order_desc: order_desc || limit.is_some(),
        limit,
    })
}

/// Refine a previous task with a follow-up utterance — the paper's
/// "iterative refinement of analyses" ("and per sector?", "only where canton
/// is ZH", "make that the average"). Returns `None` when the utterance
/// carries no recognizable refinement.
pub fn refine_task(previous: &AnalyticTask, text: &str, tables: &[WorkloadTable]) -> Option<AnalyticTask> {
    let wt = tables.iter().find(|t| t.name == previous.table)?;
    let lower = text.to_lowercase();
    let mut task = previous.clone();
    let mut changed = false;
    // regroup: "per <col>" / "by <col>"
    for f in wt.schema.fields() {
        let name = f.name().to_lowercase();
        if (lower.contains(&format!("per {name}")) || lower.contains(&format!("by {name}")))
            && task.group_by.as_deref() != Some(f.name()) {
                task.group_by = Some(f.name().to_owned());
                changed = true;
            }
    }
    // drop grouping: "overall" / "in total" / "without grouping"
    if (lower.contains("overall") || lower.contains("in total") || lower.contains("without grouping"))
        && task.group_by.is_some()
    {
        task.group_by = None;
        task.order_desc = false;
        task.limit = None;
        changed = true;
    }
    // change aggregate: "average"/"total"/"maximum"/"minimum" instead
    let new_agg = if lower.contains("average") || lower.contains("mean") {
        Some(AggKind::Avg)
    } else if lower.contains("total") || lower.contains("sum") {
        Some(AggKind::Sum)
    } else if lower.contains("maximum") {
        Some(AggKind::Max)
    } else if lower.contains("minimum") {
        Some(AggKind::Min)
    } else if lower.contains("how many") || lower.contains("count") {
        Some(AggKind::Count)
    } else {
        None
    };
    if let Some(agg) = new_agg {
        if agg != task.agg && (task.metric.is_some() || agg == AggKind::Count) {
            if agg == AggKind::Count {
                task.metric = None;
            }
            task.agg = agg;
            changed = true;
        }
    }
    // added filters: "<col> is <val>" / "only <val>" over known string values
    for f in wt.schema.fields() {
        let name = f.name().to_lowercase();
        if let Some(pos) = lower.find(&format!("{name} is ")) {
            let rest = text[pos + name.len() + 4..].trim_start();
            let word: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !word.is_empty()
                && f.data_type() == DataType::Str
                && !task.filters.iter().any(|fl| fl.column == f.name())
            {
                task.filters.push(TaskFilter {
                    column: f.name().to_owned(),
                    op: CmpOp::Eq,
                    value: Value::Str(word),
                });
                changed = true;
            }
        }
    }
    if !changed {
        // "only <known value>" shorthand
        if let Some(pos) = lower.find("only ") {
            let rest = &text[pos + 5..];
            let word: String =
                rest.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            for (col, values) in &wt.string_values {
                if values.iter().any(|v| v.eq_ignore_ascii_case(&word))
                    && !task.filters.iter().any(|fl| &fl.column == col)
                {
                    task.filters.push(TaskFilter {
                        column: col.clone(),
                        op: CmpOp::Eq,
                        value: Value::Str(word.clone()),
                    });
                    changed = true;
                    break;
                }
            }
        }
    }
    changed.then_some(task)
}

fn first_number(text: &str) -> Option<i64> {
    let digits: String =
        text.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn pick_string_filter(
    wt: &WorkloadTable,
    rng: &mut StdRng,
    exclude: Option<&str>,
) -> Option<(String, String)> {
    let candidates: Vec<&(String, Vec<String>)> = wt
        .string_values
        .iter()
        .filter(|(c, vs)| Some(c.as_str()) != exclude && !vs.is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (col, values) = candidates[rng.gen_range(0..candidates.len())];
    Some((col.clone(), values[rng.gen_range(0..values.len())].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::Field;

    fn table() -> WorkloadTable {
        WorkloadTable {
            name: "employment".into(),
            schema: Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            string_values: vec![
                ("canton".into(), vec!["ZH".into(), "GE".into()]),
                ("sector".into(), vec!["it".into()]),
            ],
        }
    }

    #[test]
    fn sql_rendering_full_task() {
        let t = AnalyticTask {
            table: "employment".into(),
            agg: AggKind::Sum,
            metric: Some("jobs".into()),
            group_by: Some("canton".into()),
            filters: vec![TaskFilter {
                column: "sector".into(),
                op: CmpOp::Eq,
                value: Value::from("it"),
            }],
            order_desc: true,
            limit: Some(3),
        };
        assert_eq!(
            t.to_sql(),
            "SELECT canton, SUM(jobs) AS result FROM employment WHERE sector = 'it' \
             GROUP BY canton ORDER BY result DESC LIMIT 3"
        );
    }

    #[test]
    fn sql_rendering_count_star() {
        let t = AnalyticTask {
            table: "t".into(),
            agg: AggKind::Count,
            metric: None,
            group_by: None,
            filters: vec![],
            order_desc: false,
            limit: None,
        };
        assert_eq!(t.to_sql(), "SELECT COUNT(*) AS result FROM t");
        assert_eq!(t.to_string(), t.to_sql());
    }

    #[test]
    fn string_values_escaped() {
        let t = AnalyticTask {
            table: "t".into(),
            agg: AggKind::Count,
            metric: None,
            group_by: None,
            filters: vec![TaskFilter {
                column: "name".into(),
                op: CmpOp::Eq,
                value: Value::from("O'Hara"),
            }],
            order_desc: false,
            limit: None,
        };
        assert!(t.to_sql().contains("'O''Hara'"));
    }

    #[test]
    fn questions_mention_task_parts() {
        let t = AnalyticTask {
            table: "employment".into(),
            agg: AggKind::Avg,
            metric: Some("rate".into()),
            group_by: Some("canton".into()),
            filters: vec![TaskFilter {
                column: "jobs".into(),
                op: CmpOp::Gt,
                value: Value::Int(50),
            }],
            order_desc: true,
            limit: Some(2),
        };
        let q = t.to_question(0);
        assert!(q.contains("average rate"));
        assert!(q.contains("per canton"));
        assert!(q.contains("jobs is above 50"));
        assert!(q.contains("top 2"));
        // variants differ
        assert_ne!(t.to_question(0), t.to_question(1));
    }

    #[test]
    fn workload_is_seeded_and_valid() {
        let tables = vec![table()];
        let a = Workload::generate(&tables, 50, 7);
        let b = Workload::generate(&tables, 50, 7);
        assert_eq!(a.tasks.len(), 50);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.gold_sql, y.gold_sql);
            assert_eq!(x.question, y.question);
        }
        // gold SQL parses in our engine
        for t in &a.tasks {
            assert!(cda_sql::parser::parse(&t.gold_sql).is_ok(), "bad SQL: {}", t.gold_sql);
        }
        // different seeds differ
        let c = Workload::generate(&tables, 50, 8);
        assert!(a.tasks.iter().zip(&c.tasks).any(|(x, y)| x.gold_sql != y.gold_sql));
    }

    #[test]
    fn parse_question_round_trips_generated_workload() {
        let tables = vec![table()];
        let w = Workload::generate(&tables, 60, 5);
        let mut exact = 0usize;
        for t in &w.tasks {
            let parsed = parse_question(&t.question, &tables);
            if parsed.as_ref() == Some(&t.task) {
                exact += 1;
            } else if let Some(p) = parsed {
                // when not exact, at least the table and aggregate must match
                assert_eq!(p.table, t.task.table, "q: {}", t.question);
            } else {
                panic!("unparseable generated question: {}", t.question);
            }
        }
        // the rule parser should recover the vast majority exactly
        assert!(exact >= 54, "only {exact}/60 exact round-trips");
    }

    #[test]
    fn parse_question_manual_examples() {
        let tables = vec![table()];
        let t = parse_question(
            "What is the total jobs in employment per canton where sector is it, highest first?",
            &tables,
        )
        .unwrap();
        assert_eq!(t.agg, AggKind::Sum);
        assert_eq!(t.metric.as_deref(), Some("jobs"));
        assert_eq!(t.group_by.as_deref(), Some("canton"));
        assert_eq!(t.filters.len(), 1);
        assert!(t.order_desc);
        // unknown table
        assert!(parse_question("total jobs in atlantis", &tables).is_none());
        // no aggregate keyword
        assert!(parse_question("employment please", &tables).is_none());
    }

    #[test]
    fn count_distinct_task_round_trip() {
        let tables = vec![table()];
        let t = parse_question("How many distinct canton values are in employment?", &tables)
            .unwrap();
        assert_eq!(t.agg, AggKind::CountDistinct);
        assert_eq!(t.metric.as_deref(), Some("canton"));
        assert!(t.to_sql().contains("COUNT(DISTINCT canton)"));
        assert!(cda_sql::parser::parse(&t.to_sql()).is_ok());
        assert!(t.to_question(0).contains("distinct canton values"));
    }

    #[test]
    fn refine_task_modifies_previous() {
        let tables = vec![table()];
        let base = parse_question(
            "What is the total jobs in employment per canton?",
            &tables,
        )
        .unwrap();
        // regroup
        let t = refine_task(&base, "and per sector?", &tables).unwrap();
        assert_eq!(t.group_by.as_deref(), Some("sector"));
        assert_eq!(t.agg, base.agg);
        // change aggregate
        let t = refine_task(&base, "make that the average", &tables).unwrap();
        assert_eq!(t.agg, AggKind::Avg);
        // add a filter via "<col> is <val>"
        let t = refine_task(&base, "where sector is it", &tables).unwrap();
        assert_eq!(t.filters.len(), 1);
        // add a filter via "only <known value>"
        let t = refine_task(&base, "only ZH please", &tables).unwrap();
        assert!(t.filters.iter().any(|f| f.column == "canton"));
        // drop grouping
        let t = refine_task(&base, "overall, not split up", &tables).unwrap();
        assert!(t.group_by.is_none());
        // count drops the metric
        let t = refine_task(&base, "how many instead", &tables).unwrap();
        assert_eq!(t.agg, AggKind::Count);
        assert!(t.metric.is_none());
        // no recognizable refinement
        assert!(refine_task(&base, "nice weather today", &tables).is_none());
        // unknown table
        let mut other = base.clone();
        other.table = "missing".into();
        assert!(refine_task(&other, "per sector", &tables).is_none());
    }

    #[test]
    fn workload_tasks_reference_schema_columns() {
        let tables = vec![table()];
        let w = Workload::generate(&tables, 30, 3);
        for t in &w.tasks {
            if let Some(m) = &t.task.metric {
                assert!(tables[0].schema.index_of(m).is_some());
            }
            for f in &t.task.filters {
                assert!(tables[0].schema.index_of(&f.column).is_some());
            }
        }
    }
}
