//! The simulated language model.
//!
//! `SimLm` stands in for a hosted LLM (see the substitution table in
//! DESIGN.md). For an NL2SQL prompt it emits either the oracle SQL or a
//! *hallucinated* variant produced by realistic corruption operators, with
//! synthesized token log-probabilities that are deliberately overconfident.
//! Everything is seeded: the same `(prompt, temperature, sample index)`
//! always yields the same output, which makes every downstream experiment
//! reproducible bit-for-bit.

use crate::nl2sql::{AnalyticTask, CmpOp, TaskFilter};
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{Schema, Value};
use cda_testkit::rng::StdRng;

/// The kinds of hallucination the simulator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HallucinationKind {
    /// Replace a referenced column with another (or invented) column.
    WrongColumn,
    /// Replace the target table with another catalog table.
    WrongTable,
    /// Swap the aggregate function.
    WrongAggregate,
    /// Drop one filter predicate.
    DroppedFilter,
    /// Invert a comparison operator.
    FlippedComparison,
    /// Corrupt a literal value.
    WrongLiteral,
    /// Emit syntactically invalid SQL.
    Malformed,
}

/// All hallucination kinds (sampling support).
pub(crate) const ALL_KINDS: [HallucinationKind; 7] = [
    HallucinationKind::WrongColumn,
    HallucinationKind::WrongTable,
    HallucinationKind::WrongAggregate,
    HallucinationKind::DroppedFilter,
    HallucinationKind::FlippedComparison,
    HallucinationKind::WrongLiteral,
    HallucinationKind::Malformed,
];

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimLmConfig {
    /// Base hallucination probability at temperature 1.0.
    pub hallucination_rate: f64,
    /// How much synthesized confidence overstates correctness: 0 = honest,
    /// 1 = hallucinations claim the same confidence as correct outputs.
    pub overconfidence: f64,
    /// Seed mixed into every sample.
    pub seed: u64,
}

impl Default for SimLmConfig {
    fn default() -> Self {
        Self { hallucination_rate: 0.25, overconfidence: 0.8, seed: 0 }
    }
}

/// One sampled generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// The emitted SQL text.
    pub sql: String,
    /// Mean token log-probability (the "LM confidence" signal, miscalibrated
    /// by design).
    pub mean_logprob: f64,
    /// Which corruption was applied, if any (ground truth for experiments;
    /// a real LLM would not expose this).
    pub injected: Option<HallucinationKind>,
}

impl Generation {
    /// The naive confidence a system would derive from token log-probs.
    pub fn naive_confidence(&self) -> f64 {
        self.mean_logprob.exp()
    }
}

/// The context the simulator needs: the oracle task plus the schema universe
/// it may corrupt references into.
#[derive(Debug, Clone)]
pub struct Nl2SqlPrompt {
    /// The oracle task (what a perfect model would produce).
    pub task: AnalyticTask,
    /// Schema of the target table.
    pub schema: Schema,
    /// Other table names in the catalog (WrongTable support).
    pub other_tables: Vec<String>,
}

/// The simulated LM.
#[derive(Debug, Clone)]
pub struct SimLm {
    config: SimLmConfig,
}

impl SimLm {
    /// Construct with a configuration.
    pub fn new(config: SimLmConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimLmConfig {
        &self.config
    }

    /// Sample one SQL generation. `temperature` scales the hallucination
    /// rate (0 → greedy/correct, 1 → configured rate, >1 → worse); `sample`
    /// distinguishes the k samples of consistency-based UQ.
    pub fn generate_sql(&self, prompt: &Nl2SqlPrompt, temperature: f64, sample: u64) -> Generation {
        let mut rng = self.rng_for(prompt, temperature, sample);
        let h = (self.config.hallucination_rate * temperature).clamp(0.0, 1.0);
        let hallucinate = rng.gen_bool(h);
        let (sql, injected) = if hallucinate {
            let kind = ALL_KINDS[rng.gen_range(0..ALL_KINDS.len())];
            (corrupt(&prompt.task, &prompt.schema, &prompt.other_tables, kind, &mut rng), Some(kind))
        } else {
            (prompt.task.to_sql(), None)
        };
        // Synthesized (mis)calibration: correct outputs get high confidence;
        // hallucinated outputs get confidence shrunk only by
        // (1 - overconfidence) — at overconfidence=1 they are
        // indistinguishable, which is the paper's complaint about LLM
        // self-reported confidence.
        let base = 0.9 - 0.1 * temperature.min(1.0);
        let conf = if injected.is_none() {
            base + rng.gen_range(-0.05..0.05)
        } else {
            let honest = 0.3;
            let claimed = honest + (base - honest) * self.config.overconfidence;
            claimed + rng.gen_range(-0.05..0.05)
        };
        Generation { sql, mean_logprob: conf.clamp(0.01, 0.99).ln(), injected }
    }

    /// Draw `k` samples at the given temperature (the input to
    /// consistency-based UQ).
    pub fn sample_k(&self, prompt: &Nl2SqlPrompt, temperature: f64, k: usize) -> Vec<Generation> {
        (0..k as u64).map(|s| self.generate_sql(prompt, temperature, s)).collect()
    }

    fn rng_for(&self, prompt: &Nl2SqlPrompt, temperature: f64, sample: u64) -> StdRng {
        // Mix the prompt identity, temperature, and sample index into one
        // seed so generations are independent across samples but stable
        // across runs.
        let mut h: u64 = self.config.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in prompt.task.to_sql().bytes() {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b));
        }
        h ^= (temperature * 1000.0) as u64;
        h = h.wrapping_add(sample.wrapping_mul(0x2545_F491_4F6C_DD1D));
        StdRng::seed_from_u64(h)
    }
}

/// Apply one corruption operator to the oracle task.
fn corrupt(
    task: &AnalyticTask,
    schema: &Schema,
    other_tables: &[String],
    kind: HallucinationKind,
    rng: &mut StdRng,
) -> String {
    let mut t = task.clone();
    match kind {
        HallucinationKind::WrongColumn => {
            // swap the metric or group-by for a different schema column
            let columns: Vec<&str> = schema.fields().iter().map(|f| f.name()).collect();
            if let Some(m) = &mut t.metric {
                let numeric: Vec<&str> = schema
                    .fields()
                    .iter()
                    .filter(|f| f.data_type().is_numeric() && f.name() != m.as_str())
                    .map(|f| f.name())
                    .collect();
                if let Some(alt) = pick(&numeric, rng) {
                    *m = (*alt).to_owned();
                } else {
                    *m = "phantom_column".to_owned();
                }
            } else if let Some(g) = &mut t.group_by {
                let alt: Vec<&str> =
                    columns.iter().copied().filter(|c| *c != g.as_str()).collect();
                if let Some(a) = pick(&alt, rng) {
                    *g = (*a).to_owned();
                } else {
                    *g = "phantom_column".to_owned();
                }
            } else {
                t.metric = Some("phantom_column".to_owned());
                t.agg = AggKind::Sum;
            }
        }
        HallucinationKind::WrongTable => {
            if let Some(alt) = pick(&other_tables.iter().map(String::as_str).collect::<Vec<_>>(), rng)
            {
                t.table = (*alt).to_owned();
            } else {
                t.table = "phantom_table".to_owned();
            }
        }
        HallucinationKind::WrongAggregate => {
            let alts: Vec<AggKind> = [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max, AggKind::Count]
                .into_iter()
                .filter(|a| *a != task.agg)
                .collect();
            t.agg = alts[rng.gen_range(0..alts.len())];
            if t.metric.is_none() && t.agg != AggKind::Count {
                // SUM(*) is invalid; point it at some numeric column instead
                let numeric: Vec<&str> = schema
                    .fields()
                    .iter()
                    .filter(|f| f.data_type().is_numeric())
                    .map(|f| f.name())
                    .collect();
                t.metric = pick(&numeric, rng).map(|s| (*s).to_owned());
                if t.metric.is_none() {
                    t.agg = AggKind::Count;
                }
            }
        }
        HallucinationKind::DroppedFilter => {
            if t.filters.is_empty() {
                // nothing to drop: invent a spurious filter instead
                t.filters.push(TaskFilter {
                    column: schema.fields().first().map_or("x".into(), |f| f.name().to_owned()),
                    op: CmpOp::Eq,
                    value: Value::from("unexpected"),
                });
            } else {
                let i = rng.gen_range(0..t.filters.len());
                t.filters.remove(i);
            }
        }
        HallucinationKind::FlippedComparison => {
            if let Some(f) = t.filters.iter_mut().find(|f| f.op != CmpOp::Eq) {
                f.op = if f.op == CmpOp::Gt { CmpOp::Lt } else { CmpOp::Gt };
            } else if let Some(f) = t.filters.first_mut() {
                f.op = CmpOp::Gt;
                f.value = Value::Int(0);
            } else {
                t.order_desc = !t.order_desc;
            }
        }
        HallucinationKind::WrongLiteral => {
            if let Some(f) = t.filters.first_mut() {
                f.value = match &f.value {
                    Value::Str(s) => Value::Str(format!("{s}_x")),
                    Value::Int(v) => Value::Int(v + 7),
                    other => other.clone(),
                };
            } else {
                t.limit = Some(t.limit.unwrap_or(10) + 1);
            }
        }
        HallucinationKind::Malformed => {
            // produce a syntax error a grammar-constrained decoder would catch
            let sql = t.to_sql();
            let cut = sql.len() * 2 / 3;
            let mut s = sql[..cut].to_owned();
            s.push_str(" FROM FROM");
            return s;
        }
    }
    t.to_sql()
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{DataType, Field};

    fn prompt() -> Nl2SqlPrompt {
        let task = AnalyticTask {
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
            limit: None,
        };
        Nl2SqlPrompt {
            schema: Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            other_tables: vec!["barometer".into()],
            task,
        }
    }

    #[test]
    fn zero_temperature_is_always_correct() {
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.9, ..Default::default() });
        let p = prompt();
        for s in 0..20 {
            let g = lm.generate_sql(&p, 0.0, s);
            assert_eq!(g.sql, p.task.to_sql());
            assert!(g.injected.is_none());
        }
    }

    #[test]
    fn generation_is_deterministic_per_sample_index() {
        let lm = SimLm::new(SimLmConfig::default());
        let p = prompt();
        let a = lm.generate_sql(&p, 1.0, 3);
        let b = lm.generate_sql(&p, 1.0, 3);
        assert_eq!(a, b);
        let c = lm.generate_sql(&p, 1.0, 4);
        // different sample index → independent draw (usually different)
        let _ = c;
    }

    #[test]
    fn hallucination_rate_is_roughly_respected() {
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.4, ..Default::default() });
        let p = prompt();
        let n = 500;
        let bad = (0..n).filter(|&s| lm.generate_sql(&p, 1.0, s).injected.is_some()).count();
        let rate = bad as f64 / n as f64;
        assert!((rate - 0.4).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn corrupted_sql_differs_from_gold_and_usually_parses() {
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 1.0, ..Default::default() });
        let p = prompt();
        let gold = p.task.to_sql();
        let mut parse_failures = 0usize;
        for s in 0..100 {
            let g = lm.generate_sql(&p, 1.0, s);
            assert!(g.injected.is_some());
            assert_ne!(g.sql, gold, "kind {:?} produced gold SQL", g.injected);
            if cda_sql::parser::parse(&g.sql).is_err() {
                parse_failures += 1;
                assert_eq!(g.injected, Some(HallucinationKind::Malformed));
            }
        }
        assert!(parse_failures > 0, "Malformed should appear in 100 draws");
    }

    #[test]
    fn all_corruption_kinds_produce_non_gold_sql() {
        let p = prompt();
        let mut rng = StdRng::seed_from_u64(1);
        let gold = p.task.to_sql();
        for kind in ALL_KINDS {
            let sql = corrupt(&p.task, &p.schema, &p.other_tables, kind, &mut rng);
            assert_ne!(sql, gold, "{kind:?}");
        }
    }

    #[test]
    fn overconfidence_inflates_hallucination_confidence() {
        let p = prompt();
        let honest = SimLm::new(SimLmConfig {
            hallucination_rate: 1.0,
            overconfidence: 0.0,
            seed: 1,
        });
        let braggy = SimLm::new(SimLmConfig {
            hallucination_rate: 1.0,
            overconfidence: 1.0,
            seed: 1,
        });
        let mean = |lm: &SimLm| -> f64 {
            (0..50).map(|s| lm.generate_sql(&p, 1.0, s).naive_confidence()).sum::<f64>() / 50.0
        };
        assert!(mean(&braggy) > mean(&honest) + 0.2);
    }

    #[test]
    fn sample_k_yields_k_generations() {
        let lm = SimLm::new(SimLmConfig::default());
        let p = prompt();
        let gens = lm.sample_k(&p, 0.8, 7);
        assert_eq!(gens.len(), 7);
    }

    #[test]
    fn corruption_of_filterless_count_star_task() {
        // the degenerate task exercises the fallback paths of each operator
        let task = AnalyticTask {
            table: "t".into(),
            agg: AggKind::Count,
            metric: None,
            group_by: None,
            filters: vec![],
            order_desc: false,
            limit: None,
        };
        let schema = Schema::new(vec![Field::new("jobs", DataType::Int)]);
        let mut rng = StdRng::seed_from_u64(2);
        for kind in ALL_KINDS {
            let sql = corrupt(&task, &schema, &[], kind, &mut rng);
            assert_ne!(sql, task.to_sql(), "{kind:?}");
        }
    }
}
