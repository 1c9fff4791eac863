//! Seeded input generators. Everything the product receives — worlds,
//! tables, utterances, interleavings — is generated here from `--seed`, so
//! the same seed gives the same inputs and `inputs_fnv` proves it.

use cda_core::catalog::DatasetCatalog;
use cda_core::demo::{
    demo_catalog, demo_kg, demo_linker, demo_vocabulary, CANTONS, EMPLOYMENT_TYPES, FIGURE1_TURNS,
};
use cda_core::storage::StorageBackend;
use cda_core::WorldSnapshot;
use cda_dataframe::kernels::AggKind;
use cda_dataframe::Value;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::SimLmConfig;
use cda_nlmodel::nl2sql::{parse_question, AnalyticTask, CmpOp, Nl2SqlTask, TaskFilter, Workload};
use cda_testkit::rng::StdRng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Refinement follow-ups that only make sense after an analysis turn.
pub const REFINEMENTS: [&str; 2] = ["and per type instead?", "only the top 3"];

/// The table the scaled world replaces.
pub const FACT_TABLE: &str = "employment_by_type";
/// The small table writers update and one question in five reads.
pub const SMALL_TABLE: &str = "wage_stats";

/// FNV-1a (the workspace's `cda_storage::fnv1a`) over a sequence of strings,
/// each terminated so that `["ab","c"]` and `["a","bc"]` differ.
pub fn fnv_strings<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for s in items {
        bytes.extend_from_slice(s.as_bytes());
        bytes.push(0xff);
    }
    cda_core::storage::fnv1a(&bytes)
}

/// A seeded fact table with the schema of the demo `employment_by_type`
/// (`canton, type, year, employees`) and `rows` rows.
pub fn scaled_table(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1ED);
    let mut cantons = Vec::with_capacity(rows);
    let mut types = Vec::with_capacity(rows);
    let mut years = Vec::with_capacity(rows);
    let mut employees = Vec::with_capacity(rows);
    for _ in 0..rows {
        cantons.push(CANTONS[rng.gen_range(0..CANTONS.len())]);
        types.push(EMPLOYMENT_TYPES[rng.gen_range(0..EMPLOYMENT_TYPES.len())]);
        years.push(rng.gen_range(2000i64..2025));
        employees.push(rng.gen_range(10_000i64..80_000));
    }
    Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str).with_description("two-letter canton code"),
            Field::new("type", DataType::Str).with_description("employment type"),
            Field::new("year", DataType::Int).with_description("reference year"),
            Field::new("employees", DataType::Int)
                .with_description("number of employees older than 15"),
        ]),
        vec![
            Column::from_strs(&cantons),
            Column::from_strs(&types),
            Column::from_ints(&years),
            Column::from_ints(&employees),
        ],
    )
    .expect("columns match the literal schema")
}

/// The demo catalog with `employment_by_type` replaced by a `rows`-row
/// seeded table of the same schema. Workload tables and statistics derive
/// from it at registration, exactly as for the demo world.
pub fn scaled_catalog(rows: usize, seed: u64) -> DatasetCatalog {
    let mut catalog = DatasetCatalog::new();
    for ds in demo_catalog(seed).datasets() {
        let mut ds = ds.clone();
        if ds.name == FACT_TABLE {
            ds.table = Some(scaled_table(rows, seed));
        }
        catalog.register(ds).expect("demo dataset names are unique");
    }
    catalog
}

/// The demo world's code-defined parts around a catalog (or around the
/// catalog a storage backend already holds when `catalog` is `None`).
pub fn world_builder(seed: u64) -> cda_core::world::WorldSnapshotBuilder {
    WorldSnapshot::builder()
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig {
            hallucination_rate: 0.15,
            overconfidence: 0.8,
            seed,
        })
}

/// An in-memory world over `catalog`.
pub fn build_world(catalog: DatasetCatalog, seed: u64) -> Arc<WorldSnapshot> {
    world_builder(seed).catalog(catalog).build_shared()
}

/// A world reconciled with `backend`: persists `catalog` on first open,
/// loads the committed catalog on a restart (`catalog = None`).
pub fn open_durable_world(
    catalog: Option<DatasetCatalog>,
    seed: u64,
    backend: Arc<dyn StorageBackend>,
) -> cda_core::Result<Arc<WorldSnapshot>> {
    let builder = world_builder(seed).with_storage(backend);
    match catalog {
        Some(c) => builder.catalog(c).open_shared(),
        None => builder.open_shared(),
    }
}

/// Canonical-plan fingerprint of a SQL string against the world's catalog.
pub fn fingerprint(world: &WorldSnapshot, sql: &str) -> Option<u64> {
    let select = cda_sql::parser::parse(sql).ok()?;
    let plan = cda_sql::planner::plan_select(world.catalog().sql(), &select).ok()?;
    Some(cda_analyzer::EquivEngine::new().fingerprint(&plan).as_u64())
}

/// `n` generated questions with pairwise-distinct plan fingerprints, whose
/// question text parses back to the generating task, restricted by `keep`.
/// Distinct fingerprints are what makes "without repetition" mean "the
/// semantic cache cannot hit".
pub fn question_pool(
    world: &WorldSnapshot,
    n: usize,
    seed: u64,
    keep: impl Fn(&Nl2SqlTask) -> bool,
) -> Vec<Nl2SqlTask> {
    let tables = world.workload_tables();
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(n);
    // Generate in growing batches: equal tasks are common over small schemas.
    let mut batch = 0u64;
    while pool.len() < n && batch < 64 {
        let generated = Workload::generate(tables, n * 4, seed.wrapping_add(batch * 0x9e37));
        for task in generated.tasks {
            if pool.len() == n {
                break;
            }
            if !keep(&task) || parse_question(&task.question, tables).as_ref() != Some(&task.task) {
                continue;
            }
            if let Some(fp) = fingerprint(world, &task.gold_sql) {
                if seen.insert(fp) {
                    pool.push(task);
                }
            }
        }
        batch += 1;
    }
    assert_eq!(
        pool.len(),
        n,
        "question generator exhausted before {n} distinct plans"
    );
    pool
}

/// Every aggregate × metric × grouping × filter shape over one table, in a
/// fixed order: the *shapes* are the same for every seed (so two seeds run
/// the same population of queries and their medians are comparable); the
/// seed picks each filter's literal and each question's phrasing. Shapes
/// whose question does not parse back, or whose plan duplicates an earlier
/// one, are left out.
pub fn template_pool(world: &WorldSnapshot, table: &str, seed: u64) -> Vec<Nl2SqlTask> {
    let tables = world.workload_tables();
    let Some(wt) = tables.iter().find(|t| t.name == table) else {
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E3A);
    let metrics: Vec<&str> = wt
        .schema
        .fields()
        .iter()
        .filter(|f| f.data_type().is_numeric())
        .map(|f| f.name())
        .collect();
    let mut aggregates: Vec<(AggKind, Option<&str>)> = vec![(AggKind::Count, None)];
    for agg in [
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
        AggKind::StdDev,
    ] {
        aggregates.extend(metrics.iter().map(|m| (agg, Some(*m))));
    }
    let strings: Vec<&(String, Vec<String>)> = wt
        .string_values
        .iter()
        .filter(|(_, values)| !values.is_empty())
        .collect();
    let mut seen = BTreeSet::new();
    let mut pool = Vec::new();
    for (agg, metric) in aggregates {
        for group_by in std::iter::once(None).chain(strings.iter().map(|(c, _)| Some(c))) {
            for filter in std::iter::once(None).chain(strings.iter().map(|s| Some(*s))) {
                if let (Some(g), Some((f, _))) = (group_by, filter) {
                    if g == f {
                        continue;
                    }
                }
                let filters = filter
                    .map(|(column, values)| TaskFilter {
                        column: column.clone(),
                        op: CmpOp::Eq,
                        value: Value::Str(values[rng.gen_range(0..values.len())].clone()),
                    })
                    .into_iter()
                    .collect();
                let task = AnalyticTask {
                    table: table.to_owned(),
                    agg,
                    metric: metric.map(str::to_owned),
                    group_by: group_by.cloned(),
                    filters,
                    order_desc: false,
                    limit: None,
                };
                let question = task.to_question(rng.gen_range(0..3usize));
                if parse_question(&question, tables).as_ref() != Some(&task) {
                    continue;
                }
                let gold_sql = task.to_sql();
                if fingerprint(world, &gold_sql).is_some_and(|fp| seen.insert(fp)) {
                    pool.push(Nl2SqlTask {
                        question,
                        task,
                        gold_sql,
                    });
                }
            }
        }
    }
    pool
}

/// Deals a pool's indices in seeded shuffled order, reshuffling when the
/// deck runs out — consecutive sessions cover the whole pool evenly instead
/// of each sampling it independently.
#[derive(Debug)]
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    /// A shuffled deck over `len` items.
    pub fn new(len: usize, rng: &mut StdRng) -> Self {
        assert!(len > 0, "empty question pool");
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        Self { order, next: 0 }
    }

    /// The next index.
    pub fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// A phrasing of `task` other than its own question that parses back to the
/// same task (so it is fingerprint-equal), if one exists.
pub fn rephrase(world: &WorldSnapshot, task: &Nl2SqlTask, rng: &mut StdRng) -> Option<String> {
    let tables = world.workload_tables();
    let start = rng.gen_range(0..3usize);
    (0..3)
        .map(|i| task.task.to_question(start + i))
        .find(|q| *q != task.question && parse_question(q, tables).as_ref() == Some(&task.task))
}

/// How one conversational script is mixed.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// Turns per session.
    pub turns: usize,
    /// Percent of turns that walk the Figure-1 conversation (discovery,
    /// description, selection, seasonality); the rest are nl2sql questions
    /// and refinements.
    pub conversational_pct: u64,
    /// Percent of the analysis turns that directly follow an analysis and
    /// refine it instead of asking a new question.
    pub refine_pct: u64,
    /// Draw questions without repetition inside a session (the semantic
    /// cache cannot hit) instead of with replacement.
    pub no_repeat: bool,
}

/// One Figure-1-style session script: conversational turns walk
/// `FIGURE1_TURNS` in order (so a selection follows an offer), analysis
/// turns draw from `pool`, and `refine_pct` of the analysis turns right
/// after an analysis refine it.
pub fn mixed_script(pool: &[Nl2SqlTask], spec: MixSpec, rng: &mut StdRng) -> Vec<String> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut next_fresh = 0usize;
    let mut figure1 = 0usize;
    let mut last_was_analysis = false;
    let mut script = Vec::with_capacity(spec.turns);
    for _ in 0..spec.turns {
        if rng.gen_range(0..100u64) < spec.conversational_pct {
            last_was_analysis = false;
            script.push(FIGURE1_TURNS[figure1 % FIGURE1_TURNS.len()].to_owned());
            figure1 += 1;
        } else if last_was_analysis && rng.gen_range(0..100u64) < spec.refine_pct {
            script.push(REFINEMENTS[rng.gen_range(0..REFINEMENTS.len())].to_owned());
        } else {
            last_was_analysis = true;
            let pick = if spec.no_repeat {
                assert!(
                    next_fresh < order.len(),
                    "pool smaller than a session's questions"
                );
                next_fresh += 1;
                order[next_fresh - 1]
            } else {
                rng.gen_range(0..pool.len())
            };
            script.push(pool[pick].question.clone());
        }
    }
    script
}

/// One all-nl2sql session over the scaled world: each turn after the first
/// re-asks an earlier question of the session with probability
/// `repeat_share` (verbatim or as a fingerprint-equal rephrasing), else
/// asks a new one — dealt from `small` one time in five, else from `fact`.
pub fn scan_script(
    world: &WorldSnapshot,
    fact: (&[Nl2SqlTask], &mut Deck),
    small: (&[Nl2SqlTask], &mut Deck),
    turns: usize,
    repeat_share: f64,
    rng: &mut StdRng,
) -> Vec<String> {
    let mut asked: Vec<&Nl2SqlTask> = Vec::new();
    let mut script = Vec::with_capacity(turns);
    for _ in 0..turns {
        if !asked.is_empty() && rng.gen_bool(repeat_share) {
            let earlier = asked[rng.gen_range(0..asked.len())];
            let verbatim = rng.gen_bool(0.5);
            let again = if verbatim {
                None
            } else {
                rephrase(world, earlier, rng)
            };
            script.push(again.unwrap_or_else(|| earlier.question.clone()));
            continue;
        }
        let mut task = if rng.gen_range(0..5u32) == 0 {
            &small.0[small.1.draw(rng)]
        } else {
            &fact.0[fact.1.draw(rng)]
        };
        // A reshuffle can deal a question this session already asked.
        if asked.iter().any(|t| t.task == task.task) {
            task = &fact.0[fact.1.draw(rng)];
        }
        asked.push(task);
        script.push(task.question.clone());
    }
    script
}

/// The DML turn a writer session submits: a one-canton wage bump, or (one
/// time in ten) the same bump behind a filter that divides by a literal
/// zero, which the gate must reject before anything executes. (A write to
/// an unknown column is rejected too, but the server cannot derive its
/// effect set and falls back to the conflicts-with-everything schema effect,
/// which would pull every session of the round into the write lane.)
pub fn write_turn(nth_write: usize) -> String {
    let canton = CANTONS[nth_write % CANTONS.len()];
    let doom = if nth_write % 10 == 9 {
        " AND median_wage / 0 > 1"
    } else {
        ""
    };
    format!(
        "UPDATE {SMALL_TABLE} SET median_wage = median_wage + 1 WHERE canton = '{canton}'{doom}"
    )
}

/// True for the deliberately doomed write of [`write_turn`].
pub fn is_doomed_write(utterance: &str) -> bool {
    utterance.contains("/ 0")
}

/// True for any utterance [`write_turn`] generates.
pub fn is_write(utterance: &str) -> bool {
    utterance.starts_with("UPDATE ")
}

/// Flatten per-session turn chunks into one submission order that
/// interleaves sessions pseudo-randomly while preserving each session's own
/// turn order. Returns `(session index, turn index within the chunk)`.
pub fn interleave(lengths: &[usize], rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut cursors = vec![0usize; lengths.len()];
    let mut live: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    let mut out = Vec::with_capacity(lengths.iter().sum());
    while !live.is_empty() {
        let pick = rng.gen_range(0..live.len());
        let s = live[pick];
        out.push((s, cursors[s]));
        cursors[s] += 1;
        if cursors[s] == lengths[s] {
            live.swap_remove(pick);
        }
    }
    out
}
