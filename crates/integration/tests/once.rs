//! "Each piece of an analysis turn is done once" — what the reuse across UQ,
//! cache, answer and explanation must not change, and what it must.
//!
//! * **Byte-identity pins.** `transcript_pins.tsv` holds, per generated
//!   session, the FNV-1a of everything its turns said (rendered answer,
//!   status, executed SQL, analyzer / `[cache]` / `[repair]` annotations and
//!   the full explanation bundle) plus the semantic-cache counters, recorded
//!   at the commit *before* the reuse landed. Sessions: 32 × 20 turns of the
//!   server load generator over `demo_world`, and 8 × 20 turns over a
//!   4 096-row `employment_by_type` in which half the turns re-ask an earlier
//!   question (verbatim or as a fingerprint-equal rephrasing) and one new
//!   question in five reads the small `wage_stats` — once on in-memory
//!   sessions, once on durable sessions with every handle dropped and the
//!   world reopened from its file halfway through.
//! * **The execution-count law.** Over the same sessions, a turn runs the
//!   engine exactly once per distinct candidate fingerprint its consistency
//!   round takes to execution and the semantic cache does not already hold
//!   (`SessionStats::executions`): a miss costs `equiv_groups` executions —
//!   the answer is one of them, not one more — and a re-asked question costs
//!   none for the candidates it shares with the earlier answer.

use cda_analyzer::Analyzer;
use cda_core::catalog::DatasetCatalog;
use cda_core::demo::{
    demo_catalog, demo_kg, demo_linker, demo_vocabulary, demo_world, CANTONS, EMPLOYMENT_TYPES,
};
use cda_core::storage::{fnv1a, FileBackend};
use cda_core::world::WorldSnapshotBuilder;
use cda_core::{AnswerTurn, CdaConfig, Route, Session, WorldSnapshot};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::intent::{classify_intent, Intent};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLmConfig};
use cda_nlmodel::nl2sql::{parse_question, Nl2SqlTask, Workload};
use cda_server::loadgen::{session_scripts, LoadSpec};
use cda_soundness::consistency::{ConsistencyUq, UqRound};
use cda_sql::{ExecOptions, QueryResult};
use cda_testkit::rng::StdRng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 17;
const FACT_TABLE: &str = "employment_by_type";
const SMALL_TABLE: &str = "wage_stats";
const SCALED_ROWS: usize = 4096;
const SCALED_SESSIONS: usize = 8;
const TURNS: usize = 20;

/// Everything one turn said, user-facing and machine-facing (timings are
/// the only field left out).
fn turn_record(t: &AnswerTurn) -> String {
    format!(
        "{}\u{1}{:?}\u{1}{:?}\u{1}{:?}\u{1}{:?}\u{2}",
        t.render(),
        t.status,
        t.executed_sql,
        t.analysis,
        t.explanation
    )
}

/// Run `script` and render the session's pin line: name, transcript hash,
/// cache hits / misses / entries.
fn pin_line(name: &str, session: &mut Session, script: &[String]) -> String {
    let transcript: String = script.iter().map(|u| turn_record(&session.process(u))).collect();
    let cache = session.stats().cache;
    format!(
        "{name}\t{:016x}\t{}\t{}\t{}",
        fnv1a(transcript.as_bytes()),
        cache.hits,
        cache.misses,
        cache.entries
    )
}

/// The demo catalog with `employment_by_type` replaced by a seeded
/// `SCALED_ROWS`-row table of the same schema.
fn scaled_catalog() -> DatasetCatalog {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5CA1ED);
    let (mut cantons, mut types, mut years, mut employees) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SCALED_ROWS {
        cantons.push(CANTONS[rng.gen_range(0..CANTONS.len())]);
        types.push(EMPLOYMENT_TYPES[rng.gen_range(0..EMPLOYMENT_TYPES.len())]);
        years.push(rng.gen_range(2000i64..2025));
        employees.push(rng.gen_range(10_000i64..80_000));
    }
    let fact = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("type", DataType::Str),
            Field::new("year", DataType::Int),
            Field::new("employees", DataType::Int),
        ]),
        vec![
            Column::from_strs(&cantons),
            Column::from_strs(&types),
            Column::from_ints(&years),
            Column::from_ints(&employees),
        ],
    )
    .unwrap();
    let mut catalog = DatasetCatalog::new();
    for ds in demo_catalog(SEED).datasets() {
        let mut ds = ds.clone();
        if ds.name == FACT_TABLE {
            ds.table = Some(fact.clone());
        }
        catalog.register(ds).unwrap();
    }
    catalog
}

fn scaled_world_builder() -> WorldSnapshotBuilder {
    WorldSnapshot::builder()
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: SEED })
}

/// All-nl2sql scripts over the scaled world: each turn after the first
/// re-asks an earlier question of the session with probability 0.5 —
/// verbatim, or in another phrasing that parses back to the same task and is
/// therefore fingerprint-equal — else asks a new one, from `wage_stats` one
/// time in five.
fn scaled_scripts(world: &WorldSnapshot) -> Vec<Vec<String>> {
    let tables = world.workload_tables();
    let parses_back = |q: &str, t: &Nl2SqlTask| parse_question(q, tables).as_ref() == Some(&t.task);
    let pool: Vec<Nl2SqlTask> = Workload::generate(tables, 512, SEED)
        .tasks
        .into_iter()
        .filter(|t| parses_back(&t.question, t))
        .collect();
    let of = |table: &str| pool.iter().filter(|t| t.task.table == table).collect::<Vec<_>>();
    let (fact, small) = (of(FACT_TABLE), of(SMALL_TABLE));
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5C21);
    (0..SCALED_SESSIONS)
        .map(|_| {
            let mut asked: Vec<&Nl2SqlTask> = Vec::new();
            (0..TURNS)
                .map(|_| {
                    if !asked.is_empty() && rng.gen_bool(0.5) {
                        let earlier = asked[rng.gen_range(0..asked.len())];
                        let again = earlier.task.to_question(rng.gen_range(0..3usize));
                        if parses_back(&again, earlier) {
                            again
                        } else {
                            earlier.question.clone()
                        }
                    } else {
                        let from = if rng.gen_range(0..5u32) == 0 { &small } else { &fact };
                        let task = from[rng.gen_range(0..from.len())];
                        asked.push(task);
                        task.question.clone()
                    }
                })
                .collect()
        })
        .collect()
}

fn demo_scripts(world: &WorldSnapshot) -> Vec<Vec<String>> {
    session_scripts(world, LoadSpec { sessions: 32, turns_per_session: TURNS, seed: SEED })
}

/// The pin file's lines, recomputed on this build.
fn transcript_pins() -> Vec<String> {
    let mut lines = Vec::new();
    let demo = demo_world(SEED);
    for (i, script) in demo_scripts(&demo).iter().enumerate() {
        let mut session =
            Session::open_seeded(Arc::clone(&demo), CdaConfig::default(), i as u64 + 1);
        lines.push(pin_line(&format!("demo/{i}"), &mut session, script));
    }

    let scaled = scaled_world_builder().catalog(scaled_catalog()).build_shared();
    let scripts = scaled_scripts(&scaled);
    for (i, script) in scripts.iter().enumerate() {
        let mut session =
            Session::open_seeded(Arc::clone(&scaled), CdaConfig::default(), i as u64 + 1);
        lines.push(pin_line(&format!("scaled/mem/{i}"), &mut session, script));
    }

    // Durable sessions share one world-scoped cache, so they run one after
    // the other over the same file; each is cut in two by a restart in
    // which the session, the world and the backend are all dropped.
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("once-pins-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut catalog = Some(scaled_catalog());
    for (i, script) in scripts.iter().enumerate() {
        for (half, turns) in [&script[..TURNS / 2], &script[TURNS / 2..]].into_iter().enumerate() {
            let builder = scaled_world_builder()
                .with_storage(Arc::new(FileBackend::open(&path).unwrap()));
            let world = match catalog.take() {
                Some(catalog) => builder.catalog(catalog).open_shared(),
                None => builder.open_shared(),
            }
            .unwrap();
            let mut session =
                Session::open_durable_seeded(world, CdaConfig::default(), i as u64 + 1).unwrap();
            lines.push(pin_line(&format!("scaled/durable/{i}/{half}"), &mut session, turns));
        }
    }
    let _ = std::fs::remove_file(&path);
    lines
}

/// Prints `transcript_pins.tsv`. Run it at the commit whose behaviour is to
/// be pinned: `cargo test -p cda-integration --test once -- --ignored
/// --nocapture print_transcript_pins | grep -P '\t' > …/transcript_pins.tsv`.
#[test]
#[ignore = "generator for transcript_pins.tsv, not a check"]
fn print_transcript_pins() {
    for line in transcript_pins() {
        println!("{line}");
    }
}

#[test]
fn every_pinned_transcript_and_cache_counter_reproduces() {
    let pinned: Vec<&str> = include_str!("transcript_pins.tsv").lines().collect();
    let now = transcript_pins();
    assert_eq!(pinned.len(), 32 + 3 * SCALED_SESSIONS);
    let hits: usize =
        pinned.iter().map(|l| l.split('\t').nth(2).unwrap().parse::<usize>().unwrap()).sum();
    assert!(hits > 100, "the pinned sessions must exercise the hit path ({hits} hits)");
    for (pin, line) in pinned.iter().zip(&now) {
        assert_eq!(pin, line, "drifted (session, transcript fnv, cache hits, misses, entries)");
    }
}

/// The consistency round `utterance` would get from `session` right now, run
/// from outside with nothing known, and the fingerprints it took to
/// execution — `None` when the turn is not an analysis turn.
fn round_outside(
    session: &Session,
    utterance: &str,
) -> Option<(BTreeSet<u64>, UqRound<QueryResult>)> {
    let intent = classify_intent(utterance, !session.state().offered.is_empty()).intent;
    let Route::Analysis(task) = session.route(utterance) else { return None };
    if intent != Intent::Analysis {
        return None;
    }
    let (catalog, config) = (session.catalog(), session.config);
    let schema = catalog.sql().get(&task.table).map(|e| e.table.schema().clone()).unwrap();
    let other_tables =
        catalog.sql().table_names().into_iter().filter(|n| *n != task.table).collect();
    let prompt = Nl2SqlPrompt { task, schema, other_tables };
    let analyzer = Analyzer::new(catalog.sql())
        .with_stats(catalog.stats())
        .with_row_budget(config.row_budget);
    let executing = RefCell::new(BTreeSet::new());
    let round = ConsistencyUq::new(&session.lm, &analyzer)
        .with_samples(config.uq_samples)
        .with_temperature(config.temperature)
        .with_repair(config.repair_rounds)
        .with_equivalence(true)
        .with_exec_options(ExecOptions::vectorized())
        .run_with(&prompt, |fp| {
            executing.borrow_mut().insert(fp);
            None::<QueryResult>
        })
        .unwrap();
    Some((executing.into_inner(), round))
}

/// Run every script on a fresh session and check each turn's execution
/// count against a model of what the cache holds.
fn assert_each_candidate_executes_once(
    world: &Arc<WorldSnapshot>,
    config: CdaConfig,
    scripts: &[Vec<String>],
) {
    let (mut hit_turns, mut analysis_turns) = (0, 0);
    for (i, script) in scripts.iter().enumerate() {
        let mut session = Session::open_seeded(Arc::clone(world), config, i as u64 + 1);
        let mut held: BTreeSet<u64> = BTreeSet::new();
        for utterance in script {
            let outside = round_outside(&session, utterance);
            let before = session.stats();
            let turn = session.process(utterance);
            let after = session.stats();
            let ran = after.executions - before.executions;
            let Some((executing, round)) = outside else {
                assert_eq!(ran, 0, "{utterance:?} is not an analysis turn");
                continue;
            };
            analysis_turns += 1;
            assert_eq!(executing.len(), round.report.equiv_groups);
            assert_eq!(
                ran,
                executing.difference(&held).count(),
                "session {i}, {utterance:?}: {} candidate groups, {} of them held by the cache",
                executing.len(),
                executing.intersection(&held).count()
            );
            // What the turn served or stored is the winner, and only it.
            let winner = round.winner.as_ref().map(|w| (w.fingerprint.unwrap(), &w.sql));
            if after.cache.hits > before.cache.hits {
                hit_turns += 1;
                assert!(held.contains(&winner.unwrap().0));
            }
            if after.cache.misses > before.cache.misses {
                assert_eq!(turn.executed_sql.as_ref(), Some(winner.unwrap().1));
                assert!(held.insert(winner.unwrap().0));
            }
            assert_eq!(after.cache.entries, held.len());
        }
    }
    assert!(analysis_turns > 100, "{analysis_turns} analysis turns");
    assert_eq!(hit_turns > 0, config.semantic_cache);
}

#[test]
fn a_turn_executes_exactly_the_distinct_candidates_the_cache_does_not_hold() {
    let demo = demo_world(SEED);
    assert_each_candidate_executes_once(&demo, CdaConfig::default(), &demo_scripts(&demo));
    let scaled = scaled_world_builder().catalog(scaled_catalog()).build_shared();
    let scripts = scaled_scripts(&scaled);
    assert_each_candidate_executes_once(&scaled, CdaConfig::default(), &scripts);
    // With the cache off nothing is ever held: every turn executes each of
    // its `equiv_groups` once — and answers from the winner's execution
    // rather than executing it again.
    let uncached = CdaConfig { semantic_cache: false, ..CdaConfig::default() };
    assert_each_candidate_executes_once(&scaled, uncached, &scripts);
}

#[test]
fn a_verbatim_re_ask_under_a_clean_model_executes_nothing() {
    let world = scaled_world_builder()
        .lm(SimLmConfig { hallucination_rate: 0.0, overconfidence: 0.8, seed: SEED })
        .catalog(scaled_catalog())
        .build_shared();
    let mut session = Session::open(world, CdaConfig::default());
    let question = "What is the total employees in employment_by_type per canton?";
    let first = session.process(question);
    assert_eq!(session.stats().executions, 1, "k identical samples are one group");
    let again = session.process(question);
    let stats = session.stats();
    assert_eq!((stats.executions, stats.cache.hits, stats.cache.misses), (1, 1, 1));
    assert_eq!(first.executed_sql, again.executed_sql);
    assert!(again.analysis.iter().any(|a| a.starts_with("[cache]")));
}
