//! Layer replay of one turn.
//!
//! `Session::process` is one opaque call, so the traced pass times it as
//! the parent span and then replays the same utterance through the public
//! entry points of each layer, in pipeline order, one child span per call.
//! The replay never feeds back into the session: it reads the world, the
//! session's seeded LM and the pre-turn dialogue state, and keeps its own
//! mirror of the semantic cache to time `get`/`put`.

use crate::trace::Tracer;
use cda_analyzer::{Analyzer, EquivEngine};
use cda_core::session::{CacheStore, CachedAnswer, DialogueState, SemanticCache};
use cda_core::{CdaConfig, Session, WorldSnapshot};
use cda_guidance::planner::{Action, SpeculativePlanner};
use cda_kg::linking::LinkerConfig;
use cda_nlmodel::generation;
use cda_nlmodel::intent::{classify_intent, Intent};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm};
use cda_nlmodel::nl2sql::{parse_question, refine_task};
use cda_provenance::checks::check_losslessness;
use cda_provenance::Explanation;
use cda_soundness::consistency::ConsistencyUq;
use cda_sql::{ExecOptions, OptimizerRules};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which handler a turn routes to — the traced pass groups metrics by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnKind {
    /// A DML statement through the mutation gate.
    Write,
    /// An nl2sql question or a refinement of one.
    Analysis,
    /// Dataset discovery over the vector index.
    Discovery,
    /// Dataset description via the entity linker.
    Description,
    /// Picking one of the offered datasets.
    Selection,
    /// Seasonality insights.
    Seasonality,
    /// Anything the classifier could not place.
    Unclear,
}

/// What the replay learned beyond span times.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayFacts {
    /// Candidates the LM decoded (0 for non-analysis turns).
    pub candidates: usize,
    /// SQL executions replayed: one per distinct candidate fingerprint plus
    /// the answering execution on a cache miss.
    pub executions: usize,
    /// Base-table rows those executions scanned.
    pub rows_scanned: usize,
}

/// Everything the replay reads that the turn itself may change.
pub struct PreTurn {
    /// The world the turn ran against.
    pub world: Arc<WorldSnapshot>,
    /// The session's seeded LM.
    pub lm: SimLm,
    /// The session's configuration.
    pub config: CdaConfig,
    /// The session's seed (a write replay opens a scratch session with it).
    pub seed: u64,
    /// Dialogue state before the turn.
    pub state: DialogueState,
}

impl PreTurn {
    /// Capture the pre-turn view of `session`.
    pub fn of(session: &Session) -> Self {
        Self {
            world: Arc::clone(session.world()),
            lm: session.lm.clone(),
            config: session.config,
            seed: session.seed(),
            state: session.state().clone(),
        }
    }
}

/// Route an utterance the way `Session::process` does.
pub fn turn_kind(utterance: &str, offered: bool) -> TurnKind {
    let is_dml = cda_sql::parser::parse_statement(utterance)
        .map(|s| s.is_write())
        .unwrap_or(false);
    if is_dml {
        return TurnKind::Write;
    }
    match classify_intent(utterance, offered).intent {
        Intent::DatasetDiscovery => TurnKind::Discovery,
        Intent::DatasetDescription => TurnKind::Description,
        Intent::Selection => TurnKind::Selection,
        Intent::TimeSeriesInsight => TurnKind::Seasonality,
        Intent::Analysis => TurnKind::Analysis,
        Intent::Unclear => TurnKind::Unclear,
    }
}

/// Replay one utterance through the layer entry points. `cache` is the
/// replay's mirror of the session's semantic cache.
pub fn replay_turn(
    tr: &mut Tracer,
    pre: &PreTurn,
    utterance: &str,
    cache: &mut SemanticCache,
) -> (TurnKind, ReplayFacts) {
    let offered = !pre.state.offered.is_empty();
    let kind = tr.time("nlmodel.intent", "cda-nlmodel", || {
        turn_kind(utterance, offered)
    });
    let facts = match kind {
        TurnKind::Write => {
            replay_write(tr, pre, utterance);
            ReplayFacts::default()
        }
        TurnKind::Analysis => replay_analysis(tr, pre, utterance, cache),
        TurnKind::Discovery => {
            replay_discovery(tr, pre, utterance);
            ReplayFacts::default()
        }
        TurnKind::Description => {
            let world = &pre.world;
            tr.time("kg.ground", "cda-kg", || {
                let mentions = world.linker().extract(utterance);
                mentions
                    .iter()
                    .flat_map(|m| {
                        world
                            .linker()
                            .link(&m.surface, utterance, LinkerConfig::default())
                    })
                    .count()
            });
            replay_suggest(tr, pre, "labour_barometer");
            ReplayFacts::default()
        }
        TurnKind::Selection => {
            if let Some(name) = pre.state.offered.first() {
                replay_suggest(tr, pre, name);
            }
            ReplayFacts::default()
        }
        TurnKind::Seasonality => {
            replay_seasonality(tr, pre);
            ReplayFacts::default()
        }
        TurnKind::Unclear => ReplayFacts::default(),
    };
    (kind, facts)
}

fn exec_options(config: &CdaConfig) -> ExecOptions {
    if config.vectorized_exec {
        ExecOptions::vectorized()
    } else {
        ExecOptions::default()
    }
}

fn replay_write(tr: &mut Tracer, pre: &PreTurn, sql: &str) {
    let catalog = pre.world.catalog();
    let analyzer = Analyzer::new(catalog.sql())
        .with_stats(catalog.stats())
        .with_row_budget(pre.config.row_budget);
    // The gate's parts, timed on their own; `core.apply_sql` below runs them
    // again as one product call, so these are marked overlapping.
    let stmt = tr.time_overlapping("sql.parse", "cda-sql", || {
        cda_sql::parser::parse_statement(sql)
    });
    tr.time_overlapping("analyzer.gate", "cda-analyzer", || {
        analyzer.analyze_statement(sql)
    });
    if let Ok(stmt) = &stmt {
        tr.time_overlapping("analyzer.effects", "cda-analyzer", || {
            cda_analyzer::statement_effects(catalog.sql(), stmt, Some(catalog.stats())).is_ok()
        });
    }
    // A scratch session over the pre-turn world: the write commits into the
    // scratch session's successor world and is dropped with it.
    let mut scratch = Session::open_seeded(Arc::clone(&pre.world), pre.config, pre.seed);
    tr.time("core.apply_sql", "cda-core", || {
        scratch.apply_sql(sql).is_ok()
    });
}

fn replay_discovery(tr: &mut Tracer, pre: &PreTurn, utterance: &str) {
    let world = &pre.world;
    // The grounding loop of the dialogue layer: longest known multiword
    // term, disambiguated in the utterance's context.
    let expanded = tr.time("kg.ground", "cda-kg", || {
        let tokens = cda_kg::vocab::tokenize(utterance);
        for n in (1..=3usize).rev() {
            for window in tokens.windows(n) {
                let term = window.join(" ");
                if !world.vocab().knows(&term) {
                    continue;
                }
                if let Some(top) = world
                    .vocab()
                    .disambiguate(&term, utterance)
                    .into_iter()
                    .next()
                {
                    return format!(
                        "{utterance} {} {}",
                        top.concept.id.replace('_', " "),
                        top.concept.domains.join(" ")
                    );
                }
            }
        }
        utterance.to_owned()
    });
    let hits = tr.time("vector.discover", "cda-core", || {
        world.catalog().discover_with_threshold(
            &expanded,
            2,
            pre.config.efficiency,
            pre.config.discovery_threshold,
        )
    });
    tr.time("nlmodel.generate", "cda-nlmodel", || {
        let options: Vec<(String, String)> = hits
            .iter()
            .filter_map(|h| world.catalog().get(&h.name).ok())
            .map(|d| (d.name.clone(), d.description.clone()))
            .collect();
        generation::discovery_answer("", &options)
    });
}

fn replay_seasonality(tr: &mut Tracer, pre: &PreTurn) {
    let catalog = pre.world.catalog();
    let Some(dataset) = catalog.datasets().iter().find(|d| d.series.is_some()) else {
        return;
    };
    let Some(series) = dataset.series.as_ref() else {
        return;
    };
    let window = cda_core::dialogue::ANALYSIS_WINDOW;
    tr.time("timeseries.seasonality", "cda-timeseries", || {
        let analyzed = if series.len() > window {
            series.slice(series.len() - window, series.len())
        } else {
            series.clone()
        };
        cda_timeseries::seasonality::detect_seasonality(&analyzed, pre.config.min_observations)
            .ok()
            .and_then(|r| cda_timeseries::decompose::decompose(&analyzed, r.period).ok())
            .map(|d| d.trend_slope())
    });
    replay_suggest(tr, pre, &dataset.name);
}

fn replay_suggest(tr: &mut Tracer, pre: &PreTurn, dataset: &str) {
    let Ok(ds) = pre.world.catalog().get(dataset) else {
        return;
    };
    tr.time("guidance.suggest", "cda-guidance", || {
        let mut actions = Vec::new();
        if ds.series.is_some() {
            actions.push(Action::leaf(
                "seasonality",
                format!("ask for seasonality insights of {dataset}"),
            ));
            actions.push(Action::leaf(
                "trend",
                format!("ask for the overall trend of {dataset}"),
            ));
        }
        if ds.table.is_some() {
            actions.push(Action::leaf(
                "aggregate",
                format!("ask for a total in {dataset}"),
            ));
        }
        let score = |a: &Action| match a.id.as_str() {
            "seasonality" => 0.9,
            "aggregate" => 0.8,
            _ => 0.7,
        };
        SpeculativePlanner::default()
            .rank(&actions, &score)
            .map(|r| r.len())
            .unwrap_or(0)
    });
}

fn replay_analysis(
    tr: &mut Tracer,
    pre: &PreTurn,
    utterance: &str,
    cache: &mut SemanticCache,
) -> ReplayFacts {
    let world = &pre.world;
    let catalog = world.catalog().sql();
    let stats = world.catalog().stats();
    let tables = world.workload_tables();
    let opts = exec_options(&pre.config);
    let mut facts = ReplayFacts::default();

    let task = tr.time("nlmodel.parse_question", "cda-nlmodel", || {
        parse_question(utterance, tables).or_else(|| {
            pre.state
                .last_task
                .as_ref()
                .and_then(|prev| refine_task(prev, utterance, tables))
        })
    });
    let Some(task) = task else { return facts };
    let schema = catalog
        .get(&task.table)
        .map(|e| e.table.schema().clone())
        .unwrap_or_default();
    let other_tables: Vec<String> = catalog
        .table_names()
        .into_iter()
        .filter(|n| *n != task.table)
        .collect();
    let prompt = Nl2SqlPrompt {
        task: task.clone(),
        schema,
        other_tables,
    };

    let candidates = tr.time("nlmodel.decode", "cda-nlmodel", || {
        pre.lm
            .sample_k(&prompt, pre.config.temperature, pre.config.uq_samples)
    });
    facts.candidates = candidates.len();

    // Per candidate: the SQL front end and the static analyses, each through
    // its own entry point; then one execution per distinct fingerprint.
    let shallow_gate = Analyzer::new(catalog).with_absint(false);
    let engine = EquivEngine::new();
    let mut distinct = BTreeSet::new();
    let mut to_execute = Vec::new();
    for generation in &candidates {
        let sql = generation.sql.as_str();
        let span = tr.begin("candidate", "perf");
        // `parse` lexes again, so the lexer on its own is an overlapping span.
        tr.time_overlapping("sql.lex", "cda-sql", || {
            cda_sql::lexer::tokenize(sql).is_ok()
        });
        let select = tr.time("sql.parse", "cda-sql", || cda_sql::parser::parse(sql));
        let doomed = tr.time("analyzer.sqlcheck", "cda-analyzer", || {
            shallow_gate.analyze(sql).dooms_execution()
        });
        let plan = match select {
            Ok(select) if !doomed => tr
                .time("sql.plan", "cda-sql", || {
                    cda_sql::planner::plan_select(catalog, &select)
                })
                .ok(),
            _ => None,
        };
        if let Some(plan) = plan {
            tr.time("analyzer.absint", "cda-analyzer", || {
                cda_analyzer::analyze(&plan, Some(stats))
            });
            tr.time("analyzer.cardest", "cda-analyzer", || {
                cda_analyzer::estimate(&plan, stats)
            });
            let fp = tr.time("analyzer.fingerprint", "cda-analyzer", || {
                engine.fingerprint(&plan).as_u64()
            });
            let optimized = tr.time("sql.optimize", "cda-sql", || {
                cda_sql::optimizer::optimize(plan, OptimizerRules::all())
            });
            if distinct.insert(fp) {
                to_execute.push(optimized);
            }
        }
        tr.end(span);
    }
    for plan in &to_execute {
        if let Ok(result) = tr.time("sql.exec", "cda-sql", || {
            cda_sql::execute_plan(catalog, plan, opts)
        }) {
            facts.rows_scanned += result.stats.rows_scanned;
        }
        facts.executions += 1;
    }

    // The same round as one product call: sampling, gating, repair,
    // fingerprint grouping, execution and clustering. Its time is already
    // attributed by the spans above, so it is marked overlapping.
    let analyzer = Analyzer::new(catalog)
        .with_stats(stats)
        .with_row_budget(pre.config.row_budget);
    let report = tr.time_overlapping("soundness.uq", "cda-soundness", || {
        ConsistencyUq::new(&pre.lm, &analyzer)
            .with_samples(pre.config.uq_samples)
            .with_temperature(pre.config.temperature)
            .with_repair(pre.config.repair_rounds)
            .with_equivalence(true)
            .with_exec_options(opts)
            .run(&prompt)
    });
    let Some((sql, confidence)) = report
        .ok()
        .and_then(|r| r.chosen_sql.map(|sql| (sql, r.confidence)))
    else {
        return facts;
    };
    if confidence < pre.config.answer_threshold {
        return facts; // the turn abstains before touching the cache
    }

    tr.time("analyzer.gate", "cda-analyzer", || {
        analyzer.analyze(&sql).confidence_factor()
    });
    let fingerprint = tr.time("analyzer.fingerprint", "cda-analyzer", || {
        crate::inputs::fingerprint(world, &sql)
    });
    let Some(fingerprint) = fingerprint else {
        return facts;
    };
    let hit = tr.time("core.cache_get", "cda-core", || cache.get(fingerprint));
    let result = match hit {
        Some(hit) => hit.result,
        None => {
            facts.executions += 1;
            let Ok(result) = tr.time("sql.exec", "cda-sql", || {
                cda_sql::execute_with_options(catalog, &sql, opts)
            }) else {
                return facts;
            };
            facts.rows_scanned += result.stats.rows_scanned;
            let answer = CachedAnswer {
                turn: pre.state.turn,
                sql: sql.clone(),
                result: result.clone(),
            };
            tr.time("core.cache_put", "cda-core", || {
                cache.put(fingerprint, answer)
            });
            result
        }
    };
    tr.time("nlmodel.generate", "cda-nlmodel", || {
        generation::tabular_answer(&result.table, "", 10)
    });
    tr.time("provenance.explain", "cda-provenance", || {
        let lossless = (result.table.num_rows() > 0)
            .then(|| check_losslessness(catalog, &sql, &result.table, 0).ok())
            .flatten();
        let cited: Vec<_> = result
            .table
            .lineages()
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Explanation::new(format!("Executed against {}", task.table))
            .with_sources(vec![task.table.clone()])
            .with_rows(cited)
            .with_plan(result.plan.explain())
            .with_code(sql.clone())
            .with_confidence(confidence)
            .with_verification(lossless, None)
    });
    replay_suggest(tr, pre, &task.table);
    facts
}
