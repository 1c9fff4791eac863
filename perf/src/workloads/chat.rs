//! `chat_fig1` and `chat_scan`: one `Session` at a time, one client thread.

use super::{
    timed_setup, Deadline, Outcome, RunArgs, Timing, CONVERSATIONAL_PCT, ORACLE_SAMPLE, REFINE_PCT,
    TRACE_SAMPLE, WARMUP_SHARE,
};
use crate::inputs::{self, Deck, MixSpec, FACT_TABLE, SMALL_TABLE};
use crate::replay::{self, PreTurn, ReplayFacts, TurnKind};
use crate::stats;
use crate::trace::{self, Tracer};
use cda_core::answer::AnswerStatus;
use cda_core::session::SemanticCache;
use cda_core::{AnswerTurn, CdaConfig, Session, WorldSnapshot};
use cda_testkit::rng::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced operations kept per run: bounds the span buffer and the trace
/// file (about 70 spans per nl2sql turn).
pub const MAX_TRACED_OPS: usize = 600;

/// A world plus the session scripts generated over it.
pub struct ChatInputs {
    /// The shared world.
    pub world: Arc<WorldSnapshot>,
    /// One utterance list per generated session; the run cycles through them.
    pub scripts: Vec<Vec<String>>,
    /// Sessions per cycle.
    pub sessions_per_cycle: usize,
}

impl ChatInputs {
    /// FNV-1a over every generated utterance, in order.
    pub fn inputs_fnv(&self) -> u64 {
        inputs::fnv_strings(self.scripts.iter().flatten().map(String::as_str))
    }
}

/// `chat_fig1` inputs: the demo world, a pool of distinct-plan questions,
/// and Figure-1-style sessions that never repeat a question.
pub fn setup_fig1(args: &RunArgs) -> ChatInputs {
    let (pool_size, sessions, turns, sessions_per_cycle) = args.sizes.fig1;
    let world = cda_core::demo::demo_world(args.seed);
    let pool = inputs::question_pool(&world, pool_size, args.seed, |_| true);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF161);
    let spec = MixSpec {
        turns,
        conversational_pct: CONVERSATIONAL_PCT,
        refine_pct: REFINE_PCT,
        no_repeat: true,
    };
    let scripts = (0..sessions)
        .map(|_| inputs::mixed_script(&pool, spec, &mut rng))
        .collect();
    ChatInputs {
        world,
        scripts,
        sessions_per_cycle,
    }
}

/// `chat_scan` inputs: the scaled world and all-nl2sql sessions in which
/// half the questions re-ask an earlier one.
pub fn setup_scan(args: &RunArgs) -> ChatInputs {
    let (rows, sessions, turns) = args.sizes.scan;
    let world = inputs::build_world(inputs::scaled_catalog(rows, args.seed), args.seed);
    let fact = inputs::template_pool(&world, FACT_TABLE, args.seed);
    let small = inputs::template_pool(&world, SMALL_TABLE, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5CA9);
    let mut fact_deck = Deck::new(fact.len(), &mut rng);
    let mut small_deck = Deck::new(small.len(), &mut rng);
    let scripts = (0..sessions)
        .map(|_| {
            inputs::scan_script(
                &world,
                (&fact, &mut fact_deck),
                (&small, &mut small_deck),
                turns,
                0.5,
                &mut rng,
            )
        })
        .collect();
    ChatInputs {
        world,
        scripts,
        sessions_per_cycle: 1,
    }
}

/// Counters one pass over sessions accumulates.
#[derive(Default)]
pub struct ChatPass {
    /// Turn latencies and per-cycle throughput.
    pub timing: Timing,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    soundness_us: Vec<f64>,
    explain_us: Vec<f64>,
    /// Explainability time of the turns that ask about the 24-row table.
    explain_small_us: Vec<f64>,
    analysis_turns: u64,
    abstained: u64,
    cache_hits: usize,
    cache_misses: usize,
    answered_seen: u64,
    /// `(executed SQL, answer text)` of the turns picked for the row-engine
    /// oracle.
    checks: Vec<(String, String)>,
    /// Transcript hash per session, in run order.
    pub transcripts: Vec<u64>,
}

/// What the traced pass keeps about one sampled turn besides its spans.
#[derive(Debug, Clone, Copy)]
pub struct TracedOp {
    /// The `op_id` stamped on the turn's spans.
    pub op_id: u64,
    /// Which handler the turn routed to.
    pub kind: TurnKind,
    /// What the replay counted.
    pub facts: ReplayFacts,
    /// Wall-clock time of the real `Session::process` call.
    pub process_ns: u64,
    /// Whether the real turn was served from the semantic cache (`None`: it
    /// neither hit nor missed — not an answered nl2sql turn).
    pub hit: Option<bool>,
}

/// The traced pass's recorder and what it learned per sampled turn.
pub struct TraceCtx {
    /// The span recorder.
    pub tracer: Tracer,
    rng: StdRng,
    next_op: u64,
    /// The sampled operations, in order.
    pub ops: Vec<TracedOp>,
    /// Cache entries `(before, after)` each sampled applied write.
    pub retained: Vec<(usize, usize)>,
}

impl TraceCtx {
    /// A recorder sampling one op in [`TRACE_SAMPLE`], seeded.
    pub fn new(seed: u64) -> Self {
        Self {
            tracer: Tracer::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x7ACE),
            next_op: 0,
            ops: Vec::new(),
            retained: Vec::new(),
        }
    }

    fn sample(&mut self) -> bool {
        self.ops.len() < MAX_TRACED_OPS && self.rng.gen_range(0..TRACE_SAMPLE) == 0
    }
}

fn cache_outcome(answer: &AnswerTurn) -> Option<bool> {
    let answered = answer.status == AnswerStatus::Answered && answer.executed_sql.is_some();
    answered.then(|| answer.analysis.iter().any(|a| a.starts_with("[cache]")))
}

/// Run one scripted session to completion. Returns the time spent inside
/// the product (session open + every `process` call).
pub fn run_session(
    world: &Arc<WorldSnapshot>,
    script: &[String],
    session_seed: u64,
    pass: &mut ChatPass,
    out: &mut Outcome,
    mut trace: Option<&mut TraceCtx>,
) -> Duration {
    let opened = Instant::now();
    let mut session = Session::open_seeded(Arc::clone(world), CdaConfig::default(), session_seed);
    let mut busy = opened.elapsed();
    let mut mirror = SemanticCache::new();
    let mut transcript: Vec<String> = Vec::with_capacity(script.len());
    for utterance in script {
        out.attempted += 1;
        let sampled = trace.as_deref_mut().is_some_and(TraceCtx::sample);
        let pre = sampled.then(|| PreTurn::of(&session));
        let kind = replay::turn_kind(utterance, !session.state().offered.is_empty());
        let entries_before =
            (sampled && kind == TurnKind::Write).then(|| session.stats().cache.entries);
        let op_span = match (&mut trace, sampled) {
            (Some(ctx), true) => {
                ctx.next_op += 1;
                ctx.tracer.set_op(ctx.next_op);
                let op = ctx.tracer.begin("turn", "perf");
                Some((op, ctx.tracer.begin("core.process", "cda-core")))
            }
            _ => None,
        };
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| session.process(utterance)));
        let elapsed = started.elapsed();
        busy += elapsed;
        if let (Some(ctx), Some((_, process))) = (&mut trace, op_span) {
            ctx.tracer.end(process);
        }
        let Ok(answer) = result else {
            if let (Some(ctx), Some((op, _))) = (&mut trace, op_span) {
                ctx.tracer.end(op);
            }
            out.fail(format!("panic in Session::process on {utterance:?}"));
            break; // the session's state is suspect after a panic
        };
        let us = elapsed.as_secs_f64() * 1e6;
        pass.timing.latency_us.push(us);
        let hit = if kind == TurnKind::Analysis {
            cache_outcome(&answer)
        } else {
            None
        };
        match hit {
            Some(true) => pass.hit_us.push(us),
            Some(false) => pass.miss_us.push(us),
            None => {}
        }
        if kind == TurnKind::Analysis {
            pass.analysis_turns += 1;
            pass.soundness_us
                .push(answer.timings.soundness.as_secs_f64() * 1e6);
            let explain_us = answer.timings.explainability.as_secs_f64() * 1e6;
            pass.explain_us.push(explain_us);
            if utterance.contains(SMALL_TABLE) {
                pass.explain_small_us.push(explain_us);
            }
            if matches!(answer.status, AnswerStatus::Abstained(_)) {
                pass.abstained += 1;
            }
        }
        if hit.is_some() {
            pass.answered_seen += 1;
            if pass.answered_seen % ORACLE_SAMPLE == 1 {
                if let Some(sql) = &answer.executed_sql {
                    pass.checks.push((sql.clone(), answer.text.clone()));
                }
            }
        }
        if let (Some(ctx), Some((op, _)), Some(pre)) = (&mut trace, op_span, &pre) {
            let replay_span = ctx.tracer.begin("replay", "perf");
            let (_, facts) = replay::replay_turn(&mut ctx.tracer, pre, utterance, &mut mirror);
            ctx.tracer.end(replay_span);
            ctx.tracer.end(op);
            ctx.ops.push(TracedOp {
                op_id: ctx.next_op,
                kind,
                facts,
                process_ns: elapsed.as_nanos() as u64,
                hit,
            });
            if let (Some(before), true) = (entries_before, answer.text.starts_with("Applied:")) {
                ctx.retained.push((before, session.stats().cache.entries));
            }
        }
        transcript.push(answer.render());
    }
    let cache = session.stats().cache;
    pass.cache_hits += cache.hits;
    pass.cache_misses += cache.misses;
    pass.transcripts
        .push(inputs::fnv_strings(transcript.iter().map(String::as_str)));
    busy
}

/// Run cycles of sessions until the deadline; session `i` of the run uses
/// script `i mod scripts` and session seed `i + 1`.
fn run_cycles(
    inputs: &ChatInputs,
    deadline: Deadline,
    pass: &mut ChatPass,
    out: &mut Outcome,
    mut trace: Option<&mut TraceCtx>,
) {
    let mut cycles = 0usize;
    let mut next_session = 0usize;
    while deadline.more(cycles) {
        let mut busy = Duration::ZERO;
        let turns_before = pass.timing.latency_us.len();
        for _ in 0..inputs.sessions_per_cycle {
            let script = &inputs.scripts[next_session % inputs.scripts.len()];
            busy += run_session(
                &inputs.world,
                script,
                next_session as u64 + 1,
                pass,
                out,
                trace.as_deref_mut(),
            );
            next_session += 1;
        }
        let turns = pass.timing.latency_us.len() - turns_before;
        if busy > Duration::ZERO {
            pass.timing
                .throughput
                .push(turns as f64 / busy.as_secs_f64());
        }
        cycles += 1;
    }
}

/// Row-engine oracle: every sampled answer's SQL re-runs on the
/// row-at-a-time reference engine and on the vectorized engine; the tables
/// must be equal and the answer text must start with the rendered table.
fn check_answers(world: &WorldSnapshot, pass: &ChatPass, out: &mut Outcome) {
    let catalog = world.catalog().sql();
    for (sql, text) in &pass.checks {
        let row = cda_sql::execute(catalog, sql);
        let vectorized =
            cda_sql::execute_with_options(catalog, sql, cda_sql::ExecOptions::vectorized());
        match (row, vectorized) {
            (Ok(row), Ok(vectorized)) => {
                if row.table != vectorized.table {
                    out.fail(format!("row and vectorized engines disagree on {sql}"));
                } else if !text.starts_with(&row.table.render(10)) {
                    out.fail(format!(
                        "answer text does not show the row-engine result of {sql}"
                    ));
                }
            }
            _ => out.fail(format!("answered SQL no longer executes: {sql}")),
        }
    }
    out.notes.push(format!(
        "row-engine oracle: {} answers re-run",
        pass.checks.len()
    ));
}

fn run_chat(args: &RunArgs, workload: &str, setup: impl Fn(&RunArgs) -> ChatInputs) -> Outcome {
    let mut out = Outcome::new(workload);
    let (inputs, setup_s) = timed_setup(args.sizes.setup_reps, |_| setup(args));
    out.inputs_fnv = inputs.inputs_fnv();

    if args.trace {
        traced_pass(args, &inputs, &mut out);
        return out;
    }

    // Warm-up: the first sessions of the run, untimed; their transcripts are
    // the reference the timed pass must reproduce.
    let warm_sessions = ((inputs.sessions_per_cycle as f64 * WARMUP_SHARE).ceil() as usize).max(1);
    let mut warm = ChatPass::default();
    let mut scratch = Outcome::default();
    for i in 0..warm_sessions {
        let script = &inputs.scripts[i % inputs.scripts.len()];
        run_session(
            &inputs.world,
            script,
            i as u64 + 1,
            &mut warm,
            &mut scratch,
            None,
        );
    }

    let mut pass = ChatPass::default();
    run_cycles(
        &inputs,
        Deadline::start(args, 1.0),
        &mut pass,
        &mut out,
        None,
    );

    if pass.transcripts[..warm_sessions] != warm.transcripts[..] {
        out.fail("timed pass transcripts differ from the warm-up run of the same sessions");
    }
    check_answers(&inputs.world, &pass, &mut out);
    pass.timing.report(&mut out);
    out.push("setup_s", "s", setup_s, args.sizes.setup_reps);
    out
}

/// `chat_fig1`.
pub fn run_fig1(args: &RunArgs) -> Outcome {
    run_chat(args, "chat_fig1", setup_fig1)
}

/// `chat_scan`.
pub fn run_scan(args: &RunArgs) -> Outcome {
    run_chat(args, "chat_scan", setup_scan)
}

fn traced_pass(args: &RunArgs, inputs: &ChatInputs, out: &mut Outcome) {
    // A third of the time untraced, for the overhead comparison.
    let mut reference = ChatPass::default();
    let mut scratch = Outcome::default();
    run_cycles(
        inputs,
        Deadline::start(args, 1.0 / 3.0),
        &mut reference,
        &mut scratch,
        None,
    );

    let mut ctx = TraceCtx::new(args.seed);
    let mut pass = ChatPass::default();
    run_cycles(
        inputs,
        Deadline::start(args, 2.0 / 3.0),
        &mut pass,
        out,
        Some(&mut ctx),
    );

    report_layers(&ctx, &pass, out);
    let untraced = stats::median(&reference.timing.latency_us).unwrap_or(0.0);
    let traced = stats::median(&pass.timing.latency_us).unwrap_or(0.0);
    if untraced > 0.0 {
        out.push(
            "trace_overhead_share",
            "ratio",
            traced / untraced - 1.0,
            pass.timing.latency_us.len(),
        );
    }
    crate::report::write_trace(out, ctx.tracer.spans());
}

/// Median over sampled ops of the per-op summed duration of spans called
/// `span`, in microseconds, pushed as `metric`.
fn push_span_metric(out: &mut Outcome, spans: &[trace::Span], span: &str, metric: &str) {
    let per_op: Vec<f64> = trace::per_op_ns(spans, span)
        .values()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    if let Some(m) = stats::median(&per_op) {
        out.push(metric, "us", m, per_op.len());
    }
}

/// Turn the recorded spans and counters into the per-layer metrics.
pub fn report_layers(ctx: &TraceCtx, pass: &ChatPass, out: &mut Outcome) {
    let spans = ctx.tracer.spans();
    for (span, metric) in [
        ("nlmodel.intent", "nlmodel.intent_us"),
        ("nlmodel.parse_question", "nlmodel.parse_question_us"),
        ("nlmodel.decode", "nlmodel.decode_us"),
        ("sql.lex", "sql.lex_us"),
        ("sql.parse", "sql.parse_us"),
        ("sql.plan", "sql.plan_us"),
        ("sql.optimize", "sql.optimize_us"),
        ("analyzer.sqlcheck", "analyzer.sqlcheck_us"),
        ("analyzer.absint", "analyzer.absint_us"),
        ("analyzer.cardest", "analyzer.cardest_us"),
        ("analyzer.effects", "analyzer.effects_us"),
        ("analyzer.fingerprint", "analyzer.fingerprint_us"),
        ("sql.exec", "sql.exec_us"),
        ("soundness.uq", "soundness.uq_us"),
        ("provenance.explain", "provenance.explain_us"),
        ("guidance.suggest", "guidance.suggest_us"),
        ("core.cache_get", "core.cache_get_us"),
        ("core.cache_put", "core.cache_put_us"),
        ("vector.discover", "vector.discover_us"),
        ("kg.ground", "kg.ground_us"),
        ("timeseries.seasonality", "timeseries.seasonality_us"),
    ] {
        push_span_metric(out, spans, span, metric);
    }

    let analysis: Vec<_> = ctx
        .ops
        .iter()
        .filter(|op| op.kind == TurnKind::Analysis)
        .collect();
    let with_candidates: Vec<_> = analysis
        .iter()
        .filter(|op| op.facts.candidates > 0)
        .collect();
    if !with_candidates.is_empty() {
        let n = with_candidates.len();
        let candidates: Vec<f64> = with_candidates
            .iter()
            .map(|op| op.facts.candidates as f64)
            .collect();
        let rows: Vec<f64> = with_candidates
            .iter()
            .map(|op| op.facts.rows_scanned as f64)
            .collect();
        let ratio: Vec<f64> = with_candidates
            .iter()
            .map(|op| op.facts.executions as f64 / op.facts.candidates as f64)
            .collect();
        out.push(
            "nlmodel.candidates",
            "count",
            stats::median(&candidates).unwrap_or(0.0),
            n,
        );
        out.push(
            "sql.rows_scanned",
            "count",
            stats::median(&rows).unwrap_or(0.0),
            n,
        );
        out.push(
            "sql.execs_per_turn",
            "ratio",
            stats::median(&ratio).unwrap_or(0.0),
            n,
        );
    }
    let exec_ns = trace::per_op_ns(spans, "sql.exec");
    let total_exec_ns: u64 = exec_ns.values().sum();
    if total_exec_ns > 0 {
        let rows: usize = ctx.ops.iter().map(|op| op.facts.rows_scanned).sum();
        out.push(
            "sql.rows_per_s",
            "1/s",
            rows as f64 / (total_exec_ns as f64 / 1e9),
            exec_ns.len(),
        );
    }

    // Shares of the real `process` time, over sampled nl2sql turns.
    let frontend: u64 = spans
        .iter()
        .filter(|s| !s.overlapping)
        .filter(|s| {
            matches!(s.name, "sql.parse" | "sql.plan" | "sql.optimize")
                || s.name.starts_with("analyzer.")
        })
        .map(trace::Span::duration_ns)
        .sum();
    let analysis_process_ns: u64 = analysis.iter().map(|op| op.process_ns).sum();
    if analysis_process_ns > 0 {
        out.push(
            "sql.frontend_analyzer_share",
            "ratio",
            frontend as f64 / analysis_process_ns as f64,
            analysis.len(),
        );
    }
    let misses: Vec<_> = analysis.iter().filter(|op| op.hit == Some(false)).collect();
    let miss_process_ns: u64 = misses.iter().map(|op| op.process_ns).sum();
    if miss_process_ns > 0 {
        let miss_exec_ns: u64 = misses.iter().filter_map(|op| exec_ns.get(&op.op_id)).sum();
        out.push(
            "sql.exec_share.miss",
            "ratio",
            miss_exec_ns as f64 / miss_process_ns as f64,
            misses.len(),
        );
    }

    // Coverage: replayed, non-overlapping layer spans against the real call.
    let by_layer = trace::layer_self_ns(spans, trace::is_replayed_layer_work);
    let replayed: u64 = by_layer.values().sum();
    let process_ns: u64 = ctx.ops.iter().map(|op| op.process_ns).sum();
    if process_ns > 0 {
        let coverage = replayed as f64 / process_ns as f64;
        out.push("layer_coverage", "ratio", coverage, ctx.ops.len());
        if !(0.8..=1.2).contains(&coverage) {
            out.notes.push(format!(
                "WARNING: layer_coverage {coverage:.3} is outside [0.8, 1.2]: the replay does not \
                 account for the turn (an unmeasured layer, or work the product repeats)"
            ));
        }
        for (layer, ns) in by_layer {
            out.notes.push(format!(
                "replayed {layer}: {:.1}% of traced process time",
                100.0 * ns as f64 / process_ns as f64
            ));
        }
    }
    // The same attribution for nl2sql turns alone, by layer and by call: the
    // work queue a later optimisation issue starts from.
    if analysis_process_ns > 0 {
        let analysis_ops: BTreeSet<u64> = analysis.iter().map(|op| op.op_id).collect();
        let in_analysis =
            |s: &trace::Span| trace::is_replayed_layer_work(s) && analysis_ops.contains(&s.op_id);
        let share = |ns: u64| 100.0 * ns as f64 / analysis_process_ns as f64;
        let layers: Vec<String> = trace::layer_self_ns(spans, in_analysis)
            .into_iter()
            .map(|(layer, ns)| format!("{layer} {:.1}%", share(ns)))
            .collect();
        out.notes
            .push(format!("nl2sql turn by layer: {}", layers.join(", ")));
        let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| in_analysis(s)) {
            *calls.entry(s.name).or_insert(0) += s.duration_ns();
        }
        let mut calls: Vec<(&str, u64)> = calls.into_iter().collect();
        calls.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        let calls: Vec<String> = calls
            .iter()
            .take(8)
            .map(|(name, ns)| format!("{name} {:.1}%", share(*ns)))
            .collect();
        out.notes
            .push(format!("nl2sql turn by call: {}", calls.join(", ")));
    }
    out.push("traced_ops", "count", ctx.ops.len() as f64, ctx.ops.len());

    // Counts from the product's own stats surfaces, over every turn of the
    // traced phase (not just the sampled ones).
    let lookups = pass.cache_hits + pass.cache_misses;
    if lookups > 0 {
        out.push(
            "core.cache_hit_share",
            "ratio",
            pass.cache_hits as f64 / lookups as f64,
            lookups,
        );
    }
    if pass.analysis_turns > 0 {
        let n = pass.analysis_turns as usize;
        out.push(
            "soundness.abstain_share",
            "ratio",
            pass.abstained as f64 / n as f64,
            n,
        );
        out.push(
            "core.timings.soundness_us",
            "us",
            stats::median(&pass.soundness_us).unwrap_or(0.0),
            n,
        );
        out.push(
            "core.timings.explainability_us",
            "us",
            stats::median(&pass.explain_us).unwrap_or(0.0),
            n,
        );
    }
    if let Some(m) = stats::median(&pass.explain_small_us) {
        let n = pass.explain_small_us.len();
        out.push("core.timings.explainability_us.small", "us", m, n);
    }
    if let Some(m) = stats::median(&pass.hit_us) {
        out.push("turn_p50_us.hit", "us", m, pass.hit_us.len());
    }
    if let Some(m) = stats::median(&pass.miss_us) {
        out.push("turn_p50_us.miss", "us", m, pass.miss_us.len());
    }
    let n = pass.timing.latency_us.len();
    if n >= 1000 {
        out.push(
            "turn_p99_us",
            "us",
            stats::percentile(&pass.timing.latency_us, 99.0).unwrap_or(0.0),
            n,
        );
    }
    let held_before: usize = ctx.retained.iter().map(|(before, _)| before).sum();
    if held_before > 0 {
        let held_after: usize = ctx.retained.iter().map(|(_, after)| after).sum();
        out.push(
            "core.cache_retained_share",
            "ratio",
            held_after as f64 / held_before as f64,
            ctx.retained.len(),
        );
    }
}
