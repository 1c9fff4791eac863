//! `server_read` and `server_rw`: a `Server` hosting many sessions, drained
//! with one worker per core.

use super::chat::{self, ChatPass, TraceCtx};
use super::{
    nproc, timed_setup, Deadline, Outcome, RunArgs, Timing, CONVERSATIONAL_PCT, REFINE_PCT,
    WARMUP_SHARE,
};
use crate::inputs::{self, MixSpec, FACT_TABLE};
use crate::stats;
use cda_analyzer::EffectSet;
use cda_core::{CdaConfig, Session, WorldSnapshot};
use cda_server::{Server, ServerConfig, TurnOutcome};
use cda_testkit::rng::StdRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Sessions whose hosted transcripts are compared with a serial replay.
pub const ORACLE_SESSIONS: usize = 16;
/// One session in this many writes (`server_rw`).
pub const WRITER_EVERY: usize = 8;
/// Percent of a writer session's turns that are DML.
pub const WRITE_PCT: u64 = 25;

/// A world plus the per-session scripts of whole server lifetimes.
pub struct ServerInputs {
    /// The shared world every server lifetime starts from.
    pub world: Arc<WorldSnapshot>,
    /// `script_sets[set][session]`: the turns of one server lifetime
    /// (`rounds × turns_per_round`); lifetimes alternate between sets.
    pub script_sets: Vec<Vec<Vec<String>>>,
    /// Drain rounds per server lifetime.
    pub rounds: usize,
    /// Turns each session submits per round.
    pub turns_per_round: usize,
    seed: u64,
}

impl ServerInputs {
    /// FNV-1a over every generated utterance, in order.
    pub fn inputs_fnv(&self) -> u64 {
        inputs::fnv_strings(
            self.script_sets
                .iter()
                .flatten()
                .flatten()
                .map(String::as_str),
        )
    }

    fn sessions(&self) -> usize {
        self.script_sets[0].len()
    }

    /// The seeded submission order of one round of one lifetime.
    fn order(&self, cycle: usize, round: usize) -> Vec<(usize, usize)> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ ((cycle as u64) << 32) ^ ((round as u64) << 16) ^ 0x1EAF,
        );
        inputs::interleave(&vec![self.turns_per_round; self.sessions()], &mut rng)
    }
}

/// Generate the inputs. With `writers`, one session in [`WRITER_EVERY`]
/// carries DML turns, odd sessions ask only about tables the writers never
/// touch (so they stay out of the write lane), and the rest use the full mix.
pub fn setup(args: &RunArgs, writers: bool) -> ServerInputs {
    let (sessions, rounds, turns_per_round, sets) = args.sizes.server;
    let world = cda_core::demo::demo_world(args.seed);
    let wide = inputs::question_pool(&world, 64, args.seed, |_| true);
    let narrow = inputs::question_pool(&world, 48, args.seed ^ 2, |t| {
        t.task.table == FACT_TABLE || t.task.table == "labour_barometer"
    });
    let turns = rounds * turns_per_round;
    let mix = MixSpec {
        turns,
        conversational_pct: CONVERSATIONAL_PCT,
        refine_pct: REFINE_PCT,
        no_repeat: false,
    };
    let pure = MixSpec {
        turns,
        conversational_pct: 0,
        refine_pct: 0,
        no_repeat: false,
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E4F);
    let script_sets = (0..sets)
        .map(|_| {
            (0..sessions)
                .map(|i| {
                    if writers && i % 2 == 1 {
                        return inputs::mixed_script(&narrow, pure, &mut rng);
                    }
                    let mut script = inputs::mixed_script(&wide, mix, &mut rng);
                    if writers && i % WRITER_EVERY == 0 {
                        let mut nth = i / WRITER_EVERY;
                        for turn in &mut script {
                            if rng.gen_range(0..100u64) < WRITE_PCT {
                                *turn = inputs::write_turn(nth);
                                nth += 1;
                            }
                        }
                    }
                    script
                })
                .collect()
        })
        .collect();
    ServerInputs {
        world,
        script_sets,
        rounds,
        turns_per_round,
        seed: args.seed,
    }
}

/// What the drain rounds of a phase produced.
#[derive(Default)]
struct ServerPass {
    timing: Timing,
    write_us: Vec<f64>,
    submit_us: Vec<f64>,
    overhead_share: Vec<f64>,
    lane_share: Vec<f64>,
    /// Round index within its lifetime, parallel to `timing.throughput`.
    round_index: Vec<usize>,
    /// Rounds the first lifetime completed (the oracle replays those).
    first_cycle_rounds: usize,
    /// Hosted transcripts of the first lifetime's first sessions.
    transcripts: BTreeMap<usize, Vec<String>>,
}

fn check_write(utterance: &str, rendered: &str, out: &mut Outcome) {
    if inputs::is_doomed_write(utterance) {
        if !rendered.contains("rejected the write") {
            out.fail(format!(
                "doomed write was not rejected by the gate: {rendered:.80}"
            ));
        }
    } else if !rendered.starts_with("Applied:") {
        out.fail(format!("write did not apply: {rendered:.80}"));
    }
}

/// Which server lifetime to run, and how.
#[derive(Debug, Clone, Copy)]
struct Lifetime {
    /// Index of the lifetime in the run (selects script set and interleaving).
    cycle: usize,
    /// Host only the first `sessions` sessions (the warm-up hosts a few).
    sessions: usize,
    /// Worker threads of `drain()`.
    workers: usize,
    /// Rounds to run at most.
    rounds: usize,
}

/// One server lifetime: open the sessions, then submit-and-drain round by
/// round.
fn run_lifetime(
    inputs: &ServerInputs,
    lifetime: Lifetime,
    deadline: Deadline,
    pass: &mut ServerPass,
    out: &mut Outcome,
) {
    let Lifetime {
        cycle,
        sessions,
        workers,
        rounds: max_rounds,
    } = lifetime;
    let scripts = &inputs.script_sets[cycle % inputs.script_sets.len()];
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let mut server = Server::new(Arc::clone(&inputs.world), config);
    let ids = server.open_sessions("tenant", sessions);
    for round in 0..max_rounds {
        if round > 0 && deadline.passed() {
            break;
        }
        let order: Vec<(usize, usize)> = inputs
            .order(cycle, round)
            .into_iter()
            .filter(|(s, _)| *s < sessions)
            .collect();
        let submit_started = Instant::now();
        for &(s, t) in &order {
            out.attempted += 1;
            let utterance = &scripts[s][round * inputs.turns_per_round + t];
            if let Err(reject) = server.submit(ids[s], utterance) {
                out.fail(format!("submit refused under an unlimited quota: {reject}"));
            }
        }
        pass.submit_us
            .push(submit_started.elapsed().as_secs_f64() * 1e6 / order.len().max(1) as f64);
        let Ok(report) = catch_unwind(AssertUnwindSafe(|| server.drain())) else {
            for _ in &order {
                out.fail("panic in Server::drain");
            }
            return; // the server's registry is suspect after a panic
        };
        let mut busy_s = 0.0;
        for outcome in &report.outcomes {
            match outcome {
                TurnOutcome::Completed(record) => {
                    let us = record.latency.as_secs_f64() * 1e6;
                    busy_s += record.latency.as_secs_f64();
                    if inputs::is_write(&record.utterance) {
                        check_write(&record.utterance, &record.rendered, out);
                        if !inputs::is_doomed_write(&record.utterance) {
                            pass.write_us.push(us);
                        }
                    } else {
                        pass.timing.latency_us.push(us);
                    }
                    let s = record.session.index();
                    if cycle == 0 && s < ORACLE_SESSIONS {
                        pass.transcripts
                            .entry(s)
                            .or_default()
                            .push(record.rendered.clone());
                    }
                }
                TurnOutcome::Rejected { reason, .. } => {
                    out.fail(format!("turn refused under an unlimited quota: {reason}"));
                }
            }
        }
        let wall = report.wall.as_secs_f64();
        if wall > 0.0 {
            pass.timing
                .throughput
                .push(report.completed() as f64 / wall);
            pass.round_index.push(round);
            pass.overhead_share
                .push(1.0 - busy_s / (report.workers as f64 * wall));
            pass.lane_share
                .push(report.serialized as f64 / sessions as f64);
        }
        if cycle == 0 {
            pass.first_cycle_rounds = round + 1;
        }
    }
}

fn run_lifetimes(
    inputs: &ServerInputs,
    deadline: Deadline,
    pass: &mut ServerPass,
    out: &mut Outcome,
) {
    let mut cycle = 0usize;
    while deadline.more(cycle) {
        let lifetime = Lifetime {
            cycle,
            sessions: inputs.sessions(),
            workers: nproc(),
            rounds: inputs.rounds,
        };
        run_lifetime(inputs, lifetime, deadline, pass, out);
        cycle += 1;
    }
}

/// The DML effect set the server's write lane derives for `utterance`.
fn write_effects(world: &WorldSnapshot, utterance: &str) -> EffectSet {
    let catalog = world.catalog();
    cda_sql::parser::parse_statement(utterance)
        .ok()
        .and_then(|stmt| {
            cda_analyzer::statement_effects(catalog.sql(), &stmt, Some(catalog.stats())).ok()
        })
        .unwrap_or_else(EffectSet::schema_change)
}

/// Serial oracle: replay the first lifetime's turns of the compared
/// sessions (and, with writers, of every writer session) on plain
/// `Session`s in submission order, threading committed worlds exactly as a
/// serial execution would, and require byte-identical transcripts.
fn check_transcripts(inputs: &ServerInputs, writers: bool, pass: &ServerPass, out: &mut Outcome) {
    let scripts = &inputs.script_sets[0];
    let compared = ORACLE_SESSIONS.min(scripts.len());
    let replayed: Vec<usize> = (0..scripts.len())
        .filter(|&s| s < compared || (writers && s % WRITER_EVERY == 0))
        .collect();
    let mut sessions: BTreeMap<usize, Session> = replayed
        .iter()
        .map(|&s| {
            let session = Session::open_seeded(
                Arc::clone(&inputs.world),
                CdaConfig::default(),
                s as u64 + 1,
            );
            (s, session)
        })
        .collect();
    let mut transcripts: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut world = Arc::clone(&inputs.world);
    for round in 0..pass.first_cycle_rounds {
        let round_world = Arc::clone(&world);
        let mut delta: Option<EffectSet> = None;
        for (s, t) in inputs.order(0, round) {
            let Some(session) = sessions.get_mut(&s) else {
                continue;
            };
            let utterance = &scripts[s][round * inputs.turns_per_round + t];
            session.adopt_world(Arc::clone(&world), delta.as_ref());
            let epoch = session.epoch();
            let rendered = session.process(utterance).render();
            if session.epoch() > epoch {
                world = Arc::clone(session.world());
                let effects = write_effects(&round_world, utterance);
                match &mut delta {
                    Some(d) => d.union(&effects),
                    None => delta = Some(effects),
                }
            }
            if s < compared {
                transcripts.entry(s).or_default().push(rendered);
            }
        }
        for session in sessions.values_mut() {
            session.adopt_world(Arc::clone(&world), delta.as_ref());
        }
    }
    for s in 0..compared {
        let hash =
            |t: Option<&Vec<String>>| t.map(|t| inputs::fnv_strings(t.iter().map(String::as_str)));
        if hash(pass.transcripts.get(&s)) != hash(transcripts.get(&s)) {
            out.fail(format!(
                "hosted transcript of session {s} differs from its serial replay"
            ));
        }
    }
    out.notes.push(format!(
        "serial-replay oracle: {compared} sessions x {} rounds compared",
        pass.first_cycle_rounds
    ));
}

/// `server_read` (`writers = false`) or `server_rw`.
pub fn run(args: &RunArgs, writers: bool) -> Outcome {
    let mut out = Outcome::new(if writers { "server_rw" } else { "server_read" });
    let (inputs, setup_s) = timed_setup(args.sizes.setup_reps, |_| setup(args, writers));
    out.inputs_fnv = inputs.inputs_fnv();

    if args.trace {
        traced_pass(args, &inputs, &mut out);
        return out;
    }

    // Warm-up: a small server lifetime over the first sessions, untimed.
    let warm_sessions = ((inputs.sessions() as f64 * WARMUP_SHARE).ceil() as usize).max(1);
    let warm = Lifetime {
        cycle: 0,
        sessions: warm_sessions,
        workers: nproc(),
        rounds: inputs.rounds,
    };
    run_lifetime(
        &inputs,
        warm,
        Deadline::start(args, 1.0),
        &mut ServerPass::default(),
        &mut Outcome::default(),
    );

    let mut pass = ServerPass::default();
    run_lifetimes(&inputs, Deadline::start(args, 1.0), &mut pass, &mut out);
    check_transcripts(&inputs, writers, &pass, &mut out);
    pass.timing.report(&mut out);
    out.push("setup_s", "s", setup_s, args.sizes.setup_reps);
    out
}

fn traced_pass(args: &RunArgs, inputs: &ServerInputs, out: &mut Outcome) {
    // Hosted lifetimes for the server's own numbers.
    let mut pass = ServerPass::default();
    run_lifetimes(inputs, Deadline::start(args, 1.0 / 3.0), &mut pass, out);
    if let Some(m) = stats::median(&pass.submit_us) {
        out.push("server.submit_us", "us", m, pass.submit_us.len());
    }
    if let Some(m) = stats::median(&pass.overhead_share) {
        out.push(
            "server.drain_overhead_share",
            "ratio",
            m,
            pass.overhead_share.len(),
        );
    }
    if let Some(m) = stats::median(&pass.lane_share) {
        out.push("server.lane_share", "ratio", m, pass.lane_share.len());
    }
    if let Some(m) = stats::median(&pass.write_us) {
        out.push("write_p50_us", "us", m, pass.write_us.len());
    }

    // One extra lifetime at a single worker, compared round for round.
    let w1_rounds = inputs.rounds.min(2);
    let mut single = ServerPass::default();
    let mut scratch = Outcome::default();
    let one_worker = Lifetime {
        cycle: 0,
        sessions: inputs.sessions(),
        workers: 1,
        rounds: w1_rounds,
    };
    let no_deadline = Deadline::start(args, 1.0);
    run_lifetime(inputs, one_worker, no_deadline, &mut single, &mut scratch);
    let same_rounds: Vec<f64> = pass
        .timing
        .throughput
        .iter()
        .zip(&pass.round_index)
        .filter(|(_, round)| **round < w1_rounds)
        .map(|(t, _)| *t)
        .collect();
    if let (Some(all), Some(one)) = (
        stats::median(&same_rounds),
        stats::median(&single.timing.throughput),
    ) {
        if one > 0.0 {
            out.push(
                "server.w1_ratio",
                "ratio",
                all / one,
                single.timing.throughput.len(),
            );
            out.notes.push(format!(
                "workers {} vs 1: {all:.0} vs {one:.0} turns/s",
                nproc()
            ));
        }
    }

    // The same scripts replayed serially on plain sessions, sampled turns
    // replayed layer by layer.
    let mut ctx = TraceCtx::new(args.seed);
    let mut chat_pass = ChatPass::default();
    let deadline = Deadline::start(args, 2.0 / 3.0);
    for (s, script) in inputs.script_sets[0].iter().enumerate() {
        if !deadline.more(s) {
            break;
        }
        chat::run_session(
            &inputs.world,
            script,
            s as u64 + 1,
            &mut chat_pass,
            out,
            Some(&mut ctx),
        );
    }
    chat::report_layers(&ctx, &chat_pass, out);
    let hosted = stats::median(&pass.timing.latency_us).unwrap_or(0.0);
    let serial = stats::median(&chat_pass.timing.latency_us).unwrap_or(0.0);
    if hosted > 0.0 {
        out.push(
            "trace_overhead_share",
            "ratio",
            serial / hosted - 1.0,
            chat_pass.timing.latency_us.len(),
        );
    }
    crate::report::write_trace(out, ctx.tracer.spans());
}
