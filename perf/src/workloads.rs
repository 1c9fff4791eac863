//! The five workloads: their sizes, the metric names they report, and the
//! dispatch from a workload name to its runner.
//!
//! Every workload is a closed loop (the next operation starts when the
//! previous one returns; the `Server` API is submit-then-drain). Each is
//! built from fixed-size *cycles* — a batch of sessions, a server lifetime,
//! a restart — whose inputs are generated at set-up; the timed phase runs
//! whole cycles until `--seconds` have passed, so session lengths, cache
//! contents and memory do not depend on how fast the machine is.

pub mod chat;
pub mod durable;
pub mod server;

use crate::stats;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "chat_fig1",
    "chat_scan",
    "server_read",
    "server_rw",
    "durable_restart",
];

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("turns_per_s", "turns/s"),
    ("turn_p50_us", "us"),
    ("turn_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("nlmodel.intent_us", "us"),
    ("nlmodel.parse_question_us", "us"),
    ("nlmodel.decode_us", "us"),
    ("nlmodel.candidates", "count"),
    ("sql.lex_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.optimize_us", "us"),
    ("analyzer.sqlcheck_us", "us"),
    ("analyzer.absint_us", "us"),
    ("analyzer.cardest_us", "us"),
    ("analyzer.effects_us", "us"),
    ("analyzer.fingerprint_us", "us"),
    ("sql.exec_us", "us"),
    ("sql.rows_scanned", "count"),
    ("sql.rows_per_s", "1/s"),
    ("sql.execs_per_turn", "ratio"),
    ("sql.exec_share.miss", "ratio"),
    ("sql.frontend_analyzer_share", "ratio"),
    ("soundness.uq_us", "us"),
    ("soundness.abstain_share", "ratio"),
    ("core.timings.soundness_us", "us"),
    ("provenance.explain_us", "us"),
    ("core.timings.explainability_us", "us"),
    ("core.timings.explainability_us.small", "us"),
    ("guidance.suggest_us", "us"),
    ("core.cache_hit_share", "ratio"),
    ("core.cache_get_us", "us"),
    ("core.cache_put_us", "us"),
    ("core.cache_retained_share", "ratio"),
    ("turn_p50_us.hit", "us"),
    ("turn_p50_us.miss", "us"),
    ("turn_p99_us", "us"),
    ("write_p50_us", "us"),
    ("restart_p50_ms", "ms"),
    ("server.submit_us", "us"),
    ("server.drain_overhead_share", "ratio"),
    ("server.lane_share", "ratio"),
    ("server.w1_ratio", "ratio"),
    ("storage.reopen_us", "us"),
    ("storage.commit_us", "us"),
    ("storage.pages", "count"),
    ("storage.pool_hit_share", "ratio"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("vector.discover_us", "us"),
    ("kg.ground_us", "us"),
    ("timeseries.seasonality_us", "us"),
    ("layer_coverage", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("traced_ops", "count"),
    ("fail_share", "ratio"),
    ("ops", "count"),
];

// ---- sizes -----------------------------------------------------------------
// Full sizes give each workload at least 200 timed operations in a
// 15-second run on the 2-core reference box (so the 95th percentile has ten
// samples beyond it); `--smoke` sizes finish in well under a second each.

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Share of a cycle's operations run untimed before timing starts.
pub const WARMUP_SHARE: f64 = 0.02;
/// One operation in this many is replayed layer by layer in the traced pass.
pub const TRACE_SAMPLE: u64 = 5;
/// One answered nl2sql turn in this many is re-run on the row engine.
pub const ORACLE_SAMPLE: u64 = 50;

/// Percent of the turns of a mixed session that walk the Figure-1
/// conversation (discovery, description, selection, seasonality); the rest
/// are nl2sql questions and refinements. Conversational turns take about
/// 20 µs and nl2sql turns about 300 µs, so at an even split the median turn
/// sits on the cliff between the two kinds and moves by 30 % with the seed;
/// at 30 % it sits inside the nl2sql mode.
pub const CONVERSATIONAL_PCT: u64 = 30;
/// Percent of the analysis turns directly after an analysis that refine it.
pub const REFINE_PCT: u64 = 25;

/// Rows of the scaled fact table in `chat_scan`.
pub const SCAN_ROWS: usize = 65_536;
/// Rows of the scaled fact table in `durable_restart` (smaller than
/// `SCAN_ROWS` so a 15-second run holds more than 200 restarts).
pub const DURABLE_ROWS: usize = 32_768;

/// Cycles a `--smoke` run executes, whatever `--seconds` says.
pub const SMOKE_CYCLES: usize = 2;

/// Sizes that differ between a full and a `--smoke` run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `--smoke`: run [`SMOKE_CYCLES`] cycles and ignore `--seconds`.
    pub smoke: bool,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// `chat_fig1`: question pool / generated sessions / turns per session /
    /// sessions per cycle.
    pub fig1: (usize, usize, usize, usize),
    /// `chat_scan`: fact-table rows / generated sessions / turns per session.
    pub scan: (usize, usize, usize),
    /// `server_*`: sessions / rounds per server lifetime / turns per session
    /// per round / generated script sets.
    pub server: (usize, usize, usize, usize),
    /// `durable_restart`: fact-table rows / cached answers / a new question
    /// every this many cycles.
    pub durable: (usize, usize, usize),
}

impl Sizes {
    /// Full sizes, or every count divided by about fifty for `--smoke`.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                smoke,
                setup_reps: 1,
                fig1: (96, 4, 40, 2),
                scan: (SCAN_ROWS / 64, 2, 10),
                server: (16, 2, 6, 1),
                durable: (DURABLE_ROWS / 32, 4, 2),
            }
        } else {
            Self {
                smoke,
                setup_reps: SETUP_REPS,
                fig1: (256, 500, 40, 25),
                scan: (SCAN_ROWS, 24, 20),
                server: (256, 5, 24, 2),
                durable: (DURABLE_ROWS, 12, 10),
            }
        }
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed pass.
    pub trace: bool,
    /// Sizes.
    pub sizes: Sizes,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: String,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted (turns, restart cycles).
    pub attempted: u64,
    /// Operations that panicked, errored, were refused, or disagreed with
    /// their correctness oracle.
    pub failed: u64,
    /// FNV-1a of the generated inputs.
    pub inputs_fnv: u64,
    /// Free-form lines for the human reader (sample counts, warnings).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            ..Self::default()
        }
    }

    /// Record a metric.
    pub fn push(&mut self, name: &str, unit: &str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            n,
        });
    }

    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(format!("FAIL: {}", why.into()));
        }
    }
}

/// Run `setup` [`Sizes::setup_reps`] times; returns the last result and the
/// median wall-clock seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take()); // free the previous world before building the next
        let started = Instant::now();
        last = Some(setup(rep));
        seconds.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        stats::median(&seconds).unwrap_or(0.0),
    )
}

/// The loop condition of every timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: Instant,
    smoke_cycles: Option<usize>,
}

impl Deadline {
    /// Start the clock: `seconds` from now (or a fixed cycle count under
    /// `--smoke`).
    pub fn start(args: &RunArgs, share: f64) -> Self {
        Self {
            end: Instant::now() + Duration::from_secs_f64(args.seconds * share),
            smoke_cycles: args.sizes.smoke.then_some(SMOKE_CYCLES),
        }
    }

    /// Whether another cycle may start after `done` finished ones.
    pub fn more(&self, done: usize) -> bool {
        match self.smoke_cycles {
            Some(n) => done < n,
            None => done == 0 || Instant::now() < self.end,
        }
    }

    /// Whether the clock has run out (always false under `--smoke`).
    pub fn passed(&self) -> bool {
        self.smoke_cycles.is_none() && Instant::now() >= self.end
    }
}

/// Latency and throughput samples of a timed phase, turned into the three
/// timing metrics every workload reports.
#[derive(Debug, Default)]
pub struct Timing {
    /// Per-operation service latency, microseconds.
    pub latency_us: Vec<f64>,
    /// Per-cycle (or per-drain-round) completed operations per second.
    pub throughput: Vec<f64>,
}

impl Timing {
    /// Push `turns_per_s`, `turn_p50_us`, `turn_p95_us`.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.latency_us.len();
        out.push(
            "turns_per_s",
            "turns/s",
            stats::median(&self.throughput).unwrap_or(0.0),
            self.throughput.len(),
        );
        out.push(
            "turn_p50_us",
            "us",
            stats::median(&self.latency_us).unwrap_or(0.0),
            n,
        );
        out.push(
            "turn_p95_us",
            "us",
            stats::percentile(&self.latency_us, 95.0).unwrap_or(0.0),
            n,
        );
        out.notes.push(format!(
            "turn latency samples: {n} ({} beyond p95)",
            stats::samples_beyond(n, 95.0)
        ));
        if !stats::supports_percentile(n, 95.0) {
            out.notes
                .push("WARNING: fewer than ten samples beyond p95".to_owned());
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads server workloads drain with: every available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload by name.
pub fn run(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = match workload {
        "chat_fig1" => chat::run_fig1(args),
        "chat_scan" => chat::run_scan(args),
        "server_read" => server::run(args, false),
        "server_rw" => server::run(args, true),
        "durable_restart" => durable::run(args)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    if args.trace {
        let fail_share = out.failed as f64 / out.attempted.max(1) as f64;
        out.push("fail_share", "ratio", fail_share, out.attempted as usize);
        out.push("ops", "count", out.attempted as f64, 1);
        // Every per-layer metric is reported by every workload.
        for (name, unit) in PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.push(name, unit, 0.0, 0);
            }
        }
        out.metrics
            .retain(|m| PER_LAYER.iter().any(|(name, _)| *name == m.name));
    } else {
        out.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    }
    Ok(out)
}
