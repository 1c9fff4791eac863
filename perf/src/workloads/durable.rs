//! `durable_restart`: cold restarts of a file-backed world up to the first
//! cached answer. Reads hit the operating system's page cache, so the
//! latencies are the sandbox's, not a device's.

use super::{timed_setup, Deadline, Outcome, RunArgs, Timing, TRACE_SAMPLE};
use crate::inputs::{self, FACT_TABLE, SMALL_TABLE};
use crate::stats;
use crate::trace::{self, Tracer};
use cda_core::storage::{FileBackend, StorageBackend, StorageStats, StoreId, PAGE_SIZE};
use cda_core::{CdaConfig, Session};
use cda_testkit::rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A persisted world and what the restarts ask of it.
pub struct DurableInputs {
    /// The directory holding the storage file (removed when dropped).
    dir: PathBuf,
    /// The storage file.
    pub path: PathBuf,
    /// Questions whose answers were cached before the first restart.
    pub cached: Vec<String>,
    /// The rendering of each cached question served as a first-turn hit.
    pub reference: Vec<String>,
    /// Questions not asked yet; one is asked every few cycles so a cache
    /// record is written and committed.
    pub fresh: Vec<String>,
    seed: u64,
}

impl Drop for DurableInputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl DurableInputs {
    /// FNV-1a over the generated questions, cached ones first.
    pub fn inputs_fnv(&self) -> u64 {
        inputs::fnv_strings(self.cached.iter().chain(&self.fresh).map(String::as_str))
    }
}

fn storage_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("durable_restart set-up: {what}: {e}")
}

/// Persist the scaled world, answer `cached` questions through a durable
/// session so their results are stored, and record how each is rendered
/// when served from the store.
pub fn setup(args: &RunArgs, rep: usize) -> Result<DurableInputs, String> {
    let (rows, cached_answers, _) = args.sizes.durable;
    let dir = crate::report::out_dir().join(format!("tmp-durable-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| storage_err("create directory", e))?;
    let path = dir.join("world.db");
    let mut inputs = DurableInputs {
        dir,
        path,
        cached: Vec::new(),
        reference: Vec::new(),
        fresh: Vec::new(),
        seed: args.seed,
    };

    let backend: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::open(&inputs.path).map_err(|e| storage_err("open", e))?);
    let catalog = inputs::scaled_catalog(rows, args.seed);
    let world = inputs::open_durable_world(Some(catalog), args.seed, backend)
        .map_err(|e| storage_err("persist world", e))?;
    // Query shapes in their fixed grid order — an even stride through the
    // fact-table shapes first — so every seed caches the same shapes.
    let fact = inputs::template_pool(&world, FACT_TABLE, args.seed);
    let small = inputs::template_pool(&world, SMALL_TABLE, args.seed);
    let stride = (fact.len() / cached_answers.max(1)).max(1);
    let (spread, rest): (Vec<_>, Vec<_>) = fact
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % stride == 0);
    let pool = spread.into_iter().chain(rest).map(|(_, t)| t).chain(small);
    let mut session = Session::open_durable(Arc::clone(&world), CdaConfig::default())
        .map_err(|e| storage_err("durable session", e))?;
    for task in pool {
        if inputs.cached.len() < cached_answers {
            let before = session.stats().cache.misses;
            session.process(&task.question);
            if session.stats().cache.misses > before {
                inputs.cached.push(task.question);
            }
        } else {
            inputs.fresh.push(task.question);
        }
    }
    if inputs.cached.len() < cached_answers {
        return Err(storage_err(
            "caching answers",
            "too few questions were answered",
        ));
    }
    for question in &inputs.cached {
        let mut first_turn = Session::open_durable(Arc::clone(&world), CdaConfig::default())
            .map_err(|e| storage_err("durable session", e))?;
        inputs.reference.push(first_turn.process(question).render());
    }
    Ok(inputs)
}

/// Run `f`, as a span when a tracer is attached.
fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tr) => tr.time(name, layer, f),
        None => f(),
    }
}

/// What one restart measured.
struct Restart {
    latency_us: f64,
    reopen_us: f64,
    /// Whether the first answer was served from the durable cache.
    hit: bool,
    stats: StorageStats,
}

/// One cold restart: open the file, load the world from it, open a durable
/// session, render the first cached answer; every `write_every`-th cycle
/// also answers a new question (outside the restart latency).
fn restart_cycle(
    inputs: &DurableInputs,
    cycle: usize,
    write_every: usize,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Option<Restart> {
    let slot = cycle % inputs.cached.len();
    let op = tracer.as_deref_mut().map(|tr| {
        tr.set_op(cycle as u64 + 1);
        tr.begin("restart", "perf")
    });
    let started = Instant::now();
    let opened = step(&mut tracer, "storage.reopen", "cda-storage", || {
        FileBackend::open(&inputs.path)
    });
    let reopen_us = started.elapsed().as_secs_f64() * 1e6;
    let backend: Arc<dyn StorageBackend> = match opened {
        Ok(b) => Arc::new(b),
        Err(e) => {
            out.fail(format!("reopen failed: {e}"));
            return None;
        }
    };
    let world = match step(&mut tracer, "core.world_open", "cda-core", || {
        inputs::open_durable_world(None, inputs.seed, Arc::clone(&backend))
    }) {
        Ok(w) => w,
        Err(e) => {
            out.fail(format!("world load failed: {e}"));
            return None;
        }
    };
    let session = step(&mut tracer, "core.session_open", "cda-core", || {
        Session::open_durable(Arc::clone(&world), CdaConfig::default())
    });
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("durable session failed: {e}"));
            return None;
        }
    };
    let rendered = step(&mut tracer, "core.process", "cda-core", || {
        catch_unwind(AssertUnwindSafe(|| {
            session.process(&inputs.cached[slot]).render()
        }))
    });
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    if let (Some(tr), Some(op)) = (tracer, op) {
        tr.end(op);
    }
    let hit = session.stats().cache.hits == 1;
    match rendered {
        Ok(rendered) => {
            if !hit {
                out.fail(format!("post-restart answer {slot} was not a cache hit"));
            } else if rendered != inputs.reference[slot] {
                out.fail(format!(
                    "post-restart answer {slot} differs from its pre-restart rendering"
                ));
            }
        }
        Err(_) => out.fail("panic in Session::process after restart"),
    }
    if cycle % write_every == write_every - 1 && !inputs.fresh.is_empty() {
        let question = &inputs.fresh[(cycle / write_every) % inputs.fresh.len()];
        if catch_unwind(AssertUnwindSafe(|| session.process(question))).is_err() {
            out.fail("panic answering a new question after restart");
        }
    }
    Some(Restart {
        latency_us,
        reopen_us,
        hit,
        stats: backend.stats(),
    })
}

fn run_restarts(
    args: &RunArgs,
    inputs: &DurableInputs,
    deadline: Deadline,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (Timing, Vec<Restart>) {
    let (_, _, write_every) = args.sizes.durable;
    let mut timing = Timing::default();
    let mut restarts = Vec::new();
    let mut cycle = 0usize;
    while deadline.more(cycle) {
        out.attempted += 1;
        if let Some(r) = restart_cycle(inputs, cycle, write_every, tracer.as_deref_mut(), out) {
            timing.latency_us.push(r.latency_us);
            timing.throughput.push(1e6 / r.latency_us);
            restarts.push(r);
        }
        cycle += 1;
    }
    (timing, restarts)
}

/// `durable_restart`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new("durable_restart");
    let (inputs, setup_s) = timed_setup(args.sizes.setup_reps, |rep| setup(args, rep));
    let inputs = inputs?;
    out.inputs_fnv = inputs.inputs_fnv();

    if args.trace {
        traced_pass(args, &inputs, &mut out);
        return Ok(out);
    }
    // Warm-up: a few untimed restarts (the file enters the page cache).
    for cycle in 0..3 {
        restart_cycle(&inputs, cycle, usize::MAX, None, &mut Outcome::default());
    }
    let (timing, _) = run_restarts(args, &inputs, Deadline::start(args, 1.0), None, &mut out);
    timing.report(&mut out);
    out.push("setup_s", "s", setup_s, args.sizes.setup_reps);
    Ok(out)
}

/// Bytes in the backing file per byte of stored keys and values.
fn bytes_per_user_byte(path: &Path, stats: &StorageStats) -> Option<f64> {
    let backend = FileBackend::open(path).ok()?;
    let user: usize = StoreId::ALL
        .iter()
        .filter_map(|&store| backend.scan(store).ok())
        .flatten()
        .map(|(k, v)| k.len() + v.len())
        .sum();
    (user > 0).then(|| (stats.pages as usize * PAGE_SIZE) as f64 / user as f64)
}

fn traced_pass(args: &RunArgs, inputs: &DurableInputs, out: &mut Outcome) {
    let mut scratch = Outcome::default();
    let (reference, _) = run_restarts(
        args,
        inputs,
        Deadline::start(args, 1.0 / 3.0),
        None,
        &mut scratch,
    );

    let mut tracer = Tracer::new();
    let (timing, restarts) = run_restarts(
        args,
        inputs,
        Deadline::start(args, 2.0 / 3.0),
        Some(&mut tracer),
        out,
    );

    // Storage entry points on their own, on a sample of the cycles: a point
    // read of one cache record, and a small put + commit.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x570E);
    let mut commit_us = Vec::new();
    if let Ok(backend) = FileBackend::open(&inputs.path) {
        let epoch = backend.committed_epoch().ok().flatten().unwrap_or(0);
        let keys: Vec<Vec<u8>> = backend
            .scan(StoreId::SemanticCache)
            .map(|records| records.into_iter().map(|(k, _)| k).collect())
            .unwrap_or_default();
        for cycle in 0..restarts.len() {
            if rng.gen_range(0..TRACE_SAMPLE) != 0 {
                continue;
            }
            tracer.set_op(cycle as u64 + 1);
            if !keys.is_empty() {
                let key = &keys[cycle % keys.len()];
                tracer.time_overlapping("storage.get", "cda-storage", || {
                    backend.get(StoreId::SemanticCache, key).is_ok()
                });
            }
            tracer.time_overlapping("storage.put", "cda-storage", || {
                backend
                    .put(StoreId::Meta, b"perf-probe", &[0x5A; 512])
                    .is_ok()
            });
            let started = Instant::now();
            tracer.time_overlapping("storage.commit", "cda-storage", || {
                backend.commit(epoch).is_ok()
            });
            commit_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let _ = backend.remove(StoreId::Meta, b"perf-probe");
        let _ = backend.commit(epoch);
    }

    let spans = tracer.spans();
    let n = restarts.len();
    let reopen: Vec<f64> = restarts.iter().map(|r| r.reopen_us).collect();
    if let Some(m) = stats::median(&reopen) {
        out.push("storage.reopen_us", "us", m, n);
    }
    if let Some(m) = stats::median(&commit_us) {
        out.push("storage.commit_us", "us", m, commit_us.len());
    }
    if let Some(m) = stats::median(&timing.latency_us) {
        out.push("restart_p50_ms", "ms", m / 1e3, n);
    }
    if let Some(last) = restarts.last() {
        out.push("storage.pages", "count", last.stats.pages as f64, 1);
        let hit: Vec<f64> = restarts.iter().map(|r| r.stats.pool.hit_rate()).collect();
        out.push(
            "storage.pool_hit_share",
            "ratio",
            stats::median(&hit).unwrap_or(0.0),
            n,
        );
        if let Some(ratio) = bytes_per_user_byte(&inputs.path, &last.stats) {
            out.push("storage.bytes_per_user_byte", "ratio", ratio, 1);
        }
    }
    let restart_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "restart")
        .map(trace::Span::duration_ns)
        .sum();
    // Here `core.process` is a real step of the restart, not a comparison
    // base, so it counts.
    let by_layer = trace::layer_self_ns(spans, |s| !s.overlapping && s.layer != "perf");
    let covered: u64 = by_layer.values().sum();
    if restart_ns > 0 {
        out.push(
            "layer_coverage",
            "ratio",
            covered as f64 / restart_ns as f64,
            n,
        );
        for (layer, ns) in by_layer {
            out.notes.push(format!(
                "{layer}: {:.1}% of traced restart time",
                100.0 * ns as f64 / restart_ns as f64
            ));
        }
    }
    out.push("traced_ops", "count", n as f64, n);
    let hits = restarts.iter().filter(|r| r.hit).count();
    out.push(
        "core.cache_hit_share",
        "ratio",
        hits as f64 / n.max(1) as f64,
        n,
    );
    let untraced = stats::median(&reference.latency_us).unwrap_or(0.0);
    let traced = stats::median(&timing.latency_us).unwrap_or(0.0);
    if untraced > 0.0 {
        out.push("trace_overhead_share", "ratio", traced / untraced - 1.0, n);
    }
    crate::report::write_trace(out, spans);
}
