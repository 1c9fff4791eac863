//! The admission-controlled session multiplexer.
//!
//! [`Server`] owns a registry of [`Session`]s over one shared
//! `Arc<WorldSnapshot>`, accepts turns per session, and executes the queued
//! work across a scoped `std::thread` worker pool via
//! [`cda_sql::morsel::run_ordered`] — one task per session with pending
//! turns, per-session turn order preserved, results re-slotted into global
//! submission order. Sessions are moved out of the registry for the
//! duration of a drain (each behind its own `Mutex`, locked exactly once)
//! and reinstalled afterwards, so no mutable state is ever shared between
//! workers.

use cda_analyzer::sqlcheck::Analyzer;
use cda_analyzer::EffectSet;
use cda_core::{CdaConfig, Route, Session, SessionStats, WorldSnapshot};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::ServerStats;

/// Opaque handle to one conversation hosted by a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The registry index this id refers to.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Per-tenant resource limits enforced by admission control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum turns a tenant may submit across all its sessions
    /// (`None` = unlimited). Checked at submit time.
    pub max_turns: Option<u64>,
    /// Row budget for analysis turns (`None` = unlimited). At drain time
    /// the turn's oracle SQL is analyzed with this budget; an A013
    /// cardinality finding rejects the turn before execution.
    pub max_estimated_rows: Option<u64>,
}

/// Server-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker threads for [`Server::drain`]. `0` means use
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Reliability configuration applied to every opened session.
    pub session_config: CdaConfig,
    /// Quota applied to tenants without an explicit [`Server::set_quota`].
    pub default_quota: TenantQuota,
    /// Open sessions durably: their semantic caches live in the world's
    /// storage backend, so verified answers survive a server restart. When
    /// the installed world has no reconciled backend (it was built rather
    /// than opened with storage), sessions fall back to the in-memory
    /// cache — durability is an attachment property of the world, not a
    /// capability the server can conjure.
    pub durable: bool,
}

impl ServerConfig {
    /// The worker count a drain will actually use.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// Why admission control refused a turn. Every rejection happens **before**
/// the turn touches its session: the session's query log, dialogue state,
/// and caches are exactly as if the turn was never submitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionReject {
    /// The tenant exhausted its turn quota (submit-time gate).
    QuotaExhausted {
        /// Tenant whose quota ran out.
        tenant: String,
        /// The configured turn budget.
        max_turns: u64,
    },
    /// The cardinality estimator proved the turn's oracle SQL would exceed
    /// the tenant's row budget (drain-time governor gate, A013).
    RowBudgetExceeded {
        /// The configured row budget.
        budget: u64,
        /// The estimator's point estimate for the result size.
        estimated_rows: u64,
    },
    /// The session id does not exist in the registry.
    UnknownSession,
}

impl std::fmt::Display for AdmissionReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QuotaExhausted { tenant, max_turns } => {
                write!(f, "tenant {tenant} exhausted its quota of {max_turns} turns")
            }
            Self::RowBudgetExceeded { budget, estimated_rows } => write!(
                f,
                "estimated {estimated_rows} result rows exceed the {budget}-row budget (A013)"
            ),
            Self::UnknownSession => write!(f, "unknown session"),
        }
    }
}

/// One executed turn, as returned by [`Server::drain`].
#[derive(Debug, Clone)]
pub struct TurnRecord {
    /// The session the turn ran in.
    pub session: SessionId,
    /// The user utterance.
    pub utterance: String,
    /// The rendered system answer (the transcript line).
    pub rendered: String,
    /// Confidence of the answer, when one was attached.
    pub confidence: Option<f64>,
    /// The SQL that was executed, for analysis turns.
    pub executed_sql: Option<String>,
    /// Wall-clock latency of this turn.
    pub latency: Duration,
}

/// Outcome of one submitted turn after a drain.
#[derive(Debug, Clone)]
pub enum TurnOutcome {
    /// The turn was admitted and executed.
    Completed(TurnRecord),
    /// The governor rejected the turn pre-execution.
    Rejected {
        /// The session the turn was queued for.
        session: SessionId,
        /// The user utterance.
        utterance: String,
        /// Why it was refused.
        reason: AdmissionReject,
    },
}

/// Everything one [`Server::drain`] produced, in global submission order.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Per-turn outcomes, ordered by submission sequence.
    pub outcomes: Vec<TurnOutcome>,
    /// Wall-clock time of the whole drain.
    pub wall: Duration,
    /// Worker threads the drain ran with.
    pub workers: usize,
    /// Sessions serialized into the write lane by effect-set overlap
    /// (0 when the drain carried no writes — every session ran parallel).
    pub serialized: usize,
}

impl DrainReport {
    /// Number of turns that executed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, TurnOutcome::Completed(_))).count()
    }

    /// Number of turns the governor rejected.
    pub fn rejected(&self) -> usize {
        self.outcomes.len() - self.completed()
    }

    /// Turns per second over the drain's wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }
}

/// Attempting to install a snapshot whose epoch does not advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldInstallError {
    /// Epoch of the currently installed world.
    pub current_epoch: u64,
    /// Epoch of the rejected candidate.
    pub offered_epoch: u64,
}

impl std::fmt::Display for WorldInstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "world epoch must advance: offered {} <= current {}",
            self.offered_epoch, self.current_epoch
        )
    }
}

impl std::error::Error for WorldInstallError {}

/// A queued turn: global submission sequence number + utterance.
#[derive(Debug, Clone)]
struct QueuedTurn {
    seq: u64,
    utterance: String,
}

/// One registry slot: the session plus its queue and tenant binding.
struct SessionSlot {
    session: Session,
    tenant: String,
    queue: Vec<QueuedTurn>,
}

/// Work moved out of a slot for one drain: the session, its pending turns
/// (each with its statically derived effect set), and the tenant's row
/// budget.
type ParkedWork = (Session, Vec<(QueuedTurn, EffectSet)>, Option<u64>);

/// One parked slot: registry slot index + work behind a `Mutex` each
/// worker locks exactly once.
type DrainSlot = (usize, Mutex<Option<ParkedWork>>);

/// One drain task's result: the returned sessions (slot index + session),
/// the `(submission seq, outcome)` pairs for its turns, and — for the
/// write lane — the advanced world plus the union of committed effects.
type TaskResult =
    (Vec<(usize, Session)>, Vec<(u64, TurnOutcome)>, Option<(Arc<WorldSnapshot>, EffectSet)>);

#[derive(Debug, Default)]
struct TenantState {
    quota: TenantQuota,
    submitted_turns: u64,
}

/// The multiplexed session runtime. See the crate docs for the model.
pub struct Server {
    world: Arc<WorldSnapshot>,
    config: ServerConfig,
    slots: Vec<SessionSlot>,
    tenants: HashMap<String, TenantState>,
    next_seq: u64,
    queued: usize,
    turns_completed: u64,
    rejected_quota: u64,
    rejected_budget: u64,
    latencies_us: Vec<u64>,
}

impl Server {
    /// Create a server over a shared world snapshot.
    pub fn new(world: Arc<WorldSnapshot>, config: ServerConfig) -> Self {
        Self {
            world,
            config,
            slots: Vec::new(),
            tenants: HashMap::new(),
            next_seq: 0,
            queued: 0,
            turns_completed: 0,
            rejected_quota: 0,
            rejected_budget: 0,
            latencies_us: Vec::new(),
        }
    }

    /// The currently installed world snapshot.
    pub fn world(&self) -> &Arc<WorldSnapshot> {
        &self.world
    }

    /// Swap in a successor snapshot. The epoch must strictly advance;
    /// sessions opened earlier keep their original snapshot until their
    /// next drained turn, which runs over this one.
    pub fn install_world(&mut self, world: Arc<WorldSnapshot>) -> Result<(), WorldInstallError> {
        if world.epoch() <= self.world.epoch() {
            return Err(WorldInstallError {
                current_epoch: self.world.epoch(),
                offered_epoch: world.epoch(),
            });
        }
        self.world = world;
        Ok(())
    }

    /// Set (or replace) a tenant's quota. Tenants without an explicit quota
    /// use [`ServerConfig::default_quota`].
    pub fn set_quota(&mut self, tenant: &str, quota: TenantQuota) {
        self.tenant_mut(tenant).quota = quota;
    }

    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantState {
        let default_quota = self.config.default_quota;
        self.tenants.entry(tenant.to_owned()).or_insert_with(|| TenantState {
            quota: default_quota,
            submitted_turns: 0,
        })
    }

    /// Open a new session for `tenant` over the current world snapshot.
    ///
    /// The session's seed is derived from its id (id + 1, so no hosted
    /// session uses the reserved legacy seed 0), which makes every
    /// session's transcript a pure function of its own turn sequence.
    pub fn open_session(&mut self, tenant: &str) -> SessionId {
        self.tenant_mut(tenant);
        let id = SessionId(self.slots.len() as u64);
        let seed = id.0 + 1;
        let session = if self.config.durable {
            Session::open_durable_seeded(self.world.clone(), self.config.session_config, seed)
                .unwrap_or_else(|_| {
                    // The world carries no reconciled backend: honor the
                    // open anyway with the in-memory cache (documented on
                    // `ServerConfig::durable`).
                    Session::open_seeded(self.world.clone(), self.config.session_config, seed)
                })
        } else {
            Session::open_seeded(self.world.clone(), self.config.session_config, seed)
        };
        self.slots.push(SessionSlot { session, tenant: tenant.to_owned(), queue: Vec::new() });
        id
    }

    /// Open `n` sessions for `tenant`, returning their ids.
    pub fn open_sessions(&mut self, tenant: &str, n: usize) -> Vec<SessionId> {
        (0..n).map(|_| self.open_session(tenant)).collect()
    }

    /// Number of sessions in the registry.
    pub fn session_count(&self) -> usize {
        self.slots.len()
    }

    /// Read-only access to a hosted session.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.slots.get(id.index()).map(|s| &s.session)
    }

    /// Stats snapshot for one hosted session.
    pub fn session_stats(&self, id: SessionId) -> Option<SessionStats> {
        self.session(id).map(Session::stats)
    }

    /// Turns queued and not yet drained.
    pub fn queue_depth(&self) -> usize {
        self.queued
    }

    /// Queue a turn for a session. The **quota gate** runs here: a tenant
    /// over its turn budget is rejected immediately, before anything is
    /// queued, and the rejection is counted in [`ServerStats`].
    pub fn submit(&mut self, id: SessionId, utterance: &str) -> Result<(), AdmissionReject> {
        let tenant = match self.slots.get(id.index()) {
            Some(slot) => slot.tenant.clone(),
            None => return Err(AdmissionReject::UnknownSession),
        };
        let state = self.tenant_mut(&tenant);
        if let Some(max) = state.quota.max_turns {
            if state.submitted_turns >= max {
                self.rejected_quota += 1;
                return Err(AdmissionReject::QuotaExhausted { tenant, max_turns: max });
            }
        }
        state.submitted_turns += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots[id.index()].queue.push(QueuedTurn { seq, utterance: to_owned_turn(utterance) });
        self.queued += 1;
        Ok(())
    }

    /// Execute every queued turn across the worker pool and return the
    /// outcomes in global submission order.
    ///
    /// **Write admission** happens here, on the statically derived effect
    /// sets of the queued turns (`cda_analyzer::effects`): every session
    /// whose queue carries a write — plus every session whose effect set
    /// conflicts with the union of those writes — is serialized into one
    /// **write lane**, a single task that runs the merged turns in global
    /// submission order and threads each commit's successor world into the
    /// following turns ([`Session::adopt_world`]). The world's lineage and
    /// its storage backend are single-writer resources, so conflicting
    /// writers cannot drain in parallel; sessions whose effect sets are
    /// disjoint from every queued write keep full parallelism, one task
    /// each. A turn whose effects cannot be derived (a refinement of an
    /// earlier queued turn, free-form dialogue) gets a conservative
    /// whole-catalog read set — it serializes behind writers only when a
    /// writer is actually queued. With no writes queued the partition is
    /// the identity and the drain is exactly the all-parallel one.
    ///
    /// Each task runs its turns serially in submission order, each passing
    /// the **governor gate** first: the turn's oracle SQL is analyzed
    /// against the tenant's row budget and rejected pre-execution on an
    /// A013 finding, leaving the session untouched. After the drain, a
    /// world advanced by the write lane is installed and every hosted
    /// session is re-pointed at it, with the lane's accumulated effect
    /// union driving precise cache invalidation.
    pub fn drain(&mut self) -> DrainReport {
        let started = Instant::now();
        let workers = self.config.effective_workers();

        // Move every session with pending work out of the registry; each
        // cell is locked exactly once across all tasks, so there is no
        // contention and no shared mutable state. Per-turn effect sets are
        // derived now, against the pre-drain world.
        let mut work: Vec<DrainSlot> = Vec::new();
        let mut slot_effects: Vec<EffectSet> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.queue.is_empty() {
                continue;
            }
            let queue = std::mem::take(&mut slot.queue);
            let budget = self
                .tenants
                .get(&slot.tenant)
                .map(|t| t.quota.max_estimated_rows)
                .unwrap_or(self.config.default_quota.max_estimated_rows);
            // The turns run over the server's world, so the session adopts it
            // now and the prelude routes them the way they will run.
            slot.session.adopt_world(Arc::clone(&self.world), None);
            let queue: Vec<(QueuedTurn, EffectSet)> = queue
                .into_iter()
                .map(|t| {
                    let effects = turn_effects(&slot.session, &t.utterance);
                    (t, effects)
                })
                .collect();
            let mut union = EffectSet::default();
            for (_, e) in &queue {
                union.union(e);
            }
            // Placeholder session: replaced when the drained session returns.
            let parked = std::mem::replace(
                &mut slot.session,
                Session::open(self.world.clone(), self.config.session_config),
            );
            work.push((i, Mutex::new(Some((parked, queue, budget)))));
            slot_effects.push(union);
        }
        self.queued = 0;

        // Partition: one serial write lane (writers + transitively
        // conflicting readers), everything else a parallel singleton.
        let lane_union = slot_effects
            .iter()
            .filter(|e| e.is_write())
            .fold(EffectSet::default(), |mut acc, e| {
                acc.union(e);
                acc
            });
        let mut tasks: Vec<Vec<usize>> = Vec::new();
        let mut serialized = 0usize;
        if lane_union.is_write() {
            let lane: Vec<usize> = (0..work.len())
                .filter(|&i| slot_effects[i].is_write() || slot_effects[i].conflicts_with(&lane_union))
                .collect();
            serialized = lane.len();
            let singles: Vec<Vec<usize>> =
                (0..work.len()).filter(|i| !lane.contains(i)).map(|i| vec![i]).collect();
            tasks.push(lane);
            tasks.extend(singles);
        } else {
            tasks.extend((0..work.len()).map(|i| vec![i]));
        }

        let world = self.world.clone();
        let results: Vec<TaskResult> =
            cda_sql::morsel::run_ordered(tasks.len(), workers, |task| {
                run_drain_task(&world, &work, &tasks[task])
            });

        let mut sequenced: Vec<(u64, TurnOutcome)> = Vec::new();
        let mut advanced: Option<(Arc<WorldSnapshot>, EffectSet)> = None;
        for (sessions, outcomes, lane_world) in results {
            for (slot_index, session) in sessions {
                self.slots[slot_index].session = session;
            }
            sequenced.extend(outcomes);
            if lane_world.is_some() {
                advanced = lane_world;
            }
        }
        // A write lane advanced the world: install the successor and
        // re-point every hosted session, invalidating precisely by the
        // lane's committed effect union. Sessions already on the successor
        // (the lane's own) no-op on the pointer check.
        if let Some((next, delta)) = advanced {
            for slot in &mut self.slots {
                slot.session.adopt_world(Arc::clone(&next), Some(&delta));
            }
            self.world = next;
        }
        sequenced.sort_by_key(|(seq, _)| *seq);

        let mut outcomes = Vec::with_capacity(sequenced.len());
        for (_, outcome) in sequenced {
            match &outcome {
                TurnOutcome::Completed(record) => {
                    self.turns_completed += 1;
                    self.latencies_us.push(record.latency.as_micros() as u64);
                }
                TurnOutcome::Rejected { .. } => self.rejected_budget += 1,
            }
            outcomes.push(outcome);
        }

        DrainReport { outcomes, wall: started.elapsed(), workers, serialized }
    }

    /// Aggregate server statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats::compute(
            self.world.epoch(),
            self.slots.len(),
            self.next_seq,
            self.turns_completed,
            self.rejected_quota,
            self.rejected_budget,
            self.queued,
            &self.latencies_us,
        )
    }
}

/// Execute one drain task: `members` indexes into `work`. A singleton task
/// is the ordinary parallel case — one session, its turns in order. The
/// write lane (more than one member, or a single member with writes) merges
/// its members' turns into global submission order and threads the world:
/// after a turn commits (the session's epoch advanced), every following
/// turn — whichever session it belongs to — first adopts the successor
/// snapshot, invalidated precisely by the union of effects committed so
/// far. That is what makes the lane's transcript equal to a serial replay
/// of the same turns in submission order.
fn run_drain_task(
    world: &Arc<WorldSnapshot>,
    work: &[DrainSlot],
    members: &[usize],
) -> TaskResult {
    // Collect the members' parked work (each cell locked exactly once).
    let mut sessions: Vec<(usize, Session)> = Vec::with_capacity(members.len());
    let mut budgets: Vec<Option<u64>> = Vec::with_capacity(members.len());
    let mut merged: Vec<(usize, QueuedTurn, EffectSet)> = Vec::new();
    for (m, &w) in members.iter().enumerate() {
        let (slot_index, cell) = &work[w];
        let (session, queue, budget) = cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("drain slot taken twice"); // lint: allow(R002)
        sessions.push((*slot_index, session));
        budgets.push(budget);
        merged.extend(queue.into_iter().map(|(t, e)| (m, t, e)));
    }
    merged.sort_by_key(|(_, t, _)| t.seq);

    let mut lane_world = Arc::clone(world);
    let mut lane_delta: Option<EffectSet> = None;
    let mut outcomes = Vec::with_capacity(merged.len());
    for (m, turn, effects) in merged {
        let (slot_index, session) = &mut sessions[m];
        let id = SessionId(*slot_index as u64);
        if !Arc::ptr_eq(session.world(), &lane_world) {
            session.adopt_world(Arc::clone(&lane_world), lane_delta.as_ref());
        }
        let epoch_before = session.epoch();
        outcomes.push(run_admitted_turn(session, id, turn, budgets[m]));
        if session.epoch() > epoch_before {
            // The turn committed a write: its successor world carries the
            // invalidation forward for the rest of the lane. A commit the
            // prelude derived no write set for invalidates everything.
            lane_world = Arc::clone(session.world());
            let committed = if effects.is_write() { effects } else { EffectSet::schema_change() };
            match &mut lane_delta {
                Some(d) => d.union(&committed),
                None => lane_delta = Some(committed),
            }
        }
    }
    let advanced = (lane_world.epoch() > world.epoch())
        .then(|| (lane_world, lane_delta.unwrap_or_else(EffectSet::schema_change)));
    (sessions, outcomes, advanced)
}

/// Statically derive one queued turn's effect set against the session's
/// world — the write-admission signal. The turn is routed the way
/// [`Session::process`] will route it. A write goes through the session's own
/// gate-and-repair loop and gets the read/write sets of the statement that
/// will execute — or none at all when the gate dooms it, since a statement
/// that cannot run cannot write. An analysis turn gets the read set of its
/// oracle plan. Anything underivable (a refinement of a turn still queued
/// ahead of it, free-form dialogue, an oracle that does not compile) is
/// treated as reading the whole catalog, which serializes it behind writers
/// only when a writer is actually queued — admission must never be
/// *under*-conservative.
fn turn_effects(session: &Session, utterance: &str) -> EffectSet {
    let world = session.world();
    let catalog = world.catalog();
    let compiled = match session.route(utterance) {
        Route::Write => {
            let gated = Analyzer::new(catalog.sql())
                .with_stats(catalog.stats())
                .gate_with_repair(utterance, session.config.repair_rounds);
            if gated.report.dooms_execution() {
                return EffectSet::default();
            }
            gated.compiled
        }
        Route::Analysis(task) => cda_sql::compile(catalog.sql(), &task.to_sql()).ok(),
        Route::Dialogue => None,
    };
    compiled
        .map(|c| cda_analyzer::compiled_effects(&c.plan, Some(catalog.stats())))
        .unwrap_or_else(|| full_read_effects(world))
}

/// The conservative ⊤ read set: every column of every table in the world's
/// catalog.
fn full_read_effects(world: &Arc<WorldSnapshot>) -> EffectSet {
    let sql = world.catalog().sql();
    let reads = sql
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let entry = sql.get(&name).ok()?;
            let cols = entry
                .table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name().to_ascii_lowercase())
                .collect();
            Some((name.to_ascii_lowercase(), cols))
        })
        .collect();
    EffectSet::read_only(reads)
}

/// Run one queued turn through the governor gate and, if admitted, the
/// session pipeline.
fn run_admitted_turn(
    session: &mut Session,
    id: SessionId,
    turn: QueuedTurn,
    budget: Option<u64>,
) -> (u64, TurnOutcome) {
    if let Some(budget) = budget {
        if let Some(estimated_rows) = governor_overrun(session, &turn.utterance, budget) {
            return (
                turn.seq,
                TurnOutcome::Rejected {
                    session: id,
                    utterance: turn.utterance,
                    reason: AdmissionReject::RowBudgetExceeded { budget, estimated_rows },
                },
            );
        }
    }
    let turn_started = Instant::now();
    let answer = session.process(&turn.utterance);
    let latency = turn_started.elapsed();
    (
        turn.seq,
        TurnOutcome::Completed(TurnRecord {
            session: id,
            utterance: turn.utterance,
            rendered: answer.render(),
            confidence: answer.confidence,
            executed_sql: answer.executed_sql.clone(),
            latency,
        }),
    )
}

/// The governor gate, at turn time — over the world and the dialogue state
/// the turn is about to run on: gate the oracle SQL of an analysis turn under
/// the row budget and return the overshooting point estimate of an A013
/// finding, or `None` when the turn is admitted. Writes and dialogue turns
/// always pass.
fn governor_overrun(session: &Session, utterance: &str, budget: u64) -> Option<u64> {
    let Route::Analysis(task) = session.route(utterance) else { return None };
    let catalog = session.world().catalog();
    let report = Analyzer::new(catalog.sql())
        .with_stats(catalog.stats())
        .with_row_budget(budget)
        .analyze(&task.to_sql());
    report
        .exceeds_budget()
        .then(|| report.estimate.map(|e| e.est.round() as u64).unwrap_or(u64::MAX))
}

/// Normalize a submitted utterance (trim trailing whitespace only — the
/// dialogue layer owns real normalization).
fn to_owned_turn(utterance: &str) -> String {
    utterance.trim_end().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_core::demo::demo_world;

    fn server() -> Server {
        Server::new(demo_world(42), ServerConfig { workers: 2, ..ServerConfig::default() })
    }

    #[test]
    fn sessions_get_distinct_nonzero_seeds() {
        let mut s = server();
        let a = s.open_session("t");
        let b = s.open_session("t");
        let sa = s.session(a).unwrap().seed();
        let sb = s.session(b).unwrap().seed();
        assert_ne!(sa, 0, "seed 0 is reserved for the legacy stream");
        assert_ne!(sa, sb);
        assert_eq!(s.session_count(), 2);
    }

    #[test]
    fn drain_matches_a_serial_session_replay() {
        let mut s = server();
        let ids = s.open_sessions("t", 3);
        let scripts = [
            vec!["Which datasets cover employment by canton?"],
            vec![
                "What is the total employees in employment_by_type per canton?",
                "and per type instead?",
            ],
            vec!["What is the average median_wage in wage_stats per sector?"],
        ];
        // interleave submissions across sessions
        for round in 0..2 {
            for (id, script) in ids.iter().zip(&scripts) {
                if let Some(turn) = script.get(round) {
                    s.submit(*id, turn).unwrap();
                }
            }
        }
        let report = s.drain();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.rejected(), 0);

        // serial reference replay: same seed, same world, same turn order
        for (i, (id, script)) in ids.iter().zip(&scripts).enumerate() {
            let mut reference = Session::open_seeded(
                demo_world(42),
                CdaConfig::default(),
                i as u64 + 1,
            );
            let expected: Vec<String> =
                script.iter().map(|t| reference.process(t).render()).collect();
            let hosted: Vec<String> = report
                .outcomes
                .iter()
                .filter_map(|o| match o {
                    TurnOutcome::Completed(r) if r.session == *id => Some(r.rendered.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(hosted, expected, "session {id} transcript diverged");
        }
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let mut s = server();
        let ids = s.open_sessions("t", 4);
        let mut expected = Vec::new();
        for round in 0..3 {
            for id in ids.iter().rev() {
                let turn = format!("Which datasets cover employment? round {round}");
                s.submit(*id, &turn).unwrap();
                expected.push((*id, turn));
            }
        }
        assert_eq!(s.queue_depth(), 12);
        let report = s.drain();
        assert_eq!(s.queue_depth(), 0);
        let got: Vec<(SessionId, String)> = report
            .outcomes
            .iter()
            .map(|o| match o {
                TurnOutcome::Completed(r) => (r.session, r.utterance.clone()),
                TurnOutcome::Rejected { session, utterance, .. } => (*session, utterance.clone()),
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn quota_gate_rejects_at_submit_time() {
        let mut s = server();
        s.set_quota("small", TenantQuota { max_turns: Some(2), max_estimated_rows: None });
        let id = s.open_session("small");
        assert!(s.submit(id, "turn one").is_ok());
        assert!(s.submit(id, "turn two").is_ok());
        let err = s.submit(id, "turn three").unwrap_err();
        assert!(matches!(err, AdmissionReject::QuotaExhausted { max_turns: 2, .. }));
        // nothing extra was queued and the rejection is counted
        assert_eq!(s.queue_depth(), 2);
        assert_eq!(s.stats().rejected_quota, 1);
    }

    #[test]
    fn governor_rejects_wide_queries_before_execution() {
        let mut s = server();
        s.set_quota("tiny", TenantQuota { max_turns: None, max_estimated_rows: Some(1) });
        let id = s.open_session("tiny");
        s.submit(id, "What is the total employees in employment_by_type per canton?").unwrap();
        let report = s.drain();
        assert_eq!(report.rejected(), 1, "group-by over cantons estimates > 1 row");
        match &report.outcomes[0] {
            TurnOutcome::Rejected { reason: AdmissionReject::RowBudgetExceeded { budget, estimated_rows }, .. } => {
                assert_eq!(*budget, 1);
                assert!(*estimated_rows > 1);
            }
            other => panic!("expected a row-budget rejection, got {other:?}"),
        }
        // the rejected turn never touched the session
        let st = s.session_stats(id).unwrap();
        assert_eq!(st.turns, 0);
        assert_eq!(s.stats().rejected_budget, 1);
    }

    #[test]
    fn governor_reads_the_world_the_turn_runs_on() {
        // A session opened before a world swap is governed like one opened
        // after it: both turns run over the new world, where the new table
        // is wide.
        let mut s = server();
        s.set_quota("tiny", TenantQuota { max_turns: None, max_estimated_rows: Some(1) });
        let before = s.open_session("tiny");
        let mut catalog = s.world().catalog().clone();
        catalog
            .register(cda_core::catalog::Dataset {
                name: "employment_2025".into(),
                description: "next year's employment type distribution".into(),
                source_url: String::new(),
                table: Some(cda_core::demo::employment_table(7)),
                series: None,
                keywords: vec!["employment".into()],
                freshness: cda_core::rot::Freshness::static_data(),
            })
            .unwrap();
        s.install_world(s.world().successor().catalog(catalog).build_shared()).unwrap();
        let after = s.open_session("tiny");
        for id in [before, after] {
            s.submit(id, "What is the total employees in employment_2025 per canton?").unwrap();
        }
        let report = s.drain();
        assert_eq!(report.rejected(), 2, "{:?}", report.outcomes);
        assert_eq!(s.session_stats(before).unwrap().turns, 0);
    }

    #[test]
    fn unknown_session_is_rejected() {
        let mut s = server();
        let err = s.submit(SessionId(99), "hello").unwrap_err();
        assert_eq!(err, AdmissionReject::UnknownSession);
    }

    #[test]
    fn install_world_requires_epoch_to_advance() {
        let mut s = server();
        let same_epoch = demo_world(42);
        let err = s.install_world(same_epoch).unwrap_err();
        assert_eq!(err.current_epoch, 0);
        assert_eq!(err.offered_epoch, 0);

        let successor = s.world().successor().build_shared();
        assert_eq!(successor.epoch(), 1);
        s.install_world(successor).unwrap();
        assert_eq!(s.world().epoch(), 1);
        // sessions opened after the swap see the new snapshot
        let fresh = s.open_session("t");
        assert_eq!(s.session(fresh).unwrap().epoch(), 1);
    }

    #[test]
    fn stats_aggregate_across_drains() {
        let mut s = server();
        let id = s.open_session("t");
        s.submit(id, "Which datasets cover employment?").unwrap();
        s.drain();
        s.submit(id, "What is the total employees in employment_by_type per canton?").unwrap();
        s.drain();
        let st = s.stats();
        assert_eq!(st.sessions, 1);
        assert_eq!(st.turns_submitted, 2);
        assert_eq!(st.turns_completed, 2);
        assert_eq!(st.queue_depth, 0);
        assert!(st.p50_us > 0 && st.p99_us >= st.p50_us);
    }

    const DML: &str = "INSERT INTO employment_by_type (canton, type, year, employees) \
                       VALUES ('ZH', 'full_time', 2024, 9999)";
    const EMPLOYMENT_Q: &str = "What is the total employees in employment_by_type per canton?";
    const WAGE_Q: &str = "What is the average median_wage in wage_stats per canton?";

    #[test]
    fn write_lane_makes_dml_visible_to_later_conflicting_turns() {
        let mut s = server();
        let writer = s.open_session("t");
        let reader = s.open_session("t");
        s.submit(writer, DML).unwrap();
        s.submit(reader, EMPLOYMENT_Q).unwrap();
        let report = s.drain();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.serialized, 2, "reader conflicts with the write, joins the lane");
        assert_eq!(s.world().epoch(), 1, "the committed write advanced the hosted world");
        assert_eq!(s.session(reader).unwrap().epoch(), 1);
        assert_eq!(s.session(writer).unwrap().epoch(), 1);

        // Serial reference: a writer session applies the DML, then a reader
        // session opened over the writer's successor world answers the
        // question. The hosted transcript must match byte for byte.
        let mut ref_writer = Session::open_seeded(demo_world(42), CdaConfig::default(), 1);
        let expect_write = ref_writer.process(DML).render();
        let mut ref_reader =
            Session::open_seeded(ref_writer.world().clone(), CdaConfig::default(), 2);
        let expect_read = ref_reader.process(EMPLOYMENT_Q).render();
        let rendered: Vec<&str> = report
            .outcomes
            .iter()
            .map(|o| match o {
                TurnOutcome::Completed(r) => r.rendered.as_str(),
                other => panic!("unexpected rejection: {other:?}"),
            })
            .collect();
        assert_eq!(rendered, vec![expect_write.as_str(), expect_read.as_str()]);
    }

    #[test]
    fn disjoint_reader_stays_parallel_and_keeps_its_cache() {
        let mut s = server();
        let writer = s.open_session("t");
        let reader = s.open_session("t");

        // Warm the reader's cache with a wage question.
        s.submit(reader, WAGE_Q).unwrap();
        assert_eq!(s.drain().serialized, 0, "no writes queued, nothing serialized");

        // A write on employment_by_type does not touch wage_stats: the
        // reader runs outside the lane and its cached answer survives.
        s.submit(writer, DML).unwrap();
        s.submit(reader, WAGE_Q).unwrap();
        let report = s.drain();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.serialized, 1, "only the writer is in the lane");
        assert_eq!(s.session(reader).unwrap().epoch(), 1, "reader re-pointed post-drain");

        // Third drain: the reader is on the successor world, and the
        // precisely-invalidated cache still holds the wage entry.
        s.submit(reader, WAGE_Q).unwrap();
        s.drain();
        let st = s.session_stats(reader).unwrap();
        assert!(st.cache.hits >= 2, "wage entry survived the unrelated write: {:?}", st.cache);
    }

    #[test]
    fn a_write_that_cannot_bind_serializes_nobody() {
        // The gate dooms this before binding (A019, and no column is near
        // enough for repair): it cannot write, so it has no effects to
        // serialize anyone behind.
        const DOOMED: &str = "UPDATE wage_stats SET missing_col = 1";
        let round = |turns: &[&str]| {
            let mut s = server();
            let ids = s.open_sessions("t", turns.len());
            for (id, turn) in ids.iter().zip(turns) {
                s.submit(*id, turn).unwrap();
            }
            let report = s.drain();
            assert_eq!(s.world().epoch(), 0, "nothing committed");
            report
        };
        let without = round(&[EMPLOYMENT_Q, WAGE_Q]);
        let with = round(&[EMPLOYMENT_Q, WAGE_Q, DOOMED]);
        assert_eq!(without.serialized, 0);
        assert_eq!(with.serialized, without.serialized, "the doomed write parks nobody in the lane");
        // Hosted transcripts equal the serial replay, the rejection included.
        for (i, (outcome, turn)) in with.outcomes.iter().zip([EMPLOYMENT_Q, WAGE_Q, DOOMED]).enumerate() {
            let mut reference = Session::open_seeded(demo_world(42), CdaConfig::default(), i as u64 + 1);
            let expect = reference.process(turn).render();
            match outcome {
                TurnOutcome::Completed(r) => assert_eq!(r.rendered, expect, "{turn}"),
                other => panic!("unexpected rejection: {other:?}"),
            }
        }
        let TurnOutcome::Completed(rejected) = &with.outcomes[2] else { unreachable!() };
        assert!(rejected.rendered.contains("Static analysis rejected the write"), "{}", rejected.rendered);
    }

    #[test]
    fn write_lane_transcripts_are_deterministic_across_worker_counts() {
        let transcript = |workers: usize| -> Vec<String> {
            let mut s = Server::new(
                demo_world(42),
                ServerConfig { workers, ..ServerConfig::default() },
            );
            let ids = s.open_sessions("t", 3);
            s.submit(ids[0], EMPLOYMENT_Q).unwrap();
            s.submit(ids[1], DML).unwrap();
            s.submit(ids[2], WAGE_Q).unwrap();
            s.submit(ids[0], EMPLOYMENT_Q).unwrap();
            let mut out: Vec<String> = s
                .drain()
                .outcomes
                .iter()
                .map(|o| match o {
                    TurnOutcome::Completed(r) => r.rendered.clone(),
                    other => panic!("unexpected rejection: {other:?}"),
                })
                .collect();
            // Second drain proves the post-drain world install converges.
            s.submit(ids[2], EMPLOYMENT_Q).unwrap();
            out.extend(s.drain().outcomes.iter().map(|o| match o {
                TurnOutcome::Completed(r) => r.rendered.clone(),
                other => panic!("unexpected rejection: {other:?}"),
            }));
            out
        };
        let serial = transcript(1);
        assert_eq!(serial, transcript(2));
        assert_eq!(serial, transcript(8));
    }
}
