//! Per-conversation state: [`Session`] and its records.
//!
//! A session is everything one conversation *writes*: the dialogue state,
//! the cross-component lineage graph (P3), the conversation graph (P5), the
//! user profile, the query log, and the semantic answer cache. It reads the
//! world through a shared [`WorldSnapshot`],
//! so opening a session is cheap (an `Arc` clone plus empty records) and
//! thousands can run concurrently over one snapshot.
//!
//! Determinism: the simulated LM is stateless and seeded per call, and each
//! session derives its own LM seed from the world's base seed and the
//! session seed ([`Session::open_seeded`]). A session's transcript is
//! therefore a pure function of `(world, config, session seed, utterances)`
//! — bit-identical no matter how many other sessions run, on how many
//! threads, or in which interleaving. The `cda-server` determinism suite
//! and E19 verify exactly that.
//!
//! Turn processing lives in [`crate::dialogue`].

use crate::log::QueryLog;
use crate::reliability::CdaConfig;
use crate::world::WorldSnapshot;
use cda_analyzer::{Analyzer, ColumnSet, EffectSet};
use cda_guidance::graph::ConversationGraph;
use cda_guidance::profile::UserProfile;
use cda_nlmodel::lm::{SimLm, SimLmConfig};
use cda_provenance::checks::LosslessReport;
use cda_provenance::lineage::LineageGraph;
use cda_soundness::consistency::{GroupOutcome, Known};
use cda_sql::exec::QueryResult;
use cda_storage::{StorageBackend, StoreId};
use cda_testkit::rng::mix64;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Mutable per-conversation state.
#[derive(Debug, Clone, Default)]
pub struct DialogueState {
    /// Turn counter.
    pub turn: usize,
    /// The dataset the conversation is currently focused on.
    pub focused: Option<String>,
    /// Options offered in the previous system turn (for Selection intent).
    pub offered: Vec<String>,
    /// The grounding assumption stated in the previous turn, if any.
    pub assumption: Option<String>,
    /// The last successfully executed analytic task (iterative refinement).
    pub last_task: Option<cda_nlmodel::nl2sql::AnalyticTask>,
}

/// A successfully executed analysis turn stored for semantic reuse.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The turn that paid for the execution.
    pub turn: usize,
    /// The SQL that was executed (the *first* phrasing; later equivalent
    /// phrasings reuse its result).
    pub sql: String,
    /// The stored execution result, served verbatim on a hit.
    pub result: QueryResult,
}

impl std::borrow::Borrow<QueryResult> for CachedAnswer {
    fn borrow(&self) -> &QueryResult {
        &self.result
    }
}

/// The semantic-cache interface the dialogue layer talks to; [`SemanticCache`]
/// implements it.
///
/// Looking an answer up and serving it are two steps, because a turn looks
/// up more than it serves: consistency UQ [`probe`](Self::probe)s every
/// candidate's fingerprint so that a held result is not executed again, and
/// only if the turn then answers from a held result does it
/// [`count_hit`](Self::count_hit). Only the answer a turn executed and
/// returned is [`put`](Self::put) — a losing candidate's result never is —
/// so `hits`, `misses` and the stored entries are per *turn*, whatever UQ
/// looked at on the way. (What [`SemanticCache`] also remembers about losing
/// candidates and served answers lives beside this interface: it is neither
/// an answer nor counted.) Lookups return an owned answer (a world-scoped
/// cache decodes it from storage, so there is no stored value to borrow).
pub trait CacheStore {
    /// Look up a fingerprint without counting anything.
    fn probe(&self, fingerprint: u64) -> Option<CachedAnswer>;
    /// Count one turn served from the cache.
    fn count_hit(&mut self);
    /// Look up a fingerprint and serve it: counts a hit when found.
    fn get(&mut self, fingerprint: u64) -> Option<CachedAnswer> {
        let hit = self.probe(fingerprint);
        if hit.is_some() {
            self.count_hit();
        }
        hit
    }
    /// Store an executed answer under its fingerprint; counts a miss.
    fn put(&mut self, fingerprint: u64, answer: CachedAnswer);
    /// Drop exactly the stored answers a committed write invalidates —
    /// those whose plan read set intersects `effects`
    /// ([`EffectSet::invalidates`](cda_analyzer::EffectSet::invalidates)).
    /// Returns the number dropped. A world-scoped cache returns 0 here: its
    /// records were already reconciled storage-side when the successor
    /// world was opened.
    fn invalidate(&mut self, effects: &EffectSet) -> usize;
    /// Forget conversation-scoped state: the hit/miss counters always, the
    /// entries when the cache is conversation-scoped.
    fn clear(&mut self);
    /// Number of stored answers visible to this store.
    fn len(&self) -> usize;
    /// True when no answers are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Counter snapshot.
    fn stats(&self) -> CacheStats;
}

/// The semantic answer cache: executed `QueryResult`s keyed by the
/// canonical-plan fingerprint (`cda_analyzer::equiv::PlanFingerprint`) of
/// the query that produced them. Equal fingerprints certify equal execution
/// on the deterministic engine, so a hit is byte-identical to re-executing —
/// E16 and E20 verify exactly that. Only successful executions are stored
/// as answers. Counters are read through [`CacheStats`] / [`SessionStats`],
/// not fields.
///
/// Beside the answers, the cache remembers two facts per fingerprint that
/// let a re-asked question do no engine work, each with the read set of the
/// plan it came from:
///
/// * the **outcome of every candidate group** a consistency round executed
///   — its exact result signature, or that it failed — so that a losing
///   candidate sampled again clusters without executing
///   ([`Known::Outcome`]); canonicalization preserves *whether* an error
///   fires, so a recorded failure is the failure re-executing would give;
/// * the **losslessness verdict** of the answer served for the
///   fingerprint, a function of the plan's equivalence class, the world and
///   the result table — the certificate a hit already rests on — so a hit
///   reuses it instead of replaying the plan.
///
/// These records are the conversation's, in memory, in either scope: they
/// are not answers (`len`, [`CacheStats`] and [`CacheStore`] do not see
/// them), nothing persists them, and exactly the answers' invalidation rule
/// drops them — the ones a committed write's effect set intersects, all of
/// them when the write is unknown or the conversation is cleared.
///
/// The cache has one of two scopes, fixed at construction:
///
/// * **conversation** ([`SemanticCache::new`]): answers live in memory and
///   die with the conversation;
/// * **world** ([`SemanticCache::durable`]): answers live in the world's
///   storage backend, shared by every durable session over it and by later
///   processes — a hit may have been paid for before this process started,
///   which is exactly the E20 restart scenario. Storage failures fail
///   *open* (a write error skips persistence, a read error is a miss), so a
///   sick disk degrades to the in-memory behaviour instead of taking
///   conversations down; [`CacheStats::write_errors`] counts the failed
///   writes.
#[derive(Debug, Clone, Default)]
pub struct SemanticCache {
    scope: Scope,
    /// Candidate-group outcomes (exact result signature, `None`: failed).
    outcomes: HashMap<u64, Recorded<Option<Arc<str>>>>,
    /// Losslessness verdicts of served answers (`None`: no verdict — an
    /// empty result, or a replay that could not run).
    verdicts: HashMap<u64, Recorded<Option<LosslessReport>>>,
    /// The distinct read sets the records rest on, each stored once: a
    /// conversation's many candidate plans read few distinct column sets,
    /// and a read set is the largest part of a record.
    read_sets: HashSet<Arc<ColumnSet>>,
    hits: usize,
    misses: usize,
    write_errors: usize,
}

/// A fact about one fingerprint and the `(table, column)` pairs it rests on.
#[derive(Debug, Clone)]
struct Recorded<T> {
    reads: Arc<ColumnSet>,
    value: T,
}

/// Where a [`SemanticCache`] keeps its answers.
#[derive(Debug, Clone)]
enum Scope {
    /// Answers held in memory for the life of the conversation.
    Conversation(HashMap<u64, CachedAnswer>),
    /// Records are decoded against `world`'s catalog and epoch.
    World { world: Arc<WorldSnapshot>, backend: Arc<dyn StorageBackend> },
}

impl Default for Scope {
    fn default() -> Self {
        Self::Conversation(HashMap::new())
    }
}

impl SemanticCache {
    /// An empty conversation-scoped cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A world-scoped cache over `backend`, decoding against `world`'s
    /// catalog. The usual route is [`Session::open_durable`], which checks
    /// that world and backend agree on the epoch; construct directly only
    /// when that invariant is guaranteed another way (e.g. a fresh backend
    /// that has never held another world's records).
    pub fn durable(world: Arc<WorldSnapshot>, backend: Arc<dyn StorageBackend>) -> Self {
        Self { scope: Scope::World { world, backend }, ..Self::default() }
    }

    /// Re-point the cache at a successor world. A conversation-scoped cache
    /// drops the answers the move invalidates: exactly those `effects`
    /// intersects when the committed write is known, all of them
    /// otherwise. A world-scoped cache only re-points its answers — they
    /// were reconciled storage-side when the successor was opened. Either
    /// scope drops its outcome and verdict records by the same rule.
    /// Counters carry over: the conversation did not restart. Returns the
    /// number of answers dropped.
    pub(crate) fn adopt(
        &mut self,
        world: Arc<WorldSnapshot>,
        effects: Option<&EffectSet>,
    ) -> usize {
        if let Scope::World { world: current, .. } = &mut self.scope {
            *current = world;
        }
        match effects {
            Some(effects) => self.invalidate(effects),
            None => {
                self.forget_records();
                match &mut self.scope {
                    Scope::Conversation(entries) => std::mem::take(entries).len(),
                    Scope::World { .. } => 0,
                }
            }
        }
    }

    /// What the cache knows about `fingerprint` for a consistency round: the
    /// held answer, else the recorded outcome of its execution, else nothing.
    /// Counts nothing, like [`probe`](CacheStore::probe).
    pub(crate) fn known(&self, fingerprint: u64) -> Known<CachedAnswer> {
        if let Some(answer) = self.probe(fingerprint) {
            return Known::Held(answer);
        }
        self.outcomes
            .get(&fingerprint)
            .map_or(Known::Unknown, |outcome| Known::Outcome(outcome.value.clone()))
    }

    /// Record how a round's executions came out.
    pub(crate) fn record_outcomes(&mut self, outcomes: Vec<GroupOutcome>) {
        for GroupOutcome { fingerprint, signature, reads } in outcomes {
            let reads = self.shared_reads(reads);
            self.outcomes.insert(fingerprint, Recorded { reads, value: signature });
        }
    }

    /// The recorded losslessness verdict of the answer served for
    /// `fingerprint`, when one is recorded.
    pub(crate) fn verdict(&self, fingerprint: u64) -> Option<Option<LosslessReport>> {
        self.verdicts.get(&fingerprint).map(|verdict| verdict.value.clone())
    }

    /// Record the losslessness verdict of the answer served for
    /// `fingerprint`, which `reads` (its executed plan's read set) rests on.
    pub(crate) fn record_verdict(
        &mut self,
        fingerprint: u64,
        reads: ColumnSet,
        verdict: Option<LosslessReport>,
    ) {
        let reads = self.shared_reads(reads);
        self.verdicts.insert(fingerprint, Recorded { reads, value: verdict });
    }

    /// The stored copy of `reads`, made on first use.
    fn shared_reads(&mut self, reads: ColumnSet) -> Arc<ColumnSet> {
        if let Some(shared) = self.read_sets.get(&reads) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(reads);
        self.read_sets.insert(Arc::clone(&shared));
        shared
    }

    fn forget_records(&mut self) {
        self.outcomes.clear();
        self.verdicts.clear();
        self.read_sets.clear();
    }
}

impl CacheStore for SemanticCache {
    fn probe(&self, fingerprint: u64) -> Option<CachedAnswer> {
        match &self.scope {
            Scope::Conversation(entries) => entries.get(&fingerprint).cloned(),
            Scope::World { world, backend } => {
                let bytes = backend.get(StoreId::SemanticCache, &fingerprint.to_be_bytes()).ok()??;
                match crate::durable::decode_cached(&bytes, world.catalog().sql()) {
                    Ok((epoch, answer)) if epoch == world.epoch() => Some(answer),
                    // Stale stamp (never served) or undecodable: not held.
                    _ => None,
                }
            }
        }
    }

    fn count_hit(&mut self) {
        self.hits += 1;
    }

    fn put(&mut self, fingerprint: u64, answer: CachedAnswer) {
        self.misses += 1;
        match &mut self.scope {
            Scope::Conversation(entries) => {
                entries.insert(fingerprint, answer);
            }
            Scope::World { world, backend } => {
                let bytes = crate::durable::encode_cached(world.epoch(), &answer);
                let written = backend
                    .put(StoreId::SemanticCache, &fingerprint.to_be_bytes(), &bytes)
                    .and_then(|()| backend.commit(world.epoch()));
                if written.is_err() {
                    self.write_errors += 1;
                }
            }
        }
    }

    fn invalidate(&mut self, effects: &EffectSet) -> usize {
        // Outcomes and verdicts are dropped by the rule that drops answers,
        // in either scope: a retained record reads nothing the write touched.
        self.outcomes.retain(|_, r| !effects.invalidates(&r.reads));
        self.verdicts.retain(|_, r| !effects.invalidates(&r.reads));
        self.read_sets.retain(|reads| Arc::strong_count(reads) > 1);
        match &mut self.scope {
            Scope::Conversation(entries) => {
                let before = entries.len();
                // Each entry's read set comes from the executed plan it
                // stores, so the intersection check is exact: a retained
                // answer provably reads no (table, column) the write touched.
                entries.retain(|_, e| {
                    !effects.invalidates(&cda_analyzer::plan_reads(&e.result.plan))
                });
                before - entries.len()
            }
            // Reconciled storage-side when the successor world is opened
            // (`sync_world_delta`), once for every durable session over the
            // backend; the epoch check in `probe` keeps any record the
            // reconciliation missed from ever being served.
            Scope::World { .. } => 0,
        }
    }

    fn clear(&mut self) {
        // World-scoped entries are the world's executed work, not the
        // conversation's, so they stay; `write_errors` describes the
        // storage and stays too.
        if let Scope::Conversation(entries) = &mut self.scope {
            entries.clear();
        }
        self.forget_records();
        self.hits = 0;
        self.misses = 0;
    }

    fn len(&self) -> usize {
        match &self.scope {
            Scope::Conversation(entries) => entries.len(),
            Scope::World { backend, .. } => backend.len(StoreId::SemanticCache).unwrap_or(0),
        }
    }

    fn stats(&self) -> CacheStats {
        let total = self.hits + self.misses;
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.len(),
            hit_rate: if total == 0 { 0.0 } else { self.hits as f64 / total as f64 },
            write_errors: self.write_errors,
        }
    }
}

/// Semantic-cache counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Turns served from the cache this conversation.
    pub hits: usize,
    /// Analysis executions that went to the engine (cacheable misses).
    pub misses: usize,
    /// Stored answers.
    pub entries: usize,
    /// Hit rate over all cache-eligible turns so far (0.0 when none).
    pub hit_rate: f64,
    /// Answers a world-scoped cache failed to persist (its writes fail
    /// open, so the turn still answers). Always 0 for a conversation-scoped
    /// cache; a conversation reset does not zero it.
    pub write_errors: usize,
}

/// A point-in-time snapshot of one session — the uniform stats surface for
/// benches, the server, and tests (instead of reaching into fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStats {
    /// Epoch of the world snapshot the session reads.
    pub epoch: u64,
    /// The session's deterministic seed (0 for the legacy stream).
    pub seed: u64,
    /// Turns processed so far.
    pub turns: usize,
    /// Turns that produced an answer.
    pub answered: usize,
    /// Turns that asked a clarification question.
    pub clarified: usize,
    /// Turns that abstained.
    pub abstained: usize,
    /// Nodes in the cross-component lineage graph.
    pub lineage_nodes: usize,
    /// Nodes in the conversation graph.
    pub conversation_nodes: usize,
    /// Semantic-cache counters.
    pub cache: CacheStats,
    /// Query executions the engine ran for this conversation's analysis
    /// turns — consistency-UQ candidates included. Each distinct candidate
    /// plan of a turn executes at most once, and not at all when the
    /// semantic cache already holds its result or has recorded how its
    /// execution came out — unless such a recorded outcome represents the
    /// winning cluster, which then executes to be served. The turn's answer
    /// is one of those executions, never an extra one.
    pub executions: usize,
    /// Losslessness replays (`cda_provenance::checks::check_plan_losslessness`)
    /// the explanations of this conversation's answers ran. An answer the
    /// semantic cache has already verified reuses the recorded verdict and
    /// replays nothing.
    pub lossless_replays: usize,
}

/// One conversation over a shared [`WorldSnapshot`].
#[derive(Debug, Clone)]
pub struct Session {
    /// The shared immutable world.
    pub(crate) world: Arc<WorldSnapshot>,
    /// Active reliability configuration.
    pub config: CdaConfig,
    /// The (simulated) language model (ⓒ), seeded per session.
    pub lm: SimLm,
    /// Deterministic per-session seed (see [`Session::open_seeded`]).
    seed: u64,
    /// Cross-component lineage of the session (P3).
    pub(crate) lineage: LineageGraph,
    /// Conversation graph with alternatives (P5).
    pub(crate) conversation: ConversationGraph,
    /// User expertise profile (P5).
    pub(crate) profile: UserProfile,
    /// Dialogue state.
    pub(crate) state: DialogueState,
    /// The session query log (itself a queryable data source, layer ⓓ).
    pub(crate) query_log: QueryLog,
    /// Semantic answer cache keyed on canonical-plan fingerprints
    /// (active when [`CdaConfig::semantic_cache`] is set).
    pub(crate) semantic_cache: SemanticCache,
    /// Query executions so far (see [`SessionStats::executions`]).
    pub(crate) executions: usize,
    /// Losslessness replays so far (see [`SessionStats::lossless_replays`]).
    pub(crate) lossless_replays: usize,
}

/// Derive a session's LM seed from the world's base seed. Seed 0 is the
/// identity — it pins the legacy single-session stream the golden
/// transcripts were recorded on. Any other seed mixes through SplitMix64 so
/// distinct sessions draw decorrelated samples.
fn derive_lm_seed(base: u64, session_seed: u64) -> u64 {
    if session_seed == 0 {
        base
    } else {
        mix64(base ^ mix64(session_seed))
    }
}

impl Session {
    /// Open a conversation over a shared world with session seed 0 (the
    /// legacy single-session LM stream).
    pub fn open(world: Arc<WorldSnapshot>, config: CdaConfig) -> Self {
        Self::open_seeded(world, config, 0)
    }

    /// Open a conversation with an explicit session seed. The transcript is
    /// a pure function of `(world, config, session_seed, utterances)`:
    /// replaying the same seed serially reproduces a multiplexed run
    /// bit-for-bit regardless of worker count or interleaving.
    pub fn open_seeded(world: Arc<WorldSnapshot>, config: CdaConfig, session_seed: u64) -> Self {
        let lm_config = SimLmConfig {
            seed: derive_lm_seed(world.lm_config.seed, session_seed),
            ..world.lm_config.clone()
        };
        Self {
            world,
            config,
            lm: SimLm::new(lm_config),
            seed: session_seed,
            lineage: LineageGraph::new(),
            conversation: ConversationGraph::new(),
            profile: UserProfile::new(),
            state: DialogueState::default(),
            query_log: QueryLog::new(),
            semantic_cache: SemanticCache::new(),
            executions: 0,
            lossless_replays: 0,
        }
    }

    /// Open a conversation whose semantic cache lives in the world's
    /// storage backend (session seed 0). The world must have been opened
    /// through [`WorldSnapshotBuilder::open`](crate::world::WorldSnapshotBuilder::open)
    /// with a backend attached, so that disk and memory agree on the epoch.
    /// Answers verified by *any* durable session over this world — in this
    /// process or an earlier one — are served on a fingerprint hit,
    /// byte-identical to re-executing.
    pub fn open_durable(world: Arc<WorldSnapshot>, config: CdaConfig) -> crate::Result<Self> {
        Self::open_durable_seeded(world, config, 0)
    }

    /// [`Session::open_durable`] with an explicit session seed.
    pub fn open_durable_seeded(
        world: Arc<WorldSnapshot>,
        config: CdaConfig,
        session_seed: u64,
    ) -> crate::Result<Self> {
        let backend = world.storage().cloned().ok_or_else(|| {
            crate::CdaError::Substrate(
                "durable session over a world without storage: attach a backend via \
                 WorldSnapshot::builder().with_storage(..) and open it with .open()"
                    .into(),
            )
        })?;
        let committed = backend
            .committed_epoch()
            .map_err(|e| crate::CdaError::Substrate(format!("storage: {e}")))?;
        if committed != Some(world.epoch()) {
            return Err(crate::CdaError::Substrate(format!(
                "storage backend committed at epoch {committed:?} but the world is at epoch {}: \
                 open the world with WorldSnapshotBuilder::open(), not build()",
                world.epoch()
            )));
        }
        let mut session = Self::open_seeded(Arc::clone(&world), config, session_seed);
        session.semantic_cache = SemanticCache::durable(world, backend);
        Ok(session)
    }

    /// Replace the reliability configuration (used by the F2 ablation).
    pub fn with_config(mut self, config: CdaConfig) -> Self {
        self.config = config;
        self
    }

    /// The shared world this session reads.
    pub fn world(&self) -> &Arc<WorldSnapshot> {
        &self.world
    }

    /// The epoch of the world snapshot the session reads.
    pub fn epoch(&self) -> u64 {
        self.world.epoch()
    }

    /// The dataset catalog (through the world snapshot).
    pub fn catalog(&self) -> &crate::catalog::DatasetCatalog {
        self.world.catalog()
    }

    /// The session's static gate: the analyzer over the world's catalog and
    /// statistics with the configured row budget. Analysis turns, writes and
    /// the server's effect prelude all gate (and repair) through it.
    pub fn analyzer(&self) -> Analyzer<'_> {
        let catalog = self.world.catalog();
        Analyzer::new(catalog.sql())
            .with_stats(catalog.stats())
            .with_row_budget(self.config.row_budget)
    }

    /// The session's deterministic seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Cross-component lineage of the session (P3).
    pub fn lineage(&self) -> &LineageGraph {
        &self.lineage
    }

    /// Conversation graph with alternatives (P5).
    pub fn conversation(&self) -> &ConversationGraph {
        &self.conversation
    }

    /// User expertise profile (P5).
    pub fn profile(&self) -> &UserProfile {
        &self.profile
    }

    /// Dialogue state.
    pub fn state(&self) -> &DialogueState {
        &self.state
    }

    /// The session query log.
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// Point-in-time stats snapshot (the uniform surface for benches, the
    /// server, and tests).
    pub fn stats(&self) -> SessionStats {
        let mut answered = 0;
        let mut clarified = 0;
        let mut abstained = 0;
        for e in self.query_log.entries() {
            match e.outcome {
                crate::log::LoggedOutcome::Answered => answered += 1,
                crate::log::LoggedOutcome::Clarified => clarified += 1,
                crate::log::LoggedOutcome::Abstained => abstained += 1,
            }
        }
        SessionStats {
            epoch: self.world.epoch(),
            seed: self.seed,
            turns: self.state.turn,
            answered,
            clarified,
            abstained,
            lineage_nodes: self.lineage.len(),
            conversation_nodes: self.conversation.len(),
            cache: self.semantic_cache.stats(),
            executions: self.executions,
            lossless_replays: self.lossless_replays,
        }
    }

    /// Re-point the session at a successor world snapshot after a write
    /// committed elsewhere (the server's write lane, or another session
    /// over the same durable backend). `effects` is the committed write's
    /// static effect set when known: see [`SemanticCache`] for what each
    /// cache scope drops. Conversation state (lineage, dialogue, log, seed,
    /// cache counters) is untouched: the conversation continues, over newer
    /// data. Returns the number of cached answers dropped.
    pub fn adopt_world(
        &mut self,
        world: Arc<WorldSnapshot>,
        effects: Option<&EffectSet>,
    ) -> usize {
        if Arc::ptr_eq(&self.world, &world) {
            return 0;
        }
        let dropped = self.semantic_cache.adopt(Arc::clone(&world), effects);
        self.world = world;
        dropped
    }

    /// Reset conversation state while keeping the shared world.
    pub fn reset_conversation(&mut self) {
        self.lineage = LineageGraph::new();
        self.conversation = ConversationGraph::new();
        self.profile = UserProfile::new();
        self.state = DialogueState::default();
        self.query_log = QueryLog::new();
        // Conversation-scoped answers go (their turn numbers and transcript
        // references would dangle); world-scoped answers stay.
        self.semantic_cache.clear();
        self.executions = 0;
        self.lossless_replays = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_session, demo_world};
    use cda_provenance::checks::check_plan_losslessness;
    use cda_soundness::verify::result_signature;

    #[test]
    fn demo_session_assembles() {
        let s = demo_session(1);
        assert!(s.catalog().len() >= 3);
        assert!(!s.world().kg().is_empty());
        assert!(!s.world().vocab().is_empty());
        assert_eq!(s.state().turn, 0);
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.seed(), 0);
    }

    #[test]
    fn reset_clears_session_state() {
        let mut s = demo_session(1);
        let _ = s.process("Give me an overview of the working force in Switzerland");
        assert!(s.state().turn > 0);
        assert!(!s.lineage().is_empty());
        s.reset_conversation();
        assert_eq!(s.state().turn, 0);
        assert!(s.lineage().is_empty());
        // data survives
        assert!(s.catalog().len() >= 3);
    }

    #[test]
    fn with_config_swaps_configuration() {
        let s = demo_session(1).with_config(CdaConfig::none());
        assert!(!s.config.soundness);
    }

    #[test]
    fn sessions_share_one_world_allocation() {
        let world = demo_world(1);
        let a = Session::open(Arc::clone(&world), CdaConfig::default());
        let b = Session::open(Arc::clone(&world), CdaConfig::default());
        assert!(Arc::ptr_eq(a.world(), b.world()));
        assert_eq!(Arc::strong_count(&world), 3);
    }

    #[test]
    fn seed_zero_pins_the_legacy_lm_stream() {
        assert_eq!(derive_lm_seed(42, 0), 42);
        assert_ne!(derive_lm_seed(42, 1), 42);
        assert_ne!(derive_lm_seed(42, 1), derive_lm_seed(42, 2));
    }

    #[test]
    fn seeded_sessions_replay_bit_identically() {
        let world = demo_world(1);
        let q = "What is the total employees in employment_by_type per canton?";
        let mut a = Session::open_seeded(Arc::clone(&world), CdaConfig::default(), 7);
        let mut b = Session::open_seeded(Arc::clone(&world), CdaConfig::default(), 7);
        let ta = a.process(q);
        let tb = b.process(q);
        assert_eq!(ta.render(), tb.render());
        assert_eq!(ta.executed_sql, tb.executed_sql);
    }

    #[test]
    fn probing_counts_nothing_and_get_is_probe_plus_count_hit() {
        let mut s = demo_session(1);
        let _ = s.process("What is the total employees in employment_by_type per canton?");
        let cache = &mut s.semantic_cache;
        let Scope::Conversation(entries) = &cache.scope else { unreachable!() };
        let fp = *entries.keys().next().expect("the answered turn stored its execution");
        let before = cache.stats();
        assert!(cache.probe(fp).is_some() && cache.probe(fp ^ 1).is_none());
        assert_eq!(cache.stats(), before);
        assert!(cache.get(fp).is_some() && cache.get(fp ^ 1).is_none());
        assert_eq!(cache.stats().hits, before.hits + 1);
        assert_eq!(cache.stats().misses, before.misses);
    }

    #[test]
    fn adopting_a_world_without_effects_drops_entries_and_keeps_counters() {
        let mut s = demo_session(1);
        let q = "What is the total employees in employment_by_type per canton?";
        let _ = s.process(q);
        let _ = s.process(q);
        let before = s.stats().cache;
        assert!(before.hits >= 1 && before.entries >= 1, "{before:?}");
        let next = s.world().successor().build_shared();
        assert_eq!(s.adopt_world(next, None), before.entries);
        let after = s.stats().cache;
        assert_eq!(after.entries, 0, "{after:?}");
        assert_eq!((after.hits, after.misses), (before.hits, before.misses), "{after:?}");
    }

    /// The optimized plan of every candidate `s`'s consistency round samples
    /// for `question`, by canonical-plan fingerprint.
    fn candidate_plans(s: &Session, question: &str) -> HashMap<u64, cda_sql::plan::Plan> {
        let crate::Route::Analysis(task) = s.route(question) else { return HashMap::new() };
        let catalog = s.catalog().sql();
        let schema = catalog.get(&task.table).unwrap().table.schema().clone();
        let other_tables = catalog.table_names().into_iter().filter(|n| *n != task.table).collect();
        let prompt = cda_nlmodel::lm::Nl2SqlPrompt { task, schema, other_tables };
        let analyzer = s.analyzer();
        let mut plans = HashMap::new();
        for g in s.lm.sample_k(&prompt, s.config.temperature, s.config.uq_samples) {
            let gated = analyzer.gate_with_repair(&g.sql, s.config.repair_rounds);
            if let Some((logical, optimized)) = gated.compiled.as_ref().and_then(|c| c.query()) {
                let fp = cda_analyzer::EquivEngine::new().fingerprint(logical).as_u64();
                plans.insert(fp, optimized.clone());
            }
        }
        plans
    }

    /// A demo session that has asked `questions`, and the plans its records
    /// describe; `durable` gives it a world-scoped cache over a fresh backend.
    fn session_with_records(
        questions: &[String],
        durable: bool,
    ) -> (Session, HashMap<u64, cda_sql::plan::Plan>) {
        let mut s = if durable {
            let world = WorldSnapshot::builder()
                .catalog(crate::demo::demo_catalog(5))
                .kg(crate::demo::demo_kg())
                .vocab(crate::demo::demo_vocabulary())
                .linker(crate::demo::demo_linker())
                .lm(demo_world(5).lm_config.clone())
                .with_storage(Arc::new(cda_storage::MemBackend::new()))
                .open_shared()
                .unwrap();
            Session::open_durable_seeded(world, CdaConfig::default(), 9).unwrap()
        } else {
            Session::open_seeded(demo_world(5), CdaConfig::default(), 9)
        };
        let mut plans = HashMap::new();
        for q in questions {
            plans.extend(candidate_plans(&s, q));
            let _ = s.process(q);
        }
        (s, plans)
    }

    fn demo_questions() -> Vec<String> {
        let world = demo_world(5);
        cda_nlmodel::nl2sql::Workload::generate(world.workload_tables(), 24, 5)
            .tasks
            .into_iter()
            .map(|t| t.question)
            .collect()
    }

    #[test]
    fn a_committed_update_retains_only_records_it_leaves_true() {
        for durable in [false, true] {
            a_committed_update_retains_only_true_records(durable);
        }
    }

    fn a_committed_update_retains_only_true_records(durable: bool) {
        let (mut s, plans) = session_with_records(&demo_questions(), durable);
        assert_eq!(matches!(s.semantic_cache.scope, Scope::World { .. }), durable);
        let cache = &s.semantic_cache;
        let (outcomes, verdicts) = (cache.outcomes.len(), cache.verdicts.len());
        assert!(outcomes > verdicts && verdicts > 1, "{outcomes} outcomes, {verdicts} verdicts");
        let sql = "UPDATE wage_stats SET median_wage = median_wage + 1 WHERE canton = 'ZH'";
        let crate::WriteDecision::Applied(write) = s.apply_sql(sql).unwrap() else {
            panic!("the update must apply")
        };
        assert!(write.committed);
        let (cache, catalog, options) = (&s.semantic_cache, s.catalog().sql(), s.exec_options());
        let retained = cache.outcomes.len() + cache.verdicts.len();
        assert!(retained > 0 && retained < outcomes + verdicts, "the write must split the records");
        assert!(cache.read_sets.iter().all(|reads| Arc::strong_count(reads) > 1));
        for (fp, outcome) in &cache.outcomes {
            assert!(!write.effects.invalidates(&outcome.reads));
            let fresh = cda_sql::execute_plan(catalog, &plans[fp], options).ok();
            let signature = fresh.map(|r| result_signature(&r.table));
            assert_eq!(signature.as_deref(), outcome.value.as_deref(), "{}", plans[fp].explain());
        }
        for (fp, verdict) in &cache.verdicts {
            assert!(!write.effects.invalidates(&verdict.reads));
            let fresh = cda_sql::execute_plan(catalog, &plans[fp], options).unwrap();
            let replayed = (fresh.table.num_rows() > 0)
                .then(|| {
                    check_plan_losslessness(catalog, &plans[fp], options, &fresh.table, 0).ok()
                })
                .flatten();
            assert_eq!(replayed, verdict.value, "{}", plans[fp].explain());
        }
    }

    #[test]
    fn an_unknown_write_and_a_reset_retain_no_record() {
        let questions = demo_questions();
        for durable in [false, true] {
            let (mut s, _) = session_with_records(&questions, durable);
            let cache = &s.semantic_cache;
            assert!(!cache.outcomes.is_empty() && !cache.verdicts.is_empty());
            let next = s.world().successor().build_shared();
            s.adopt_world(next, None);
            let cache = &s.semantic_cache;
            assert!(cache.outcomes.is_empty() && cache.verdicts.is_empty());
            assert!(cache.read_sets.is_empty());
            let (mut s, _) = session_with_records(&questions, durable);
            s.reset_conversation();
            let cache = &s.semantic_cache;
            assert!(cache.outcomes.is_empty() && cache.verdicts.is_empty());
            assert!(cache.read_sets.is_empty());
            assert_eq!((s.stats().executions, s.stats().lossless_replays), (0, 0));
        }
    }

    #[test]
    fn after_writes_a_cached_session_answers_as_an_uncached_one_does() {
        // Readers re-asking questions between writes to both tables — the
        // shape of a read-write server session — with and without the cache.
        let questions = demo_questions();
        let writes = [
            "UPDATE wage_stats SET median_wage = median_wage * 2 WHERE sector = 'it'",
            "UPDATE employment_by_type SET employees = employees + 7 WHERE canton = 'ZH'",
            "DELETE FROM employment_by_type WHERE year < 2022",
            "INSERT INTO wage_stats VALUES ('ZH', 'it', 9000.0)",
        ];
        let mut script = Vec::new();
        for (round, write) in writes.iter().enumerate() {
            script.extend(questions.iter().skip(round * 3).take(8).cloned());
            script.push((*write).to_owned());
        }
        script.extend(questions.iter().take(12).cloned());
        let uncached = CdaConfig { semantic_cache: false, ..CdaConfig::default() };
        let lossless = |t: &crate::AnswerTurn| t.explanation.as_ref().map(|e| e.lossless.clone());
        for seed in 1..4 {
            let mut cached = Session::open_seeded(demo_world(5), CdaConfig::default(), seed);
            let mut plain = Session::open_seeded(demo_world(5), uncached, seed);
            for utterance in &script {
                let (a, b) = (cached.process(utterance), plain.process(utterance));
                assert_eq!(a.executed_sql, b.executed_sql, "seed {seed}, {utterance:?}");
                assert_eq!(a.confidence, b.confidence, "seed {seed}, {utterance:?}");
                assert_eq!(a.status, b.status, "seed {seed}, {utterance:?}");
                assert_eq!(lossless(&a), lossless(&b), "seed {seed}, {utterance:?}");
            }
            let (cached, plain) = (cached.stats(), plain.stats());
            assert!(cached.cache.hits > 0 && cached.epoch == 4, "{cached:?}");
            assert!(cached.executions < plain.executions);
        }
    }

    #[test]
    fn stats_snapshot_counts_outcomes() {
        let mut s = demo_session(1);
        let _ = s.process("Give me an overview of the working force in Switzerland");
        let _ = s.process("What is the total employees in employment_by_type per canton?");
        let st = s.stats();
        assert_eq!(st.turns, 2);
        assert_eq!(st.answered + st.clarified + st.abstained, 2);
        assert!(st.lineage_nodes > 0);
        assert!(st.conversation_nodes >= 4);
        assert_eq!(st.cache.hits, 0);
    }
}
