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
use cda_guidance::graph::ConversationGraph;
use cda_guidance::profile::UserProfile;
use cda_nlmodel::lm::{SimLm, SimLmConfig};
use cda_provenance::lineage::LineageGraph;
use cda_sql::exec::QueryResult;
use cda_testkit::rng::mix64;
use std::collections::HashMap;
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

/// The narrow interface every semantic-cache backend implements — the
/// in-memory [`SemanticCache`] and the durable
/// [`DurableCache`](crate::durable::DurableCache) are interchangeable
/// behind it, and the dialogue layer talks only to this trait.
///
/// Looking an answer up and serving it are two steps, because a turn looks
/// up more than it serves: consistency UQ [`probe`](Self::probe)s every
/// candidate's fingerprint so that a held result is not executed again, and
/// only if the turn then answers from a held result does it
/// [`count_hit`](Self::count_hit). Only the answer a turn executed and
/// returned is [`put`](Self::put) — a losing candidate's result never is —
/// so `hits`, `misses` and the stored entries are per *turn*, whatever UQ
/// looked at on the way. Lookups return an owned answer (a durable backend
/// decodes it from storage, so there is no stored value to borrow).
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
    /// Returns the number dropped. The durable backend returns 0 here: its
    /// records were already reconciled storage-side when the successor
    /// world was opened.
    fn invalidate(&mut self, effects: &cda_analyzer::EffectSet) -> usize;
    /// Forget conversation-scoped state (hit/miss counters always; entries
    /// when the backend is conversation-scoped, i.e. in-memory).
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
/// E16 verifies exactly that. Only successful executions are stored (errors
/// always re-execute: canonicalization preserves *whether* an error fires,
/// not which message it carries). Counters are read through
/// [`CacheStats`] / [`SessionStats`], not fields.
#[derive(Debug, Clone, Default)]
pub struct SemanticCache {
    entries: HashMap<u64, CachedAnswer>,
    hits: usize,
    misses: usize,
}

impl SemanticCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let total = self.hits + self.misses;
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            hit_rate: if total == 0 { 0.0 } else { self.hits as f64 / total as f64 },
            write_errors: 0,
        }
    }
}

impl CacheStore for SemanticCache {
    fn probe(&self, fingerprint: u64) -> Option<CachedAnswer> {
        self.entries.get(&fingerprint).cloned()
    }

    fn count_hit(&mut self) {
        self.hits += 1;
    }

    fn put(&mut self, fingerprint: u64, answer: CachedAnswer) {
        self.misses += 1;
        self.entries.insert(fingerprint, answer);
    }

    fn invalidate(&mut self, effects: &cda_analyzer::EffectSet) -> usize {
        let before = self.entries.len();
        // Each entry's read set comes from the executed plan it stores, so
        // the intersection check is exact: a retained answer provably reads
        // no (table, column) the write touched.
        self.entries
            .retain(|_, e| !effects.invalidates(&cda_analyzer::plan_reads(&e.result.plan)));
        before - self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> CacheStats {
        SemanticCache::stats(self)
    }
}

/// The session's cache slot: one of the two [`CacheStore`] backends.
/// An enum rather than `Box<dyn CacheStore>` because [`Session`] is
/// `Clone` (the server clones sessions into its runtime) and trait objects
/// aren't.
#[derive(Debug, Clone)]
pub(crate) enum SessionCache {
    /// Conversation-scoped in-memory cache (the default).
    Mem(SemanticCache),
    /// World-scoped durable cache over the storage backend.
    Durable(crate::durable::DurableCache),
}

impl CacheStore for SessionCache {
    fn probe(&self, fingerprint: u64) -> Option<CachedAnswer> {
        match self {
            Self::Mem(c) => c.probe(fingerprint),
            Self::Durable(c) => c.probe(fingerprint),
        }
    }

    fn count_hit(&mut self) {
        match self {
            Self::Mem(c) => c.count_hit(),
            Self::Durable(c) => c.count_hit(),
        }
    }

    fn put(&mut self, fingerprint: u64, answer: CachedAnswer) {
        match self {
            Self::Mem(c) => c.put(fingerprint, answer),
            Self::Durable(c) => c.put(fingerprint, answer),
        }
    }

    fn invalidate(&mut self, effects: &cda_analyzer::EffectSet) -> usize {
        match self {
            Self::Mem(c) => c.invalidate(effects),
            Self::Durable(c) => c.invalidate(effects),
        }
    }

    fn clear(&mut self) {
        match self {
            Self::Mem(c) => CacheStore::clear(c),
            Self::Durable(c) => c.clear(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Mem(c) => SemanticCache::len(c),
            Self::Durable(c) => CacheStore::len(c),
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            Self::Mem(c) => SemanticCache::stats(c),
            Self::Durable(c) => CacheStore::stats(c),
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
    /// Answers a durable cache failed to persist (its writes fail open, so
    /// the turn still answers). Always 0 in memory; a conversation reset
    /// does not zero it.
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
    /// semantic cache already holds its result; the turn's answer is one of
    /// those executions, never an extra one.
    pub executions: usize,
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
    pub(crate) semantic_cache: SessionCache,
    /// Query executions so far (see [`SessionStats::executions`]).
    pub(crate) executions: usize,
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
            semantic_cache: SessionCache::Mem(SemanticCache::new()),
            executions: 0,
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
        session.semantic_cache =
            SessionCache::Durable(crate::durable::DurableCache::new(world, backend));
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
        }
    }

    /// Re-point the session at a successor world snapshot after a write
    /// committed elsewhere (the server's write lane, or another session
    /// over the same durable backend). `effects` is the committed write's
    /// static effect set when known: the in-memory semantic cache then
    /// drops exactly the intersecting answers; without it the cache is
    /// cleared conservatively. The durable cache only re-points — its
    /// records were reconciled storage-side when the successor was opened.
    /// Conversation state (lineage, dialogue, log, seed) is untouched: the
    /// conversation continues, over newer data. Returns the number of
    /// in-memory cached answers dropped.
    pub fn adopt_world(
        &mut self,
        world: Arc<WorldSnapshot>,
        effects: Option<&cda_analyzer::EffectSet>,
    ) -> usize {
        if Arc::ptr_eq(&self.world, &world) {
            return 0;
        }
        let dropped = match (&mut self.semantic_cache, effects) {
            (SessionCache::Mem(c), Some(e)) => c.invalidate(e),
            (SessionCache::Mem(c), None) => {
                let n = c.len();
                CacheStore::clear(c);
                n
            }
            (SessionCache::Durable(c), _) => {
                c.set_world(Arc::clone(&world));
                0
            }
        };
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
        // In-memory cached answers are conversation-scoped (the turn numbers
        // and transcript references would dangle), so the mem backend drops
        // its entries; the durable backend keeps its world-scoped entries
        // and resets only the hit/miss counters.
        self.semantic_cache.clear();
        self.executions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_session, demo_world};

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
        let SessionCache::Mem(cache) = &mut s.semantic_cache else { unreachable!() };
        let fp = *cache.entries.keys().next().expect("the answered turn stored its execution");
        let before = cache.stats();
        assert!(cache.probe(fp).is_some() && cache.probe(fp ^ 1).is_none());
        assert_eq!(cache.stats(), before);
        assert!(cache.get(fp).is_some() && cache.get(fp ^ 1).is_none());
        assert_eq!(cache.stats().hits, before.hits + 1);
        assert_eq!(cache.stats().misses, before.misses);
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
