//! The immutable world shared by concurrent sessions.
//!
//! [`WorldSnapshot`] holds everything a conversation *reads* but never
//! writes: the dataset catalog (with its statistics and vector index), the
//! domain knowledge graph, the vocabulary, the entity linker, and the
//! simulated-LM configuration. Snapshots are epoch-numbered and immutable
//! after [`build`](WorldSnapshotBuilder::build): a server that wants to
//! mutate the world builds a [`successor`](WorldSnapshot::successor)
//! snapshot and swaps the `Arc` — sessions opened against the old epoch
//! keep a consistent view until they finish, and caches can key
//! invalidation off [`epoch`](WorldSnapshot::epoch).
//!
//! The world/session split is what makes thousands of concurrent sessions
//! cheap: one `Arc<WorldSnapshot>` is shared by every
//! [`Session`](crate::session::Session) instead of each conversation
//! cloning the catalog, index, and knowledge graph.

use crate::catalog::DatasetCatalog;
use cda_analyzer::EffectSet;
use cda_kg::linking::Linker;
use cda_kg::vocab::Vocabulary;
use cda_kg::TripleStore;
use cda_nlmodel::lm::SimLmConfig;
use cda_nlmodel::nl2sql::WorkloadTable;
use cda_storage::StorageBackend;
use std::sync::Arc;

/// What changed between a snapshot and its successor — the invalidation
/// policy [`WorldSnapshotBuilder::open`] applies to durable semantic-cache
/// records when memory wins the reconciliation.
///
/// The default, [`Schema`](WorldDelta::Schema), is the conservative
/// pre-effects behaviour: every record stamped with another epoch is
/// dropped. The two refinements exist because an epoch bump alone does not
/// mean cached answers went stale:
///
/// * [`Data`](WorldDelta::Data) carries the committed write's static
///   [`EffectSet`]; only records whose read set intersects the write set
///   are dropped, and every survivor is re-stamped under the new epoch —
///   provably precise invalidation (a cached answer reads only tables and
///   columns, and untouched `(table, column)` pairs execute identically).
/// * [`Statistics`](WorldDelta::Statistics) declares that no table data
///   changed at all (a statistics-only or metadata rebuild): every record
///   survives, re-stamped.
#[derive(Debug, Clone, Default)]
pub enum WorldDelta {
    /// Catalog shape changed (registration, schema change): purge every
    /// cache record stamped with another epoch.
    #[default]
    Schema,
    /// Table data changed with these statically-derived effects: drop
    /// exactly the intersecting readers, re-stamp the rest.
    Data(EffectSet),
    /// No table data changed: keep and re-stamp every record.
    Statistics,
}

/// The shared immutable world: catalog + statistics + knowledge graph +
/// vocabulary + linker + LM configuration, frozen at an epoch.
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    /// Monotone snapshot number; successors always increment it.
    epoch: u64,
    /// Dataset catalog (ⓑ + ⓓ), including statistics and the vector index.
    pub(crate) catalog: DatasetCatalog,
    /// Domain knowledge graph (ⓓ).
    pub(crate) kg: TripleStore,
    /// Domain vocabulary (P2).
    pub(crate) vocab: Vocabulary,
    /// Entity linker (P2).
    pub(crate) linker: Linker,
    /// Configuration every session's simulated LM is derived from.
    pub(crate) lm_config: SimLmConfig,
    /// Schemas + example string values of all SQL tables, precomputed once
    /// per snapshot (the catalog is immutable) instead of per turn.
    workload: Vec<WorkloadTable>,
    /// The storage backend this world was opened against, when opened
    /// through [`WorldSnapshotBuilder::open`]. Durable sessions persist
    /// their semantic cache here, keyed by [`WorldSnapshot::epoch`].
    pub(crate) storage: Option<Arc<dyn StorageBackend>>,
    /// Stale cache records dropped while opening this snapshot (an epoch
    /// bump invalidates every record stamped with an older epoch).
    stale_dropped: usize,
}

impl WorldSnapshot {
    /// Start building a snapshot at epoch 0 over an empty world.
    pub fn builder() -> WorldSnapshotBuilder {
        WorldSnapshotBuilder::default()
    }

    /// The snapshot number this world was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dataset catalog.
    pub fn catalog(&self) -> &DatasetCatalog {
        &self.catalog
    }

    /// The domain knowledge graph.
    pub fn kg(&self) -> &TripleStore {
        &self.kg
    }

    /// The domain vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The entity linker.
    pub fn linker(&self) -> &Linker {
        &self.linker
    }

    /// The LM configuration sessions derive their seeded model from.
    pub fn lm_config(&self) -> SimLmConfig {
        self.lm_config.clone()
    }

    /// Schemas + example string values of all SQL tables, for the NL2SQL
    /// parser and the admission governor. Precomputed at build time.
    pub fn workload_tables(&self) -> &[WorkloadTable] {
        &self.workload
    }

    /// The storage backend this world was opened against, if any.
    pub fn storage(&self) -> Option<&Arc<dyn StorageBackend>> {
        self.storage.as_ref()
    }

    /// Stale semantic-cache records dropped while opening this snapshot
    /// (0 when the world has no storage or nothing was invalidated).
    pub fn stale_cache_dropped(&self) -> usize {
        self.stale_dropped
    }

    /// Begin a successor snapshot: same world, epoch + 1. Mutations go
    /// through the builder; the original snapshot is untouched, so sessions
    /// holding it keep a consistent view (swap-on-mutation).
    /// The builder's delta defaults to [`WorldDelta::Schema`] (purge-on-
    /// mismatch); callers that know what changed narrow it with
    /// [`WorldSnapshotBuilder::delta`] so unrelated cached answers survive
    /// the epoch bump.
    pub fn successor(&self) -> WorldSnapshotBuilder {
        WorldSnapshotBuilder {
            epoch: self.epoch + 1,
            catalog: self.catalog.clone(),
            kg: self.kg.clone(),
            vocab: self.vocab.clone(),
            linker: self.linker.clone(),
            lm_config: self.lm_config.clone(),
            storage: self.storage.clone(),
            delta: WorldDelta::Schema,
        }
    }

    /// Wrap the snapshot for sharing across sessions.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }
}

/// Builder for [`WorldSnapshot`].
#[derive(Debug, Clone)]
pub struct WorldSnapshotBuilder {
    epoch: u64,
    catalog: DatasetCatalog,
    kg: TripleStore,
    vocab: Vocabulary,
    linker: Linker,
    lm_config: SimLmConfig,
    storage: Option<Arc<dyn StorageBackend>>,
    delta: WorldDelta,
}

impl Default for WorldSnapshotBuilder {
    fn default() -> Self {
        Self {
            epoch: 0,
            catalog: DatasetCatalog::new(),
            kg: TripleStore::new(),
            vocab: Vocabulary::new(),
            linker: Linker::new(Vec::new(), 128),
            lm_config: SimLmConfig::default(),
            storage: None,
            delta: WorldDelta::Schema,
        }
    }
}

impl WorldSnapshotBuilder {
    /// Set the dataset catalog.
    pub fn catalog(mut self, catalog: DatasetCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Set the domain knowledge graph.
    pub fn kg(mut self, kg: TripleStore) -> Self {
        self.kg = kg;
        self
    }

    /// Set the domain vocabulary.
    pub fn vocab(mut self, vocab: Vocabulary) -> Self {
        self.vocab = vocab;
        self
    }

    /// Set the entity linker.
    pub fn linker(mut self, linker: Linker) -> Self {
        self.linker = linker;
        self
    }

    /// Set the simulated-LM configuration.
    pub fn lm(mut self, lm_config: SimLmConfig) -> Self {
        self.lm_config = lm_config;
        self
    }

    /// Declare what changed relative to the predecessor snapshot. The
    /// delta drives [`open`](Self::open)'s durable-cache invalidation:
    /// [`WorldDelta::Schema`] (the default) purges by epoch,
    /// [`WorldDelta::Data`] drops exactly the cached answers the write's
    /// effect set intersects, and [`WorldDelta::Statistics`] keeps
    /// everything. [`build`](Self::build) ignores it (no storage I/O).
    pub fn delta(mut self, delta: WorldDelta) -> Self {
        self.delta = delta;
        self
    }

    /// Override the epoch (successor builders pre-set it; explicit epochs
    /// must keep growing or [`build`](Self::build) is still fine — the
    /// server rejects non-monotone installs, not the builder).
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Attach a storage backend. The backend does nothing until the
    /// builder is finished with [`open`](Self::open) (which reconciles it
    /// with disk) — [`build`](Self::build) carries the handle but performs
    /// no I/O, and [`Session::open_durable`](crate::session::Session::open_durable)
    /// rejects a world whose backend was never reconciled.
    pub fn with_storage(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.storage = Some(backend);
        self
    }

    /// Freeze the snapshot, precomputing the per-snapshot workload tables.
    /// Performs no storage I/O even when a backend is attached — use
    /// [`open`](Self::open) to reconcile with disk.
    pub fn build(self) -> WorldSnapshot {
        let workload = compute_workload_tables(&self.catalog);
        WorldSnapshot {
            epoch: self.epoch,
            catalog: self.catalog,
            kg: self.kg,
            vocab: self.vocab,
            lm_config: self.lm_config,
            linker: self.linker,
            workload,
            storage: self.storage,
            stale_dropped: 0,
        }
    }

    /// [`build`](Self::build) and wrap in an `Arc` for sharing.
    pub fn build_shared(self) -> Arc<WorldSnapshot> {
        Arc::new(self.build())
    }

    /// Freeze the snapshot *and reconcile it with the attached storage
    /// backend* — the durable counterpart of [`build`](Self::build):
    ///
    /// * **No backend attached**: identical to `build()`.
    /// * **Backend already committed at this epoch or later** (a process
    ///   restart over an unchanged world): disk wins — the catalog and KG
    ///   are loaded from storage and the snapshot adopts the committed
    ///   epoch, so previously persisted cache records stay valid.
    /// * **Backend empty, or the builder's epoch is newer** (first open, or
    ///   a [`successor`](WorldSnapshot::successor) rebuild): memory wins —
    ///   the builder's catalog and KG are persisted and committed under the
    ///   builder's epoch, and cache records are reconciled per the declared
    ///   [`delta`](Self::delta): dropped on another epoch stamp for
    ///   [`WorldDelta::Schema`], dropped precisely (intersecting readers
    ///   only, survivors re-stamped) for [`WorldDelta::Data`], all kept and
    ///   re-stamped for [`WorldDelta::Statistics`]. The drop count is
    ///   reported by [`WorldSnapshot::stale_cache_dropped`].
    ///
    /// Either way the returned snapshot and the backend agree on the epoch,
    /// which is what [`Session::open_durable`](crate::session::Session::open_durable)
    /// requires. Vocabulary, linker, and LM configuration are code-defined,
    /// not data, and always come from the builder.
    pub fn open(self) -> crate::Result<WorldSnapshot> {
        let Some(backend) = self.storage.clone() else {
            return Ok(self.build());
        };
        let committed = backend
            .committed_epoch()
            .map_err(|e| crate::CdaError::Substrate(format!("storage: {e}")))?;
        match committed {
            Some(disk_epoch) if self.epoch <= disk_epoch => {
                let (catalog, kg, epoch) = crate::durable::load_world(backend.as_ref())?;
                let mut world =
                    Self { catalog, kg, epoch, ..self }.build();
                world.stale_dropped = 0;
                Ok(world)
            }
            _ => {
                let dropped = crate::durable::sync_world_delta(
                    backend.as_ref(),
                    self.epoch,
                    &self.catalog,
                    &self.kg,
                    &self.delta,
                )?;
                let mut world = self.build();
                world.stale_dropped = dropped;
                Ok(world)
            }
        }
    }

    /// [`open`](Self::open) and wrap in an `Arc` for sharing.
    pub fn open_shared(self) -> crate::Result<Arc<WorldSnapshot>> {
        Ok(Arc::new(self.open()?))
    }
}

/// Schemas + example string values of all SQL tables, for the parser.
fn compute_workload_tables(catalog: &DatasetCatalog) -> Vec<WorkloadTable> {
    catalog
        .sql()
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let entry = catalog.sql().get(&name).ok()?;
            let schema = entry.table.schema().clone();
            let mut string_values = Vec::new();
            for (i, f) in schema.fields().iter().enumerate() {
                if f.data_type() == cda_dataframe::DataType::Str {
                    let mut vals: Vec<String> = Vec::new();
                    if let Ok(col) = entry.table.column(i) {
                        for v in col.iter().take(100) {
                            if let cda_dataframe::Value::Str(s) = v {
                                if !vals.contains(&s) {
                                    vals.push(s);
                                }
                            }
                            if vals.len() >= 20 {
                                break;
                            }
                        }
                    }
                    string_values.push((f.name().to_owned(), vals));
                }
            }
            Some(WorkloadTable { name, schema, string_values })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_catalog, demo_kg, demo_linker, demo_vocabulary};

    fn demo_snapshot() -> WorldSnapshot {
        WorldSnapshot::builder()
            .catalog(demo_catalog(1))
            .kg(demo_kg())
            .vocab(demo_vocabulary())
            .linker(demo_linker())
            .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: 1 })
            .build()
    }

    #[test]
    fn builder_assembles_world_at_epoch_zero() {
        let w = demo_snapshot();
        assert_eq!(w.epoch(), 0);
        assert_eq!(w.catalog().len(), 4);
        assert!(!w.kg().is_empty());
        assert!(!w.vocab().is_empty());
        assert_eq!(w.lm_config().seed, 1);
    }

    #[test]
    fn workload_tables_are_precomputed() {
        let w = demo_snapshot();
        let tables = w.workload_tables();
        let emp = tables.iter().find(|t| t.name == "employment_by_type").unwrap();
        let (_, cantons) = emp.string_values.iter().find(|(c, _)| c == "canton").unwrap();
        assert!(!cantons.is_empty());
    }

    #[test]
    fn successor_bumps_epoch_and_leaves_original_untouched() {
        let w = demo_snapshot();
        let next = w.successor().build();
        assert_eq!(next.epoch(), w.epoch() + 1);
        assert_eq!(next.catalog().len(), w.catalog().len());
        // the original is immutable; the successor is an independent copy
        assert_eq!(w.epoch(), 0);
    }

    #[test]
    fn default_builder_is_an_empty_world() {
        let w = WorldSnapshot::builder().build();
        assert_eq!(w.epoch(), 0);
        assert_eq!(w.catalog().len(), 0);
        assert!(w.workload_tables().is_empty());
    }
}
