//! Dataset catalog with embedding-indexed discovery.
//!
//! Layer ⓑ's "Document & Data Retrieval": datasets carry a description and a
//! source URL; discovery embeds the (grounded) query and searches a vector
//! index over the dataset descriptions. With P1 enabled the search goes
//! through the guarantee-carrying progressive index; the naive path is a
//! linear scan (the E9/F2 ablation contrast).

use crate::rot::{demote_score, Freshness};
use crate::{CdaError, Result};
use cda_analyzer::cardest::Statistics;
use cda_dataframe::Table;
use cda_kg::linking::hash_embed;
use cda_timeseries::TimeSeries;
use cda_vector::progressive::{GuaranteeMode, ProgressiveIndex};
use cda_vector::{VectorIndex, VectorSet};

/// Embedding dimensionality for dataset descriptions.
pub(crate) const EMBED_DIM: usize = 128;

/// One registered dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Catalog name (also the SQL table name when tabular).
    pub name: String,
    /// One-line description used for discovery and answers.
    pub description: String,
    /// Source URL cited in provenance.
    pub source_url: String,
    /// Tabular content, if any.
    pub table: Option<Table>,
    /// Time-series content, if any (e.g. the barometer).
    pub series: Option<TimeSeries>,
    /// Topical keywords strengthening discovery.
    pub keywords: Vec<String>,
    /// Freshness metadata (data rotting, Kersten \[26\]). Defaults to static.
    pub freshness: Freshness,
}

impl Dataset {
    /// The text discovery embeds for this dataset.
    fn discovery_text(&self) -> String {
        format!("{} {} {}", self.name.replace('_', " "), self.description, self.keywords.join(" "))
    }
}

/// A discovery hit.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryHit {
    /// Dataset name.
    pub name: String,
    /// Similarity score in `[0, 1]` (1 − normalized distance).
    pub score: f64,
}

/// The dataset catalog.
#[derive(Debug, Clone, Default)]
pub struct DatasetCatalog {
    datasets: Vec<Dataset>,
    /// Embeddings of the dataset descriptions, kept in registration order.
    embeddings: Vec<Vec<f32>>,
    /// SQL-visible tables.
    sql: cda_sql::Catalog,
    /// Per-table statistics (row counts, NDV, min/max) collected once at
    /// registration time; the static gate's cost pass reads them.
    stats: Statistics,
    /// Progressive index over the embeddings (rebuilt on registration).
    index: Option<ProgressiveIndex>,
    index_data: Option<VectorSet>,
    /// The catalog clock (abstract ticks) against which staleness is scored.
    now: u64,
}

impl DatasetCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a dataset; tabular content also lands in the SQL catalog.
    pub fn register(&mut self, dataset: Dataset) -> Result<()> {
        if self.get(&dataset.name).is_ok() {
            return Err(CdaError::Substrate(format!("dataset {:?} already registered", dataset.name)));
        }
        if let Some(table) = &dataset.table {
            self.sql
                .register_with_description(&dataset.name, table.clone(), &dataset.description)
                .map_err(|e| CdaError::Substrate(e.to_string()))?;
            // One collection pass here keeps the cardinality estimator's
            // bounds sound until the table's data changes; DML commits go
            // through `replace_table`, which re-collects for the new data.
            self.stats.insert(&dataset.name, table);
        }
        self.embeddings.push(hash_embed(&dataset.discovery_text(), EMBED_DIM));
        self.datasets.push(dataset);
        self.rebuild_index();
        Ok(())
    }

    /// Replace a registered dataset's tabular data in place — the commit
    /// half of the DML gate (`crate::mutation`): the SQL catalog swaps the
    /// table under its preserved provenance tag, and the per-table
    /// statistics are re-collected so the cardinality estimator's bounds
    /// stay sound for the new data. The replacement must keep the exact
    /// schema (DML rewrites data, not shape); discovery embeddings and the
    /// vector index describe the dataset's *description*, which is
    /// unchanged, so neither is rebuilt.
    pub(crate) fn replace_table(&mut self, name: &str, table: Table) -> Result<()> {
        let ds = self
            .datasets
            .iter_mut()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| CdaError::UnknownDataset(name.to_owned()))?;
        if ds.table.is_none() {
            return Err(CdaError::Substrate(format!("dataset {name:?} holds no tabular data")));
        }
        #[expect(clippy::disallowed_methods, reason = "the mutation gate's commit step")]
        self.sql
            .replace_table(name, table.clone())
            .map_err(|e| CdaError::Substrate(e.to_string()))?;
        self.stats.insert(&ds.name, &table);
        ds.table = Some(table);
        Ok(())
    }

    fn rebuild_index(&mut self) {
        if self.datasets.len() < 2 {
            self.index = None;
            self.index_data = None;
            return;
        }
        let rows: Vec<Vec<f32>> = self.embeddings.clone();
        if let Ok(data) = VectorSet::from_rows(rows) {
            let nlist = (self.datasets.len() / 4).clamp(1, 16);
            self.index = Some(ProgressiveIndex::build(&data, nlist, 0, 3, 7));
            self.index_data = Some(data);
        }
    }

    /// Dataset lookup by name.
    pub fn get(&self, name: &str) -> Result<&Dataset> {
        self.datasets
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| CdaError::UnknownDataset(name.to_owned()))
    }

    /// All datasets, in registration order.
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// The SQL-visible catalog (for query execution).
    pub fn sql(&self) -> &cda_sql::Catalog {
        &self.sql
    }

    /// Table statistics collected at registration (for the cost pass).
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// Discover the `k` most relevant datasets for a query text. With
    /// `use_index` the search runs through the guarantee-carrying
    /// progressive index (P1); otherwise it linearly scans embeddings.
    pub fn discover(&self, query: &str, k: usize, use_index: bool) -> Vec<DiscoveryHit> {
        if self.datasets.is_empty() || k == 0 {
            return Vec::new();
        }
        let q = hash_embed(query, EMBED_DIM);
        let neighbors = match (use_index, &self.index, &self.index_data) {
            (true, Some(index), Some(data)) => {
                index.search_mode(data, &q, k, GuaranteeMode::Deterministic).0
            }
            _ => {
                // linear scan fallback; an empty catalog has nothing to rank
                match VectorSet::from_rows(self.embeddings.clone()) {
                    Ok(data) => cda_vector::exact::ExactIndex::build(&data).search(&data, &q, k),
                    Err(_) => Vec::new(),
                }
            }
        };
        let mut hits: Vec<DiscoveryHit> = neighbors
            .into_iter()
            .map(|n| {
                let ds = &self.datasets[n.id];
                // embeddings are unit vectors: squared L2 d² = 2 − 2·cos, so
                // cos = 1 − d²/2 — orthogonal (irrelevant) content scores 0
                let raw = (1.0 - f64::from(n.dist) / 2.0).clamp(0.0, 1.0);
                DiscoveryHit {
                    name: ds.name.clone(),
                    // rotten data is demoted (data rotting, Sec. 3.1)
                    score: demote_score(raw, ds.freshness.staleness(self.now), 0.5),
                }
            })
            .collect();
        hits.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        hits
    }

    /// Discovery with a relevance threshold: hits scoring below `tau` are
    /// dropped, so the result may be **empty** — the paper's P1 requirement
    /// that retrieval "return an empty set when no answer exists with a
    /// given expected relevance".
    pub fn discover_with_threshold(
        &self,
        query: &str,
        k: usize,
        use_index: bool,
        tau: f64,
    ) -> Vec<DiscoveryHit> {
        self.discover(query, k, use_index).into_iter().filter(|h| h.score >= tau).collect()
    }

    /// Advance the catalog clock (staleness is scored against it).
    pub fn set_clock(&mut self, now: u64) {
        self.now = now;
    }

    /// The current catalog clock.
    pub fn clock(&self) -> u64 {
        self.now
    }

    /// Datasets currently considered rotten (staleness above `threshold`).
    pub fn rotten(&self, threshold: f64) -> Vec<&Dataset> {
        self.datasets
            .iter()
            .filter(|d| d.freshness.is_rotten(self.now, threshold))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, Schema};

    fn tabular(name: &str, desc: &str, keywords: Vec<&str>) -> Dataset {
        Dataset {
            name: name.into(),
            description: desc.into(),
            source_url: format!("https://example.org/{name}"),
            table: Some(
                Table::from_columns(
                    Schema::new(vec![Field::new("x", DataType::Int)]),
                    vec![Column::from_ints(&[1, 2, 3])],
                )
                .unwrap(),
            ),
            series: None,
            keywords: keywords.into_iter().map(str::to_owned).collect(),
            freshness: Freshness::static_data(),
        }
    }

    fn catalog() -> DatasetCatalog {
        let mut c = DatasetCatalog::new();
        c.register(tabular(
            "employment_by_type",
            "employment type distribution for employees older than 15",
            vec!["labour", "employment", "workforce", "jobs"],
        ))
        .unwrap();
        c.register(tabular(
            "labour_barometer",
            "Swiss Labour Market Barometer monthly leading indicator survey",
            vec!["labour", "barometer", "indicator", "monthly"],
        ))
        .unwrap();
        c.register(tabular(
            "chocolate_exports",
            "chocolate export volumes by country and year",
            vec!["chocolate", "export", "trade"],
        ))
        .unwrap();
        c
    }

    #[test]
    fn registration_and_lookup() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        assert!(c.get("LABOUR_BAROMETER").is_ok());
        assert!(c.get("missing").is_err());
        assert!(c.sql().get("employment_by_type").is_ok());
    }

    #[test]
    fn registration_collects_table_statistics() {
        let c = catalog();
        let ts = c.stats().get("employment_by_type").expect("stats collected at register time");
        assert_eq!(ts.rows, 3);
        assert_eq!(ts.columns.len(), 1);
        assert_eq!(ts.columns[0].distinct_count, 3);
        assert!(c.stats().get("missing").is_none());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = catalog();
        assert!(c.register(tabular("labour_barometer", "dup", vec![])).is_err());
    }

    #[test]
    fn discovery_ranks_topically() {
        let c = catalog();
        let hits = c.discover("labour market employment overview", 3, true);
        assert_eq!(hits.len(), 3);
        // the two labour datasets must rank above chocolate
        let choco_pos = hits.iter().position(|h| h.name == "chocolate_exports").unwrap();
        assert_eq!(choco_pos, 2, "{hits:?}");
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn index_and_scan_agree() {
        let c = catalog();
        let a = c.discover("barometer indicator", 2, true);
        let b = c.discover("barometer indicator", 2, false);
        assert_eq!(
            a.iter().map(|h| &h.name).collect::<Vec<_>>(),
            b.iter().map(|h| &h.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn threshold_discovery_drops_weak_hits_and_can_answer_nothing() {
        let c = catalog();
        let q = "labour market employment overview";
        let names = |hits: Vec<DiscoveryHit>| hits.into_iter().map(|h| h.name).collect::<Vec<_>>();
        let all = c.discover(q, 3, true);
        let tau = all[1].score;
        let strong: Vec<DiscoveryHit> = all.iter().filter(|h| h.score >= tau).cloned().collect();
        assert_eq!(names(c.discover_with_threshold(q, 3, true, tau)), names(strong));
        assert_eq!(names(c.discover_with_threshold(q, 3, true, 0.0)), names(all));
        // no hit scores above 1: the answer is the empty set, not the best miss
        assert!(c.discover_with_threshold(q, 3, true, 1.01).is_empty());
    }

    #[test]
    fn empty_catalog_discovery() {
        let c = DatasetCatalog::new();
        assert!(c.discover("anything", 3, true).is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn series_only_dataset_skips_sql() {
        let mut c = DatasetCatalog::new();
        c.register(Dataset {
            name: "just_series".into(),
            description: "a pure time series".into(),
            source_url: String::new(),
            table: None,
            series: Some(TimeSeries::from_values(vec![1.0, 2.0])),
            keywords: vec![],
            freshness: Freshness::static_data(),
        })
        .unwrap();
        assert!(c.sql().get("just_series").is_err());
        assert!(c.get("just_series").unwrap().series.is_some());
    }
}
