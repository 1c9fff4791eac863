//! Durable world state: the codecs and the storage-side reconciliation.
//!
//! `cda-storage` stores bytes under byte keys; this module is where the
//! domain types become those bytes. Three stores are persisted, each keyed
//! by the [`WorldSnapshot`](crate::world::WorldSnapshot) epoch stamped at
//! commit:
//!
//! * **Datasets** — every registered [`Dataset`] (schema, typed columns,
//!   per-row lineage, time series, freshness), keyed by registration index.
//!   Loading replays [`DatasetCatalog::register`] in registration order,
//!   which deterministically reproduces the SQL catalog (table tags are
//!   assigned 1..n in registration order), the statistics, the embeddings,
//!   and the progressive index — so a reopened world plans and executes
//!   byte-identically to the world that was persisted.
//! * **KG triples** — the dictionary's strings in id order plus the
//!   id-encoded triples. Re-interning in order reproduces the id
//!   assignment, so the rebuilt store is exactly the original, indexes
//!   included.
//! * **Semantic cache** — `(fingerprint → epoch, turn, SQL, result)`
//!   records, read and written by a world-scoped
//!   [`SemanticCache`](crate::session::SemanticCache). The result *table*
//!   and `ExecStats` are serialized; the plan is **not** — it is re-derived
//!   from the stored SQL against the (epoch-matched, hence identical)
//!   catalog via [`cda_sql::compile()`], because planning is deterministic
//!   and plan trees are deep recursive structures with no stability
//!   guarantee across refactors.
//!
//! Epoch invalidation: every cache record carries the epoch it was
//! executed under. A `successor()` rebuild commits the world under
//! `epoch + 1`; what happens to the records is decided by the builder's
//! [`WorldDelta`](crate::world::WorldDelta): a `Schema` delta drops every
//! record whose stamp differs (`purge_stale_cache`), and a `Data` delta
//! drops exactly the records whose re-derived read set intersects the
//! committed write's effect set and re-stamps the survivors.
//! The world-scoped cache re-checks the stamp on every probe as defense in
//! depth — a stale entry is *never served*.

use crate::catalog::{Dataset, DatasetCatalog};
use crate::rot::{Freshness, UpdateCadence};
use crate::session::CachedAnswer;
use crate::{CdaError, Result};
use cda_dataframe::{ColumnBuilder, DataType, Field, LineageBuilder, Schema, Table, Value};
use cda_sql::exec::{ExecStats, QueryResult};
use cda_storage::{ByteReader, ByteWriter, StorageBackend, StoreId};
use cda_timeseries::TimeSeries;

/// On-disk format version; bumped when any codec changes incompatibly.
pub(crate) const FORMAT_VERSION: u32 = 1;

fn serr(e: cda_storage::StorageError) -> CdaError {
    CdaError::Substrate(format!("storage: {e}"))
}

fn cerr(what: &str) -> CdaError {
    CdaError::Substrate(format!("durable decode: {what}"))
}

// ---------------------------------------------------------------- tables --

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Timestamp,
        other => return Err(cerr(&format!("unknown data type tag {other}"))),
    })
}

/// Serialize a table: schema (name/type/nullability/description per field),
/// typed column values (null-tagged), and per-row provenance lineage.
#[expect(clippy::unreachable, reason = "the inner match runs on non-null values only")]
pub(crate) fn encode_table(w: &mut ByteWriter, table: &Table) {
    let schema = table.schema();
    w.u32(schema.fields().len() as u32);
    for f in schema.fields() {
        w.str(f.name());
        w.u8(dtype_tag(f.data_type()));
        w.bool(f.is_nullable());
        w.opt_str(f.description());
    }
    w.u64(table.num_rows() as u64);
    for col in table.columns() {
        for i in 0..col.len() {
            match col.value(i).unwrap_or(Value::Null) {
                Value::Null => w.bool(false),
                v => {
                    w.bool(true);
                    match v {
                        Value::Int(x) | Value::Timestamp(x) => w.i64(x),
                        Value::Float(x) => w.f64(x),
                        Value::Str(x) => w.str(&x),
                        Value::Bool(x) => w.bool(x),
                        Value::Null => unreachable!("matched above"),
                    }
                }
            }
        }
    }
    let lineages = table.lineages();
    w.u64(lineages.len() as u64);
    for lin in lineages.iter() {
        w.u32(lin.len() as u32);
        for rid in lin {
            w.u32(rid.table);
            w.u64(rid.row);
        }
    }
}

/// Inverse of [`encode_table`]; the round trip is value-exact (canonical
/// placeholders are re-established under null slots).
///
/// Counts come off disk unchecked, and every element they count takes at
/// least one byte, so no reservation here exceeds the bytes left to decode:
/// a forged count fails on the first missing element instead of allocating.
pub(crate) fn decode_table(r: &mut ByteReader<'_>) -> Result<Table> {
    let nfields = r.u32().map_err(serr)? as usize;
    let mut fields = Vec::with_capacity(nfields.min(r.remaining()));
    for _ in 0..nfields {
        let name = r.str().map_err(serr)?;
        let dt = dtype_from_tag(r.u8().map_err(serr)?)?;
        let nullable = r.bool().map_err(serr)?;
        let desc = r.opt_str().map_err(serr)?;
        let mut f = Field::new(name, dt);
        if !nullable {
            f = f.non_nullable();
        }
        if let Some(d) = desc {
            f = f.with_description(d);
        }
        fields.push(f);
    }
    let rows = r.u64().map_err(serr)? as usize;
    let mut columns = Vec::with_capacity(fields.len());
    for f in &fields {
        let mut col = ColumnBuilder::with_capacity(f.data_type(), rows.min(r.remaining()));
        for _ in 0..rows {
            let valid = r.bool().map_err(serr)?;
            let v = if !valid {
                Value::Null
            } else {
                match f.data_type() {
                    DataType::Int => Value::Int(r.i64().map_err(serr)?),
                    DataType::Timestamp => Value::Timestamp(r.i64().map_err(serr)?),
                    DataType::Float => Value::Float(r.f64().map_err(serr)?),
                    DataType::Str => Value::Str(r.str().map_err(serr)?),
                    DataType::Bool => Value::Bool(r.bool().map_err(serr)?),
                }
            };
            col.push(v).map_err(|e| cerr(&format!("column rebuild: {e}")))?;
        }
        columns.push(col.finish());
    }
    let nlin = r.u64().map_err(serr)? as usize;
    let mut lineage = LineageBuilder::with_capacity(nlin.min(r.remaining()));
    for _ in 0..nlin {
        let n = r.u32().map_err(serr)? as usize;
        for _ in 0..n {
            let table = r.u32().map_err(serr)?;
            let row = r.u64().map_err(serr)?;
            lineage.extend_row(&[cda_dataframe::RowId::new(table, row)]);
        }
        lineage.finish_row();
    }
    Table::with_lineage(Schema::new(fields), columns, lineage.build())
        .map_err(|e| cerr(&format!("table rebuild: {e}")))
}

// -------------------------------------------------------------- datasets --

fn encode_dataset(ds: &Dataset) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(&ds.name);
    w.str(&ds.description);
    w.str(&ds.source_url);
    w.u32(ds.keywords.len() as u32);
    for k in &ds.keywords {
        w.str(k);
    }
    w.u64(ds.freshness.last_updated);
    match ds.freshness.cadence {
        UpdateCadence::Static => {
            w.u8(0);
            w.u64(0);
        }
        UpdateCadence::Every(t) => {
            w.u8(1);
            w.u64(t);
        }
    }
    match &ds.table {
        Some(t) => {
            w.bool(true);
            encode_table(&mut w, t);
        }
        None => w.bool(false),
    }
    match &ds.series {
        Some(s) => {
            w.bool(true);
            w.u64(s.len() as u64);
            for &t in s.timestamps() {
                w.i64(t);
            }
            for &v in s.values() {
                w.f64(v);
            }
        }
        None => w.bool(false),
    }
    w.finish()
}

/// Inverse of `encode_dataset`; counts are capped like [`decode_table`]'s.
fn decode_dataset(bytes: &[u8]) -> Result<Dataset> {
    let mut r = ByteReader::new(bytes);
    let name = r.str().map_err(serr)?;
    let description = r.str().map_err(serr)?;
    let source_url = r.str().map_err(serr)?;
    let nkw = r.u32().map_err(serr)? as usize;
    let mut keywords = Vec::with_capacity(nkw.min(r.remaining()));
    for _ in 0..nkw {
        keywords.push(r.str().map_err(serr)?);
    }
    let last_updated = r.u64().map_err(serr)?;
    let cadence = match (r.u8().map_err(serr)?, r.u64().map_err(serr)?) {
        (0, _) => UpdateCadence::Static,
        (1, t) => UpdateCadence::Every(t),
        (tag, _) => return Err(cerr(&format!("unknown cadence tag {tag}"))),
    };
    let table = if r.bool().map_err(serr)? { Some(decode_table(&mut r)?) } else { None };
    let series = if r.bool().map_err(serr)? {
        let n = r.u64().map_err(serr)? as usize;
        let mut ts = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            ts.push(r.i64().map_err(serr)?);
        }
        let mut vals = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            vals.push(r.f64().map_err(serr)?);
        }
        Some(
            TimeSeries::new(ts, vals).map_err(|e| cerr(&format!("series rebuild: {e}")))?,
        )
    } else {
        None
    };
    r.expect_end().map_err(serr)?;
    Ok(Dataset {
        name,
        description,
        source_url,
        table,
        series,
        keywords,
        freshness: Freshness { last_updated, cadence },
    })
}

// -------------------------------------------------------------------- kg --

fn encode_kg(kg: &cda_kg::TripleStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(kg.dict().len() as u32);
    for s in kg.dict().strings() {
        w.str(s);
    }
    w.u64(kg.len() as u64);
    for (s, p, o) in kg.triples() {
        w.u32(s);
        w.u32(p);
        w.u32(o);
    }
    w.finish()
}

fn decode_kg(bytes: &[u8]) -> Result<cda_kg::TripleStore> {
    let mut r = ByteReader::new(bytes);
    let mut kg = cda_kg::TripleStore::new();
    let nstrings = r.u32().map_err(serr)?;
    for expect in 0..nstrings {
        let s = r.str().map_err(serr)?;
        let id = kg.dict_mut().intern(&s);
        if id != expect {
            return Err(cerr("dictionary ids not in intern order"));
        }
    }
    let ntriples = r.u64().map_err(serr)?;
    for _ in 0..ntriples {
        let s = r.u32().map_err(serr)?;
        let p = r.u32().map_err(serr)?;
        let o = r.u32().map_err(serr)?;
        kg.insert_ids((s, p, o));
    }
    r.expect_end().map_err(serr)?;
    Ok(kg)
}

// ----------------------------------------------------------- cache records --

const META_CLOCK_KEY: &[u8] = b"clock";
const META_FORMAT_KEY: &[u8] = b"format";
const KG_KEY: &[u8] = b"kg";

/// Encode a cache record: epoch stamp, then the answer (turn, SQL, stats,
/// result table). The plan is intentionally absent — see the module docs.
pub(crate) fn encode_cached(epoch: u64, answer: &CachedAnswer) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(epoch);
    w.u64(answer.turn as u64);
    w.str(&answer.sql);
    w.u64(answer.result.stats.rows_scanned as u64);
    w.u64(answer.result.stats.rows_materialized as u64);
    w.u64(answer.result.stats.join_pairs as u64);
    encode_table(&mut w, &answer.result.table);
    w.finish()
}

/// The epoch stamp of an encoded cache record (cheap prefix read).
fn cached_epoch(bytes: &[u8]) -> Result<u64> {
    ByteReader::new(bytes).u64().map_err(serr)
}

/// The epoch stamp and stored SQL of an encoded cache record — a prefix
/// read that skips the result table, for effect-set intersection checks.
fn cached_sql(bytes: &[u8]) -> Result<(u64, String)> {
    let mut r = ByteReader::new(bytes);
    let epoch = r.u64().map_err(serr)?;
    let _turn = r.u64().map_err(serr)?;
    let sql = r.str().map_err(serr)?;
    Ok((epoch, sql))
}

/// The plan a stored query executed: compiling is deterministic, so the
/// stored SQL recompiled against the epoch-matched catalog is that plan.
fn replan(catalog: &cda_sql::Catalog, sql: &str) -> cda_sql::Result<cda_sql::plan::Plan> {
    match cda_sql::compile(catalog, sql)?.plan {
        cda_sql::StatementPlan::Query { optimized, .. } => Ok(optimized),
        cda_sql::StatementPlan::Write(_) => {
            Err(cda_sql::SqlError::Semantic("a cached statement must be a query".into()))
        }
    }
}

/// Decode a cache record, re-deriving the plan from the stored SQL against
/// `catalog` (which must be the epoch-matched catalog the record was
/// executed under).
pub(crate) fn decode_cached(
    bytes: &[u8],
    catalog: &cda_sql::Catalog,
) -> Result<(u64, CachedAnswer)> {
    let mut r = ByteReader::new(bytes);
    let epoch = r.u64().map_err(serr)?;
    let turn = r.u64().map_err(serr)? as usize;
    let sql = r.str().map_err(serr)?;
    let stats = ExecStats {
        rows_scanned: r.u64().map_err(serr)? as usize,
        rows_materialized: r.u64().map_err(serr)? as usize,
        join_pairs: r.u64().map_err(serr)? as usize,
    };
    let table = decode_table(&mut r)?;
    r.expect_end().map_err(serr)?;
    let plan =
        replan(catalog, &sql).map_err(|e| cerr(&format!("plan rebuild for cached SQL: {e}")))?;
    Ok((epoch, CachedAnswer { turn, sql, result: QueryResult { table, plan, stats } }))
}

// ------------------------------------------------------------ world sync --

/// Persist the builder's catalog and KG under `epoch`, reconcile the
/// semantic-cache records per `delta`
/// ([`WorldDelta`](crate::world::WorldDelta) selects the invalidation
/// policy), and commit — one atomic transition. Returns the number of
/// cache records dropped.
pub(crate) fn sync_world_delta(
    backend: &dyn StorageBackend,
    epoch: u64,
    catalog: &DatasetCatalog,
    kg: &cda_kg::TripleStore,
    delta: &crate::world::WorldDelta,
) -> Result<usize> {
    backend.clear(StoreId::Datasets).map_err(serr)?;
    for (i, ds) in catalog.datasets().iter().enumerate() {
        backend
            .put(StoreId::Datasets, &(i as u32).to_be_bytes(), &encode_dataset(ds))
            .map_err(serr)?;
    }
    backend.put(StoreId::KgTriples, KG_KEY, &encode_kg(kg)).map_err(serr)?;
    let mut w = ByteWriter::new();
    w.u64(catalog.clock());
    backend.put(StoreId::Meta, META_CLOCK_KEY, &w.finish()).map_err(serr)?;
    let mut w = ByteWriter::new();
    w.u32(FORMAT_VERSION);
    backend.put(StoreId::Meta, META_FORMAT_KEY, &w.finish()).map_err(serr)?;
    let dropped = match delta {
        crate::world::WorldDelta::Schema => purge_stale_cache(backend, epoch)?,
        crate::world::WorldDelta::Data(effects) => {
            restamp_cache(backend, epoch, effects, catalog.sql())?
        }
    };
    backend.commit(epoch).map_err(serr)?;
    Ok(dropped)
}

/// Load the committed catalog and KG. Returns `(catalog, kg, epoch)`.
pub(crate) fn load_world(
    backend: &dyn StorageBackend,
) -> Result<(DatasetCatalog, cda_kg::TripleStore, u64)> {
    let epoch = backend
        .committed_epoch()
        .map_err(serr)?
        .ok_or_else(|| cerr("backend holds no committed world"))?;
    if let Some(bytes) = backend.get(StoreId::Meta, META_FORMAT_KEY).map_err(serr)? {
        let v = ByteReader::new(&bytes).u32().map_err(serr)?;
        if v != FORMAT_VERSION {
            return Err(cerr(&format!("on-disk format v{v}, this build reads v{FORMAT_VERSION}")));
        }
    }
    let mut catalog = DatasetCatalog::new();
    for (_key, value) in backend.scan(StoreId::Datasets).map_err(serr)? {
        catalog.register(decode_dataset(&value)?)?;
    }
    if let Some(bytes) = backend.get(StoreId::Meta, META_CLOCK_KEY).map_err(serr)? {
        catalog.set_clock(ByteReader::new(&bytes).u64().map_err(serr)?);
    }
    let kg = match backend.get(StoreId::KgTriples, KG_KEY).map_err(serr)? {
        Some(bytes) => decode_kg(&bytes)?,
        None => cda_kg::TripleStore::new(),
    };
    Ok((catalog, kg, epoch))
}

/// Precise cache reconciliation for an epoch bump whose delta proves the
/// catalog *shape* is unchanged. A record is dropped exactly when the read
/// set of its stored SQL — re-derived by replanning against the successor
/// `catalog`, sound because the schema is identical — intersects the
/// committed write set of `effects` (an empty write set drops nothing).
/// Every surviving record stamped with an older epoch is rewritten under
/// `epoch` (the stamp is the first 8 bytes, so the rewrite is a prefix
/// splice). Undecodable or unplannable records are dropped conservatively.
/// Does not commit. Returns the drop count.
fn restamp_cache(
    backend: &dyn StorageBackend,
    epoch: u64,
    effects: &cda_analyzer::EffectSet,
    catalog: &cda_sql::Catalog,
) -> Result<usize> {
    let mut stale: Vec<Vec<u8>> = Vec::new();
    let mut restamp: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (key, value) in backend.scan(StoreId::SemanticCache).map_err(serr)? {
        let Ok((stamp, sql)) = cached_sql(&value) else {
            stale.push(key);
            continue;
        };
        let reads = replan(catalog, &sql).map(|plan| cda_analyzer::plan_reads(&plan));
        match reads {
            Ok(reads) if !effects.invalidates(&reads) => {}
            _ => {
                stale.push(key);
                continue;
            }
        }
        if stamp != epoch {
            let mut value = value;
            value[..8].copy_from_slice(&epoch.to_le_bytes());
            restamp.push((key, value));
        }
    }
    let dropped = stale.len();
    for key in stale {
        backend.remove(StoreId::SemanticCache, &key).map_err(serr)?;
    }
    for (key, value) in restamp {
        backend.put(StoreId::SemanticCache, &key, &value).map_err(serr)?;
    }
    Ok(dropped)
}

/// Drop every cache record whose epoch stamp differs from `epoch`.
/// Undecodable records are dropped too (a torn value would have failed its
/// page checksum earlier, but belt and braces). Does not commit.
pub(crate) fn purge_stale_cache(backend: &dyn StorageBackend, epoch: u64) -> Result<usize> {
    let mut stale = Vec::new();
    for (key, value) in backend.scan(StoreId::SemanticCache).map_err(serr)? {
        match cached_epoch(&value) {
            Ok(e) if e == epoch => {}
            _ => stale.push(key),
        }
    }
    let dropped = stale.len();
    for key in stale {
        backend.remove(StoreId::SemanticCache, &key).map_err(serr)?;
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::Column;
    use crate::demo::{demo_catalog, demo_kg};
    use cda_storage::MemBackend;

    #[test]
    fn table_codec_round_trips_values_schema_and_lineage() {
        let catalog = demo_catalog(7);
        for ds in catalog.datasets() {
            if let Some(t) = &ds.table {
                let mut w = ByteWriter::new();
                encode_table(&mut w, t);
                let buf = w.finish();
                let mut r = ByteReader::new(&buf);
                let back = decode_table(&mut r).unwrap();
                assert_eq!(&back, t, "table {} must round-trip exactly", ds.name);
                assert_eq!(back.lineages(), t.lineages());
            }
        }
    }

    /// The tables whose encodings are pinned: every demo table, a table with
    /// a NULL in every type, a grouped aggregate (several ids per row) and a
    /// join (one id from each side per row).
    fn pinned_tables() -> Vec<(String, Table)> {
        let catalog = demo_catalog(7);
        let mut out: Vec<(String, Table)> = catalog
            .datasets()
            .iter()
            .filter_map(|ds| ds.table.clone().map(|t| (ds.name.clone(), t)))
            .collect();
        let nulls = Table::from_columns(
            Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
                Field::new("b", DataType::Bool),
                Field::new("t", DataType::Timestamp),
            ]),
            vec![
                Column::from_values(DataType::Int, &[Value::Int(-3), Value::Null]).unwrap(),
                Column::from_values(DataType::Float, &[Value::Null, Value::Float(2.5)]).unwrap(),
                Column::from_values(DataType::Str, &[Value::from("x"), Value::Null]).unwrap(),
                Column::from_values(DataType::Bool, &[Value::Null, Value::Bool(true)]).unwrap(),
                Column::from_values(DataType::Timestamp, &[Value::Timestamp(9), Value::Null])
                    .unwrap(),
            ],
        )
        .unwrap()
        .with_table_tag(5);
        out.push(("nulls".into(), nulls));
        for (name, sql) in [
            (
                "aggregate",
                "SELECT canton, SUM(employees) AS total, COUNT(*) AS n \
                 FROM employment_by_type GROUP BY canton ORDER BY canton",
            ),
            (
                "join",
                "SELECT e.canton, e.employees, w.median_wage FROM employment_by_type e \
                 JOIN wage_stats w ON e.canton = w.canton ORDER BY e.canton, e.employees",
            ),
        ] {
            out.push((name.into(), cda_sql::execute(catalog.sql(), sql).unwrap().table));
        }
        out
    }

    /// `encode_table` bytes are a persisted format: their FNV-1a is pinned
    /// per table, and every pinned table decodes back to an equal table.
    #[test]
    fn table_codec_bytes_are_pinned() {
        const PINS: &[(&str, u64)] = &[
            ("employment_by_type", 7638813946131748976),
            ("labour_barometer", 12292228992566757352),
            ("wage_stats", 4228452195176223603),
            ("nulls", 6146218635204571997),
            ("aggregate", 15987991151191211219),
            ("join", 254496862888215301),
        ];
        let mut got = Vec::new();
        for (name, t) in pinned_tables() {
            assert!(t.num_rows() > 0, "table {name} is empty");
            if name == "aggregate" || name == "join" {
                assert!(t.lineages().iter().all(|l| l.len() > 1), "{name}: multi-id rows");
            }
            let mut w = ByteWriter::new();
            encode_table(&mut w, &t);
            let buf = w.finish();
            let back = decode_table(&mut ByteReader::new(&buf)).unwrap();
            assert_eq!(back, t, "table {name} must round-trip");
            got.push((name, cda_storage::fnv1a(&buf)));
        }
        let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
        assert_eq!(got, PINS, "encode_table output drifted");
    }

    #[test]
    fn forged_counts_are_errors_not_allocations() {
        // Each blob declares far more elements than the bytes that follow.
        const HUGE: u64 = 1 << 62;
        let table = |w: ByteWriter| decode_table(&mut ByteReader::new(&w.finish())).is_err();
        let field_header = |w: &mut ByteWriter| {
            w.u32(1);
            w.str("x");
            w.u8(dtype_tag(DataType::Int));
            w.bool(true);
            w.opt_str(None);
        };
        let dataset_header = |w: &mut ByteWriter| {
            for s in ["ds", "", ""] {
                w.str(s);
            }
        };

        let mut fields = ByteWriter::new();
        fields.u32(u32::MAX);
        assert!(table(fields), "field count");

        let mut rows = ByteWriter::new();
        field_header(&mut rows);
        rows.u64(HUGE);
        assert!(table(rows), "row count");

        let mut lineage = ByteWriter::new();
        lineage.u32(0);
        lineage.u64(0);
        lineage.u64(HUGE);
        assert!(table(lineage), "lineage row count");

        let mut keywords = ByteWriter::new();
        dataset_header(&mut keywords);
        keywords.u32(u32::MAX);
        assert!(decode_dataset(&keywords.finish()).is_err(), "keyword count");

        let mut series = ByteWriter::new();
        dataset_header(&mut series);
        series.u32(0); // keywords
        series.u64(0); // last updated
        series.u8(0); // static cadence
        series.u64(0);
        series.bool(false); // no table
        series.bool(true);
        series.u64(HUGE);
        assert!(decode_dataset(&series.finish()).is_err(), "series length");
    }

    #[test]
    fn dataset_codec_round_trips_every_demo_dataset() {
        let catalog = demo_catalog(7);
        for ds in catalog.datasets() {
            let back = decode_dataset(&encode_dataset(ds)).unwrap();
            assert_eq!(back.name, ds.name);
            assert_eq!(back.description, ds.description);
            assert_eq!(back.source_url, ds.source_url);
            assert_eq!(back.keywords, ds.keywords);
            assert_eq!(back.freshness, ds.freshness);
            assert_eq!(back.table, ds.table);
            match (&back.series, &ds.series) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.timestamps(), b.timestamps());
                    assert_eq!(a.values(), b.values());
                }
                (None, None) => {}
                other => unreachable!("series presence diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn kg_codec_round_trips_dictionary_ids_exactly() {
        let kg = demo_kg();
        let back = decode_kg(&encode_kg(&kg)).unwrap();
        assert_eq!(back.len(), kg.len());
        assert_eq!(back.dict().len(), kg.dict().len());
        assert_eq!(
            back.triples().collect::<Vec<_>>(),
            kg.triples().collect::<Vec<_>>()
        );
        for (i, s) in kg.dict().strings().enumerate() {
            assert_eq!(back.dict().resolve(i as u32), Some(s));
        }
    }

    #[test]
    fn world_sync_and_load_round_trip() {
        let backend = MemBackend::new();
        let catalog = demo_catalog(7);
        let kg = demo_kg();
        let dropped =
            sync_world_delta(&backend, 3, &catalog, &kg, &crate::world::WorldDelta::Schema)
                .unwrap();
        assert_eq!(dropped, 0);
        let (cat2, kg2, epoch) = load_world(&backend).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(cat2.len(), catalog.len());
        assert_eq!(kg2.len(), kg.len());
        // Registration replay reproduces the SQL catalog table set.
        assert_eq!(cat2.sql().table_names(), catalog.sql().table_names());
        assert_eq!(cat2.clock(), catalog.clock());
    }

    #[test]
    fn purge_drops_only_mismatched_epochs() {
        let backend = MemBackend::new();
        let catalog = demo_catalog(7);
        let sql = "SELECT type, employees FROM employment_by_type";
        let result = cda_sql::execute(catalog.sql(), sql).unwrap();
        let answer = CachedAnswer { turn: 0, sql: sql.into(), result };
        backend
            .put(StoreId::SemanticCache, &1u64.to_be_bytes(), &encode_cached(0, &answer))
            .unwrap();
        backend
            .put(StoreId::SemanticCache, &2u64.to_be_bytes(), &encode_cached(1, &answer))
            .unwrap();
        let dropped = purge_stale_cache(&backend, 1).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(backend.len(StoreId::SemanticCache).unwrap(), 1);
        assert!(backend.get(StoreId::SemanticCache, &2u64.to_be_bytes()).unwrap().is_some());
    }

    #[test]
    fn cache_record_round_trips_with_rederived_plan() {
        let catalog = demo_catalog(7);
        let sql = "SELECT canton, employees FROM employment_by_type WHERE type = 'full_time'";
        let result = cda_sql::execute(catalog.sql(), sql).unwrap();
        let answer = CachedAnswer { turn: 4, sql: sql.into(), result: result.clone() };
        let bytes = encode_cached(9, &answer);
        assert_eq!(cached_epoch(&bytes).unwrap(), 9);
        let (epoch, back) = decode_cached(&bytes, catalog.sql()).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(back.turn, 4);
        assert_eq!(back.sql, sql);
        assert_eq!(back.result.table, result.table);
        assert_eq!(back.result.stats, result.stats);
        assert_eq!(back.result.plan, result.plan, "re-derived plan must equal the executed one");
    }
}
