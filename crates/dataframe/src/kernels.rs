//! Vectorized compute kernels: sort, group, aggregate primitives.
//!
//! Kernels operate on whole tables/columns and return index vectors or masks,
//! which callers feed to [`Table::take`] / [`Table::filter`]. Keeping the
//! kernels index-based preserves lineage for free (P3) and avoids copying
//! string payloads during intermediate steps (perf-book: avoid allocations on
//! hot paths).

use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;

/// Sort direction for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (NULLs first, per `Value::total_cmp`).
    Asc,
    /// Descending.
    Desc,
}

/// One sort key: column index + direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column position in the table.
    pub column: usize,
    /// Direction.
    pub order: SortOrder,
}

/// Compute the row permutation that sorts `table` by the given keys
/// (stable; later keys break ties left to right as in SQL `ORDER BY`).
pub fn sort_indices(table: &Table, keys: &[SortKey]) -> Result<Vec<usize>> {
    // Materialize key values once; O(n·k) Values but avoids re-extracting
    // per comparison.
    let mut key_cols: Vec<Vec<Value>> = Vec::with_capacity(keys.len());
    for k in keys {
        let col = table.column(k.column)?;
        key_cols.push(col.iter().collect());
    }
    let mut idx: Vec<usize> = (0..table.num_rows()).collect();
    idx.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&key_cols) {
            let ord = col[a].total_cmp(&col[b]);
            let ord = match k.order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(idx)
}

/// Distinct key tuples in first-seen order, one per group.
pub(crate) type GroupKeys = Vec<Vec<Value>>;
/// Row indices belonging to each group, parallel to [`GroupKeys`].
pub(crate) type GroupRows = Vec<Vec<usize>>;

/// Aggregate function kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// COUNT(*) or COUNT(col) (nulls excluded when a column is given).
    Count,
    /// SUM of a numeric column (nulls skipped).
    Sum,
    /// Arithmetic mean (nulls skipped).
    Avg,
    /// Minimum (SQL semantics: nulls skipped).
    Min,
    /// Maximum.
    Max,
    /// Population standard deviation.
    StdDev,
    /// COUNT(DISTINCT col): number of distinct non-null values.
    CountDistinct,
}

impl AggKind {
    /// SQL name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "COUNT",
            AggKind::Sum => "SUM",
            AggKind::Avg => "AVG",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
            AggKind::StdDev => "STDDEV",
            AggKind::CountDistinct => "COUNT_DISTINCT",
        }
    }
}

/// Apply an aggregate over the rows `rows` of column `col` in `table`.
/// `col = None` means `COUNT(*)`.
pub fn aggregate(table: &Table, rows: &[usize], kind: AggKind, col: Option<usize>) -> Result<Value> {
    let Some(c) = col else {
        return Ok(Value::Int(rows.len() as i64));
    };
    let column = table.column(c)?;
    match kind {
        AggKind::Count => {
            let n = rows.iter().filter(|&&r| column.is_valid(r)).count();
            Ok(Value::Int(n as i64))
        }
        AggKind::CountDistinct => {
            let mut distinct = std::collections::HashSet::new();
            for &r in rows {
                let v = column.value(r)?;
                if !v.is_null() {
                    distinct.insert(v);
                }
            }
            Ok(Value::Int(distinct.len() as i64))
        }
        AggKind::Sum | AggKind::Avg | AggKind::StdDev => {
            let mut vals: Vec<f64> = Vec::new();
            let mut all_int = true;
            for &r in rows {
                let v = column.value(r)?;
                if v.is_null() {
                    continue;
                }
                if !matches!(v, Value::Int(_)) {
                    all_int = false;
                }
                match v.as_f64() {
                    Some(x) => vals.push(x),
                    None => {
                        return Err(crate::DataFrameError::UnsupportedType {
                            op: kind.name(),
                            ty: column.data_type().to_string(),
                        })
                    }
                }
            }
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = vals.iter().sum();
            Ok(match kind {
                AggKind::Sum => {
                    if all_int {
                        Value::Int(sum as i64)
                    } else {
                        Value::Float(sum)
                    }
                }
                AggKind::Avg => Value::Float(sum / vals.len() as f64),
                AggKind::StdDev => {
                    let mean = sum / vals.len() as f64;
                    let var =
                        vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
                    Value::Float(var.sqrt())
                }
                other => {
                    return Err(crate::DataFrameError::UnsupportedType {
                        op: other.name(),
                        ty: column.data_type().to_string(),
                    })
                }
            })
        }
        AggKind::Min | AggKind::Max => {
            let mut best: Option<Value> = None;
            for &r in rows {
                let v = column.value(r)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match kind {
                            AggKind::Min => v.total_cmp(&b) == std::cmp::Ordering::Less,
                            _ => v.total_cmp(&b) == std::cmp::Ordering::Greater,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized kernels over `batch::Vector` (columnar batch execution engine).
//
// Every slot-level predicate below deliberately mirrors a `Value` method so
// the vectorized path is byte-identical to the row-at-a-time reference:
//   * `slot_sql_cmp`   ≡ `Value::sql_cmp`   (SQL 3VL comparison),
//   * `slot_total_cmp` ≡ `Value::total_cmp` (sort order),
//   * `slot_group_eq`  ≡ `Value::eq`        (group-by/distinct keys),
//   * the group hash   ≡ `Value::hash`      (same tag bytes, same f64 bits).
// ---------------------------------------------------------------------------

use crate::batch::{Slot, SlotAccess, Vector};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Comparison operator for the vectorized [`compare`] kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// Whether a comparison that came out `ord` satisfies the operator.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }
}

/// SQL three-valued comparison of two slots (`None` = unknown), mirroring
/// [`Value::sql_cmp`] exactly: NULL compares unknown, strings and booleans
/// compare within their class, everything else through `f64` (`partial_cmp`,
/// so NaN is unknown).
pub fn slot_sql_cmp(a: Slot<'_>, b: Slot<'_>) -> Option<Ordering> {
    match (a, b) {
        (Slot::Null, _) | (_, Slot::Null) => None,
        (Slot::Str(x), Slot::Str(y)) => Some(x.cmp(y)),
        (Slot::Bool(x), Slot::Bool(y)) => Some(x.cmp(&y)),
        (x, y) => {
            let (x, y) = (x.as_f64()?, y.as_f64()?);
            x.partial_cmp(&y)
        }
    }
}

fn slot_rank(s: Slot<'_>) -> u8 {
    match s {
        Slot::Null => 0,
        Slot::Bool(_) => 1,
        Slot::Int(_) | Slot::Float(_) | Slot::Timestamp(_) => 2,
        Slot::Str(_) => 3,
    }
}

/// Total order over slots mirroring [`Value::total_cmp`]: NULL first, type
/// rank `Null < Bool < numeric < Str`, numerics by `f64::total_cmp` (NaN
/// last, `-0.0 < 0.0`).
pub(crate) fn slot_total_cmp(a: Slot<'_>, b: Slot<'_>) -> Ordering {
    let rank = slot_rank(a).cmp(&slot_rank(b));
    if rank != Ordering::Equal {
        return rank;
    }
    match (a, b) {
        (Slot::Null, Slot::Null) => Ordering::Equal,
        (Slot::Str(x), Slot::Str(y)) => x.cmp(y),
        (Slot::Bool(x), Slot::Bool(y)) => x.cmp(&y),
        (x, y) => {
            let x = x.as_f64().unwrap_or(f64::NAN);
            let y = y.as_f64().unwrap_or(f64::NAN);
            x.total_cmp(&y)
        }
    }
}

/// Structural (group-by key) equality, mirroring `Value::eq`: `NULL = NULL`,
/// numerics equal when their `f64` images are bit-identical, no cross-class
/// equality outside the numeric family.
pub(crate) fn slot_group_eq(a: Slot<'_>, b: Slot<'_>) -> bool {
    slot_total_cmp(a, b) == Ordering::Equal
        && match (a, b) {
            (Slot::Str(_), Slot::Str(_))
            | (Slot::Bool(_), Slot::Bool(_))
            | (Slot::Null, Slot::Null) => true,
            (x, y) => x.as_f64().is_some() && y.as_f64().is_some(),
        }
}

fn hash_slot_group<H: Hasher>(s: Slot<'_>, state: &mut H) {
    match s {
        Slot::Null => 0u8.hash(state),
        Slot::Str(v) => {
            1u8.hash(state);
            v.hash(state);
        }
        Slot::Bool(b) => {
            2u8.hash(state);
            b.hash(state);
        }
        v => {
            3u8.hash(state);
            let x = v.as_f64().unwrap_or(f64::NAN);
            x.to_bits().hash(state);
        }
    }
}

/// Hash of a group key (`keys[k].slot(row)` for every key vector), consistent
/// with [`slot_group_eq`] and with [`values_group_hash`].
pub(crate) fn group_key_hash<S: SlotAccess>(keys: &[S], row: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for k in keys {
        hash_slot_group(k.slot_at(row), &mut h);
    }
    h.finish()
}

/// Hash of a materialized group key, consistent with `group_key_hash`
/// (used when merging per-morsel group tables into the global one).
pub fn values_group_hash(key: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in key {
        hash_slot_group(Slot::from_value(v), &mut h);
    }
    h.finish()
}

/// True when the materialized key equals row `row` of the key vectors under
/// [`slot_group_eq`].
pub(crate) fn group_key_matches<S: SlotAccess>(key: &[Value], keys: &[S], row: usize) -> bool {
    key.len() == keys.len()
        && key.iter().zip(keys).all(|(v, k)| slot_group_eq(Slot::from_value(v), k.slot_at(row)))
}

/// Vectorized three-valued comparison: element-wise [`slot_sql_cmp`] mapped
/// through `op`. Never errors (comparison is total); unknown → NULL slot.
pub fn compare(l: &Vector, r: &Vector, op: CmpOp) -> Vector {
    let n = l.len().max(r.len());
    let mut data = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    for i in 0..n {
        match slot_sql_cmp(l.slot(i), r.slot(i)) {
            None => {
                data.push(false);
                validity.push(false);
            }
            Some(ord) => {
                data.push(op.holds(ord));
                validity.push(true);
            }
        }
    }
    Vector::Bools { data, validity }
}

/// Hash-partition `len` rows by their key slots, in deterministic
/// first-seen order. Group keys are materialized once per group, not once
/// per row.
pub fn group_rows<S: SlotAccess>(keys: &[S], len: usize) -> (GroupKeys, GroupRows) {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut out_keys: GroupKeys = Vec::new();
    let mut rows: GroupRows = Vec::new();
    for i in 0..len {
        let h = group_key_hash(keys, i);
        let candidates = buckets.entry(h).or_default();
        let found = candidates
            .iter()
            .copied()
            .find(|&g| group_key_matches(&out_keys[g], keys, i));
        let g = match found {
            Some(g) => g,
            None => {
                let g = out_keys.len();
                out_keys.push(keys.iter().map(|k| k.slot_at(i).to_value()).collect());
                rows.push(Vec::new());
                candidates.push(g);
                g
            }
        };
        rows[g].push(i);
    }
    (out_keys, rows)
}

/// A build-side hash table for vectorized equi-joins, keyed under SQL
/// equality semantics: rows whose key contains NULL (or a NaN numeric, which
/// `sql_eq` can never match) are excluded at build time; `-0.0` and `0.0`
/// normalize to the same key; `Int`/`Float`/`Timestamp` key through their
/// `f64` image so cross-type equi-keys match as `sql_cmp` does.
#[derive(Debug, Default)]
pub struct JoinHashTable {
    buckets: HashMap<u64, Vec<usize>>,
}

fn hash_slot_join<H: Hasher>(s: Slot<'_>, state: &mut H) -> bool {
    match s {
        Slot::Null => false,
        Slot::Str(v) => {
            1u8.hash(state);
            v.hash(state);
            true
        }
        Slot::Bool(b) => {
            2u8.hash(state);
            b.hash(state);
            true
        }
        v => match v.as_f64() {
            Some(x) if !x.is_nan() => {
                3u8.hash(state);
                let x = if x == 0.0 { 0.0 } else { x };
                x.to_bits().hash(state);
                true
            }
            _ => false,
        },
    }
}

/// Join-key hash of one row, or `None` when the row can never equi-match
/// (NULL or NaN in the key).
pub fn join_key_hash<S: SlotAccess>(keys: &[S], row: usize) -> Option<u64> {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for k in keys {
        if !hash_slot_join(k.slot_at(row), &mut h) {
            return None;
        }
    }
    Some(h.finish())
}

/// Build the hash table over `len` build-side rows.
pub fn build_join_table<S: SlotAccess>(keys: &[S], len: usize) -> JoinHashTable {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for row in 0..len {
        if let Some(h) = join_key_hash(keys, row) {
            buckets.entry(h).or_default().push(row);
        }
    }
    JoinHashTable { buckets }
}

impl JoinHashTable {
    /// Candidate build rows for a probe hash, in ascending build-row order
    /// (insertion order — what makes hash-join output order deterministic).
    pub fn candidates(&self, hash: u64) -> &[usize] {
        self.buckets.get(&hash).map_or(&[], Vec::as_slice)
    }

    /// Total number of indexed build rows.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// True when no build row was indexed.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// True when every key pair compares `sql_eq`-equal between build row `brow`
/// and probe row `prow` (verification after the hash lookup).
pub fn join_keys_match<B: SlotAccess, P: SlotAccess>(
    build: &[B],
    brow: usize,
    probe: &[P],
    prow: usize,
) -> bool {
    build
        .iter()
        .zip(probe)
        .all(|(b, p)| slot_sql_cmp(b.slot_at(brow), p.slot_at(prow)) == Some(Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Float),
        ]);
        Table::from_columns(
            schema,
            vec![
                Column::from_strs(&["a", "b", "a", "b", "a"]),
                Column::from_ints(&[3, 1, 2, 5, 4]),
                Column::from_opt_floats(&[Some(1.0), None, Some(3.0), Some(2.0), None]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sort_single_key_asc_desc() {
        let t = demo();
        let idx = sort_indices(&t, &[SortKey { column: 1, order: SortOrder::Asc }]).unwrap();
        assert_eq!(idx, vec![1, 2, 0, 4, 3]);
        let idx = sort_indices(&t, &[SortKey { column: 1, order: SortOrder::Desc }]).unwrap();
        assert_eq!(idx, vec![3, 4, 0, 2, 1]);
    }

    #[test]
    fn sort_multi_key_breaks_ties() {
        let t = demo();
        let idx = sort_indices(
            &t,
            &[
                SortKey { column: 0, order: SortOrder::Asc },
                SortKey { column: 1, order: SortOrder::Desc },
            ],
        )
        .unwrap();
        // group "a" first (rows 0,2,4 by x desc: 4,0,2), then "b" (3,1)
        assert_eq!(idx, vec![4, 0, 2, 3, 1]);
    }

    #[test]
    fn sort_nulls_first_ascending() {
        let t = demo();
        let idx = sort_indices(&t, &[SortKey { column: 2, order: SortOrder::Asc }]).unwrap();
        // rows 1 and 4 are NULL, stable order
        assert_eq!(&idx[..2], &[1, 4]);
    }

    #[test]
    fn count_star_vs_count_col() {
        let t = demo();
        assert_eq!(aggregate(&t, &[0, 1, 2, 3, 4], AggKind::Count, None).unwrap(), Value::Int(5));
        // y has 2 nulls
        assert_eq!(aggregate(&t, &[0, 1, 2, 3, 4], AggKind::Count, Some(2)).unwrap(), Value::Int(3));
    }

    #[test]
    fn sum_avg_min_max_stddev() {
        let t = demo();
        let all = [0usize, 1, 2, 3, 4];
        assert_eq!(aggregate(&t, &all, AggKind::Sum, Some(1)).unwrap(), Value::Int(15));
        assert_eq!(aggregate(&t, &all, AggKind::Avg, Some(1)).unwrap(), Value::Float(3.0));
        assert_eq!(aggregate(&t, &all, AggKind::Min, Some(1)).unwrap(), Value::Int(1));
        assert_eq!(aggregate(&t, &all, AggKind::Max, Some(1)).unwrap(), Value::Int(5));
        let sd = aggregate(&t, &all, AggKind::StdDev, Some(1)).unwrap();
        let sd = sd.as_f64().unwrap();
        assert!((sd - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregates_skip_nulls_and_handle_empty() {
        let t = demo();
        let all = [0usize, 1, 2, 3, 4];
        // y sums over non-null {1,3,2}
        assert_eq!(aggregate(&t, &all, AggKind::Sum, Some(2)).unwrap(), Value::Float(6.0));
        // empty row set → SUM NULL, COUNT 0
        assert_eq!(aggregate(&t, &[], AggKind::Sum, Some(1)).unwrap(), Value::Null);
        assert_eq!(aggregate(&t, &[], AggKind::Count, Some(1)).unwrap(), Value::Int(0));
        assert_eq!(aggregate(&t, &[], AggKind::Min, Some(1)).unwrap(), Value::Null);
    }

    #[test]
    fn sum_of_strings_is_an_error() {
        let t = demo();
        assert!(aggregate(&t, &[0], AggKind::Sum, Some(0)).is_err());
    }

    #[test]
    fn min_max_work_on_strings() {
        let t = demo();
        assert_eq!(aggregate(&t, &[0, 1], AggKind::Min, Some(0)).unwrap(), Value::from("a"));
        assert_eq!(aggregate(&t, &[0, 1], AggKind::Max, Some(0)).unwrap(), Value::from("b"));
    }

    #[test]
    fn count_distinct_kernel() {
        let t = demo();
        let all = [0usize, 1, 2, 3, 4];
        // g column has values a,b,a,b,a → 2 distinct
        assert_eq!(aggregate(&t, &all, AggKind::CountDistinct, Some(0)).unwrap(), Value::Int(2));
        // y has nulls at rows 1 and 4; distinct over {1.0, 3.0, 2.0} = 3
        assert_eq!(aggregate(&t, &all, AggKind::CountDistinct, Some(2)).unwrap(), Value::Int(3));
        assert_eq!(aggregate(&t, &[], AggKind::CountDistinct, Some(0)).unwrap(), Value::Int(0));
    }

    #[test]
    fn agg_kind_names() {
        assert_eq!(AggKind::Sum.name(), "SUM");
        assert_eq!(AggKind::StdDev.name(), "STDDEV");
    }

    // -- vectorized kernels -------------------------------------------------

    fn ints(vals: &[Option<i64>]) -> Vector {
        Vector::from_values(vals.iter().map(|v| Value::from(*v)).collect())
    }

    #[test]
    fn slot_cmp_mirrors_value_cmp() {
        use crate::batch::Slot;
        for (a, b) in [
            (Value::Null, Value::Int(1)),
            (Value::Int(2), Value::Float(2.0)),
            (Value::from("a"), Value::Int(1)),
            (Value::Float(f64::NAN), Value::Float(1.0)),
            (Value::Bool(true), Value::Bool(false)),
            (Value::from("x"), Value::from("y")),
            (Value::Timestamp(5), Value::Int(4)),
        ] {
            assert_eq!(
                slot_sql_cmp(Slot::from_value(&a), Slot::from_value(&b)),
                a.sql_cmp(&b),
                "sql_cmp mismatch for {a:?} vs {b:?}"
            );
            assert_eq!(
                slot_total_cmp(Slot::from_value(&a), Slot::from_value(&b)),
                a.total_cmp(&b),
                "total_cmp mismatch for {a:?} vs {b:?}"
            );
            assert_eq!(
                slot_group_eq(Slot::from_value(&a), Slot::from_value(&b)),
                a == b,
                "group eq mismatch for {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn compare_kernel_three_valued() {
        let l = ints(&[Some(1), None, Some(3)]);
        let r = ints(&[Some(2), Some(2), Some(3)]);
        let out = compare(&l, &r, CmpOp::Lt);
        assert_eq!(out.value(0), Value::Bool(true));
        assert_eq!(out.value(1), Value::Null);
        assert_eq!(out.value(2), Value::Bool(false));
        let eq = compare(&l, &r, CmpOp::GtEq);
        assert_eq!(eq.value(2), Value::Bool(true));
    }

    #[test]
    fn group_rows_first_seen_and_numeric_conflation() {
        // Int(1) and Float(1.0) are the same group key (Value::eq semantics);
        // NULL groups with NULL.
        let k = Vector::from_values(vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Null,
            Value::Int(2),
            Value::Null,
        ]);
        let (keys, rows) = group_rows(&[k], 5);
        assert_eq!(keys.len(), 3);
        assert_eq!(rows, vec![vec![0, 1], vec![2, 4], vec![3]]);
        assert_eq!(keys[0], vec![Value::Int(1)]);
        assert_eq!(keys[1], vec![Value::Null]);
    }

    #[test]
    fn group_hashes_consistent_between_slots_and_values() {
        let k = Vector::from_values(vec![Value::Float(2.0)]);
        assert_eq!(group_key_hash(&[k], 0), values_group_hash(&[Value::Int(2)]));
    }

    #[test]
    fn join_table_skips_null_and_nan_keys() {
        let build = Vector::from_values(vec![
            Value::Int(1),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Int(1),
        ]);
        let t = build_join_table(std::slice::from_ref(&build), 4);
        assert_eq!(t.len(), 2);
        let probe = Vector::from_values(vec![Value::Float(1.0), Value::Null]);
        let h = join_key_hash(std::slice::from_ref(&probe), 0).unwrap();
        let cands = t.candidates(h);
        assert_eq!(cands, &[0, 3]);
        assert!(join_keys_match(&[build], 0, std::slice::from_ref(&probe), 0));
        assert_eq!(join_key_hash(&[probe], 1), None);
    }

    #[test]
    fn join_hash_normalizes_signed_zero() {
        let a = Vector::from_values(vec![Value::Float(-0.0)]);
        let b = Vector::from_values(vec![Value::Float(0.0)]);
        assert_eq!(
            join_key_hash(std::slice::from_ref(&a), 0),
            join_key_hash(std::slice::from_ref(&b), 0)
        );
        assert!(join_keys_match(&[a], 0, &[b], 0));
    }
}
