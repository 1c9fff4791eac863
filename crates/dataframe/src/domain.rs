//! Abstract value domains and runtime domain-check kernels.
//!
//! `cda-analyzer`'s abstract interpreter (DESIGN.md §13) computes, for every
//! plan node and output column, a conservative description of the values the
//! node can produce: 3VL null-ness, a numeric interval, string length/prefix
//! bounds, an optional small finite value set, and row-count bounds. Those
//! descriptions are *data*, not analysis — they live here, next to the
//! columnar storage they describe, so that both executors in `cda-sql` can
//! cross-check every materialized [`Table`] against its static domain
//! without depending on the analyzer crate (the dependency points the
//! other way: analyzer → sql → dataframe).
//!
//! The contract is strictly one-sided. The analyzer promises that every
//! value a node can *actually* produce is contained in the node's
//! [`ColDomain`]; the kernel here ([`NodeDomain::check_table`]) verifies
//! that promise at runtime and reports a [`DomainViolation`] when it
//! breaks. A violation always means an analyzer bug (an unsound transfer
//! function), never a data bug — which is exactly what makes the sanitizer
//! a differential certifier of the analysis itself.
//!
//! Everything here degrades soundly to ⊤: [`ColDomain::top`] contains every
//! value, `rows_hi == u64::MAX` means "unbounded", and the check kernels
//! skip ⊤ columns entirely so a vacuous analysis costs almost nothing.

use crate::column::Column;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::fmt;

/// Cap on finite value sets: joins beyond this many distinct values widen to
/// the interval/string abstraction (`values: None`). Keeps fixpoints finite
/// and membership checks O(1)-ish.
pub const VALUE_SET_CAP: usize = 16;

// ---------------------------------------------------------------- null-ness

/// Three-valued null-ness lattice: `NeverNull` and `AlwaysNull` are the
/// precise elements, `MaybeNull` is ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullness {
    /// No produced value is NULL.
    NeverNull,
    /// NULL and non-NULL values are both possible.
    MaybeNull,
    /// Every produced value is NULL.
    AlwaysNull,
}

impl Nullness {
    /// Least upper bound.
    pub fn join(self, other: Nullness) -> Nullness {
        match (self, other) {
            (Nullness::NeverNull, Nullness::NeverNull) => Nullness::NeverNull,
            (Nullness::AlwaysNull, Nullness::AlwaysNull) => Nullness::AlwaysNull,
            _ => Nullness::MaybeNull,
        }
    }

    /// True if NULL is an admissible value.
    pub fn admits_null(self) -> bool {
        !matches!(self, Nullness::NeverNull)
    }

    /// True if any non-NULL value is admissible.
    pub(crate) fn admits_non_null(self) -> bool {
        !matches!(self, Nullness::AlwaysNull)
    }
}

// ---------------------------------------------------------------- intervals

/// A closed numeric interval over the `as_f64` view of a value
/// (Int/Float/Timestamp). `[-inf, +inf]` is ⊤; `lo > hi` is ⊥ (empty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Interval {
    /// The full line: contains every numeric value.
    pub fn top() -> Interval {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// A singleton interval.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An interval from explicit bounds (NaN bounds widen to ⊤).
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() {
            Interval::top()
        } else {
            Interval { lo, hi }
        }
    }

    /// True for the full line.
    pub(crate) fn is_top(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// True when no value satisfies the interval.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Membership. NaN is never excluded (it can't be bounded), so this is
    /// written with negated comparisons.
    pub fn contains(&self, x: f64) -> bool {
        !(x < self.lo || x > self.hi)
    }

    /// Least upper bound (interval hull).
    pub fn join(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound; `None` when the intervals are disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            None
        } else {
            Some(Interval { lo, hi })
        }
    }

    /// Abstract addition. Any NaN in the bound arithmetic (inf - inf)
    /// widens to ⊤.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval::new(self.lo - other.hi, self.hi - other.lo)
    }

    /// Abstract multiplication: hull of the four corner products, widening
    /// to ⊤ when any corner is NaN (0 × inf).
    pub fn mul(&self, other: &Interval) -> Interval {
        let cs = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if cs.iter().any(|c| c.is_nan()) {
            return Interval::top();
        }
        let mut lo = cs[0];
        let mut hi = cs[0];
        for &c in &cs[1..] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval { lo, hi }
    }

    /// Abstract negation.
    pub fn neg(&self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

// ------------------------------------------------------------- string shape

/// Length bounds plus a required prefix for string values. The default
/// (`len ∈ [0, usize::MAX]`, empty prefix) is ⊤.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDomain {
    /// Minimum length in chars.
    pub len_lo: usize,
    /// Maximum length in chars.
    pub len_hi: usize,
    /// Every value starts with this prefix.
    pub prefix: String,
}

impl StrDomain {
    /// The ⊤ string domain.
    pub fn top() -> StrDomain {
        StrDomain { len_lo: 0, len_hi: usize::MAX, prefix: String::new() }
    }

    /// The domain of exactly one string.
    pub fn point(s: &str) -> StrDomain {
        let n = s.chars().count();
        StrDomain { len_lo: n, len_hi: n, prefix: s.to_string() }
    }

    /// True for ⊤.
    pub(crate) fn is_top(&self) -> bool {
        self.len_lo == 0 && self.len_hi == usize::MAX && self.prefix.is_empty()
    }

    /// True when no string satisfies the bounds.
    pub fn is_empty(&self) -> bool {
        self.len_lo > self.len_hi || self.prefix.chars().count() > self.len_hi
    }

    /// Membership.
    pub fn contains(&self, s: &str) -> bool {
        if !s.starts_with(self.prefix.as_str()) {
            return false;
        }
        // chars() count is only needed when a bound is actually binding.
        if self.len_lo == 0 && self.len_hi == usize::MAX {
            return true;
        }
        let n = s.chars().count();
        n >= self.len_lo && n <= self.len_hi
    }

    /// Least upper bound: longest common prefix, hulled length bounds.
    pub fn join(&self, other: &StrDomain) -> StrDomain {
        let prefix: String = self
            .prefix
            .chars()
            .zip(other.prefix.chars())
            .take_while(|(a, b)| a == b)
            .map(|(a, _)| a)
            .collect();
        StrDomain {
            len_lo: self.len_lo.min(other.len_lo),
            len_hi: self.len_hi.max(other.len_hi),
            prefix,
        }
    }
}

// ------------------------------------------------------------ column domain

/// The abstract domain of one output column: a product of null-ness, a
/// numeric interval (constraining the `as_f64` view of non-NULL values),
/// string shape (constraining `Str` values), an optional finite value set,
/// and an optional exact value type.
///
/// Components constrain independently and only where they apply — the
/// interval says nothing about string values, the string shape nothing
/// about numbers. `dtype: Some(t)` additionally promises every non-NULL
/// value has exactly that [`DataType`]; `None` makes no type claim (the
/// executors may coerce mixed-type projection columns, so the analyzer only
/// sets `dtype` when the type is provably uniform).
#[derive(Debug, Clone, PartialEq)]
pub struct ColDomain {
    /// Exact type of non-NULL values, when provable.
    pub dtype: Option<DataType>,
    /// 3VL null-ness.
    pub nullness: Nullness,
    /// Interval constraint on numeric (Int/Float/Timestamp) values.
    pub range: Interval,
    /// Shape constraint on string values.
    pub strs: StrDomain,
    /// Finite set of possible non-NULL values (`None` = unbounded). Sets
    /// larger than [`VALUE_SET_CAP`] are widened to `None` on join.
    pub values: Option<Vec<Value>>,
}

/// Value equality for domain membership: numeric values compare by their
/// `as_f64` view (so `Int(5)` matches a domain seeded with `Float(5.0)`
/// after executor coercion), everything else structurally.
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

impl ColDomain {
    /// The ⊤ domain: contains every value including NULL.
    pub fn top() -> ColDomain {
        ColDomain {
            dtype: None,
            nullness: Nullness::MaybeNull,
            range: Interval::top(),
            strs: StrDomain::top(),
            values: None,
        }
    }

    /// The domain of exactly one value.
    pub fn from_value(v: &Value) -> ColDomain {
        match v {
            Value::Null => ColDomain {
                dtype: None,
                nullness: Nullness::AlwaysNull,
                range: Interval::top(),
                strs: StrDomain::top(),
                values: Some(Vec::new()),
            },
            Value::Str(s) => ColDomain {
                dtype: Some(DataType::Str),
                nullness: Nullness::NeverNull,
                range: Interval::top(),
                strs: StrDomain::point(s),
                values: Some(vec![v.clone()]),
            },
            _ => ColDomain {
                dtype: v.data_type(),
                nullness: Nullness::NeverNull,
                // Bool has no f64 view; its range constraint stays vacuous.
                range: v.as_f64().map(Interval::point).unwrap_or_else(Interval::top),
                strs: StrDomain::top(),
                values: Some(vec![v.clone()]),
            },
        }
    }

    /// True for ⊤ (check kernels skip such columns).
    pub(crate) fn is_top(&self) -> bool {
        self.dtype.is_none()
            && self.nullness == Nullness::MaybeNull
            && self.range.is_top()
            && self.strs.is_top()
            && self.values.is_none()
    }

    /// True when *no* value — NULL included — satisfies the domain: the
    /// column provably cannot produce a row.
    pub fn is_unsatisfiable(&self) -> bool {
        if self.nullness.admits_null() {
            return false;
        }
        if matches!(&self.values, Some(vs) if vs.is_empty()) {
            return true;
        }
        // A non-NULL value must exist; with a known numeric type an empty
        // interval (or an empty string shape, for Str) forbids all of them.
        match self.dtype {
            Some(DataType::Int) | Some(DataType::Float) | Some(DataType::Timestamp) => {
                self.range.is_empty()
            }
            Some(DataType::Str) => self.strs.is_empty(),
            _ => false,
        }
    }

    /// Membership check — the single semantics every kernel and every
    /// property test goes through.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return self.nullness.admits_null();
        }
        if !self.nullness.admits_non_null() {
            return false;
        }
        if let Some(t) = self.dtype {
            if v.data_type() != Some(t) {
                return false;
            }
        }
        if let Some(set) = &self.values {
            if !set.iter().any(|s| value_eq(s, v)) {
                return false;
            }
        }
        if let Some(x) = v.as_f64() {
            if !self.range.contains(x) {
                return false;
            }
        }
        if let Value::Str(s) = v {
            if !self.strs.contains(s) {
                return false;
            }
        }
        true
    }

    /// Index of the first slot of `col` outside this domain, or `None` when
    /// every slot is contained. Semantically identical to running
    /// [`contains`](Self::contains) on every slot value, but scans the typed
    /// buffers directly — the sanitizer's hot path builds no per-row `Value`
    /// (string slots are checked by reference, numeric slots from the dense
    /// buffer), keeping the runtime cross-check cheap relative to execution.
    pub(crate) fn first_violation(&self, col: &Column) -> Option<usize> {
        // A finite value set needs full `Value` equality; sets only arise
        // from literal/constant expressions, so the row path is fine there.
        if self.values.is_some() {
            return (0..col.len()).find(|&ri| !self.slot_ok(col, ri));
        }
        // Null-ness and the dtype claim. A typed buffer gives all non-NULL
        // slots one data type, so the dtype comparison hoists out of the
        // loop.
        let dtype_ok = self.dtype.is_none_or(|t| col.data_type() == t);
        let found = (0..col.len()).find(|&ri| {
            if col.is_valid(ri) {
                !(self.nullness.admits_non_null() && dtype_ok)
            } else {
                !self.nullness.admits_null()
            }
        });
        if found.is_some() {
            return found;
        }
        // The numeric interval, over the dense buffer (`ints()` also views
        // Timestamp storage); bools and strings have no numeric view.
        if !self.range.is_top() {
            if let Some(xs) = col.ints() {
                for (ri, &x) in xs.iter().enumerate() {
                    if col.is_valid(ri) && !self.range.contains(x as f64) {
                        return Some(ri);
                    }
                }
            }
            if let Some(xs) = col.floats() {
                for (ri, &x) in xs.iter().enumerate() {
                    if col.is_valid(ri) && !self.range.contains(x) {
                        return Some(ri);
                    }
                }
            }
        }
        // The string shape, by reference.
        if !self.strs.is_top() {
            if let Some(ss) = col.strs() {
                for (ri, s) in ss.iter().enumerate() {
                    if col.is_valid(ri) && !self.strs.contains(s) {
                        return Some(ri);
                    }
                }
            }
        }
        None
    }

    /// One slot of `col` through the slow [`contains`](Self::contains) path.
    fn slot_ok(&self, col: &Column, ri: usize) -> bool {
        if !col.is_valid(ri) {
            return self.nullness.admits_null();
        }
        match col.value(ri) {
            Ok(v) => self.contains(&v),
            Err(_) => true,
        }
    }

    /// Least upper bound. Value sets union (deduplicated); a union larger
    /// than [`VALUE_SET_CAP`] widens to `None` — the join stays sound
    /// because the interval/string components are joined independently.
    pub fn join(&self, other: &ColDomain) -> ColDomain {
        let values = match (&self.values, &other.values) {
            (Some(a), Some(b)) => {
                let mut u = a.clone();
                for v in b {
                    if !u.iter().any(|x| value_eq(x, v)) {
                        u.push(v.clone());
                    }
                }
                if u.len() > VALUE_SET_CAP {
                    None
                } else {
                    u.sort_by(|x, y| x.total_cmp(y));
                    Some(u)
                }
            }
            _ => None,
        };
        ColDomain {
            dtype: match (self.dtype, other.dtype) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            nullness: self.nullness.join(other.nullness),
            range: self.range.join(&other.range),
            strs: self.strs.join(&other.strs),
            values,
        }
    }

    /// Keep only the null-ness component; everything else widens to ⊤.
    /// Used when executor coercion (mixed-type projection columns) can
    /// rewrite values in ways the value-level abstraction doesn't model.
    pub fn erase_to_nullness(&self) -> ColDomain {
        ColDomain { nullness: self.nullness, ..ColDomain::top() }
    }

    /// A concrete witness value inside the domain, if one can be read off
    /// cheaply. Used by the equivalence engine to synthesize counterexample
    /// tables; `None` never means the domain is empty.
    pub fn sample(&self) -> Option<Value> {
        if !self.nullness.admits_non_null() {
            return self.nullness.admits_null().then_some(Value::Null);
        }
        if let Some(set) = &self.values {
            return set.first().cloned();
        }
        match self.dtype {
            Some(DataType::Str) => {
                if self.strs.prefix.chars().count() >= self.strs.len_lo {
                    Some(Value::Str(self.strs.prefix.clone()))
                } else {
                    None
                }
            }
            Some(DataType::Int) | Some(DataType::Timestamp) => {
                let lo = if self.range.lo.is_finite() { self.range.lo.ceil() } else { 0.0 };
                let v = if self.range.contains(lo) { Some(lo as i64) } else { None };
                v.map(|x| {
                    if self.dtype == Some(DataType::Timestamp) {
                        Value::Timestamp(x)
                    } else {
                        Value::Int(x)
                    }
                })
            }
            Some(DataType::Float) => {
                let lo = if self.range.lo.is_finite() { self.range.lo } else { 0.0 };
                self.range.contains(lo).then_some(Value::Float(lo))
            }
            _ => None,
        }
    }
}

// -------------------------------------------------------------- node domain

/// The abstract domain of one plan node's output: per-column domains plus
/// row-count bounds (`rows_hi == u64::MAX` = unbounded above).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDomain {
    /// One domain per output column, in schema order.
    pub cols: Vec<ColDomain>,
    /// Minimum number of output rows.
    pub rows_lo: u64,
    /// Maximum number of output rows (`u64::MAX` = unbounded).
    pub rows_hi: u64,
}

impl NodeDomain {
    /// The ⊤ domain for `n` columns.
    pub fn top(n: usize) -> NodeDomain {
        NodeDomain { cols: vec![ColDomain::top(); n], rows_lo: 0, rows_hi: u64::MAX }
    }

    /// True when the node provably produces no rows.
    pub fn is_provably_empty(&self) -> bool {
        self.rows_hi == 0
    }

    /// Check a fully materialized table (row-count bounds included).
    pub fn check_table(&self, label: &str, t: &Table) -> Result<(), DomainViolation> {
        if t.num_columns() != self.cols.len() {
            return Err(DomainViolation {
                node: label.to_string(),
                detail: format!(
                    "column count mismatch: table has {}, domain has {}",
                    t.num_columns(),
                    self.cols.len()
                ),
            });
        }
        let n = t.num_rows() as u64;
        if n < self.rows_lo || n > self.rows_hi {
            return Err(DomainViolation {
                node: label.to_string(),
                detail: format!(
                    "row count {n} outside abstract bounds [{}, {}]",
                    self.rows_lo,
                    render_hi(self.rows_hi)
                ),
            });
        }
        for (ci, dom) in self.cols.iter().enumerate() {
            if dom.is_top() {
                continue;
            }
            let col = match t.column(ci) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if let Some(ri) = dom.first_violation(col) {
                let got = col.value(ri).map(|v| v.to_string()).unwrap_or_default();
                return Err(DomainViolation {
                    node: label.to_string(),
                    detail: format!(
                        "row {ri} col {ci}: value {got:?} outside abstract domain {dom:?}"
                    ),
                });
            }
        }
        Ok(())
    }
}

fn render_hi(hi: u64) -> String {
    if hi == u64::MAX {
        "inf".to_string()
    } else {
        hi.to_string()
    }
}

/// A runtime value escaped its statically computed domain — evidence of an
/// unsound analyzer transfer function (never of bad data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainViolation {
    /// Label of the plan node whose output violated its domain.
    pub node: String,
    /// Human-readable description of the violating value or bound.
    pub detail: String,
}

impl fmt::Display for DomainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "absint domain violation at {}: {}", self.node, self.detail)
    }
}

impl std::error::Error for DomainViolation {}

// -------------------------------------------------------------- domain tree

/// Abstract domains for a whole plan, mirroring the plan's tree shape:
/// `children[i]` describes the i-th input of the node `node` describes.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainTree {
    /// The domain of this node's output.
    pub node: NodeDomain,
    /// Domains of the node's inputs, in plan-child order.
    pub children: Vec<DomainTree>,
}

impl DomainTree {
    /// A leaf tree.
    pub fn leaf(node: NodeDomain) -> DomainTree {
        DomainTree { node, children: Vec::new() }
    }

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(DomainTree::size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::Column;

    fn dom_int(lo: f64, hi: f64) -> ColDomain {
        ColDomain {
            dtype: Some(DataType::Int),
            nullness: Nullness::NeverNull,
            range: Interval::new(lo, hi),
            strs: StrDomain::top(),
            values: None,
        }
    }

    #[test]
    fn interval_arithmetic_is_sound_at_infinities() {
        let top = Interval::top();
        assert!(top.add(&top).is_top() || top.add(&top).contains(42.0));
        assert!(top.mul(&Interval::point(0.0)).contains(0.0));
        // inf * 0 corner must widen, not produce a NaN bound.
        assert!(!top.mul(&Interval::point(0.0)).lo.is_nan());
        assert_eq!(Interval::new(1.0, 2.0).sub(&Interval::new(0.5, 1.0)), Interval::new(0.0, 1.5));
    }

    #[test]
    fn interval_intersect_disjoint_is_none() {
        assert_eq!(Interval::new(0.0, 1.0).intersect(&Interval::new(2.0, 3.0)), None);
        assert_eq!(
            Interval::new(0.0, 2.0).intersect(&Interval::new(1.0, 3.0)),
            Some(Interval::new(1.0, 2.0))
        );
    }

    #[test]
    fn str_domain_prefix_join_and_membership() {
        let a = StrDomain::point("health");
        let b = StrDomain::point("heat");
        let j = a.join(&b);
        assert_eq!(j.prefix, "hea");
        assert!(j.contains("health"));
        assert!(j.contains("heat"));
        assert!(!j.contains("it"));
    }

    #[test]
    fn col_domain_from_value_contains_that_value() {
        for v in [
            Value::Null,
            Value::Int(42),
            Value::Float(1.5),
            Value::Str("ZH".into()),
            Value::Bool(true),
            Value::Timestamp(1_700_000_000),
        ] {
            assert!(ColDomain::from_value(&v).contains(&v), "{v:?}");
        }
    }

    #[test]
    fn join_is_an_upper_bound() {
        let a = ColDomain::from_value(&Value::Int(1));
        let b = ColDomain::from_value(&Value::Int(9));
        let j = a.join(&b);
        assert!(j.contains(&Value::Int(1)));
        assert!(j.contains(&Value::Int(9)));
        assert!(!j.contains(&Value::Int(5)), "finite set join stays finite");
        assert!(j.range.contains(5.0), "but the interval hull covers the gap");
    }

    #[test]
    fn value_set_join_widens_past_cap() {
        let mut d = ColDomain::from_value(&Value::Int(0));
        for i in 1..(VALUE_SET_CAP as i64 + 5) {
            d = d.join(&ColDomain::from_value(&Value::Int(i)));
        }
        assert!(d.values.is_none(), "set past cap must widen");
        assert!(d.contains(&Value::Int(3)), "interval still covers everything");
    }

    #[test]
    fn coerced_int_matches_float_seeded_set() {
        // When the analyzer can't prove the output type (executor coercion
        // may turn Int into Float), it drops the dtype claim; membership is
        // then f64-based so coerced values still satisfy the set.
        let mut d = ColDomain::from_value(&Value::Float(5.0));
        d.dtype = None;
        assert!(d.contains(&Value::Int(5)), "numeric membership is f64-based");
        assert!(!d.contains(&Value::Int(6)));
    }

    #[test]
    fn unsatisfiable_detection() {
        let mut d = dom_int(5.0, 3.0);
        assert!(d.is_unsatisfiable());
        d.range = Interval::new(3.0, 5.0);
        assert!(!d.is_unsatisfiable());
        let null_only = ColDomain::from_value(&Value::Null);
        assert!(!null_only.is_unsatisfiable(), "NULL rows are still rows");
    }

    #[test]
    fn check_table_accepts_and_rejects() {
        let t = Table::from_columns(
            Schema::new(vec![Field::new("jobs", DataType::Int)]),
            vec![Column::from_opt_ints(&[Some(10), Some(20), None])],
        )
        .unwrap();
        let ok = NodeDomain {
            cols: vec![ColDomain {
                dtype: Some(DataType::Int),
                nullness: Nullness::MaybeNull,
                range: Interval::new(0.0, 100.0),
                strs: StrDomain::top(),
                values: None,
            }],
            rows_lo: 0,
            rows_hi: 10,
        };
        assert!(ok.check_table("scan emp", &t).is_ok());

        let mut bad = ok.clone();
        bad.cols[0].range = Interval::new(0.0, 15.0);
        let err = bad.check_table("scan emp", &t).unwrap_err();
        assert!(err.to_string().contains("absint domain violation"), "{err}");

        let mut never = ok.clone();
        never.cols[0].nullness = Nullness::NeverNull;
        assert!(never.check_table("scan emp", &t).is_err(), "NULL row must violate NeverNull");

        let mut rows = ok;
        rows.rows_hi = 2;
        assert!(rows.check_table("scan emp", &t).is_err(), "row bound must bind");
    }

    #[test]
    fn top_domains_are_skipped_and_accept_everything() {
        let t = Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Str)]),
            vec![Column::from_strs(&["a", "b"])],
        )
        .unwrap();
        assert!(NodeDomain::top(1).check_table("any", &t).is_ok());
        assert!(ColDomain::top().is_top());
        assert!(!ColDomain::from_value(&Value::Int(1)).is_top());
    }

    #[test]
    fn sample_lies_inside_its_domain() {
        let cases = [
            ColDomain::from_value(&Value::Int(7)),
            ColDomain::from_value(&Value::Str("ZH".into())),
            dom_int(3.0, 9.0),
            ColDomain::from_value(&Value::Null),
        ];
        for d in cases {
            if let Some(v) = d.sample() {
                assert!(d.contains(&v), "sample {v:?} of {d:?}");
            }
        }
    }
}
