//! `absint` — a fixpoint abstract interpreter over bound logical plans.
//!
//! The gate's existing passes are syntactic (AST lints), type-level
//! (binding), or coarse-cardinality (`cardest`). This pass is *semantic*: it
//! runs the plan once over **abstract values** — per-column
//! [`ColDomain`]s combining 3VL null-ness, numeric intervals, string
//! length/prefix bounds, and small finite value sets, plus per-node
//! row-count bounds — and proves facts no per-row executor can state:
//! *"this filter selects no row on any database"*, *"this filter selects
//! every row of this catalog"*, *"this output column is NULL in every
//! row"*, *"this expression divides by zero on the first row it touches"*.
//!
//! ## Lattice and widening
//!
//! The column lattice is the product of four independent components (see
//! `cda_dataframe::domain` for the carrier types and the runtime membership
//! semantics): null-ness (`NeverNull < MaybeNull > AlwaysNull`), interval
//! (`⊥ ⊂ [lo,hi] ⊂ ⊤`), string shape (length bounds × required prefix),
//! and an optional finite value set capped at
//! [`cda_dataframe::domain::VALUE_SET_CAP`] elements — joins past the cap
//! widen the set to `None` while the interval/string components keep a
//! sound hull, so every ascending chain is finite and the interpreter
//! terminates without an explicit widening operator on intervals (interval
//! bounds only ever come from literals, catalog statistics, and joins of
//! those — a finite set per plan).
//!
//! ## Transfer functions
//!
//! One bottom-up pass computes a [`DomainTree`] mirroring the plan. `Scan`
//! seeds from catalog statistics (min/max/null-count/row-count; string
//! min/max contribute their common prefix — every value between two strings
//! shares it). `Filter` evaluates the predicate to an `AbsTruth` and
//! *refines* the surviving rows' domains conjunct-by-conjunct to a bounded
//! local fixpoint (column↔literal and column↔column comparisons, `IS
//! [NOT] NULL`, literal `IN` lists, `BETWEEN`, `LIKE` prefixes). `Project`
//! and `Aggregate` run abstract expression evaluation; output columns whose
//! value type cannot be proven uniform are widened to null-ness-only,
//! because the executors coerce mixed-type columns
//! (`exec::column_from_values`) in ways the value abstraction doesn't
//! model. `Join` concatenates, pads the right side nullable under `LEFT`,
//! and refines `INNER` keys through the join condition.
//!
//! ## Soundness discipline
//!
//! Every fact is one-sided: the domain *over*-approximates the reachable
//! values. Two executor subtleties are load-bearing and property-tested:
//!
//! * **NaN**: a `Float` column may contain NaN, which makes every
//!   comparison unselect the row (`sql_cmp` → `None` → not TRUE).
//!   `NeverTrue` conclusions are NaN-safe by construction; `AlwaysTrue`
//!   conclusions are only drawn from provably NaN-free operands
//!   (i64-backed types or explicit finite value sets).
//! * **NULL before errors**: `eval_binary` propagates NULL *before* the
//!   division-by-zero check, so `NULL / 0` is NULL, not an error. The
//!   provable-runtime-error analysis therefore requires both operands
//!   `NeverNull`, a divisor domain of exactly `{0}`, at least one
//!   guaranteed input row, and an unconditionally-evaluated position
//!   (short-circuit `AND`/`OR` arms and `CASE` branches don't count).
//!
//! The analysis is consumed four ways: sqlcheck codes A015–A018
//! ([`analyze`]), cardinality-bound sharpening ([`row_bounds`] intersected
//! into `cardest` estimates), the equivalence engine's domain-refutation
//! fast path, and the **sanitizer** (`cda_sql::exec::execute_plan_checked`)
//! that re-checks every materialized node output against its static domain
//! at runtime — a differential certifier of this module itself.

use crate::cardest::Statistics;
use cda_dataframe::domain::{
    ColDomain, DomainTree, Interval, NodeDomain, Nullness, StrDomain,
};
use cda_dataframe::{DataType, Value};
use cda_sql::ast::{BinaryOp, JoinKind};
use cda_sql::plan::{AggExpr, BoundExpr, Plan};
use cda_dataframe::kernels::AggKind;

/// Max iterations of the per-filter conjunct-refinement loop. Column↔column
/// comparisons propagate bounds transitively; four rounds close every chain
/// a 16-atom CNF can build in practice, and the loop also stops as soon as
/// a round changes nothing.
const REFINE_ROUNDS: usize = 4;

// ------------------------------------------------------------- three truths

/// Abstract truth of a predicate under 3VL, folded for *selection*: a row
/// is selected iff the predicate evaluates to TRUE, so `NeverTrue` covers
/// both FALSE and NULL outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbsTruth {
    /// Evaluates to TRUE on every possible input row.
    AlwaysTrue,
    /// Never evaluates to TRUE (FALSE or NULL on every row).
    NeverTrue,
    /// Cannot be decided abstractly.
    Unknown,
}

impl AbsTruth {
    fn and(self, other: AbsTruth) -> AbsTruth {
        use AbsTruth::*;
        match (self, other) {
            // FALSE AND x is FALSE, NULL AND FALSE is FALSE — never TRUE.
            (NeverTrue, _) | (_, NeverTrue) => NeverTrue,
            (AlwaysTrue, AlwaysTrue) => AlwaysTrue,
            _ => Unknown,
        }
    }

    fn or(self, other: AbsTruth) -> AbsTruth {
        use AbsTruth::*;
        match (self, other) {
            // TRUE OR x is TRUE, NULL OR TRUE is TRUE.
            (AlwaysTrue, _) | (_, AlwaysTrue) => AlwaysTrue,
            (NeverTrue, NeverTrue) => NeverTrue,
            _ => Unknown,
        }
    }

    fn not(self) -> AbsTruth {
        use AbsTruth::*;
        match self {
            AlwaysTrue => NeverTrue,
            // NOT(never TRUE) may still be NULL (never TRUE ⊇ NULL), so
            // nothing can be concluded without null-ness of the operand.
            NeverTrue | Unknown => Unknown,
        }
    }
}

// --------------------------------------------------------------- type class

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Num,
    Str,
    Bool,
    Unknown,
}

fn class_of(d: &ColDomain) -> Class {
    match d.dtype {
        Some(DataType::Int) | Some(DataType::Float) | Some(DataType::Timestamp) => Class::Num,
        Some(DataType::Str) => Class::Str,
        Some(DataType::Bool) => Class::Bool,
        None => Class::Unknown,
    }
}

/// Value equality as `sql_cmp` sees it: numeric values by f64 view,
/// everything else structurally.
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// An IN-list literal as the value of numeric column type `t` it equals
/// under SQL's cross-type numeric comparison (`2` matches a FLOAT `2.0`),
/// or `None` when no value of `t` can equal it (`2.5` against an INT).
/// Other literals are returned as they are.
fn in_column_type(v: &Value, t: Option<DataType>) -> Option<Value> {
    let (Some(t), Some(x)) = (t, v.as_f64()) else {
        return Some(v.clone());
    };
    if v.data_type() == Some(t) {
        return Some(v.clone());
    }
    let int = || Some(x as i64).filter(|&i| i as f64 == x);
    match t {
        DataType::Float => Some(Value::Float(x)),
        DataType::Int => int().map(Value::Int),
        DataType::Timestamp => int().map(Value::Timestamp),
        DataType::Str | DataType::Bool => Some(v.clone()),
    }
}

/// Result NULL-ness of a NULL-propagating operation (arithmetic, NOT):
/// NULL in, NULL out.
fn null_prop(a: Nullness, b: Nullness) -> Nullness {
    use Nullness::*;
    match (a, b) {
        (AlwaysNull, _) | (_, AlwaysNull) => AlwaysNull,
        (NeverNull, NeverNull) => NeverNull,
        _ => MaybeNull,
    }
}

/// True when no value of the domain can be NaN, which is what licenses
/// `AlwaysTrue` comparison conclusions (a NaN operand silently unselects
/// the row). i64-backed types cannot hold NaN; explicit finite value sets
/// are checked element-wise. A `Float` interval can always hide a NaN —
/// `Interval::contains` deliberately never excludes one.
fn nan_free(d: &ColDomain) -> bool {
    if matches!(d.dtype, Some(DataType::Int) | Some(DataType::Timestamp)) {
        return true;
    }
    match &d.values {
        Some(vs) => vs.iter().all(|v| v.as_f64().is_none_or(|x| !x.is_nan())),
        None => false,
    }
}

fn mark_unsat(d: &mut ColDomain) {
    d.nullness = Nullness::NeverNull;
    d.values = Some(Vec::new());
}

// -------------------------------------------------------- abstract eval

/// Abstract evaluation of a bound expression over the input columns'
/// domains. The result over-approximates every value the expression can
/// produce on any row drawn from `cols`.
pub(crate) fn abs_eval(expr: &BoundExpr, cols: &[ColDomain]) -> ColDomain {
    match expr {
        BoundExpr::Literal(v) => ColDomain::from_value(v),
        BoundExpr::Column(i) => cols.get(*i).cloned().unwrap_or_else(ColDomain::top),
        BoundExpr::Binary { left, op, right } => {
            let l = abs_eval(left, cols);
            let r = abs_eval(right, cols);
            if op.is_comparison() {
                return bool_result(match (class_of(&l), class_of(&r)) {
                    // Same comparable class and no NULL operand: sql_cmp is
                    // total, so the comparison itself never yields NULL.
                    (a, b)
                        if a == b
                            && a != Class::Unknown
                            && l.nullness == Nullness::NeverNull
                            && r.nullness == Nullness::NeverNull =>
                    {
                        Nullness::NeverNull
                    }
                    _ => Nullness::MaybeNull,
                });
            }
            match op {
                BinaryOp::And | BinaryOp::Or => bool_result(Nullness::MaybeNull),
                arith => abs_arith(&l, *arith, &r),
            }
        }
        BoundExpr::Neg(e) => {
            let d = abs_eval(e, cols);
            ColDomain {
                dtype: match d.dtype {
                    Some(DataType::Int) => Some(DataType::Int),
                    Some(DataType::Float) => Some(DataType::Float),
                    _ => None,
                },
                nullness: d.nullness,
                range: d.range.neg(),
                strs: StrDomain::top(),
                values: None,
            }
        }
        BoundExpr::Not(e) => {
            let d = abs_eval(e, cols);
            bool_result(d.nullness)
        }
        BoundExpr::IsNull { expr, .. } => {
            let _ = abs_eval(expr, cols);
            bool_result(Nullness::NeverNull)
        }
        BoundExpr::InList { .. } | BoundExpr::Between { .. } | BoundExpr::Like { .. } => {
            bool_result(Nullness::MaybeNull)
        }
        BoundExpr::Case { branches, else_expr } => {
            let mut acc: Option<ColDomain> = None;
            for (_, val) in branches {
                let d = abs_eval(val, cols);
                acc = Some(match acc {
                    Some(a) => a.join(&d),
                    None => d,
                });
            }
            let tail = match else_expr {
                Some(e) => abs_eval(e, cols),
                None => ColDomain::from_value(&Value::Null),
            };
            match acc {
                Some(a) => a.join(&tail),
                None => tail,
            }
        }
    }
}

fn bool_result(nullness: Nullness) -> ColDomain {
    ColDomain { dtype: Some(DataType::Bool), nullness, ..ColDomain::top() }
}

fn abs_arith(l: &ColDomain, op: BinaryOp, r: &ColDomain) -> ColDomain {
    let nullness = null_prop(l.nullness, r.nullness);
    let (cl, cr) = (class_of(l), class_of(r));
    // String concatenation: `+` on two strings. Result starts with the left
    // prefix; lengths add.
    if op == BinaryOp::Add && cl == Class::Str && cr == Class::Str {
        return ColDomain {
            dtype: Some(DataType::Str),
            nullness,
            range: Interval::top(),
            strs: StrDomain {
                len_lo: l.strs.len_lo.saturating_add(r.strs.len_lo),
                len_hi: l.strs.len_hi.saturating_add(r.strs.len_hi),
                prefix: l.strs.prefix.clone(),
            },
            values: None,
        };
    }
    if cl != Class::Num || cr != Class::Num {
        // Mixed or unknown classes: either a runtime error (no value
        // produced — vacuously covered) or semantics we don't model.
        return ColDomain { nullness, ..ColDomain::top() };
    }
    let both_int = l.dtype == Some(DataType::Int) && r.dtype == Some(DataType::Int);
    let range = match op {
        BinaryOp::Add => l.range.add(&r.range),
        BinaryOp::Sub => l.range.sub(&r.range),
        BinaryOp::Mul => l.range.mul(&r.range),
        // Division/modulo ranges are subtle near zero; stay at ⊤.
        _ => Interval::top(),
    };
    ColDomain {
        // `both_int` results stay Int except inexact division (7/2 → 3.5);
        // any Float/Timestamp operand makes the executor produce Float.
        dtype: if both_int {
            if op == BinaryOp::Div {
                None
            } else {
                Some(DataType::Int)
            }
        } else {
            Some(DataType::Float)
        },
        nullness,
        range,
        strs: StrDomain::top(),
        values: None,
    }
}

// ---------------------------------------------------------- abstract truth

/// Abstract truth of a predicate over the input columns' domains.
pub(crate) fn abs_truth(pred: &BoundExpr, cols: &[ColDomain]) -> AbsTruth {
    use AbsTruth::*;
    match pred {
        BoundExpr::Literal(Value::Bool(true)) => AlwaysTrue,
        BoundExpr::Literal(Value::Bool(false)) | BoundExpr::Literal(Value::Null) => NeverTrue,
        BoundExpr::Literal(_) => Unknown,
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            abs_truth(left, cols).and(abs_truth(right, cols))
        }
        BoundExpr::Binary { left, op: BinaryOp::Or, right } => {
            abs_truth(left, cols).or(abs_truth(right, cols))
        }
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            cmp_truth(&abs_eval(left, cols), *op, &abs_eval(right, cols))
        }
        BoundExpr::Binary { .. } => Unknown,
        BoundExpr::Not(e) => abs_truth(e, cols).not(),
        BoundExpr::IsNull { expr, negated } => {
            let d = abs_eval(expr, cols);
            match (d.nullness, negated) {
                (Nullness::AlwaysNull, false) | (Nullness::NeverNull, true) => AlwaysTrue,
                (Nullness::NeverNull, false) | (Nullness::AlwaysNull, true) => NeverTrue,
                _ => Unknown,
            }
        }
        BoundExpr::InList { expr, list, negated } => {
            let d = abs_eval(expr, cols);
            // NULL subject ⇒ result NULL, for IN and NOT IN alike.
            if d.nullness == Nullness::AlwaysNull {
                return NeverTrue;
            }
            if !negated {
                // x IN (…) is TRUE only via equality with some item: if
                // every literal item is refuted the membership can still be
                // NULL (a NULL item), but never TRUE.
                let all_literal = list.iter().all(|i| matches!(i, BoundExpr::Literal(_)));
                if all_literal
                    && list.iter().all(|i| {
                        cmp_truth(&d, BinaryOp::Eq, &abs_eval(i, cols)) == NeverTrue
                    })
                {
                    return NeverTrue;
                }
            } else if list
                .iter()
                .any(|i| matches!(i, BoundExpr::Literal(Value::Null)))
            {
                // x NOT IN (…, NULL, …): a match yields FALSE, a miss
                // reaches the NULL item and yields NULL — never TRUE.
                return NeverTrue;
            }
            Unknown
        }
        BoundExpr::Between { expr, low, high, negated } => {
            let d = abs_eval(expr, cols);
            let lo = abs_eval(low, cols);
            let hi = abs_eval(high, cols);
            let inside = cmp_truth(&d, BinaryOp::GtEq, &lo).and(cmp_truth(&d, BinaryOp::LtEq, &hi));
            if *negated {
                inside.not()
            } else {
                inside
            }
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let d = abs_eval(expr, cols);
            if d.nullness == Nullness::AlwaysNull {
                return NeverTrue;
            }
            if !negated && class_of(&d) == Class::Str {
                // A match must start with the pattern's literal prefix; if
                // that prefix is incompatible with the domain's required
                // prefix no string satisfies both.
                let lit: String =
                    pattern.chars().take_while(|c| *c != '%' && *c != '_').collect();
                let p = &d.strs.prefix;
                let compatible = lit.starts_with(p.as_str()) || p.starts_with(lit.as_str());
                if !compatible {
                    return NeverTrue;
                }
                let min_len = pattern.chars().filter(|c| *c != '%').count();
                if min_len > d.strs.len_hi {
                    return NeverTrue;
                }
            }
            Unknown
        }
        BoundExpr::Case { .. } => Unknown,
        // A bare column/negation as a predicate: truth depends on its
        // (boolean) values, which the value abstraction doesn't track.
        BoundExpr::Column(_) | BoundExpr::Neg(_) => Unknown,
    }
}

fn cmp_truth(l: &ColDomain, op: BinaryOp, r: &ColDomain) -> AbsTruth {
    use AbsTruth::*;
    use BinaryOp::*;
    if l.is_unsatisfiable() || r.is_unsatisfiable() {
        return NeverTrue;
    }
    // A NULL operand makes the comparison NULL.
    if l.nullness == Nullness::AlwaysNull || r.nullness == Nullness::AlwaysNull {
        return NeverTrue;
    }
    let (cl, cr) = (class_of(l), class_of(r));
    if cl != Class::Unknown && cr != Class::Unknown && cl != cr {
        // Cross-class sql_cmp is undefined ⇒ NULL ⇒ never TRUE.
        return NeverTrue;
    }
    let both_never_null = l.nullness == Nullness::NeverNull && r.nullness == Nullness::NeverNull;
    let certain = both_never_null && nan_free(l) && nan_free(r);
    // Finite-set reasoning for (in)equality.
    if let (Some(a), Some(b)) = (&l.values, &r.values) {
        let overlap = a.iter().any(|x| b.iter().any(|y| value_eq(x, y)));
        let both_singleton_eq =
            a.len() == 1 && b.len() == 1 && value_eq(&a[0], &b[0]);
        match op {
            Eq if !overlap => return NeverTrue,
            Eq if both_singleton_eq && certain => return AlwaysTrue,
            NotEq if both_singleton_eq => return NeverTrue,
            NotEq if !overlap && certain && cl == cr && cl != Class::Unknown => {
                return AlwaysTrue;
            }
            _ => {}
        }
    }
    if cl == Class::Num && cr == Class::Num {
        let (a, b) = (l.range, r.range);
        let decided = match op {
            Lt => {
                if a.hi < b.lo && certain {
                    Some(AlwaysTrue)
                } else if a.lo >= b.hi {
                    Some(NeverTrue)
                } else {
                    None
                }
            }
            LtEq => {
                if a.hi <= b.lo && certain {
                    Some(AlwaysTrue)
                } else if a.lo > b.hi {
                    Some(NeverTrue)
                } else {
                    None
                }
            }
            Gt => {
                if a.lo > b.hi && certain {
                    Some(AlwaysTrue)
                } else if a.hi <= b.lo {
                    Some(NeverTrue)
                } else {
                    None
                }
            }
            GtEq => {
                if a.lo >= b.hi && certain {
                    Some(AlwaysTrue)
                } else if a.hi < b.lo {
                    Some(NeverTrue)
                } else {
                    None
                }
            }
            Eq => {
                if a.hi < b.lo || b.hi < a.lo {
                    Some(NeverTrue)
                } else {
                    None
                }
            }
            NotEq => {
                if (a.hi < b.lo || b.hi < a.lo) && certain {
                    Some(AlwaysTrue)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(t) = decided {
            return t;
        }
    }
    if cl == Class::Str && cr == Class::Str && op == Eq {
        let (p, q) = (&l.strs.prefix, &r.strs.prefix);
        if !p.starts_with(q.as_str()) && !q.starts_with(p.as_str()) {
            return NeverTrue;
        }
        if l.strs.len_lo > r.strs.len_hi || r.strs.len_lo > l.strs.len_hi {
            return NeverTrue;
        }
    }
    Unknown
}

// ------------------------------------------------------- filter refinement

/// Refine the domains of rows that *survive* `pred` being TRUE, iterating
/// to a bounded local fixpoint so column↔column bounds propagate.
fn refine(pred: &BoundExpr, cols: &mut [ColDomain]) {
    let mut conjuncts = Vec::new();
    split_and(pred, &mut conjuncts);
    refine_conjuncts(&conjuncts, cols);
}

fn refine_conjuncts(conjuncts: &[&BoundExpr], cols: &mut [ColDomain]) {
    for _ in 0..REFINE_ROUNDS {
        let before = cols.to_vec();
        for c in conjuncts {
            refine_conjunct(c, cols);
        }
        if cols == before.as_slice() {
            break;
        }
    }
}

fn split_and<'e>(e: &'e BoundExpr, out: &mut Vec<&'e BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            split_and(left, out);
            split_and(right, out);
        }
        other => out.push(other),
    }
}

fn refine_conjunct(c: &BoundExpr, cols: &mut [ColDomain]) {
    match c {
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Column(i), BoundExpr::Literal(v)) => {
                    if let Some(d) = cols.get_mut(*i) {
                        refine_cmp_lit(d, *op, v);
                    }
                }
                (BoundExpr::Literal(v), BoundExpr::Column(i)) => {
                    if let Some(d) = cols.get_mut(*i) {
                        refine_cmp_lit(d, mirror(*op), v);
                    }
                }
                (BoundExpr::Column(i), BoundExpr::Column(j)) if i != j => {
                    refine_cmp_cols(cols, *i, *j, *op);
                }
                _ => {}
            }
        }
        BoundExpr::IsNull { expr: e, negated } => {
            if let BoundExpr::Column(i) = e.as_ref() {
                if let Some(d) = cols.get_mut(*i) {
                    if *negated {
                        // survivors are non-NULL
                        if d.nullness == Nullness::AlwaysNull {
                            mark_unsat(d);
                        } else {
                            d.nullness = Nullness::NeverNull;
                        }
                    } else if d.nullness == Nullness::NeverNull {
                        mark_unsat(d);
                    } else {
                        d.nullness = Nullness::AlwaysNull;
                    }
                }
            }
        }
        BoundExpr::InList { expr: e, list, negated } => {
            if let BoundExpr::Column(i) = e.as_ref() {
                let Some(d) = cols.get_mut(*i) else { return };
                if *negated {
                    // NOT IN is only TRUE when the subject is non-NULL; a
                    // NULL item makes it never TRUE at all.
                    if list.iter().any(|it| matches!(it, BoundExpr::Literal(Value::Null))) {
                        mark_unsat(d);
                    } else {
                        d.nullness = Nullness::NeverNull;
                    }
                    return;
                }
                // IN is TRUE only by equality with a non-NULL item.
                d.nullness = Nullness::NeverNull;
                let lits: Option<Vec<&Value>> = list
                    .iter()
                    .map(|it| match it {
                        BoundExpr::Literal(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                if let Some(lits) = lits {
                    let admissible: Vec<Value> = lits
                        .into_iter()
                        .filter_map(|v| in_column_type(v, d.dtype))
                        .filter(|v| !v.is_null() && d.contains(v))
                        .collect();
                    match &d.values {
                        Some(set) => {
                            let kept: Vec<Value> = set
                                .iter()
                                .filter(|x| admissible.iter().any(|v| value_eq(x, v)))
                                .cloned()
                                .collect();
                            d.values = Some(kept);
                        }
                        None => d.values = Some(admissible),
                    }
                }
            }
        }
        BoundExpr::Between { expr: e, low, high, negated: false } => {
            if let BoundExpr::Column(i) = e.as_ref() {
                if let Some(d) = cols.get_mut(*i) {
                    if let BoundExpr::Literal(v) = low.as_ref() {
                        refine_cmp_lit(d, BinaryOp::GtEq, v);
                    }
                    if let BoundExpr::Literal(v) = high.as_ref() {
                        refine_cmp_lit(d, BinaryOp::LtEq, v);
                    }
                }
            }
        }
        BoundExpr::Like { expr: e, pattern, negated: false } => {
            if let BoundExpr::Column(i) = e.as_ref() {
                if let Some(d) = cols.get_mut(*i) {
                    refine_like(d, pattern);
                }
            }
        }
        _ => {}
    }
}

fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Survivors of `col <op> lit` being TRUE: the column is non-NULL, its
/// comparable class matches the literal's, and its range/set shrinks.
fn refine_cmp_lit(d: &mut ColDomain, op: BinaryOp, lit: &Value) {
    if lit.is_null() {
        // col <op> NULL is NULL for every row.
        mark_unsat(d);
        return;
    }
    // A TRUE comparison needs a defined sql_cmp ⇒ same class as the literal.
    let lit_dom = ColDomain::from_value(lit);
    let lc = class_of(&lit_dom);
    match class_of(d) {
        Class::Unknown => {
            // Survivors provably share the literal's class; claim Str/Bool
            // exactly, and for numerics leave dtype open (Int vs Float).
            if lc == Class::Str {
                d.dtype = Some(DataType::Str);
            } else if lc == Class::Bool {
                d.dtype = Some(DataType::Bool);
            }
        }
        c if c != lc => {
            mark_unsat(d);
            return;
        }
        _ => {}
    }
    d.nullness = Nullness::NeverNull;
    match op {
        BinaryOp::Eq => {
            if let Some(set) = &d.values {
                let kept: Vec<Value> =
                    set.iter().filter(|x| value_eq(x, lit)).cloned().collect();
                d.values = Some(kept);
            } else {
                d.values = Some(vec![lit.clone()]);
            }
            if let Some(x) = lit.as_f64() {
                match d.range.intersect(&Interval::point(x)) {
                    Some(r) => d.range = r,
                    None => mark_unsat(d),
                }
            }
            if let Value::Str(s) = lit {
                if d.strs.contains(s) {
                    d.strs = StrDomain::point(s);
                } else {
                    mark_unsat(d);
                }
            }
        }
        BinaryOp::NotEq => {
            if let Some(set) = &d.values {
                d.values =
                    Some(set.iter().filter(|x| !value_eq(x, lit)).cloned().collect());
            }
        }
        BinaryOp::Lt | BinaryOp::LtEq => {
            if let Some(x) = lit.as_f64() {
                // closed superset of the open interval for Lt
                match d.range.intersect(&Interval { lo: f64::NEG_INFINITY, hi: x }) {
                    Some(r) => d.range = r,
                    None => mark_unsat(d),
                }
            }
        }
        BinaryOp::Gt | BinaryOp::GtEq => {
            if let Some(x) = lit.as_f64() {
                match d.range.intersect(&Interval { lo: x, hi: f64::INFINITY }) {
                    Some(r) => d.range = r,
                    None => mark_unsat(d),
                }
            }
        }
        _ => {}
    }
}

/// Survivors of `col_i <op> col_j` being TRUE: both non-NULL; ranges clip
/// against each other (closed supersets, NaN-safe — a NaN never survives a
/// comparison).
fn refine_cmp_cols(cols: &mut [ColDomain], i: usize, j: usize, op: BinaryOp) {
    if i >= cols.len() || j >= cols.len() {
        return;
    }
    let (li, rj) = (cols[i].clone(), cols[j].clone());
    // Cross-class comparison can never be TRUE.
    let (ci, cj) = (class_of(&li), class_of(&rj));
    if ci != Class::Unknown && cj != Class::Unknown && ci != cj {
        mark_unsat(&mut cols[i]);
        return;
    }
    for k in [i, j] {
        if cols[k].nullness == Nullness::AlwaysNull {
            mark_unsat(&mut cols[k]);
        } else {
            cols[k].nullness = Nullness::NeverNull;
        }
    }
    let numeric = ci == Class::Num && cj == Class::Num;
    match op {
        BinaryOp::Eq => {
            if numeric {
                match li.range.intersect(&rj.range) {
                    Some(r) => {
                        cols[i].range = r;
                        cols[j].range = r;
                    }
                    None => {
                        mark_unsat(&mut cols[i]);
                        mark_unsat(&mut cols[j]);
                    }
                }
            }
            if let (Some(a), Some(b)) = (&li.values, &rj.values) {
                let inter: Vec<Value> = a
                    .iter()
                    .filter(|x| b.iter().any(|y| value_eq(x, y)))
                    .cloned()
                    .collect();
                cols[i].values = Some(inter.clone());
                cols[j].values = Some(inter);
            }
        }
        BinaryOp::Lt | BinaryOp::LtEq if numeric => {
            cols[i].range = Interval::new(li.range.lo, li.range.hi.min(rj.range.hi));
            cols[j].range = Interval::new(rj.range.lo.max(li.range.lo), rj.range.hi);
        }
        BinaryOp::Gt | BinaryOp::GtEq if numeric => {
            cols[i].range = Interval::new(li.range.lo.max(rj.range.lo), li.range.hi);
            cols[j].range = Interval::new(rj.range.lo, rj.range.hi.min(li.range.hi));
        }
        _ => {}
    }
}

/// Survivors of `col LIKE pattern`: strings whose prefix matches the
/// pattern's literal prefix and whose length can reach the pattern's
/// minimum match length.
fn refine_like(d: &mut ColDomain, pattern: &str) {
    match class_of(d) {
        Class::Str => {}
        Class::Unknown => d.dtype = Some(DataType::Str),
        _ => {
            // LIKE on a non-string errors per row; no row survives as TRUE.
            mark_unsat(d);
            return;
        }
    }
    d.nullness = Nullness::NeverNull;
    let lit: String = pattern.chars().take_while(|c| *c != '%' && *c != '_').collect();
    if lit.starts_with(d.strs.prefix.as_str()) {
        d.strs.prefix = lit;
    } else if !d.strs.prefix.starts_with(lit.as_str()) {
        mark_unsat(d);
        return;
    }
    let min_len = pattern.chars().filter(|c| *c != '%').count();
    d.strs.len_lo = d.strs.len_lo.max(min_len);
    if !pattern.contains('%') {
        let exact = pattern.chars().count();
        d.strs.len_hi = d.strs.len_hi.min(exact);
    }
    if d.strs.is_empty() {
        mark_unsat(d);
    }
}

// ------------------------------------------------------------ the fixpoint

fn sat_mul(a: u64, b: u64) -> u64 {
    if a == u64::MAX || b == u64::MAX {
        if a == 0 || b == 0 {
            0
        } else {
            u64::MAX
        }
    } else {
        a.saturating_mul(b)
    }
}

/// Compute the abstract domain of every plan node, bottom-up, optionally
/// seeded from catalog statistics (omit them to get facts that hold on
/// *every* database with the plan's schemas).
pub fn domain_tree(plan: &Plan, stats: Option<&Statistics>) -> DomainTree {
    match plan {
        Plan::Scan { table, schema, projection } => {
            DomainTree::leaf(scan_domain(table, schema, projection, stats))
        }
        Plan::Filter { input, predicate } => {
            let child = domain_tree(input, stats);
            let truth = abs_truth(predicate, &child.node.cols);
            let mut cols = child.node.cols.clone();
            let mut conjuncts = Vec::new();
            split_and(predicate, &mut conjuncts);
            // A filter directly above an inner join shares the join's
            // column space, and every joined row satisfies `on`: folding
            // the join condition into the refinement loop lets the
            // fixpoint see cross-node contradictions (e.g. an equi-join
            // key forced into disjoint ranges by the WHERE clause).
            if let Plan::Join { kind: JoinKind::Inner, on, .. } = input.as_ref() {
                split_and(on, &mut conjuncts);
            }
            refine_conjuncts(&conjuncts, &mut cols);
            let unsat = cols.iter().any(ColDomain::is_unsatisfiable);
            let (rows_lo, rows_hi) = if truth == AbsTruth::NeverTrue || unsat {
                (0, 0)
            } else if truth == AbsTruth::AlwaysTrue {
                (child.node.rows_lo, child.node.rows_hi)
            } else {
                (0, child.node.rows_hi)
            };
            DomainTree {
                node: NodeDomain { cols, rows_lo, rows_hi },
                children: vec![child],
            }
        }
        Plan::Join { left, right, kind, on } => {
            let l = domain_tree(left, stats);
            let r = domain_tree(right, stats);
            let node = join_domain(&l.node, &r.node, *kind, on);
            DomainTree { node, children: vec![l, r] }
        }
        Plan::Project { input, exprs, .. } => {
            let child = domain_tree(input, stats);
            let cols = exprs
                .iter()
                .map(|e| sanitize_output(abs_eval(e, &child.node.cols)))
                .collect();
            let node =
                NodeDomain { cols, rows_lo: child.node.rows_lo, rows_hi: child.node.rows_hi };
            DomainTree { node, children: vec![child] }
        }
        Plan::Aggregate { input, group_exprs, aggs, .. } => {
            let child = domain_tree(input, stats);
            let node = aggregate_domain(&child.node, group_exprs, aggs);
            DomainTree { node, children: vec![child] }
        }
        Plan::Distinct { input } => {
            let child = domain_tree(input, stats);
            let rows_lo = child.node.rows_lo.min(1);
            // Distinct output is bounded by the product of the per-column
            // finite value-set sizes (plus a NULL slot each), when known.
            let mut combo: u64 = 1;
            for c in &child.node.cols {
                let per = match &c.values {
                    Some(vs) => {
                        (vs.len() as u64).saturating_add(u64::from(c.nullness.admits_null()))
                    }
                    None => u64::MAX,
                };
                combo = sat_mul(combo, per.max(1));
            }
            let rows_hi = child.node.rows_hi.min(combo);
            let node = NodeDomain { cols: child.node.cols.clone(), rows_lo, rows_hi };
            DomainTree { node, children: vec![child] }
        }
        Plan::Sort { input, .. } => {
            let child = domain_tree(input, stats);
            let node = child.node.clone();
            DomainTree { node, children: vec![child] }
        }
        Plan::Limit { input, limit, offset } => {
            let child = domain_tree(input, stats);
            let off = *offset as u64;
            let cap = limit.map(|l| l as u64).unwrap_or(u64::MAX);
            let rows_lo = child.node.rows_lo.saturating_sub(off).min(cap);
            let rows_hi = if child.node.rows_hi == u64::MAX {
                cap
            } else {
                child.node.rows_hi.saturating_sub(off).min(cap)
            };
            let node = NodeDomain { cols: child.node.cols.clone(), rows_lo, rows_hi };
            DomainTree { node, children: vec![child] }
        }
    }
}

/// The root row-count bounds of the abstract interpretation — intersected
/// into `cardest` estimates by the analyzer's cost pass.
pub fn row_bounds(plan: &Plan, stats: Option<&Statistics>) -> (u64, u64) {
    let t = domain_tree(plan, stats);
    (t.node.rows_lo, t.node.rows_hi)
}

fn scan_domain(
    table: &str,
    schema: &cda_dataframe::Schema,
    projection: &Option<Vec<usize>>,
    stats: Option<&Statistics>,
) -> NodeDomain {
    let ts = stats.and_then(|s| s.get(table));
    let positions: Vec<usize> = match projection {
        Some(p) => p.clone(),
        None => (0..schema.len()).collect(),
    };
    let (rows_lo, rows_hi) = match ts {
        Some(t) => (t.rows, t.rows),
        None => (0, u64::MAX),
    };
    let cols = positions
        .iter()
        .map(|&pos| {
            // Columnar storage is typed: a scan column only ever yields its
            // declared type or NULL.
            let dtype = schema.fields().get(pos).map(|f| f.data_type());
            let mut d = ColDomain { dtype, ..ColDomain::top() };
            if let Some(cs) = ts.and_then(|t| t.columns.get(pos)) {
                d.nullness = if cs.null_count == 0 {
                    Nullness::NeverNull
                } else if cs.null_count == cs.count {
                    Nullness::AlwaysNull
                } else {
                    Nullness::MaybeNull
                };
                match (&cs.min, &cs.max) {
                    (Some(mn), Some(mx)) => {
                        if let (Some(a), Some(b)) = (mn.as_f64(), mx.as_f64()) {
                            d.range = Interval::new(a, b);
                        }
                        if let (Value::Str(a), Value::Str(b)) = (mn, mx) {
                            // Every string between the min and max shares
                            // their common prefix.
                            d.strs.prefix = a
                                .chars()
                                .zip(b.chars())
                                .take_while(|(x, y)| x == y)
                                .map(|(x, _)| x)
                                .collect();
                        }
                        if cs.distinct_count == 1 {
                            d.values = Some(vec![mn.clone()]);
                        }
                    }
                    _ => {
                        // No non-NULL value was observed.
                        if cs.count > 0 {
                            d.nullness = Nullness::AlwaysNull;
                        }
                    }
                }
            }
            d
        })
        .collect();
    NodeDomain { cols, rows_lo, rows_hi }
}

fn join_domain(l: &NodeDomain, r: &NodeDomain, kind: JoinKind, on: &BoundExpr) -> NodeDomain {
    let mut cols: Vec<ColDomain> = l.cols.iter().chain(r.cols.iter()).cloned().collect();
    let truth = abs_truth(on, &cols);
    match kind {
        JoinKind::Inner => {
            refine(on, &mut cols);
            let unsat = cols.iter().any(ColDomain::is_unsatisfiable);
            let (rows_lo, rows_hi) = if truth == AbsTruth::NeverTrue || unsat {
                (0, 0)
            } else if truth == AbsTruth::AlwaysTrue {
                (sat_mul(l.rows_lo, r.rows_lo), sat_mul(l.rows_hi, r.rows_hi))
            } else {
                (0, sat_mul(l.rows_hi, r.rows_hi))
            };
            NodeDomain { cols, rows_lo, rows_hi }
        }
        JoinKind::Left => {
            // Unmatched left rows pad the right side with NULLs; matched
            // rows keep right values, so right columns only gain NULL-ness.
            let never_matches = truth == AbsTruth::NeverTrue;
            for c in cols.iter_mut().skip(l.cols.len()) {
                *c = if never_matches {
                    ColDomain {
                        nullness: Nullness::AlwaysNull,
                        dtype: c.dtype,
                        ..ColDomain::top()
                    }
                } else {
                    ColDomain { nullness: c.nullness.join(Nullness::AlwaysNull), ..c.clone() }
                };
            }
            let rows_hi = if never_matches {
                l.rows_hi
            } else {
                sat_mul(l.rows_hi, r.rows_hi.max(1))
            };
            NodeDomain { cols, rows_lo: l.rows_lo, rows_hi }
        }
    }
}

/// Widen an output-column domain the executors may coerce: when the value
/// type isn't provably uniform, `column_from_values` can rewrite values
/// (Int→Float, anything→Str), so only the NULL-ness claim survives.
fn sanitize_output(d: ColDomain) -> ColDomain {
    if d.dtype.is_some() {
        d
    } else {
        d.erase_to_nullness()
    }
}

/// Relative slack applied to float-folded aggregate bounds: the executor
/// sums in f64, so an exact interval bound can be off by rounding error.
fn slacken(r: Interval) -> Interval {
    let pad = |x: f64, up: bool| {
        if !x.is_finite() {
            return x;
        }
        let eps = x.abs().max(1.0) * 1e-9;
        if up {
            x + eps
        } else {
            x - eps
        }
    };
    Interval::new(pad(r.lo, false), pad(r.hi, true))
}

fn aggregate_domain(input: &NodeDomain, group_exprs: &[BoundExpr], aggs: &[AggExpr]) -> NodeDomain {
    let keyed = !group_exprs.is_empty();
    let (rows_lo, rows_hi) = if keyed {
        (input.rows_lo.min(1), input.rows_hi)
    } else {
        (1, 1)
    };
    let mut cols: Vec<ColDomain> = group_exprs
        .iter()
        .map(|e| sanitize_output(abs_eval(e, &input.cols)))
        .collect();
    // Every group is non-empty; a *global* aggregate's single group is
    // non-empty only when the input provably has rows.
    let group_non_empty = keyed || input.rows_lo >= 1;
    let n_max = if input.rows_hi == u64::MAX { f64::INFINITY } else { input.rows_hi as f64 };
    for agg in aggs {
        let arg = agg.arg.as_ref().map(|a| abs_eval(a, &input.cols));
        let fold_nullness = |a: &ColDomain| {
            if a.nullness == Nullness::AlwaysNull {
                Nullness::AlwaysNull
            } else if a.nullness == Nullness::NeverNull && group_non_empty {
                Nullness::NeverNull
            } else {
                Nullness::MaybeNull
            }
        };
        let d = match (agg.kind, &arg) {
            (AggKind::Count | AggKind::CountDistinct, _) => ColDomain {
                dtype: Some(DataType::Int),
                nullness: Nullness::NeverNull,
                range: Interval::new(0.0, n_max),
                strs: StrDomain::top(),
                values: None,
            },
            (AggKind::Min | AggKind::Max, Some(a)) => {
                // The fold picks one of the argument's values verbatim.
                ColDomain { nullness: fold_nullness(a), ..a.clone() }
            }
            (AggKind::Sum, Some(a)) if class_of(a) == Class::Num => ColDomain {
                dtype: match a.dtype {
                    Some(DataType::Int) => Some(DataType::Int),
                    _ => Some(DataType::Float),
                },
                nullness: fold_nullness(a),
                range: slacken(Interval::new(1.0, n_max).mul(&a.range)),
                strs: StrDomain::top(),
                values: None,
            },
            (AggKind::Avg, Some(a)) if class_of(a) == Class::Num => ColDomain {
                dtype: Some(DataType::Float),
                nullness: fold_nullness(a),
                range: slacken(a.range),
                strs: StrDomain::top(),
                values: None,
            },
            (AggKind::StdDev, Some(a)) if class_of(a) == Class::Num => ColDomain {
                dtype: Some(DataType::Float),
                nullness: fold_nullness(a),
                range: slacken(Interval::new(0.0, a.range.hi - a.range.lo)),
                strs: StrDomain::top(),
                values: None,
            },
            _ => ColDomain::top(),
        };
        cols.push(sanitize_output(d));
    }
    NodeDomain { cols, rows_lo, rows_hi }
}

// ------------------------------------------------------------ the findings

/// Everything the sqlcheck gate consumes from one abstract interpretation:
/// the domain tree (for the sanitizer) plus the provable facts behind codes
/// A015–A018.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-node abstract domains mirroring the plan shape.
    pub tree: DomainTree,
    /// The plan's root provably produces no rows (→ A015). Carries a short
    /// explanation of the contradiction when one filter is responsible.
    pub provably_empty: Option<String>,
    /// Data-grounded tautological filter clauses (→ A016): predicates TRUE
    /// on every row of *this* catalog, excluding constant predicates (the
    /// optimizer's job). Each entry names the clause: `WHERE` or `HAVING`.
    pub tautologies: Vec<String>,
    /// Output columns that are provably NULL in every row (→ A017).
    pub null_columns: Vec<String>,
    /// Expressions that provably raise a runtime error on every execution
    /// (→ A018), rendered with column names.
    pub runtime_errors: Vec<String>,
}

/// Run the abstract interpreter and extract the gate-relevant facts.
pub fn analyze(plan: &Plan, stats: Option<&Statistics>) -> Analysis {
    let tree = domain_tree(plan, stats);
    let mut tautologies = Vec::new();
    let mut contradiction: Option<String> = None;
    let mut runtime_errors = Vec::new();
    walk(plan, &tree, stats.is_some(), &mut tautologies, &mut contradiction, &mut runtime_errors);

    let provably_empty = tree.node.is_provably_empty().then(|| {
        contradiction
            .clone()
            .unwrap_or_else(|| "no possible database row satisfies the plan".to_string())
    });
    let out_schema = plan.schema();
    let null_columns = if tree.node.is_provably_empty() {
        Vec::new() // an empty result has no rows to be NULL in
    } else {
        tree.node
            .cols
            .iter()
            .zip(out_schema.fields())
            .filter(|(d, _)| d.nullness == Nullness::AlwaysNull)
            .map(|(_, f)| f.name().to_string())
            .collect()
    };
    Analysis { tree, provably_empty, tautologies, null_columns, runtime_errors }
}

fn walk(
    plan: &Plan,
    tree: &DomainTree,
    has_stats: bool,
    tautologies: &mut Vec<String>,
    contradiction: &mut Option<String>,
    errors: &mut Vec<String>,
) {
    let in_cols = |k: usize| tree.children.get(k).map(|c| c.node.cols.as_slice()).unwrap_or(&[]);
    match plan {
        Plan::Filter { input, predicate } => {
            let cols = in_cols(0);
            let truth = abs_truth(predicate, cols);
            let clause =
                if matches!(input.as_ref(), Plan::Aggregate { .. }) { "HAVING" } else { "WHERE" };
            let names = schema_names(&input.schema());
            if truth == AbsTruth::AlwaysTrue && !predicate.is_constant() && has_stats {
                // Data-grounded only: TRUE on this catalog's domains but
                // not by constant folding alone.
                let top = vec![ColDomain::top(); cols.len()];
                if abs_truth(predicate, &top) != AbsTruth::AlwaysTrue {
                    tautologies.push(clause.to_string());
                }
            }
            if tree.node.is_provably_empty() && contradiction.is_none() {
                let input_live = tree
                    .children
                    .first()
                    .map(|c| !c.node.is_provably_empty())
                    .unwrap_or(false);
                if input_live {
                    *contradiction = Some(format!(
                        "the {clause} predicate {} selects no row",
                        render_expr(predicate, &names)
                    ));
                }
            }
            find_errors(predicate, cols, tree.node.rows_lo.max(child_rows_lo(tree)), &names, errors);
        }
        Plan::Project { exprs, input, .. } => {
            let names = schema_names(&input.schema());
            for e in exprs {
                find_errors(e, in_cols(0), child_rows_lo(tree), &names, errors);
            }
        }
        Plan::Aggregate { group_exprs, aggs, input, .. } => {
            let names = schema_names(&input.schema());
            for e in group_exprs {
                find_errors(e, in_cols(0), child_rows_lo(tree), &names, errors);
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    find_errors(e, in_cols(0), child_rows_lo(tree), &names, errors);
                }
            }
        }
        Plan::Join { left, right, on, .. } => {
            let mut names = schema_names(&left.schema());
            names.extend(schema_names(&right.schema()));
            let cols: Vec<ColDomain> = tree
                .children
                .iter()
                .flat_map(|c| c.node.cols.iter().cloned())
                .collect();
            // Join conditions run over candidate pairs; a pair is only
            // guaranteed when both sides provably have a row.
            let pairs_lo = tree
                .children
                .iter()
                .map(|c| c.node.rows_lo)
                .fold(1u64, sat_mul);
            find_errors(on, &cols, pairs_lo, &names, errors);
        }
        _ => {}
    }
    let children: Vec<&Plan> = match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => vec![input],
        Plan::Join { left, right, .. } => vec![left, right],
        Plan::Scan { .. } => vec![],
    };
    for (child_plan, child_tree) in children.into_iter().zip(&tree.children) {
        walk(child_plan, child_tree, has_stats, tautologies, contradiction, errors);
    }
}

fn child_rows_lo(tree: &DomainTree) -> u64 {
    tree.children.first().map(|c| c.node.rows_lo).unwrap_or(0)
}

fn schema_names(schema: &cda_dataframe::Schema) -> Vec<String> {
    schema.fields().iter().map(|f| f.name().to_string()).collect()
}

/// Scan an expression for division/modulo that provably errors: divisor
/// domain exactly `{0}`, both operands `NeverNull` (NULL propagates
/// *before* the zero check), at least one guaranteed evaluation
/// (`rows_lo ≥ 1`), and an unconditionally-evaluated position (the
/// executors short-circuit `AND`/`OR` and `CASE`).
fn find_errors(
    e: &BoundExpr,
    cols: &[ColDomain],
    rows_lo: u64,
    names: &[String],
    out: &mut Vec<String>,
) {
    if rows_lo == 0 {
        return;
    }
    let mut hit = |expr: &BoundExpr| {
        if let BoundExpr::Binary { left, op: op @ (BinaryOp::Div | BinaryOp::Mod), right } = expr {
            let num = abs_eval(left, cols);
            let den = abs_eval(right, cols);
            let zero = den.range == Interval::point(0.0)
                || matches!(&den.values, Some(vs) if !vs.is_empty()
                    && vs.iter().all(|v| v.as_f64() == Some(0.0)));
            if zero
                && class_of(&den) == Class::Num
                && num.nullness == Nullness::NeverNull
                && den.nullness == Nullness::NeverNull
                && class_of(&num) == Class::Num
            {
                out.push(format!(
                    "{} (the divisor is provably 0)",
                    render_expr_op(left, *op, right, names)
                ));
            }
        }
    };
    always_evaluated(e, &mut hit);
}

/// Visit `e` and every sub-expression the executor is guaranteed to
/// evaluate whenever `e` is evaluated.
fn always_evaluated<'e>(e: &'e BoundExpr, f: &mut impl FnMut(&'e BoundExpr)) {
    f(e);
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And | BinaryOp::Or, .. } => {
            // the right arm may be short-circuited away
            always_evaluated(left, f);
        }
        BoundExpr::Binary { left, right, .. } => {
            always_evaluated(left, f);
            always_evaluated(right, f);
        }
        BoundExpr::Neg(x) | BoundExpr::Not(x) => always_evaluated(x, f),
        BoundExpr::IsNull { expr, .. } | BoundExpr::Like { expr, .. } => {
            always_evaluated(expr, f);
        }
        BoundExpr::InList { expr, .. } => always_evaluated(expr, f),
        BoundExpr::Between { expr, low, high, .. } => {
            always_evaluated(expr, f);
            always_evaluated(low, f);
            always_evaluated(high, f);
        }
        BoundExpr::Case { branches, .. } => {
            // only the first condition is unconditionally evaluated
            if let Some((cond, _)) = branches.first() {
                always_evaluated(cond, f);
            }
        }
        BoundExpr::Literal(_) | BoundExpr::Column(_) => {}
    }
}

// ------------------------------------------------------------ NL rendering

fn render_expr_op(l: &BoundExpr, op: BinaryOp, r: &BoundExpr, names: &[String]) -> String {
    format!("{} {} {}", render_expr(l, names), op.sql(), render_expr(r, names))
}

/// Compact SQL-ish rendering of a bound expression with column names, for
/// finding messages.
pub(crate) fn render_expr(e: &BoundExpr, names: &[String]) -> String {
    match e {
        BoundExpr::Literal(Value::Str(s)) => format!("'{s}'"),
        BoundExpr::Literal(v) => v.to_string(),
        BoundExpr::Column(i) => {
            names.get(*i).cloned().unwrap_or_else(|| format!("col{i}"))
        }
        BoundExpr::Binary { left, op, right } => {
            format!("({})", render_expr_op(left, *op, right, names))
        }
        BoundExpr::Neg(x) => format!("-{}", render_expr(x, names)),
        BoundExpr::Not(x) => format!("NOT {}", render_expr(x, names)),
        BoundExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr, names),
            if *negated { "NOT " } else { "" }
        ),
        BoundExpr::InList { expr, list, negated } => format!(
            "{} {}IN ({})",
            render_expr(expr, names),
            if *negated { "NOT " } else { "" },
            list.iter().map(|i| render_expr(i, names)).collect::<Vec<_>>().join(", ")
        ),
        BoundExpr::Between { expr, low, high, negated } => format!(
            "{} {}BETWEEN {} AND {}",
            render_expr(expr, names),
            if *negated { "NOT " } else { "" },
            render_expr(low, names),
            render_expr(high, names)
        ),
        BoundExpr::Like { expr, pattern, negated } => format!(
            "{} {}LIKE '{pattern}'",
            render_expr(expr, names),
            if *negated { "NOT " } else { "" }
        ),
        BoundExpr::Case { .. } => "CASE ... END".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, Field, Schema, Table};
    use cda_sql::planner::plan_select;
    use cda_sql::parser::parse;
    use cda_sql::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            vec![
                Column::from_strs(&["ZH", "BE", "ZH", "GE"]),
                Column::from_strs(&["it", "it", "finance", "health"]),
                Column::from_opt_ints(&[Some(120), Some(0), Some(340), None]),
                Column::from_floats(&[1.5, 0.0, 2.25, 3.5]),
            ],
        )
        .unwrap();
        c.register("emp", emp).unwrap();
        c
    }

    fn plan(c: &Catalog, sql: &str) -> Plan {
        plan_select(c, &parse(sql).unwrap()).unwrap()
    }

    fn stats(c: &Catalog) -> Statistics {
        Statistics::from_catalog(c)
    }

    #[test]
    fn scan_seeds_from_statistics() {
        let c = catalog();
        let s = stats(&c);
        let t = domain_tree(&plan(&c, "SELECT canton, jobs FROM emp"), Some(&s));
        // Project over Scan: canton NeverNull Str, jobs MaybeNull in [0,340]
        assert_eq!(t.node.rows_lo, 4);
        assert_eq!(t.node.rows_hi, 4);
        let jobs = &t.node.cols[1];
        assert_eq!(jobs.nullness, Nullness::MaybeNull);
        assert_eq!(jobs.range, Interval::new(0.0, 340.0));
        let canton = &t.node.cols[0];
        assert_eq!(canton.nullness, Nullness::NeverNull);
        assert_eq!(canton.dtype, Some(DataType::Str));
    }

    #[test]
    fn contradictory_equalities_prove_empty() {
        let c = catalog();
        let a = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs = 5 AND jobs = 6"), None);
        assert!(a.provably_empty.is_some(), "{a:?}");
    }

    #[test]
    fn comparison_with_null_literal_proves_empty() {
        let c = catalog();
        let a = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs = NULL"), None);
        assert!(a.provably_empty.is_some());
    }

    #[test]
    fn not_in_with_null_item_proves_empty() {
        let c = catalog();
        let a = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs NOT IN (1, NULL)"), None);
        assert!(a.provably_empty.is_some());
    }

    #[test]
    fn stats_grounded_range_contradiction() {
        let c = catalog();
        let s = stats(&c);
        let a = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs > 1000"), Some(&s));
        assert!(a.provably_empty.is_some(), "max(jobs)=340 refutes jobs>1000");
        // ...but without statistics nothing can be proven.
        let b = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs > 1000"), None);
        assert!(b.provably_empty.is_none());
    }

    #[test]
    fn data_grounded_tautology_detected_but_not_constant_folds() {
        let c = catalog();
        let s = stats(&c);
        // canton is NeverNull per stats, so IS NOT NULL is a tautology on
        // this catalog — but not a constant one.
        let a = analyze(&plan(&c, "SELECT canton FROM emp WHERE canton IS NOT NULL"), Some(&s));
        assert_eq!(a.tautologies, vec!["WHERE".to_string()]);
        // 1 = 1 is constant: the optimizer's territory, not A016's.
        let b = analyze(&plan(&c, "SELECT canton FROM emp WHERE 1 = 1"), Some(&s));
        assert!(b.tautologies.is_empty());
        // jobs ≥ 0 holds on this catalog but jobs is nullable → NOT a
        // tautology (NULL rows are unselected).
        let d = analyze(&plan(&c, "SELECT canton FROM emp WHERE jobs >= 0"), Some(&s));
        assert!(d.tautologies.is_empty());
        // rate is a NeverNull float: NaN can't be ruled out, so no
        // AlwaysTrue claim even though stats say rate ≥ 0.
        let e = analyze(&plan(&c, "SELECT canton FROM emp WHERE rate >= 0.0"), Some(&s));
        assert!(e.tautologies.is_empty());
    }

    #[test]
    fn provably_null_output_column() {
        let c = catalog();
        let a = analyze(&plan(&c, "SELECT jobs + NULL FROM emp"), None);
        assert_eq!(a.null_columns.len(), 1, "{a:?}");
    }

    #[test]
    fn provable_division_by_zero_needs_never_null() {
        let c = catalog();
        let s = stats(&c);
        // jobs is nullable: NULL / 0 is NULL, not an error → no A018.
        let a = analyze(&plan(&c, "SELECT jobs / 0 FROM emp"), Some(&s));
        assert!(a.runtime_errors.is_empty(), "{a:?}");
        // canton is NeverNull but a string: arithmetic errors are not the
        // divide-by-zero proof (class mismatch) → no claim.
        let b = analyze(&plan(&c, "SELECT 1 / (jobs - jobs) FROM emp"), Some(&s));
        assert!(b.runtime_errors.is_empty(), "jobs-jobs is NULL when jobs is");
        // A literal divisor 0 with a NeverNull numeric numerator and a
        // guaranteed row fires.
        let d = analyze(&plan(&c, "SELECT 1 / 0 FROM emp"), Some(&s));
        assert_eq!(d.runtime_errors.len(), 1, "{d:?}");
        // ...but not when the table might be empty (no stats).
        let e = analyze(&plan(&c, "SELECT 1 / 0 FROM emp"), None);
        assert!(e.runtime_errors.is_empty());
    }

    #[test]
    fn short_circuit_positions_do_not_fire_a018() {
        let c = catalog();
        let s = stats(&c);
        // the division is in the right arm of an AND: may be skipped
        let a = analyze(
            &plan(&c, "SELECT canton FROM emp WHERE canton = 'ZH' AND 1 / 0 > 1"),
            Some(&s),
        );
        assert!(a.runtime_errors.is_empty(), "{a:?}");
        // in the left arm it is always evaluated
        let b = analyze(
            &plan(&c, "SELECT canton FROM emp WHERE 1 / 0 > 1 AND canton = 'ZH'"),
            Some(&s),
        );
        assert_eq!(b.runtime_errors.len(), 1, "{b:?}");
    }

    #[test]
    fn join_with_disjoint_keys_proves_empty() {
        let mut c = catalog();
        let regions = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("population", DataType::Int),
            ]),
            vec![
                Column::from_strs(&["ZH", "BE"]),
                Column::from_ints(&[1_500_000, 1_000_000]),
            ],
        )
        .unwrap();
        c.register("regions", regions).unwrap();
        let a = analyze(
            &plan(
                &c,
                "SELECT e.canton FROM emp e JOIN regions r ON e.jobs = r.population \
                 WHERE e.jobs < 10 AND r.population > 100",
            ),
            None,
        );
        assert!(a.provably_empty.is_some(), "{a:?}");
    }

    #[test]
    fn limit_and_offset_row_arithmetic() {
        let c = catalog();
        let s = stats(&c);
        let (lo, hi) =
            row_bounds(&plan(&c, "SELECT canton FROM emp LIMIT 2 OFFSET 1"), Some(&s));
        assert_eq!((lo, hi), (2, 2), "4 rows, skip 1, take 2");
        let (lo, hi) = row_bounds(&plan(&c, "SELECT canton FROM emp LIMIT 100"), Some(&s));
        assert_eq!((lo, hi), (4, 4));
    }

    #[test]
    fn global_aggregate_is_exactly_one_row() {
        let c = catalog();
        let (lo, hi) = row_bounds(&plan(&c, "SELECT COUNT(*) FROM emp"), None);
        assert_eq!((lo, hi), (1, 1));
    }

    #[test]
    fn refinement_is_a_reduction() {
        // refined domains must stay inside the input domains (soundness of
        // refinement as intersection)
        let c = catalog();
        let s = stats(&c);
        let t = domain_tree(
            &plan(&c, "SELECT canton FROM emp WHERE jobs BETWEEN 10 AND 200"),
            Some(&s),
        );
        // root is Project(Filter(Scan)); filter's jobs col is child 0's col 2
        let filter = &t.children[0];
        let jobs = &filter.node.cols[2];
        assert_eq!(jobs.nullness, Nullness::NeverNull);
        assert_eq!(jobs.range, Interval::new(10.0, 200.0));
    }

    #[test]
    fn join_monotone_on_samples() {
        // join(a, b) must contain everything a and b contain
        let vals =
            [Value::Int(3), Value::Str("zh".into()), Value::Null, Value::Float(2.5)];
        for x in &vals {
            for y in &vals {
                let j = ColDomain::from_value(x).join(&ColDomain::from_value(y));
                assert!(j.contains(x), "{x:?} ∉ join({x:?},{y:?})");
                assert!(j.contains(y), "{y:?} ∉ join({x:?},{y:?})");
            }
        }
    }
}
