//! Logical plans and bound expressions.
//!
//! After name binding, column references become flat positional indices into
//! the operator's input row ([`BoundExpr::Column`]); evaluation is then a
//! pure function of the row. Plans are trees of [`Plan`] nodes produced by
//! the planner, rewritten by the optimizer, and interpreted by the executor.

use crate::ast::{BinaryOp, JoinKind};
use crate::error::SqlError;
use crate::Result;
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{Schema, Value};
use std::fmt;

/// An expression whose column references are bound to input positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Literal value.
    Literal(Value),
    /// Input column at position `usize`.
    Column(usize),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// Membership test.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// True for NOT IN.
        negated: bool,
    },
    /// Range test (inclusive).
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// True for NOT BETWEEN.
        negated: bool,
    },
    /// SQL LIKE with `%`/`_`.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern.
        pattern: String,
        /// True for NOT LIKE.
        negated: bool,
    },
    /// CASE WHEN.
    Case {
        /// (condition, result) arms.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// Optional ELSE.
        else_expr: Option<Box<BoundExpr>>,
    },
}

impl BoundExpr {
    /// Evaluate against one input row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| SqlError::Eval(format!("column index {i} out of row bounds"))),
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval(row)?;
                // short-circuit three-valued logic for AND/OR
                match op {
                    BinaryOp::And => {
                        return eval_and(&l, || right.eval(row));
                    }
                    BinaryOp::Or => {
                        return eval_or(&l, || right.eval(row));
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(&l, *op, &r)
            }
            BoundExpr::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Float(v) => Ok(Value::Float(-v)),
                other => Err(SqlError::Eval(format!("cannot negate {other:?}"))),
            },
            BoundExpr::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(SqlError::Eval(format!("NOT expects BOOL, got {other:?}"))),
            },
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval(row)?;
                    match v.sql_eq(&w) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between { expr, low, high, negated } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            BoundExpr::Like { expr, pattern, negated } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != *negated)),
                    other => Err(SqlError::Eval(format!("LIKE expects STR, got {other:?}"))),
                }
            }
            BoundExpr::Case { branches, else_expr } => {
                for (cond, val) in branches {
                    if cond.eval(row)?.as_bool() == Some(true) {
                        return val.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Call `f` on each direct subexpression, in evaluation order.
    pub fn for_each_child<'e>(&'e self, mut f: impl FnMut(&'e BoundExpr)) {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::Neg(e) | BoundExpr::Not(e) => f(e),
            BoundExpr::IsNull { expr, .. } | BoundExpr::Like { expr, .. } => f(expr),
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::Case { branches, else_expr } => {
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                else_expr.iter().for_each(|e| f(e));
            }
        }
    }

    /// True if the expression references no columns (is a constant).
    pub fn is_constant(&self) -> bool {
        let mut constant = !matches!(self, BoundExpr::Column(_));
        self.for_each_child(|e| constant = constant && e.is_constant());
        constant
    }

    /// Collect referenced column indices into `out` (with duplicates).
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        if let BoundExpr::Column(i) = self {
            out.push(*i);
        }
        self.for_each_child(|e| e.collect_columns(out));
    }

    /// Rewrite every column index through `f` (used when pushing expressions
    /// past projections/joins).
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> BoundExpr {
        match self {
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::Column(i) => BoundExpr::Column(f(*i)),
            BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.remap_columns(f)),
                op: *op,
                right: Box::new(right.remap_columns(f)),
            },
            BoundExpr::Neg(e) => BoundExpr::Neg(Box::new(e.remap_columns(f))),
            BoundExpr::Not(e) => BoundExpr::Not(Box::new(e.remap_columns(f))),
            BoundExpr::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: Box::new(expr.remap_columns(f)), negated: *negated }
            }
            BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(expr.remap_columns(f)),
                list: list.iter().map(|e| e.remap_columns(f)).collect(),
                negated: *negated,
            },
            BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
                expr: Box::new(expr.remap_columns(f)),
                low: Box::new(low.remap_columns(f)),
                high: Box::new(high.remap_columns(f)),
                negated: *negated,
            },
            BoundExpr::Like { expr, pattern, negated } => BoundExpr::Like {
                expr: Box::new(expr.remap_columns(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            BoundExpr::Case { branches, else_expr } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.remap_columns(f), v.remap_columns(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.remap_columns(f))),
            },
        }
    }
}

fn eval_and(l: &Value, r: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match l.as_bool() {
        Some(false) => Ok(Value::Bool(false)),
        Some(true) => {
            let rv = r()?;
            match rv.as_bool() {
                Some(b) => Ok(Value::Bool(b)),
                None if rv.is_null() => Ok(Value::Null),
                None => Err(SqlError::Eval(format!("AND expects BOOL, got {rv:?}"))),
            }
        }
        None if l.is_null() => {
            let rv = r()?;
            match rv.as_bool() {
                Some(false) => Ok(Value::Bool(false)),
                _ => Ok(Value::Null),
            }
        }
        None => Err(SqlError::Eval(format!("AND expects BOOL, got {l:?}"))),
    }
}

fn eval_or(l: &Value, r: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match l.as_bool() {
        Some(true) => Ok(Value::Bool(true)),
        Some(false) => {
            let rv = r()?;
            match rv.as_bool() {
                Some(b) => Ok(Value::Bool(b)),
                None if rv.is_null() => Ok(Value::Null),
                None => Err(SqlError::Eval(format!("OR expects BOOL, got {rv:?}"))),
            }
        }
        None if l.is_null() => {
            let rv = r()?;
            match rv.as_bool() {
                Some(true) => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            }
        }
        None => Err(SqlError::Eval(format!("OR expects BOOL, got {l:?}"))),
    }
}

fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    if op.is_comparison() {
        return Ok(match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => {
                    return Err(SqlError::Eval(format!("operator {op:?} is not a comparison")))
                }
            }),
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation via + as a convenience.
    if op == Add {
        if let (Value::Str(a), Value::Str(b)) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(SqlError::Eval(format!(
                "arithmetic {op:?} needs numeric operands, got {l:?} and {r:?}"
            )))
        }
    };
    let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
    let result = match op {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div => {
            if b == 0.0 {
                return Err(SqlError::Eval("division by zero".into()));
            }
            a / b
        }
        Mod => {
            if b == 0.0 {
                return Err(SqlError::Eval("modulo by zero".into()));
            }
            a % b
        }
        _ => return Err(SqlError::Eval(format!("operator {op:?} is not arithmetic"))),
    };
    if both_int && (op != Div || result.fract() == 0.0) {
        Ok(Value::Int(result as i64))
    } else {
        Ok(Value::Float(result))
    }
}

/// SQL LIKE matcher supporting `%` (any run) and `_` (single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some('%'), _) => {
                // match zero or more characters
                if rec(s, &p[1..]) {
                    return true;
                }
                !s.is_empty() && rec(&s[1..], p)
            }
            (Some('_'), Some(_)) => rec(&s[1..], &p[1..]),
            (Some(pc), Some(sc)) if pc == sc => rec(&s[1..], &p[1..]),
            _ => false,
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// One aggregate computation in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Aggregate function.
    pub kind: AggKind,
    /// Argument (None for COUNT(*)).
    pub arg: Option<BoundExpr>,
}

/// Sort direction + key column (post-projection index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSpec {
    /// Column index in the operator's input.
    pub column: usize,
    /// True for descending.
    pub descending: bool,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base table, optionally projecting a subset of columns.
    Scan {
        /// Catalog table name.
        table: String,
        /// Full schema of the base table.
        schema: Schema,
        /// If set, only these column positions are materialized.
        projection: Option<Vec<usize>>,
    },
    /// Filter rows by a boolean predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over input rows.
        predicate: BoundExpr,
    },
    /// Nested-loop join.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join kind.
        kind: JoinKind,
        /// Condition over the concatenated row.
        on: BoundExpr,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
        /// Output schema (names + types).
        schema: Schema,
    },
    /// Group and aggregate. Output row = group key values ++ aggregate values.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by key expressions (empty = single global group).
        group_exprs: Vec<BoundExpr>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sort rows.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, highest priority first.
        keys: Vec<SortSpec>,
    },
    /// Limit/offset.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Max rows to emit.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
}

impl Plan {
    /// The output schema of this plan node.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan { schema, projection, .. } => match projection {
                Some(p) => schema.project(p),
                None => schema.clone(),
            },
            Plan::Filter { input, .. } | Plan::Distinct { input } => input.schema(),
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.schema(),
            Plan::Join { left, right, .. } => left.schema().join(&right.schema()),
            Plan::Project { schema, .. } | Plan::Aggregate { schema, .. } => schema.clone(),
        }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.schema().len()
    }

    /// Render the plan tree, one node per line, indented — the `EXPLAIN`
    /// output surfaced to users as part of P3 explanations.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table, projection, .. } => {
                let _ = write!(out, "{pad}Scan {table}");
                if let Some(p) = projection {
                    let _ = write!(out, " (cols {p:?})");
                }
                out.push('\n');
            }
            Plan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate:?}");
                input.explain_into(out, depth + 1);
            }
            Plan::Join { left, right, kind, on } => {
                let _ = writeln!(out, "{pad}Join {kind:?} on {on:?}");
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Plan::Project { input, exprs, .. } => {
                let _ = writeln!(out, "{pad}Project [{} exprs]", exprs.len());
                input.explain_into(out, depth + 1);
            }
            Plan::Aggregate { input, group_exprs, aggs, .. } => {
                let _ = writeln!(out, "{pad}Aggregate [{} keys, {} aggs]", group_exprs.len(), aggs.len());
                input.explain_into(out, depth + 1);
            }
            Plan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.explain_into(out, depth + 1);
            }
            Plan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort {keys:?}");
                input.explain_into(out, depth + 1);
            }
            Plan::Limit { input, limit, offset } => {
                let _ = writeln!(out, "{pad}Limit {limit:?} offset {offset}");
                input.explain_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(10), Value::from("Zurich"), Value::Null, Value::Bool(true)]
    }

    #[test]
    fn column_and_literal_eval() {
        let r = row();
        assert_eq!(BoundExpr::Column(0).eval(&r).unwrap(), Value::Int(10));
        assert_eq!(BoundExpr::Literal(Value::Float(1.5)).eval(&r).unwrap(), Value::Float(1.5));
        assert!(BoundExpr::Column(9).eval(&r).is_err());
    }

    #[test]
    fn arithmetic_preserves_int_and_widens() {
        let r = row();
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int(3))),
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(30));
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Literal(Value::Float(0.5))),
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Float(10.5));
    }

    #[test]
    fn integer_division_yields_int_when_exact() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(10))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int(2))),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(10))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int(4))),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int(0))),
        };
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn string_concat_via_plus() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::from("a"))),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Literal(Value::from("b"))),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::from("ab"));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let r = row();
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(2)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        assert!(e.eval(&r).unwrap().is_null());
    }

    #[test]
    fn three_valued_and_or() {
        let t = BoundExpr::Literal(Value::Bool(true));
        let f = BoundExpr::Literal(Value::Bool(false));
        let n = BoundExpr::Literal(Value::Null);
        let and = |a: &BoundExpr, b: &BoundExpr| BoundExpr::Binary {
            left: Box::new(a.clone()),
            op: BinaryOp::And,
            right: Box::new(b.clone()),
        };
        let or = |a: &BoundExpr, b: &BoundExpr| BoundExpr::Binary {
            left: Box::new(a.clone()),
            op: BinaryOp::Or,
            right: Box::new(b.clone()),
        };
        assert_eq!(and(&f, &n).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(and(&n, &f).eval(&[]).unwrap(), Value::Bool(false));
        assert!(and(&t, &n).eval(&[]).unwrap().is_null());
        assert_eq!(or(&t, &n).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(or(&n, &t).eval(&[]).unwrap(), Value::Bool(true));
        assert!(or(&f, &n).eval(&[]).unwrap().is_null());
    }

    #[test]
    fn comparisons_with_null_are_null() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Null)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        assert!(e.eval(&[]).unwrap().is_null());
    }

    #[test]
    fn is_null_and_negation() {
        let r = row();
        let e = BoundExpr::IsNull { expr: Box::new(BoundExpr::Column(2)), negated: false };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = BoundExpr::IsNull { expr: Box::new(BoundExpr::Column(0)), negated: true };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_three_valued() {
        let e = BoundExpr::InList {
            expr: Box::new(BoundExpr::Literal(Value::Int(2))),
            list: vec![BoundExpr::Literal(Value::Int(1)), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        // 2 not in {1, NULL} → unknown
        assert!(e.eval(&[]).unwrap().is_null());
        let e = BoundExpr::InList {
            expr: Box::new(BoundExpr::Literal(Value::Int(1))),
            list: vec![BoundExpr::Literal(Value::Int(1)), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let mk = |v: i64, neg: bool| BoundExpr::Between {
            expr: Box::new(BoundExpr::Literal(Value::Int(v))),
            low: Box::new(BoundExpr::Literal(Value::Int(1))),
            high: Box::new(BoundExpr::Literal(Value::Int(5))),
            negated: neg,
        };
        assert_eq!(mk(1, false).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(mk(5, false).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(mk(6, false).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(mk(6, true).eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("Zurich", "Z%"));
        assert!(like_match("Zurich", "%rich"));
        assert!(like_match("Zurich", "Z_rich"));
        assert!(like_match("Zurich", "%"));
        assert!(!like_match("Zurich", "z%"));
        assert!(!like_match("Zurich", "_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn case_falls_through_to_else_or_null() {
        let case = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Literal(Value::Bool(false)),
                BoundExpr::Literal(Value::Int(1)),
            )],
            else_expr: Some(Box::new(BoundExpr::Literal(Value::Int(2)))),
        };
        assert_eq!(case.eval(&[]).unwrap(), Value::Int(2));
        let case = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Literal(Value::Bool(false)),
                BoundExpr::Literal(Value::Int(1)),
            )],
            else_expr: None,
        };
        assert!(case.eval(&[]).unwrap().is_null());
    }

    #[test]
    fn constantness_and_column_collection() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(3)),
            op: BinaryOp::And,
            right: Box::new(BoundExpr::Literal(Value::Bool(true))),
        };
        assert!(!e.is_constant());
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec![3]);
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols = Vec::new();
        remapped.collect_columns(&mut cols);
        assert_eq!(cols, vec![13]);
    }

    #[test]
    fn plan_schema_and_explain() {
        use cda_dataframe::{DataType, Field};
        let scan = Plan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
            ]),
            projection: Some(vec![1]),
        };
        assert_eq!(scan.arity(), 1);
        let filter = Plan::Filter {
            input: Box::new(scan),
            predicate: BoundExpr::Literal(Value::Bool(true)),
        };
        let text = filter.explain();
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan t"));
        assert_eq!(filter.to_string(), text);
    }
}
