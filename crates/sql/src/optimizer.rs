//! Rule-based logical optimizer.
//!
//! Rules are individually toggleable so experiment **E11** can measure the
//! effect of each — the paper's "holistic optimizer" claim, quantified:
//!
//! * **constant folding** — evaluate constant subexpressions at plan time;
//!   a filter that folds to `TRUE` is removed, one that folds to `FALSE`
//!   short-circuits to an empty scan.
//! * **predicate pushdown** — split conjunctive filters and push each
//!   conjunct below joins to the side it references, shrinking join inputs.
//! * **projection pruning** — compute which base columns are actually used
//!   and record them in `Scan.projection`, so the executor materializes
//!   narrower intermediates.
//!
//! Filter rewrites (splitting, pushing, merging) are gated on the moved
//! predicates being **error-free**: `AND` short-circuits, so separating a
//! conjunct that can raise a runtime error (division by zero, arithmetic
//! over the wrong type) from its neighbours — or evaluating it on rows an
//! earlier filter would have dropped — could change whether the error
//! fires. Every rewrite is differentially certified against its input by
//! `cda-analyzer::equiv` (see `tests/certify.rs`); DESIGN.md §11 carries
//! the per-rule soundness arguments.

use crate::ast::{BinaryOp, JoinKind};
use crate::plan::{BoundExpr, Plan};
use cda_dataframe::Value;

/// Which optimizer rules to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerRules {
    /// Fold constant subexpressions.
    pub constant_folding: bool,
    /// Push filter conjuncts below joins.
    pub predicate_pushdown: bool,
    /// Prune unused base-table columns at scans.
    pub projection_pruning: bool,
}

impl Default for OptimizerRules {
    fn default() -> Self {
        Self::all()
    }
}

impl OptimizerRules {
    /// All rules enabled.
    pub fn all() -> Self {
        Self { constant_folding: true, predicate_pushdown: true, projection_pruning: true }
    }

    /// All rules disabled (naive execution).
    pub fn none() -> Self {
        Self { constant_folding: false, predicate_pushdown: false, projection_pruning: false }
    }
}

/// Optimize a plan with the given rules.
pub fn optimize(plan: Plan, rules: OptimizerRules) -> Plan {
    let mut plan = plan;
    if rules.constant_folding {
        plan = fold_plan(plan);
    }
    if rules.predicate_pushdown {
        plan = pushdown(plan);
    }
    if rules.projection_pruning {
        plan = prune(plan);
    }
    plan
}

// ---------------------------------------------------------------- folding

fn fold_plan(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = Box::new(fold_plan(*input));
            let predicate = fold_expr(predicate);
            match &predicate {
                BoundExpr::Literal(Value::Bool(true)) => *input,
                _ => Plan::Filter { input, predicate },
            }
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(fold_plan(*left)),
            right: Box::new(fold_plan(*right)),
            kind,
            on: fold_expr(on),
        },
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: Box::new(fold_plan(*input)),
            exprs: exprs.into_iter().map(fold_expr).collect(),
            schema,
        },
        Plan::Aggregate { input, group_exprs, aggs, schema } => Plan::Aggregate {
            input: Box::new(fold_plan(*input)),
            group_exprs: group_exprs.into_iter().map(fold_expr).collect(),
            aggs,
            schema,
        },
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(fold_plan(*input)) },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(fold_plan(*input)), keys },
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: Box::new(fold_plan(*input)), limit, offset }
        }
        scan @ Plan::Scan { .. } => scan,
    }
}

/// Fold constant subexpressions bottom-up. Expressions that would error at
/// fold time (e.g. `1/0`) are left unfolded so the error surfaces at runtime
/// with full row context.
pub fn fold_expr(expr: BoundExpr) -> BoundExpr {
    let folded = match expr {
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        BoundExpr::Neg(e) => BoundExpr::Neg(Box::new(fold_expr(*e))),
        BoundExpr::Not(e) => BoundExpr::Not(Box::new(fold_expr(*e))),
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(fold_expr(*expr)), negated }
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(fold_expr(*expr)),
            low: Box::new(fold_expr(*low)),
            high: Box::new(fold_expr(*high)),
            negated,
        },
        BoundExpr::Like { expr, pattern, negated } => {
            BoundExpr::Like { expr: Box::new(fold_expr(*expr)), pattern, negated }
        }
        BoundExpr::Case { branches, else_expr } => BoundExpr::Case {
            branches: branches.into_iter().map(|(c, v)| (fold_expr(c), fold_expr(v))).collect(),
            else_expr: else_expr.map(|e| Box::new(fold_expr(*e))),
        },
        other => other,
    };
    if folded.is_constant() && !matches!(folded, BoundExpr::Literal(_)) {
        if let Ok(v) = folded.eval(&[]) {
            return BoundExpr::Literal(v);
        }
    }
    folded
}

// --------------------------------------------------------------- pushdown

fn pushdown(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = pushdown(*input);
            push_filter(input, predicate)
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(pushdown(*left)),
            right: Box::new(pushdown(*right)),
            kind,
            on,
        },
        Plan::Project { input, exprs, schema } => {
            Plan::Project { input: Box::new(pushdown(*input)), exprs, schema }
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            Plan::Aggregate { input: Box::new(pushdown(*input)), group_exprs, aggs, schema }
        }
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(pushdown(*input)) },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(pushdown(*input)), keys },
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: Box::new(pushdown(*input)), limit, offset }
        }
        scan @ Plan::Scan { .. } => scan,
    }
}

/// Try to push a filter predicate into `input`; returns the rewritten plan.
fn push_filter(input: Plan, predicate: BoundExpr) -> Plan {
    match input {
        // Only INNER joins admit sound pushdown of both sides.
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            // All-or-nothing: a single fallible conjunct pins the whole
            // predicate above the join, because pushing its error-free
            // neighbours below would change which rows reach it (and with
            // it, whether its error fires).
            let conjuncts = split_conjuncts(predicate.clone());
            if !conjuncts.iter().all(error_free) {
                let join = Plan::Join { left, right, kind: JoinKind::Inner, on };
                return Plan::Filter { input: Box::new(join), predicate };
            }
            let left_arity = left.arity();
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.collect_columns(&mut cols);
                if cols.iter().all(|&i| i < left_arity) {
                    left_preds.push(c);
                } else if cols.iter().all(|&i| i >= left_arity) {
                    right_preds.push(c.remap_columns(&|i| i - left_arity));
                } else {
                    keep.push(c);
                }
            }
            let mut new_left = *left;
            for p in left_preds {
                new_left = push_filter(new_left, p);
            }
            let mut new_right = *right;
            for p in right_preds {
                new_right = push_filter(new_right, p);
            }
            let join = Plan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind: JoinKind::Inner,
                on,
            };
            match join_conjuncts(keep) {
                Some(pred) => Plan::Filter { input: Box::new(join), predicate: pred },
                None => join,
            }
        }
        // Merge adjacent filters into a conjunction (keeps trees shallow).
        // Sound only when the outer predicate is error-free: `a AND b`
        // evaluates `b` even when `a` is NULL, so merging a fallible outer
        // filter would evaluate it on rows the inner filter's NULLs drop.
        Plan::Filter { input: inner, predicate: inner_pred } => {
            if error_free(&predicate) {
                let combined = BoundExpr::Binary {
                    left: Box::new(inner_pred),
                    op: BinaryOp::And,
                    right: Box::new(predicate),
                };
                push_filter(*inner, combined)
            } else {
                Plan::Filter {
                    input: Box::new(Plan::Filter { input: inner, predicate: inner_pred }),
                    predicate,
                }
            }
        }
        other => Plan::Filter { input: Box::new(other), predicate },
    }
}

/// True when evaluating `e` can never return `Err` on any row of the right
/// arity. Conservative and syntactic: comparisons are total (`sql_cmp`
/// never errors), but arithmetic (`/`/`%` by zero, `+`/`-`/`*` over
/// non-numeric values), `Neg`, `LIKE`, `CASE`, and boolean connectives over
/// operands not provably boolean-valued all count as fallible.
///
/// Deliberately re-implemented (not shared) by `cda-analyzer::equiv`, so
/// the differential certifier does not inherit a bug in this classifier.
fn error_free(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column(_) => true,
        BoundExpr::Binary { left, op, right } => {
            if op.is_comparison() {
                error_free(left) && error_free(right)
            } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
                bool_shaped(left) && bool_shaped(right) && error_free(left) && error_free(right)
            } else {
                false
            }
        }
        BoundExpr::Neg(_) => false,
        BoundExpr::Not(x) => bool_shaped(x) && error_free(x),
        BoundExpr::IsNull { expr, .. } => error_free(expr),
        BoundExpr::InList { expr, list, .. } => error_free(expr) && list.iter().all(error_free),
        BoundExpr::Between { expr, low, high, .. } => {
            error_free(expr) && error_free(low) && error_free(high)
        }
        BoundExpr::Like { .. } => false,
        BoundExpr::Case { .. } => false,
    }
}

/// True when `e` provably evaluates to a boolean or NULL (so `AND`/`OR`/
/// `NOT` over it cannot raise a type error).
fn bool_shaped(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(Value::Bool(_)) | BoundExpr::Literal(Value::Null) => true,
        BoundExpr::Binary { op, .. } => {
            op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or)
        }
        BoundExpr::Not(x) => bool_shaped(x),
        BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => true,
        _ => false,
    }
}

/// Split an AND tree into its conjuncts.
pub(crate) fn split_conjuncts(expr: BoundExpr) -> Vec<BoundExpr> {
    match expr {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = split_conjuncts(*left);
            out.extend(split_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

fn join_conjuncts(mut conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let first = conjuncts.pop()?;
    Some(conjuncts.into_iter().fold(first, |acc, c| BoundExpr::Binary {
        left: Box::new(c),
        op: BinaryOp::And,
        right: Box::new(acc),
    }))
}

// ----------------------------------------------------------------- pruning

/// A column-index remapping returned by [`narrow`].
type Remap = Box<dyn Fn(usize) -> usize>;

fn prune(plan: Plan) -> Plan {
    match plan {
        Plan::Project { input, exprs, schema } => {
            let mut need = Vec::new();
            for e in &exprs {
                e.collect_columns(&mut need);
            }
            let (pruned, remap) = narrow(*input, need);
            let exprs = exprs.into_iter().map(|e| e.remap_columns(&remap)).collect();
            Plan::Project { input: Box::new(pruned), exprs, schema }
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            let mut need = Vec::new();
            for e in &group_exprs {
                e.collect_columns(&mut need);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.collect_columns(&mut need);
                }
            }
            let (pruned, remap) = narrow(*input, need);
            let group_exprs = group_exprs.into_iter().map(|e| e.remap_columns(&remap)).collect();
            let aggs = aggs
                .into_iter()
                .map(|a| crate::plan::AggExpr {
                    kind: a.kind,
                    arg: a.arg.map(|arg| arg.remap_columns(&remap)),
                })
                .collect();
            Plan::Aggregate { input: Box::new(pruned), group_exprs, aggs, schema }
        }
        Plan::Filter { input, predicate } => {
            Plan::Filter { input: Box::new(prune(*input)), predicate }
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(prune(*left)),
            right: Box::new(prune(*right)),
            kind,
            on,
        },
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(prune(*input)) },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(prune(*input)), keys },
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: Box::new(prune(*input)), limit, offset }
        }
        scan @ Plan::Scan { .. } => scan,
    }
}

/// Narrow `plan` so that only the columns in `need` (positions in the node's
/// current output) survive. Returns the rewritten plan and a remapping from
/// old output positions to new ones. Narrowing only propagates through
/// filters, inner structure of joins, and scans; any other node acts as a
/// barrier (identity remap, recursion continues via [`prune`]).
fn narrow(plan: Plan, need: Vec<usize>) -> (Plan, Remap) {
    match plan {
        Plan::Scan { table, schema, projection } => {
            let base: Vec<usize> = match &projection {
                Some(p) => need.iter().map(|&i| p[i]).collect(),
                None => need,
            };
            let mut cols = base;
            cols.sort_unstable();
            cols.dedup();
            // old output position -> new position
            let old_positions: Vec<usize> = match &projection {
                Some(p) => p.clone(),
                None => (0..schema.len()).collect(),
            };
            let mapping: std::collections::HashMap<usize, usize> = old_positions
                .iter()
                .enumerate()
                .filter_map(|(old_out, base_col)| {
                    cols.iter().position(|c| c == base_col).map(|new| (old_out, new))
                })
                .collect();
            let scan = Plan::Scan { table, schema, projection: Some(cols) };
            (scan, Box::new(move |i| *mapping.get(&i).unwrap_or(&0)))
        }
        Plan::Filter { input, predicate } => {
            let mut need = need;
            predicate.collect_columns(&mut need);
            let (pruned, remap) = narrow(*input, need);
            let predicate = predicate.remap_columns(&remap);
            (Plan::Filter { input: Box::new(pruned), predicate }, remap)
        }
        Plan::Join { left, right, kind, on } => {
            let left_arity = left.arity();
            let mut need = need;
            on.collect_columns(&mut need);
            let left_need: Vec<usize> = need.iter().copied().filter(|&i| i < left_arity).collect();
            let right_need: Vec<usize> =
                need.iter().copied().filter(|&i| i >= left_arity).map(|i| i - left_arity).collect();
            let (nl, rl) = narrow(*left, left_need);
            let (nr, rr) = narrow(*right, right_need);
            let new_left_arity = nl.arity();
            let remap: Remap = Box::new(move |i| {
                if i < left_arity {
                    rl(i)
                } else {
                    new_left_arity + rr(i - left_arity)
                }
            });
            let on = on.remap_columns(&remap);
            (Plan::Join { left: Box::new(nl), right: Box::new(nr), kind, on }, remap)
        }
        other => (prune(other), Box::new(|i| i)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use crate::planner::plan_select;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Str),
            ]),
            vec![
                Column::from_ints(&[1, 2, 3]),
                Column::from_ints(&[4, 5, 6]),
                Column::from_strs(&["x", "y", "z"]),
            ],
        )
        .unwrap();
        c.register("t", t.clone()).unwrap();
        c.register("u", t).unwrap();
        c
    }

    fn planned(sql: &str) -> Plan {
        plan_select(&catalog(), &parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn constant_folding_removes_true_filter() {
        let p = planned("SELECT a FROM t WHERE 1 = 1");
        let o = optimize(p, OptimizerRules { constant_folding: true, ..OptimizerRules::none() });
        assert!(!o.explain().contains("Filter"));
    }

    #[test]
    fn constant_folding_folds_arithmetic() {
        let e = fold_expr(BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(2))),
            op: BinaryOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int(21))),
        });
        assert_eq!(e, BoundExpr::Literal(Value::Int(42)));
    }

    #[test]
    fn folding_leaves_errors_for_runtime() {
        let e = fold_expr(BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int(0))),
        });
        assert!(matches!(e, BoundExpr::Binary { .. }));
    }

    #[test]
    fn folding_partially_constant_subtree() {
        // a + (2 * 3) folds inner to 6
        let e = fold_expr(BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(Value::Int(2))),
                op: BinaryOp::Mul,
                right: Box::new(BoundExpr::Literal(Value::Int(3))),
            }),
        });
        match e {
            BoundExpr::Binary { right, .. } => {
                assert_eq!(*right, BoundExpr::Literal(Value::Int(6)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pushdown_moves_single_side_conjuncts_below_join() {
        let p = planned("SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND u.b < 5");
        let o = optimize(p, OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() });
        let text = o.explain();
        // both conjuncts must now sit below the Join
        let join_pos = text.find("Join").unwrap();
        let first_filter = text.find("Filter").unwrap();
        assert!(first_filter > join_pos, "filters should be below the join:\n{text}");
        assert_eq!(text.matches("Filter").count(), 2);
    }

    #[test]
    fn pushdown_keeps_cross_side_predicates_above() {
        let p = planned("SELECT t.a FROM t JOIN u ON 1 = 1 WHERE t.a = u.b");
        let o = optimize(p, OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() });
        let text = o.explain();
        let join_pos = text.find("Join").unwrap();
        let filter_pos = text.find("Filter").unwrap();
        assert!(filter_pos < join_pos, "cross predicate must stay above join:\n{text}");
    }

    #[test]
    fn pushdown_skips_left_joins() {
        let p = planned("SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.b IS NULL");
        let o = optimize(p, OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() });
        let text = o.explain();
        let join_pos = text.find("Join").unwrap();
        let filter_pos = text.find("Filter").unwrap();
        assert!(filter_pos < join_pos);
    }

    #[test]
    fn projection_pruning_narrows_scans() {
        let p = planned("SELECT a FROM t");
        let o = optimize(p, OptimizerRules { projection_pruning: true, ..OptimizerRules::none() });
        assert!(o.explain().contains("(cols [0])"), "{}", o.explain());
        assert_eq!(o.arity(), 1);
    }

    #[test]
    fn pruning_keeps_filter_columns() {
        let p = planned("SELECT a FROM t WHERE b > 1");
        let o = optimize(p, OptimizerRules { projection_pruning: true, ..OptimizerRules::none() });
        let text = o.explain();
        assert!(text.contains("(cols [0, 1])"), "{text}");
    }

    #[test]
    fn pruning_aggregate_inputs() {
        let p = planned("SELECT c, SUM(a) FROM t GROUP BY c");
        let o = optimize(p, OptimizerRules { projection_pruning: true, ..OptimizerRules::none() });
        assert!(o.explain().contains("(cols [0, 2])"), "{}", o.explain());
    }

    #[test]
    fn pushdown_pins_fallible_conjunctions_above_joins() {
        // 10 / t.b errors on b = 0: pushing the pure u-side conjunct below
        // the join would change which rows reach the division. The whole
        // predicate must stay above the join, in its original shape.
        let p = planned("SELECT t.a FROM t JOIN u ON t.a = u.a WHERE 10 / t.b > 1 AND u.b < 5");
        let o = optimize(p.clone(), OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() });
        assert_eq!(o, p, "fallible predicate must not be split or moved:\n{}", o.explain());
    }

    #[test]
    fn pushdown_does_not_merge_fallible_outer_filters() {
        // Filter(Filter(scan, b > 1), 10 / b > 1): the inner filter's NULLs
        // shield the division; merging would evaluate it on those rows.
        let scan = planned("SELECT a, b, c FROM t");
        let inner = Plan::Filter {
            input: Box::new(scan),
            predicate: BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(1)),
                op: BinaryOp::Gt,
                right: Box::new(BoundExpr::Literal(Value::Int(1))),
            },
        };
        let fallible = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(Value::Int(10))),
                op: BinaryOp::Div,
                right: Box::new(BoundExpr::Column(1)),
            }),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        let p = Plan::Filter { input: Box::new(inner), predicate: fallible };
        let o = optimize(p.clone(), OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() });
        assert_eq!(o.explain().matches("Filter").count(), 2, "{}", o.explain());
    }

    #[test]
    fn error_free_is_conservative() {
        let cmp = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        assert!(error_free(&cmp));
        let div = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Column(0)),
        };
        assert!(!error_free(&div));
        // fallible operand taints the enclosing comparison
        let tainted = BoundExpr::Binary {
            left: Box::new(div),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        assert!(!error_free(&tainted));
        // AND over a bare column could be a runtime type error
        let odd = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::And,
            right: Box::new(cmp),
        };
        assert!(!error_free(&odd));
    }

    #[test]
    fn split_conjuncts_flattens_and_tree() {
        let a = BoundExpr::Column(0);
        let b = BoundExpr::Column(1);
        let c = BoundExpr::Column(2);
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(a.clone()),
                op: BinaryOp::And,
                right: Box::new(b.clone()),
            }),
            op: BinaryOp::And,
            right: Box::new(c.clone()),
        };
        assert_eq!(split_conjuncts(e), vec![a, b, c]);
    }

    #[test]
    fn all_rules_compose() {
        let p = planned(
            "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND 2 > 1 ORDER BY t.a LIMIT 2",
        );
        let o = optimize(p.clone(), OptimizerRules::all());
        let text = o.explain();
        assert!(text.contains("Scan"));
        // optimization must not change output schema
        assert_eq!(o.schema().describe(), p.schema().describe());
    }
}
