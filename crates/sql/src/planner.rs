//! Name binding and logical planning: AST → [`Plan`].
//!
//! The planner resolves (possibly qualified) column names against the scope
//! built from the FROM/JOIN clauses, rewrites aggregate queries into an
//! `Aggregate` + `Project` pair, places HAVING as a post-aggregate filter,
//! and resolves ORDER BY keys against the output (by alias, ordinal, or —
//! when neither matches — as hidden extra projection columns dropped by a
//! final projection).

use crate::ast::{self, Expr, OrderDirection, Select, SelectItem, TableRef};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::plan::{AggExpr, BoundExpr, Plan, SortSpec};
use crate::Result;
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{DataType, Field, Schema, Value};

/// Plan a parsed SELECT against a catalog.
pub fn plan_select(catalog: &Catalog, select: &Select) -> Result<Plan> {
    Planner { catalog }.plan(select)
}

/// The binding scope: one entry per table in FROM/JOIN order.
struct Scope {
    /// (scope name, schema, flat offset of the table's first column)
    entries: Vec<(String, Schema, usize)>,
    total: usize,
}

impl Scope {
    fn new() -> Self {
        Self { entries: Vec::new(), total: 0 }
    }

    fn push(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.entries.iter().any(|(n, _, _)| n.eq_ignore_ascii_case(name)) {
            return Err(SqlError::Binding(format!("duplicate table name or alias {name:?}")));
        }
        let len = schema.len();
        self.entries.push((name.to_owned(), schema, self.total));
        self.total += len;
        Ok(())
    }

    fn resolve(&self, table: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let mut found: Option<(usize, DataType)> = None;
        for (scope_name, schema, offset) in &self.entries {
            if let Some(t) = table {
                if !scope_name.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if let Some((i, dt)) = schema
                .index_of(name)
                .and_then(|i| schema.field_at(i).map(|f| (i, f.data_type())))
            {
                if found.is_some() {
                    return Err(SqlError::Binding(format!("ambiguous column reference {name:?}")));
                }
                found = Some((offset + i, dt));
            }
        }
        found.ok_or_else(|| {
            let qualified = table.map_or_else(|| name.to_owned(), |t| format!("{t}.{name}"));
            SqlError::Binding(format!("unknown column {qualified:?}"))
        })
    }

    /// All columns in scope as (flat index, field) for wildcard expansion.
    fn all_columns(&self) -> Vec<(usize, Field)> {
        let mut out = Vec::with_capacity(self.total);
        for (_, schema, offset) in &self.entries {
            for (i, f) in schema.fields().iter().enumerate() {
                out.push((offset + i, f.clone()));
            }
        }
        out
    }
}

struct Planner<'a> {
    catalog: &'a Catalog,
}

/// Output of [`Planner::plan_aggregate`]: the aggregate plan node, the bound
/// SELECT-item expressions over its output, their fields, and the aggregate
/// binding context used later by ORDER BY resolution.
type AggregatePlan = (Plan, Vec<BoundExpr>, Vec<Field>, Option<AggContext>);

impl Planner<'_> {
    fn plan(&self, select: &Select) -> Result<Plan> {
        // 1. FROM and JOINs build the scope and the base plan.
        let mut scope = Scope::new();
        let mut plan = self.scan(&select.from, &mut scope)?;
        for join in &select.joins {
            let right = self.scan(&join.table, &mut scope)?;
            let on = bind(&join.on, &scope)?;
            plan = Plan::Join { left: Box::new(plan), right: Box::new(right), kind: join.kind, on };
        }
        // 2. WHERE.
        if let Some(w) = &select.where_clause {
            if w.contains_aggregate() {
                return Err(SqlError::Semantic("aggregates are not allowed in WHERE".into()));
            }
            let predicate = bind(w, &scope)?;
            plan = Plan::Filter { input: Box::new(plan), predicate };
        }
        // 3. Aggregate or plain projection.
        let has_agg = !select.group_by.is_empty()
            || select.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
            || select.having.as_ref().is_some_and(Expr::contains_aggregate);

        let (mut plan, mut out_exprs, mut out_fields, agg_ctx) = if has_agg {
            self.plan_aggregate(select, plan, &scope)?
        } else {
            if select.having.is_some() {
                return Err(SqlError::Semantic("HAVING requires GROUP BY or aggregates".into()));
            }
            let mut exprs = Vec::new();
            let mut fields = Vec::new();
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        for (idx, f) in scope.all_columns() {
                            exprs.push(BoundExpr::Column(idx));
                            fields.push(f);
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = bind(expr, &scope)?;
                        let name = output_name(expr, alias.as_deref());
                        let ty = infer_type(&bound, &plan.schema());
                        exprs.push(bound);
                        fields.push(Field::new(name, ty));
                    }
                }
            }
            (plan, exprs, fields, None)
        };

        // 4. ORDER BY: resolve against output; unresolvable keys become
        //    hidden projection columns.
        let visible = out_exprs.len();
        let mut sort_keys: Vec<SortSpec> = Vec::new();
        for item in &select.order_by {
            let descending = item.direction == OrderDirection::Desc;
            let column = self.resolve_order_key(
                &item.expr,
                select,
                &scope,
                agg_ctx.as_ref(),
                visible,
                &mut out_exprs,
                &mut out_fields,
                &plan,
            )?;
            sort_keys.push(SortSpec { column, descending });
        }
        let hidden = out_exprs.len() - visible;
        if select.distinct && hidden > 0 {
            return Err(SqlError::Semantic(
                "ORDER BY with DISTINCT must reference selected columns".into(),
            ));
        }

        // 5. Assemble: Project → Distinct → Sort → Limit → (drop hidden).
        let out_schema = Schema::new(out_fields);
        plan = Plan::Project { input: Box::new(plan), exprs: out_exprs, schema: out_schema };
        if select.distinct {
            plan = Plan::Distinct { input: Box::new(plan) };
        }
        if !sort_keys.is_empty() {
            plan = Plan::Sort { input: Box::new(plan), keys: sort_keys };
        }
        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }
        if hidden > 0 {
            let schema = plan.schema();
            let keep: Vec<usize> = (0..visible).collect();
            let exprs: Vec<BoundExpr> = keep.iter().map(|&i| BoundExpr::Column(i)).collect();
            plan = Plan::Project { input: Box::new(plan), exprs, schema: schema.project(&keep) };
        }
        Ok(plan)
    }

    fn scan(&self, table: &TableRef, scope: &mut Scope) -> Result<Plan> {
        let entry = self.catalog.get(&table.name)?;
        let schema = entry.table.schema().clone();
        scope.push(table.scope_name(), schema.clone())?;
        Ok(Plan::Scan { table: table.name.to_ascii_lowercase(), schema, projection: None })
    }

    /// Plan the Aggregate node and bind SELECT items over its output.
    /// Returns (plan, output exprs, output fields, aggregate context).
    fn plan_aggregate(
        &self,
        select: &Select,
        input: Plan,
        scope: &Scope,
    ) -> Result<AggregatePlan> {
        let input_schema = input.schema();
        // Bind group keys.
        let mut group_bound = Vec::new();
        for g in &select.group_by {
            if g.contains_aggregate() {
                return Err(SqlError::Semantic("aggregates are not allowed in GROUP BY".into()));
            }
            group_bound.push(bind(g, scope)?);
        }
        // Collect distinct aggregate calls across SELECT, HAVING, ORDER BY.
        let mut calls: Vec<Expr> = Vec::new();
        let mut visit = |e: &Expr| collect_aggregates(e, &mut calls);
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                visit(expr);
            }
        }
        if let Some(h) = &select.having {
            visit(h);
        }
        for o in &select.order_by {
            visit(&o.expr);
        }
        // Bind aggregate arguments.
        let mut aggs = Vec::new();
        for call in &calls {
            let Expr::Aggregate { kind, arg } = call else {
                return Err(SqlError::Semantic(
                    "internal: collected aggregate call is not an aggregate".into(),
                ));
            };
            let bound_arg = match arg {
                Some(a) => {
                    if a.contains_aggregate() {
                        return Err(SqlError::Semantic("nested aggregates are not allowed".into()));
                    }
                    Some(bind(a, scope)?)
                }
                None => None,
            };
            aggs.push(AggExpr { kind: *kind, arg: bound_arg });
        }
        // Output schema of the Aggregate node: keys then aggregates.
        let mut agg_fields = Vec::new();
        for (i, (g_ast, g_bound)) in select.group_by.iter().zip(&group_bound).enumerate() {
            let name = match g_ast {
                Expr::Column { name, .. } => name.clone(),
                _ => format!("group_{i}"),
            };
            agg_fields.push(Field::new(name, infer_type(g_bound, &input_schema)));
        }
        for (j, (call, agg)) in calls.iter().zip(&aggs).enumerate() {
            let ty = agg_output_type(agg, &input_schema);
            agg_fields.push(Field::new(format!("agg_{j}_{call}"), ty));
        }
        let agg_schema = Schema::new(agg_fields);
        let plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs: group_bound,
            aggs,
            schema: agg_schema.clone(),
        };
        let ctx = AggContext { group_asts: select.group_by.clone(), agg_asts: calls };

        // Bind SELECT items over the aggregate output.
        let mut out_exprs = Vec::new();
        let mut out_fields = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(SqlError::Semantic(
                        "SELECT * cannot be combined with GROUP BY / aggregates".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = ctx.bind(expr)?;
                    let name = output_name(expr, alias.as_deref());
                    let ty = infer_type(&bound, &agg_schema);
                    out_exprs.push(bound);
                    out_fields.push(Field::new(name, ty));
                }
            }
        }
        // HAVING becomes a filter over the aggregate output, applied before
        // the projection — wrap now.
        let plan = if let Some(h) = &select.having {
            let predicate = ctx.bind(h)?;
            Plan::Filter { input: Box::new(plan), predicate }
        } else {
            plan
        };
        Ok((plan, out_exprs, out_fields, Some(ctx)))
    }

    /// Resolve one ORDER BY key to a column index in the projected output,
    /// appending a hidden projection column when necessary.
    #[expect(
        clippy::too_many_arguments,
        reason = "the key, its SELECT scope and the projection being built"
    )]
    fn resolve_order_key(
        &self,
        expr: &Expr,
        select: &Select,
        scope: &Scope,
        agg_ctx: Option<&AggContext>,
        visible: usize,
        out_exprs: &mut Vec<BoundExpr>,
        out_fields: &mut Vec<Field>,
        plan: &Plan,
    ) -> Result<usize> {
        // Ordinal?
        if let Expr::Literal(Value::Int(n)) = expr {
            let n = *n;
            if n < 1 || (n as usize) > visible {
                return Err(SqlError::Semantic(format!("ORDER BY ordinal {n} out of range")));
            }
            return Ok(n as usize - 1);
        }
        // Output alias / name?
        if let Expr::Column { table: None, name } = expr {
            if let Some(i) = out_fields.iter().position(|f| f.name().eq_ignore_ascii_case(name)) {
                return Ok(i);
            }
        }
        // Matches a select item expression textually?
        for (i, item) in select.items.iter().enumerate() {
            if let SelectItem::Expr { expr: e, .. } = item {
                if e == expr {
                    return Ok(i);
                }
            }
        }
        // Otherwise: bind as a hidden column.
        let bound = match agg_ctx {
            Some(ctx) => ctx.bind(expr)?,
            None => bind(expr, scope)?,
        };
        let ty = infer_type(&bound, &plan.schema());
        out_exprs.push(bound);
        out_fields.push(Field::new(format!("__sort_{}", out_fields.len()), ty));
        Ok(out_fields.len() - 1)
    }
}

/// Context for rewriting post-aggregate expressions: group-by ASTs map to
/// the first k output columns; aggregate calls map to the following columns.
struct AggContext {
    group_asts: Vec<Expr>,
    agg_asts: Vec<Expr>,
}

impl AggContext {
    /// Bind an expression over the aggregate node's output.
    fn bind(&self, expr: &Expr) -> Result<BoundExpr> {
        if let Some(i) = self.group_asts.iter().position(|g| g == expr) {
            return Ok(BoundExpr::Column(i));
        }
        if let Some(j) = self.agg_asts.iter().position(|a| a == expr) {
            return Ok(BoundExpr::Column(self.group_asts.len() + j));
        }
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column { table, name } => {
                let qualified =
                    table.as_ref().map_or_else(|| name.clone(), |t| format!("{t}.{name}"));
                Err(SqlError::Semantic(format!(
                    "column {qualified:?} must appear in GROUP BY or inside an aggregate"
                )))
            }
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind(left)?),
                op: *op,
                right: Box::new(self.bind(right)?),
            }),
            Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(self.bind(e)?))),
            Expr::Not(e) => Ok(BoundExpr::Not(Box::new(self.bind(e)?))),
            Expr::IsNull { expr, negated } => {
                Ok(BoundExpr::IsNull { expr: Box::new(self.bind(expr)?), negated: *negated })
            }
            Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
                expr: Box::new(self.bind(expr)?),
                list: list.iter().map(|e| self.bind(e)).collect::<Result<_>>()?,
                negated: *negated,
            }),
            Expr::Between { expr, low, high, negated } => Ok(BoundExpr::Between {
                expr: Box::new(self.bind(expr)?),
                low: Box::new(self.bind(low)?),
                high: Box::new(self.bind(high)?),
                negated: *negated,
            }),
            Expr::Like { expr, pattern, negated } => Ok(BoundExpr::Like {
                expr: Box::new(self.bind(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            }),
            Expr::Case { branches, else_expr } => Ok(BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.bind(c)?, self.bind(v)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind(e)?)),
                    None => None,
                },
            }),
            Expr::Aggregate { .. } => {
                Err(SqlError::Semantic("unexpected aggregate during rewrite".into()))
            }
        }
    }
}

/// Bind an expression against a single table's schema (no aggregates).
///
/// Used by the DML planner for WHERE predicates and SET expressions, where
/// the scope is always exactly the target table.
pub(crate) fn bind_single(expr: &Expr, table: &str, schema: &Schema) -> Result<BoundExpr> {
    let mut scope = Scope::new();
    scope.push(table, schema.clone())?;
    bind(expr, &scope)
}

/// Bind an AST expression against a scope (no aggregates allowed).
fn bind(expr: &Expr, scope: &Scope) -> Result<BoundExpr> {
    match expr {
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Column { table, name } => {
            let (idx, _) = scope.resolve(table.as_deref(), name)?;
            Ok(BoundExpr::Column(idx))
        }
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(bind(left, scope)?),
            op: *op,
            right: Box::new(bind(right, scope)?),
        }),
        Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(bind(e, scope)?))),
        Expr::Not(e) => Ok(BoundExpr::Not(Box::new(bind(e, scope)?))),
        Expr::IsNull { expr, negated } => {
            Ok(BoundExpr::IsNull { expr: Box::new(bind(expr, scope)?), negated: *negated })
        }
        Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
            expr: Box::new(bind(expr, scope)?),
            list: list.iter().map(|e| bind(e, scope)).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => Ok(BoundExpr::Between {
            expr: Box::new(bind(expr, scope)?),
            low: Box::new(bind(low, scope)?),
            high: Box::new(bind(high, scope)?),
            negated: *negated,
        }),
        Expr::Like { expr, pattern, negated } => Ok(BoundExpr::Like {
            expr: Box::new(bind(expr, scope)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        Expr::Case { branches, else_expr } => Ok(BoundExpr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((bind(c, scope)?, bind(v, scope)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, scope)?)),
                None => None,
            },
        }),
        Expr::Aggregate { .. } => {
            Err(SqlError::Semantic("aggregate used outside SELECT/HAVING/ORDER BY".into()))
        }
    }
}

/// Collect aggregate calls (deduplicated, in first-seen order).
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Aggregate { .. } => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Neg(e) | Expr::Not(e) => collect_aggregates(e, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Like { expr, .. } => collect_aggregates(expr, out),
        Expr::Case { branches, else_expr } => {
            for (c, v) in branches {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
    }
}

/// Output column name for a select item.
fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { kind, arg } => match arg {
            Some(a) => format!("{}({a})", kind.name()).to_ascii_lowercase(),
            None => format!("{}(*)", kind.name()).to_ascii_lowercase(),
        },
        other => other.to_string(),
    }
}

/// Best-effort static type of a bound expression.
pub(crate) fn infer_type(expr: &BoundExpr, input: &Schema) -> DataType {
    match expr {
        BoundExpr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        BoundExpr::Column(i) => {
            input.field_at(*i).map_or(DataType::Str, cda_dataframe::Field::data_type)
        }
        BoundExpr::Binary { left, op, right } => {
            use ast::BinaryOp::*;
            match op {
                And | Or | Eq | NotEq | Lt | LtEq | Gt | GtEq => DataType::Bool,
                Div => DataType::Float,
                Add | Sub | Mul | Mod => {
                    let lt = infer_type(left, input);
                    let rt = infer_type(right, input);
                    if lt == DataType::Str || rt == DataType::Str {
                        DataType::Str
                    } else if lt == DataType::Float || rt == DataType::Float {
                        DataType::Float
                    } else {
                        DataType::Int
                    }
                }
            }
        }
        BoundExpr::Neg(e) => infer_type(e, input),
        BoundExpr::Not(_)
        | BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => DataType::Bool,
        BoundExpr::Case { branches, else_expr } => branches
            .first()
            .map(|(_, v)| infer_type(v, input))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, input)))
            .unwrap_or(DataType::Str),
    }
}

/// Output type of an aggregate.
fn agg_output_type(agg: &AggExpr, input: &Schema) -> DataType {
    match agg.kind {
        AggKind::Count | AggKind::CountDistinct => DataType::Int,
        AggKind::Avg | AggKind::StdDev => DataType::Float,
        AggKind::Sum | AggKind::Min | AggKind::Max => {
            agg.arg.as_ref().map_or(DataType::Int, |a| infer_type(a, input))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cda_dataframe::{Column, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            vec![
                Column::from_strs(&["ZH", "GE"]),
                Column::from_ints(&[10, 20]),
                Column::from_floats(&[0.1, 0.2]),
            ],
        )
        .unwrap();
        c.register("emp", emp).unwrap();
        let reg = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("region", DataType::Str),
            ]),
            vec![Column::from_strs(&["ZH", "GE"]), Column::from_strs(&["east", "west"])],
        )
        .unwrap();
        c.register("reg", reg).unwrap();
        c
    }

    fn plan_sql(sql: &str) -> Result<Plan> {
        plan_select(&catalog(), &parse(sql).unwrap())
    }

    #[test]
    fn simple_projection_schema() {
        let p = plan_sql("SELECT canton, jobs * 2 AS double FROM emp").unwrap();
        let s = p.schema();
        assert_eq!(s.field_at(0).unwrap().name(), "canton");
        assert_eq!(s.field_at(1).unwrap().name(), "double");
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn wildcard_expands_scope() {
        let p = plan_sql("SELECT * FROM emp").unwrap();
        assert_eq!(p.arity(), 3);
        let p = plan_sql("SELECT * FROM emp JOIN reg ON emp.canton = reg.canton").unwrap();
        assert_eq!(p.arity(), 5);
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        assert!(matches!(plan_sql("SELECT nope FROM emp"), Err(SqlError::Binding(_))));
        let e = plan_sql("SELECT canton FROM emp JOIN reg ON emp.canton = reg.canton");
        assert!(matches!(e, Err(SqlError::Binding(m)) if m.contains("ambiguous")));
        // qualified reference resolves fine
        assert!(plan_sql("SELECT emp.canton FROM emp JOIN reg ON emp.canton = reg.canton").is_ok());
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(plan_sql("SELECT 1 FROM emp JOIN reg emp ON 1 = 1").is_err());
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan_sql("SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton HAVING SUM(jobs) > 5")
            .unwrap();
        let text = p.explain();
        assert!(text.contains("Aggregate [1 keys, 1 aggs]"));
        assert!(text.contains("Filter")); // HAVING
        assert!(text.contains("Project"));
        let s = p.schema();
        assert_eq!(s.field_at(1).unwrap().name(), "total");
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn deduplicates_identical_aggregate_calls() {
        let p = plan_sql("SELECT SUM(jobs), SUM(jobs) + 1 FROM emp").unwrap();
        assert!(p.explain().contains("[0 keys, 1 aggs]"));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let e = plan_sql("SELECT canton, SUM(jobs) FROM emp");
        assert!(matches!(e, Err(SqlError::Semantic(m)) if m.contains("GROUP BY")));
    }

    #[test]
    fn where_with_aggregate_rejected() {
        assert!(plan_sql("SELECT canton FROM emp WHERE SUM(jobs) > 1").is_err());
    }

    #[test]
    fn having_without_group_by_uses_global_group() {
        let p = plan_sql("SELECT COUNT(*) FROM emp HAVING COUNT(*) > 0").unwrap();
        assert!(p.explain().contains("[0 keys, 1 aggs]"));
    }

    #[test]
    fn having_without_aggregates_rejected() {
        assert!(plan_sql("SELECT canton FROM emp HAVING canton = 'ZH'").is_err());
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(plan_sql("SELECT * FROM emp GROUP BY canton").is_err());
    }

    #[test]
    fn order_by_alias_ordinal_and_hidden() {
        // alias
        let p = plan_sql("SELECT jobs AS j FROM emp ORDER BY j DESC").unwrap();
        assert!(p.explain().contains("Sort"));
        assert_eq!(p.arity(), 1);
        // ordinal
        let p = plan_sql("SELECT canton, jobs FROM emp ORDER BY 2").unwrap();
        assert!(p.explain().contains("Sort [SortSpec { column: 1"));
        // hidden sort column is dropped by a final projection
        let p = plan_sql("SELECT canton FROM emp ORDER BY rate").unwrap();
        assert_eq!(p.arity(), 1);
        let text = p.explain();
        assert!(text.matches("Project").count() >= 2);
    }

    #[test]
    fn order_by_ordinal_out_of_range() {
        assert!(plan_sql("SELECT canton FROM emp ORDER BY 5").is_err());
        assert!(plan_sql("SELECT canton FROM emp ORDER BY 0").is_err());
    }

    #[test]
    fn distinct_with_hidden_sort_rejected() {
        assert!(plan_sql("SELECT DISTINCT canton FROM emp ORDER BY rate").is_err());
        assert!(plan_sql("SELECT DISTINCT canton FROM emp ORDER BY canton").is_ok());
    }

    #[test]
    fn order_by_aggregate_in_grouped_query() {
        let p = plan_sql("SELECT canton FROM emp GROUP BY canton ORDER BY SUM(jobs) DESC").unwrap();
        // SUM(jobs) becomes a hidden column over the aggregate output
        assert_eq!(p.arity(), 1);
        assert!(p.explain().contains("Aggregate"));
    }

    #[test]
    fn limit_offset_plan() {
        let p = plan_sql("SELECT canton FROM emp LIMIT 1 OFFSET 1").unwrap();
        assert!(p.explain().contains("Limit Some(1) offset 1"));
    }

    #[test]
    fn type_inference() {
        let p = plan_sql("SELECT jobs / 2, rate + 1, canton, jobs > 3 FROM emp").unwrap();
        let s = p.schema();
        assert_eq!(s.field_at(0).unwrap().data_type(), DataType::Float);
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Float);
        assert_eq!(s.field_at(2).unwrap().data_type(), DataType::Str);
        assert_eq!(s.field_at(3).unwrap().data_type(), DataType::Bool);
    }
}
