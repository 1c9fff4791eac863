//! `repair` — translate static-gate findings into actionable repair hints.
//!
//! The paper's Soundness/Guidance interplay (Fig. 2) says diagnoses should
//! feed back into what the system generates next, not just veto candidates.
//! This module closes that loop: given a [`Report`] from the
//! [`Analyzer`] gate, [`repair_hints`] derives a list of structured
//! [`RepairHint`]s —
//!
//! * **A002** unknown table → the nearest catalog table by edit distance;
//! * **A003** unknown column → the nearest in-scope column by edit distance;
//! * **A004** type misuse → the offending non-numeric column, re-pointed at
//!   the nearest *numeric* column (the expected type re-biases the choice);
//! * **A013** over-budget → inject `LIMIT row_budget` to cap the result.
//!
//! [`apply_hints`] then rewrites the candidate's AST accordingly and
//! re-renders it to SQL, so the decoder (`cda-nlmodel`'s repair loop) and
//! the dialogue layer can re-gate the repaired candidate instead of paying
//! another full decode. Hints are deterministic: candidate names are sorted
//! and distance ties break lexicographically.

use crate::sqlcheck::{Analyzer, Code, Report};
use cda_dataframe::DataType;
use cda_sql::ast::{Expr, Select, Statement};
use cda_sql::{Catalog, Compiled};
use std::fmt;

/// One structured, applicable repair derived from a gate finding.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairHint {
    /// A002: the query reads from unknown table `from`; `to` is the nearest
    /// catalog table by edit distance.
    ReplaceTable {
        /// The unknown table name as written.
        from: String,
        /// The nearest real catalog table.
        to: String,
    },
    /// A003: the query references unknown column `from`; `to` is the nearest
    /// in-scope column by edit distance.
    ReplaceColumn {
        /// The unknown column name as written.
        from: String,
        /// The nearest real in-scope column.
        to: String,
    },
    /// A004: column `from` has the wrong type for its operator (e.g. `SUM`
    /// over text); `to` is the nearest column of the `expected` type.
    RetypeColumn {
        /// The misused column.
        from: String,
        /// The nearest column of the expected type.
        to: String,
        /// The type the replacement satisfies.
        expected: DataType,
    },
    /// A013: the estimated result size exceeds the row budget; cap it.
    InjectLimit {
        /// The row budget to inject as `LIMIT`.
        rows: u64,
    },
    /// A016: a `WHERE`/`HAVING` clause is true on every row of the current
    /// data; dropping it changes nothing about the result and removes the
    /// misleading condition.
    DropTautology {
        /// Which clause to drop: `"WHERE"` or `"HAVING"`.
        clause: String,
    },
    /// A015: the result is provably empty. There is no mechanical rewrite
    /// that preserves intent — the hint carries the contradiction back to
    /// the decoder so resampling can steer away from it. [`apply_hints`]
    /// leaves the SQL untouched.
    FlagContradiction {
        /// NL description of the contradiction, for the decoder's feedback
        /// prompt.
        detail: String,
    },
}

impl RepairHint {
    /// The finding code this hint addresses.
    pub fn code(&self) -> Code {
        match self {
            RepairHint::ReplaceTable { .. } => Code::UnknownTable,
            RepairHint::ReplaceColumn { .. } => Code::UnknownColumn,
            RepairHint::RetypeColumn { .. } => Code::TypeMismatch,
            RepairHint::InjectLimit { .. } => Code::RowBudgetExceeded,
            RepairHint::DropTautology { .. } => Code::DataGroundedTautology,
            RepairHint::FlagContradiction { .. } => Code::ProvablyEmpty,
        }
    }
}

impl fmt::Display for RepairHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairHint::ReplaceTable { from, to } => {
                write!(f, "unknown table {from:?} -> {to:?}")
            }
            RepairHint::ReplaceColumn { from, to } => {
                write!(f, "unknown column {from:?} -> {to:?}")
            }
            RepairHint::RetypeColumn { from, to, expected } => {
                write!(f, "type mismatch: column {from:?} -> {to:?} ({expected})")
            }
            RepairHint::InjectLimit { rows } => {
                write!(f, "result over budget -> LIMIT {rows}")
            }
            RepairHint::DropTautology { clause } => {
                write!(f, "tautological {clause} -> drop the clause")
            }
            RepairHint::FlagContradiction { detail } => {
                write!(f, "provably empty result -> resample ({detail})")
            }
        }
    }
}

/// Levenshtein edit distance, case-insensitive (schema names are matched
/// without case in the rest of the stack too).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(char::to_lowercase).collect();
    let b: Vec<char> = b.chars().flat_map(char::to_lowercase).collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate at minimal edit distance from `name`; ties break toward the
/// lexicographically smaller candidate. `None` when `candidates` is empty.
pub fn nearest_name<'a>(name: &str, candidates: &'a [String]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (edit_distance(name, c), c.as_str()))
        .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)))
        .map(|(_, c)| c)
}

/// The identifier a finding message quotes (`{:?}`-formatted), if any.
fn quoted_ident(message: &str) -> Option<&str> {
    message.split('"').nth(1).filter(|s| !s.is_empty())
}

/// Derive structured repair hints from a gate report over `sql`. Returns an
/// empty list when nothing applicable was found (notably A001: a candidate
/// that does not parse has no AST to repair — resampling is the only cure).
pub fn repair_hints(catalog: &Catalog, sql: &str, report: &Report) -> Vec<RepairHint> {
    let Ok(select) = cda_sql::parser::parse(sql) else {
        // Not a SELECT: DML statements get the write-gate hint derivation;
        // anything unparseable has no AST to repair.
        return match cda_sql::parser::parse_statement(sql) {
            Ok(stmt) if stmt.is_write() => dml_hints(catalog, &stmt, report),
            _ => Vec::new(),
        };
    };
    let mut hints: Vec<RepairHint> = Vec::new();

    let mut tables = catalog.table_names();
    tables.sort();
    for f in report.findings.iter().filter(|f| f.code == Code::UnknownTable) {
        let Some(from) = quoted_ident(&f.message) else { continue };
        if tables.iter().any(|t| t.eq_ignore_ascii_case(from)) {
            continue; // already a real table; nothing to repair
        }
        if let Some(to) = nearest_name(from, &tables) {
            let h = RepairHint::ReplaceTable { from: from.to_owned(), to: to.to_owned() };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    // Columns in scope *after* table repairs: resolve FROM/JOIN names
    // through the table hints so a repaired table contributes its schema.
    let scope = scope_columns(catalog, &select, &hints);
    let column_names: Vec<String> = scope.iter().map(|(n, _)| n.clone()).collect();

    for f in report.findings.iter().filter(|f| f.code == Code::UnknownColumn) {
        let Some(ident) = quoted_ident(&f.message) else { continue };
        let from = ident.rsplit('.').next().unwrap_or(ident);
        if column_names.iter().any(|c| c.eq_ignore_ascii_case(from)) {
            continue; // the name exists (ambiguity, not a misspelling)
        }
        if let Some(to) = nearest_name(from, &column_names) {
            let h = RepairHint::ReplaceColumn { from: from.to_owned(), to: to.to_owned() };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    if report.findings.iter().any(|f| f.code == Code::TypeMismatch) {
        let numeric: Vec<String> = scope
            .iter()
            .filter(|(_, dt)| dt.is_numeric())
            .map(|(n, _)| n.clone())
            .collect();
        for from in misused_numeric_columns(&select, &scope) {
            let Some(to) = nearest_name(&from, &numeric) else { continue };
            let expected = scope
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(to))
                .map_or(DataType::Float, |(_, dt)| *dt);
            let h = RepairHint::RetypeColumn { from, to: to.to_owned(), expected };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    if report.exceeds_budget() {
        if let Some(rows) = report.row_budget {
            if select.limit.is_none_or(|l| l as u64 > rows) {
                hints.push(RepairHint::InjectLimit { rows });
            }
        }
    }

    for f in report.findings.iter().filter(|f| f.code == Code::DataGroundedTautology) {
        // The A016 message names the clause: "the WHERE condition ..." /
        // "the HAVING condition ...".
        let clause = if f.message.contains("HAVING") { "HAVING" } else { "WHERE" };
        let present = match clause {
            "HAVING" => select.having.is_some(),
            _ => select.where_clause.is_some(),
        };
        if present {
            let h = RepairHint::DropTautology { clause: clause.to_owned() };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    for f in report.findings.iter().filter(|f| f.code == Code::ProvablyEmpty) {
        let detail = f
            .message
            .split_once(": ")
            .map_or(f.message.as_str(), |(_, tail)| tail)
            .to_owned();
        let h = RepairHint::FlagContradiction { detail };
        if !hints.contains(&h) {
            hints.push(h);
        }
    }

    hints
}

/// Hint derivation for the DML write gate (A019/A020): unknown target table
/// → nearest catalog table; unknown INSERT/SET column → nearest column of
/// the (possibly repaired) target table; a literal whose type cannot be
/// stored into its target column → the nearest column *of the value's type*
/// as a [`RepairHint::RetypeColumn`].
fn dml_hints(catalog: &Catalog, stmt: &Statement, report: &Report) -> Vec<RepairHint> {
    let mut hints: Vec<RepairHint> = Vec::new();
    let Some(target) = stmt.write_target() else { return hints };
    let mut tables = catalog.table_names();
    tables.sort();

    // A019 with a table-shaped message: the write target itself is unknown.
    for f in report.findings.iter().filter(|f| f.code == Code::UnknownWriteTarget) {
        let Some(from) = quoted_ident(&f.message) else { continue };
        if !f.message.contains("targets table") {
            continue;
        }
        if tables.iter().any(|t| t.eq_ignore_ascii_case(from)) {
            continue;
        }
        if let Some(to) = nearest_name(from, &tables) {
            let h = RepairHint::ReplaceTable { from: from.to_owned(), to: to.to_owned() };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    // Resolve the target through a pending table repair so column hints are
    // derived against the schema the repaired statement will bind to.
    let resolved = hints
        .iter()
        .find_map(|h| match h {
            RepairHint::ReplaceTable { from, to } if from.eq_ignore_ascii_case(target) => {
                Some(to.clone())
            }
            _ => None,
        })
        .unwrap_or_else(|| target.to_owned());
    let Ok(entry) = catalog.get(&resolved) else { return hints };
    let schema = entry.table.schema();
    let columns: Vec<String> = schema.fields().iter().map(|f| f.name().to_owned()).collect();

    // A019 with a column-shaped message: unknown INSERT / SET column.
    for f in report.findings.iter().filter(|f| f.code == Code::UnknownWriteTarget) {
        if !f.message.contains("unknown column") {
            continue;
        }
        let Some(from) = f.message.rsplit('"').nth(1).filter(|s| !s.is_empty()) else {
            continue;
        };
        if columns.iter().any(|c| c.eq_ignore_ascii_case(from)) {
            continue;
        }
        if let Some(to) = nearest_name(from, &columns) {
            let h = RepairHint::ReplaceColumn { from: from.to_owned(), to: to.to_owned() };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    // A020 type faults with literal values: the written column is probably
    // the wrong one — point at the nearest column whose type fits the value.
    if report.findings.iter().any(|f| f.code == Code::WriteShapeMismatch) {
        let mut typed: Vec<(&str, DataType)> = Vec::new();
        match stmt {
            Statement::Update(u) => {
                for (c, e) in &u.sets {
                    if let Expr::Literal(v) = e {
                        if let (Some(vt), Some(f)) = (v.data_type(), schema.index_of(c)) {
                            if let Some(field) = schema.field_at(f) {
                                if field.data_type() != vt {
                                    typed.push((c.as_str(), vt));
                                }
                            }
                        }
                    }
                }
            }
            Statement::Insert(i) if !i.columns.is_empty() => {
                for row in &i.rows {
                    for (c, e) in i.columns.iter().zip(row) {
                        if let Expr::Literal(v) = e {
                            if let (Some(vt), Some(f)) = (v.data_type(), schema.index_of(c)) {
                                if let Some(field) = schema.field_at(f) {
                                    if field.data_type() != vt {
                                        typed.push((c.as_str(), vt));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        for (from, expected) in typed {
            let fitting: Vec<String> = schema
                .fields()
                .iter()
                .filter(|f| f.data_type() == expected)
                .map(|f| f.name().to_owned())
                .collect();
            let Some(to) = nearest_name(from, &fitting) else { continue };
            let h = RepairHint::RetypeColumn { from: from.to_owned(), to: to.to_owned(), expected };
            if !hints.contains(&h) {
                hints.push(h);
            }
        }
    }

    hints
}

/// `(name, type)` of every column of the tables the query reads, with
/// FROM/JOIN names resolved through pending table hints. Falls back to the
/// whole catalog when no referenced table resolves (every name unknown and
/// unrepaired). Deduplicated by name, sorted for determinism.
fn scope_columns(
    catalog: &Catalog,
    select: &Select,
    hints: &[RepairHint],
) -> Vec<(String, DataType)> {
    let resolve = |name: &str| -> String {
        hints
            .iter()
            .find_map(|h| match h {
                RepairHint::ReplaceTable { from, to } if from.eq_ignore_ascii_case(name) => {
                    Some(to.clone())
                }
                _ => None,
            })
            .unwrap_or_else(|| name.to_owned())
    };
    let mut refs = vec![select.from.name.as_str()];
    refs.extend(select.joins.iter().map(|j| j.table.name.as_str()));
    let mut out: Vec<(String, DataType)> = Vec::new();
    let push_table = |out: &mut Vec<(String, DataType)>, name: &str| {
        if let Ok(entry) = catalog.get(name) {
            for field in entry.table.schema().fields() {
                if !out.iter().any(|(n, _)| n.eq_ignore_ascii_case(field.name())) {
                    out.push((field.name().to_owned(), field.data_type()));
                }
            }
        }
    };
    for r in refs {
        push_table(&mut out, &resolve(r));
    }
    if out.is_empty() {
        let mut names = catalog.table_names();
        names.sort();
        for t in names {
            push_table(&mut out, &t);
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Resolve a column's type in the (name, type) scope, case-insensitively.
fn column_type(scope: &[(String, DataType)], name: &str) -> Option<DataType> {
    scope
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, dt)| *dt)
}

/// Columns used where a numeric value is required but whose resolved type is
/// non-numeric: arguments of `SUM`/`AVG`/`STDDEV`, operands of arithmetic
/// (except string `+` concatenation), and unary-minus arguments.
fn misused_numeric_columns(select: &Select, scope: &[(String, DataType)]) -> Vec<String> {
    use cda_dataframe::kernels::AggKind;
    use cda_sql::ast::{BinaryOp, SelectItem};
    let mut out: Vec<String> = Vec::new();
    let mut push = |out: &mut Vec<String>, name: &str| {
        if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
            out.push(name.to_owned());
        }
    };
    fn non_numeric_column<'e>(
        e: &'e Expr,
        scope: &[(String, DataType)],
    ) -> Option<&'e str> {
        if let Expr::Column { name, .. } = e {
            if column_type(scope, name).is_some_and(|dt| !dt.is_numeric()) {
                return Some(name);
            }
        }
        None
    }
    fn walk(
        e: &Expr,
        scope: &[(String, DataType)],
        push: &mut impl FnMut(&mut Vec<String>, &str),
        out: &mut Vec<String>,
    ) {
        match e {
            Expr::Aggregate { kind, arg } => {
                if let Some(a) = arg {
                    if matches!(kind, AggKind::Sum | AggKind::Avg | AggKind::StdDev) {
                        if let Some(name) = non_numeric_column(a, scope) {
                            push(out, name);
                        }
                    }
                    walk(a, scope, push, out);
                }
            }
            Expr::Binary { left, op, right } => {
                let arithmetic = matches!(
                    op,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
                );
                let concat = *op == BinaryOp::Add
                    && [left, right].iter().all(|side| {
                        non_numeric_column(side, scope).is_some()
                            || matches!(&***side, Expr::Literal(v) if v.data_type() == Some(DataType::Str))
                    });
                if arithmetic && !concat {
                    for side in [left, right] {
                        if let Some(name) = non_numeric_column(side, scope) {
                            push(out, name);
                        }
                    }
                }
                walk(left, scope, push, out);
                walk(right, scope, push, out);
            }
            Expr::Neg(inner) => {
                if let Some(name) = non_numeric_column(inner, scope) {
                    push(out, name);
                }
                walk(inner, scope, push, out);
            }
            Expr::Not(inner) => walk(inner, scope, push, out),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => walk(expr, scope, push, out),
            Expr::InList { expr, list, .. } => {
                walk(expr, scope, push, out);
                for v in list {
                    walk(v, scope, push, out);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                walk(expr, scope, push, out);
                walk(low, scope, push, out);
                walk(high, scope, push, out);
            }
            Expr::Case { branches, else_expr } => {
                for (c, v) in branches {
                    walk(c, scope, push, out);
                    walk(v, scope, push, out);
                }
                if let Some(e) = else_expr {
                    walk(e, scope, push, out);
                }
            }
            Expr::Literal(_) | Expr::Column { .. } => {}
        }
    }
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, scope, &mut push, &mut out);
        }
    }
    for j in &select.joins {
        walk(&j.on, scope, &mut push, &mut out);
    }
    if let Some(w) = &select.where_clause {
        walk(w, scope, &mut push, &mut out);
    }
    for g in &select.group_by {
        walk(g, scope, &mut push, &mut out);
    }
    if let Some(h) = &select.having {
        walk(h, scope, &mut push, &mut out);
    }
    for o in &select.order_by {
        walk(&o.expr, scope, &mut push, &mut out);
    }
    out
}

/// Rewrite every column reference named `from` (any qualifier) to `to`.
fn rewrite_columns(e: &mut Expr, from: &str, to: &str) -> bool {
    let mut changed = false;
    match e {
        Expr::Column { name, .. } => {
            if name.eq_ignore_ascii_case(from) {
                *name = to.to_owned();
                changed = true;
            }
        }
        Expr::Binary { left, right, .. } => {
            changed |= rewrite_columns(left, from, to);
            changed |= rewrite_columns(right, from, to);
        }
        Expr::Neg(inner) | Expr::Not(inner) => changed |= rewrite_columns(inner, from, to),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            changed |= rewrite_columns(expr, from, to);
        }
        Expr::InList { expr, list, .. } => {
            changed |= rewrite_columns(expr, from, to);
            for v in list {
                changed |= rewrite_columns(v, from, to);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            changed |= rewrite_columns(expr, from, to);
            changed |= rewrite_columns(low, from, to);
            changed |= rewrite_columns(high, from, to);
        }
        Expr::Case { branches, else_expr } => {
            for (c, v) in branches {
                changed |= rewrite_columns(c, from, to);
                changed |= rewrite_columns(v, from, to);
            }
            if let Some(inner) = else_expr {
                changed |= rewrite_columns(inner, from, to);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                changed |= rewrite_columns(a, from, to);
            }
        }
        Expr::Literal(_) => {}
    }
    changed
}

/// Apply every expression position of a SELECT to a mutating closure.
fn rewrite_select_exprs(select: &mut Select, mut f: impl FnMut(&mut Expr) -> bool) -> bool {
    use cda_sql::ast::SelectItem;
    let mut changed = false;
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            changed |= f(expr);
        }
    }
    for j in &mut select.joins {
        changed |= f(&mut j.on);
    }
    if let Some(w) = &mut select.where_clause {
        changed |= f(w);
    }
    for g in &mut select.group_by {
        changed |= f(g);
    }
    if let Some(h) = &mut select.having {
        changed |= f(h);
    }
    for o in &mut select.order_by {
        changed |= f(&mut o.expr);
    }
    changed
}

/// Apply hints to a candidate by rewriting its AST and re-rendering SQL.
/// Returns `None` when the SQL does not parse or no hint changed anything
/// (so callers never re-gate an identical candidate).
pub fn apply_hints(sql: &str, hints: &[RepairHint]) -> Option<String> {
    let Ok(mut select) = cda_sql::parser::parse(sql) else {
        return apply_hints_dml(sql, hints);
    };
    let mut changed = false;
    for h in hints {
        match h {
            RepairHint::ReplaceTable { from, to } => {
                let mut refs = vec![&mut select.from];
                refs.extend(select.joins.iter_mut().map(|j| &mut j.table));
                for r in refs {
                    if r.name.eq_ignore_ascii_case(from) {
                        r.name = to.clone();
                        changed = true;
                    }
                }
            }
            RepairHint::ReplaceColumn { from, to }
            | RepairHint::RetypeColumn { from, to, .. } => {
                changed |= rewrite_select_exprs(&mut select, |e| rewrite_columns(e, from, to));
            }
            RepairHint::InjectLimit { rows } => {
                let cap = usize::try_from(*rows).unwrap_or(usize::MAX);
                if select.limit.is_none_or(|l| l > cap) {
                    select.limit = Some(cap);
                    changed = true;
                }
            }
            RepairHint::DropTautology { clause } => {
                if clause.eq_ignore_ascii_case("HAVING") {
                    changed |= select.having.take().is_some();
                } else {
                    changed |= select.where_clause.take().is_some();
                }
            }
            // Contradictions have no mechanical repair: the hint is
            // feedback for the decoder, not an AST rewrite.
            RepairHint::FlagContradiction { .. } => {}
        }
    }
    changed.then(|| select.to_string())
}

/// The DML half of [`apply_hints`]: rewrite an INSERT/UPDATE/DELETE AST.
/// Table hints rename the write target; column hints rewrite INSERT column
/// lists, UPDATE `SET` targets, and every expression position. `LIMIT`
/// injection and clause drops have no DML position and are skipped.
fn apply_hints_dml(sql: &str, hints: &[RepairHint]) -> Option<String> {
    let mut stmt = cda_sql::parser::parse_statement(sql).ok()?;
    if !stmt.is_write() {
        return None;
    }
    let mut changed = false;
    for h in hints {
        match h {
            RepairHint::ReplaceTable { from, to } => {
                let target = match &mut stmt {
                    Statement::Insert(i) => &mut i.table,
                    Statement::Update(u) => &mut u.table,
                    Statement::Delete(d) => &mut d.table,
                    Statement::Select(_) => return None,
                };
                if target.eq_ignore_ascii_case(from) {
                    *target = to.clone();
                    changed = true;
                }
            }
            RepairHint::ReplaceColumn { from, to }
            | RepairHint::RetypeColumn { from, to, .. } => match &mut stmt {
                Statement::Insert(i) => {
                    for c in &mut i.columns {
                        if c.eq_ignore_ascii_case(from) {
                            *c = to.clone();
                            changed = true;
                        }
                    }
                    for row in &mut i.rows {
                        for e in row {
                            changed |= rewrite_columns(e, from, to);
                        }
                    }
                }
                Statement::Update(u) => {
                    for (c, e) in &mut u.sets {
                        if c.eq_ignore_ascii_case(from) {
                            *c = to.clone();
                            changed = true;
                        }
                        changed |= rewrite_columns(e, from, to);
                    }
                    if let Some(w) = &mut u.filter {
                        changed |= rewrite_columns(w, from, to);
                    }
                }
                Statement::Delete(d) => {
                    if let Some(w) = &mut d.filter {
                        changed |= rewrite_columns(w, from, to);
                    }
                }
                Statement::Select(_) => {}
            },
            RepairHint::InjectLimit { .. }
            | RepairHint::DropTautology { .. }
            | RepairHint::FlagContradiction { .. } => {}
        }
    }
    changed.then(|| stmt.to_string())
}

/// What [`Analyzer::gate_with_repair`] settled on.
#[derive(Debug, Clone)]
pub struct Gated {
    /// The SQL the verdict is about — post-repair, so it may differ from
    /// the input.
    pub sql: String,
    /// The gate's report on `sql`.
    pub report: Report,
    /// `sql` compiled, when it parses and binds — doomed or not, which is
    /// `report`'s call.
    pub compiled: Option<Compiled>,
    /// The repair hints applied on the way, in order.
    pub hints: Vec<RepairHint>,
}

impl<'a> Analyzer<'a> {
    /// Derive repair hints for a candidate from its gate report (the
    /// hint-extraction half of the diagnosis→generation loop; the decoder
    /// applies them with [`apply_hints`] and re-gates).
    pub fn repair_hints(&self, sql: &str, report: &Report) -> Vec<RepairHint> {
        repair_hints(self.catalog(), sql, report)
    }

    /// The gate-and-repair loop of the dialogue layer, for queries and
    /// writes alike: [`gate`](Self::gate) the statement and, while it is
    /// doomed, apply the analyzer's own hints and re-gate — at most `rounds`
    /// times, stopping early when no hint applies.
    pub fn gate_with_repair(&self, sql: &str, rounds: usize) -> Gated {
        let mut sql = sql.to_owned();
        let (mut report, mut compiled) = self.gate(&sql);
        let mut applied = Vec::new();
        for _ in 0..rounds {
            if !report.dooms_execution() {
                break;
            }
            let hints = self.repair_hints(&sql, &report);
            if hints.is_empty() {
                break;
            }
            let Some(fixed) = apply_hints(&sql, &hints) else { break };
            applied.extend(hints);
            sql = fixed;
            (report, compiled) = self.gate(&sql);
        }
        Gated { sql, report, compiled, hints: applied }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, Field, Schema, Table};

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
                Column::from_strs(&["ZH", "GE"]),
                Column::from_strs(&["it", "fin"]),
                Column::from_ints(&[100, 200]),
                Column::from_floats(&[0.1, 0.2]),
            ],
        )
        .unwrap();
        c.register("employment", emp).unwrap();
        let regions = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("population", DataType::Int),
            ]),
            vec![Column::from_strs(&["ZH"]), Column::from_ints(&[1_500_000])],
        )
        .unwrap();
        c.register("regions", regions).unwrap();
        c
    }

    fn hints_for(c: &Catalog, sql: &str) -> Vec<RepairHint> {
        let a = Analyzer::new(c);
        let report = a.analyze(sql);
        a.repair_hints(sql, &report)
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("ABC", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("salaray", "salary"), 1);
        assert_eq!(edit_distance("", "xy"), 2);
    }

    #[test]
    fn nearest_name_minimal_and_deterministic() {
        let cands = vec!["salary".to_owned(), "sector".to_owned(), "canton".to_owned()];
        assert_eq!(nearest_name("salaray", &cands), Some("salary"));
        assert_eq!(nearest_name("", &[]), None);
        // tie on distance breaks lexicographically
        let tie = vec!["ab".to_owned(), "ac".to_owned()];
        assert_eq!(nearest_name("ad", &tie), Some("ab"));
    }

    #[test]
    fn unknown_table_hint_picks_nearest_table() {
        let c = catalog();
        let hints = hints_for(&c, "SELECT canton FROM employmet");
        assert_eq!(
            hints,
            vec![RepairHint::ReplaceTable { from: "employmet".into(), to: "employment".into() }]
        );
        assert_eq!(hints[0].code(), Code::UnknownTable);
    }

    #[test]
    fn unknown_column_hint_picks_nearest_in_scope_column() {
        let c = catalog();
        let hints = hints_for(&c, "SELECT cantn FROM employment");
        assert_eq!(
            hints,
            vec![RepairHint::ReplaceColumn { from: "cantn".into(), to: "canton".into() }]
        );
    }

    #[test]
    fn qualified_unknown_column_uses_name_part() {
        let c = catalog();
        let hints = hints_for(&c, "SELECT e.jbs FROM employment e");
        assert!(
            hints.contains(&RepairHint::ReplaceColumn { from: "jbs".into(), to: "jobs".into() }),
            "{hints:?}"
        );
    }

    #[test]
    fn table_and_column_hints_compose() {
        // the column scope must see the *repaired* table's schema
        let c = catalog();
        let hints = hints_for(&c, "SELECT popultion FROM regins");
        assert_eq!(hints.len(), 2, "{hints:?}");
        assert_eq!(
            hints[0],
            RepairHint::ReplaceTable { from: "regins".into(), to: "regions".into() }
        );
        assert_eq!(
            hints[1],
            RepairHint::ReplaceColumn { from: "popultion".into(), to: "population".into() }
        );
    }

    #[test]
    fn ambiguous_column_yields_no_hint() {
        let c = catalog();
        // `canton` exists in both tables: ambiguity is not a misspelling
        let hints =
            hints_for(&c, "SELECT canton FROM employment JOIN regions ON employment.canton = regions.canton");
        assert!(hints.is_empty(), "{hints:?}");
    }

    #[test]
    fn type_mismatch_hint_points_at_nearest_numeric_column() {
        let c = catalog();
        let hints = hints_for(&c, "SELECT SUM(sector) FROM employment");
        assert_eq!(hints.len(), 1, "{hints:?}");
        let RepairHint::RetypeColumn { from, to, expected } = &hints[0] else {
            panic!("expected RetypeColumn, got {hints:?}");
        };
        assert_eq!(from, "sector");
        assert!(to == "jobs" || to == "rate", "{to}");
        assert!(expected.is_numeric());
    }

    #[test]
    fn arithmetic_over_text_yields_retype_hint() {
        let c = catalog();
        let hints = hints_for(&c, "SELECT jobs + canton FROM employment");
        assert!(
            hints.iter().any(|h| matches!(h, RepairHint::RetypeColumn { from, .. } if from == "canton")),
            "{hints:?}"
        );
        // string concatenation is fine: no hint
        assert!(hints_for(&c, "SELECT canton + sector FROM employment").is_empty());
    }

    #[test]
    fn over_budget_hint_injects_limit() {
        let c = catalog();
        let stats = crate::Statistics::from_catalog(&c);
        let a = Analyzer::new(&c).with_stats(&stats).with_row_budget(1);
        let sql = "SELECT * FROM employment";
        let report = a.analyze(sql);
        assert!(report.exceeds_budget());
        let hints = a.repair_hints(sql, &report);
        assert_eq!(hints, vec![RepairHint::InjectLimit { rows: 1 }]);
        let fixed = apply_hints(sql, &hints).unwrap();
        assert_eq!(fixed, "SELECT * FROM employment LIMIT 1");
        assert!(!a.analyze(&fixed).exceeds_budget());
    }

    #[test]
    fn syntax_errors_are_unrepairable() {
        let c = catalog();
        assert!(hints_for(&c, "SELECT FROM FROM").is_empty());
        assert!(apply_hints("SELECT FROM FROM", &[RepairHint::InjectLimit { rows: 1 }]).is_none());
    }

    #[test]
    fn clean_queries_yield_no_hints() {
        let c = catalog();
        assert!(hints_for(&c, "SELECT canton, SUM(jobs) FROM employment GROUP BY canton").is_empty());
    }

    #[test]
    fn apply_hints_rewrites_and_regates_clean() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let sql = "SELECT cantn, SUM(jbs) AS result FROM employmet GROUP BY cantn";
        let report = a.analyze(sql);
        assert!(report.dooms_execution());
        let hints = a.repair_hints(sql, &report);
        let fixed = apply_hints(sql, &hints).unwrap();
        // one round fixes the table; a second round fixes the columns that
        // were unknowable while the table itself was unknown
        let report2 = a.analyze(&fixed);
        let fixed = apply_hints(&fixed, &a.repair_hints(&fixed, &report2)).unwrap_or(fixed);
        assert_eq!(fixed, "SELECT canton, SUM(jobs) AS result FROM employment GROUP BY canton");
        assert!(!a.analyze(&fixed).dooms_execution());
        assert!(cda_sql::execute(&c, &fixed).is_ok());
    }

    #[test]
    fn apply_hints_returns_none_without_change() {
        let hints =
            vec![RepairHint::ReplaceColumn { from: "nope".into(), to: "canton".into() }];
        assert!(apply_hints("SELECT jobs FROM employment", &hints).is_none());
    }

    #[test]
    fn tautology_hint_drops_the_clause() {
        let c = catalog();
        let stats = crate::Statistics::from_catalog(&c);
        let a = Analyzer::new(&c).with_stats(&stats);
        let sql = "SELECT canton FROM employment WHERE canton IS NOT NULL";
        let report = a.analyze(sql);
        let hints = a.repair_hints(sql, &report);
        assert_eq!(hints, vec![RepairHint::DropTautology { clause: "WHERE".into() }]);
        assert_eq!(hints[0].code(), Code::DataGroundedTautology);
        let fixed = apply_hints(sql, &hints).unwrap();
        assert_eq!(fixed, "SELECT canton FROM employment");
        assert!(a.analyze(&fixed).is_clean());
        // The dropped clause changed nothing about the result.
        let before = cda_sql::execute(&c, sql).unwrap();
        let after = cda_sql::execute(&c, &fixed).unwrap();
        assert_eq!(before.table.num_rows(), after.table.num_rows());
    }

    #[test]
    fn contradiction_hint_is_feedback_only() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let sql = "SELECT canton FROM employment WHERE jobs = 1 AND jobs = 2";
        let report = a.analyze(sql);
        let hints = a.repair_hints(sql, &report);
        assert_eq!(hints.len(), 1, "{hints:?}");
        let RepairHint::FlagContradiction { detail } = &hints[0] else {
            panic!("expected FlagContradiction, got {hints:?}");
        };
        assert!(detail.contains("selects no row"), "{detail}");
        assert_eq!(hints[0].code(), Code::ProvablyEmpty);
        // No AST rewrite: the candidate is returned to the decoder as-is.
        assert!(apply_hints(sql, &hints).is_none());
    }

    fn dml_hints_for(c: &Catalog, sql: &str) -> Vec<RepairHint> {
        let a = Analyzer::new(c);
        let report = a.analyze_statement(sql);
        a.repair_hints(sql, &report)
    }

    #[test]
    fn dml_unknown_table_hint_repairs_the_write_target() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let sql = "DELETE FROM employmet WHERE jobs < 10";
        let report = a.analyze_statement(sql);
        assert!(report.dooms_execution());
        let hints = a.repair_hints(sql, &report);
        assert_eq!(
            hints,
            vec![RepairHint::ReplaceTable { from: "employmet".into(), to: "employment".into() }]
        );
        let fixed = apply_hints(sql, &hints).unwrap();
        assert!(fixed.starts_with("DELETE FROM employment"), "{fixed}");
        assert!(!a.analyze_statement(&fixed).dooms_execution());
    }

    #[test]
    fn dml_unknown_column_hint_composes_across_rounds() {
        // Round one repairs the table; the SET column only becomes
        // diagnosable once the target schema is known.
        let c = catalog();
        let a = Analyzer::new(&c);
        let sql = "UPDATE employmet SET jbs = 5";
        let fixed = apply_hints(sql, &a.repair_hints(sql, &a.analyze_statement(sql))).unwrap();
        let hints = a.repair_hints(&fixed, &a.analyze_statement(&fixed));
        assert!(
            hints.contains(&RepairHint::ReplaceColumn { from: "jbs".into(), to: "jobs".into() }),
            "{hints:?}"
        );
        let fixed = apply_hints(&fixed, &hints).unwrap();
        assert!(!a.analyze_statement(&fixed).dooms_execution(), "{fixed}");
    }

    #[test]
    fn dml_fractional_literal_into_int_yields_retype_hint() {
        let c = catalog();
        let hints = dml_hints_for(&c, "UPDATE employment SET jobs = 1.5");
        assert_eq!(
            hints,
            vec![RepairHint::RetypeColumn {
                from: "jobs".into(),
                to: "rate".into(),
                expected: DataType::Float,
            }]
        );
        let fixed = apply_hints("UPDATE employment SET jobs = 1.5", &hints).unwrap();
        let a = Analyzer::new(&c);
        assert!(!a.analyze_statement(&fixed).dooms_execution(), "{fixed}");
        assert!(fixed.contains("rate"), "{fixed}");
    }

    #[test]
    fn clean_dml_yields_no_hints_and_no_rewrite() {
        let c = catalog();
        let sql = "INSERT INTO employment (canton, sector, jobs, rate) VALUES ('BE', 'edu', 3, 0.3)";
        assert!(dml_hints_for(&c, sql).is_empty());
        assert!(apply_hints(sql, &[RepairHint::InjectLimit { rows: 1 }]).is_none());
    }

    #[test]
    fn hint_rendering_reads_naturally() {
        let h = RepairHint::ReplaceColumn { from: "salaray".into(), to: "salary".into() };
        assert_eq!(h.to_string(), "unknown column \"salaray\" -> \"salary\"");
        let h = RepairHint::ReplaceTable { from: "emp".into(), to: "employment".into() };
        assert_eq!(h.to_string(), "unknown table \"emp\" -> \"employment\"");
        let h = RepairHint::InjectLimit { rows: 500 };
        assert_eq!(h.to_string(), "result over budget -> LIMIT 500");
        let h = RepairHint::RetypeColumn {
            from: "canton".into(),
            to: "jobs".into(),
            expected: DataType::Int,
        };
        assert!(h.to_string().contains("type mismatch"), "{h}");
    }

    #[test]
    fn gate_with_repair_converges_on_a_compiled_statement() {
        let c = catalog();
        let a = Analyzer::new(&c);
        // A misspelled column: doomed as written, repaired in one round.
        let gated = a.gate_with_repair("SELECT cantn FROM employment", 2);
        assert_eq!(gated.sql, "SELECT canton FROM employment");
        assert_eq!(gated.hints.len(), 1);
        assert!(!gated.report.dooms_execution());
        assert!(gated.compiled.is_some_and(|c| c.query().is_some()));
        // Writes go through the same loop.
        let gated = a.gate_with_repair("UPDATE employment SET jbs = 1", 2);
        assert!(gated.sql.contains("jobs"), "{}", gated.sql);
        assert!(gated.compiled.is_some_and(|c| c.write().is_some()));
    }

    #[test]
    fn gate_with_repair_gives_up_without_hints_or_rounds() {
        let c = catalog();
        let a = Analyzer::new(&c);
        // Zero rounds is the plain gate.
        let gated = a.gate_with_repair("SELECT cantn FROM employment", 0);
        assert_eq!(gated.sql, "SELECT cantn FROM employment");
        assert!(gated.hints.is_empty() && gated.compiled.is_none());
        assert_eq!(gated.report, a.gate("SELECT cantn FROM employment").0);
        // Unparseable text has no AST to repair.
        let gated = a.gate_with_repair("SELECT FROM FROM", 3);
        assert!(gated.hints.is_empty() && gated.compiled.is_none());
        assert!(gated.report.dooms_execution());
        // A sound statement is left alone.
        let gated = a.gate_with_repair("SELECT canton FROM employment", 3);
        assert!(gated.hints.is_empty() && gated.compiled.is_some());
    }
}
