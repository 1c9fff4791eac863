//! Tables: schema + columns + row provenance identifiers.
//!
//! Every [`Table`] carries a [`RowId`] per physical row. For base tables the
//! ids are `(table_tag, row_index)`; derived tables produced by kernels and
//! SQL operators *propagate* the ids of the rows that contributed. This is
//! the minimal machinery the paper's P3 (Explainability) requires: any output
//! row can be traced back to the base rows it came from ("where-from"
//! provenance), and the provenance crate builds richer semiring annotations
//! on top of the same ids.
//!
//! A table is a cheap handle: its columns share their buffers and its rows
//! share one [`LineageStore`], so `clone`, [`Table::project`] and a
//! projection that keeps the rows cost a reference bump per column, not a
//! copy per cell.

use crate::column::{Column, ColumnBuilder};
use crate::error::DataFrameError;
use crate::lineage::LineageStore;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Identifier of a base-table row: `(table_tag, row_index)`.
///
/// `table_tag` is assigned by the catalog (or 0 for anonymous tables); the
/// pair is globally unique within one CDA session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Catalog tag of the base table this row belongs to.
    pub table: u32,
    /// Zero-based physical row index inside the base table.
    pub row: u64,
}

impl RowId {
    /// Construct a row id.
    pub fn new(table: u32, row: u64) -> Self {
        Self { table, row }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:r{}", self.table, self.row)
    }
}

/// Check that `columns` match `schema` in arity, type and length; returns
/// the row count.
fn check_columns(schema: &Schema, columns: &[Column]) -> Result<usize> {
    if schema.len() != columns.len() {
        return Err(DataFrameError::ArityMismatch { fields: schema.len(), columns: columns.len() });
    }
    let num_rows = columns.first().map_or(0, Column::len);
    for c in columns {
        if c.len() != num_rows {
            return Err(DataFrameError::LengthMismatch { expected: num_rows, actual: c.len() });
        }
    }
    for (f, c) in schema.fields().iter().zip(columns) {
        if f.data_type() != c.data_type() {
            return Err(DataFrameError::TypeMismatch {
                expected: f.data_type().to_string(),
                actual: c.data_type().to_string(),
            });
        }
    }
    Ok(num_rows)
}

/// An immutable columnar table with per-row lineage.
///
/// Equality compares schema, cell values and lineage; lineage compares
/// logically (row by row), whichever form its store has.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    /// Row `i` of the store lists the base rows that produced row `i`.
    lineage: Arc<LineageStore>,
    num_rows: usize,
}

impl Table {
    /// Build a table from a schema and matching columns. Lineage is
    /// initialized as a fresh base table with tag 0; use
    /// [`Table::with_table_tag`] to re-tag after catalog registration.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let num_rows = check_columns(&schema, &columns)?;
        Ok(Self { schema, columns, lineage: Arc::new(LineageStore::identity(0, num_rows)), num_rows })
    }

    /// Build a derived table with explicit lineage (one entry per row).
    pub fn with_lineage(schema: Schema, columns: Vec<Column>, lineage: LineageStore) -> Result<Self> {
        let num_rows = check_columns(&schema, &columns)?;
        if lineage.len() != num_rows {
            return Err(DataFrameError::LengthMismatch { expected: num_rows, actual: lineage.len() });
        }
        Ok(Self { schema, columns, lineage: Arc::new(lineage), num_rows })
    }

    /// A table with new columns over this table's rows: the lineage store is
    /// shared, not copied.
    pub fn with_columns(&self, schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let num_rows = check_columns(&schema, &columns)?;
        if num_rows != self.num_rows {
            return Err(DataFrameError::LengthMismatch { expected: num_rows, actual: self.num_rows });
        }
        Ok(Self { schema, columns, lineage: Arc::clone(&self.lineage), num_rows: self.num_rows })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema.fields().iter().map(|f| Column::with_capacity(f.data_type(), 0)).collect();
        Self { schema, columns, lineage: Arc::default(), num_rows: 0 }
    }

    /// Re-tag this table's base lineage with a catalog tag (returns a new
    /// table whose rows are `(tag, i)`).
    pub fn with_table_tag(mut self, tag: u32) -> Self {
        self.lineage = Arc::new(LineageStore::identity(tag, self.num_rows));
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> Result<&Column> {
        self.columns.get(i).ok_or(DataFrameError::IndexOutOfBounds {
            kind: "column",
            index: i,
            len: self.columns.len(),
        })
    }

    /// Column by name (case-insensitive).
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let i = self
            .schema
            .index_of(name)
            .ok_or_else(|| DataFrameError::ColumnNotFound(name.to_owned()))?;
        self.column(i)
    }

    /// Value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Result<Value> {
        self.column(col)?.value(row)
    }

    /// One row as a vector of values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.num_rows {
            return Err(DataFrameError::IndexOutOfBounds { kind: "row", index: row, len: self.num_rows });
        }
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Lineage of one row (base rows that produced it).
    pub fn lineage(&self, row: usize) -> Result<&[RowId]> {
        self.lineage
            .get(row)
            .ok_or(DataFrameError::IndexOutOfBounds { kind: "row", index: row, len: self.num_rows })
    }

    /// Every row's lineage.
    pub fn lineages(&self) -> &LineageStore {
        &self.lineage
    }

    /// Gather rows by index, propagating lineage.
    pub fn take(&self, indices: &[usize]) -> Result<Self> {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect::<Result<Vec<_>>>()?;
        let lineage = Arc::new(self.lineage.take(indices)?);
        Ok(Self { schema: self.schema.clone(), columns, lineage, num_rows: indices.len() })
    }

    /// Filter rows by a boolean mask, propagating lineage.
    pub fn filter(&self, mask: &[bool]) -> Result<Self> {
        if mask.len() != self.num_rows {
            return Err(DataFrameError::LengthMismatch { expected: self.num_rows, actual: mask.len() });
        }
        let indices: Vec<usize> =
            mask.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect();
        self.take(&indices)
    }

    /// Keep only the columns at `indices` (projection); lineage is unchanged.
    pub fn project(&self, indices: &[usize]) -> Result<Self> {
        for &i in indices {
            if i >= self.columns.len() {
                return Err(DataFrameError::IndexOutOfBounds {
                    kind: "column",
                    index: i,
                    len: self.columns.len(),
                });
            }
        }
        let schema = self.schema.project(indices);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(Self { schema, columns, lineage: Arc::clone(&self.lineage), num_rows: self.num_rows })
    }

    /// Vertically concatenate another table with an identical schema.
    pub fn concat(&self, other: &Table) -> Result<Self> {
        if self.schema != other.schema {
            return Err(DataFrameError::SchemaMismatch(format!(
                "{} vs {}",
                self.schema, other.schema
            )));
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for (a, b) in self.columns.iter().zip(&other.columns) {
            let mut c = ColumnBuilder::with_capacity(a.data_type(), a.len() + b.len());
            for v in a.iter().chain(b.iter()) {
                c.push(v)?;
            }
            columns.push(c.finish());
        }
        let lineage = Arc::new(self.lineage.concat(&other.lineage));
        Ok(Self {
            schema: self.schema.clone(),
            columns,
            lineage,
            num_rows: self.num_rows + other.num_rows,
        })
    }

    /// Append literal rows to the end of the table, checking arity and types
    /// per [`Column::push`]. Appended rows receive identity lineage with
    /// table tag 0; callers that hold a tagged base table are expected to
    /// re-tag via [`Table::with_table_tag`] (the catalog does this when the
    /// table is re-registered after a write).
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<Self> {
        let mut columns = self.columns.clone();
        for row in rows {
            if row.len() != columns.len() {
                return Err(DataFrameError::LengthMismatch {
                    expected: columns.len(),
                    actual: row.len(),
                });
            }
            for (c, v) in columns.iter_mut().zip(row.iter()) {
                c.push(v.clone())?;
            }
        }
        let appended = (0..rows.len()).map(|k| RowId::new(0, (self.num_rows + k) as u64)).collect();
        let lineage = Arc::new(self.lineage.concat(&LineageStore::one_per_row(appended)));
        Ok(Self {
            schema: self.schema.clone(),
            columns,
            lineage,
            num_rows: self.num_rows + rows.len(),
        })
    }

    /// Overwrite individual cells: for each row index `rows[k]`, column
    /// `cols[j]` receives `values[k][j]`. Row and column indices must be in
    /// range and every replacement value must be `Null` or match the column
    /// type per [`Column::push`]. Schema, row count, and lineage are
    /// unchanged — this is the apply step for UPDATE.
    pub fn update_cells(&self, rows: &[usize], cols: &[usize], values: &[Vec<Value>]) -> Result<Self> {
        if values.len() != rows.len() {
            return Err(DataFrameError::LengthMismatch { expected: rows.len(), actual: values.len() });
        }
        for &r in rows {
            if r >= self.num_rows {
                return Err(DataFrameError::IndexOutOfBounds { kind: "row", index: r, len: self.num_rows });
            }
        }
        for &c in cols {
            if c >= self.columns.len() {
                return Err(DataFrameError::IndexOutOfBounds {
                    kind: "column",
                    index: c,
                    len: self.columns.len(),
                });
            }
        }
        // Map each targeted row to its position in `rows`.
        let mut slot = vec![usize::MAX; self.num_rows];
        for (k, &r) in rows.iter().enumerate() {
            slot[r] = k;
        }
        let mut columns = self.columns.clone();
        for (j, &c) in cols.iter().enumerate() {
            let old = &self.columns[c];
            let mut rebuilt = ColumnBuilder::with_capacity(old.data_type(), self.num_rows);
            for r in 0..self.num_rows {
                let v = if slot[r] != usize::MAX {
                    let row_vals = &values[slot[r]];
                    if row_vals.len() != cols.len() {
                        return Err(DataFrameError::LengthMismatch {
                            expected: cols.len(),
                            actual: row_vals.len(),
                        });
                    }
                    row_vals[j].clone()
                } else {
                    old.value(r)?
                };
                rebuilt.push(v)?;
            }
            columns[c] = rebuilt.finish();
        }
        Ok(Self {
            schema: self.schema.clone(),
            columns,
            lineage: Arc::clone(&self.lineage),
            num_rows: self.num_rows,
        })
    }

    /// Approximate heap footprint in bytes (columns + lineage).
    pub fn heap_bytes(&self) -> usize {
        let cols: usize = self.columns.iter().map(Column::heap_bytes).sum();
        let lin = std::mem::size_of_val(self.lineage.ids());
        cols + lin
    }

    /// Pretty-print up to `max_rows` rows as an aligned text grid — used by
    /// the conversational layer when presenting tabular answers.
    pub fn render(&self, max_rows: usize) -> String {
        let header: Vec<String> =
            self.schema.fields().iter().map(|f| f.name().to_owned()).collect();
        let shown = self.num_rows.min(max_rows);
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            rows.push(
                self.columns
                    .iter()
                    .map(|c| c.value(r).map(|v| v.to_string()).unwrap_or_default())
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&header, &widths, &mut out);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &rows {
            line(row, &widths, &mut out);
        }
        if self.num_rows > shown {
            let _ = writeln!(out, "... ({} more rows)", self.num_rows - shown);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageBuilder;
    use crate::schema::Field;
    use crate::value::DataType;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("employed", DataType::Int),
        ]);
        Table::from_columns(
            schema,
            vec![Column::from_strs(&["ZH", "GE", "VD"]), Column::from_ints(&[100, 28, 42])],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_arity_and_lengths() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        assert!(matches!(
            Table::from_columns(schema.clone(), vec![]),
            Err(DataFrameError::ArityMismatch { .. })
        ));
        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        assert!(matches!(
            Table::from_columns(
                schema2,
                vec![Column::from_ints(&[1]), Column::from_ints(&[1, 2])]
            ),
            Err(DataFrameError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Table::from_columns(schema, vec![Column::from_strs(&["x"])]),
            Err(DataFrameError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn base_lineage_is_identity() {
        let t = demo().with_table_tag(7);
        assert_eq!(t.lineage(1).unwrap(), &[RowId::new(7, 1)]);
        assert_eq!(t.lineage(1).unwrap()[0].to_string(), "t7:r1");
    }

    #[test]
    fn take_propagates_lineage() {
        let t = demo().with_table_tag(1);
        let u = t.take(&[2, 0]).unwrap();
        assert_eq!(u.num_rows(), 2);
        assert_eq!(u.value(0, 0).unwrap(), Value::from("VD"));
        assert_eq!(u.lineage(0).unwrap(), &[RowId::new(1, 2)]);
        assert_eq!(u.lineage(1).unwrap(), &[RowId::new(1, 0)]);
    }

    #[test]
    fn filter_propagates_lineage() {
        let t = demo().with_table_tag(1);
        let u = t.filter(&[false, true, false]).unwrap();
        assert_eq!(u.num_rows(), 1);
        assert_eq!(u.lineage(0).unwrap(), &[RowId::new(1, 1)]);
        assert!(t.filter(&[true]).is_err());
    }

    #[test]
    fn projection_keeps_lineage() {
        let t = demo().with_table_tag(1);
        let u = t.project(&[1]).unwrap();
        assert_eq!(u.num_columns(), 1);
        assert_eq!(u.schema().field_at(0).unwrap().name(), "employed");
        assert_eq!(u.lineage(2).unwrap(), &[RowId::new(1, 2)]);
        assert!(t.project(&[9]).is_err());
    }

    #[test]
    fn concat_appends_rows_and_lineage() {
        let a = demo().with_table_tag(1);
        let b = demo().with_table_tag(2);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.lineage(5).unwrap(), &[RowId::new(2, 2)]);
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let a = demo();
        let b = a.project(&[0]).unwrap();
        assert!(a.concat(&b).is_err());
    }

    /// Whether every column of `a` shares storage with the same column of
    /// `b`, and the two share one lineage store.
    fn shares_storage(a: &Table, b: &Table, columns: &[usize]) -> bool {
        Arc::ptr_eq(&a.lineage, &b.lineage)
            && columns.iter().enumerate().all(|(j, &i)| a.columns[i].shares_storage(&b.columns[j]))
    }

    #[test]
    fn clone_and_project_share_column_and_lineage_storage() {
        let t = demo().with_table_tag(3);
        assert!(shares_storage(&t, &t.clone(), &[0, 1]));
        assert!(shares_storage(&t, &t.project(&[1, 0]).unwrap(), &[1, 0]));
        assert!(shares_storage(&t, &t.update_cells(&[], &[], &[]).unwrap(), &[0, 1]));
        assert!(!shares_storage(&t, &t.take(&[0, 1, 2]).unwrap(), &[0, 1]));
    }

    #[test]
    fn take_and_filter_of_a_base_table_keep_one_id_per_row() {
        let t = demo().with_table_tag(3);
        assert!(t.lineages().is_one_per_row());
        assert!(t.take(&[2, 2, 0]).unwrap().lineages().is_one_per_row());
        assert!(t.filter(&[true, false, true]).unwrap().lineages().is_one_per_row());
        assert!(t.concat(&t).unwrap().lineages().is_one_per_row());
        let appended = t.append_rows(&[vec![Value::from("BE"), Value::Int(1)]]).unwrap();
        assert!(appended.lineages().is_one_per_row());
        assert_eq!(appended.lineage(3).unwrap(), &[RowId::new(0, 3)]);
    }

    #[test]
    fn equality_is_logical_over_lineage_storage() {
        let t = demo().with_table_tag(3);
        let mut b = LineageBuilder::with_capacity(3);
        for row in t.lineages().iter() {
            b.extend_row(row);
            b.extend_row(row);
            b.finish_set_row();
        }
        let rebuilt = Table::with_lineage(t.schema().clone(), t.columns().to_vec(), b.build());
        assert_eq!(rebuilt.unwrap(), t);
        let retagged = t.clone().with_table_tag(4);
        assert_ne!(retagged, t);
    }

    #[test]
    fn row_access() {
        let t = demo();
        assert_eq!(t.row(1).unwrap(), vec![Value::from("GE"), Value::Int(28)]);
        assert!(t.row(5).is_err());
        assert!(t.column_by_name("EMPLOYED").is_ok());
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn with_lineage_validates_length() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let cols = vec![Column::from_ints(&[1, 2])];
        let one_row = || {
            let mut b = LineageBuilder::with_capacity(1);
            b.finish_row();
            b.build()
        };
        assert!(Table::with_lineage(schema.clone(), cols.clone(), one_row()).is_err());
        let t = Table::from_columns(schema.clone(), cols.clone()).unwrap();
        assert!(t.with_columns(schema.clone(), vec![Column::from_ints(&[1])]).is_err());
        assert!(t.with_columns(Schema::new(vec![]), vec![]).is_err());
        let u = t.with_columns(schema, vec![Column::from_ints(&[5, 6])]).unwrap();
        assert!(Arc::ptr_eq(&t.lineage, &u.lineage));
    }

    #[test]
    fn render_shows_header_and_truncation() {
        let t = demo();
        let s = t.render(2);
        assert!(s.contains("canton"));
        assert!(s.contains("ZH"));
        assert!(s.contains("1 more rows"));
        assert!(!s.contains("VD"));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(Schema::new(vec![Field::new("x", DataType::Float)]));
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 1);
        assert!(t.heap_bytes() < 64);
    }
}
