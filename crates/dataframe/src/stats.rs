//! Per-column statistics.
//!
//! Statistics serve two roles in the CDA reproduction: (i) the SQL optimizer
//! uses row counts and min/max for selectivity decisions, and (ii) the
//! soundness layer (P4) uses *data sufficiency* (row/null counts) to decide
//! whether an analytic answer may be produced at all — the Figure-1 move of
//! "I am only reporting data for the last 10 years since there is no
//! sufficient data earlier".

use crate::column::Column;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Total number of slots.
    pub count: usize,
    /// Number of NULL slots.
    pub null_count: usize,
    /// Number of distinct non-null values.
    pub distinct_count: usize,
    /// Minimum value (None if all-null / empty).
    pub min: Option<Value>,
    /// Maximum value.
    pub max: Option<Value>,
    /// Mean, for numeric columns.
    pub mean: Option<f64>,
}

impl ColumnStats {
    /// Compute statistics for a column.
    pub fn compute(column: &Column) -> Self {
        let count = column.len();
        let mut null_count = 0usize;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut sum = 0.0f64;
        let mut numeric_n = 0usize;
        let mut distinct: std::collections::HashSet<Value> = std::collections::HashSet::new();
        for v in column.iter() {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if let Some(x) = v.as_f64() {
                sum += x;
                numeric_n += 1;
            }
            min = Some(match min {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == std::cmp::Ordering::Less {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
            max = Some(match max {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == std::cmp::Ordering::Greater {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
            distinct.insert(v);
        }
        let mean = (numeric_n > 0).then(|| sum / numeric_n as f64);
        Self { count, null_count, distinct_count: distinct.len(), min, max, mean }
    }

    /// Fraction of non-null slots (1.0 for empty columns).
    pub fn completeness(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            1.0 - self.null_count as f64 / self.count as f64
        }
    }
}

/// Statistics for every column of a table, in schema order.
pub fn table_stats(table: &Table) -> Result<Vec<ColumnStats>> {
    Ok(table.columns().iter().map(ColumnStats::compute).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    #[test]
    fn numeric_stats() {
        let c = Column::from_opt_ints(&[Some(1), Some(5), None, Some(5)]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.count, 4);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct_count, 2);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(5)));
        assert!((s.mean.unwrap() - 11.0 / 3.0).abs() < 1e-12);
        assert!((s.completeness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn string_stats_have_no_mean() {
        let c = Column::from_strs(&["b", "a"]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.mean, None);
        assert_eq!(s.min, Some(Value::from("a")));
        assert_eq!(s.max, Some(Value::from("b")));
    }

    #[test]
    fn all_null_column() {
        let c = Column::from_opt_ints(&[None, None]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.null_count, 2);
        assert_eq!(s.min, None);
        assert_eq!(s.mean, None);
        assert_eq!(s.completeness(), 0.0);
    }

    #[test]
    fn empty_column_is_complete_but_insufficient() {
        let c = Column::from_ints(&[]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.completeness(), 1.0);
        assert_eq!(s.count - s.null_count, 0);
    }

    #[test]
    fn table_stats_per_column() {
        let t = Table::from_columns(
            Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]),
            vec![Column::from_ints(&[1, 2]), Column::from_strs(&["x", "x"])],
        )
        .unwrap();
        let stats = table_stats(&t).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].distinct_count, 2);
        assert_eq!(stats[1].distinct_count, 1);
    }
}
