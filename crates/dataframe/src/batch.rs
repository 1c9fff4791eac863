//! Columnar batches: typed column vectors decoupled from [`Table`](crate::Table) storage.
//!
//! A [`Vector`] is one evaluated column over a *selection* of rows — the unit
//! the vectorized kernels in [`crate::kernels`] operate on. A [`Batch`] is a
//! set of equal-length vectors, the morsel-sized chunk the physical executor
//! moves between operators. Unlike [`Column`], vectors are transient compute
//! values: they carry no schema and may hold a constant (for broadcast
//! literals) or a fully generic [`Value`] payload (for mixed-type results
//! such as CASE branches).
//!
//! Null semantics mirror [`Column`]: typed variants pair a data buffer with a
//! validity mask; reading an invalid slot yields [`Slot::Null`]. The
//! canonical placeholder stored under an invalid slot is never observable
//! through [`Vector::slot`] / [`Vector::value`].

use crate::column::Column;
use crate::value::{DataType, Value};
use crate::{DataFrameError, Result};

/// A borrowed view of one element of a [`Vector`] — the vectorized
/// counterpart of [`Value`] that avoids cloning string payloads on hot paths.
#[derive(Debug, Clone, Copy)]
pub enum Slot<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (borrowed).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
    /// Seconds since the Unix epoch.
    Timestamp(i64),
}

impl<'a> Slot<'a> {
    /// True if this slot is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, Slot::Null)
    }

    /// Numeric view, mirroring [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Slot::Int(v) | Slot::Timestamp(v) => Some(v as f64),
            Slot::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean view, mirroring [`Value::as_bool`].
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Slot::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Materialize this slot as an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            Slot::Null => Value::Null,
            Slot::Int(v) => Value::Int(v),
            Slot::Float(v) => Value::Float(v),
            Slot::Str(s) => Value::Str(s.to_owned()),
            Slot::Bool(b) => Value::Bool(b),
            Slot::Timestamp(v) => Value::Timestamp(v),
        }
    }

    /// Borrow a [`Value`] as a slot.
    pub fn from_value(v: &'a Value) -> Slot<'a> {
        match v {
            Value::Null => Slot::Null,
            Value::Int(x) => Slot::Int(*x),
            Value::Float(x) => Slot::Float(*x),
            Value::Str(s) => Slot::Str(s),
            Value::Bool(b) => Slot::Bool(*b),
            Value::Timestamp(x) => Slot::Timestamp(*x),
        }
    }
}

/// One typed column vector: the result of evaluating an expression over a
/// selection of rows, or a gather from a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum Vector {
    /// Integers with validity mask.
    Ints {
        /// Data buffer (placeholder 0 under invalid slots).
        data: Vec<i64>,
        /// Per-slot validity.
        validity: Vec<bool>,
    },
    /// Floats with validity mask.
    Floats {
        /// Data buffer (placeholder 0.0 under invalid slots).
        data: Vec<f64>,
        /// Per-slot validity.
        validity: Vec<bool>,
    },
    /// Strings with validity mask.
    Strs {
        /// Data buffer (placeholder "" under invalid slots).
        data: Vec<String>,
        /// Per-slot validity.
        validity: Vec<bool>,
    },
    /// Booleans with validity mask.
    Bools {
        /// Data buffer (placeholder false under invalid slots).
        data: Vec<bool>,
        /// Per-slot validity.
        validity: Vec<bool>,
    },
    /// Timestamps with validity mask.
    Timestamps {
        /// Data buffer (placeholder 0 under invalid slots).
        data: Vec<i64>,
        /// Per-slot validity.
        validity: Vec<bool>,
    },
    /// A broadcast constant (e.g. a SQL literal): one value, logical length.
    Const {
        /// The repeated value.
        value: Value,
        /// Logical length of the vector.
        len: usize,
    },
    /// Generic fallback for mixed-type results (CASE arms, arithmetic that
    /// widens per row).
    Values(Vec<Value>),
}

impl Vector {
    /// Logical length.
    pub fn len(&self) -> usize {
        match self {
            Vector::Ints { data, .. } | Vector::Timestamps { data, .. } => data.len(),
            Vector::Floats { data, .. } => data.len(),
            Vector::Strs { data, .. } => data.len(),
            Vector::Bools { data, .. } => data.len(),
            Vector::Const { len, .. } => *len,
            Vector::Values(v) => v.len(),
        }
    }

    /// True when the vector has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of slot `i`. Out-of-bounds reads yield `Slot::Null`
    /// (callers index within `0..len()` by construction).
    pub fn slot(&self, i: usize) -> Slot<'_> {
        match self {
            Vector::Ints { data, validity } => match (data.get(i), validity.get(i)) {
                (Some(&v), Some(true)) => Slot::Int(v),
                _ => Slot::Null,
            },
            Vector::Floats { data, validity } => match (data.get(i), validity.get(i)) {
                (Some(&v), Some(true)) => Slot::Float(v),
                _ => Slot::Null,
            },
            Vector::Strs { data, validity } => match (data.get(i), validity.get(i)) {
                (Some(v), Some(true)) => Slot::Str(v),
                _ => Slot::Null,
            },
            Vector::Bools { data, validity } => match (data.get(i), validity.get(i)) {
                (Some(&v), Some(true)) => Slot::Bool(v),
                _ => Slot::Null,
            },
            Vector::Timestamps { data, validity } => match (data.get(i), validity.get(i)) {
                (Some(&v), Some(true)) => Slot::Timestamp(v),
                _ => Slot::Null,
            },
            Vector::Const { value, len } => {
                if i < *len {
                    Slot::from_value(value)
                } else {
                    Slot::Null
                }
            }
            Vector::Values(v) => v.get(i).map_or(Slot::Null, Slot::from_value),
        }
    }

    /// Materialize slot `i` as an owned value.
    pub fn value(&self, i: usize) -> Value {
        self.slot(i).to_value()
    }

    /// A broadcast constant vector.
    pub fn constant(value: Value, len: usize) -> Self {
        Vector::Const { value, len }
    }

    /// Wrap owned values.
    pub fn from_values(values: Vec<Value>) -> Self {
        Vector::Values(values)
    }

    /// Gather `rows` from a column into a typed vector, preserving the
    /// column's physical type (Timestamp columns stay timestamps).
    pub fn from_column(col: &Column, rows: &[usize]) -> Result<Self> {
        let n = rows.len();
        let check = |i: usize| -> Result<usize> {
            if i < col.len() {
                Ok(i)
            } else {
                Err(DataFrameError::IndexOutOfBounds { kind: "row", index: i, len: col.len() })
            }
        };
        match col.data_type() {
            DataType::Int | DataType::Timestamp => {
                let buf = col.ints().unwrap_or(&[]);
                let mut data = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for &r in rows {
                    let r = check(r)?;
                    let ok = col.is_valid(r);
                    data.push(if ok { buf[r] } else { 0 });
                    validity.push(ok);
                }
                if col.data_type() == DataType::Int {
                    Ok(Vector::Ints { data, validity })
                } else {
                    Ok(Vector::Timestamps { data, validity })
                }
            }
            DataType::Float => {
                let buf = col.floats().unwrap_or(&[]);
                let mut data = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for &r in rows {
                    let r = check(r)?;
                    let ok = col.is_valid(r);
                    data.push(if ok { buf[r] } else { 0.0 });
                    validity.push(ok);
                }
                Ok(Vector::Floats { data, validity })
            }
            DataType::Str => {
                let buf = col.strs().unwrap_or(&[]);
                let mut data = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for &r in rows {
                    let r = check(r)?;
                    let ok = col.is_valid(r);
                    data.push(if ok { buf[r].clone() } else { String::new() });
                    validity.push(ok);
                }
                Ok(Vector::Strs { data, validity })
            }
            DataType::Bool => {
                let buf = col.bools().unwrap_or(&[]);
                let mut data = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for &r in rows {
                    let r = check(r)?;
                    let ok = col.is_valid(r);
                    data.push(if ok { buf[r] } else { false });
                    validity.push(ok);
                }
                Ok(Vector::Bools { data, validity })
            }
        }
    }

    /// Consume the vector into owned values (moves string payloads out of
    /// typed buffers instead of cloning them).
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Vector::Ints { data, validity } => data
                .into_iter()
                .zip(validity)
                .map(|(v, ok)| if ok { Value::Int(v) } else { Value::Null })
                .collect(),
            Vector::Floats { data, validity } => data
                .into_iter()
                .zip(validity)
                .map(|(v, ok)| if ok { Value::Float(v) } else { Value::Null })
                .collect(),
            Vector::Strs { data, validity } => data
                .into_iter()
                .zip(validity)
                .map(|(v, ok)| if ok { Value::Str(v) } else { Value::Null })
                .collect(),
            Vector::Bools { data, validity } => data
                .into_iter()
                .zip(validity)
                .map(|(v, ok)| if ok { Value::Bool(v) } else { Value::Null })
                .collect(),
            Vector::Timestamps { data, validity } => data
                .into_iter()
                .zip(validity)
                .map(|(v, ok)| if ok { Value::Timestamp(v) } else { Value::Null })
                .collect(),
            Vector::Const { value, len } => (0..len).map(|_| value.clone()).collect(),
            Vector::Values(v) => v,
        }
    }
}

/// Borrowed slot access for the grouping and join kernels — implemented by
/// owned [`Vector`]s and by [`ColumnWindow`] (a zero-copy view into a
/// [`Column`]), so key columns can be hashed in place instead of being
/// gathered into vectors first.
pub trait SlotAccess {
    /// Borrowed view of slot `i` (NULL when out of range).
    fn slot_at(&self, i: usize) -> Slot<'_>;
}

impl SlotAccess for Vector {
    fn slot_at(&self, i: usize) -> Slot<'_> {
        self.slot(i)
    }
}

/// Borrowed slot view of column row `i` (NULL when the slot is invalid or
/// out of range) — the zero-copy counterpart of [`Column::value`].
pub(crate) fn column_slot(col: &Column, i: usize) -> Slot<'_> {
    if !col.is_valid(i) {
        return Slot::Null;
    }
    match col.data_type() {
        DataType::Int => col.ints().and_then(|b| b.get(i)).map_or(Slot::Null, |&v| Slot::Int(v)),
        DataType::Timestamp => {
            col.ints().and_then(|b| b.get(i)).map_or(Slot::Null, |&v| Slot::Timestamp(v))
        }
        DataType::Float => {
            col.floats().and_then(|b| b.get(i)).map_or(Slot::Null, |&v| Slot::Float(v))
        }
        DataType::Str => {
            col.strs().and_then(|b| b.get(i)).map_or(Slot::Null, |v| Slot::Str(v))
        }
        DataType::Bool => {
            col.bools().and_then(|b| b.get(i)).map_or(Slot::Null, |&v| Slot::Bool(v))
        }
    }
}

/// A zero-copy window over `len` consecutive rows of a column: slot `i`
/// views column row `start + i`. Lets grouping and join kernels read key
/// columns in place (no string clones) while staying aligned with a
/// morsel's local row numbering.
pub struct ColumnWindow<'a> {
    col: &'a Column,
    start: usize,
    len: usize,
}

impl<'a> ColumnWindow<'a> {
    /// View rows `start .. start + len` of `col`.
    pub fn new(col: &'a Column, start: usize, len: usize) -> Self {
        Self { col, start, len }
    }
}

impl SlotAccess for ColumnWindow<'_> {
    fn slot_at(&self, i: usize) -> Slot<'_> {
        if i >= self.len {
            return Slot::Null;
        }
        column_slot(self.col, self.start + i)
    }
}

/// A morsel-sized chunk of evaluated columns, all the same length.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    vectors: Vec<Vector>,
    rows: usize,
}

impl Batch {
    /// Build a batch from equal-length vectors.
    pub fn new(vectors: Vec<Vector>) -> Result<Self> {
        let rows = vectors.first().map_or(0, Vector::len);
        for v in &vectors {
            if v.len() != rows {
                return Err(DataFrameError::LengthMismatch { expected: rows, actual: v.len() });
            }
        }
        Ok(Self { vectors, rows })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Access vector `i`.
    pub fn vector(&self, i: usize) -> Option<&Vector> {
        self.vectors.get(i)
    }

    /// Consume the batch into its vectors.
    pub fn into_vectors(self) -> Vec<Vector> {
        self.vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_views_mirror_value_semantics() {
        assert_eq!(Slot::Int(2).as_f64(), Some(2.0));
        assert_eq!(Slot::Timestamp(3).as_f64(), Some(3.0));
        assert_eq!(Slot::Str("x").as_f64(), None);
        assert_eq!(Slot::Bool(true).as_bool(), Some(true));
        assert_eq!(Slot::Int(1).as_bool(), None);
        assert!(Slot::Null.is_null());
        assert_eq!(Slot::Str("a").to_value(), Value::from("a"));
        assert_eq!(Slot::from_value(&Value::Float(1.5)).as_f64(), Some(1.5));
    }

    #[test]
    fn gather_from_column_preserves_nulls_and_type() {
        let col = Column::from_opt_ints(&[Some(1), None, Some(3)]);
        let v = Vector::from_column(&col, &[2, 1, 0]).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(0), Value::Int(3));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.value(2), Value::Int(1));
        let ts = Column::from_timestamps(&[7, 8]);
        let tv = Vector::from_column(&ts, &[1]).unwrap();
        assert!(matches!(tv.slot(0), Slot::Timestamp(8)));
    }

    #[test]
    fn gather_out_of_bounds_is_an_error() {
        let col = Column::from_ints(&[1]);
        assert!(Vector::from_column(&col, &[1]).is_err());
    }

    #[test]
    fn const_vector_broadcasts() {
        let v = Vector::constant(Value::from("k"), 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(2), Value::from("k"));
        assert!(v.slot(3).is_null());
        assert_eq!(v.into_values(), vec![Value::from("k"); 3]);
    }

    #[test]
    fn into_values_round_trips_all_variants() {
        let s = Column::from_strs(&["a", "b"]);
        let v = Vector::from_column(&s, &[0, 1]).unwrap();
        assert_eq!(v.into_values(), vec![Value::from("a"), Value::from("b")]);
        let b = Column::from_bool_parts(vec![true], vec![true]).unwrap();
        assert_eq!(
            Vector::from_column(&b, &[0]).unwrap().into_values(),
            vec![Value::Bool(true)]
        );
        let f = Column::from_opt_floats(&[None, Some(0.5)]);
        assert_eq!(
            Vector::from_column(&f, &[0, 1]).unwrap().into_values(),
            vec![Value::Null, Value::Float(0.5)]
        );
    }

    #[test]
    fn batch_checks_lengths() {
        let a = Vector::from_values(vec![Value::Int(1), Value::Int(2)]);
        let b = Vector::from_values(vec![Value::Int(3)]);
        assert!(Batch::new(vec![a.clone(), b]).is_err());
        assert_eq!(Batch::new(vec![a]).unwrap().num_rows(), 2);
    }
}
