//! Typed columnar storage.
//!
//! A [`Column`] stores one attribute of a table in a dense, typed buffer with
//! a separate validity (null) bitmap, mirroring the layout of Arrow-style
//! engines at a much smaller scale. Kernels operate directly on the typed
//! buffers; `Value`-based access is reserved for row-at-a-time boundaries.
//!
//! A column is a cheap handle: buffer and validity sit behind **one** shared
//! [`Arc`], so cloning a column (and hence projecting or cloning a table) is
//! a reference bump. Mutation is copy-on-write ([`Arc::make_mut`]): pushing
//! to a shared column copies it once. New columns are built unshared through
//! a [`ColumnBuilder`].

use crate::error::DataFrameError;
use crate::value::{DataType, Value};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// The typed data buffer behind a column.
#[derive(Debug, Clone, PartialEq)]
enum Buffer {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
    Timestamp(Vec<i64>),
}

impl Buffer {
    fn len(&self) -> usize {
        match self {
            Buffer::Int(v) | Buffer::Timestamp(v) => v.len(),
            Buffer::Float(v) => v.len(),
            Buffer::Str(v) => v.len(),
            Buffer::Bool(v) => v.len(),
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            Buffer::Int(_) => DataType::Int,
            Buffer::Float(_) => DataType::Float,
            Buffer::Str(_) => DataType::Str,
            Buffer::Bool(_) => DataType::Bool,
            Buffer::Timestamp(_) => DataType::Timestamp,
        }
    }
}

/// A typed column with a validity bitmap, shared by every clone.
///
/// Invariant: `validity.len() == buffer.len()`; a slot whose validity bit is
/// `false` is NULL and its buffer content is an unspecified placeholder.
/// Equality compares contents, never the allocation.
#[derive(Clone, PartialEq)]
pub struct Column(Arc<ColumnData>);

/// The storage one [`Column`] handle points at.
#[derive(Debug, Clone, PartialEq)]
struct ColumnData {
    buffer: Buffer,
    validity: Vec<bool>,
}

impl ColumnData {
    fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        let buffer = match data_type {
            DataType::Int => Buffer::Int(Vec::with_capacity(capacity)),
            DataType::Float => Buffer::Float(Vec::with_capacity(capacity)),
            DataType::Str => Buffer::Str(Vec::with_capacity(capacity)),
            DataType::Bool => Buffer::Bool(Vec::with_capacity(capacity)),
            DataType::Timestamp => Buffer::Timestamp(Vec::with_capacity(capacity)),
        };
        Self { buffer, validity: Vec::with_capacity(capacity) }
    }

    /// See [`Column::push`].
    fn push(&mut self, value: Value) -> Result<()> {
        let ColumnData { buffer, validity } = self;
        match (buffer, value) {
            (Buffer::Int(v), Value::Int(x)) => {
                v.push(x);
                validity.push(true);
            }
            (Buffer::Float(v), Value::Float(x)) => {
                v.push(x);
                validity.push(true);
            }
            (Buffer::Float(v), Value::Int(x)) => {
                v.push(x as f64);
                validity.push(true);
            }
            (Buffer::Str(v), Value::Str(x)) => {
                v.push(x);
                validity.push(true);
            }
            (Buffer::Bool(v), Value::Bool(x)) => {
                v.push(x);
                validity.push(true);
            }
            (Buffer::Timestamp(v), Value::Timestamp(x)) => {
                v.push(x);
                validity.push(true);
            }
            (Buffer::Timestamp(v), Value::Int(x)) => {
                v.push(x);
                validity.push(true);
            }
            (buf, Value::Null) => {
                match buf {
                    Buffer::Int(v) | Buffer::Timestamp(v) => v.push(0),
                    Buffer::Float(v) => v.push(0.0),
                    Buffer::Str(v) => v.push(String::new()),
                    Buffer::Bool(v) => v.push(false),
                }
                validity.push(false);
            }
            (buf, other) => {
                return Err(DataFrameError::TypeMismatch {
                    expected: buf.data_type().to_string(),
                    actual: format!("{other:?}"),
                })
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("buffer", &self.0.buffer)
            .field("validity", &self.0.validity)
            .finish()
    }
}

/// An unshared column under construction: [`push`](Self::push) appends
/// without the sharing check [`Column::push`] makes on every call, and
/// [`finish`](Self::finish) hands the storage to a [`Column`] handle.
#[derive(Debug)]
pub struct ColumnBuilder(ColumnData);

impl ColumnBuilder {
    /// An empty builder of the given type.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        Self(ColumnData::with_capacity(data_type, capacity))
    }

    /// Append a value; same typing rules as [`Column::push`].
    pub fn push(&mut self, value: Value) -> Result<()> {
        self.0.push(value)
    }

    /// The built column.
    pub fn finish(self) -> Column {
        Column(Arc::new(self.0))
    }
}

/// Raw-parts constructors require `data.len() == validity.len()`.
fn check_parts(data: usize, validity: usize) -> Result<()> {
    if data == validity {
        Ok(())
    } else {
        Err(DataFrameError::LengthMismatch { expected: data, actual: validity })
    }
}

impl Column {
    fn new(buffer: Buffer, validity: Vec<bool>) -> Self {
        Self(Arc::new(ColumnData { buffer, validity }))
    }

    /// Build an INT column with no nulls.
    pub fn from_ints(values: &[i64]) -> Self {
        Self::new(Buffer::Int(values.to_vec()), vec![true; values.len()])
    }

    /// Build a FLOAT column with no nulls.
    pub fn from_floats(values: &[f64]) -> Self {
        Self::new(Buffer::Float(values.to_vec()), vec![true; values.len()])
    }

    /// Build a STR column with no nulls.
    pub fn from_strs(values: &[&str]) -> Self {
        Self::new(
            Buffer::Str(values.iter().map(|s| (*s).to_owned()).collect()),
            vec![true; values.len()],
        )
    }

    /// Build a STR column from owned strings.
    pub fn from_strings(values: Vec<String>) -> Self {
        let n = values.len();
        Self::new(Buffer::Str(values), vec![true; n])
    }

    /// Build a BOOL column with no nulls.
    pub fn from_bools(values: &[bool]) -> Self {
        Self::new(Buffer::Bool(values.to_vec()), vec![true; values.len()])
    }

    /// Build a TIMESTAMP column with no nulls.
    pub fn from_timestamps(values: &[i64]) -> Self {
        Self::new(Buffer::Timestamp(values.to_vec()), vec![true; values.len()])
    }

    /// Build an INT column with nulls.
    pub fn from_opt_ints(values: &[Option<i64>]) -> Self {
        let validity: Vec<bool> = values.iter().map(Option::is_some).collect();
        let buf: Vec<i64> = values.iter().map(|v| v.unwrap_or(0)).collect();
        Self::new(Buffer::Int(buf), validity)
    }

    /// Build a FLOAT column with nulls.
    pub fn from_opt_floats(values: &[Option<f64>]) -> Self {
        let validity: Vec<bool> = values.iter().map(Option::is_some).collect();
        let buf: Vec<f64> = values.iter().map(|v| v.unwrap_or(0.0)).collect();
        Self::new(Buffer::Float(buf), validity)
    }

    /// Build an INT column from a raw buffer and validity mask. Invalid
    /// slots must hold the canonical placeholder `0` (what [`Column::push`]
    /// writes for NULL) so derived equality against push-built columns
    /// holds.
    pub fn from_int_parts(data: Vec<i64>, validity: Vec<bool>) -> Result<Self> {
        check_parts(data.len(), validity.len())?;
        Ok(Self::new(Buffer::Int(data), validity))
    }

    /// Build a FLOAT column from a raw buffer and validity mask (canonical
    /// placeholder `0.0` under invalid slots).
    pub fn from_float_parts(data: Vec<f64>, validity: Vec<bool>) -> Result<Self> {
        check_parts(data.len(), validity.len())?;
        Ok(Self::new(Buffer::Float(data), validity))
    }

    /// Build a STR column from a raw buffer and validity mask (canonical
    /// placeholder `""` under invalid slots).
    pub fn from_str_parts(data: Vec<String>, validity: Vec<bool>) -> Result<Self> {
        check_parts(data.len(), validity.len())?;
        Ok(Self::new(Buffer::Str(data), validity))
    }

    /// Build a BOOL column from a raw buffer and validity mask (canonical
    /// placeholder `false` under invalid slots).
    pub fn from_bool_parts(data: Vec<bool>, validity: Vec<bool>) -> Result<Self> {
        check_parts(data.len(), validity.len())?;
        Ok(Self::new(Buffer::Bool(data), validity))
    }

    /// Build a TIMESTAMP column from a raw buffer and validity mask
    /// (canonical placeholder `0` under invalid slots).
    pub fn from_timestamp_parts(data: Vec<i64>, validity: Vec<bool>) -> Result<Self> {
        check_parts(data.len(), validity.len())?;
        Ok(Self::new(Buffer::Timestamp(data), validity))
    }

    /// Build a column of the given type from dynamic values, checking types.
    pub fn from_values(data_type: DataType, values: &[Value]) -> Result<Self> {
        let mut col = ColumnBuilder::with_capacity(data_type, values.len());
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col.finish())
    }

    /// An empty, growable column of the given type.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        ColumnBuilder::with_capacity(data_type, capacity).finish()
    }

    /// Append a value, which must be `Null` or match the column type
    /// (INT literals are accepted into FLOAT columns and widened). A column
    /// shared with other handles is copied first (copy-on-write); build new
    /// columns with a [`ColumnBuilder`] instead.
    pub fn push(&mut self, value: Value) -> Result<()> {
        Arc::make_mut(&mut self.0).push(value)
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        self.0.buffer.data_type()
    }

    /// Number of slots (including nulls).
    pub fn len(&self) -> usize {
        self.0.buffer.len()
    }

    /// True if the column has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null slots.
    pub fn null_count(&self) -> usize {
        self.0.validity.iter().filter(|v| !**v).count()
    }

    /// Whether slot `i` holds a non-null value.
    pub fn is_valid(&self, i: usize) -> bool {
        self.0.validity.get(i).copied().unwrap_or(false)
    }

    /// The value at slot `i`.
    pub fn value(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(DataFrameError::IndexOutOfBounds { kind: "row", index: i, len: self.len() });
        }
        if !self.0.validity[i] {
            return Ok(Value::Null);
        }
        Ok(match &self.0.buffer {
            Buffer::Int(v) => Value::Int(v[i]),
            Buffer::Float(v) => Value::Float(v[i]),
            Buffer::Str(v) => Value::Str(v[i].clone()),
            Buffer::Bool(v) => Value::Bool(v[i]),
            Buffer::Timestamp(v) => Value::Timestamp(v[i]),
        })
    }

    /// Typed view of the INT buffer (valid and null slots interleaved; use
    /// [`Column::is_valid`] to mask).
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.0.buffer {
            Buffer::Int(v) | Buffer::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of the FLOAT buffer.
    pub fn floats(&self) -> Option<&[f64]> {
        match &self.0.buffer {
            Buffer::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of the STR buffer.
    pub fn strs(&self) -> Option<&[String]> {
        match &self.0.buffer {
            Buffer::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of the BOOL buffer.
    pub fn bools(&self) -> Option<&[bool]> {
        match &self.0.buffer {
            Buffer::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Gather: a new column with the slots at `indices` in that order. NULL
    /// slots receive the canonical placeholder [`Column::push`] writes, so
    /// the result equals the push-built column.
    pub fn take(&self, indices: &[usize]) -> Result<Self> {
        let len = self.len();
        if let Some(&index) = indices.iter().find(|&&i| i >= len) {
            return Err(DataFrameError::IndexOutOfBounds { kind: "row", index, len });
        }
        let valid = &self.0.validity;
        let validity: Vec<bool> = indices.iter().map(|&i| valid[i]).collect();
        fn gather<T: Clone>(data: &[T], valid: &[bool], indices: &[usize], null: T) -> Vec<T> {
            indices.iter().map(|&i| if valid[i] { data[i].clone() } else { null.clone() }).collect()
        }
        let buffer = match &self.0.buffer {
            Buffer::Int(v) => Buffer::Int(gather(v, valid, indices, 0)),
            Buffer::Timestamp(v) => Buffer::Timestamp(gather(v, valid, indices, 0)),
            Buffer::Float(v) => Buffer::Float(gather(v, valid, indices, 0.0)),
            Buffer::Str(v) => Buffer::Str(gather(v, valid, indices, String::new())),
            Buffer::Bool(v) => Buffer::Bool(gather(v, valid, indices, false)),
        };
        Ok(Self::new(buffer, validity))
    }

    /// Whether `self` and `other` are handles on the same storage.
    #[cfg(test)]
    pub(crate) fn shares_storage(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Filter by a boolean mask of the same length.
    pub fn filter(&self, mask: &[bool]) -> Result<Self> {
        if mask.len() != self.len() {
            return Err(DataFrameError::LengthMismatch { expected: self.len(), actual: mask.len() });
        }
        let indices: Vec<usize> =
            mask.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect();
        self.take(&indices)
    }

    /// Iterate values (allocating for strings; fine off the hot path).
    #[expect(clippy::expect_used, reason = "every index is below len()")]
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i).expect("in-bounds"))
    }

    /// Approximate heap size in bytes, for memory accounting in experiments.
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.0.buffer {
            Buffer::Int(v) | Buffer::Timestamp(v) => v.len() * 8,
            Buffer::Float(v) => v.len() * 8,
            Buffer::Bool(v) => v.len(),
            Buffer::Str(v) => v.iter().map(|s| s.capacity() + 24).sum(),
        };
        data + self.0.validity.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let c = Column::from_ints(&[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.value(2).unwrap(), Value::Int(3));
        assert!(c.value(3).is_err());
    }

    #[test]
    fn nulls_round_trip() {
        let c = Column::from_opt_ints(&[Some(1), None, Some(3)]);
        assert_eq!(c.null_count(), 1);
        assert!(c.value(1).unwrap().is_null());
        assert!(!c.is_valid(1));
        assert!(c.is_valid(0));
    }

    #[test]
    fn push_type_checks() {
        let mut c = Column::with_capacity(DataType::Str, 2);
        c.push(Value::from("a")).unwrap();
        assert!(c.push(Value::Int(1)).is_err());
        c.push(Value::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float() {
        let mut c = Column::with_capacity(DataType::Float, 1);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.value(0).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn int_accepted_into_timestamp() {
        let mut c = Column::with_capacity(DataType::Timestamp, 1);
        c.push(Value::Int(99)).unwrap();
        assert_eq!(c.value(0).unwrap(), Value::Timestamp(99));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_strs(&["a", "b", "c"]);
        let t = c.take(&[2, 0, 0]).unwrap();
        assert_eq!(t.value(0).unwrap(), Value::from("c"));
        assert_eq!(t.value(1).unwrap(), Value::from("a"));
        assert_eq!(t.value(2).unwrap(), Value::from("a"));
    }

    #[test]
    fn filter_by_mask() {
        let c = Column::from_floats(&[1.0, 2.0, 3.0, 4.0]);
        let f = c.filter(&[true, false, false, true]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1).unwrap(), Value::Float(4.0));
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn typed_views() {
        assert_eq!(Column::from_ints(&[5]).ints().unwrap(), &[5]);
        assert_eq!(Column::from_bools(&[true]).bools().unwrap(), &[true]);
        assert!(Column::from_ints(&[5]).floats().is_none());
        assert_eq!(Column::from_timestamps(&[7]).ints().unwrap(), &[7]);
    }

    #[test]
    fn iter_yields_values() {
        let c = Column::from_opt_floats(&[Some(1.5), None]);
        let vs: Vec<Value> = c.iter().collect();
        assert_eq!(vs, vec![Value::Float(1.5), Value::Null]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(Column::from_strs(&["hello"]).heap_bytes() > 5);
        assert_eq!(Column::from_ints(&[1, 2]).heap_bytes(), 18);
    }

    #[test]
    fn typed_take_equals_the_push_built_column() {
        let cols = [
            Column::from_values(DataType::Int, &[Value::Int(4), Value::Null, Value::Int(-1)]),
            Column::from_values(DataType::Float, &[Value::Null, Value::Float(0.5), Value::Null]),
            Column::from_values(DataType::Str, &[Value::from("a"), Value::Null, Value::from("c")]),
            Column::from_values(DataType::Bool, &[Value::Bool(true), Value::Null, Value::Null]),
            Column::from_values(DataType::Timestamp, &[Value::Null, Value::Timestamp(7), Value::Null]),
        ];
        let indices = [2, 1, 1, 0, 2];
        for c in cols {
            let c = c.unwrap();
            let mut pushed = Column::with_capacity(c.data_type(), indices.len());
            for &i in &indices {
                pushed.push(c.value(i).unwrap()).unwrap();
            }
            assert_eq!(c.take(&indices).unwrap(), pushed);
            assert!(matches!(
                c.take(&[0, 3]),
                Err(DataFrameError::IndexOutOfBounds { kind: "row", index: 3, len: 3 })
            ));
        }
        // Placeholders are canonical even when the source's are not.
        let odd = Column::from_int_parts(vec![1, 99], vec![true, false]).unwrap();
        assert_eq!(odd.take(&[1]).unwrap(), Column::from_opt_ints(&[None]));
    }

    #[test]
    fn clones_share_storage_and_pushes_copy_on_write() {
        let a = Column::from_ints(&[1, 2]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.push(Value::Int(3)).unwrap();
        assert!(!a.shares_storage(&b));
        assert_eq!((a.len(), b.len()), (2, 3));
    }

    #[test]
    fn from_values_checks_types() {
        let ok = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = Column::from_values(DataType::Int, &[Value::from("x")]);
        assert!(err.is_err());
    }
}
