//! Per-row lineage in one flat store.
//!
//! A table's lineage is a list of [`RowId`] sets, one per row. It is stored
//! flat rather than as one heap vector per row:
//!
//! * **one id per row** (`offsets == None`): row `i`'s lineage is `ids[i]`.
//!   Every base table, and every filter, take, sort or limit of one, has this
//!   shape, so it costs one `RowId` per row and no per-row allocation;
//! * **CSR** (`offsets == Some`): row `i`'s lineage is
//!   `ids[offsets[i]..offsets[i + 1]]`. Aggregate, distinct and join results
//!   build this directly through a [`LineageBuilder`].
//!
//! Equality is logical: two stores are equal when every row cites the same
//! ids, whichever form either is stored in.

use crate::error::DataFrameError;
use crate::table::RowId;
use crate::Result;
use std::fmt;

/// The lineage of every row of a table (see the module docs).
#[derive(Clone, Default)]
pub struct LineageStore {
    ids: Vec<RowId>,
    /// `None`: exactly one id per row. `Some(o)`: CSR with `o.len() == rows + 1`
    /// and `o[0] == 0`.
    offsets: Option<Vec<usize>>,
}

impl LineageStore {
    /// Base-table lineage: row `i` is `(tag, i)`.
    pub fn identity(tag: u32, rows: usize) -> Self {
        Self::one_per_row((0..rows).map(|i| RowId::new(tag, i as u64)).collect())
    }

    /// Lineage with exactly one id per row: row `i` is `ids[i]`.
    pub fn one_per_row(ids: Vec<RowId>) -> Self {
        Self { ids, offsets: None }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.offsets {
            None => self.ids.len(),
            Some(o) => o.len() - 1,
        }
    }

    /// True if the store has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lineage of row `row`.
    pub fn get(&self, row: usize) -> Option<&[RowId]> {
        (row < self.len()).then(|| self.row(row))
    }

    /// Per-row lineage slices, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[RowId]> + '_ {
        (0..self.len()).map(|row| self.row(row))
    }

    /// Lineage of row `row < self.len()`.
    fn row(&self, row: usize) -> &[RowId] {
        match &self.offsets {
            None => &self.ids[row..=row],
            Some(o) => &self.ids[o[row]..o[row + 1]],
        }
    }

    /// Every row's ids concatenated in row order.
    pub fn ids(&self) -> &[RowId] {
        &self.ids
    }

    /// One vector per row (the owned, per-row form).
    pub fn to_vec(&self) -> Vec<Vec<RowId>> {
        self.iter().map(<[RowId]>::to_vec).collect()
    }

    /// True when the store holds exactly one id per row without offsets.
    pub fn is_one_per_row(&self) -> bool {
        self.offsets.is_none()
    }

    /// Gather rows by index.
    pub(crate) fn take(&self, indices: &[usize]) -> Result<Self> {
        let oob = |index| DataFrameError::IndexOutOfBounds { kind: "row", index, len: self.len() };
        if self.offsets.is_none() {
            let ids = indices
                .iter()
                .map(|&i| self.ids.get(i).copied().ok_or(oob(i)))
                .collect::<Result<Vec<_>>>()?;
            return Ok(Self::one_per_row(ids));
        }
        let mut b = LineageBuilder::with_capacity(indices.len());
        for &i in indices {
            b.extend_row(self.get(i).ok_or(oob(i))?);
            b.finish_row();
        }
        Ok(b.build())
    }

    /// `self`'s rows followed by `other`'s.
    pub(crate) fn concat(&self, other: &LineageStore) -> Self {
        if self.offsets.is_none() && other.offsets.is_none() {
            return Self::one_per_row([self.ids(), other.ids()].concat());
        }
        let mut b = LineageBuilder::with_capacity(self.len() + other.len());
        for row in self.iter().chain(other.iter()) {
            b.extend_row(row);
            b.finish_row();
        }
        b.build()
    }
}

impl PartialEq for LineageStore {
    fn eq(&self, other: &Self) -> bool {
        if self.offsets.is_none() && other.offsets.is_none() {
            return self.ids == other.ids;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for LineageStore {}

/// Formats as the list of per-row id lists.
impl fmt::Debug for LineageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Builds a [`LineageStore`] row by row: append ids to the open row with
/// [`extend_row`](Self::extend_row), then close it with
/// [`finish_row`](Self::finish_row) or [`finish_set_row`](Self::finish_set_row).
#[derive(Debug)]
pub struct LineageBuilder {
    ids: Vec<RowId>,
    offsets: Vec<usize>,
}

impl LineageBuilder {
    /// An empty builder expecting about `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self { ids: Vec::with_capacity(rows), offsets }
    }

    /// Append `ids` to the open row.
    pub fn extend_row(&mut self, ids: &[RowId]) {
        self.ids.extend_from_slice(ids);
    }

    /// Close the open row as appended.
    pub fn finish_row(&mut self) {
        self.offsets.push(self.ids.len());
    }

    /// Close the open row as a set: its ids sorted ascending, duplicates
    /// removed.
    pub fn finish_set_row(&mut self) {
        let start = self.offsets.last().copied().unwrap_or(0);
        let row = &mut self.ids[start..];
        row.sort_unstable();
        let mut kept = 0;
        for i in 0..row.len() {
            if kept == 0 || row[i] != row[kept - 1] {
                row[kept] = row[i];
                kept += 1;
            }
        }
        self.ids.truncate(start + kept);
        self.finish_row();
    }

    /// The finished store. It drops its offsets when every row holds exactly
    /// one id.
    pub fn build(self) -> LineageStore {
        let one_per_row = self.offsets.iter().enumerate().all(|(i, &o)| o == i);
        LineageStore { ids: self.ids, offsets: (!one_per_row).then_some(self.offsets) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(row: u64) -> RowId {
        RowId::new(1, row)
    }

    fn csr(rows: &[&[RowId]]) -> LineageStore {
        let mut offsets = vec![0];
        let mut ids = Vec::new();
        for r in rows {
            ids.extend_from_slice(r);
            offsets.push(ids.len());
        }
        LineageStore { ids, offsets: Some(offsets) }
    }

    #[test]
    fn csr_with_one_id_per_row_equals_the_identity_store() {
        let flat = LineageStore::identity(1, 3);
        let stored_as_csr = csr(&[&[rid(0)], &[rid(1)], &[rid(2)]]);
        assert!(!stored_as_csr.is_one_per_row());
        assert_eq!(stored_as_csr, flat);
        assert_eq!(flat, stored_as_csr);
        assert_ne!(csr(&[&[rid(0)], &[rid(1)]]), flat);
        assert_ne!(csr(&[&[rid(0)], &[rid(1), rid(2)], &[]]), flat);
    }

    #[test]
    fn builder_keeps_csr_and_drops_offsets_only_for_one_id_rows() {
        let mut b = LineageBuilder::with_capacity(3);
        b.extend_row(&[rid(4), rid(1), rid(4)]);
        b.finish_set_row();
        b.finish_row();
        b.extend_row(&[rid(2), rid(2)]);
        b.finish_row();
        let s = b.build();
        assert!(!s.is_one_per_row());
        assert_eq!(s.to_vec(), vec![vec![rid(1), rid(4)], vec![], vec![rid(2), rid(2)]]);
        assert_eq!(s.ids().len(), 4);

        let mut b = LineageBuilder::with_capacity(2);
        for r in [rid(3), rid(3)] {
            b.extend_row(&[r, r]);
            b.finish_set_row();
        }
        assert!(b.build().is_one_per_row());
    }

    #[test]
    fn take_and_concat_keep_the_flat_form() {
        let flat = LineageStore::identity(1, 4);
        let t = flat.take(&[3, 0, 0]).unwrap();
        assert!(t.is_one_per_row());
        assert_eq!(t.ids(), &[rid(3), rid(0), rid(0)]);
        assert!(flat.take(&[4]).is_err());
        assert!(flat.concat(&t).is_one_per_row());

        let c = csr(&[&[rid(0), rid(1)], &[]]);
        let u = c.take(&[1, 0]).unwrap();
        assert_eq!(u.to_vec(), vec![vec![], vec![rid(0), rid(1)]]);
        assert_eq!(flat.concat(&c).len(), 6);
        assert_eq!(flat.concat(&c).get(4), Some(&[rid(0), rid(1)][..]));
        assert!(c.take(&[2]).is_err());
    }

    #[test]
    fn debug_lists_rows() {
        assert_eq!(format!("{:?}", LineageStore::identity(2, 1)), "[[RowId { table: 2, row: 0 }]]");
    }
}
