//! Per-array flat-offset write overlays.
//!
//! While a round executes, blocks buffer their global writes instead
//! of touching the shared [`ArrayStore`]; the overlays are merged in
//! block order after the round's barrier. The old representation was
//! one `HashMap<(usize, Vec<i64>), i64>` — every insert and lookup
//! allocated a `Vec<i64>` key and hashed it. This one keys each
//! array's writes by *flat row-major offset* (one `usize` hash, no
//! allocation) and merges into the store by contiguous runs.
//!
//! Indices are validated against the array extents when a write
//! enters the overlay, so out-of-bounds writes surface as typed
//! [`IrError::OutOfBounds`] at the writing block, not at merge time.

use polymem_core::smem::flatten;
use polymem_ir::{ArrayStore, IrError};
use std::collections::HashMap;

/// Buffered global writes of one block (or one round worker), keyed
/// `[array id][flat offset]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Overlay {
    arrays: Vec<HashMap<usize, i64>>,
}

impl Overlay {
    /// An empty overlay for a program with `n_arrays` arrays.
    pub fn new(n_arrays: usize) -> Overlay {
        Overlay {
            arrays: vec![HashMap::new(); n_arrays],
        }
    }

    /// Latest buffered value at a flat offset, if any.
    #[inline]
    pub fn get(&self, array: usize, off: usize) -> Option<i64> {
        self.arrays[array].get(&off).copied()
    }

    /// Buffer a write at a pre-validated flat offset.
    #[inline]
    pub fn set(&mut self, array: usize, off: usize, value: i64) {
        self.arrays[array].insert(off, value);
    }

    /// Buffer a write at a multi-index, validating it against the
    /// array extents.
    pub fn set_idx(
        &mut self,
        array: usize,
        name: &str,
        index: &[i64],
        extents: &[i64],
        value: i64,
    ) -> Result<(), IrError> {
        match flatten(index, extents) {
            Some(off) => {
                self.set(array, off, value);
                Ok(())
            }
            None => Err(IrError::OutOfBounds {
                array: name.to_string(),
                index: index.to_vec(),
            }),
        }
    }

    /// Total number of buffered writes.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.arrays.iter().map(HashMap::len).sum()
    }

    /// Write every buffered value into `store`, array by array in
    /// program order, offsets ascending, coalesced into maximal
    /// contiguous runs so each run costs one slice borrow. `sids` maps
    /// each array to its store id, in a store checked to hold every
    /// array at the extents the offsets were validated against.
    pub fn merge_into(&self, sids: &[usize], store: &mut ArrayStore) {
        for (writes, &id) in self.arrays.iter().zip(sids) {
            if writes.is_empty() {
                continue;
            }
            let mut offs: Vec<usize> = writes.keys().copied().collect();
            offs.sort_unstable();
            let data = store.data_mut_by_id(id);
            let mut run = 0;
            while run < offs.len() {
                let start = offs[run];
                let mut end = run + 1;
                while end < offs.len() && offs[end] == offs[end - 1] + 1 {
                    end += 1;
                }
                let seg = &mut data[start..=offs[end - 1]];
                for (i, off) in offs[run..end].iter().enumerate() {
                    debug_assert_eq!(start + i, *off);
                    seg[i] = writes[off];
                }
                run = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_ir::builder::ProgramBuilder;
    use polymem_ir::expr::{v, Expr, LinExpr};
    use polymem_ir::Program;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.array("B", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i"), v("i")])
            .body(Expr::Const(0))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn set_idx_validates_and_merge_applies_runs() {
        let p = sample_program();
        let mut store = ArrayStore::for_program(&p, &[4]).unwrap();
        let mut ov = Overlay::new(p.arrays.len());
        let ext_a = [4i64, 4];
        // A contiguous run (row 1) plus a stray element, plus B.
        for j in 0..4 {
            ov.set_idx(0, "A", &[1, j], &ext_a, 10 + j).unwrap();
        }
        ov.set_idx(0, "A", &[3, 2], &ext_a, 99).unwrap();
        ov.set_idx(1, "B", &[0], &[4], 7).unwrap();
        assert_eq!(ov.len(), 6);
        ov.merge_into(&[0, 1], &mut store);
        assert_eq!(store.data("A").unwrap()[4..8], [10, 11, 12, 13]);
        assert_eq!(store.get("A", &[3, 2]).unwrap(), 99);
        assert_eq!(store.get("B", &[0]).unwrap(), 7);
        // Untouched cells stay zero.
        assert_eq!(store.get("A", &[0, 0]).unwrap(), 0);
    }

    #[test]
    fn oob_write_is_typed_at_insert_time() {
        let mut ov = Overlay::new(1);
        let err = ov.set_idx(0, "A", &[4, 0], &[4, 4], 1).unwrap_err();
        match err {
            IrError::OutOfBounds { array, index } => {
                assert_eq!(array, "A");
                assert_eq!(index, vec![4, 0]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Rank mismatch too.
        assert!(ov.set_idx(0, "A", &[0], &[4, 4], 1).is_err());
    }
}
