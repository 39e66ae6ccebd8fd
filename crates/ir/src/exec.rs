//! Reference sequential interpreter.
//!
//! Executes a [`Program`] in *source order*: all statement instances
//! sorted by their shared outer-loop values (matched by dimension
//! name), tie-broken by textual statement order, then by inner loop
//! values. This defines the semantics every transformed program
//! (tiled, scratchpad-buffered) must preserve; the test-suites compare
//! final array contents bit-exactly against this interpreter.

use crate::program::{Access, Program};
use crate::{IrError, Result};
use polymem_poly::count::enumerate_points;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One array's storage: flat row-major data plus its extents.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ArrayEntry {
    name: String,
    data: Vec<i64>,
    extents: Vec<i64>,
}

/// Flat row-major storage for every array of a program.
///
/// Arrays are held in *program declaration order* and addressable two
/// ways: by name (convenient, one hash lookup) or by dense id
/// ([`ArrayStore::id_of`] + the `*_by_id` accessors, no hashing).
/// When the store was built with [`ArrayStore::for_program`], the id
/// of an array equals its index in `program.arrays`, so executors can
/// resolve names once per program and run every access id-based.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayStore {
    index: HashMap<String, usize>,
    entries: Vec<ArrayEntry>,
}

impl ArrayStore {
    /// Allocate zero-initialised storage for all arrays of a program
    /// at the given parameter values.
    pub fn for_program(program: &Program, params: &[i64]) -> Result<ArrayStore> {
        if params.len() != program.params.len() {
            return Err(IrError::BadParams {
                expected: program.params.len(),
                got: params.len(),
            });
        }
        let mut store = ArrayStore {
            index: HashMap::new(),
            entries: Vec::with_capacity(program.arrays.len()),
        };
        for a in &program.arrays {
            let extents = a.eval_extents(&program.params, params)?;
            if extents.iter().any(|&e| e < 0) {
                return Err(IrError::OutOfBounds {
                    array: a.name.clone(),
                    index: extents.clone(),
                });
            }
            // A size the host cannot hold is a typed error, not an
            // abort: the product may overflow, the allocation may fail.
            let size = extents
                .iter()
                .try_fold(1i64, |n, &e| n.checked_mul(e))
                .and_then(|n| usize::try_from(n).ok());
            let mut data = Vec::new();
            match size {
                Some(n) if data.try_reserve_exact(n).is_ok() => data.resize(n, 0),
                _ => {
                    return Err(IrError::TooLarge {
                        array: a.name.clone(),
                        extents,
                    })
                }
            }
            store.index.insert(a.name.clone(), store.entries.len());
            store.entries.push(ArrayEntry {
                name: a.name.clone(),
                data,
                extents,
            });
        }
        Ok(store)
    }

    fn entry(&self, array: &str) -> Result<&ArrayEntry> {
        self.index
            .get(array)
            .map(|&id| &self.entries[id])
            .ok_or_else(|| IrError::UnknownArray(array.to_string()))
    }

    fn entry_mut(&mut self, array: &str) -> Result<&mut ArrayEntry> {
        match self.index.get(array) {
            Some(&id) => Ok(&mut self.entries[id]),
            None => Err(IrError::UnknownArray(array.to_string())),
        }
    }

    /// Dense id of an array (its index in the originating program's
    /// declaration order), or `None` if unknown.
    pub fn id_of(&self, array: &str) -> Option<usize> {
        self.index.get(array).copied()
    }

    /// Read one element (row-major).
    pub fn get(&self, array: &str, index: &[i64]) -> Result<i64> {
        let e = self.entry(array)?;
        let off = flat_offset(&e.name, index, &e.extents)?;
        Ok(e.data[off])
    }

    /// Write one element (row-major).
    pub fn set(&mut self, array: &str, index: &[i64], value: i64) -> Result<()> {
        let e = self.entry_mut(array)?;
        let off = flat_offset(&e.name, index, &e.extents)?;
        e.data[off] = value;
        Ok(())
    }

    /// Read one element by dense id (no name hashing).
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn get_by_id(&self, id: usize, index: &[i64]) -> Result<i64> {
        let e = &self.entries[id];
        let off = flat_offset(&e.name, index, &e.extents)?;
        Ok(e.data[off])
    }

    /// Write one element by dense id (no name hashing).
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn set_by_id(&mut self, id: usize, index: &[i64], value: i64) -> Result<()> {
        let e = &mut self.entries[id];
        let off = flat_offset(&e.name, index, &e.extents)?;
        e.data[off] = value;
        Ok(())
    }

    /// Borrow an array's flat data.
    pub fn data(&self, array: &str) -> Result<&[i64]> {
        Ok(self.entry(array)?.data.as_slice())
    }

    /// Mutably borrow an array's flat data.
    pub fn data_mut(&mut self, array: &str) -> Result<&mut [i64]> {
        Ok(self.entry_mut(array)?.data.as_mut_slice())
    }

    /// Borrow an array's flat data by dense id.
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn data_by_id(&self, id: usize) -> &[i64] {
        &self.entries[id].data
    }

    /// Mutably borrow an array's flat data by dense id.
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn data_mut_by_id(&mut self, id: usize) -> &mut [i64] {
        &mut self.entries[id].data
    }

    /// An array's extents.
    pub fn extents(&self, array: &str) -> Result<&[i64]> {
        Ok(self.entry(array)?.extents.as_slice())
    }

    /// An array's extents by dense id.
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn extents_by_id(&self, id: usize) -> &[i64] {
        &self.entries[id].extents
    }

    /// Fill an array by calling `f` with each multi-index.
    pub fn fill_with(&mut self, array: &str, mut f: impl FnMut(&[i64]) -> i64) -> Result<()> {
        let ArrayEntry { data, extents, .. } = self.entry_mut(array)?;
        let mut idx = vec![0i64; extents.len()];
        for cell in data.iter_mut() {
            *cell = f(&idx);
            // Increment the row-major multi-index.
            for d in (0..extents.len()).rev() {
                idx[d] += 1;
                if idx[d] < extents[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(())
    }
}

fn flat_offset(array: &str, index: &[i64], extents: &[i64]) -> Result<usize> {
    if index.len() != extents.len() {
        return Err(IrError::OutOfBounds {
            array: array.to_string(),
            index: index.to_vec(),
        });
    }
    let mut off: i64 = 0;
    for (&i, &e) in index.iter().zip(extents) {
        if i < 0 || i >= e {
            return Err(IrError::OutOfBounds {
                array: array.to_string(),
                index: index.to_vec(),
            });
        }
        off = off * e + i;
    }
    Ok(off as usize)
}

/// Resolve every program array to its dense store id, once.
///
/// `ids[k]` is the store id of `program.arrays[k]`; accesses carry
/// array indices into `program.arrays`, so executors index this table
/// instead of hashing names per access.
pub fn resolve_array_ids(program: &Program, store: &ArrayStore) -> Result<Vec<usize>> {
    program
        .arrays
        .iter()
        .map(|a| {
            store
                .id_of(&a.name)
                .ok_or_else(|| IrError::UnknownArray(a.name.clone()))
        })
        .collect()
}

/// Execute one statement instance against a store.
pub fn exec_statement_instance(
    program: &Program,
    stmt_idx: usize,
    point: &[i64],
    params: &[i64],
    store: &mut ArrayStore,
) -> Result<()> {
    let ids = resolve_array_ids(program, store)?;
    exec_resolved(program, &ids, stmt_idx, point, params, store)
}

/// Execute one statement instance with pre-resolved array ids.
fn exec_resolved(
    program: &Program,
    ids: &[usize],
    stmt_idx: usize,
    point: &[i64],
    params: &[i64],
    store: &mut ArrayStore,
) -> Result<()> {
    let stmt = &program.stmts[stmt_idx];
    let read_one = |acc: &Access, store: &ArrayStore| -> Result<i64> {
        let idx = acc.map.apply(point, params)?;
        store.get_by_id(ids[acc.array], &idx)
    };
    let mut reads = Vec::with_capacity(stmt.reads.len());
    for r in &stmt.reads {
        reads.push(read_one(r, store)?);
    }
    let value = stmt.body.eval(&reads, point, params)?;
    let widx = stmt.write.map.apply(point, params)?;
    store.set_by_id(ids[stmt.write.array], &widx, value)
}

/// Execute a whole program in source order.
///
/// Instances are ordered by interleaving on name-shared outer loops:
/// compare the common named prefix of the two statements' iteration
/// vectors, then textual statement order, then the remaining inner
/// coordinates.
pub fn exec_program(program: &Program, params: &[i64], store: &mut ArrayStore) -> Result<()> {
    program.validate()?;
    // Collect all instances.
    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (si, s) in program.stmts.iter().enumerate() {
        let dom = s.domain.substitute_params(params)?;
        enumerate_points(&dom, u64::MAX, &mut |p| instances.push((si, p.to_vec())))?;
    }
    // Precompute pairwise common depths.
    let n = program.stmts.len();
    let mut common = vec![vec![0usize; n]; n];
    for (a, row) in common.iter_mut().enumerate() {
        for (b, cell) in row.iter_mut().enumerate() {
            *cell = program.common_depth(a, b);
        }
    }
    instances.sort_by(|(sa, pa), (sb, pb)| {
        let c = common[*sa][*sb];
        for k in 0..c {
            match pa[k].cmp(&pb[k]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        match sa.cmp(sb) {
            Ordering::Equal => pa[c..].cmp(&pb[c..]),
            o => o,
        }
    });
    // Resolve array names to dense ids once; the instance loop then
    // performs no per-access name hashing.
    let ids = resolve_array_ids(program, store)?;
    for (si, point) in &instances {
        exec_resolved(program, &ids, *si, point, params, store)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::{v, Expr, LinExpr};

    #[test]
    fn store_roundtrip_and_bounds() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N") + 1]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), LinExpr::c(0))])
            .write("A", &[v("i"), v("i")])
            .body(Expr::Const(0))
            .done();
        let p = b.build().unwrap();
        let mut st = ArrayStore::for_program(&p, &[3]).unwrap();
        st.set("A", &[2, 3], 42).unwrap();
        assert_eq!(st.get("A", &[2, 3]).unwrap(), 42);
        assert_eq!(st.get("A", &[0, 0]).unwrap(), 0);
        assert!(st.get("A", &[3, 0]).is_err());
        assert!(st.get("A", &[0, 4]).is_err());
        assert!(st.get("A", &[-1, 0]).is_err());
        assert!(st.get("B", &[0]).is_err());
        assert_eq!(st.extents("A").unwrap(), &[3, 4]);
    }

    #[test]
    fn a_store_too_large_for_the_host_is_a_typed_error() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        let p = b.build().unwrap();
        // 2^62 elements overflow the byte count; 2^64 the element count.
        for n in [1i64 << 31, 1 << 32] {
            match ArrayStore::for_program(&p, &[n]) {
                Err(IrError::TooLarge { array, extents }) => {
                    assert_eq!((array.as_str(), extents), ("A", vec![n, n]));
                }
                other => panic!("N = {n}: {other:?}"),
            }
        }
    }

    #[test]
    fn fill_with_row_major_order() {
        let mut b = ProgramBuilder::new("p", Vec::<String>::new());
        b.array("A", &[LinExpr::c(2), LinExpr::c(3)]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), LinExpr::c(0))])
            .write("A", &[v("i"), v("i")])
            .body(Expr::Const(0))
            .done();
        let p = b.build().unwrap();
        let mut st = ArrayStore::for_program(&p, &[]).unwrap();
        st.fill_with("A", |idx| idx[0] * 10 + idx[1]).unwrap();
        assert_eq!(st.data("A").unwrap(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn executes_prefix_sum_style_recurrence() {
        // for i in 1..=N-1: A[i] = A[i-1] + A[i]  (source order matters)
        let mut b = ProgramBuilder::new("scan", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(1), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i") - 1])
            .read("A", &[v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let mut st = ArrayStore::for_program(&p, &[5]).unwrap();
        st.fill_with("A", |_| 1).unwrap();
        exec_program(&p, &[5], &mut st).unwrap();
        assert_eq!(st.data("A").unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn interleaves_statements_sharing_outer_loops() {
        // Fig. 1 style: S1 at depth (i), S2 at depth (i, k); S2 of
        // iteration i must see S1(i)'s write.
        let mut b = ProgramBuilder::new("inter", ["N"]);
        b.array("A", &[v("N")]);
        b.array("B", &[v("N"), v("N")]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .body(Expr::add(Expr::Iter(0), Expr::Const(100)))
            .done();
        b.stmt("S2")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("k", LinExpr::c(0), v("N") - 1),
            ])
            .write("B", &[v("i"), v("k")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let mut st = ArrayStore::for_program(&p, &[3]).unwrap();
        exec_program(&p, &[3], &mut st).unwrap();
        // Every B[i][k] sees A[i] = i + 100 written by S1 in the same i.
        for i in 0..3 {
            for k in 0..3 {
                assert_eq!(st.get("B", &[i, k]).unwrap(), i + 100);
            }
        }
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut b = ProgramBuilder::new("oob", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i") + 1]) // writes A[N] at i = N-1
            .body(Expr::Const(1))
            .done();
        let p = b.build().unwrap();
        let mut st = ArrayStore::for_program(&p, &[4]).unwrap();
        assert!(matches!(
            exec_program(&p, &[4], &mut st),
            Err(IrError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn wrong_param_count_is_reported() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), LinExpr::c(0))])
            .write("A", &[v("i")])
            .body(Expr::Const(0))
            .done();
        let p = b.build().unwrap();
        assert!(matches!(
            ArrayStore::for_program(&p, &[]),
            Err(IrError::BadParams {
                expected: 1,
                got: 0
            })
        ));
    }
}
