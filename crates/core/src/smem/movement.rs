//! Data movement code generation (paper §3.1.3).
//!
//! For each local buffer:
//!
//! * **move-in** scans the union of data spaces accessed by *read*
//!   references and copies `L[y − g] = A[y]`;
//! * **move-out** scans the union of data spaces accessed by *write*
//!   references and copies `A[y] = L[y − g]`.
//!
//! [`generate_movement`] decomposes each of the two unions into
//! disjoint pieces once and scans those
//! ([`polymem_codegen::scan_pieces`]), so each element is
//! loaded/stored exactly once — the paper's single-transfer property,
//! and precisely the two-nest shape of its Fig. 1 example. The two
//! nests are all a [`MovementCode`] holds: the data spaces and pieces
//! they were built from go on to the residency pass in memory, as
//! [`WindowPieces`], and never into a plan file.

use super::alloc::LocalBuffer;
use super::dataspace::RefInfo;
use super::Result;
use polymem_codegen::{scan_pieces, Ast};
use polymem_poly::{PolyUnion, Polyhedron};

/// Generated movement code for one buffer: its two scan nests.
#[derive(Clone, Debug)]
pub struct MovementCode {
    /// The buffer this code serves.
    pub buffer: super::BufferId,
    /// Loop nest copying global → local (scans read data spaces).
    pub move_in: Ast,
    /// Loop nest copying local → global (scans write data spaces).
    pub move_out: Ast,
}

impl MovementCode {
    /// Exact number of elements the move-in code transfers at concrete
    /// parameters (each element once).
    pub fn move_in_count(&self, params: &[i64]) -> u64 {
        self.move_in.count_visits(params)
    }

    /// Exact number of elements the move-out code transfers.
    pub fn move_out_count(&self, params: &[i64]) -> u64 {
        self.move_out.count_visits(params)
    }
}

/// One buffer's read and write windows: its member data spaces and the
/// disjoint pieces [`generate_movement`] decomposed their unions into
/// for its two nests. Kept in memory next to the [`MovementCode`]
/// (never serialised): [`plan_residency`](super::plan_residency) reads
/// the spaces and does not decompose the windows again.
#[derive(Clone, Debug)]
pub struct WindowPieces {
    /// Data spaces of the read references (full array dims).
    pub read_spaces: Vec<Polyhedron>,
    /// Data spaces of the write references.
    pub write_spaces: Vec<Polyhedron>,
    /// `move_in`'s pieces: the union of `read_spaces`, disjoint.
    pub read: Vec<Polyhedron>,
    /// `move_out`'s pieces: the union of `write_spaces`, disjoint.
    pub write: Vec<Polyhedron>,
}

/// Generate movement code for a buffer from its member references,
/// plus the windows its nests scan.
pub fn generate_movement(
    buffer: &LocalBuffer,
    members: &[&RefInfo],
) -> Result<(MovementCode, WindowPieces)> {
    let spaces = |write: bool| -> Vec<Polyhedron> {
        (members.iter())
            .filter(|r| r.id.is_write() == write)
            .map(|r| r.data_space.clone())
            .collect()
    };
    let (read_spaces, write_spaces) = (spaces(false), spaces(true));
    let read = PolyUnion::from_members(read_spaces.clone())?.disjoint_pieces()?;
    let write = PolyUnion::from_members(write_spaces.clone())?.disjoint_pieces()?;
    let code = MovementCode {
        buffer: buffer.id,
        move_in: scan_pieces(&read, &[0])?,
        move_out: scan_pieces(&write, &[0])?,
    };
    let window = WindowPieces {
        read_spaces,
        write_spaces,
        read,
        write,
    };
    Ok((code, window))
}

/// Walk a scan nest against a buffer's layout:
/// `copy(global_index, local_index)` once per scanned element. Any of
/// a movement entry's nests (`move_in`, `move_out`) or a residency
/// plan's (`retained_scan`, `delta_scan`, `flush_scan`).
pub fn for_each_scan(
    ast: &Ast,
    buffer: &LocalBuffer,
    params: &[i64],
    copy: &mut dyn FnMut(&[i64], &[i64]),
) -> Result<()> {
    let g = buffer.offsets(params)?;
    let mut local = vec![0i64; g.len()];
    ast.for_each_point(params, &mut |_, y| {
        // y is the full global index; the local index keeps the
        // buffer's dims minus offsets.
        for ((l, &d), off) in local.iter_mut().zip(&buffer.kept_dims).zip(&g) {
            *l = y[d] - off;
        }
        copy(y, &local);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::alloc::allocate_buffer;
    use crate::smem::dataspace::collect_refs;
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, Program, ProgramBuilder};
    use std::collections::HashSet;

    /// for i in [0, N-1]: A[i] = A[i] + A[i+1]
    fn stencil() -> Program {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        b.build().unwrap()
    }

    fn setup(p: &Program, arr: &str) -> (LocalBuffer, MovementCode) {
        let ai = p.array_index(arr).unwrap();
        let refs = collect_refs(p, ai).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        let buf = allocate_buffer(p, ai, 0, &members).unwrap();
        let (code, _) = generate_movement(&buf, &members).unwrap();
        (buf, code)
    }

    #[test]
    fn move_in_covers_reads_once() {
        let p = stencil();
        let (buf, code) = setup(&p, "A");
        // Reads cover [0, N] = 11 elements at N = 10, each moved once.
        assert_eq!(code.move_in_count(&[10]), 11);
        let mut seen = HashSet::new();
        for_each_scan(&code.move_in, &buf, &[10], &mut |g, l| {
            assert!(seen.insert(g.to_vec()), "duplicate transfer of {g:?}");
            assert_eq!(l[0], g[0]); // offset 0 here
        })
        .unwrap();
    }

    #[test]
    fn move_out_covers_writes_only() {
        let p = stencil();
        let (_, code) = setup(&p, "A");
        // Writes cover [0, N-1] = 10 elements.
        assert_eq!(code.move_out_count(&[10]), 10);
    }

    #[test]
    fn local_indices_respect_offsets() {
        // for i in [5, 9]: Out[i-5] = A[i]; buffer offset 5.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[LinExpr::c(50)]);
        b.array("Out", &[LinExpr::c(50)]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(5), LinExpr::c(9))])
            .write("Out", &[v("i") - 5])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let (buf, code) = setup(&p, "A");
        let mut pairs = Vec::new();
        for_each_scan(&code.move_in, &buf, &[0], &mut |g, l| {
            pairs.push((g[0], l[0]));
        })
        .unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(5, 0), (6, 1), (7, 2), (8, 3), (9, 4)]);
    }

    #[test]
    fn disjoint_read_groups_move_only_their_elements() {
        // Reads A[i] over [0, N-1] and A[i + 2N] over [2N, 3N-1]:
        // N + N elements move in, not the 3N-wide hull.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") * 3]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + v("N") * 2])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let (buf, code) = setup(&p, "A");
        assert_eq!(code.move_in_count(&[10]), 20);
        // While the single buffer spans the hull (30 words):
        assert_eq!(buf.size_words(&[10]).unwrap(), 30);
    }

    #[test]
    fn write_only_buffer_moves_nothing_in() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("Out", &[v("N"), v("N")]);
        b.array("Src", &[v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("Out", &[v("i"), v("j")])
            .read("Src", &[v("j")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let (_, code) = setup(&p, "Out");
        assert_eq!(code.move_in_count(&[6]), 0);
        assert_eq!(code.move_out_count(&[6]), 36);
    }
}
