//! §3 movement loops → Cell-style DMA lists (strided transfer
//! descriptors).
//!
//! The executor replays [`movement`](super::movement) copy nests
//! element by element, which models a machine issuing one bus
//! transaction per word. Real explicitly-managed-memory targets batch:
//! the Cell's MFC takes *DMA lists* (each entry a contiguous chunk at
//! a global address), and GPUs coalesce a half-warp's loads into one
//! wide transaction. This pass scans one movement or residency nest of
//! a buffer in **exactly the enumeration order** of
//! [`for_each_scan`](super::movement::for_each_scan) and fuses
//! maximal constant-stride runs into [`TransferDescriptor`]s —
//! `(global_base, local_base, elem_count, stride, n_rows)` plus the
//! row strides — so each descriptor is one strided bulk transfer and
//! the whole [`TransferList`] covers the same element multiset as the
//! per-element loops: each element exactly once, no gaps, no overlaps.

use super::alloc::LocalBuffer;
use super::movement::for_each_scan;
use super::Result;
use polymem_codegen::ast::Ast;

/// One strided bulk transfer: `n_rows` rows of `elem_count` elements.
///
/// Element `(r, e)` (row `r`, position `e`) lives at flat global
/// offset `global_base + r·global_row_stride + e·stride` and flat
/// local offset `local_base + r·local_row_stride + e·local_stride`.
/// The canonical Cell-list case is `stride == 1` (contiguous rows in
/// global memory) with packed local rows; the extra stride fields keep
/// the descriptor exact for transposed/strided layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferDescriptor {
    /// Flat element offset of the first element in the global array
    /// (row-major over the array extents).
    pub global_base: i64,
    /// Flat element offset of the first element in the local buffer
    /// (row-major over the buffer extents).
    pub local_base: i64,
    /// Elements per row.
    pub elem_count: i64,
    /// Global stride between consecutive elements of a row.
    pub stride: i64,
    /// Number of rows.
    pub n_rows: i64,
    /// Global stride between consecutive row starts.
    pub global_row_stride: i64,
    /// Local stride between consecutive elements of a row.
    pub local_stride: i64,
    /// Local stride between consecutive row starts.
    pub local_row_stride: i64,
}

impl TransferDescriptor {
    /// Total elements this descriptor transfers.
    pub fn elements(&self) -> u64 {
        (self.elem_count.max(0) as u64) * (self.n_rows.max(0) as u64)
    }

    /// Total bytes at the given word size.
    pub fn bytes(&self, word_bytes: u64) -> u64 {
        self.elements() * word_bytes
    }

    /// Whether every row is contiguous on both sides (the pure
    /// Cell-DMA-list entry shape).
    pub fn contiguous(&self) -> bool {
        self.stride == 1 && self.local_stride == 1
    }

    /// Replay the transfer as `(global_flat, local_flat)` pairs, in
    /// issue order.
    pub fn for_each(&self, f: &mut dyn FnMut(i64, i64)) {
        for r in 0..self.n_rows {
            for e in 0..self.elem_count {
                f(
                    self.global_base + r * self.global_row_stride + e * self.stride,
                    self.local_base + r * self.local_row_stride + e * self.local_stride,
                );
            }
        }
    }
}

/// The DMA list for one direction of one buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransferList {
    /// Descriptors in issue order (the movement scan order).
    pub descriptors: Vec<TransferDescriptor>,
    /// Total elements across all descriptors (the per-plan count; the
    /// per-descriptor counts are [`TransferDescriptor::elements`]).
    pub elements: u64,
}

impl TransferList {
    /// No descriptors at all.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Replay every descriptor, in order.
    pub fn for_each(&self, f: &mut dyn FnMut(i64, i64)) {
        for d in &self.descriptors {
            d.for_each(f);
        }
    }
}

/// The DMA channel cost model, written once: `n` channels, each a
/// busy-until clock. A descriptor goes to the least-busy channel
/// (deterministic tie-break on index), starts no earlier than
/// `earliest` nor before that channel is free, and occupies it for
/// `round(setup + ceil(bytes / bytes_per_cycle)).max(1) + route`
/// cycles. The simulator's DMA engine wraps this with tags, stalls and
/// statistics; the tune estimator prices transfer lists with it
/// directly — so predicted and simulated DMA time cannot drift.
#[derive(Clone, Debug)]
pub struct DmaChannels {
    busy_until: Vec<u64>,
    setup_cycles: f64,
    bytes_per_cycle: f64,
    route_cycles: u64,
}

impl DmaChannels {
    /// `channels` idle channels (at least one). `route_cycles` is the
    /// NoC route every descriptor pays on top of setup + bandwidth (a
    /// spatial block's placement-determined hop cost; 0 elsewhere).
    pub fn new(
        channels: u64,
        setup_cycles: f64,
        bytes_per_cycle: f64,
        route_cycles: u64,
    ) -> DmaChannels {
        DmaChannels {
            busy_until: vec![0; channels.max(1) as usize],
            setup_cycles: setup_cycles.max(0.0),
            bytes_per_cycle: bytes_per_cycle.max(1e-9),
            route_cycles,
        }
    }

    /// Number of channels.
    pub fn count(&self) -> usize {
        self.busy_until.len()
    }

    /// Queue one descriptor of `bytes`; returns `(channel, cycles it
    /// occupies the channel, completion cycle)`.
    pub fn issue(&mut self, bytes: u64, earliest: u64) -> (usize, u64, u64) {
        let ch = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(i, &busy)| (busy, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let xfer = (bytes as f64 / self.bytes_per_cycle).ceil();
        let cost = (self.setup_cycles + xfer).round().max(1.0) as u64 + self.route_cycles;
        let done = earliest.max(self.busy_until[ch]) + cost;
        self.busy_until[ch] = done;
        (ch, cost, done)
    }

    /// Queue a whole list; returns the completion cycle of its last
    /// descriptor (`earliest` for an empty list).
    pub fn issue_list(&mut self, list: &TransferList, word_bytes: u64, earliest: u64) -> u64 {
        list.descriptors.iter().fold(earliest, |last, d| {
            last.max(self.issue(d.bytes(word_bytes), earliest).2)
        })
    }

    /// The cycle at which every channel is idle.
    pub fn idle_at(&self) -> u64 {
        self.busy_until.iter().copied().max().unwrap_or(0)
    }
}

/// Row-major flat offset of a multi-dimensional index.
pub fn flatten_index(idx: &[i64], extents: &[i64]) -> i64 {
    let mut off = 0i64;
    for (&i, &e) in idx.iter().zip(extents) {
        off = off * e.max(1) + i;
    }
    off
}

/// Build the DMA list of one scan nest over a buffer: a movement
/// entry's `move_in` / `move_out`, or a residency plan's `delta_scan` /
/// `flush_scan`. The list follows
/// [`for_each_scan`](super::movement::for_each_scan)'s order exactly.
///
/// `array_extents` are the concrete extents of the global array (its
/// declaration evaluated at the *program* parameters); `params` is the
/// parameter vector `scan`/`buffer` are affine in (the extended
/// `params ++ fixed` vector for symbolic plans). Global indices are
/// flattened row-major over the array extents, local indices row-major
/// over the buffer extents — matching the executor's `LocalStore`
/// layout — then maximal constant-stride runs are fused. A residency
/// delta list covers only the elements that still cross the global
/// bus; retained atoms are re-based by a scratchpad-local copy and
/// never appear.
pub fn transfer_list(
    scan: &Ast,
    buffer: &LocalBuffer,
    array_extents: &[i64],
    params: &[i64],
) -> Result<TransferList> {
    let buf_extents = buffer.extents(params)?;
    let mut pairs: Vec<(i64, i64)> = Vec::new();
    for_each_scan(scan, buffer, params, &mut |g, l| {
        pairs.push((
            flatten_index(g, array_extents),
            flatten_index(l, &buf_extents),
        ));
    })?;
    Ok(coalesce(&pairs))
}

/// A maximal constant-delta run of consecutive scan elements.
struct Run {
    g0: i64,
    l0: i64,
    n: i64,
    dg: i64,
    dl: i64,
}

/// Fuse an ordered `(global_flat, local_flat)` sequence into
/// descriptors: first maximal constant-stride runs (the innermost
/// loop), then consecutive same-shape runs whose bases advance by a
/// constant stride (the row loop). Element order is preserved exactly.
fn coalesce(pairs: &[(i64, i64)]) -> TransferList {
    let mut runs: Vec<Run> = Vec::new();
    for &(g, l) in pairs {
        if let Some(r) = runs.last_mut() {
            if r.n == 1 && g != r.g0 {
                r.n = 2;
                r.dg = g - r.g0;
                r.dl = l - r.l0;
                continue;
            }
            if r.n > 1 && g == r.g0 + r.n * r.dg && l == r.l0 + r.n * r.dl {
                r.n += 1;
                continue;
            }
        }
        // Singleton runs use stride 1 canonically so that scattered
        // single elements can still fuse into one strided descriptor.
        runs.push(Run {
            g0: g,
            l0: l,
            n: 1,
            dg: 1,
            dl: 1,
        });
    }

    let mut descriptors: Vec<TransferDescriptor> = Vec::new();
    let mut i = 0usize;
    while i < runs.len() {
        let base = &runs[i];
        let mut n_rows = 1i64;
        let (mut grs, mut lrs) = (0i64, 0i64);
        let mut j = i + 1;
        while j < runs.len() {
            let r = &runs[j];
            if r.n != base.n || r.dg != base.dg || r.dl != base.dl {
                break;
            }
            let prev = &runs[j - 1];
            let (g_step, l_step) = (r.g0 - prev.g0, r.l0 - prev.l0);
            if n_rows == 1 {
                grs = g_step;
                lrs = l_step;
            } else if g_step != grs || l_step != lrs {
                break;
            }
            n_rows += 1;
            j += 1;
        }
        descriptors.push(TransferDescriptor {
            global_base: base.g0,
            local_base: base.l0,
            elem_count: base.n,
            stride: base.dg,
            n_rows,
            global_row_stride: grs,
            local_stride: base.dl,
            local_row_stride: lrs,
        });
        i = j;
    }
    TransferList {
        descriptors,
        elements: pairs.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::alloc::allocate_buffer;
    use crate::smem::dataspace::collect_refs;
    use crate::smem::movement::{generate_movement, MovementCode};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, Program, ProgramBuilder};

    fn setup(p: &Program, arr: &str) -> (LocalBuffer, MovementCode, Vec<i64>) {
        let ai = p.array_index(arr).unwrap();
        let refs = collect_refs(p, ai).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        let buf = allocate_buffer(p, ai, 0, &members).unwrap();
        let (code, _) = generate_movement(p, &buf, &members).unwrap();
        (buf, code, Vec::new())
    }

    /// Expand the list back into pairs and compare against the raw
    /// movement enumeration — order included.
    fn assert_exact_cover(scan: &Ast, buf: &LocalBuffer, ext: &[i64], params: &[i64]) {
        let list = transfer_list(scan, buf, ext, params).unwrap();
        let mut expanded = Vec::new();
        list.for_each(&mut |g, l| expanded.push((g, l)));
        let bext = buf.extents(params).unwrap();
        let mut raw = Vec::new();
        for_each_scan(scan, buf, params, &mut |g, l| {
            raw.push((flatten_index(g, ext), flatten_index(l, &bext)));
        })
        .unwrap();
        assert_eq!(expanded, raw);
        assert_eq!(list.elements, raw.len() as u64);
        assert_eq!(
            list.descriptors.iter().map(|d| d.elements()).sum::<u64>(),
            raw.len() as u64
        );
    }

    /// for i in [0, N-1]: Out[i] = A[i] + A[i+1] — a contiguous 1-D
    /// window collapses to a single contiguous descriptor.
    #[test]
    fn contiguous_window_is_one_descriptor() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let (buf, code, _) = setup(&p, "A");
        let list = transfer_list(&code.move_in, &buf, &[11], &[10]).unwrap();
        assert_eq!(list.descriptors.len(), 1);
        let d = &list.descriptors[0];
        assert_eq!((d.elem_count, d.n_rows), (11, 1));
        assert!(d.contiguous());
        assert_exact_cover(&code.move_in, &buf, &[11], &[10]);
    }

    /// A 2-D tile of a wider array becomes one descriptor with
    /// `n_rows` rows and a row stride equal to the array width.
    #[test]
    fn tile_rows_fuse_with_row_stride() {
        let mut b = ProgramBuilder::new("p", [] as [&str; 0]);
        b.array("A", &[LinExpr::c(20), LinExpr::c(30)]);
        b.array("Out", &[LinExpr::c(20), LinExpr::c(30)]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(4), LinExpr::c(7)),
                ("j", LinExpr::c(10), LinExpr::c(14)),
            ])
            .write("Out", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let (buf, code, _) = setup(&p, "A");
        let list = transfer_list(&code.move_in, &buf, &[20, 30], &[]).unwrap();
        assert_eq!(list.descriptors.len(), 1);
        let d = &list.descriptors[0];
        assert_eq!((d.elem_count, d.n_rows), (5, 4));
        assert_eq!(d.global_row_stride, 30);
        assert_eq!(d.local_row_stride, 5);
        assert_eq!(d.global_base, 4 * 30 + 10);
        assert_eq!(d.local_base, 0);
        assert!(d.contiguous());
        assert_eq!(list.elements, 20);
        assert_exact_cover(&code.move_in, &buf, &[20, 30], &[]);
    }

    /// Strided global access (`A[2i]`): the descriptor records the
    /// element stride instead of falling apart into singletons.
    #[test]
    fn strided_access_keeps_one_descriptor() {
        let mut b = ProgramBuilder::new("p", [] as [&str; 0]);
        b.array("A", &[LinExpr::c(40)]);
        b.array("Out", &[LinExpr::c(16)]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), LinExpr::c(15))])
            .write("Out", &[v("i")])
            .read("A", &[v("i") * 2])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let (buf, code, _) = setup(&p, "A");
        let list = transfer_list(&code.move_in, &buf, &[40], &[]).unwrap();
        // Whether the data space keeps the stride (exact image) or is
        // relaxed to its hull (rational projection), the scan is a
        // single constant-stride run → exactly one descriptor.
        assert_eq!(list.descriptors.len(), 1);
        assert_exact_cover(&code.move_in, &buf, &[40], &[]);
    }

    /// Move-out lists cover the write spaces.
    #[test]
    fn move_out_descriptors_cover_writes() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let (buf, code, _) = setup(&p, "A");
        let move_in = transfer_list(&code.move_in, &buf, &[11], &[10]).unwrap();
        let move_out = transfer_list(&code.move_out, &buf, &[11], &[10]).unwrap();
        assert_eq!(move_out.elements, 10);
        assert_eq!(move_in.elements, 11);
        assert!(move_in.descriptors.len() + move_out.descriptors.len() >= 2);
        assert_exact_cover(&code.move_out, &buf, &[11], &[10]);
    }

    /// The coalescer itself: scattered singletons with a constant gap
    /// fuse into one n_rows descriptor; irregular gaps split.
    #[test]
    fn coalescer_handles_degenerate_sequences() {
        // Constant-gap singletons (both sides stride 7/1).
        let pairs: Vec<(i64, i64)> = (0..5).map(|k| (k * 7, k)).collect();
        let list = coalesce(&pairs);
        assert_eq!(list.descriptors.len(), 1);
        let d = &list.descriptors[0];
        assert!(d.elements() == 5);
        // Irregular sequence: falls apart but still exact.
        let pairs = vec![(0, 0), (1, 1), (2, 2), (10, 3), (11, 4), (40, 5)];
        let list = coalesce(&pairs);
        let mut expanded = Vec::new();
        list.for_each(&mut |g, l| expanded.push((g, l)));
        assert_eq!(expanded, pairs);
        // Empty input.
        let list = coalesce(&[]);
        assert!(list.is_empty());
        assert_eq!(list.elements, 0);
    }
}
