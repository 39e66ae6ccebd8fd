//! The reference per-point interpreter: the engine with
//! [`MachineConfig::compiled_exec`](crate::MachineConfig::compiled_exec)
//! off, and the oracle `POLYMEM_EXEC_CHECK=1` runs beside every
//! compiled block.

use crate::block::{flush_frames, stage_frames, FrameSet, LocalStore};
use crate::exec::{budget_error, LaunchShared};
use crate::overlay::Overlay;
use crate::stats::ExecStats;
use crate::Result;
use polymem_core::smem::{flatten, AccessId, HierPlan};
use polymem_ir::ArrayStore;
use polymem_poly::count::enumerate_with_cascade;
use std::ops::ControlFlow;

/// The reference per-point interpreter for one sub-block's compute
/// phase: enumerate every statement's instances through the launch's
/// shared layout (bound evaluation at `pparams`), sort into
/// interleaved source order, then walk them through `Expr::eval` and
/// `AffineMap::apply`. It shares the layout with the compiled engine
/// but none of its walking code, which is what makes it an oracle.
/// `local` is the sub-block's staged scratchpad (present iff the
/// launch has a plan).
///
/// When the shared symbolic plan carries a level-2 (register-tile)
/// plan, the walk additionally stages register frames per thread key:
/// on every thread-key change the previous key's written frames flush
/// to scratchpad and the new key's frames stage from it, and accesses
/// rewritten at level 2 are served from the frames (counted in
/// `smem_loads_saved`, charged near-zero latency) instead of touching
/// scratchpad. Flush-on-change keeps cross-key overlap (e.g. sliding
/// windows) exact — §3.1 partitioning guarantees frames never alias
/// any other access of the same instance at any thread value.
#[allow(clippy::too_many_lines)]
pub(crate) fn interpreted_compute(
    launch: &LaunchShared,
    pparams: &[i64],
    store: &ArrayStore,
    mut local: Option<&mut LocalStore>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
) -> Result<()> {
    let (program, params) = (launch.program, launch.params);
    let source = launch.plan.as_deref();
    let hier: Option<&HierPlan> = source.and_then(|sp| sp.hier.as_ref());
    let mut frames = FrameSet::default();

    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (si, l) in launch.layouts.iter().enumerate() {
        enumerate_with_cascade(
            &l.domain,
            &l.cascade,
            pparams,
            launch.config.enum_budget,
            &mut |p| {
                instances.push((si, l.full_point(p, pparams)));
                ControlFlow::Continue(())
            },
        )
        .map_err(budget_error)?;
    }
    let common = &launch.common;
    // Interleaved source order: common loop dims, then statement, then
    // the rest.
    instances.sort_by(|(sa, pa), (sb, pb)| {
        let c = common[*sa][*sb];
        (pa[..c].cmp(&pb[..c]).then(sa.cmp(sb))).then_with(|| pa[c..].cmp(&pb[c..]))
    });

    for (si, point) in &instances {
        let stmt = &program.stmts[*si];
        // Stage the instance's register frames: flush the previous
        // thread key's written frames, load this key's from
        // scratchpad. Statements that don't iterate every thread dim
        // have no key and never touch frames (the thread-complete
        // gate dropped any group they could alias).
        if let Some(h) = hier {
            if let Some(key) = h.thread_key(*si, point).filter(|key| *key != frames.key) {
                let ls = local.as_deref_mut().expect("hier implies local store");
                stage_frames(launch, &mut frames, key.into_iter(), pparams, ls, stats)?;
            }
        }
        // Frames serve accesses only once a key is staged.
        let framed = hier.filter(|_| !frames.key.is_empty());
        let mut reads = Vec::with_capacity(stmt.reads.len());
        for (k, r) in stmt.reads.iter().enumerate() {
            let id = AccessId::read(*si, k);
            let mut staged = None;
            // Level-2 hit: serve the read from the register frame at
            // near-zero cost (no smem access in the cycle model).
            if let Some((h, la)) = framed.and_then(|h| Some((h, h.plan.rewrites.get(&id)?))) {
                let buf = &h.plan.buffers[la.buffer];
                let proj = h.project_point(*si, point);
                let idx = la.local_index(buf, &proj, &frames.pp2)?;
                stats.smem_loads_saved += 1;
                staged = Some(frames.frames.get(la.buffer, &idx)?);
            }
            let level1 = source.and_then(|sp| Some((sp, sp.plan.rewrites.get(&id)?)));
            if let Some((sp, la)) = level1.filter(|_| staged.is_none()) {
                let buf = &sp.plan.buffers[la.buffer];
                let proj = sp.project_point(*si, point);
                let idx = la.local_index(buf, &proj, pparams)?;
                stats.smem_reads += 1;
                let ls = local.as_deref().expect("staged plan implies local store");
                staged = Some(ls.get(la.buffer, &idx)?);
            }
            let v = match staged {
                Some(v) => v,
                None => {
                    let idx = r.map.apply(point, params)?;
                    let name = &program.arrays[r.array].name;
                    stats.global_reads += 1;
                    read_global(store, overlay, r.array, name, &idx, &launch.ext[r.array])?
                }
            };
            reads.push(v);
        }
        let value = stmt.body.eval(&reads, point, params)?;
        let wid = AccessId::write(*si);
        let mut staged = false;
        // Level-2 hit: the write lands in the register frame and
        // reaches scratchpad once, at the next flush.
        if let Some((h, la)) = framed.and_then(|h| Some((h, h.plan.rewrites.get(&wid)?))) {
            let buf = &h.plan.buffers[la.buffer];
            let proj = h.project_point(*si, point);
            let idx = la.local_index(buf, &proj, &frames.pp2)?;
            frames.frames.set(la.buffer, &idx, value)?;
            staged = true;
        }
        let level1 = source.and_then(|sp| Some((sp, sp.plan.rewrites.get(&wid)?)));
        if let Some((sp, la)) = level1.filter(|_| !staged) {
            let buf = &sp.plan.buffers[la.buffer];
            let proj = sp.project_point(*si, point);
            let idx = la.local_index(buf, &proj, pparams)?;
            stats.smem_writes += 1;
            let ls = local
                .as_deref_mut()
                .expect("staged plan implies local store");
            ls.set(la.buffer, &idx, value)?;
            staged = true;
        }
        if !staged {
            let a = stmt.write.array;
            let idx = stmt.write.map.apply(point, params)?;
            stats.global_writes += 1;
            overlay.set_idx(a, &program.arrays[a].name, &idx, &launch.ext[a], value)?;
        }
        stats.instances += 1;
    }
    // Final flush: the last thread key's written frames must reach
    // scratchpad before the sub-block's move-out runs.
    if let Some(ls) = local {
        flush_frames(launch, &frames, ls, stats)?;
    }
    Ok(())
}

/// A global element read: the block's own buffered writes shadow the
/// store. Overlay lookups go through the flat row-major offset; an
/// index that does not flatten falls through to `store.get`, whose
/// typed out-of-bounds error is authoritative.
fn read_global(
    store: &ArrayStore,
    overlay: &Overlay,
    array: usize,
    name: &str,
    idx: &[i64],
    ext: &[i64],
) -> Result<i64> {
    if let Some(v) = flatten(idx, ext).and_then(|off| overlay.get(array, off)) {
        return Ok(v);
    }
    Ok(store.get(name, idx)?)
}
