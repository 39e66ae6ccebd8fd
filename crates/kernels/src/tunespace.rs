//! Candidate mapping spaces for the built-in kernels, feeding the
//! `polymem tune` autotuner.
//!
//! Each kernel gets an explicit table of [`TuneCandidate`]s: tile-size
//! menus crossed with the two splits of its table mapping
//! (all-blocked, sequential-sub-tile), plus toggle variants
//! (double buffering, residency, hierarchy) — with the
//! CLI's canonical preset mapping pinned (`preset = true`) so the
//! tuned winner is ≤ the hand-picked mapping by construction.
//!
//! [`build`] is the inverse: it reconstructs the [`BlockedKernel`] a
//! [`MappingDesc`] denotes, including the one scheme no tiling
//! expresses (`"jacobi_overlapped"`). Every built-in kernel that runs —
//! a launch, a tuned winner reloaded by `polymem run --tuned` or the
//! compile service, a test's or a bench's own tiles — comes out of it.

use crate::builtins::Builtin;
use crate::jacobi;
use polymem_core::smem::tune::MappingDesc;
use polymem_ir::{ArrayStore, Program};
use polymem_machine::{tile_kernel, BlockedKernel, MachineConfig, TuneCandidate};

/// The base (untiled) program and concrete parameters a built-in
/// kernel tunes at `--size`, plus the checked output array.
pub fn workload(name: &str, size: i64) -> Option<(Program, Vec<i64>, &'static str)> {
    let b = Builtin::named(name)?;
    Some(((b.program)(), (b.params)(size), b.check))
}

/// Deterministically seed a workload's array store (same seed the CLI
/// `run` check uses).
pub fn init_store(name: &str, store: &mut ArrayStore, seed: u64) {
    if let Some(b) = Builtin::named(name) {
        (b.init)(store, seed);
    }
}

/// Rebuild the kernel a mapping description denotes for `name`.
/// `None` when the scheme or tiles are not recognised (e.g. an
/// artifact written by a different kernel).
pub fn build(name: &str, desc: &MappingDesc) -> Option<BlockedKernel> {
    let tile =
        |d: &str| -> Option<i64> { desc.tiles.iter().find(|(n, _)| n == d).map(|(_, s)| *s) };
    match desc.scheme.as_str() {
        // A per-round Jacobi description names its rounds, blocks and
        // threads like any tiling; only its tune key tells it apart.
        "tile" | "jacobi_stepwise" => {
            let program = (Builtin::named(name)?.program)();
            tile_kernel(&program, desc).ok()
        }
        "jacobi_overlapped" => Some(jacobi::overlapped_kernel(
            tile("t")?,
            tile("i")?,
            desc.use_scratchpad,
        )),
        _ => None,
    }
}

/// Jacobi's per-round mapping: every time step is a device-sync round,
/// `i` tiles of `si` cells span the blocks, one thread per cell;
/// staged, every movement toggle off.
pub fn jacobi_stepwise(si: i64) -> MappingDesc {
    MappingDesc {
        scheme: "jacobi_stepwise".into(),
        tiles: vec![("i".into(), si)],
        round_dims: vec!["t".into()],
        block_dims: vec!["iT".into()],
        seq_dims: vec![],
        thread_dims: vec!["i".into()],
        use_scratchpad: true,
        double_buffer: false,
        hierarchy: false,
        residency: false,
    }
}

/// One `"tile"`-scheme variation of a kernel's canonical mapping:
/// whether the last tile loop runs sequentially inside the block, and
/// the movement toggles.
#[derive(PartialEq)]
struct Shape {
    seq_last: bool,
    double_buffer: bool,
    residency: bool,
}

/// The kernel's canonical mapping in `shape`, re-tiled to `sizes`. The
/// tuner does not price the register level, so candidates leave it
/// off.
fn variant(b: &Builtin, sizes: &[i64], shape: &Shape) -> MappingDesc {
    MappingDesc {
        double_buffer: shape.double_buffer,
        residency: shape.residency,
        ..b.tiled(sizes, shape.seq_last)
    }
}

/// Every combination of one entry per menu, first menu outermost.
fn product(menus: &[&[i64]]) -> Vec<Vec<i64>> {
    menus.iter().fold(vec![vec![]], |acc, menu| {
        acc.iter()
            .flat_map(|p| menu.iter().map(move |&t| [&p[..], &[t]].concat()))
            .collect()
    })
}

/// The candidate space of one built-in kernel on `base`. `smoke`
/// narrows the tile menu for CI. The pinned preset row is the mapping
/// `base` launches untuned (the [`BUILTINS`](crate::builtins::BUILTINS)
/// table's, in the variant `base.double_buffer` selects).
pub fn candidates(name: &str, base: &MachineConfig, smoke: bool) -> Option<Vec<TuneCandidate>> {
    let b = Builtin::named(name)?;
    let sizes: &[i64] = if smoke { &[2, 4, 8] } else { &[2, 4, 8, 16] };
    // Residency folds like a launch's toggle: only where the machine
    // derives it (on a machine without it, `res` variants would be
    // twins of their plain ones).
    let shape = |seq_last, double_buffer, residency: bool| Shape {
        seq_last,
        double_buffer,
        residency: residency && base.residency,
    };
    let flat = shape(false, false, true);
    let mut shapes = if smoke {
        vec![flat, shape(true, true, true)]
    } else {
        vec![
            flat,
            shape(true, false, true),
            shape(true, true, true),
            shape(true, true, false),
        ]
    };
    shapes.dedup();
    let mut out: Vec<TuneCandidate> = Vec::new();
    let mut push = |desc: MappingDesc, preset: bool| {
        if let Some(kernel) = build(name, &desc) {
            out.push(TuneCandidate {
                desc,
                kernel,
                preset,
            });
        }
    };
    push(b.mapping(base.double_buffer, base), true);
    if name == "jacobi" {
        // The preset is the paper's overlapped (time-tiled) mapping;
        // the space crosses its (time, space) tile sizes and adds the
        // stepwise per-round mapping with and without scratchpad
        // staging.
        let residency = base.residency;
        let tts: &[i64] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
        let sis: &[i64] = if smoke { &[4, 8, 16] } else { &[4, 8, 16, 32] };
        for tiles in product(&[tts, sis]) {
            push(
                MappingDesc {
                    residency,
                    ..b.tiled(&tiles, false)
                },
                false,
            );
        }
        for &si in sis {
            let step = MappingDesc {
                residency,
                ..jacobi_stepwise(si)
            };
            push(step.clone(), false);
            push(
                MappingDesc {
                    use_scratchpad: false,
                    ..step
                },
                false,
            );
        }
    } else {
        // Cross a size menu per tile loop (matmul's reduction loop `k`
        // has its own) with the shapes.
        let tk_menu: &[i64] = if smoke { &[8] } else { &[4, 8, 16] };
        // The flat shape at the table's own tile sizes.
        let canonical = variant(b, &[], &shapes[0]);
        let menus: Vec<&[i64]> = canonical
            .tiles
            .iter()
            .map(|(n, _)| if n == "k" { tk_menu } else { sizes })
            .collect();
        for tiles in product(&menus) {
            for shape in &shapes {
                push(variant(b, &tiles, shape), false);
            }
        }
        // Unstaged baseline.
        push(
            MappingDesc {
                use_scratchpad: false,
                ..canonical
            },
            false,
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_has_a_pinned_preset() {
        let gpu = MachineConfig::geforce_8800_gtx();
        for name in ["me", "jacobi", "jacobi2d", "matmul", "conv2d"] {
            let cands = candidates(name, &gpu, true).expect("space exists");
            assert!(
                cands.iter().filter(|c| c.preset).count() == 1,
                "{name} needs exactly one preset"
            );
            assert!(cands.len() >= 10, "{name} space too small: {}", cands.len());
        }
    }

    #[test]
    fn descs_rebuild_their_kernels() {
        let gpu = MachineConfig::geforce_8800_gtx();
        for name in ["me", "jacobi", "matmul"] {
            for c in candidates(name, &gpu, true).unwrap() {
                let k = build(name, &c.desc).expect("rebuilds");
                assert_eq!(k.block_dims, c.kernel.block_dims);
                assert_eq!(k.seq_dims, c.kernel.seq_dims);
                assert_eq!(k.use_scratchpad, c.kernel.use_scratchpad);
            }
        }
    }
}
