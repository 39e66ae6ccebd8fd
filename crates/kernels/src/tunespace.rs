//! Candidate mapping spaces for the built-in kernels, feeding the
//! `polymem tune` autotuner.
//!
//! Each kernel gets an explicit table of [`TuneCandidate`]s: tile-size
//! menus crossed with the mapping shapes its constructors support
//! (all-blocked, sequential-sub-tile, hoisted), plus toggle variants
//! (double buffering, residency, hierarchy, vector width) — with the
//! CLI's canonical preset mapping pinned (`preset = true`) so the
//! tuned winner is ≤ the hand-picked mapping by construction.
//!
//! [`build`] is the inverse: it reconstructs the [`BlockedKernel`] a
//! persisted [`MappingDesc`] denotes, including the kernel-specific
//! schemes (`"jacobi_overlapped"`, `"jacobi_stepwise"`) that the
//! generic tiling scheme cannot express. `polymem run --tuned` and the
//! compile service use it to execute a tuned winner without searching.

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
        "tile" => {
            let program = (Builtin::named(name)?.program)();
            tile_kernel(&program, desc).ok().flatten()
        }
        "jacobi_overlapped" => Some(jacobi::overlapped_kernel(
            tile("t")?,
            tile("i")?,
            desc.use_scratchpad,
        )),
        "jacobi_stepwise" => Some(jacobi::stepwise_kernel(tile("i")?, desc.use_scratchpad)),
        _ => None,
    }
}

/// One `"tile"`-scheme variation of a kernel's canonical mapping:
/// whether the last tile loop runs sequentially inside the block, and
/// the movement toggles.
struct Shape {
    seq_last: bool,
    double_buffer: bool,
    residency: bool,
}

/// `desc` with its tile loops resized to `sizes`, in order (none
/// keeps them).
fn retiled(mut desc: MappingDesc, sizes: &[i64]) -> MappingDesc {
    for ((_, t), s) in desc.tiles.iter_mut().zip(sizes) {
        *t = *s;
    }
    desc
}

/// The kernel's canonical mapping in `shape`, re-tiled to `sizes`. The
/// tuner does not price the register level, so candidates leave it
/// off.
fn variant(b: &Builtin, sizes: &[i64], shape: &Shape, base: &MachineConfig) -> MappingDesc {
    MappingDesc {
        double_buffer: shape.double_buffer,
        hierarchy: false,
        residency: shape.residency,
        ..retiled(b.mapping(shape.seq_last, base), sizes)
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
    let flat = Shape {
        seq_last: false,
        double_buffer: false,
        residency: true,
    };
    let shape = |double_buffer, residency| Shape {
        seq_last: true,
        double_buffer,
        residency,
    };
    let shapes = if smoke {
        vec![flat, shape(true, true)]
    } else {
        vec![
            flat,
            shape(false, true),
            shape(true, true),
            shape(true, false),
        ]
    };
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
        let unpipelined = MappingDesc {
            double_buffer: false,
            hierarchy: false,
            ..b.mapping(false, base)
        };
        let tts: &[i64] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
        let sis: &[i64] = if smoke { &[4, 8, 16] } else { &[4, 8, 16, 32] };
        for tiles in product(&[tts, sis]) {
            push(retiled(unpipelined.clone(), &tiles), false);
        }
        for &si in sis {
            let step = MappingDesc {
                scheme: "jacobi_stepwise".into(),
                tiles: vec![("i".into(), si)],
                round_dims: vec!["t".into()],
                thread_dims: vec!["i".into()],
                use_scratchpad: true,
                ..unpipelined.clone()
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
        let canonical = variant(b, &[], &shapes[0], base);
        let menus: Vec<&[i64]> = canonical
            .tiles
            .iter()
            .map(|(n, _)| if n == "k" { tk_menu } else { sizes })
            .collect();
        for tiles in product(&menus) {
            for shape in &shapes {
                push(variant(b, &tiles, shape, base), false);
            }
        }
        // Unstaged baseline and (on the 2-D kernels) a vector-width
        // variant: wall-clock knobs that never change modeled cycles,
        // kept in the space so the artifact records them.
        push(
            MappingDesc {
                use_scratchpad: false,
                ..canonical.clone()
            },
            false,
        );
        if name != "matmul" {
            push(
                MappingDesc {
                    vector_width: (base.vector_width / 2).max(1),
                    ..canonical
                },
                false,
            );
        }
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
