//! The built-in launches: one table, one resolver.
//!
//! "What does `<kernel> --size N [--double-buffer]` launch" is decided
//! here and nowhere else. [`BUILTINS`] holds, per kernel, the program,
//! the size → parameter rule, the fixed analysis parameters, the seeded
//! initialiser, the checked output array and the canonical mapping in
//! its flat and its sequential-sub-tile variant — as data, turned into
//! a [`BlockedKernel`] by [`tunespace::build`] like any tuned mapping.
//! [`launch`] resolves a request against it. The CLI (`run`, `key`,
//! `analyze --json`), the daemon, the tuner's preset row and the bench
//! harness all read this table, so a `polymem run` and a daemon `run`
//! of the same request are the same launch by construction.

use crate::{conv2d, jacobi, jacobi2d, matmul, me, tunespace};
use polymem_core::smem::tune::MappingDesc;
use polymem_ir::{ArrayStore, IrError, Program};
use polymem_machine::{
    config_for, launch_config, tune, BlockedKernel, LaunchToggles, MachineConfig, TuneOptions,
};

/// Tile-loop placement of one mapping variant: the dims spanning
/// thread blocks and the dims run sequentially inside a block.
type Split = (&'static [&'static str], &'static [&'static str]);

/// One built-in kernel.
pub struct Builtin {
    /// Name on the command line and in serve requests.
    pub name: &'static str,
    /// The untiled source program (reference semantics).
    pub program: fn() -> Program,
    /// Concrete parameter values at `--size N`.
    pub params: fn(i64) -> Vec<i64>,
    /// Representative parameters `analyze` and `emit` plan at.
    pub analysis_params: &'static [i64],
    /// Deterministic input initialiser (store, seed).
    pub init: fn(&mut ArrayStore, u64),
    /// The output array the functional check compares.
    pub check: &'static str,
    // The canonical mapping, as `MappingDesc` ingredients.
    scheme: &'static str,
    tiles: &'static [(&'static str, i64)],
    round_dims: &'static [&'static str],
    flat: Split,
    /// The variant `--double-buffer` selects: one tile loop runs
    /// sequentially inside each block so its DMA can overlap compute.
    seq: Split,
    thread_dims: &'static [&'static str],
    use_scratchpad: bool,
}

/// Position tiles of 4×4 across blocks (or `iT` across blocks, `jT`
/// sequential): the mapping ME, conv2d and Jacobi-2D share.
const TILES_IJ: &[(&str, i64)] = &[("i", 4), ("j", 4)];
const FLAT_IJ: Split = (&["iT", "jT"], &[]);
const SEQ_J: Split = (&["iT"], &["jT"]);

/// Every built-in kernel, in the order the usage text lists them.
pub const BUILTINS: [Builtin; 5] = [
    Builtin {
        name: "me",
        program: me::program,
        params: |size| vec![size, size, 4],
        analysis_params: &[64, 64, 16],
        init: me::init_store,
        check: "Sad",
        scheme: "tile",
        tiles: TILES_IJ,
        round_dims: &[],
        flat: FLAT_IJ,
        seq: SEQ_J,
        thread_dims: &["i"],
        use_scratchpad: true,
    },
    // The paper's overlapped (time-tiled) mapping, unstaged; it has no
    // sequential sub-tile loop, so both variants coincide.
    Builtin {
        name: "jacobi",
        program: jacobi::program,
        params: |size| vec![8, size],
        analysis_params: &[16, 256],
        init: jacobi::init_store,
        check: "A",
        scheme: "jacobi_overlapped",
        tiles: &[("t", 2), ("i", 8)],
        round_dims: &["tT"],
        flat: (&["iT"], &[]),
        seq: (&["iT"], &[]),
        thread_dims: &[],
        use_scratchpad: false,
    },
    Builtin {
        name: "jacobi2d",
        program: jacobi2d::program,
        params: |size| vec![3, size],
        analysis_params: &[4, 32],
        init: jacobi2d::init_store,
        check: "A",
        scheme: "tile",
        tiles: TILES_IJ,
        round_dims: &["t"],
        flat: FLAT_IJ,
        seq: SEQ_J,
        thread_dims: &["i"],
        use_scratchpad: true,
    },
    // The sequential variant is the §4.2 hoisted mapping: `kT` runs
    // inside the block, `C` stays resident across it.
    Builtin {
        name: "matmul",
        program: matmul::program,
        params: |size| vec![size],
        analysis_params: &[64],
        init: matmul::init_store,
        check: "C",
        scheme: "tile",
        tiles: &[("i", 4), ("j", 4), ("k", 8)],
        round_dims: &[],
        flat: FLAT_IJ,
        seq: (&["iT", "jT"], &["kT"]),
        thread_dims: &["i"],
        use_scratchpad: true,
    },
    Builtin {
        name: "conv2d",
        program: conv2d::program,
        params: |size| vec![size, 3],
        analysis_params: &[64, 5],
        init: conv2d::init_store,
        check: "Out",
        scheme: "tile",
        tiles: TILES_IJ,
        round_dims: &[],
        flat: FLAT_IJ,
        seq: SEQ_J,
        thread_dims: &["i"],
        use_scratchpad: true,
    },
];

fn owned(dims: &[&str]) -> Vec<String> {
    dims.iter().map(|d| d.to_string()).collect()
}

impl Builtin {
    /// Look a built-in up by name.
    pub fn named(name: &str) -> Option<&'static Builtin> {
        BUILTINS.iter().find(|b| b.name == name)
    }

    /// The table's mapping in its sequential-sub-tile split iff `seq`
    /// (its flat one otherwise), its tile loops resized to `tiles` in
    /// order — loops past the end of `tiles` keep the table's size —
    /// with every movement toggle off. [`tunespace::build`] turns it
    /// into the kernel; `use_scratchpad: false` over it is the
    /// unstaged variant.
    pub fn tiled(&self, tiles: &[i64], seq: bool) -> MappingDesc {
        let (block_dims, seq_dims) = if seq { self.seq } else { self.flat };
        let mut sizes: Vec<(String, i64)> =
            self.tiles.iter().map(|&(n, t)| (n.into(), t)).collect();
        for ((_, t), &s) in sizes.iter_mut().zip(tiles) {
            *t = s;
        }
        MappingDesc {
            scheme: self.scheme.into(),
            tiles: sizes,
            round_dims: owned(self.round_dims),
            block_dims: owned(block_dims),
            seq_dims: owned(seq_dims),
            thread_dims: owned(self.thread_dims),
            use_scratchpad: self.use_scratchpad,
            double_buffer: false,
            hierarchy: false,
            residency: false,
        }
    }

    /// The canonical mapping — the sequential-sub-tile variant iff
    /// `seq` — carrying `config`'s movement toggles.
    pub(crate) fn mapping(&self, seq: bool, config: &MachineConfig) -> MappingDesc {
        MappingDesc {
            double_buffer: config.double_buffer,
            hierarchy: config.hierarchy,
            residency: config.residency,
            ..self.tiled(&[], seq)
        }
    }
}

/// One resolved built-in launch: everything `execute_blocked` needs.
pub struct Launch {
    /// The untiled source program (reference executions run this).
    pub program: Program,
    /// The blocked mapping that runs.
    pub kernel: BlockedKernel,
    /// Concrete parameter values for the requested size.
    pub params: Vec<i64>,
    /// The output array the functional check compares.
    pub check: &'static str,
    /// The machine configuration with every toggle folded in.
    pub config: MachineConfig,
    /// The mapping that runs, as data: the canonical preset, or the
    /// autotuned winner.
    pub mapping: MappingDesc,
    /// `None` unless a tuned mapping was asked for; then where the
    /// winner came from (`search` | `artifact`), or why the preset
    /// runs instead.
    pub tune: Option<Result<&'static str, String>>,
    init: fn(&mut ArrayStore, u64),
}

impl Launch {
    /// The launch's input store, initialised with `seed`. Fails
    /// (typed) at a size no store can be built for, e.g. a negative
    /// one.
    pub fn seeded_store(&self, seed: u64) -> Result<ArrayStore, IrError> {
        let mut st = ArrayStore::for_program(&self.program, &self.params)?;
        (self.init)(&mut st, seed);
        Ok(st)
    }
}

/// Resolve `<kernel> --size <size>` on the pristine machine
/// configuration `base` under `toggles`. With `tuned`, the autotuned
/// winner (and its toggles) replaces the preset: the same search, on
/// the same pristine base and under the same artifact key, as
/// `polymem tune <kernel> --size <size>`, so a warm tune artifact
/// answers with zero simulations. `None` for unknown kernel names.
pub fn launch(
    kernel: &str,
    size: i64,
    base: &MachineConfig,
    toggles: &LaunchToggles,
    tuned: bool,
) -> Option<Launch> {
    let b = Builtin::named(kernel)?;
    let mut config = launch_config(toggles, base);
    let mut mapping = b.mapping(config.double_buffer, &config);
    let mut blocked = None;
    let tune = tuned.then(|| {
        let mut tune_base = base.clone();
        tune_base.artifact_dir = toggles.artifact_dir.clone();
        let (winner, k, source) = tuned_mapping(b, size, &tune_base)?;
        config = config_for(&winner, &tune_base);
        mapping = winner;
        blocked = Some(k);
        Ok(source)
    });
    Some(Launch {
        program: (b.program)(),
        kernel: blocked
            .unwrap_or_else(|| tunespace::build(kernel, &mapping).expect("table mappings rebuild")),
        params: (b.params)(size),
        check: b.check,
        config,
        mapping,
        tune,
        init: b.init,
    })
}

/// Consult (or, when the store is cold, perform) the mapping search
/// for a built-in at `size` on the pristine `base`.
fn tuned_mapping(
    b: &Builtin,
    size: i64,
    base: &MachineConfig,
) -> Result<(MappingDesc, BlockedKernel, &'static str), String> {
    let cands = tunespace::candidates(b.name, base, false).expect("every built-in has a space");
    let opts = TuneOptions {
        space_label: format!("cli:{}:size={size}", b.name),
        ..TuneOptions::default()
    };
    let init = |st: &mut ArrayStore| (b.init)(st, 42);
    let out = tune(
        &(b.program)(),
        &(b.params)(size),
        &init,
        &cands,
        base,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    let kernel = tunespace::build(b.name, &out.winner)
        .ok_or_else(|| format!("winner `{}` does not rebuild", out.winner.label()))?;
    Ok((out.winner, kernel, out.plan_source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves_both_variants() {
        let gpu = MachineConfig::geforce_8800_gtx();
        for b in &BUILTINS {
            for db in [false, true] {
                let toggles = LaunchToggles {
                    double_buffer: db,
                    ..LaunchToggles::default()
                };
                let l = launch(b.name, 16, &gpu, &toggles, false).unwrap();
                assert!(l.program.arrays.iter().any(|a| a.name == l.check));
                assert_eq!(l.params.len(), b.analysis_params.len());
                assert_eq!(l.params.len(), l.program.params.len());
                assert_eq!(l.config.double_buffer, db);
                assert_eq!(
                    format!("{:?}", config_for(&l.mapping, &l.config)),
                    format!("{:?}", l.config)
                );
                assert!(l.tune.is_none());
            }
        }
        assert!(launch("nope", 16, &gpu, &LaunchToggles::default(), false).is_none());
    }

    #[test]
    fn unbuildable_sizes_are_typed_errors() {
        let gpu = MachineConfig::geforce_8800_gtx();
        let at = |size| launch("me", size, &gpu, &LaunchToggles::default(), false).unwrap();
        assert!(at(-3).seeded_store(42).is_err());
        assert!(at(8).seeded_store(42).is_ok());
    }
}
