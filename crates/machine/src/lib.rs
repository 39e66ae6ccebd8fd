//! Two-level parallel machine simulator with explicitly managed
//! memories.
//!
//! The paper evaluates on an NVIDIA GeForce 8800 GTX; polymem has no
//! GPU, so this crate provides the substitution documented in
//! DESIGN.md: a machine model with the architecture of §4.1/§5 —
//! a slow global memory, outer-level parallel units (multiprocessors /
//! thread blocks), inner-level SIMD units (threads, warp-granular),
//! and a per-outer-unit scratchpad shared by the inner units —
//! plus:
//!
//! * [`config`] — machine descriptions with presets calibrated to the
//!   paper's testbed (GeForce 8800 GTX, a Cell-like must-copy machine,
//!   and the host CPU baseline);
//! * [`profile`] — the analytic timing model: given a kernel's
//!   per-block compute/memory/movement profile it produces execution
//!   time, honouring the occupancy rule (concurrent blocks limited by
//!   scratchpad use, §5), warp-granular parallelism, and device-wide
//!   synchronisation costs;
//! * [`exec`] — a *functional* executor that actually runs mapped
//!   tiled programs block-parallel (scoped threads) with optional
//!   scratchpad staging driven by the §3 framework's movement code,
//!   validating end-to-end correctness against the reference
//!   interpreter and collecting the access counts that cross-check the
//!   analytic profile.
//!
//! Absolute times are model estimates, not silicon measurements; the
//! reproduction targets the paper's *shapes* (scratchpad vs DRAM-only
//! gaps, tile-size optima, thread-block sweet spots), which are driven
//! by the ratios this model captures explicitly.

mod block;
mod compiled;
pub mod config;
pub mod desc;
pub mod dma;
pub mod exec;
mod grid;
mod json;
mod ledger;
mod oracle;
mod overlay;
pub mod profile;
mod stats;
pub mod trace;
pub mod tune;

pub use config::{Capabilities, MachineConfig, MeshDesc};
pub use desc::{MachineDesc, MemLevel};
pub use dma::DmaStats;
pub use exec::{
    execute_blocked, execute_blocked_profiled, execute_blocked_seeded, launch_representative,
    plan_artifact_key, warm_plan, BlockedKernel, PlanSource, WarmedPlan,
};
pub use json::Json;
pub use ledger::{Laps, Ledger, Rows};
pub use profile::{KernelProfile, TimeBreakdown};
pub use stats::{ExecStats, FallbackStats, STATS_SCHEMA};
pub use trace::{PassKind, PassProfiler, PassReport, Phase, Timeline};
pub use tune::{
    config_for, cost_constants, generic_candidates, launch_config, structure_of, tile_kernel, tune,
    LaunchToggles, TuneCandidate, TuneOptions, TuneOutcome,
};

use std::fmt;

/// Errors from the simulator.
#[derive(Debug)]
pub enum MachineError {
    /// IR-level failure during functional execution.
    Ir(polymem_ir::IrError),
    /// Polyhedral failure while enumerating blocks.
    Poly(polymem_poly::PolyError),
    /// Data-management failure while staging scratchpad buffers.
    Smem(polymem_core::SmemError),
    /// A block requires more scratchpad than the machine has.
    ScratchpadOverflow {
        /// Bytes requested by one block.
        requested: u64,
        /// Bytes available per outer-level unit.
        available: u64,
    },
    /// Double buffering needs two sub-tile footprints resident at
    /// once and the sum does not fit the scratchpad. Distinct from
    /// [`ScratchpadOverflow`](MachineError::ScratchpadOverflow) so
    /// callers can fall back to synchronous staging instead of
    /// failing the whole mapping.
    DoubleBufferOverflow {
        /// Bytes needed for the two live sub-tile footprints.
        requested: u64,
        /// Bytes available per outer-level unit.
        available: u64,
    },
    /// One inner process's register frames (the level-2 plan's tiles
    /// at a concrete thread value) need more words than the machine's
    /// register file holds. The plan-time gate checks the
    /// representative block; this is the runtime check for blocks
    /// whose frames grow beyond it (e.g. triangular domains).
    RegisterOverflow {
        /// Words needed by the live frames of one inner process.
        requested: u64,
        /// Words available per inner process
        /// ([`MachineConfig::regs_per_inner`]).
        available: u64,
    },
    /// The store a launch was handed holds a program array at other
    /// extents than the program declares at the launch's parameters
    /// (a store built for other parameter values): every flat offset
    /// the launch computes would address the wrong element.
    StoreMismatch {
        /// The array whose extents disagree.
        array: String,
        /// Its extents at the launch's parameters.
        expected: Vec<i64>,
        /// Its extents in the store.
        found: Vec<i64>,
    },
    /// Enumerating rounds/blocks/instances exceeded the configured
    /// point budget ([`MachineConfig::enum_budget`]).
    EnumerationBudget {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A block worker thread panicked during parallel execution.
    WorkerPanicked {
        /// Index of the block (in round-local enumeration order)
        /// whose worker panicked.
        block: usize,
    },
    /// The mapping autotuner could not produce or persist a winner
    /// (empty candidate space, no candidate simulated successfully, or
    /// the tune artifact could not be saved). Rendered bare: every
    /// caller of [`tune`] already names the tuner in its own message.
    Tune(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Ir(e) => write!(f, "IR error: {e}"),
            MachineError::Poly(e) => write!(f, "polyhedral error: {e}"),
            MachineError::Smem(e) => write!(f, "data-management error: {e}"),
            MachineError::ScratchpadOverflow {
                requested,
                available,
            } => write!(
                f,
                "scratchpad overflow: block needs {requested} B, unit has {available} B"
            ),
            MachineError::DoubleBufferOverflow {
                requested,
                available,
            } => write!(
                f,
                "double-buffer overflow: two sub-tile footprints need {requested} B, \
                 unit has {available} B"
            ),
            MachineError::RegisterOverflow {
                requested,
                available,
            } => write!(
                f,
                "register overflow: inner process needs {requested} words, \
                 register file has {available}"
            ),
            MachineError::StoreMismatch {
                array,
                expected,
                found,
            } => write!(
                f,
                "store holds `{array}` at extents {found:?}, the launch needs {expected:?}"
            ),
            MachineError::EnumerationBudget { budget } => {
                write!(f, "enumeration budget exhausted: more than {budget} points")
            }
            MachineError::WorkerPanicked { block } => {
                write!(f, "block worker panicked while executing block {block}")
            }
            MachineError::Tune(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<polymem_ir::IrError> for MachineError {
    fn from(e: polymem_ir::IrError) -> Self {
        MachineError::Ir(e)
    }
}

impl From<polymem_poly::PolyError> for MachineError {
    fn from(e: polymem_poly::PolyError) -> Self {
        MachineError::Poly(e)
    }
}

impl From<polymem_core::SmemError> for MachineError {
    fn from(e: polymem_core::SmemError) -> Self {
        MachineError::Smem(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MachineError>;
