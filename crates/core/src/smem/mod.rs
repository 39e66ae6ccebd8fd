//! Automatic data management in scratchpad memories (paper §3).
//!
//! The pipeline, per array `A` of the input block (Algorithm 2):
//!
//! 1. [`dataspace`] — compute the data space `F·I` of every reference;
//! 2. [`partition`] — split the set of data spaces into maximal
//!    disjoint groups (connected components of the overlap graph);
//! 3. [`reuse`] — Algorithm 1: keep groups with order-of-magnitude
//!    reuse (`rank(F) < dim(is)`) or ≥ δ pairwise-overlap volume;
//! 4. [`alloc`] — allocate one local buffer per kept group, sized by
//!    the parametric per-dimension bounds of the group's convex union;
//! 5. [`access`] — rewrite each reference to `L[F'(y) − g]`;
//! 6. [`movement`] — emit move-in (read spaces) and move-out (write
//!    spaces) loop nests with the single-transfer property;
//! 7. [`liveness`] — (§3.1.4 extension) shrink copy sets using
//!    dependence information.
//!
//! [`analyze_program`] runs 1–6 for every array and returns a
//! [`SmemPlan`].

pub mod access;
pub mod alloc;
pub mod artifact;
pub mod cache;
pub mod dataspace;
pub mod descriptors;
pub mod hierarchy;
pub mod liveness;
pub mod lowering;
pub mod movement;
pub mod partition;
pub mod residency;
pub mod reuse;
pub mod schedule;
pub mod tune;

pub use access::LocalAccess;
pub use alloc::{LocalBuffer, UnionBound};
pub use artifact::{
    decode_artifact, encode_artifact, plan_key, ArtifactKey, ArtifactStore, PlanArtifact,
};
pub use cache::{
    analyze_symbolic, analyze_symbolic_hier, check_parametrizable, ext_params, parametrize_dims,
    parametrize_domain, SymbolicPlan,
};
pub use dataspace::{AccessId, RefInfo};
pub use descriptors::{flatten, transfer_list, DmaClock, TransferDescriptor, TransferList};
pub use hierarchy::{analyze_hierarchy, ExtSource, HierPlan, HierSpec, MemLevel};
pub use liveness::LivenessPlan;
pub use lowering::{lower_rows, lower_rows_onto, prove_flat, FlatAffine, LoweredRow};
pub use movement::{MovementCode, WindowPieces};
pub use residency::{plan_residency, ResidencyPlan, RetainPlan};
pub use reuse::{ReuseDecision, DEFAULT_DELTA};
pub use schedule::{Decline, Entry, Schedule, SeqFacts, Steps, Tally, Transfer};
pub use tune::{
    estimate, tune_key, CostConstants, CostEstimate, MappingDesc, Structure, TuneArtifact, TuneRow,
};

use polymem_ir::Program;
use polymem_poly::{Polyhedron, Space};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Identifier of a local buffer within a [`SmemPlan`].
pub type BufferId = usize;

/// Errors from the data-management framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmemError {
    /// Polyhedral substrate failure.
    Poly(polymem_poly::PolyError),
    /// IR-level failure.
    Ir(polymem_ir::IrError),
    /// A buffer dimension is unbounded, so no finite local storage
    /// exists (the paper assumes bounded blocks).
    UnboundedBuffer {
        /// Array name.
        array: String,
        /// Offending dimension.
        dim: usize,
    },
    /// Sample parameter values were required (for volume estimation)
    /// but not supplied.
    MissingSampleParams,
    /// A movement scan reached an element outside its global array
    /// (`local == false`) or outside its local buffer: the first such
    /// multi-index in scan order.
    ScanOutOfBounds {
        /// The local index failed, not the global one.
        local: bool,
        /// The failing multi-index.
        index: Vec<i64>,
    },
}

impl fmt::Display for SmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmemError::Poly(e) => write!(f, "polyhedral error: {e}"),
            SmemError::Ir(e) => write!(f, "IR error: {e}"),
            SmemError::UnboundedBuffer { array, dim } => {
                write!(f, "buffer for `{array}` unbounded in dimension {dim}")
            }
            SmemError::MissingSampleParams => {
                write!(f, "sample parameter values required for volume estimation")
            }
            SmemError::ScanOutOfBounds { local, index } => {
                let space = if *local {
                    "local buffer"
                } else {
                    "global array"
                };
                write!(f, "movement element {index:?} outside its {space}")
            }
        }
    }
}

impl std::error::Error for SmemError {}

impl From<polymem_poly::PolyError> for SmemError {
    fn from(e: polymem_poly::PolyError) -> Self {
        SmemError::Poly(e)
    }
}

impl From<polymem_ir::IrError> for SmemError {
    fn from(e: polymem_ir::IrError) -> Self {
        SmemError::Ir(e)
    }
}

/// Convenience alias used across the module.
pub type Result<T> = std::result::Result<T, SmemError>;

/// Configuration of the framework.
#[derive(Clone, Debug)]
pub struct SmemConfig {
    /// Overlap-volume threshold δ of Algorithm 1 (paper: 0.30).
    pub delta: f64,
    /// Architectures like the Cell *must* copy everything into local
    /// store (`true`); GPU-like architectures copy only beneficial
    /// partitions (`false`, paper default for the GPU testbed).
    pub must_copy_all: bool,
    /// Whether staging a copy into local memory can save cycles at
    /// all on the target (`true` everywhere the paper looks). On
    /// processing-in-memory machines "global" data already sits next
    /// to the compute unit, so Algorithm 1 answers "not beneficial"
    /// for every group and the program runs in place. Overridden by
    /// `must_copy_all`.
    pub staging_pays: bool,
    /// Representative parameter values for exact volume counting in
    /// Algorithm 1's constant-reuse test.
    pub sample_params: Vec<i64>,
    /// Budget on exact point counting before falling back to
    /// bounding-box estimates.
    pub count_budget: u64,
    /// Partition data spaces into maximal disjoint groups (paper §3.1,
    /// default). With `false`, all references of an array share one
    /// buffer spanning the convex union of everything accessed — the
    /// layout of the paper's Fig. 1 worked example.
    pub partition: bool,
    /// Innermost sequential dimension of the symbolic view along which
    /// [`analyze_symbolic`] plans inter-block residency (delta
    /// transfers between lexicographically consecutive sub-tiles).
    /// Must name one of the fixed dims; `None` disables the pass.
    pub residency_dim: Option<String>,
}

impl Default for SmemConfig {
    fn default() -> Self {
        SmemConfig {
            delta: DEFAULT_DELTA,
            must_copy_all: false,
            staging_pays: true,
            sample_params: Vec::new(),
            count_budget: 1 << 20,
            partition: true,
            residency_dim: None,
        }
    }
}

/// The result of analysing a program block: buffers, rewrites and
/// movement code.
#[derive(Clone, Debug)]
pub struct SmemPlan {
    /// Allocated local buffers.
    pub buffers: Vec<LocalBuffer>,
    /// Rewritten accesses: which local buffer (if any) each original
    /// reference now targets.
    pub rewrites: HashMap<AccessId, LocalAccess>,
    /// Per-buffer data movement code.
    pub movement: Vec<MovementCode>,
    /// Reuse decisions, including for partitions that were *not*
    /// buffered (useful for reporting/ablation).
    pub decisions: Vec<(String, ReuseDecision)>,
}

impl SmemPlan {
    /// Whether `buffer` is ever written: some write access is rewritten
    /// into it. Every member reference of a group is rewritten, and the
    /// register level keeps the rewrites of every frame it keeps, so
    /// this says exactly whether the group has a write member, i.e.
    /// whether its move-out nest scans any write data space.
    pub fn is_written(&self, buffer: BufferId) -> bool {
        (self.rewrites.iter()).any(|(id, la)| la.buffer == buffer && id.is_write())
    }

    /// Whether `buffer`'s staging hoists past the seq loop (§4.2): its
    /// array is one of `seq_independent` (none of its accesses depend
    /// on the seq dims) *and* materialises as exactly one buffer. With
    /// separate read and write buffers, parking by array would keep
    /// only the last-parked buffer and lose the other's writes. The one
    /// rule the executor stages by and the estimator prices by.
    pub fn hoists(&self, buffer: BufferId, seq_independent: &[usize]) -> bool {
        let array = self.buffers[buffer].array;
        seq_independent.contains(&array)
            && self.buffers.iter().filter(|b| b.array == array).count() == 1
    }

    /// Total local-memory words needed by all buffers at concrete
    /// parameter values.
    pub fn total_buffer_words(&self, params: &[i64]) -> Result<u64> {
        let mut total = 0u64;
        for b in &self.buffers {
            total = total.saturating_add(b.size_words(params)?);
        }
        Ok(total)
    }
}

/// Wall-clock time spent in each compiler pass of one
/// [`analyze_program`] run (the pass-level profile of the §3 pipeline).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassTimes {
    /// Data-space computation (`F·I` images) per reference.
    pub dataspace: Duration,
    /// §3.1 partitioning into maximal disjoint groups.
    pub partition: Duration,
    /// Algorithm 1 reuse-benefit evaluation.
    pub reuse: Duration,
    /// Algorithm 2 buffer allocation + access rewriting.
    pub alloc: Duration,
    /// Move-in / move-out loop-nest generation, and — when
    /// [`analyze_symbolic`] plans residency — the retained / delta /
    /// flush nests of [`plan_residency`], which are movement code too.
    pub movement: Duration,
    /// Recursive level-2 (register-tile) planning, including its own
    /// nested runs of the passes above.
    pub hierarchy: Duration,
}

/// Run the full §3 pipeline over a program block.
///
/// `config.sample_params` must be supplied if any array needs the
/// constant-reuse volume test (i.e. always supply it for programs with
/// parameters unless `must_copy_all` is set).
pub fn analyze_program(program: &Program, config: &SmemConfig) -> Result<SmemPlan> {
    analyze_program_timed(program, config).map(|(plan, _)| plan)
}

/// [`analyze_program`] plus per-pass wall-clock times, for the
/// pass-level profiler (`polymem analyze --profile`).
pub fn analyze_program_timed(
    program: &Program,
    config: &SmemConfig,
) -> Result<(SmemPlan, PassTimes)> {
    analyze_program_windows(program, config).map(|(plan, times, _)| (plan, times))
}

/// [`analyze_program_timed`] plus, parallel to `plan.movement`, each
/// group's data spaces and the disjoint window pieces the movement
/// pass scanned — the in-memory by-product [`plan_residency`] plans
/// from.
pub fn analyze_program_windows(
    program: &Program,
    config: &SmemConfig,
) -> Result<(SmemPlan, PassTimes, Vec<WindowPieces>)> {
    program.validate()?;
    let context = param_universe(program);
    let mut buffers = Vec::new();
    let mut rewrites = HashMap::new();
    let mut movement = Vec::new();
    let mut windows = Vec::new();
    let mut decisions = Vec::new();
    let mut times = PassTimes::default();

    for (ai, arr) in program.arrays.iter().enumerate() {
        let t0 = Instant::now();
        let refs = dataspace::collect_refs(program, ai)?;
        times.dataspace += t0.elapsed();
        if refs.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let groups = if config.partition {
            partition::partition_refs(&refs, &context)?
        } else {
            vec![(0..refs.len()).collect()]
        };
        times.partition += t0.elapsed();
        for group in &groups {
            let members: Vec<&RefInfo> = group.iter().map(|&k| &refs[k]).collect();
            let t0 = Instant::now();
            let decision = reuse::evaluate_group(&members, config)?;
            times.reuse += t0.elapsed();
            decisions.push((arr.name.clone(), decision.clone()));
            if !config.must_copy_all && !decision.beneficial {
                continue;
            }
            let id: BufferId = buffers.len();
            let t0 = Instant::now();
            let buffer = alloc::allocate_buffer(program, ai, id, &members)?;
            for m in &members {
                let la = access::rewrite_access(&buffer, m)?;
                rewrites.insert(m.id, la);
            }
            times.alloc += t0.elapsed();
            let t0 = Instant::now();
            let (code, pieces) = movement::generate_movement(&buffer, &members)?;
            movement.push(code);
            windows.push(pieces);
            times.movement += t0.elapsed();
            buffers.push(buffer);
        }
    }
    Ok((
        SmemPlan {
            buffers,
            rewrites,
            movement,
            decisions,
        },
        times,
        windows,
    ))
}

/// The unconstrained parameter context of a program (0-dim polyhedron
/// over its parameters).
pub fn param_universe(program: &Program) -> Polyhedron {
    Polyhedron::universe(Space::new(Vec::<String>::new(), program.params.clone()))
}
