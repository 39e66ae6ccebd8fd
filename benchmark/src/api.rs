//! The measured surface: every library item the benchmark calls.
//!
//! Nothing else in this crate names a `polymem_*` crate. A refactor
//! that changes one of these signatures changes what the benchmark
//! measures — edit this file (and say so in the PR) rather than
//! routing around it. The benchmark changes no library code and reads
//! only what these calls already return.

// --- polycore: `polymem-poly` process-global memo + counters -----------
pub use polymem_poly::{poly_core_reset, poly_core_stats, PolyCoreStats};

// --- ir: array stores and the reference interpreter --------------------
pub use polymem_ir::{exec_program, ArrayStore};

// --- smem: symbolic plans, the analytic estimator, the artifact store --
pub use polymem_core::smem::tune::estimate;
pub use polymem_core::smem::{ArtifactStore, PlanArtifact, SymbolicPlan};

// --- exec / model / tune: `polymem-machine` ----------------------------
pub use polymem_machine::desc::lookup as machine_desc;
pub use polymem_machine::trace::PASS_KINDS;
pub use polymem_machine::{
    config_for, cost_constants, execute_blocked_profiled, execute_blocked_seeded,
    plan_artifact_key, structure_of, tune, warm_plan, ExecStats, MachineConfig, PassProfiler,
    TuneCandidate, TuneOptions, TuneOutcome,
};

// --- kernels: built-in workloads and their tune spaces -----------------
pub use polymem_kernels::tunespace;

// --- serve: the daemon, its kernel table and its wire format -----------
// The wire protocol itself (`{"cmd":"run"|"analyze"|"ping"|"stats",…}`
// lines and the reply fields `ok`, `checksum`, `plan_source`,
// `elapsed_ns`, `lru_hits`, `lru_misses`, `requests`, `errors`) is
// pinned by `workloads::serve`.
pub use polymem_serve::workload::{checksum, resolve as resolve_workload, Workload, KERNELS};
pub use polymem_serve::{Json, ServeConfig, Server, ServerHandle};

/// A registered machine's pristine configuration — what `polymem
/// tune` searches over and the daemon starts every request from.
pub fn machine(name: &str) -> MachineConfig {
    machine_desc(name)
        .unwrap_or_else(|| panic!("machine `{name}` is registered"))
        .config()
}

/// The launch configuration `polymem run --machine M [--double-buffer]
/// [--no-hierarchy]` assembles: the registered description with the
/// CLI's defaults (compiled engine, residency as the machine derives
/// it, no artifact directory).
pub fn cli_config(name: &str, double_buffer: bool, hierarchy: bool) -> MachineConfig {
    let mut cfg = machine(name);
    cfg.double_buffer = double_buffer;
    cfg.compiled_exec = true;
    cfg.hierarchy = hierarchy;
    cfg.artifact_dir = None;
    cfg
}

/// A number out of a JSON object field.
pub fn num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}
