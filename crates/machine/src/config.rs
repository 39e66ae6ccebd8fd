//! Machine configurations.
//!
//! The [`MachineConfig`] fields are the architecture parameters of the
//! paper's §4/§5 machine abstraction plus the execution toggles the
//! front-ends flip. Since the machine-description subsystem landed,
//! every preset is pure data: the constructors here lower the
//! corresponding [`crate::desc`] registry entry
//! ([`MachineDesc::config`](crate::desc::MachineDesc::config)), and
//! behavioural differences between machines flow through the numbers
//! and the [`Capabilities`] flags — nothing downstream branches on a
//! machine name.

/// Default executor enumeration budget: generous (2^32 points) but
/// finite, so runaway domains fail with a typed error.
pub const DEFAULT_ENUM_BUDGET: u64 = 1 << 32;

/// Capability flags of a machine description: behavioural switches as
/// data, replacing the old `MachineKind` enum branches. Each flag is a
/// statement about the architecture that the mapper queries; they are
/// mapping-relevant and fold into the plan-artifact salt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Capabilities {
    /// The local store is mandatory (Cell-like): compute cannot touch
    /// global memory, so every accessed element is staged regardless
    /// of Algorithm 1's benefit answer.
    pub must_stage: bool,
    /// Compute units sit inside the memory (PIM): a "global" access
    /// costs the same as a local one, so staging a copy can never pay
    /// and Algorithm 1 answers "not beneficial" for every group.
    pub in_place_compute: bool,
    /// Data movement is routed over a NoC (spatial/dataflow): every
    /// DMA descriptor pays a per-hop route cost determined by the
    /// block's placement on the [`MeshDesc`].
    pub placement_cost: bool,
    /// Global accesses are filtered by a hardware cache (host CPU);
    /// informational — the cache is folded into `global_latency`.
    pub hardware_cache: bool,
}

/// Geometry of a spatial machine's PE mesh. Memory ports sit on the
/// west edge; blocks are placed column-major (block `b` occupies the
/// PE at row `b mod rows`, column `(b mod rows·cols) / rows`), so a
/// descriptor routed to column `c` crosses `c + 1` hops.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshDesc {
    /// PE rows.
    pub rows: u64,
    /// PE columns (distance from the memory ports grows eastward).
    pub cols: u64,
    /// NoC cycles per hop per DMA descriptor.
    pub hop_cycles: f64,
}

/// A multi-level explicitly-managed-memory machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Capability flags (see [`Capabilities`]).
    pub caps: Capabilities,
    /// Outer-level parallel units (multiprocessors / MIMD units).
    pub n_outer: u64,
    /// Inner-level SIMD units per outer unit.
    pub n_inner: u64,
    /// Scheduling granularity of inner-level processes (warp size);
    /// the paper fixes `P_low` to this.
    pub warp_size: u64,
    /// Scratchpad bytes per outer-level unit (the 8800's 16 KB).
    pub smem_bytes: u64,
    /// Bytes per data word (the paper's kernels use 4-byte words).
    pub word_bytes: u64,
    /// Core clock in GHz (times are reported in ms).
    pub clock_ghz: f64,
    /// Cycles for one arithmetic op on an inner unit.
    pub cycles_per_op: f64,
    /// Cycles of latency for one *global* memory element access.
    pub global_latency: f64,
    /// Sustainable global-memory parallelism: how many outstanding
    /// global accesses one outer unit can overlap (memory-level
    /// parallelism from multithreading warps).
    pub global_overlap: f64,
    /// Cycles for one scratchpad access.
    pub smem_latency: f64,
    /// Cycles of synchronisation cost per inner process per data
    /// movement occurrence (the cost model's `S`).
    pub sync_cycles: f64,
    /// Fixed cycles for a device-wide barrier (inter-block sync)...
    pub device_sync_base: f64,
    /// ...plus this many cycles per active thread block.
    pub device_sync_per_block: f64,
    /// Upper bound on thread blocks resident per outer unit even when
    /// scratchpad use would allow more (hardware scheduler limit).
    pub max_blocks_per_outer: u64,
    /// Point budget for round/block/instance enumeration in the
    /// functional executor; exceeding it is a typed
    /// `MachineError::EnumerationBudget` instead of an unbounded walk.
    pub enum_budget: u64,
    /// Tagged DMA channels per outer unit (Cell MFC queue depth /
    /// GPU memory-pipe width). `0` disables the DMA transfer engine
    /// entirely (movement is charged per element as before).
    pub dma_channels: u64,
    /// Fixed cycles to set up one DMA descriptor (command issue +
    /// address translation), paid per descriptor.
    pub dma_setup_cycles: f64,
    /// Sustained DMA bandwidth in bytes per core cycle, paid on top of
    /// the setup cost for each descriptor's payload.
    pub dma_bytes_per_cycle: f64,
    /// Software-pipeline the `seq_dims` sub-tile loop: issue move-in
    /// for sub-tile t+1 and move-out for t−1 asynchronously while
    /// computing t. Requires 2× the buffer footprint (typed
    /// [`DoubleBufferOverflow`](crate::MachineError::DoubleBufferOverflow)
    /// otherwise) and is disabled per group by seq-carried flow
    /// dependences.
    pub double_buffer: bool,
    /// Run block compute phases through the compiled execution engine
    /// (bytecode bodies + strided address streams, compiled once per
    /// block shape) instead of the per-point interpreter. Results are
    /// bit-identical. The engine never hands a block to the
    /// interpreter: a shape it cannot compile is a typed launch error.
    /// The interpreter runs only with this off, or as the
    /// `POLYMEM_EXEC_CHECK=1` oracle beside every compiled block.
    pub compiled_exec: bool,
    /// Register-file words available per inner process for the
    /// recursive level-2 plan's frames (register tiles). Frames whose
    /// running footprint would exceed this stay in scratchpad.
    pub regs_per_inner: u64,
    /// Enable the recursive register-tile level: re-run the §3
    /// pipeline over the intra-thread subnest of each block and stage
    /// beneficial groups into per-thread frames (smem→reg move-in,
    /// reg→smem move-out). Off in every preset; `polymem run` turns it
    /// on unless `--no-hierarchy` is given. Both engines execute
    /// level-2 plans: the compiled engine tracks thread-key change
    /// points inside its merged cursors and stages frames through the
    /// same movement code as the interpreter, so counters stay
    /// bit-identical between the two.
    pub hierarchy: bool,
    /// Keep scratchpad buffers warm across the sub-tile (`seq_dims`)
    /// loop: the residency pass decomposes each group's move-in window
    /// against its lexicographic predecessor and only the *delta*
    /// crosses the global bus; overlapping elements are retained (and
    /// re-based in-place when the window slides, as in stencil halos).
    /// Derived per description: on exactly for machines with a
    /// scratchpad worth keeping warm; `polymem run --no-residency`
    /// turns it off.
    pub residency: bool,
    /// Partition each array's references into maximal disjoint groups
    /// (§3.1, the default). With `false`, all references share one
    /// buffer over their convex union — the paper's Fig. 1 layout,
    /// which lets the residency pass retain a stencil's whole sliding
    /// window when small tiles would otherwise split it into
    /// single-column groups.
    pub partition: bool,
    /// Directory of the content-addressed plan-artifact store. When
    /// set, the launch's symbolic plan is loaded from (and fresh
    /// compiles are persisted to) `<dir>/<key>.plan`, keyed by the
    /// program IR, the mapping-relevant fields of this config and the
    /// block-shape parametrization — see `polymem_core::smem::artifact`.
    /// `None` (every preset) disables persistence.
    pub artifact_dir: Option<String>,
    /// PE-mesh geometry, for machines with `caps.placement_cost`.
    /// Not mapping-relevant (routes change cycles, never plans), so it
    /// stays out of the artifact salt.
    pub mesh: Option<MeshDesc>,
}

impl MachineConfig {
    /// The paper's testbed: NVIDIA GeForce 8800 GTX.
    pub fn geforce_8800_gtx() -> MachineConfig {
        crate::desc::gpu().config()
    }

    /// A Cell-BE-like machine: local store is mandatory.
    pub fn cell_like() -> MachineConfig {
        crate::desc::cell().config()
    }

    /// The host CPU baseline (Core2-Duo class, 2.13 GHz, 2 MB L2).
    pub fn host_cpu() -> MachineConfig {
        crate::desc::host().config()
    }

    /// A processing-in-memory machine: per-bank compute units,
    /// near-zero "global" latency, expensive inter-bank movement.
    pub fn pim_banked() -> MachineConfig {
        crate::desc::pim().config()
    }

    /// A spatial/dataflow accelerator: an 8×8 PE mesh where DMA
    /// descriptors pay NoC route costs by placement.
    pub fn spatial_mesh() -> MachineConfig {
        crate::desc::spatial().config()
    }

    /// Does staging a copy into the scratchpad save cycles at all on
    /// this machine? `false` on in-place-compute (PIM) machines, where
    /// the data is already next to the unit — Algorithm 1 then answers
    /// "not beneficial" for every group. Mapping-relevant: folded into
    /// the plan-artifact salt.
    pub fn staging_pays(&self) -> bool {
        !self.caps.in_place_compute
    }

    /// NoC route cycles one DMA descriptor pays for the block at
    /// linear placement index `block_idx`: blocks fill the mesh
    /// column-major from the west-edge memory ports, so the block's
    /// column determines its hop count. Zero without `placement_cost`.
    pub fn route_cycles(&self, block_idx: u64) -> u64 {
        match &self.mesh {
            Some(m) if self.caps.placement_cost => {
                let pes = (m.rows * m.cols).max(1);
                let col = (block_idx % pes) / m.rows.max(1);
                ((col + 1) as f64 * m.hop_cycles).round() as u64
            }
            _ => 0,
        }
    }

    /// The worst route any of `blocks` concurrent blocks pays (the
    /// critical-path hop count of one round), under the placement rule
    /// of [`route_cycles`](MachineConfig::route_cycles). One
    /// implementation, the cost estimator's
    /// (`CostConstants::max_route_cycles`), which prices the
    /// representative block with this.
    pub fn max_route_cycles(&self, blocks: u64) -> u64 {
        crate::tune::cost_constants(self).max_route_cycles(blocks)
    }

    /// Total scratchpad bytes across the device (the paper's `X`).
    pub fn total_smem_bytes(&self) -> u64 {
        self.smem_bytes * self.n_outer
    }

    /// Maximum concurrently resident thread blocks for a given
    /// per-block scratchpad use (the §5 occupancy rule:
    /// `min(X / M, hw limit)`; `smem_bytes == 0` means unlimited, as
    /// in the executor's overflow check). One implementation, shared
    /// with the cost estimator (`CostConstants::concurrent_blocks`), so
    /// predicted and simulated occupancy waves agree.
    pub fn concurrent_blocks(&self, smem_per_block: u64) -> u64 {
        crate::tune::cost_constants(self).concurrent_blocks(smem_per_block)
    }

    /// Convert cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9) * 1e3
    }

    /// The cost-model constants (`P` supplied by the kernel mapping).
    pub fn cost_params(&self, p: f64) -> polymem_core::tiling::CostParams {
        polymem_core::tiling::CostParams {
            p,
            s: self.sync_cycles,
            l: self.global_latency / self.global_overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_parameters() {
        let g = MachineConfig::geforce_8800_gtx();
        assert_eq!(g.n_outer, 16);
        assert_eq!(g.n_inner, 8);
        assert_eq!(g.warp_size, 32);
        assert_eq!(g.smem_bytes, 16 * 1024);
        assert_eq!(g.total_smem_bytes(), 256 * 1024); // the paper's 2^18
        assert_eq!(g.caps, Capabilities::default());
        assert!(MachineConfig::cell_like().caps.must_stage);
        assert!(MachineConfig::host_cpu().caps.hardware_cache);
    }

    #[test]
    fn new_backends_have_their_capabilities() {
        let p = MachineConfig::pim_banked();
        assert!(p.caps.in_place_compute);
        assert!(!p.staging_pays());
        // Near-zero global latency: in place really is free-ish.
        assert!(p.global_latency / p.global_overlap <= p.smem_latency);
        let s = MachineConfig::spatial_mesh();
        assert!(s.caps.placement_cost);
        let m = s.mesh.as_ref().expect("mesh geometry");
        assert_eq!(m.rows * m.cols, s.n_outer);
        assert!(MachineConfig::geforce_8800_gtx().staging_pays());
    }

    #[test]
    fn route_cycles_follow_column_major_placement() {
        let s = MachineConfig::spatial_mesh();
        let hop = s.mesh.as_ref().unwrap().hop_cycles as u64;
        // Column 0 (blocks 0..rows): one hop from the west ports.
        assert_eq!(s.route_cycles(0), hop);
        assert_eq!(s.route_cycles(7), hop);
        // Next column: two hops.
        assert_eq!(s.route_cycles(8), 2 * hop);
        // Wraps past the mesh (second occupancy wave).
        assert_eq!(s.route_cycles(64), hop);
        // The critical path of a round is its easternmost column.
        assert_eq!(s.max_route_cycles(1), hop);
        assert_eq!(s.max_route_cycles(9), 2 * hop);
        assert_eq!(s.max_route_cycles(64), 8 * hop);
        assert_eq!(s.max_route_cycles(1000), 8 * hop);
        // Non-spatial machines route nothing.
        let g = MachineConfig::geforce_8800_gtx();
        assert_eq!(g.route_cycles(5), 0);
        assert_eq!(g.max_route_cycles(64), 0);
    }

    #[test]
    fn residency_is_on_for_scratchpad_machines_only() {
        assert!(MachineConfig::geforce_8800_gtx().residency);
        assert!(MachineConfig::cell_like().residency);
        assert!(MachineConfig::spatial_mesh().residency);
        assert!(!MachineConfig::host_cpu().residency);
        // PIM has a (tiny) row buffer but computes in place: nothing
        // is staged, so nothing stays resident.
        assert!(!MachineConfig::pim_banked().residency);
    }

    #[test]
    fn dma_presets_are_sane_and_off_by_default() {
        for cfg in [
            MachineConfig::geforce_8800_gtx(),
            MachineConfig::cell_like(),
            MachineConfig::host_cpu(),
            MachineConfig::pim_banked(),
            MachineConfig::spatial_mesh(),
        ] {
            assert!(!cfg.double_buffer);
            assert!(cfg.dma_bytes_per_cycle > 0.0);
        }
        assert_eq!(MachineConfig::cell_like().dma_channels, 16);
        assert_eq!(MachineConfig::host_cpu().dma_channels, 0);
    }

    #[test]
    fn occupancy_follows_smem_use() {
        let g = MachineConfig::geforce_8800_gtx();
        // No smem: hardware limit only.
        assert_eq!(g.concurrent_blocks(0), 16 * 8);
        // 16 KB per block: one block per SM.
        assert_eq!(g.concurrent_blocks(16 * 1024), 16);
        // 4 KB per block: 4 per SM.
        assert_eq!(g.concurrent_blocks(4 * 1024), 64);
        // 100 B per block: capped by the hardware limit.
        assert_eq!(g.concurrent_blocks(100), 16 * 8);
        // Oversized block still reports at least one (the caller
        // checks the overflow separately).
        assert_eq!(g.concurrent_blocks(64 * 1024), 1);
    }

    #[test]
    fn unit_conversions() {
        let g = MachineConfig::geforce_8800_gtx();
        let ms = g.cycles_to_ms(1.35e9);
        assert!((ms - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn cost_params_derive_from_machine() {
        let g = MachineConfig::geforce_8800_gtx();
        let cp = g.cost_params(64.0);
        assert_eq!(cp.p, 64.0);
        assert_eq!(cp.s, g.sync_cycles);
        assert!(cp.l > 0.0);
    }
}
