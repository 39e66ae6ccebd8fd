//! Execution timelines: where a launch's simulated time goes.
//!
//! [`Timeline::from_profile`] expands an analytic [`KernelProfile`]
//! estimate into per-phase segments (move-in, compute, scratchpad
//! traffic, move-out, device barriers) laid out over rounds, and
//! renders them as a text Gantt chart — the quickest way to *see* why
//! a configuration is slow (barrier-bound vs movement-bound vs
//! compute-bound), mirroring the discussion around the paper's
//! Figs. 7/8.

use crate::config::MachineConfig;
use crate::profile::KernelProfile;
use crate::Result;
use polymem_core::smem::PassTimes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One segment of simulated time.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Phase label.
    pub phase: Phase,
    /// Duration in milliseconds.
    pub ms: f64,
}

/// The phases a launch's time divides into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Data movement between global memory and scratchpad
    /// (move-in + move-out, §4.3 cost).
    Movement,
    /// Arithmetic on the inner SIMD units.
    Compute,
    /// Scratchpad access time during compute.
    Scratchpad,
    /// Residual global-memory access time during compute.
    Global,
    /// Device-wide synchronisation (inter-block barriers).
    Barrier,
    /// DMA transfer time hidden under compute (double buffering).
    DmaTransfer,
    /// DMA transfer time the compute had to wait for (exposed).
    DmaStall,
}

impl Phase {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Movement => "movement",
            Phase::Compute => "compute",
            Phase::Scratchpad => "smem",
            Phase::Global => "global",
            Phase::Barrier => "barrier",
            Phase::DmaTransfer => "dma",
            Phase::DmaStall => "dma-stall",
        }
    }

    fn glyph(&self) -> char {
        match self {
            Phase::Movement => '▒',
            Phase::Compute => '█',
            Phase::Scratchpad => '▓',
            Phase::Global => '░',
            Phase::Barrier => '|',
            Phase::DmaTransfer => '~',
            Phase::DmaStall => '!',
        }
    }
}

/// A launch timeline: phase segments summing to the estimated time.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Segments in schedule order.
    pub segments: Vec<Segment>,
    /// Total estimated milliseconds.
    pub total_ms: f64,
}

impl Timeline {
    /// Expand a profile's estimate into a per-phase timeline.
    pub fn from_profile(profile: &KernelProfile, machine: &MachineConfig) -> Result<Timeline> {
        let t = profile.estimate(machine)?;
        let mut segments = Vec::new();
        let mut push = |phase: Phase, ms: f64| {
            if ms > 0.0 {
                segments.push(Segment { phase, ms });
            }
        };
        push(Phase::Movement, t.movement_ms);
        push(Phase::Global, t.global_ms);
        push(Phase::Compute, t.compute_ms);
        push(Phase::Scratchpad, t.smem_ms);
        push(Phase::Barrier, t.device_sync_ms);
        Ok(Timeline {
            segments,
            total_ms: t.total_ms,
        })
    }

    /// Expand a launch's DMA counters into a timeline: channel-busy
    /// transfer time split into the part hidden under compute and the
    /// part the compute had to wait for (stalls). The total is the
    /// aggregate channel-busy time, so
    /// `fraction(Phase::DmaTransfer)` is the engine's overlap
    /// fraction.
    pub fn from_dma(dma: &crate::dma::DmaStats, machine: &MachineConfig) -> Timeline {
        let busy = dma.total_busy_cycles();
        let stall = dma.stall_cycles.min(busy);
        let hidden = busy - stall;
        let mut segments = Vec::new();
        if hidden > 0 {
            segments.push(Segment {
                phase: Phase::DmaTransfer,
                ms: machine.cycles_to_ms(hidden as f64),
            });
        }
        if stall > 0 {
            segments.push(Segment {
                phase: Phase::DmaStall,
                ms: machine.cycles_to_ms(stall as f64),
            });
        }
        Timeline {
            segments,
            total_ms: machine.cycles_to_ms(busy as f64),
        }
    }

    /// Fraction of total time spent in a phase.
    pub fn fraction(&self, phase: Phase) -> f64 {
        if self.total_ms <= 0.0 {
            return 0.0;
        }
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.ms)
            .sum::<f64>()
            / self.total_ms
    }

    /// The phase consuming the most time.
    pub fn dominant(&self) -> Option<Phase> {
        self.segments
            .iter()
            .max_by(|a, b| a.ms.total_cmp(&b.ms))
            .map(|s| s.phase)
    }

    /// Render as a `width`-column text bar plus a legend.
    pub fn render(&self, width: usize) -> String {
        let mut bar = String::new();
        if self.total_ms > 0.0 {
            let mut used = 0usize;
            for (k, s) in self.segments.iter().enumerate() {
                let mut cols = ((s.ms / self.total_ms) * width as f64).round() as usize;
                if k + 1 == self.segments.len() {
                    cols = width.saturating_sub(used);
                }
                bar.extend(std::iter::repeat_n(s.phase.glyph(), cols));
                used += cols;
            }
        }
        let mut legend = String::new();
        for s in &self.segments {
            legend.push_str(&format!(
                "  {} {:<9} {:>9.3} ms ({:>4.1}%)\n",
                s.phase.glyph(),
                s.phase.label(),
                s.ms,
                100.0 * s.ms / self.total_ms.max(1e-12)
            ));
        }
        format!("[{bar}] {:.3} ms total\n{legend}", self.total_ms)
    }
}

/// A pass or phase whose real (host) wall-clock time the executor
/// profiler accounts: the five §3 compiler passes plus the four
/// functional-executor phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Compiler: data-space computation (`F·I` images).
    Dataspace,
    /// Compiler: §3.1 partitioning into disjoint groups.
    Partition,
    /// Compiler: Algorithm 1 reuse evaluation.
    Reuse,
    /// Compiler: Algorithm 2 allocation + access rewriting.
    Alloc,
    /// Compiler: movement loop-nest generation — the move-in /
    /// move-out nests and, on a residency launch, the retained /
    /// delta / flush nests (residency planning is timed here).
    Movement,
    /// Compiler: recursive level-2 (register-tile) planning.
    Hierarchy,
    /// Executor: global→scratchpad move-in transfers.
    MoveIn,
    /// Executor: per-instance statement evaluation.
    Compute,
    /// Executor: scratchpad→global move-out transfers.
    MoveOut,
    /// Executor: inter-round device barrier (write-back + sync).
    Barrier,
}

/// All pass kinds, in report order (compiler first, then executor).
pub const PASS_KINDS: [PassKind; 10] = [
    PassKind::Dataspace,
    PassKind::Partition,
    PassKind::Reuse,
    PassKind::Alloc,
    PassKind::Movement,
    PassKind::Hierarchy,
    PassKind::MoveIn,
    PassKind::Compute,
    PassKind::MoveOut,
    PassKind::Barrier,
];

impl PassKind {
    /// Human label for the report table (`movement` includes
    /// residency planning; see [`PassKind::Movement`]).
    pub fn label(&self) -> &'static str {
        match self {
            PassKind::Dataspace => "dataspace",
            PassKind::Partition => "partition",
            PassKind::Reuse => "reuse",
            PassKind::Alloc => "alloc",
            PassKind::Movement => "movement",
            PassKind::Hierarchy => "hierarchy",
            PassKind::MoveIn => "move-in",
            PassKind::Compute => "compute",
            PassKind::MoveOut => "move-out",
            PassKind::Barrier => "barrier",
        }
    }

    /// Whether this is a §3 compiler pass (vs an executor phase).
    pub fn is_compiler(&self) -> bool {
        matches!(
            self,
            PassKind::Dataspace
                | PassKind::Partition
                | PassKind::Reuse
                | PassKind::Alloc
                | PassKind::Movement
                | PassKind::Hierarchy
        )
    }
}

/// Thread-safe accumulator of real wall-clock time per pass/phase.
/// Block workers record into it concurrently; [`PassProfiler::report`]
/// snapshots the totals.
#[derive(Debug, Default)]
pub struct PassProfiler {
    ns: [AtomicU64; PASS_KINDS.len()],
    count: [AtomicU64; PASS_KINDS.len()],
}

impl PassProfiler {
    /// Fresh, all-zero profiler.
    pub fn new() -> PassProfiler {
        PassProfiler::default()
    }

    fn slot(kind: PassKind) -> usize {
        PASS_KINDS.iter().position(|&k| k == kind).unwrap()
    }

    /// Record one timed occurrence of a pass.
    pub fn record(&self, kind: PassKind, elapsed: Duration) {
        let i = Self::slot(kind);
        self.ns[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one `analyze_program_timed` run's per-pass times in (one
    /// occurrence per compiler pass).
    pub fn absorb_pass_times(&self, t: &PassTimes) {
        self.record(PassKind::Dataspace, t.dataspace);
        self.record(PassKind::Partition, t.partition);
        self.record(PassKind::Reuse, t.reuse);
        self.record(PassKind::Alloc, t.alloc);
        self.record(PassKind::Movement, t.movement);
        if !t.hierarchy.is_zero() {
            self.record(PassKind::Hierarchy, t.hierarchy);
        }
    }

    /// Snapshot the accumulated totals.
    pub fn report(&self) -> PassReport {
        PassReport {
            rows: PASS_KINDS
                .iter()
                .enumerate()
                .map(|(i, &kind)| PassRow {
                    kind,
                    total: Duration::from_nanos(self.ns[i].load(Ordering::Relaxed)),
                    count: self.count[i].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// One row of a [`PassReport`].
#[derive(Clone, Copy, Debug)]
pub struct PassRow {
    /// Which pass/phase.
    pub kind: PassKind,
    /// Accumulated wall-clock time.
    pub total: Duration,
    /// Number of recorded occurrences.
    pub count: u64,
}

/// A snapshot of a [`PassProfiler`]: per-pass totals plus a text table.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Rows in [`PASS_KINDS`] order.
    pub rows: Vec<PassRow>,
}

impl PassReport {
    /// Total time across the §3 compiler passes.
    pub fn compiler_total(&self) -> Duration {
        self.rows
            .iter()
            .filter(|r| r.kind.is_compiler())
            .map(|r| r.total)
            .sum()
    }

    /// Total time across the executor phases.
    pub fn executor_total(&self) -> Duration {
        self.rows
            .iter()
            .filter(|r| !r.kind.is_compiler())
            .map(|r| r.total)
            .sum()
    }

    /// Render as a two-section text table (skipping never-hit rows),
    /// followed by the polyhedral-core counters when any were hit.
    pub fn render(&self) -> String {
        let grand = (self.compiler_total() + self.executor_total()).as_secs_f64();
        let mut out = String::from("pass profile (host wall-clock)\n");
        let mut section = |title: &str, compiler: bool, total: Duration| {
            out.push_str(&format!(
                "  {title:<22} {:>10.3} ms\n",
                total.as_secs_f64() * 1e3
            ));
            for r in self
                .rows
                .iter()
                .filter(|r| r.kind.is_compiler() == compiler)
            {
                if r.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<20} {:>10.3} ms  x{:<8} ({:>4.1}%)\n",
                    r.kind.label(),
                    r.total.as_secs_f64() * 1e3,
                    r.count,
                    100.0 * r.total.as_secs_f64() / grand.max(1e-12),
                ));
            }
        };
        section("compiler (§3 passes)", true, self.compiler_total());
        section("executor phases", false, self.executor_total());
        let poly = polymem_poly::poly_core_stats();
        if poly != polymem_poly::PolyCoreStats::default() {
            out.push_str(&format!(
                "  polyhedral core\n    projection cache   {} hits / {} misses ({:.1}% hit rate)\n    fourier-motzkin    {} rows generated, {} pruned\n",
                poly.cache_hits,
                poly.cache_misses,
                100.0 * poly.hit_rate(),
                poly.fm_rows_generated,
                poly.fm_rows_pruned,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile {
            n_blocks: 32,
            threads_per_block: 64,
            instances: 1 << 20,
            ops_per_instance: 3,
            smem_accesses_per_instance: 4,
            movement_occurrences_per_block: 64,
            movement_volume_per_occurrence: 1024,
            smem_bytes_per_block: 2048,
            device_syncs: 128,
            ..KernelProfile::default()
        }
    }

    #[test]
    fn segments_sum_to_total() {
        let m = MachineConfig::geforce_8800_gtx();
        let tl = Timeline::from_profile(&profile(), &m).unwrap();
        let sum: f64 = tl.segments.iter().map(|s| s.ms).sum();
        assert!((sum - tl.total_ms).abs() < 1e-9 * tl.total_ms);
        assert!(!tl.segments.is_empty());
    }

    #[test]
    fn fractions_are_normalised() {
        let m = MachineConfig::geforce_8800_gtx();
        let tl = Timeline::from_profile(&profile(), &m).unwrap();
        let total: f64 = [
            Phase::Movement,
            Phase::Compute,
            Phase::Scratchpad,
            Phase::Global,
            Phase::Barrier,
        ]
        .iter()
        .map(|&p| tl.fraction(p))
        .sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn dominant_phase_tracks_the_bottleneck() {
        let m = MachineConfig::geforce_8800_gtx();
        // Barrier-heavy profile: many device syncs, tiny work.
        let barrier_bound = KernelProfile {
            instances: 1024,
            device_syncs: 100_000,
            ..profile()
        };
        let tl = Timeline::from_profile(&barrier_bound, &m).unwrap();
        assert_eq!(tl.dominant(), Some(Phase::Barrier));
        // Movement-heavy profile.
        let movement_bound = KernelProfile {
            movement_occurrences_per_block: 1 << 16,
            device_syncs: 0,
            instances: 1024,
            ..profile()
        };
        let tl = Timeline::from_profile(&movement_bound, &m).unwrap();
        assert_eq!(tl.dominant(), Some(Phase::Movement));
    }

    #[test]
    fn rendering_is_width_stable() {
        let m = MachineConfig::geforce_8800_gtx();
        let tl = Timeline::from_profile(&profile(), &m).unwrap();
        let text = tl.render(60);
        let bar = text.lines().next().unwrap();
        let bar_chars = bar.chars().take_while(|&c| c != ']').count() - 1;
        assert_eq!(bar_chars, 60, "{text}");
        assert!(text.contains("ms total"));
        assert!(text.contains("movement"));
    }

    #[test]
    fn zero_profile_is_handled() {
        let m = MachineConfig::geforce_8800_gtx();
        let tl = Timeline::from_profile(&KernelProfile::default(), &m).unwrap();
        assert_eq!(tl.fraction(Phase::Compute), 0.0);
        let _ = tl.render(10);
    }

    #[test]
    fn dma_timeline_splits_hidden_and_exposed_time() {
        use crate::dma::DmaStats;
        let m = MachineConfig::geforce_8800_gtx();
        let dma = DmaStats {
            descriptors: 4,
            elements: 64,
            bytes: 256,
            channel_busy_cycles: vec![100, 50],
            stall_cycles: 30,
            bytes_hist: vec![4],
        };
        let tl = Timeline::from_dma(&dma, &m);
        assert_eq!(tl.segments.len(), 2);
        assert!((tl.fraction(Phase::DmaStall) - 30.0 / 150.0).abs() < 1e-9);
        assert!((tl.fraction(Phase::DmaTransfer) - dma.overlap_fraction()).abs() < 1e-9);
        let text = tl.render(20);
        assert!(text.contains("dma-stall"), "{text}");
        // No DMA activity: empty timeline, render does not panic.
        let tl0 = Timeline::from_dma(&DmaStats::default(), &m);
        assert!(tl0.segments.is_empty());
        let _ = tl0.render(10);
    }

    #[test]
    fn profiler_accumulates_and_splits_sections() {
        let p = PassProfiler::new();
        p.record(PassKind::Compute, Duration::from_millis(3));
        p.record(PassKind::Compute, Duration::from_millis(2));
        p.record(PassKind::Barrier, Duration::from_millis(1));
        p.absorb_pass_times(&PassTimes {
            reuse: Duration::from_millis(4),
            ..PassTimes::default()
        });
        let r = p.report();
        assert_eq!(r.executor_total(), Duration::from_millis(6));
        assert_eq!(r.compiler_total(), Duration::from_millis(4));
        let compute = r
            .rows
            .iter()
            .find(|row| row.kind == PassKind::Compute)
            .unwrap();
        assert_eq!(compute.count, 2);
        assert_eq!(compute.total, Duration::from_millis(5));
    }

    #[test]
    fn profiler_report_renders_only_hit_rows() {
        let p = PassProfiler::new();
        p.record(PassKind::MoveIn, Duration::from_millis(1));
        let text = p.report().render();
        assert!(text.contains("move-in"), "{text}");
        assert!(!text.contains("dataspace"), "{text}");
        assert!(text.contains("compiler"), "{text}");
    }

    #[test]
    fn report_surfaces_poly_core_counters() {
        use polymem_poly::{Constraint, Polyhedron, Space};
        polymem_poly::set_naive_mode(false);
        let t = Polyhedron::new(
            Space::new(["i", "j"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, 0, 0]),
                Constraint::ineq(vec![-1, 0, 1, -1]),
                Constraint::ineq(vec![0, 1, 0, 0]),
                Constraint::ineq(vec![1, -1, 0, 0]),
            ],
        );
        // Two identical projections: at least one cache consultation.
        let _ = t.eliminate_dims(&[0, 1]).unwrap();
        let _ = t.eliminate_dims(&[0, 1]).unwrap();
        let text = PassProfiler::new().report().render();
        assert!(text.contains("projection cache"), "{text}");
        assert!(text.contains("fourier-motzkin"), "{text}");
    }

    #[test]
    fn report_table_renders_aligned_snapshot() {
        // Fixed recorded durations -> a fully deterministic table.
        // This is a snapshot of the expected rendering; the ms column
        // of every row lines up with the section headers' (col 24).
        let p = PassProfiler::new();
        p.absorb_pass_times(&PassTimes {
            dataspace: Duration::from_micros(1500),
            partition: Duration::from_micros(500),
            reuse: Duration::from_micros(1000),
            alloc: Duration::from_micros(2000),
            movement: Duration::from_micros(3000),
            hierarchy: Duration::from_micros(2000),
        });
        p.record(PassKind::Compute, Duration::from_micros(8000));
        p.record(PassKind::Barrier, Duration::from_micros(2000));
        let text = p.report().render();
        let expected = "\
pass profile (host wall-clock)
  compiler (§3 passes)       10.000 ms
    dataspace                 1.500 ms  x1        ( 7.5%)
    partition                 0.500 ms  x1        ( 2.5%)
    reuse                     1.000 ms  x1        ( 5.0%)
    alloc                     2.000 ms  x1        (10.0%)
    movement                  3.000 ms  x1        (15.0%)
    hierarchy                 2.000 ms  x1        (10.0%)
  executor phases            10.000 ms
    compute                   8.000 ms  x1        (40.0%)
    barrier                   2.000 ms  x1        (10.0%)
";
        // The polyhedral-core counter footer depends on global state
        // other tests touch; compare everything before it.
        let got = text.split("  polyhedral core").next().unwrap();
        assert_eq!(got, expected, "got:\n{got}");
        // Every ms column is aligned: " ms" ends at the same column
        // in headers and rows.
        let cols: Vec<usize> = got
            .lines()
            .skip(1)
            .map(|l| l.split(" ms").next().unwrap().chars().count())
            .collect();
        assert!(cols.iter().all(|&c| c == cols[0]), "{cols:?}");
    }

    #[test]
    fn zero_hierarchy_time_keeps_the_row_out() {
        let p = PassProfiler::new();
        p.absorb_pass_times(&PassTimes {
            reuse: Duration::from_millis(1),
            ..PassTimes::default()
        });
        let text = p.report().render();
        assert!(!text.contains("hierarchy"), "{text}");
    }

    #[test]
    fn profiler_is_shareable_across_threads() {
        let p = PassProfiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        p.record(PassKind::Compute, Duration::from_nanos(10));
                    }
                });
            }
        });
        let r = p.report();
        let compute = r
            .rows
            .iter()
            .find(|row| row.kind == PassKind::Compute)
            .unwrap();
        assert_eq!(compute.count, 400);
        assert_eq!(compute.total, Duration::from_nanos(4000));
    }
}
