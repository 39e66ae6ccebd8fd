//! The four workloads and the harness the three sweep-shaped ones
//! share (set-up repetitions, warm-up, the timed window, the split
//! of a traced pass into an untraced reference part and a traced part).

pub mod launch;
pub mod serve;
pub mod tune;

use crate::api::{self, ExecStats, MachineConfig};
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "launch-hier-gpu",
    "launch-dma-cell",
    "tune-search",
    "serve-mixed",
];

/// Set-up is repeated and `setup_s` is the median repetition, so one
/// slow start does not decide the metric.
pub const SETUP_REPS: usize = 3;
/// Untimed sweeps at the end of each set-up.
pub const WARMUP_SWEEPS: usize = 2;
/// Share of a traced pass's window spent on untraced sweeps, the
/// reference `trace.overhead_pct` and the sum-check are taken against.
pub const UNTRACED_SHARE: f64 = 0.25;
/// Busy time on every core before set-up starts; see [`warm_host`].
const HOST_WARMUP: Duration = Duration::from_secs(2);
/// Sweeps each part of a window runs at least, however short it is.
const MIN_SWEEPS: usize = 3;

/// What the driver (or `run`) asks one child process for.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass of one workload produced.
pub struct Outcome {
    pub report: Report,
    /// Operations (launches, searches, requests) attempted in warm-up
    /// and window.
    pub attempted: u64,
    /// Operations that errored, were refused, or whose output differed
    /// from the reference.
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Where the benchmark may write: `benchmark/out` of the checkout it
/// runs in (the driver starts it from the checkout's root).
pub fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    let base = if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The exact (modeled-clock) totals and the failure tally of a sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub modeled_cycles: u64,
    pub traffic_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Totals {
    pub fn add_launch(&mut self, stats: &ExecStats, cfg: &MachineConfig) {
        self.modeled_cycles += stats.modeled_cycles;
        self.traffic_bytes += (stats.global_reads + stats.global_writes) * cfg.word_bytes;
    }
}

/// Metric names of the profiler's rows, in `api::PASS_KINDS` order:
/// the six §3 compiler passes, then the executor's four phases.
pub const PASS_METRICS: [&str; 10] = [
    "smem.pass_ms.dataspace",
    "smem.pass_ms.partition",
    "smem.pass_ms.reuse",
    "smem.pass_ms.alloc",
    "smem.pass_ms.movement",
    "smem.pass_ms.hierarchy",
    "exec.movein_cpu_ms",
    "exec.compute_cpu_ms",
    "exec.moveout_cpu_ms",
    "exec.merge_cpu_ms",
];

/// One profiler's totals in ms, in [`PASS_METRICS`] order.
pub fn pass_ms(profiler: &api::PassProfiler) -> [f64; 10] {
    let rows = profiler.report().rows;
    debug_assert!(rows.iter().map(|r| r.kind).eq(api::PASS_KINDS));
    std::array::from_fn(|i| rows[i].total.as_secs_f64() * 1e3)
}

/// Report the first `n` [`PASS_METRICS`] from per-sweep rows.
pub fn report_passes(rows: &[[f64; 10]], n: usize, report: &mut Report) {
    for (i, name) in PASS_METRICS.iter().enumerate().take(n) {
        let col: Vec<f64> = rows.iter().map(|row| row[i]).collect();
        report.time(name, &col);
    }
}

/// The `ir` layer, as set-up paid for it: one sample per repetition.
pub fn report_setup_ir(spans: &[Span], report: &mut Report) {
    for (metric, span) in [
        ("ir.store_init_ms", "ir.store_init"),
        ("ir.reference_ms", "ir.reference"),
    ] {
        report.time(
            metric,
            &trace::per_group_ms(spans, "setup", trace::named(span)),
        );
    }
}

/// A workload whose timing sample is one pass over a fixed case list.
pub trait Sweeper: Sized {
    /// Build the cases and their reference outputs from the seed.
    /// Called [`SETUP_REPS`] times; spans go to `tr`.
    fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// One pass, as a CLI user or client would make the calls.
    fn sweep(&mut self) -> Totals;
    /// The same pass with each call wrapped in a span and the counters
    /// the calls return kept, plus this workload's probes.
    fn traced_sweep(&mut self, tr: &mut Tracer) -> Totals;
    /// Measurements taken once, before the traced window.
    fn probes(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Per-layer metrics from the spans and the kept counters;
    /// returns the parts of the sum-check, in ms.
    fn layers(&self, spans: &[Span], report: &mut Report) -> f64;
}

/// Run sweeps until `budget` has passed and at least [`MIN_SWEEPS`]
/// are done; returns their durations in ms.
fn window<S: Sweeper>(
    w: &mut S,
    budget: Duration,
    mut one: impl FnMut(&mut S) -> Totals,
    expect: &Totals,
    tally: &mut Totals,
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut ms = Vec::new();
    while t0.elapsed() < budget || ms.len() < MIN_SWEEPS {
        let s0 = Instant::now();
        let t = one(w);
        ms.push(s0.elapsed().as_secs_f64() * 1e3);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        // The modeled clock is deterministic: a sweep that disagrees
        // with set-up's is a failure of every operation in it.
        if (t.modeled_cycles, t.traffic_bytes) != (expect.modeled_cycles, expect.traffic_bytes) {
            tally.failed += t.attempted - t.failed;
        }
    }
    ms
}

/// One pass of a sweep-shaped workload.
pub fn run_sweeps<S: Sweeper>(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut tally = Totals::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<(S, Totals)> = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        api::poly_core_reset();
        tr.set_sweep(rep as u64);
        let (made, _) = tr.span("setup", |tr| -> Result<(S, Totals), String> {
            let mut w = S::setup(&args.workload, args.seed, tr)?;
            let mut warm = Totals::default();
            for _ in 0..WARMUP_SWEEPS {
                warm = w.sweep();
                tally.attempted += warm.attempted;
                tally.failed += warm.failed;
            }
            Ok((w, warm))
        });
        kept = Some(made?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut w, expect) = kept.expect("SETUP_REPS > 0");

    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (t0, before) = (Instant::now(), tally.clone());
        let ms = window(&mut w, budget, S::sweep, &expect, &mut tally);
        let done = (tally.attempted - before.attempted) - (tally.failed - before.failed);
        report.time("setup_s", &setup_s);
        report.time("sweep_ms", &ms);
        report.time_value("ops_per_s", done as f64 / t0.elapsed().as_secs_f64());
        report.count("modeled_cycles", expect.modeled_cycles as f64);
        report.count("global_traffic_bytes", expect.traffic_bytes as f64);
    } else {
        w.probes(&mut tr)?;
        let plain = window(
            &mut w,
            budget.mul_f64(UNTRACED_SHARE),
            S::sweep,
            &expect,
            &mut tally,
        );
        let mut sweep = SETUP_REPS as u64;
        let traced = window(
            &mut w,
            budget.mul_f64(1.0 - UNTRACED_SHARE),
            |w| {
                tr.set_sweep(sweep);
                sweep += 1;
                tr.span("sweep", |tr| w.traced_sweep(tr)).0
            },
            &expect,
            &mut tally,
        );
        let parts = w.layers(&tr.spans, &mut report);
        let ops_ms = trace::per_group_ms(&tr.spans, "sweep", |n| n.starts_with("op:"));
        let base = median(&plain);
        report.time_value("trace.overhead_pct", 100.0 * (median(&ops_ms) / base - 1.0));
        report.time_value("ledger.sum_gap_pct", 100.0 * (parts / base - 1.0).abs());
        report.time_value("ledger.cover_pct", trace::cover_pct(&tr.spans));
        println!(
            "  traced pass: {} untraced sweeps (median {:.3} ms), {} traced sweeps (median {:.3} ms with probes)",
            plain.len(),
            base,
            traced.len(),
            median(&traced)
        );
    }
    Ok(Outcome {
        report,
        attempted: tally.attempted,
        failed: tally.failed,
        spans: tr.spans,
    })
}

/// Keep every core busy for `time` before anything is measured. After
/// ~30 s of idling this host runs 35–50 % slow for its first seconds
/// (measured: `setup_s` 0.33 s against 0.21 s, sweeps 123 ms against
/// 81 ms); a 2 s spin on both cores removes that, so a pass reads the
/// same whatever ran — or did not run — before it.
fn warm_host(time: Duration) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let mut x = 1u64;
                while t0.elapsed() < time {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// Cores this process may use: the cap on generator threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one pass of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let pass: fn(&Args) -> Result<Outcome, String> = match args.workload.as_str() {
        "launch-hier-gpu" | "launch-dma-cell" => run_sweeps::<launch::Launch>,
        "tune-search" => run_sweeps::<tune::Search>,
        "serve-mixed" => serve::run,
        other => return Err(format!("unknown workload `{other}`")),
    };
    warm_host(HOST_WARMUP);
    let mut out = pass(args)?;
    if args.trace {
        out.report.info("proc.peak_rss_mb", peak_rss_mb());
        out.report.info("host.nproc", nproc() as f64);
        out.report.fill_unexercised(crate::metrics::PER_LAYER);
    }
    Ok(out)
}
