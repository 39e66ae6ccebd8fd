//! Extension experiments beyond the paper's evaluation, on the shared
//! `BENCH_*.json` harness:
//!
//! 1. **conv2d** — a windowed kernel the paper's intro motivates but
//!    does not measure: staged vs DRAM-only across kernel widths,
//!    rendered as a figure table. Gated: staging must win at every
//!    width and the gain must grow with the window (the reuse the
//!    framework captures is O(k²)).
//! 2. **Cell-like machine** — the paper's framework targets the Cell's
//!    mandatory local store too (§3); the same staged matmul runs on
//!    the GPU-like and Cell-like presets through a harness [`Case`],
//!    gated on bit-exactness and the scratchpad capacity limit.
//! 3. **Timelines** — phase breakdowns (movement / compute /
//!    scratchpad / barrier) for the paper's two kernels at their
//!    chosen configurations, gated on each timeline being non-empty
//!    with phases summing to its total.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin extensions            # full
//! cargo run --release -p polymem-bench --bin extensions -- --smoke # CI
//! ```
//!
//! Writes `BENCH_extensions.json`; exits non-zero on any gate failure.
//! All gated quantities come from the deterministic cost model or
//! deterministic counters, so the gates hold in smoke mode too.

use polymem_bench::harness::{conclude, smoke_mode, sweep, Case};
use polymem_bench::{Figure, Series};
use polymem_kernels::{conv2d, jacobi, me};
use polymem_machine::{Json, MachineConfig, Timeline};

struct SweepRow {
    k: i64,
    dram_ms: f64,
    staged_ms: f64,
}

impl SweepRow {
    fn gain(&self) -> f64 {
        self.dram_ms / self.staged_ms
    }
}

/// Extension 1: staged vs DRAM-only conv2d across window widths, via
/// the figure machinery `polymem figures` prints with.
fn conv2d_sweep(n: i64) -> (Figure, Vec<SweepRow>) {
    let gpu = MachineConfig::geforce_8800_gtx();
    let mut dram = Series {
        label: "DRAM-only".into(),
        points: vec![],
    };
    let mut staged = Series {
        label: "staged".into(),
        points: vec![],
    };
    let mut rows = Vec::new();
    for k in [3i64, 5, 7, 9] {
        let s = conv2d::ConvSize { n, k };
        let d = conv2d::profile(&s, (32, 32), 64, 256, false, &gpu)
            .estimate(&gpu)
            .expect("fits")
            .total_ms;
        let m = conv2d::profile(&s, (32, 32), 64, 256, true, &gpu)
            .estimate(&gpu)
            .expect("fits")
            .total_ms;
        dram.points.push((k as f64, d));
        staged.points.push((k as f64, m));
        rows.push(SweepRow {
            k,
            dram_ms: d,
            staged_ms: m,
        });
    }
    let fig = Figure {
        id: "Extension 1".into(),
        title: format!("conv2d staged vs DRAM-only (N = {n})"),
        x_label: "Window".into(),
        series: vec![dram, staged],
    };
    (fig, rows)
}

struct TimelineRow {
    name: &'static str,
    timeline: Timeline,
}

/// Extension 3: phase timelines at the paper's configurations.
fn timelines(smoke: bool) -> Vec<TimelineRow> {
    let gpu = MachineConfig::geforce_8800_gtx();
    let mut out = Vec::new();

    let s = me::MeSize::square(if smoke { 1 << 20 } else { 16 << 20 }, 16);
    let p = me::profile(&s, (32, 16), 32, 256, true, &gpu);
    out.push(TimelineRow {
        name: "me",
        timeline: Timeline::from_profile(&p, &gpu).expect("fits"),
    });

    let s = jacobi::JacobiSize {
        n: if smoke { 64 * 1024 } else { 512 * 1024 },
        t: 4096,
    };
    let p = jacobi::profile_tiled(&s, 32, 256, 128, 64, true, &gpu);
    out.push(TimelineRow {
        name: "jacobi",
        timeline: Timeline::from_profile(&p, &gpu).expect("fits"),
    });

    let s = jacobi::JacobiSize {
        n: 32 * 1024,
        t: 4096,
    };
    let p = jacobi::profile_resident(&s, 32, 256, 64, &gpu);
    out.push(TimelineRow {
        name: "jacobi_resident",
        timeline: Timeline::from_profile(&p, &gpu).expect("fits"),
    });
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    println!("extension experiments ({mode} mode)\n");

    let (fig, rows) = conv2d_sweep(if smoke { 512 } else { 4096 });
    println!("{}", fig.to_table());
    println!("   (the window-overlap reuse the framework captures grows with k^2)\n");

    let mut failures = Vec::new();

    // Extension 2: the same staged matmul on both machine presets.
    let n = if smoke { 8 } else { 16 };
    let case = Case::builtin("matmul", vec![n], 1, |b| b.tiled(&[4, 4, 8], false));
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];
    println!("== Extension 2: same staged kernel on GPU-like vs Cell-like ==");
    let mut cells = Vec::new();
    for (c, (_, cfg)) in sweep(&[case], &machines, &[("staged", |_| {})], 3).zip(&machines) {
        let s = &c.stats[0];
        println!(
            "  [{:<4}] {} blocks, moved in/out {}/{}, peak {} words ({} B limit), bit-exact: {}",
            c.machine,
            s.blocks,
            s.moved_in,
            s.moved_out,
            s.max_smem_words,
            cfg.smem_bytes,
            if c.bit_exact { "yes" } else { "NO" },
        );
        if !c.bit_exact {
            failures.push(format!("matmul[{}]: output mismatch", c.machine));
        }
        if s.max_smem_words * c.word_bytes > cfg.smem_bytes {
            failures.push(format!(
                "matmul[{}]: peak {} words exceeds the {} B local store",
                c.machine, s.max_smem_words, cfg.smem_bytes
            ));
        }
        cells.push(c.to_json([("smem_bytes", cfg.smem_bytes.into())]));
    }

    let tls = timelines(smoke);
    println!("\n== Extension 3: phase timelines at the paper's configurations ==");
    for r in &tls {
        println!("{} ({:.2} ms):", r.name, r.timeline.total_ms);
        print!("{}", r.timeline.render(64));
    }

    for r in &rows {
        if r.staged_ms >= r.dram_ms {
            failures.push(format!("conv2d k={}: staging did not win", r.k));
        }
    }
    for w in rows.windows(2) {
        if w[1].gain() <= w[0].gain() {
            failures.push(format!(
                "conv2d: gain did not grow from k={} ({:.2}x) to k={} ({:.2}x)",
                w[0].k,
                w[0].gain(),
                w[1].k,
                w[1].gain()
            ));
        }
    }
    for r in &tls {
        let sum: f64 = r.timeline.segments.iter().map(|s| s.ms).sum();
        if r.timeline.segments.is_empty() || (sum - r.timeline.total_ms).abs() > 1e-6 {
            failures.push(format!(
                "timeline {}: segments sum {:.4} != total {:.4}",
                r.name, sum, r.timeline.total_ms
            ));
        }
    }

    let ms = |x: f64| Json::fixed(x, 4);
    let body = Json::obj([
        (
            "conv2d_sweep",
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("k", r.k.into()),
                        ("dram_ms", Json::fixed(r.dram_ms, 3)),
                        ("staged_ms", Json::fixed(r.staged_ms, 3)),
                        ("gain", Json::fixed(r.gain(), 3)),
                    ])
                })
                .collect(),
        ),
        ("cell_comparison", cells.into()),
        (
            "timelines",
            tls.iter()
                .map(|r| {
                    let segments =
                        r.timeline.segments.iter().map(|s| {
                            Json::obj([("phase", s.phase.label().into()), ("ms", ms(s.ms))])
                        });
                    Json::obj([
                        ("name", r.name.into()),
                        ("total_ms", ms(r.timeline.total_ms)),
                        ("segments", segments.collect()),
                    ])
                })
                .collect(),
        ),
    ]);
    conclude("extensions", smoke, body, &failures);
}
