//! Polyhedral-core perf-regression harness.
//!
//! Runs the five built-in kernels through the full §3 analysis and the
//! blocked executor on the GPU and Cell machine models, twice each:
//! once with the optimized polyhedral core (greedy Fourier–Motzkin
//! ordering, interleaved pruning, simplex feasibility, projection
//! cache) and once in naive mode (the pre-optimization core, toggled
//! in-process). The compiler-side reference column also scans every
//! sub-block's domain by projection (`scan_per_sub_block`) — the work
//! the per-launch enumeration layout saves. It then
//!
//! * writes `BENCH_polycore.json` — per-kernel compiler-side
//!   wall-clock for both modes (whole-program analysis, plus the
//!   polyhedral-core time across an analyze + blocked-execution
//!   workload as measured by the core's own timer), per-pass times, FM
//!   rows generated vs. pruned, and projection-cache hit rates — so
//!   the perf trajectory is tracked from this PR onward;
//! * verifies executor outputs are bit-exact between the two modes;
//! * checks the simplex emptiness verdict against the FM oracle on a
//!   deterministic batch of random constraint systems;
//! * (full mode) re-checks the fig. 4–8 qualitative shapes and asserts
//!   the compiler-side speedup on the ME and Jacobi-2D kernels is
//!   ≥ 2×.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin polycore            # full
//! cargo run --release -p polymem-bench --bin polycore -- --smoke # CI
//! ```
//!
//! Exits non-zero on any check failure. `--smoke` shrinks sizes and
//! skips the speedup assertion (timings on CI runners are noise) but
//! still fails on panics, output mismatches, or oracle disagreement.

use polymem_bench::harness::{best_of, conclude, smoke_mode, Case};
use polymem_core::smem::{analyze_program_timed, PassTimes, SmemConfig};
use polymem_core::tiling::transform::{fix_dims, project_onto_named};
use polymem_ir::ArrayStore;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{execute_blocked, Json, MachineConfig};
use polymem_poly::cache::{poly_core_reset, poly_core_stats, set_naive_mode, PolyCoreStats};
use polymem_poly::count::{count_points, enumerate_points};
use polymem_poly::{Constraint, Polyhedron, Space};
use std::collections::HashMap;
use std::time::Instant;

fn cases(smoke: bool) -> Vec<Case> {
    let pick = |small: i64, full: i64| if smoke { small } else { full };
    let me_size = me::MeSize {
        ni: pick(16, 32),
        nj: pick(16, 32),
        ws: pick(2, 3),
    };
    let jacobi_size = jacobi::JacobiSize {
        n: pick(32, 128),
        t: pick(2, 4),
    };
    let conv_size = conv2d::ConvSize {
        n: pick(7, 15),
        k: 3,
    };
    vec![
        Case::builtin(
            "me",
            me::params(&me_size),
            7,
            me::blocked_kernel(2, 2, true),
        ),
        Case::builtin(
            "jacobi",
            jacobi::params(&jacobi_size),
            8,
            jacobi::stepwise_kernel(2, true),
        ),
        Case::builtin(
            "jacobi2d",
            jacobi2d::params(2, pick(8, 16)),
            9,
            jacobi2d::stepwise_kernel(4, 4, true),
        ),
        Case::builtin(
            "matmul",
            vec![pick(8, 16)],
            10,
            matmul::blocked_kernel(4, 4, 4, true),
        ),
        Case::builtin(
            "conv2d",
            conv2d::params(&conv_size),
            11,
            conv2d::blocked_kernel(3, 3, true),
        ),
    ]
}

/// Best-of-`reps` wall-clock (ms) for one full analysis, each rep from
/// a cold projection cache so intra-analysis reuse — not cross-rep
/// warmth — is what gets measured. Returns the best time and the pass
/// breakdown of the final rep.
fn timed_analyze(case: &Case, reps: usize) -> (f64, PassTimes) {
    let config = SmemConfig {
        sample_params: case.params.clone(),
        ..SmemConfig::default()
    };
    let mut times = PassTimes::default();
    let (best, ()) = best_of(reps, || {
        poly_core_reset();
        let t0 = Instant::now();
        let (_, t) = analyze_program_timed(&case.program, &config).expect("analysis succeeds");
        times = t;
        (t0.elapsed().as_secs_f64() * 1e3, ())
    });
    (best, times)
}

/// The reference domain scan: every sub-block of the launch (each value
/// of the round ∪ block ∪ seq dims) re-derives every statement's loop
/// bounds by projecting its restricted domain. The executor evaluates
/// one per-launch cascade instead (DESIGN.md §4, "bound cascades and
/// the per-launch enumeration layout") and does not know the naive
/// switch, so the reference it is gated against is driven from here,
/// through the core's public scanner.
fn scan_per_sub_block(case: &Case, budget: u64) {
    let k = &case.kernel;
    let names: Vec<String> = [&k.round_dims, &k.block_dims, &k.seq_dims]
        .into_iter()
        .flatten()
        .cloned()
        .collect();
    let lead = &k.program.stmts[0].domain;
    let shape = project_onto_named(lead, &names)
        .and_then(|p| p.substitute_params(&case.params))
        .expect("sub-block space");
    let mut subs = Vec::new();
    enumerate_points(&shape, budget, &mut |v| subs.push(v.to_vec())).expect("sub-blocks");
    for v in subs {
        let fixed: HashMap<String, i64> = names.iter().cloned().zip(v).collect();
        for s in &k.program.stmts {
            let dom = fix_dims(&s.domain, &fixed)
                .substitute_params(&case.params)
                .expect("restricted domain");
            count_points(&dom, budget).expect("domain scan");
        }
    }
}

/// Best-of-`reps` wall-clock (ms) spent **inside the polyhedral core**
/// across one fixed compiler workload: a whole-program analysis plus
/// one blocked execution on the GPU model — the §3 passes, the launch's
/// symbolic planning and bound cascades, and the round/block/sub-tile
/// enumeration. The `reference` column is the same workload in naive
/// mode plus [`scan_per_sub_block`]. Measured via the core's own
/// re-entrancy-safe timer ([`PolyCoreStats::core_ns`]), so
/// interpretation time (moving words, evaluating statement bodies) is
/// excluded. Each rep starts from a cold cache; intra-workload reuse
/// is part of what is measured.
fn timed_core(case: &Case, machine: &MachineConfig, reps: usize, reference: bool) -> f64 {
    let config = SmemConfig {
        sample_params: case.params.clone(),
        ..SmemConfig::default()
    };
    set_naive_mode(reference);
    let best = best_of(reps, || {
        poly_core_reset();
        analyze_program_timed(&case.program, &config).expect("analysis succeeds");
        let mut st = case.base.clone();
        execute_blocked(&case.kernel, &case.params, &mut st, machine, false)
            .expect("execution succeeds");
        if reference {
            scan_per_sub_block(case, machine.enum_budget);
        }
        (poly_core_stats().core_ms(), ())
    })
    .0;
    set_naive_mode(false);
    best
}

/// Best-of-`reps` executor wall-clock (ms); returns the final store for
/// bit-exactness comparison.
fn timed_exec(case: &Case, machine: &MachineConfig, reps: usize) -> (f64, ArrayStore) {
    best_of(reps, || {
        let mut st = case.base.clone();
        let t0 = Instant::now();
        execute_blocked(&case.kernel, &case.params, &mut st, machine, false)
            .expect("execution succeeds");
        (t0.elapsed().as_secs_f64() * 1e3, st)
    })
}

struct KernelResult {
    name: &'static str,
    analyze_fast_ms: f64,
    analyze_naive_ms: f64,
    core_fast_ms: f64,
    core_naive_ms: f64,
    pass_ms: Vec<(&'static str, f64)>,
    stats: PolyCoreStats,
    machines: Vec<MachineResult>,
}

struct MachineResult {
    machine: &'static str,
    run_fast_ms: f64,
    run_naive_ms: f64,
    bit_exact: bool,
}

impl KernelResult {
    /// Compiler-side speedup: polyhedral-core wall-clock over the
    /// fixed analyze + blocked-execution workload, naive over fast.
    /// This is the quantity the ≥2× regression gate asserts.
    fn speedup(&self) -> f64 {
        self.core_naive_ms / self.core_fast_ms.max(1e-9)
    }

    fn to_json(&self) -> Json {
        let ms = |x: f64| Json::fixed(x, 4);
        Json::obj([
            ("name", self.name.into()),
            ("analyze_ms_fast", ms(self.analyze_fast_ms)),
            ("analyze_ms_naive", ms(self.analyze_naive_ms)),
            ("core_ms_fast", ms(self.core_fast_ms)),
            ("core_ms_naive", ms(self.core_naive_ms)),
            ("compiler_speedup", Json::fixed(self.speedup(), 3)),
            (
                "pass_ms",
                Json::obj(self.pass_ms.iter().map(|(name, t)| (*name, ms(*t)))),
            ),
            ("cache_hits", self.stats.cache_hits.into()),
            ("cache_misses", self.stats.cache_misses.into()),
            ("cache_hit_rate", ms(self.stats.hit_rate())),
            ("fm_rows_generated", self.stats.fm_rows_generated.into()),
            ("fm_rows_pruned", self.stats.fm_rows_pruned.into()),
            ("feasibility_tests", self.stats.feasibility_tests.into()),
            (
                "runs",
                self.machines
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("machine", m.machine.into()),
                            ("run_ms_fast", ms(m.run_fast_ms)),
                            ("run_ms_naive", ms(m.run_naive_ms)),
                            ("bit_exact", m.bit_exact.into()),
                        ])
                    })
                    .collect(),
            ),
        ])
    }
}

fn bench_kernel(case: &Case, reps: usize) -> KernelResult {
    set_naive_mode(false);
    let (analyze_fast_ms, times) = timed_analyze(case, reps);
    // Stats snapshot for one cold fast analysis.
    poly_core_reset();
    let config = SmemConfig {
        sample_params: case.params.clone(),
        ..SmemConfig::default()
    };
    analyze_program_timed(&case.program, &config).expect("analysis succeeds");
    let stats = poly_core_stats();

    set_naive_mode(true);
    let (analyze_naive_ms, _) = timed_analyze(case, reps);
    set_naive_mode(false);

    // Polyhedral-core time over the fixed workload, measured on the
    // GPU model (the machine only changes scratchpad capacity, not the
    // shape of the polyhedral work).
    let core_cfg = MachineConfig::geforce_8800_gtx();
    let core_fast_ms = timed_core(case, &core_cfg, reps, false);
    let core_naive_ms = timed_core(case, &core_cfg, reps, true);

    let pass_ms = vec![
        ("dataspace", times.dataspace.as_secs_f64() * 1e3),
        ("partition", times.partition.as_secs_f64() * 1e3),
        ("reuse", times.reuse.as_secs_f64() * 1e3),
        ("alloc", times.alloc.as_secs_f64() * 1e3),
        ("movement", times.movement.as_secs_f64() * 1e3),
        // Zero for the level-1-only analysis timed here; present so the
        // report's pass set matches PassTimes and picks the hierarchy
        // pass up wherever two-level planning is timed.
        ("hierarchy", times.hierarchy.as_secs_f64() * 1e3),
    ];

    let mut machines = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        set_naive_mode(false);
        let (run_fast_ms, st_fast) = timed_exec(case, &cfg, reps);
        set_naive_mode(true);
        let (run_naive_ms, st_naive) = timed_exec(case, &cfg, reps);
        set_naive_mode(false);
        let bit_exact =
            st_fast.data(case.check).expect("output") == st_naive.data(case.check).expect("output");
        machines.push(MachineResult {
            machine: label,
            run_fast_ms,
            run_naive_ms,
            bit_exact,
        });
    }

    KernelResult {
        name: case.name,
        analyze_fast_ms,
        analyze_naive_ms,
        core_fast_ms,
        core_naive_ms,
        pass_ms,
        stats,
        machines,
    }
}

/// Deterministic LCG over random small systems, checking the sound
/// direction of the emptiness invariant: whenever the optimized test
/// (simplex + shortcuts) claims empty, the naive FM oracle must agree.
/// The converse can differ legitimately — FM integer-tightens constants
/// at every elimination step, so it proves *integer* emptiness of some
/// rationally-feasible systems; those cases are counted separately and
/// reported as informational.
fn oracle_check(systems: usize) -> (usize, usize, usize) {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut disagreements = 0usize;
    let mut tightening_extra = 0usize;
    for _ in 0..systems {
        let n_dims = 1 + next(3) as usize;
        let n_params = next(3) as usize;
        let n_rows = 2 + next(6) as usize;
        let cols = n_dims + n_params + 1;
        let rows: Vec<Constraint> = (0..n_rows)
            .map(|_| {
                let coeffs: Vec<i64> = (0..cols).map(|_| next(9) as i64 - 4).collect();
                if next(4) == 0 {
                    Constraint::eq(coeffs)
                } else {
                    Constraint::ineq(coeffs)
                }
            })
            .collect();
        let p = Polyhedron::new(Space::anon(n_dims, n_params), rows);
        set_naive_mode(false);
        let fast = p.is_empty().expect("simplex path");
        set_naive_mode(true);
        let naive = p.is_empty().expect("fm path");
        set_naive_mode(false);
        if fast && !naive {
            // Unsound: the fast path may never claim empty when the
            // tighter FM oracle still finds the system satisfiable.
            disagreements += 1;
            eprintln!("oracle disagreement (simplex=empty, fm=non-empty) on {p:?}");
        } else if !fast && naive {
            tightening_extra += 1;
        }
    }
    (systems, disagreements, tightening_extra)
}

/// Re-check the fig. 4–8 qualitative shapes (full mode only; these run
/// tile searches and are too slow for CI smoke).
fn figures_ok() -> bool {
    let mut ok = true;
    let mut check = |cond: bool, what: &str| {
        if !cond {
            eprintln!("figure shape check failed: {what}");
            ok = false;
        }
    };
    let ratio = |f: &polymem_bench::Figure, a: usize, b: usize, x: f64| {
        f.series[a].at(x).unwrap() / f.series[b].at(x).unwrap()
    };

    let f4 = polymem_bench::figure4();
    let x = (16u64 << 20) as f64;
    check(
        (3.0..30.0).contains(&ratio(&f4, 0, 1, x)),
        "fig4 dram/smem ratio",
    );
    check(ratio(&f4, 2, 1, x) > 30.0, "fig4 cpu/smem ratio");

    let f5 = polymem_bench::figure5();
    let x = (256u64 << 10) as f64;
    check(
        (3.0..40.0).contains(&ratio(&f5, 0, 1, x)),
        "fig5 dram/smem ratio",
    );
    check(ratio(&f5, 2, 1, x) > 4.0, "fig5 cpu/smem ratio");

    let f6 = polymem_bench::figure6();
    let x = (16u64 << 20) as f64;
    let best = f6
        .series
        .iter()
        .min_by(|a, b| a.at(x).unwrap().total_cmp(&b.at(x).unwrap()))
        .unwrap();
    check(best.label == "Tile Size = 32,16,16,16", "fig6 best tile");

    let f7 = polymem_bench::figure7();
    for s in &f7.series {
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        let min = s
            .points
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min);
        check(min < first && min < last, "fig7 U shape");
        let arg = s.argmin().unwrap();
        check(arg > 25.0 && arg < 256.0, "fig7 interior argmin");
    }

    let f8 = polymem_bench::figure8();
    let x = (256u64 << 10) as f64;
    let best = f8
        .series
        .iter()
        .min_by(|a, b| a.at(x).unwrap().total_cmp(&b.at(x).unwrap()))
        .unwrap();
    check(best.label == "Tile Size = 32,256", "fig8 best tile");

    ok
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let reps = if smoke { 2 } else { 3 };
    let target = 2.0;

    println!("polycore perf harness ({mode} mode, best of {reps})\n");
    let mut results = Vec::new();
    for case in cases(smoke) {
        let r = bench_kernel(&case, reps);
        println!(
            "{:<9} analyze {:8.2} ms fast / {:8.2} ms naive   cache {}/{} ({:.0}%)  fm {} gen / {} pruned  {} feasibility tests",
            r.name,
            r.analyze_fast_ms,
            r.analyze_naive_ms,
            r.stats.cache_hits,
            r.stats.cache_hits + r.stats.cache_misses,
            100.0 * r.stats.hit_rate(),
            r.stats.fm_rows_generated,
            r.stats.fm_rows_pruned,
            r.stats.feasibility_tests,
        );
        println!(
            "          core    {:8.2} ms fast / {:8.2} ms naive   compiler-side speedup {:5.2}x",
            r.core_fast_ms,
            r.core_naive_ms,
            r.speedup(),
        );
        for m in &r.machines {
            println!(
                "          run[{:<4}] {:8.2} ms fast / {:8.2} ms naive  bit-exact: {}",
                m.machine,
                m.run_fast_ms,
                m.run_naive_ms,
                if m.bit_exact { "yes" } else { "NO" }
            );
        }
        results.push(r);
    }

    let systems = if smoke { 100 } else { 400 };
    let oracle = oracle_check(systems);
    println!(
        "\nemptiness oracle: {} systems, {} disagreements, {} FM-tightening extras",
        oracle.0, oracle.1, oracle.2
    );

    let figures = if smoke { None } else { Some(figures_ok()) };
    if let Some(ok) = figures {
        println!("figure shapes (4-8): {}", if ok { "ok" } else { "FAILED" });
    }

    let mut failures = Vec::new();
    for r in &results {
        for m in r.machines.iter().filter(|m| !m.bit_exact) {
            failures.push(format!(
                "{}[{}]: fast/naive output mismatch",
                r.name, m.machine
            ));
        }
    }
    if oracle.1 != 0 {
        failures.push(format!("emptiness oracle: {} disagreements", oracle.1));
    }
    if figures == Some(false) {
        failures.push("figure shape checks failed".into());
    }
    let speedup_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.speedup())
            .unwrap_or(0.0)
    };
    if !smoke {
        println!(
            "asserted compiler-side speedups: me {:.2}x, jacobi2d {:.2}x (target >= {target}x)",
            speedup_of("me"),
            speedup_of("jacobi2d")
        );
        for name in ["me", "jacobi2d"] {
            if speedup_of(name) < target {
                failures.push(format!(
                    "{name}: compiler-side speedup {:.2}x below {target}x",
                    speedup_of(name)
                ));
            }
        }
    }

    let body = Json::obj([
        (
            "kernels",
            results.iter().map(KernelResult::to_json).collect(),
        ),
        (
            "emptiness_oracle",
            Json::obj([
                ("systems", oracle.0.into()),
                ("disagreements", oracle.1.into()),
                ("fm_tightening_extra", oracle.2.into()),
            ]),
        ),
        ("figures_ok", figures.into()),
        ("speedup_target", target.into()),
    ]);
    conclude("polycore", smoke, body, &failures);
}
