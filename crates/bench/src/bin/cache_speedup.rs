//! Plan-cache speedup harness (fig. 4/5-style kernels, compiler
//! *included* in the wall-clock).
//!
//! The functional executor used to re-run the whole §3 pipeline for
//! every block of every round. With the compile-once-per-shape plan
//! cache, the pipeline runs once per kernel shape and each block just
//! evaluates the symbolic plan at its fixed-dim values. This harness
//! measures that end-to-end: for the ME and Jacobi scratchpad
//! configurations it times `execute_blocked` (which contains the
//! compiler) with the cache on and off, verifies the outputs are
//! bit-exact, and reports the ratio. Many small blocks make the
//! compiler the dominant cost, which is exactly the regime the cache
//! targets.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin cache_speedup
//! ```
//!
//! Exits non-zero if outputs differ or the mean speedup is < 5×.

use polymem_bench::harness::Case;
use polymem_ir::ArrayStore;
use polymem_kernels::{jacobi, me};
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};
use std::time::Instant;

/// `(label, case)`: the two compile-bound launches of Figs. 4 and 5.
fn cases() -> Vec<(&'static str, Case)> {
    let size = me::MeSize {
        ni: 32,
        nj: 32,
        ws: 3,
    };
    let s = jacobi::JacobiSize { n: 128, t: 4 };
    vec![
        // 32x32 frame in 2x2 tiles -> 256 blocks, each with a trivial
        // 2x2 x ws^2 SAD — compile-bound without the cache.
        (
            "ME 32x32 (2x2 tiles, 256 blocks)",
            Case::builtin("me", me::params(&size), 7, me::blocked_kernel(2, 2, true)),
        ),
        // Stepwise: 4 rounds x 64 space blocks.
        (
            "Jacobi N=128 (tile 2, 4 rounds x 64 blocks)",
            Case::builtin(
                "jacobi",
                jacobi::params(&s),
                8,
                jacobi::stepwise_kernel(2, true),
            ),
        ),
    ]
}

const REPS: usize = 3;

/// Best-of-[`REPS`] wall-clock for one configuration (minimum filters
/// out scheduler noise; the outputs of every rep are identical since
/// execution is deterministic).
fn timed_run(case: &Case, plan_cache: bool) -> (f64, ArrayStore, ExecStats) {
    let mut cfg = MachineConfig::geforce_8800_gtx();
    cfg.plan_cache = plan_cache;
    let mut best: Option<(f64, ArrayStore, ExecStats)> = None;
    for _ in 0..REPS {
        let mut st = case.base.clone();
        let t0 = Instant::now();
        let stats = execute_blocked(&case.kernel, &case.params, &mut st, &cfg, false)
            .expect("execution succeeds");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _, _)| ms < *b) {
            best = Some((ms, st, stats));
        }
    }
    best.expect("REPS > 0")
}

fn main() {
    let mut ok = true;
    let mut speedups = Vec::new();
    println!("plan-cache speedup (wall-clock including the compiler, best of {REPS})\n");
    for (label, case) in cases() {
        // Warm the process (allocator, page faults) before timing.
        let _ = timed_run(&case, false);
        let (ms_off, st_off, s_off) = timed_run(&case, false);
        let (ms_on, st_on, s_on) = timed_run(&case, true);
        let exact =
            st_on.data(case.check).expect("output") == st_off.data(case.check).expect("output");
        ok &= exact;
        let speedup = ms_off / ms_on.max(1e-9);
        speedups.push(speedup);
        println!("{label}");
        println!(
            "  cache off: {ms_off:8.2} ms  (hits {}, misses {})",
            s_off.plan_cache_hits, s_off.plan_cache_misses
        );
        println!(
            "  cache on:  {ms_on:8.2} ms  (hits {}, misses {})",
            s_on.plan_cache_hits, s_on.plan_cache_misses
        );
        println!(
            "  speedup:   {speedup:8.2}x   outputs bit-exact: {}\n",
            if exact { "yes" } else { "NO" }
        );
        ok &= s_on.plan_cache_hits > 0;
    }
    let mean = speedups
        .iter()
        .product::<f64>()
        .powf(1.0 / speedups.len() as f64);
    println!("geometric-mean speedup: {mean:.2}x (target >= 5x)");
    if !ok || mean < 5.0 {
        std::process::exit(1);
    }
}
