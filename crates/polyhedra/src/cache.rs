//! Content-addressed memoization and instrumentation for the
//! polyhedral core.
//!
//! The scratchpad pipeline projects the *same* polyhedra again and
//! again: every reference in a partition group projects its data space,
//! `bounds::dim_bounds` re-eliminates the same dims once per dimension,
//! and `codegen::scan` repeats those projections per scanned piece. The
//! [`PolyCache`] here memoizes `eliminate_dims` results globally, keyed
//! by the *content* of the input (normalized constraint rows + space
//! names + the eliminated dim set) — content addressing makes a single
//! process-wide cache safe across programs, blocks, and threads, and is
//! what lets `smem::dataspace`, `smem::movement`, `bounds`, and
//! `codegen::scan` share hits without any plumbing.
//!
//! Emptiness queries are memoized the same way ([`empty_memo`]): the
//! verdict depends only on the constraint rows, and polyhedral
//! difference / redundancy probes re-ask about identical systems
//! constantly.
//!
//! The module also owns the polyhedral-core counters (cache hits and
//! misses, Fourier–Motzkin rows generated and pruned, feasibility tests
//! run, total wall-clock spent inside the core's entry points) surfaced through the
//! executor's pass profiler and the `polycore` bench, and the
//! **naive-mode** toggle that reverts the core to its pre-optimization
//! behaviour (fixed reverse elimination order, no pruning, FM-based
//! emptiness, cache off) so speedups can be measured in-process.

use crate::constraint::Constraint;
use crate::set::Polyhedron;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Entry cap; the cache is cleared wholesale when it fills (content
/// addressing makes that safe — only warm-up cost is lost).
const CACHE_CAPACITY: usize = 8192;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static FM_ROWS_GENERATED: AtomicU64 = AtomicU64::new(0);
static FM_ROWS_PRUNED: AtomicU64 = AtomicU64::new(0);
static CORE_NS: AtomicU64 = AtomicU64::new(0);
static FEASIBILITY_TESTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Nesting depth of timed core entry points on this thread; only
    /// the outermost frame accumulates, so nested calls (projection
    /// inside a bound cascade inside an enumeration) are counted once.
    static TIMER_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard timing one polyhedral-core entry point. Place at the top
/// of every public operation whose cost should count toward
/// [`PolyCoreStats::core_ns`].
pub(crate) struct CoreTimer {
    start: Option<Instant>,
}

impl CoreTimer {
    pub(crate) fn enter() -> CoreTimer {
        let outermost = TIMER_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v == 0
        });
        CoreTimer {
            start: outermost.then(Instant::now),
        }
    }
}

impl Drop for CoreTimer {
    fn drop(&mut self) {
        TIMER_DEPTH.with(|d| d.set(d.get() - 1));
        if let Some(t0) = self.start {
            CORE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Tri-state: 0 = fast, 1 = naive, 2 = unset (consult the env once).
static NAIVE: AtomicU8 = AtomicU8::new(2);

/// Snapshot of the polyhedral-core counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolyCoreStats {
    /// Projection-cache hits.
    pub cache_hits: u64,
    /// Projection-cache misses (computations performed and inserted).
    pub cache_misses: u64,
    /// Constraint rows produced by Fourier–Motzkin pairing.
    pub fm_rows_generated: u64,
    /// Rows discarded by interleaved syntactic + bounded exact pruning.
    pub fm_rows_pruned: u64,
    /// Wall-clock nanoseconds spent inside the core's entry points
    /// (projection, emptiness, bounds, enumeration, difference) since
    /// the last reset. Nested calls are counted once.
    pub core_ns: u64,
    /// Constraint systems handed to a feasibility engine (capped FM,
    /// simplex or the tightening FM oracle) because the constant / gcd
    /// verdicts could not settle them — the unit of work behind
    /// `difference`, which the projection and row counters do not see.
    pub feasibility_tests: u64,
}

impl PolyCoreStats {
    /// Cache hit rate in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// [`core_ns`](Self::core_ns) in milliseconds.
    pub fn core_ms(&self) -> f64 {
        self.core_ns as f64 / 1e6
    }
}

/// Read the counters.
pub fn poly_core_stats() -> PolyCoreStats {
    PolyCoreStats {
        cache_hits: HITS.load(Ordering::Relaxed),
        cache_misses: MISSES.load(Ordering::Relaxed),
        fm_rows_generated: FM_ROWS_GENERATED.load(Ordering::Relaxed),
        fm_rows_pruned: FM_ROWS_PRUNED.load(Ordering::Relaxed),
        core_ns: CORE_NS.load(Ordering::Relaxed),
        feasibility_tests: FEASIBILITY_TESTS.load(Ordering::Relaxed),
    }
}

/// Zero the counters and drop all cached projections (used between
/// bench phases so fast/naive runs are measured from a cold start).
pub fn poly_core_reset() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    FM_ROWS_GENERATED.store(0, Ordering::Relaxed);
    FM_ROWS_PRUNED.store(0, Ordering::Relaxed);
    CORE_NS.store(0, Ordering::Relaxed);
    FEASIBILITY_TESTS.store(0, Ordering::Relaxed);
    if let Ok(mut map) = cache().write() {
        map.clear();
    }
    if let Ok(mut map) = empty_cache().write() {
        map.clear();
    }
}

pub(crate) fn count_fm_generated(n: usize) {
    FM_ROWS_GENERATED.fetch_add(n as u64, Ordering::Relaxed);
}

pub(crate) fn count_fm_pruned(n: usize) {
    FM_ROWS_PRUNED.fetch_add(n as u64, Ordering::Relaxed);
}

pub(crate) fn count_feasibility_test() {
    FEASIBILITY_TESTS.fetch_add(1, Ordering::Relaxed);
}

/// Force the core into (or out of) naive pre-optimization mode.
pub fn set_naive_mode(on: bool) {
    NAIVE.store(on as u8, Ordering::SeqCst);
}

/// Whether the core is in naive mode. Unset state reads the
/// `POLYMEM_POLY_NAIVE` environment variable (value `1`) once.
pub fn naive_mode() -> bool {
    match NAIVE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = std::env::var("POLYMEM_POLY_NAIVE").is_ok_and(|v| v == "1");
            NAIVE.store(on as u8, Ordering::SeqCst);
            on
        }
    }
}

/// Whether every simplex emptiness verdict should be cross-checked
/// against the Fourier–Motzkin oracle (`POLYMEM_POLY_CHECK=1`);
/// disagreement panics. Used by the CI smoke run of the bench.
pub fn cross_check() -> bool {
    static CHECK: OnceLock<bool> = OnceLock::new();
    *CHECK.get_or_init(|| std::env::var("POLYMEM_POLY_CHECK").is_ok_and(|v| v == "1"))
}

/// Cache key: full content of an `eliminate_dims` request. Space names
/// participate because the result carries them.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ProjectKey {
    dims: Vec<String>,
    params: Vec<String>,
    rows: Vec<(u8, Vec<i64>)>,
    eliminated: Vec<usize>,
}

fn cache() -> &'static RwLock<HashMap<ProjectKey, Polyhedron>> {
    static CACHE: OnceLock<RwLock<HashMap<ProjectKey, Polyhedron>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn make_key(poly: &Polyhedron, eliminated: &[usize]) -> ProjectKey {
    ProjectKey {
        dims: poly.space().dims().to_vec(),
        params: poly.space().params().to_vec(),
        rows: poly
            .constraints()
            .iter()
            .map(|c: &Constraint| (c.kind as u8, c.coeffs.0.clone()))
            .collect(),
        eliminated: eliminated.to_vec(),
    }
}

/// Memoized projection: look up `poly.eliminate_dims(dims)` by content,
/// computing via `compute` on a miss. `dims` must already be sorted and
/// deduplicated. Disabled entirely in naive mode.
pub(crate) fn project_memo(
    poly: &Polyhedron,
    dims: &[usize],
    compute: impl FnOnce() -> crate::Result<Polyhedron>,
) -> crate::Result<Polyhedron> {
    if naive_mode() {
        return compute();
    }
    let key = make_key(poly, dims);
    if let Ok(map) = cache().read() {
        if let Some(hit) = map.get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = compute()?;
    if let Ok(mut map) = cache().write() {
        if map.len() >= CACHE_CAPACITY {
            map.clear();
        }
        map.insert(key, result.clone());
    }
    Ok(result)
}

type RowsKey = Vec<(u8, Vec<i64>)>;

fn empty_cache() -> &'static RwLock<HashMap<RowsKey, bool>> {
    static CACHE: OnceLock<RwLock<HashMap<RowsKey, bool>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn rows_key(rows: &[Constraint]) -> RowsKey {
    rows.iter()
        .map(|c| (c.kind as u8, c.coeffs.0.clone()))
        .collect()
}

/// Memoized emptiness: the verdict depends only on the constraint rows
/// (spaces and names are irrelevant), so one process-wide map answers
/// repeat queries from `diff`, `remove_redundant` probes, and the
/// passes. Disabled in naive mode. Hits/misses share the cache
/// counters with [`project_memo`].
pub(crate) fn empty_memo(
    rows: &[Constraint],
    compute: impl FnOnce() -> crate::Result<bool>,
) -> crate::Result<bool> {
    if naive_mode() {
        return compute();
    }
    let key = rows_key(rows);
    if let Ok(map) = empty_cache().read() {
        if let Some(&hit) = map.get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = compute()?;
    if let Ok(mut map) = empty_cache().write() {
        if map.len() >= CACHE_CAPACITY {
            map.clear();
        }
        map.insert(key, result);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use std::sync::{Mutex, MutexGuard};

    /// The memo, its counters and the naive flag are process-global and
    /// `cargo test` runs tests on parallel threads: the tests that reset
    /// the memo or flip the flag hold this lock, or one test's
    /// `set_naive_mode(true)` / `poly_core_reset()` lands between the
    /// other's two projections.
    fn global_core() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A failed assertion in one test must not fail the other too.
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tri() -> Polyhedron {
        Polyhedron::new(
            Space::new(["i", "j"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, 0, 0]),
                Constraint::ineq(vec![-1, 0, 1, -1]),
                Constraint::ineq(vec![0, 1, 0, 0]),
                Constraint::ineq(vec![1, -1, 0, 0]),
            ],
        )
    }

    #[test]
    fn repeat_projections_hit_the_cache() {
        let _core = global_core();
        poly_core_reset();
        set_naive_mode(false);
        let t = tri();
        let a = t.eliminate_dims(&[1]).unwrap();
        let before = poly_core_stats();
        let b = t.eliminate_dims(&[1]).unwrap();
        let after = poly_core_stats();
        assert_eq!(a, b);
        assert!(
            after.cache_hits > before.cache_hits,
            "second identical projection should hit: {after:?}"
        );
    }

    #[test]
    fn naive_mode_bypasses_the_cache_and_matches() {
        let _core = global_core();
        poly_core_reset();
        let t = tri();
        set_naive_mode(false);
        let fast = t.eliminate_dims(&[0, 1]).unwrap();
        set_naive_mode(true);
        let stats_before = poly_core_stats();
        let naive = t.eliminate_dims(&[0, 1]).unwrap();
        let stats_after = poly_core_stats();
        set_naive_mode(false);
        assert_eq!(
            stats_before.cache_hits + stats_before.cache_misses,
            stats_after.cache_hits + stats_after.cache_misses,
            "naive mode must not touch the cache"
        );
        // Same set either way (possibly different row order/count).
        for n in [1i64, 3, 6] {
            assert_eq!(fast.contains(&[], &[n]), naive.contains(&[], &[n]), "N={n}");
        }
    }

    #[test]
    fn stats_hit_rate() {
        let s = PolyCoreStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PolyCoreStats::default().hit_rate(), 0.0);
    }
}
