//! A cost guard on the default `polymem run` path that host noise
//! cannot flip: it counts heap allocations inside one launch of the
//! four register-level kernels instead of timing anything. A frame
//! access interpreted per instance (map lookup, projected point,
//! `AffineMap::apply`, offsets re-evaluated, a key vector) costs 36–65
//! allocations per statement instance; lowered once per launch it
//! costs none.
//!
//! The same counter shows that a register frame the register file
//! rejects is never allocated: the size check runs on the evaluated
//! extents, before any storage of that size exists.
//!
//! The counter wraps the process's allocator, so this binary holds
//! exactly one `#[test]`: nothing else may allocate while it counts.

use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, ProgramBuilder};
use polymem_kernels::builtins::launch;
use polymem_machine::{
    desc, execute_blocked, execute_blocked_seeded, warm_plan, BlockedKernel, LaunchToggles,
    MachineConfig, MachineError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocations (fresh or growing) since the process started, and those
/// among them of exactly `WATCHED` bytes; statistics, publishing
/// nothing else.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static WATCHED: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if bytes == WATCHED.load(Ordering::Relaxed) {
        WATCHED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract they already satisfy; the counters are relaxed
// atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The four-kernel sum recorded once the launch checked its store once
/// (82 176 with store ids resolved per sub-block and extents copied per
/// merge; 86 463 with level-1 movement walking each set twice;
/// 2 740 091 with per-access frames).
const RECORDED: u64 = 81_306;

#[test]
fn a_launch_allocates_per_key_and_only_what_fits() {
    // CI runs this binary beside `exec_golden` under the interpreter
    // oracle, which walks (and allocates) per point by design: count
    // the engine alone. This is the process's only test thread.
    std::env::remove_var("POLYMEM_EXEC_CHECK");
    launches_allocate_per_key_not_per_instance();
    a_rejected_frame_is_never_allocated();
}

fn launches_allocate_per_key_not_per_instance() {
    let base = desc::lookup("gpu").expect("registered").config();
    let mut total = 0u64;
    for kernel in ["me", "jacobi2d", "matmul", "conv2d"] {
        let l = launch(kernel, 32, &base, &LaunchToggles::default(), false).expect("built-in");
        let (plan, _) = warm_plan(&l.kernel, &l.params, &l.config, None, None)
            .unwrap_or_else(|e| panic!("{kernel}: {e}"))
            .expect("the mapping stages");
        assert!(plan.hier.is_some(), "{kernel}: no register level");
        let mut store = l.seeded_store(42).unwrap();
        let before = ALLOCS.load(Ordering::Relaxed);
        let (stats, _) = execute_blocked_seeded(
            &l.kernel,
            &l.params,
            &mut store,
            &l.config,
            false,
            None,
            Some(&plan),
        )
        .unwrap_or_else(|e| panic!("{kernel}: {e}"));
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let per_instance = allocs as f64 / stats.instances as f64;
        println!(
            "{kernel}: {allocs} allocations, {} instances ({per_instance:.1} each), \
             {} frame groups",
            stats.instances, stats.hier_groups
        );
        assert_eq!(stats.fallback.total(), 0, "{kernel}: interpreter fallback");
        if matches!(kernel, "me" | "matmul") {
            assert!(
                per_instance <= 3.0,
                "{kernel}: {per_instance:.1} allocations per statement instance"
            );
        }
        total += allocs;
    }
    assert!(
        total <= RECORDED + RECORDED / 20,
        "{total} allocations for four launches, {RECORDED} recorded (+5 %): \
         is a frame access interpreted per instance again?"
    );
}

/// `Out[i][j] = T[i][j] + T[i][j]` for `j` in `[0, K·i]`, one row per
/// inner process: the T frame is one word at key `i = 0` and `K + 1`
/// words — far past the register file — at key `i = 1`. Both engines
/// must raise the typed overflow there, asking for exactly that, with
/// no allocation of that size ever made (the parent allocated the
/// frame first and compared after).
fn a_rejected_frame_is_never_allocated() {
    const K: i64 = 100_000;
    let mut b = ProgramBuilder::new("hostile", ["N"]);
    b.array("T", &[v("N"), v("N") * K]);
    b.array("Out", &[v("N"), v("N") * K]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("i") * K),
        ])
        .write("Out", &[v("i"), v("j")])
        .read("T", &[v("i"), v("j")])
        .read("T", &[v("i"), v("j")])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    let program = b.build().unwrap();
    let kernel = BlockedKernel {
        program: program.clone(),
        round_dims: vec![],
        block_dims: vec![],
        seq_dims: vec![],
        thread_dims: vec!["i".into()],
        use_scratchpad: true,
    };
    let mut cfg = MachineConfig::geforce_8800_gtx();
    cfg.hierarchy = true;
    cfg.regs_per_inner = 64;
    cfg.smem_bytes = 0; // no scratchpad limit: the whole rows stage
    let rejected = (K + 1) as usize * std::mem::size_of::<i64>();
    for compiled in [false, true] {
        cfg.compiled_exec = compiled;
        let mut store = ArrayStore::for_program(&program, &[2]).unwrap();
        WATCHED.store(rejected, Ordering::Relaxed);
        let before = WATCHED_ALLOCS.load(Ordering::Relaxed);
        let outcome = execute_blocked(&kernel, &[2], &mut store, &cfg, false);
        let of_that_size = WATCHED_ALLOCS.load(Ordering::Relaxed) - before;
        WATCHED.store(usize::MAX, Ordering::Relaxed);
        match outcome {
            Err(MachineError::RegisterOverflow {
                requested,
                available: 64,
            }) => assert_eq!(requested, K as u64 + 1, "compiled={compiled}"),
            other => panic!("expected RegisterOverflow (compiled={compiled}), got {other:?}"),
        }
        assert_eq!(
            of_that_size, 0,
            "compiled={compiled}: the rejected {rejected}-byte frame was allocated"
        );
    }
}
