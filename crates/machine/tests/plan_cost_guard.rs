//! A cost guard on residency planning that host noise cannot flip: it
//! counts the polyhedral core's feasibility tests — the unit of work
//! behind `difference`, where a set decomposed twice shows up —
//! instead of timing anything.
//!
//! The counters are process globals, so this binary holds exactly one
//! `#[test]`: nothing else may plan in this process.

use polymem_kernels::builtins::launch;
use polymem_machine::{desc, warm_plan, LaunchToggles};
use polymem_poly::{poly_core_reset, poly_core_stats};

/// `feasibility_tests` of the four plans below when every union is
/// decomposed once. Re-scanning residency's already-disjoint delta /
/// flush pieces through `scan_union`, as the parent of this guard
/// did, costs 24022.
const RECORDED: u64 = 4774;

/// One fresh (cold-core) plan of the jacobi2d and conv2d
/// sequential-sub-tile launches with residency, on gpu and cell.
fn plan_cost() -> u64 {
    poly_core_reset();
    let toggles = LaunchToggles {
        double_buffer: true,
        hierarchy: false,
        ..LaunchToggles::default()
    };
    for kernel in ["jacobi2d", "conv2d"] {
        for machine in ["gpu", "cell"] {
            let base = desc::lookup(machine).expect("registered").config();
            let l = launch(kernel, 16, &base, &toggles, false).expect("built-in");
            let (plan, _) = warm_plan(&l.kernel, &l.params, &l.config, None, None)
                .unwrap_or_else(|e| panic!("{kernel}/{machine}: {e}"))
                .expect("the mapping stages");
            assert!(
                plan.residency.as_ref().is_some_and(|r| !r.is_empty()),
                "{kernel}/{machine}: no group retains, nothing is guarded"
            );
        }
    }
    poly_core_stats().feasibility_tests
}

#[test]
fn residency_planning_decomposes_each_union_once() {
    let first = plan_cost();
    assert!(
        first <= RECORDED + RECORDED / 20,
        "{first} feasibility tests for four residency plans, {RECORDED} recorded (+5 %): \
         is a set decomposed twice again?"
    );
    assert_eq!(plan_cost(), first, "an identical cold plan costs the same");
}
