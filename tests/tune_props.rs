//! Property tests for the autotuner's analytic cost estimator and
//! pruning behaviour.
//!
//! The gates mirror the claims the tuner's design rests on: the
//! estimator's predicted ranking is good enough that the top-K
//! frontier contains the true simulated optimum, and its traffic term
//! is monotone — a mapping with strictly less reuse never gets charged
//! fewer global bytes.

use polymem::core::smem::tune::{estimate, tune_key, CostConstants, CostEstimate, MappingDesc};
use polymem::core::smem::{DmaChannels, TransferDescriptor, TransferList};
use polymem::core::tiling::find_permutable_band;
use polymem::ir::{init_random_store, random_program, ArrayStore};
use polymem::kernels::tunespace;
use polymem::machine::{
    config_for, cost_constants, execute_blocked, generic_candidates, structure_of, tile_kernel,
    tune, warm_plan, DmaEngine, MachineConfig, TuneCandidate, TuneOptions,
};
use proptest::prelude::*;

/// Price one mapping of a built-in kernel with the analytic estimator
/// (no simulation).
fn price(name: &str, desc: &MappingDesc, base: &MachineConfig, size: i64) -> CostEstimate {
    let kernel = tunespace::build(name, desc).expect("desc rebuilds");
    let (_, params, _) = tunespace::workload(name, size).expect("workload");
    let cfg = config_for(desc, base);
    let st = structure_of(&kernel, &params, &cfg).expect("structure");
    let sp = if kernel.use_scratchpad {
        warm_plan(&kernel, &params, &cfg, None, None)
            .expect("plan")
            .map(|(sp, _)| sp)
    } else {
        None
    };
    estimate(
        &kernel.program,
        sp.as_deref(),
        &params,
        &st,
        &cost_constants(&cfg),
    )
    .expect("estimate")
}

fn square_desc(ti: i64, tj: i64, seq_last: bool, residency: bool) -> MappingDesc {
    let (block_dims, seq_dims) = if seq_last {
        (vec!["iT".into()], vec!["jT".into()])
    } else {
        (vec!["iT".into(), "jT".into()], vec![])
    };
    MappingDesc {
        scheme: "tile".into(),
        tiles: vec![("i".into(), ti), ("j".into(), tj)],
        round_dims: vec![],
        block_dims,
        seq_dims,
        thread_dims: vec!["i".into()],
        use_scratchpad: true,
        double_buffer: false,
        hierarchy: false,
        residency,
    }
}

/// Shrinking the tile shrinks the window reuse each staged tile
/// amortizes (the halo is re-loaded per tile), so the estimator must
/// never predict *fewer* global bytes for a smaller tile.
#[test]
fn estimator_traffic_is_monotone_in_tile_reuse() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["conv2d", "me"] {
        let mut prev: Option<(i64, u64)> = None;
        for t in [2i64, 4, 8] {
            let e = price(name, &square_desc(t, t, false, true), &base, 16);
            if let Some((pt, pb)) = prev {
                assert!(
                    pb >= e.global_bytes,
                    "{name}: tile {pt} predicted {pb} B < tile {t}'s {} B — \
                     smaller tiles must never be charged less traffic",
                    e.global_bytes
                );
            }
            prev = Some((t, e.global_bytes));
        }
    }
}

/// Disabling residency re-stages each group's full window at every
/// sequential sub-tile instead of transferring the delta: strictly
/// less reuse, so never fewer predicted global bytes — and with a
/// genuine overlap, strictly more.
#[test]
fn estimator_charges_no_residency_at_least_as_much() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["conv2d", "me"] {
        let with = price(name, &square_desc(4, 4, true, true), &base, 16);
        let without = price(name, &square_desc(4, 4, true, false), &base, 16);
        assert!(
            without.global_bytes >= with.global_bytes,
            "{name}: no-residency predicted {} B < residency's {} B",
            without.global_bytes,
            with.global_bytes
        );
    }
}

/// An unstaged mapping (every access to global memory) must never be
/// charged fewer global accesses than the staged one.
#[test]
fn estimator_charges_unstaged_at_least_as_many_global_accesses() {
    let base = MachineConfig::geforce_8800_gtx();
    let staged = square_desc(4, 4, false, true);
    let unstaged = MappingDesc {
        use_scratchpad: false,
        ..staged.clone()
    };
    for name in ["conv2d", "me", "jacobi2d"] {
        let s = price(name, &staged, &base, 16);
        let u = price(name, &unstaged, &base, 16);
        assert!(
            u.global_accesses >= s.global_accesses,
            "{name}: unstaged {} global accesses < staged {}",
            u.global_accesses,
            s.global_accesses
        );
        assert!(u.predicted_cycles >= s.predicted_cycles, "{name}");
    }
}

/// On a small space simulated exhaustively, the pruned top-K frontier
/// must contain the true optimum (same winning cycles), while
/// simulating at least 5× fewer candidates.
#[test]
fn pruned_frontier_contains_the_simulated_optimum() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["matmul", "me"] {
        let cands = tunespace::candidates(name, &base, true).expect("space");
        let (program, params, _) = tunespace::workload(name, 8).expect("workload");
        let init = |st: &mut ArrayStore| tunespace::init_store(name, st, 42);
        let exhaustive = tune(
            &program,
            &params,
            &init,
            &cands,
            &base,
            &TuneOptions {
                exhaustive: true,
                space_label: format!("props:{name}:ex"),
                ..TuneOptions::default()
            },
        )
        .expect("exhaustive tune");
        let pruned = tune(
            &program,
            &params,
            &init,
            &cands,
            &base,
            &TuneOptions {
                top_k: 2,
                space_label: format!("props:{name}:pruned"),
                ..TuneOptions::default()
            },
        )
        .expect("pruned tune");
        assert_eq!(
            pruned.winner_cycles, exhaustive.winner_cycles,
            "{name}: pruned winner ({} cycles) missed the true optimum ({} cycles)",
            pruned.winner_cycles, exhaustive.winner_cycles
        );
        assert!(
            exhaustive.simulated >= 5 * pruned.simulated,
            "{name}: pruning only cut {} -> {} simulations",
            exhaustive.simulated,
            pruned.simulated
        );
        // Every simulated candidate was bit-exact.
        for r in &pruned.rows {
            assert!(
                r.simulated.is_none() || r.exact,
                "{name}: simulated candidate {} diverged",
                r.desc.label()
            );
        }
    }
}

/// Two machines that differ only in pricing share every plan key, but
/// not a tune winner: tuning B into the store A was tuned into must
/// search again and find what a search on B alone finds.
#[test]
fn tune_artifacts_are_keyed_by_the_cost_model() {
    let a = MachineConfig::geforce_8800_gtx();
    let mut b = a.clone();
    b.global_latency *= 10.0;
    b.dma_setup_cycles *= 100.0;
    let root = std::env::temp_dir().join(format!("polymem_tune_pricing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |machine: &MachineConfig, store: &str| {
        let mut base = machine.clone();
        base.artifact_dir = Some(root.join(store).to_string_lossy().into_owned());
        let cands = tunespace::candidates("matmul", &base, true).expect("space");
        let (program, params, _) = tunespace::workload("matmul", 8).expect("workload");
        let init = |st: &mut ArrayStore| tunespace::init_store("matmul", st, 42);
        let opts = TuneOptions {
            space_label: "props:pricing".into(),
            ..TuneOptions::default()
        };
        tune(&program, &params, &init, &cands, &base, &opts).expect("tune")
    };
    let on_a = run(&a, "shared");
    let on_b = run(&b, "shared");
    let b_alone = run(&b, "fresh");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(on_a.plan_source, "search");
    assert_eq!(on_b.plan_source, "search", "B was answered with A's winner");
    assert_eq!(on_b.winner_cycles, b_alone.winner_cycles);
    assert_ne!(on_b.winner_cycles, on_a.winner_cycles);
    assert_ne!(on_b.key, on_a.key);
}

/// Every constant the estimator and the executor price with is part of
/// the tune key.
#[test]
fn every_priced_constant_moves_the_tune_key() {
    let (program, params, _) = tunespace::workload("matmul", 8).expect("workload");
    let base = cost_constants(&MachineConfig::spatial_mesh());
    let key = |cc: &CostConstants| tune_key(&program, &params, &[], cc, "space", []);
    type Mutation = (&'static str, fn(&mut CostConstants));
    let mutations: [Mutation; 17] = [
        ("cycles_per_op", |c| c.cycles_per_op += 1.0),
        ("smem_latency", |c| c.smem_latency += 1.0),
        ("global_latency", |c| c.global_latency += 1.0),
        ("global_overlap", |c| c.global_overlap += 1.0),
        ("word_bytes", |c| c.word_bytes += 1),
        ("smem_bytes", |c| c.smem_bytes += 1),
        ("device_sync_base", |c| c.device_sync_base += 1.0),
        ("device_sync_per_block", |c| c.device_sync_per_block += 1.0),
        ("dma_channels", |c| c.dma_channels += 1),
        ("dma_setup_cycles", |c| c.dma_setup_cycles += 1.0),
        ("dma_bytes_per_cycle", |c| c.dma_bytes_per_cycle += 1.0),
        ("n_outer", |c| c.n_outer += 1),
        ("max_blocks_per_outer", |c| c.max_blocks_per_outer += 1),
        ("count_budget", |c| c.count_budget += 1),
        ("mesh_rows", |c| c.mesh_rows += 1),
        ("mesh_cols", |c| c.mesh_cols += 1),
        ("hop_cycles", |c| c.hop_cycles += 1.0),
    ];
    for (label, mutate) in mutations {
        let mut cc = base.clone();
        mutate(&mut cc);
        assert_ne!(key(&cc), key(&base), "{label} does not move the tune key");
    }
    assert_eq!(key(&base.clone()), key(&base));
}

/// `polymem tune --random 2 --seed 3` used to exit with "no candidate
/// simulated successfully": generated program 3 has a flow dependence
/// of distance (1, 1), so its band is all-time and the outer loop is a
/// space loop only by the pipeline rule. Mapping it onto the blocks of
/// one round reads values a sibling block has not merged yet.
#[test]
fn pipelined_band_tunes_to_a_bit_exact_winner() {
    let base = MachineConfig::geforce_8800_gtx();
    let program = random_program(3);
    let params = vec![16];
    let band = find_permutable_band(&program).unwrap();
    assert!(band.pipelined && band.parallel_loops().is_empty());
    let p = program.clone();
    let init = move |st: &mut ArrayStore| init_random_store(&p, st, 42);
    let search = |cands: &[TuneCandidate], label: &str| {
        let opts = TuneOptions {
            exhaustive: true,
            space_label: format!("props:random3:{label}"),
            ..TuneOptions::default()
        };
        tune(&program, &params, &init, cands, &base, &opts)
    };

    // The derived space never spreads the pipelined loop over blocks,
    // and every row it simulates is bit-exact.
    let cands = generic_candidates(&program, &params, &base, &[2, 4, 8, 16]).unwrap();
    assert!(cands
        .iter()
        .all(|c| !c.desc.block_dims.contains(&"iT".into())));
    let out = search(&cands, "derived").expect("a bit-exact winner");
    assert!(out.rows.iter().all(|r| r.simulated.is_none() || r.exact));
    let honest = out.winner.clone();

    // The mapping the parent derived: `i` tiled across blocks. It
    // simulates cheaper than the honest winner and wrong, so it may
    // never win — next to an exact row, or alone.
    let racy_desc = MappingDesc {
        tiles: vec![("i".into(), 2)],
        round_dims: vec![],
        block_dims: vec!["iT".into()],
        thread_dims: vec!["i".into()],
        ..honest.clone()
    };
    let racy = TuneCandidate {
        kernel: tile_kernel(&program, &racy_desc).unwrap().unwrap(),
        desc: racy_desc.clone(),
        preset: false,
    };
    let mut both = vec![racy.clone()];
    both.extend(cands.iter().filter(|c| c.desc == honest).cloned());
    let out = search(&both, "both").expect("the exact row wins");
    assert_eq!(out.winner, honest);
    let row = out.rows.iter().find(|r| r.desc == racy_desc).unwrap();
    assert!(!row.exact, "the racy mapping diverges from the reference");
    assert!(row.simulated.unwrap() < out.winner_cycles);
    let err = search(&[racy], "racy").expect_err("an inexact row cannot win");
    assert!(
        err.to_string()
            .contains("1 simulated, 1 not bit-exact, 0 failed"),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// "Predicted == simulated whenever counts agree", for the DMA
    /// term: over arbitrary transfer lists, issue times, channel
    /// counts and setup / bandwidth / route values, the completion
    /// cycle the estimator computes with [`DmaChannels`] is the `done`
    /// of the tag the simulator's [`DmaEngine`] hands back.
    #[test]
    fn estimator_dma_completion_equals_the_engine(
        issues in prop::collection::vec(
            (0u64..500, prop::collection::vec((1i64..200, 1i64..6), 0..6)),
            1..6,
        ),
        channels in 0u64..9,
        setup in 0.0f64..400.0,
        bytes_per_cycle in 0.25f64..32.0,
        route in 0u64..2000,
        word_bytes in 1u64..9,
    ) {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.dma_channels = channels;
        cfg.dma_setup_cycles = setup;
        cfg.dma_bytes_per_cycle = bytes_per_cycle;
        let mut engine = DmaEngine::with_route(&cfg, route);
        let mut model = DmaChannels::new(channels, setup, bytes_per_cycle, route);
        let mut now = 0u64;
        for (gap, rows) in &issues {
            now += gap;
            let descriptors: Vec<TransferDescriptor> = rows
                .iter()
                .map(|&(elem_count, n_rows)| TransferDescriptor {
                    global_base: 0,
                    local_base: 0,
                    elem_count,
                    stride: 1,
                    n_rows,
                    global_row_stride: elem_count,
                    local_stride: 1,
                    local_row_stride: elem_count,
                })
                .collect();
            let elements = descriptors.iter().map(|d| d.elements()).sum();
            let list = TransferList { descriptors, elements };
            let predicted = model.issue_list(&list, word_bytes, now);
            let simulated = engine.issue_list(&list, word_bytes, now, now).done;
            prop_assert_eq!(predicted, simulated);
        }
        prop_assert_eq!(model.idle_at(), engine.drain(0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same property for the compute and round terms
    /// (`CostConstants::{compute_cycles, round_cycles}`): an unstaged
    /// flat matmul mapping has no DMA and uniform blocks, so the
    /// estimator's polyhedral counts are the executor's measured ones —
    /// and then, over arbitrary latencies, barrier costs and occupancy
    /// limits, the predicted launch cycles are the simulated ones
    /// exactly. (No sequential dim: the executor runs an unstaged block
    /// as one sub-tile and rounds its cycles once, the estimator once
    /// per sub-tile — a rounding-granularity residual, ROADMAP item 2.)
    #[test]
    fn estimator_compute_and_round_cycles_equal_the_executor(
        tiles in (0usize..3, 0usize..3, 0usize..3),
        latencies in (0.5f64..8.0, 1.0f64..400.0, 0.5f64..16.0),
        sync in (0.0f64..5000.0, 0.0f64..50.0),
        occupancy in (1u64..9, 1u64..5),
    ) {
        let menu = [2i64, 4, 8];
        let mut cfg = MachineConfig::geforce_8800_gtx();
        (cfg.cycles_per_op, cfg.global_latency, cfg.global_overlap) = latencies;
        (cfg.device_sync_base, cfg.device_sync_per_block) = sync;
        (cfg.n_outer, cfg.max_blocks_per_outer) = occupancy;
        let desc = MappingDesc {
            scheme: "tile".into(),
            tiles: vec![
                ("i".into(), menu[tiles.0]),
                ("j".into(), menu[tiles.1]),
                ("k".into(), menu[tiles.2]),
            ],
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: false,
            double_buffer: false,
            hierarchy: false,
            residency: false,
        };
        let kernel = tunespace::build("matmul", &desc).expect("desc rebuilds");
        let (program, params, _) = tunespace::workload("matmul", 8).expect("workload");
        let st = structure_of(&kernel, &params, &cfg).expect("structure");
        let est = estimate(&kernel.program, None, &params, &st, &cost_constants(&cfg))
            .expect("estimate");

        let mut store = ArrayStore::for_program(&program, &params).expect("store");
        tunespace::init_store("matmul", &mut store, 42);
        let stats = execute_blocked(&kernel, &params, &mut store, &cfg, false).expect("runs");

        // Counts agree ...
        prop_assert_eq!(est.compute_ops, stats.instances);
        prop_assert_eq!(
            est.global_accesses * st.blocks,
            stats.global_reads + stats.global_writes
        );
        // ... so cycles do.
        prop_assert_eq!(est.predicted_cycles, stats.modeled_cycles);
    }
}
