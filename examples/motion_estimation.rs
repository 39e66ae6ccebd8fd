//! MPEG-4 Motion Estimation end-to-end (the paper's headline kernel).
//!
//! Walks the full pipeline on the Fig. 2 kernel: dependence analysis
//! and band classification, the §4.3 tile-size search on the simulated
//! GeForce 8800 GTX, functional validation of the staged execution
//! against a native reference, and a Fig. 4-style timing comparison.
//!
//! ```sh
//! cargo run --release --example motion_estimation
//! ```

use polymem::core::tiling::{find_permutable_band, tilable_prefix};
use polymem::ir::{exec_program, ArrayStore};
use polymem::kernels::builtins::Builtin;
use polymem::kernels::{me, tunespace};
use polymem::machine::{execute_blocked, MachineConfig};

fn main() {
    let p = me::program();
    println!("== Kernel (paper Fig. 2) ==\n{p}");

    // §4.1: parallelism detection.
    let band = find_permutable_band(&p).expect("band analysis");
    println!(
        "Permutable band: loops {:?}, kinds {:?}; lex-forward prefix: {} loops",
        band.loops,
        band.kinds,
        tilable_prefix(&p).expect("tilable analysis"),
    );
    println!(
        "Space loops (across thread blocks/threads): {:?}",
        band.space_loops()
    );
    // Size-aware legality: the paper's four-loop tiling is valid
    // because its (k, l) tiles cover the whole search window.
    let spec =
        polymem::core::tiling::TileSpec::new(&[("i", 32), ("j", 16), ("k", 16), ("l", 16)], "T");
    let verdict = polymem::core::tiling::check_tiling(&p, &spec, Some(&[1024, 1024, 16]))
        .expect("legality analysis");
    println!("Tiling (32,16,16,16) legality: {:?}\n", verdict);

    // §4.3: tile-size search on the paper's machine.
    let gpu = MachineConfig::geforce_8800_gtx();
    let size = me::MeSize::square(1 << 22, 16);
    let found = me::search_tiles(&size, &gpu, 256);
    println!(
        "Tile-size search ({} positions, 256 threads, 16 KB scratchpad):",
        size.positions()
    );
    println!(
        "  optimal (ti, tj, tk, tl) = {:?}  [paper: (32, 16, 16, 16)], cost {:.1}\n",
        found.sizes, found.cost
    );

    // Functional validation on a small instance.
    let small = me::MeSize {
        ni: 12,
        nj: 10,
        ws: 4,
    };
    let mut st = ArrayStore::for_program(&p, &me::params(&small)).expect("store");
    me::init_store(&mut st, 2024);
    let mut reference = st.clone();
    exec_program(&p, &me::params(&small), &mut reference).expect("reference run");
    // The built-in mapping, re-tiled: 4 × 5 position tiles per block.
    let mapping = Builtin::named("me").unwrap().tiled(&[4, 5], false);
    let kernel = tunespace::build("me", &mapping).expect("the mapping builds");
    let stats =
        execute_blocked(&kernel, &me::params(&small), &mut st, &gpu, true).expect("simulated run");
    assert_eq!(st.data("Sad").unwrap(), reference.data("Sad").unwrap());
    println!("Functional validation: staged result == reference  ✓");
    println!(
        "  blocks {}, instances {}, moved in {} / out {}, smem peak {} words",
        stats.blocks, stats.instances, stats.moved_in, stats.moved_out, stats.max_smem_words
    );
    println!(
        "  global traffic with staging: {} reads (DRAM-only would issue {})\n",
        stats.global_reads,
        stats.instances * 2
    );

    // Fig. 4-style comparison at a large size.
    let big = me::MeSize::square(16 << 20, 16);
    let cpu = MachineConfig::host_cpu();
    let t_dram = me::profile(&big, (32, 16), 32, 256, false, &gpu)
        .estimate(&gpu)
        .expect("fits")
        .total_ms;
    let t_smem = me::profile(&big, (32, 16), 32, 256, true, &gpu)
        .estimate(&gpu)
        .expect("fits")
        .total_ms;
    let t_cpu = me::profile(&big, (32, 16), 32, 256, false, &gpu)
        .estimate_cpu(&cpu)
        .total_ms;
    println!("== 16M positions, simulated times (paper Fig. 4 point) ==");
    println!("  GPU w/o scratchpad : {t_dram:10.1} ms");
    println!(
        "  GPU with scratchpad: {t_smem:10.1} ms   ({:.1}x)",
        t_dram / t_smem
    );
    println!(
        "  CPU                : {t_cpu:10.1} ms   ({:.1}x vs staged GPU)",
        t_cpu / t_smem
    );
}
