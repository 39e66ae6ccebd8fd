//! Scratchpad planning for matrix multiplication, with movement
//! hoisting and a GPU-vs-Cell comparison.
//!
//! Matmul shows two framework features the paper's kernels only touch
//! in passing: Algorithm 1 firing on *all* arrays (every access is
//! rank-deficient), and §4.2 hoisting — the `C` buffer's movement code
//! leaves the `k`-tile loop because `k` is redundant for `C[i][j]`.
//!
//! ```sh
//! cargo run --release --example matmul_explorer
//! ```

use polymem::core::smem::dataspace::collect_refs;
use polymem::core::smem::{analyze_program, SmemConfig};
use polymem::core::tiling::placement_level;
use polymem::ir::ArrayStore;
use polymem::kernels::builtins::Builtin;
use polymem::kernels::{matmul, tunespace};
use polymem::machine::{execute_blocked, MachineConfig};

fn main() {
    let p = matmul::program();
    println!("== Kernel ==\n{p}");

    // Algorithm 1 decisions.
    let plan = analyze_program(
        &p,
        &SmemConfig {
            sample_params: vec![64],
            ..SmemConfig::default()
        },
    )
    .expect("analysis");
    println!("== Algorithm 1 (reuse) decisions ==");
    for (array, d) in &plan.decisions {
        println!(
            "  {array}: beneficial = {}, rank-deficient = {}",
            d.beneficial, d.order_of_magnitude
        );
    }

    // §4.2 movement placement over the (iT, jT, kT) tile loops.
    println!("\n== Movement placement (tile loops i, j, k) ==");
    for name in ["A", "B", "C"] {
        let ai = p.array_index(name).expect("array");
        let refs = collect_refs(&p, ai).expect("refs");
        let members: Vec<&_> = refs.iter().collect();
        let level = placement_level(&members, &[0, 1, 2]);
        let note = match (name, level) {
            ("C", 2) => " (hoisted past the k-tile loop: C is reused across k)",
            _ => "",
        };
        println!("  {name}: inside {level} tile loops{note}");
    }

    // Execute on a GPU-like and a Cell-like machine; the Cell *must*
    // stage everything (no global access during compute).
    let n = 12i64;
    let mut base = ArrayStore::for_program(&p, &[n]).expect("store");
    matmul::init_store(&mut base, 77);
    let mut expected = base.clone();
    matmul::reference(&mut expected, n);

    for (label, cfg) in [
        ("GeForce 8800 GTX", MachineConfig::geforce_8800_gtx()),
        (
            "Cell-like (mandatory local store)",
            MachineConfig::cell_like(),
        ),
    ] {
        let mut st = base.clone();
        let mapping = Builtin::named("matmul").unwrap().tiled(&[4, 4, 6], false);
        let kernel = tunespace::build("matmul", &mapping).expect("the mapping builds");
        let stats = execute_blocked(&kernel, &[n], &mut st, &cfg, true).expect("run");
        assert_eq!(st.data("C").unwrap(), expected.data("C").unwrap());
        println!(
            "\n== {label} ==\n  result == reference ✓; global reads {}, smem reads {}, moved in {} / out {}",
            stats.global_reads, stats.smem_reads, stats.moved_in, stats.moved_out
        );
        if stats.global_reads == stats.moved_in {
            println!("  all compute traffic served from the local store (Cell semantics)");
        }
    }
}
