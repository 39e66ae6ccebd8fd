//! Golden executor counters, recorded on the commit *before* the two
//! block drivers (one synchronous, one software-pipelined) were
//! collapsed into one sub-tile loop.
//! Every deterministic [`ExecStats`] field — modeled cycles, movement
//! and residency counters, the full [`DmaStats`](polymem_machine::DmaStats)
//! including per-channel busy cycles and stalls — plus an output
//! checksum is pinned for 5 kernels × {gpu, cell, spatial} ×
//! {synchronous, double-buffered} × {residency on, off} in their
//! sequential-sub-tile mappings, the flat (single sub-block) mappings
//! with the register level on, and the sequential mappings with the
//! register level on. Two directed programs ride the same matrix for
//! the paths no built-in kernel reaches: `flush` (overlapping in-place
//! updates, so residency flush deltas engage) and `carry` (a
//! seq-carried flow dependence that pins one group synchronous under
//! double buffering). A schedule refactor must leave
//! `exec_golden.txt` untouched.

use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::expr::v;
use polymem_ir::{exec_program, ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{execute_blocked, BlockedKernel, ExecStats, MachineConfig};

const GOLDEN: &str = include_str!("exec_golden.txt");
const KERNELS: [&str; 5] = ["me", "jacobi", "jacobi2d", "matmul", "conv2d"];
const DIRECTED: [&str; 2] = ["flush", "carry"];

struct Case {
    kernel: BlockedKernel,
    params: Vec<i64>,
    base: ArrayStore,
    reference: ArrayStore,
    check: &'static str,
}

/// `seq` picks the sequential-sub-tile mapping (the pipeline's target
/// shape); otherwise the flat one-sub-block-per-block mapping.
fn case(name: &str, seq: bool) -> Case {
    let finish = |kernel: BlockedKernel,
                  params: Vec<i64>,
                  init: &dyn Fn(&mut ArrayStore),
                  reference: &dyn Fn(&mut ArrayStore),
                  check: &'static str| {
        let mut base = ArrayStore::for_program(&kernel.program, &params).unwrap();
        init(&mut base);
        let mut refst = base.clone();
        reference(&mut refst);
        Case {
            kernel,
            params,
            base,
            reference: refst,
            check,
        }
    };
    match name {
        "me" => {
            let size = me::MeSize {
                ni: 8,
                nj: 8,
                ws: 4,
            };
            let k = if seq {
                me::blocked_seq_kernel(4, 2, true)
            } else {
                me::blocked_kernel(4, 4, true)
            };
            finish(
                k,
                me::params(&size),
                &|s| me::init_store(s, 7),
                &|s| me::reference(s, &size),
                "Sad",
            )
        }
        "jacobi" => {
            let size = jacobi::JacobiSize { n: 16, t: 2 };
            let mut k = jacobi::stepwise_kernel(4, true);
            if seq {
                // Space tiles run one after another inside a single
                // block per time step (all reads are of row t−1).
                k.block_dims = vec![];
                k.seq_dims = vec!["iT".into()];
            }
            finish(
                k,
                jacobi::params(&size),
                &|s| jacobi::init_store(s, 8),
                &|s| jacobi::reference(s, &size),
                "A",
            )
        }
        "jacobi2d" => {
            let (t, n) = (2, 8);
            let k = if seq {
                jacobi2d::stepwise_seq_kernel(4, 2, true)
            } else {
                jacobi2d::stepwise_kernel(4, 4, true)
            };
            finish(
                k,
                jacobi2d::params(t, n),
                &|s| jacobi2d::init_store(s, 9),
                &|s| jacobi2d::reference(s, t, n),
                "A",
            )
        }
        "matmul" => {
            let n = 8;
            let k = if seq {
                matmul::blocked_kernel_hoisted(4, 4, 2, true)
            } else {
                matmul::blocked_kernel(4, 4, 4, true)
            };
            finish(
                k,
                vec![n],
                &|s| matmul::init_store(s, 10),
                &|s| matmul::reference(s, n),
                "C",
            )
        }
        _ => {
            let size = conv2d::ConvSize { n: 8, k: 3 };
            let k = if seq {
                conv2d::blocked_seq_kernel(4, 2, true)
            } else {
                conv2d::blocked_kernel(4, 4, true)
            };
            finish(
                k,
                conv2d::params(&size),
                &|s| conv2d::init_store(s, 11),
                &|s| conv2d::reference(s, &size),
                "Out",
            )
        }
    }
}

/// A hand-built program in its sequential mapping, checked against
/// the reference interpreter.
fn directed(
    p: &Program,
    tiles: &[(&str, i64)],
    block_dims: &[&str],
    seq_dim: &str,
    params: Vec<i64>,
    init: &dyn Fn(&mut ArrayStore),
    check: &'static str,
) -> Case {
    let kernel = BlockedKernel {
        program: tile_program(p, &TileSpec::new(tiles, "T")).unwrap(),
        round_dims: vec![],
        block_dims: block_dims.iter().map(|d| d.to_string()).collect(),
        seq_dims: vec![seq_dim.into()],
        thread_dims: vec![],
        use_scratchpad: true,
    };
    let mut base = ArrayStore::for_program(p, &params).unwrap();
    init(&mut base);
    let mut reference = base.clone();
    exec_program(p, &params, &mut reference).unwrap();
    Case {
        kernel,
        params,
        base,
        reference,
        check,
    }
}

/// Tile t writes A columns [4t, 4t+5] and tile t+1 rewrites
/// [4t+4, 4t+5]: a legal flush delta skips those at every interior
/// boundary (`flushed_delta_elems > 0` with residency on).
fn flush_case() -> Case {
    let mut b = ProgramBuilder::new("p", ["M", "N"]);
    b.array("A", &[v("M"), v("N") + 2]);
    b.array("B", &[v("M"), v("N")]);
    b.array("C", &[v("M"), v("N")]);
    for (name, shift, other) in [("S1", 0, "B"), ("S2", 2, "C")] {
        b.stmt(name)
            .loops(&[
                ("j", LinExpr::c(0), v("M") - 1),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("A", &[v("j"), v("i") + shift])
            .read("A", &[v("j"), v("i") + shift])
            .read(other, &[v("j"), v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
    }
    let p = b.build().unwrap();
    directed(
        &p,
        &[("j", 4), ("i", 4)],
        &["jT"],
        "iT",
        vec![8, 12],
        &|st| {
            st.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
            st.fill_with("B", |ix| ix[0] * 7 + ix[1] * 3 + 1).unwrap();
            st.fill_with("C", |ix| ix[0] * 5 + ix[1] * 11 + 2).unwrap();
        },
        "A",
    )
}

/// `A[s][i] = A[s-1][i] + 1` carries a flow dependence on the seq dim
/// `s`, so A's group stages synchronously under double buffering
/// (`sync_groups > 0`) while the independent `Out`/`B2` statement
/// still prefetches.
fn carry_case() -> Case {
    let mut b = ProgramBuilder::new("d", ["N"]);
    b.array("A", &[LinExpr::c(4), v("N")]);
    b.array("B2", &[LinExpr::c(4), v("N")]);
    b.array("Out", &[LinExpr::c(4), v("N")]);
    let loops = [
        ("s", LinExpr::c(1), LinExpr::c(3)),
        ("i", LinExpr::c(0), v("N") - 1),
    ];
    b.stmt("S1")
        .loops(&loops)
        .write("A", &[v("s"), v("i")])
        .read("A", &[v("s") - 1, v("i")])
        .body(Expr::add(Expr::Read(0), Expr::Const(1)))
        .done();
    b.stmt("S2")
        .loops(&loops)
        .write("Out", &[v("s"), v("i")])
        .read("B2", &[v("s"), v("i")])
        .body(Expr::mul(Expr::Read(0), Expr::Const(2)))
        .done();
    let p = b.build().unwrap();
    directed(
        &p,
        &[("i", 4)],
        &["iT"],
        "s",
        vec![8],
        &|st| {
            st.fill_with("A", |ix| ix[1]).unwrap();
            st.fill_with("B2", |ix| ix[0] * 10 + ix[1]).unwrap();
        },
        "A",
    )
}

fn machine(name: &str) -> MachineConfig {
    match name {
        "gpu" => MachineConfig::geforce_8800_gtx(),
        "cell" => MachineConfig::cell_like(),
        _ => MachineConfig::spatial_mesh(),
    }
}

/// FNV-1a over the output array's little-endian words.
fn checksum(data: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(s: &ExecStats, sum: u64) -> String {
    format!(
        "blocks={} inst={} gr={} gw={} sr={} sw={} in={} out={} rounds={} words={} hits={} \
         misses={} block_cy={} modeled_cy={} overlap={} sync={} saved={} regb={} hier={} \
         retained={} delta={} flushed={} resgroups={} dma=[desc={} elems={} bytes={} busy={:?} \
         stalls={} hist={:?}] sum={:016x}",
        s.blocks,
        s.instances,
        s.global_reads,
        s.global_writes,
        s.smem_reads,
        s.smem_writes,
        s.moved_in,
        s.moved_out,
        s.rounds,
        s.max_smem_words,
        s.plan_cache_hits,
        s.plan_cache_misses,
        s.block_cycles,
        s.modeled_cycles,
        s.overlap_groups,
        s.sync_groups,
        s.smem_loads_saved,
        s.reg_bytes_moved,
        s.hier_groups,
        s.retained_elems,
        s.delta_elems,
        s.flushed_delta_elems,
        s.residency_groups,
        s.dma.descriptors,
        s.dma.elements,
        s.dma.bytes,
        s.dma.channel_busy_cycles,
        s.dma.stall_cycles,
        s.dma.bytes_hist,
        sum,
    )
}

/// Run one configuration sequentially and on parallel workers, demand
/// the two agree with each other and with the reference, and render
/// the golden line.
fn line(label: &str, c: &Case, cfg: &MachineConfig) -> String {
    let run = |parallel: bool| {
        let mut st = c.base.clone();
        let stats = execute_blocked(&c.kernel, &c.params, &mut st, cfg, parallel)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        (st, stats)
    };
    let (st, stats) = run(false);
    let (pst, pstats) = run(true);
    assert_eq!(stats, pstats, "{label}: sequential vs parallel stats");
    assert_eq!(
        st.data(c.check).unwrap(),
        pst.data(c.check).unwrap(),
        "{label}: sequential vs parallel output"
    );
    assert_eq!(
        st.data(c.check).unwrap(),
        c.reference.data(c.check).unwrap(),
        "{label}: output vs reference"
    );
    format!(
        "{label}: {}",
        fingerprint(&stats, checksum(st.data(c.check).unwrap()))
    )
}

fn actual() -> String {
    let mut out = Vec::new();
    for k in KERNELS.into_iter().chain(DIRECTED) {
        let seq = match k {
            "flush" => flush_case(),
            "carry" => carry_case(),
            _ => case(k, true),
        };
        for m in ["gpu", "cell", "spatial"] {
            for db in [false, true] {
                for res in [true, false] {
                    let mut cfg = machine(m);
                    cfg.double_buffer = db;
                    cfg.residency = res;
                    let label = format!("{k}/{m}/seq db={} res={}", db as u8, res as u8);
                    out.push(line(&label, &seq, &cfg));
                }
                // The register level on top of the sub-tile loop.
                let mut cfg = machine(m);
                cfg.double_buffer = db;
                cfg.hierarchy = true;
                let label = format!("{k}/{m}/seq db={} hier", db as u8);
                out.push(line(&label, &seq, &cfg));
            }
            // The CLI default path: one sub-block per block, register
            // level on, no double buffering.
            if KERNELS.contains(&k) {
                let mut cfg = machine(m);
                cfg.hierarchy = true;
                out.push(line(&format!("{k}/{m}/flat hier"), &case(k, false), &cfg));
            }
        }
    }
    out.join("\n") + "\n"
}

#[test]
fn exec_stats_match_golden() {
    let actual = actual();
    if actual != GOLDEN {
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            if a != g {
                eprintln!("golden: {g}\nactual: {a}\n");
            }
        }
        panic!(
            "executor counters diverged from crates/machine/tests/exec_golden.txt \
             ({} vs {} lines); full actual output:\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count(),
        );
    }
}
