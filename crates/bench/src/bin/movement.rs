//! Movement harness: double buffering × inter-block residency.
//!
//! Runs `harness::seq_cases` (the five kernels in their sequential
//! sub-tile mappings; the 1-D Jacobi keeps its round-only mapping and
//! exercises the double-buffer fallback) and two sliding-window cases —
//! ME tiled `[8, 1]` with a 4-wide search window (`me_window`), and
//! Jacobi-2D with a single-column sub-tile in the paper's Fig. 1 layout
//! (`jacobi2d_window`: one buffer per array over the convex union,
//! `partition = false`, so the stencil's window is a single group) — on
//! the GPU and Cell models in the four cells of the grid: **sync** /
//! **db** run the §3 movement code synchronously or software-pipelined
//! (sub-tile t+1's move-in overlaps t's compute); **sync_res** /
//! **db_res** add the residency pass, which keeps each group's
//! overlapping window in scratchpad across sub-tiles and moves only the
//! delta. It checks, per kernel and machine:
//!
//! * every mode's output is bit-exact against the reference;
//! * in every run, DMA descriptor bytes equal element-move bytes and
//!   the compiled engine ran every block;
//! * double buffering leaves global traffic unchanged, and residency
//!   never raises modeled cycles and leaves no counters when off, each
//!   at both settings of the other toggle;
//! * on `seq_cases`: double buffering lowers modeled cycles on jacobi2d
//!   and matmul (the paper's pipelining kernels); every seq-mapped
//!   kernel prefetches with a nonzero overlap fraction, and the
//!   round-only jacobi never prefetches;
//! * on the window cases: residency cuts move-in bytes by at least 2x
//!   and its counters are active;
//! * over all `seq_cases` `db_res` runs (the machines' derived default
//!   has residency on), the coalescer issues at least 10x fewer
//!   transfer operations than element moves.
//!
//! Every gate is a modeled, deterministic count, so it holds on noisy CI
//! runners. Writes `BENCH_movement.json`; exits non-zero on any failure.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin movement            # full
//! cargo run --release -p polymem-bench --bin movement -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` additionally runs the interpreter as an
//! oracle beside every compiled block; the CI job sets it.

use polymem_bench::harness::{conclude, seq_cases, smoke_mode, sweep, Case, Cell};
use polymem_kernels::{jacobi2d, me};
use polymem_machine::{ExecStats, Json, MachineConfig};

/// A cell of the grid: whether transfers are double-buffered, whether
/// the residency pass is on.
fn mode<const DB: bool, const RES: bool>(c: &mut MachineConfig) {
    (c.double_buffer, c.residency) = (DB, RES);
}

type Mode = (&'static str, fn(&mut MachineConfig));

/// The double-buffer × residency grid, in report order.
const MODES: [Mode; 4] = [
    ("sync", mode::<false, false>),
    ("db", mode::<true, false>),
    ("sync_res", mode::<false, true>),
    ("db_res", mode::<true, true>),
];

/// Floor on the aggregate coalescing ratio, element moves over DMA
/// descriptors.
const COALESCE_TARGET: f64 = 10.0;
/// Floor on the window cases' move-in traffic cut, residency off over on.
const WINDOW_TARGET: f64 = 2.0;

/// The two sliding-window cases, each with whether it runs in the
/// Fig. 1 merged layout.
fn window_cases(smoke: bool) -> [(Case, bool); 2] {
    let pick = |small: i64, full: i64| if smoke { small } else { full };
    let me_size = me::MeSize {
        ni: pick(8, 16),
        nj: pick(8, 16),
        ws: 4,
    };
    // ME: the W-wide search window slides one column per sub-tile;
    // consecutive windows share W of W+1 columns.
    let mut me = Case::builtin("me", me::params(&me_size), 7, |b| b.tiled(&[8, 1], true));
    me.name = "me_window";
    // Jacobi-2D: the 5-point window spans three sliding columns, of
    // which two are retained.
    let mut j2d = Case::builtin("jacobi2d", jacobi2d::params(2, pick(32, 64)), 9, |b| {
        b.tiled(&[pick(8, 16), 1], true)
    });
    j2d.name = "jacobi2d_window";
    [(me, false), (j2d, true)]
}

fn element_moves(s: &ExecStats) -> u64 {
    s.moved_in + s.moved_out
}

/// Every word that crosses the global-memory interface: DMA-staged
/// moves and the per-element reads/writes of unstaged references.
fn global_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (element_moves(s) + s.global_reads + s.global_writes) * word_bytes
}

/// Bytes entering the compute level from global memory: staged
/// move-ins plus direct (unstaged) reads.
fn in_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (s.moved_in + s.global_reads) * word_bytes
}

/// `a / b`, with a zero denominator read as one.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// The gates one cell fails, as printable messages.
fn failures(c: &Cell) -> Vec<String> {
    let [sync, db, sync_res, db_res] = &c.stats[..] else {
        unreachable!("four modes")
    };
    let (w, window) = (c.word_bytes, c.kernel.ends_with("_window"));
    let mut out = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            out.push(format!("{}[{}]: {what}", c.kernel, c.machine));
        }
    };
    gate(c.bit_exact, "output mismatch".into());
    for ((label, _), s) in MODES.iter().zip(&c.stats) {
        // Each staged element crosses the global interface in exactly
        // one coalesced descriptor.
        let (dma, moves) = (s.dma.bytes, element_moves(s) * w);
        let msg = format!("{label}: descriptor bytes {dma} != element-move bytes {moves}");
        gate(dma == moves, msg);
        let interpreted = s.interpreted_blocks;
        let msg = format!("{label}: {interpreted} interpreter fallbacks");
        gate(interpreted == 0, msg);
    }
    // Double buffering, at each residency setting.
    for (res, off, on) in [("", sync, db), ("_res", sync_res, db_res)] {
        let (a, b) = (global_bytes(off, w), global_bytes(on, w));
        let msg = format!("db{res}: global traffic changed ({a} -> {b} bytes)");
        gate(a == b, msg);
        if window {
            continue;
        }
        let (a, b) = (off.modeled_cycles, on.modeled_cycles);
        if ["jacobi2d", "matmul"].contains(&c.kernel) {
            let msg = format!("db{res}: no modeled-time improvement ({a} -> {b})");
            gate(b < a, msg);
        }
        if c.kernel == "jacobi" {
            // Round-only: nothing to pipeline, so no prefetches.
            let msg = format!("db{res}: round-only kernel prefetched");
            gate(on.overlap_groups == 0, msg);
        } else {
            gate(on.overlap_groups > 0, format!("db{res}: no prefetches"));
            let msg = format!("db{res}: zero overlap fraction");
            gate(on.dma.overlap_fraction() > 0.0, msg);
        }
    }
    // Residency, at each double-buffer setting.
    for (db, off, on) in [("sync", sync, sync_res), ("db", db, db_res)] {
        let (a, b) = (off.modeled_cycles, on.modeled_cycles);
        let msg = format!("{db}: residency raised modeled cycles ({a} -> {b})");
        gate(b <= a, msg);
        let idle = [off.residency_groups, off.retained_elems, off.delta_elems] == [0; 3];
        let msg = format!("{db}: residency counters nonzero with the pass off");
        gate(idle, msg);
        if window {
            let r = ratio(in_bytes(off, w), in_bytes(on, w));
            let msg = format!("{db}: move-in traffic ratio {r:.2} below {WINDOW_TARGET}");
            gate(r >= WINDOW_TARGET, msg);
            let active = on.residency_groups > 0 && on.retained_elems > 0;
            gate(active, format!("{db}: residency counters inactive"));
        }
    }
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "movement harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let machines = |partition: bool| {
        [
            ("gpu", MachineConfig::geforce_8800_gtx()),
            ("cell", MachineConfig::cell_like()),
        ]
        .map(|(label, mut config)| {
            config.partition &= partition;
            (label, config)
        })
    };
    let mut groups = vec![(seq_cases(smoke), machines(true))];
    for (case, merged_layout) in window_cases(smoke) {
        groups.push((vec![case], machines(!merged_layout)));
    }

    let mut failed = Vec::new();
    let mut runs = Vec::new();
    let (mut moves, mut descs) = (0u64, 0u64);
    for (cases, machines) in &groups {
        for c in sweep(cases, machines, &MODES, 1) {
            let [sync, db, sync_res, db_res] = &c.stats[..] else {
                unreachable!("four modes")
            };
            let w = c.word_bytes;
            // Double buffering's modeled-time gain and residency's
            // move-in cut, each at the other toggle's default setting.
            let db_gain = ratio(sync_res.modeled_cycles, db_res.modeled_cycles);
            let traffic = ratio(in_bytes(sync, w), in_bytes(sync_res, w));
            println!(
                "{:<15} [{:<4}] cycles {:>6} {:>6} {:>6} {:>6} (db {:4.2}x)  in-bytes {:>6} -> {:>6} \
                 ({:4.2}x)  descs {:>4}  overlap {:4.1}%  retained {:>5}  bit-exact: {}",
                c.kernel,
                c.machine,
                sync.modeled_cycles,
                db.modeled_cycles,
                sync_res.modeled_cycles,
                db_res.modeled_cycles,
                db_gain,
                in_bytes(sync, w),
                in_bytes(sync_res, w),
                traffic,
                db_res.dma.descriptors,
                100.0 * db_res.dma.overlap_fraction(),
                db_res.retained_elems,
                if c.bit_exact { "yes" } else { "NO" },
            );
            failed.extend(failures(&c));
            if !c.kernel.ends_with("_window") {
                moves += element_moves(db_res);
                descs += db_res.dma.descriptors;
            }
            runs.push(c.to_json([
                ("db_improvement", Json::fixed(db_gain, 4)),
                ("traffic_ratio", Json::fixed(traffic, 4)),
            ]));
        }
    }

    // Coalescing: aggregate element moves over DMA descriptors (the
    // per-element baseline would issue one operation per element).
    let coalesce = ratio(moves, descs);
    println!(
        "\ncoalescing: {moves} element moves in {descs} descriptors \
         ({coalesce:.1}x, target >= {COALESCE_TARGET}x)"
    );
    if coalesce < COALESCE_TARGET {
        failed.push(format!(
            "coalesce ratio {coalesce:.1} below {COALESCE_TARGET}"
        ));
    }

    let body = Json::obj([
        ("runs", runs.into()),
        ("coalesce_ratio", Json::fixed(coalesce, 2)),
        ("coalesce_target", COALESCE_TARGET.into()),
        ("traffic_target", WINDOW_TARGET.into()),
    ]);
    conclude("movement", smoke, body, &failed);
}
