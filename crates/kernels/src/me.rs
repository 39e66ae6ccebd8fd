//! MPEG-4 Motion Estimation (the paper's Fig. 2 kernel).
//!
//! ```text
//! FORALL i = 1, Ni
//!   FORALL j = 1, Nj
//!     FOR k = 1, WS
//!       FOR l = 1, WS
//!         Sad[i][j] += |Cur[i+k][j+l] − Ref[i+k][j+l]|
//! ```
//!
//! `(i, j)` range over candidate positions (space loops, no
//! synchronisation across thread blocks); `(k, l)` scan the 16×16
//! window (time loops). The paper's Fig. 4 sweeps total problem size
//! (`Ni·Nj` from 256k to 64M) with 32 thread blocks × 256 threads;
//! Fig. 6 sweeps tile sizes, where the §4.3 search picks
//! `(32, 16, 16, 16)`.

use crate::synth_value;
use polymem_core::smem::dataspace::collect_refs;
use polymem_core::tiling::cost::{BufferCost, CostModel};
use polymem_core::tiling::{search_discrete, SearchOutcome, TileSizeProblem};
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_machine::{KernelProfile, MachineConfig};

/// Problem instance: `ni × nj` candidate positions, `ws × ws` window.
#[derive(Clone, Copy, Debug)]
pub struct MeSize {
    /// Rows of candidate positions.
    pub ni: i64,
    /// Columns of candidate positions.
    pub nj: i64,
    /// Search-window extent (paper: 16).
    pub ws: i64,
}

impl MeSize {
    /// Total positions (`Ni·Nj`), the paper's "problem size".
    pub fn positions(&self) -> u64 {
        (self.ni * self.nj) as u64
    }

    /// A roughly square instance with the given total positions.
    pub fn square(total: u64, ws: i64) -> MeSize {
        let side = (total as f64).sqrt().round() as i64;
        MeSize {
            ni: side,
            nj: side,
            ws,
        }
    }
}

/// Build the Fig. 2 program.
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("mpeg4_me", ["Ni", "Nj", "W"]);
    b.array("Cur", &[v("Ni") + v("W"), v("Nj") + v("W")]);
    b.array("Ref", &[v("Ni") + v("W"), v("Nj") + v("W")]);
    b.array("Sad", &[v("Ni"), v("Nj")]);
    b.stmt("S1")
        .loops(&[
            ("i", LinExpr::c(0), v("Ni") - 1),
            ("j", LinExpr::c(0), v("Nj") - 1),
            ("k", LinExpr::c(0), v("W") - 1),
            ("l", LinExpr::c(0), v("W") - 1),
        ])
        .write("Sad", &[v("i"), v("j")])
        .read("Sad", &[v("i"), v("j")])
        .read("Cur", &[v("i") + v("k"), v("j") + v("l")])
        .read("Ref", &[v("i") + v("k"), v("j") + v("l")])
        .body(Expr::add(
            Expr::Read(0),
            Expr::abs(Expr::sub(Expr::Read(1), Expr::Read(2))),
        ))
        .done();
    b.build().expect("ME program is well-formed")
}

/// Parameter vector for [`program`].
pub fn params(size: &MeSize) -> Vec<i64> {
    vec![size.ni, size.nj, size.ws]
}

/// Fill `Cur`/`Ref` with deterministic synthetic frame data.
pub fn init_store(store: &mut ArrayStore, seed: u64) {
    store
        .fill_with("Cur", |ix| synth_value(seed, ix))
        .expect("Cur exists");
    store
        .fill_with("Ref", |ix| synth_value(seed ^ 0xffff, ix))
        .expect("Ref exists");
}

/// Native reference implementation (plain loops over the same store).
pub fn reference(store: &mut ArrayStore, size: &MeSize) {
    let (ni, nj, ws) = (size.ni, size.nj, size.ws);
    let cur = store.data("Cur").expect("Cur").to_vec();
    let refr = store.data("Ref").expect("Ref").to_vec();
    let row = (nj + ws) as usize;
    let sad = store.data_mut("Sad").expect("Sad");
    for i in 0..ni {
        for j in 0..nj {
            let mut acc = 0i64;
            for k in 0..ws {
                for l in 0..ws {
                    let o = (i + k) as usize * row + (j + l) as usize;
                    acc += (cur[o] - refr[o]).abs();
                }
            }
            sad[(i * nj + j) as usize] = acc;
        }
    }
}

/// The §4.3 cost model for ME over tile sizes `(ti, tj, tk, tl)`.
pub fn cost_model(size: &MeSize) -> CostModel {
    let p = program();
    let tiled_loops = [0usize, 1, 2, 3];
    let mut buffers = Vec::new();
    for name in ["Cur", "Ref", "Sad"] {
        let ai = p.array_index(name).expect("array exists");
        let refs = collect_refs(&p, ai).expect("dataspaces");
        let members: Vec<&_> = refs.iter().collect();
        // §4.2 placement: Sad's movement hoists past the (k, l) tile
        // loops (redundant for Sad[i][j]); Cur/Ref depend on all four
        // loops, so their movement recurs per (k, l) tile — which is
        // why the search keeps t_k = t_l = WS (one window tile).
        let placement = polymem_core::tiling::placement_level(&members, &tiled_loops);
        buffers.push(BufferCost::from_refs(
            name,
            &members,
            &[0, 1],
            &tiled_loops,
            placement,
        ));
    }
    CostModel {
        buffers,
        loop_ranges: vec![
            size.ni as f64,
            size.nj as f64,
            size.ws as f64,
            size.ws as f64,
        ],
    }
}

/// Run the paper's tile-size search (Fig. 6 setup): the expected
/// optimum for the 8800 configuration is `(32, 16, 16, 16)`.
pub fn search_tiles(size: &MeSize, machine: &MachineConfig, threads: u64) -> SearchOutcome {
    let cost = cost_model(size);
    let problem = TileSizeProblem {
        cost,
        params: machine.cost_params(threads as f64),
        mem_limit: (machine.smem_bytes / machine.word_bytes) as f64,
    };
    // Candidates: powers of two for the space tiles; window tiles up
    // to WS (the placement-aware cost model makes sub-window tiles pay
    // their extra Cur/Ref movement occurrences, so WS wins on merit).
    let w = size.ws.min(16);
    let cands = vec![
        vec![8, 16, 32, 64],
        vec![8, 16, 32, 64],
        vec![w / 4, w / 2, w],
        vec![w / 4, w / 2, w],
    ];
    search_discrete(&problem, Some(cands))
}

/// Analytic execution profile for the figure harness.
///
/// `tiles = (ti, tj)` position-tile per thread block iteration;
/// `n_blocks`/`threads` the launch configuration; `use_scratchpad`
/// switches between the staged and DRAM-only variants.
pub fn profile(
    size: &MeSize,
    tiles: (i64, i64),
    n_blocks: u64,
    threads: u64,
    use_scratchpad: bool,
    machine: &MachineConfig,
) -> KernelProfile {
    let (ti, tj) = tiles;
    let instances = size.positions() * (size.ws * size.ws) as u64;
    // 3 reads + 1 write per instance; SAD body = sub + abs + add.
    let ops = 3;
    if !use_scratchpad {
        return KernelProfile {
            n_blocks,
            threads_per_block: threads,
            instances,
            ops_per_instance: ops,
            // Sad stays in a register across the window in any
            // reasonable compilation; Cur and Ref hit DRAM.
            global_accesses_per_instance: 2,
            ..KernelProfile::default()
        };
    }
    // Footprints from the compiler's model: per (ti, tj) tile.
    let cm = cost_model(size);
    let t = [ti as f64, tj as f64, size.ws as f64, size.ws as f64];
    let mut tile_words = cm.memory(&t);
    let mut volume_per_occ: f64 = cm
        .buffers
        .iter()
        .map(|b| {
            b.read.as_ref().map_or(0.0, |f| f.volume(&t))
                + b.write.as_ref().map_or(0.0, |f| f.volume(&t))
        })
        .sum();
    // The paper's rule: when a tile needs more scratchpad than
    // available, split it (an extra sequential tiling level) until it
    // fits — modelled by halving tj.
    let budget = (machine.smem_bytes / machine.word_bytes) as f64;
    let mut splits = 1.0;
    let mut tj_eff = tj as f64;
    while tile_words > budget && tj_eff > 1.0 {
        tj_eff /= 2.0;
        splits *= 2.0;
        let t2 = [ti as f64, tj_eff, size.ws as f64, size.ws as f64];
        tile_words = cm.memory(&t2);
        volume_per_occ = cm
            .buffers
            .iter()
            .map(|b| {
                b.read.as_ref().map_or(0.0, |f| f.volume(&t2))
                    + b.write.as_ref().map_or(0.0, |f| f.volume(&t2))
            })
            .sum();
    }
    let tiles_total =
        (size.ni as f64 / ti as f64).ceil() * (size.nj as f64 / tj as f64).ceil() * splits;
    let occurrences_per_block = (tiles_total / n_blocks as f64).ceil() as u64;
    KernelProfile {
        n_blocks,
        threads_per_block: threads,
        instances,
        ops_per_instance: ops,
        global_accesses_per_instance: 0,
        smem_accesses_per_instance: 3,
        movement_occurrences_per_block: occurrences_per_block,
        movement_volume_per_occurrence: volume_per_occ as u64,
        smem_bytes_per_block: (tile_words as u64) * machine.word_bytes,
        device_syncs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_kernel;
    use polymem_core::tiling::search_sqp;
    use polymem_ir::exec_program;
    use polymem_machine::execute_blocked;

    fn small() -> MeSize {
        MeSize {
            ni: 6,
            nj: 5,
            ws: 3,
        }
    }

    #[test]
    fn interpreter_matches_native_reference() {
        let s = small();
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(&s)).unwrap();
        init_store(&mut st, 42);
        let mut native = st.clone();
        exec_program(&p, &params(&s), &mut st).unwrap();
        reference(&mut native, &s);
        assert_eq!(st.data("Sad").unwrap(), native.data("Sad").unwrap());
    }

    #[test]
    fn blocked_scratchpad_run_matches_reference() {
        let s = small();
        let k = table_kernel("me", &[2, 2], false, true);
        let mut st = ArrayStore::for_program(&program(), &params(&s)).unwrap();
        init_store(&mut st, 7);
        let mut native = st.clone();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(&k, &params(&s), &mut st, &cfg, true).unwrap();
        reference(&mut native, &s);
        assert_eq!(st.data("Sad").unwrap(), native.data("Sad").unwrap());
        assert!(stats.moved_in > 0);
        assert!(stats.smem_reads > 0);
    }

    #[test]
    fn scratchpad_cuts_global_traffic_heavily() {
        let s = MeSize {
            ni: 8,
            nj: 8,
            ws: 4,
        };
        let cfg = MachineConfig::geforce_8800_gtx();
        let mut st1 = ArrayStore::for_program(&program(), &params(&s)).unwrap();
        init_store(&mut st1, 3);
        let mut st2 = st1.clone();
        let d = execute_blocked(
            &table_kernel("me", &[4, 4], false, false),
            &params(&s),
            &mut st1,
            &cfg,
            false,
        )
        .unwrap();
        let m = execute_blocked(
            &table_kernel("me", &[4, 4], false, true),
            &params(&s),
            &mut st2,
            &cfg,
            false,
        )
        .unwrap();
        // The window overlap means each Cur/Ref element is read WS^2
        // times from DRAM without staging, ~once with staging.
        assert!(
            m.global_reads * 4 < d.global_reads,
            "{} vs {}",
            m.global_reads,
            d.global_reads
        );
        assert_eq!(st1.data("Sad").unwrap(), st2.data("Sad").unwrap());
    }

    #[test]
    fn tile_search_picks_the_paper_optimum() {
        let s = MeSize::square(1 << 22, 16); // 4M positions
        let cfg = MachineConfig::geforce_8800_gtx();
        let out = search_tiles(&s, &cfg, 256);
        assert_eq!(
            out.sizes,
            vec![32, 16, 16, 16],
            "expected the paper's (32, 16, 16, 16), cost {}",
            out.cost
        );
    }

    /// The "SQP vs discrete" ablation: the continuous solver lands
    /// within 25 % of the exact discrete optimum on ME's §4.3 problem.
    #[test]
    fn sqp_lands_near_the_discrete_optimum() {
        let cfg = MachineConfig::geforce_8800_gtx();
        let problem = TileSizeProblem {
            cost: cost_model(&MeSize::square(1 << 22, 16)),
            params: cfg.cost_params(256.0),
            mem_limit: (cfg.smem_bytes / cfg.word_bytes) as f64,
        };
        let d = search_discrete(&problem, None);
        let s = search_sqp(&problem);
        assert!(
            s.cost <= d.cost * 1.25 + 1.0,
            "sqp {} vs {}",
            s.cost,
            d.cost
        );
    }

    #[test]
    fn profile_scratchpad_beats_dram_in_time() {
        let s = MeSize::square(1 << 20, 16);
        let cfg = MachineConfig::geforce_8800_gtx();
        let dram = profile(&s, (32, 16), 32, 256, false, &cfg);
        let smem = profile(&s, (32, 16), 32, 256, true, &cfg);
        let td = dram.estimate(&cfg).unwrap().total_ms;
        let tsm = smem.estimate(&cfg).unwrap().total_ms;
        assert!(tsm * 3.0 < td, "{tsm} vs {td}");
    }

    #[test]
    fn oversized_tiles_get_split_not_rejected() {
        let s = MeSize::square(1 << 20, 16);
        let cfg = MachineConfig::geforce_8800_gtx();
        let p = profile(&s, (64, 64), 32, 256, true, &cfg);
        assert!(p.smem_bytes_per_block <= cfg.smem_bytes);
        assert!(p.movement_occurrences_per_block > 0);
    }

    #[test]
    fn me_size_helpers() {
        let s = MeSize::square(1 << 20, 16);
        let total = s.positions();
        let rel = (total as f64 - (1u64 << 20) as f64).abs() / ((1u64 << 20) as f64);
        assert!(rel < 0.01);
    }
}
