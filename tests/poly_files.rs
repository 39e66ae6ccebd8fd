//! The shipped `.poly` example kernels parse, analyze and execute.

use polymem::core::smem::{analyze_program, SmemConfig};
use polymem::ir::{exec_program, parse_program, ArrayStore};

fn read(name: &str) -> String {
    std::fs::read_to_string(format!("examples/kernels/{name}")).expect("example file exists")
}

#[test]
fn blur3_parses_analyzes_and_runs() {
    let p = parse_program(&read("blur3.poly")).unwrap();
    assert_eq!(p.params, vec!["N", "R"]);
    let plan = analyze_program(
        &p,
        &SmemConfig {
            sample_params: vec![32, 4],
            ..SmemConfig::default()
        },
    )
    .unwrap();
    // A's three overlapping reads pass Algorithm 1; Out does not.
    let a = p.array_index("A").unwrap();
    assert!(plan.buffers.iter().any(|b| b.array == a));
    let out = p.array_index("Out").unwrap();
    assert!(plan.buffers.iter().all(|b| b.array != out));

    let mut st = ArrayStore::for_program(&p, &[8, 2]).unwrap();
    st.fill_with("A", |ix| ix[0] * 3).unwrap();
    exec_program(&p, &[8, 2], &mut st).unwrap();
    // Out[r][i] = (3i + 3(i+1) + 3(i+2)) / 3 = 3i + 3.
    for r in 0..2 {
        for i in 0..8 {
            assert_eq!(st.get("Out", &[r, i]).unwrap(), 3 * i + 3);
        }
    }
}

#[test]
fn seidel_parses_and_matches_inplace_semantics() {
    let p = parse_program(&read("seidel.poly")).unwrap();
    let params = [3i64, 6];
    let mut st = ArrayStore::for_program(&p, &params).unwrap();
    st.fill_with("A", |ix| ix[0] * ix[0]).unwrap();
    let mut expect = st.data("A").unwrap().to_vec();
    exec_program(&p, &params, &mut st).unwrap();
    // Native in-place sweeps.
    for _t in 0..3 {
        for i in 1..=6usize {
            expect[i] = (expect[i - 1] + expect[i] + expect[i + 1]) / 3;
        }
    }
    assert_eq!(st.data("A").unwrap(), &expect[..]);
}

#[test]
fn seidel_band_has_no_parallel_loop() {
    // Gauss-Seidel carries dependences on both loops; the band is the
    // time loop only and has no communication-free loop.
    let p = parse_program(&read("seidel.poly")).unwrap();
    let band = polymem::core::tiling::find_permutable_band(&p).unwrap();
    assert!(band.space_loops().is_empty());
}

mod end_to_end {
    use super::read;
    use polymem::ir::{exec_program, parse_program, ArrayStore, Program};
    use polymem::machine::{
        config_for, execute_blocked, generic_candidates, tune, MachineConfig, TuneOptions,
    };

    fn machines() -> [(&'static str, MachineConfig); 2] {
        [
            ("gpu", MachineConfig::geforce_8800_gtx()),
            ("cell", MachineConfig::cell_like()),
        ]
    }

    fn init(_p: &Program, st: &mut ArrayStore) {
        st.fill_with("A", |ix| ix[0] * 3 + 1).unwrap();
    }

    /// Every candidate the band analysis derives for a `.poly` example
    /// executes on the simulator bit-exactly, on both machine models.
    fn check_poly(name: &str, params: &[i64]) {
        let p = parse_program(&read(name)).unwrap();
        let mut reference = ArrayStore::for_program(&p, params).unwrap();
        init(&p, &mut reference);
        exec_program(&p, params, &mut reference).unwrap();
        for (label, base) in machines() {
            let cands = generic_candidates(&p, params, &base, &[2, 4]).unwrap();
            assert!(!cands.is_empty(), "{name} on {label}: empty space");
            for c in &cands {
                let cfg = config_for(&c.desc, &base);
                let mut st = ArrayStore::for_program(&c.kernel.program, params).unwrap();
                init(&p, &mut st);
                execute_blocked(&c.kernel, params, &mut st, &cfg, false)
                    .unwrap_or_else(|e| panic!("{name} on {label}, {}: {e}", c.desc.label()));
                for a in &p.arrays {
                    assert_eq!(
                        st.data(&a.name).unwrap(),
                        reference.data(&a.name).unwrap(),
                        "{name} on {label}, {}: array {} diverges",
                        c.desc.label(),
                        a.name
                    );
                }
            }
        }
    }

    #[test]
    fn blur3_executes_blocked_on_both_machines() {
        check_poly("blur3.poly", &[16, 4]);
    }

    #[test]
    fn seidel_executes_blocked_on_both_machines() {
        check_poly("seidel.poly", &[3, 8]);
    }

    /// `polymem tune` acceptance over a `.poly` example: the pruned
    /// search finds a bit-exact winner, persists it, and a warm re-run
    /// answers from the artifact with zero simulations.
    #[test]
    fn tune_finds_and_persists_a_winner_for_blur3() {
        let p = parse_program(&read("blur3.poly")).unwrap();
        let params = [16i64, 4];
        let dir = std::env::temp_dir().join(format!("polymem-tune-blur3-{}", std::process::id()));
        let mut base = MachineConfig::geforce_8800_gtx();
        base.artifact_dir = Some(dir.to_string_lossy().into_owned());
        let cands = generic_candidates(&p, &params, &base, &[2, 4, 8]).unwrap();
        let opts = TuneOptions {
            top_k: 2,
            space_label: "test:blur3".into(),
            ..TuneOptions::default()
        };
        let init = |st: &mut ArrayStore| st.fill_with("A", |ix| ix[0] * 3 + 1).unwrap();
        let cold = tune(&p, &params, &init, &cands, &base, &opts).unwrap();
        assert_eq!(cold.plan_source, "search");
        assert!(cold.simulated > 0 && cold.simulated < cold.total);
        let warm = tune(&p, &params, &init, &cands, &base, &opts).unwrap();
        assert_eq!(warm.plan_source, "artifact");
        assert_eq!(warm.simulated, 0);
        assert_eq!(warm.winner, cold.winner);
        assert_eq!(warm.winner_cycles, cold.winner_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
