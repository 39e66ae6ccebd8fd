//! Smoke tests of the `polymem` CLI binary.

use polymem::machine::Json;
use std::process::Command;

fn polymem(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_polymem"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`polymem`] but reports the raw exit code and lets the test
/// inject environment variables (for the fault hooks).
fn polymem_code(args: &[&str], env: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_polymem"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by signal"),
    )
}

#[test]
fn figures_subcommand_prints_a_figure() {
    let (stdout, _, ok) = polymem(&["figures", "7"]);
    assert!(ok);
    assert!(stdout.contains("Figure 7"), "{stdout}");
    assert!(stdout.contains("Thread Blocks"), "{stdout}");
}

#[test]
fn analyze_builtin_kernel() {
    let (stdout, _, ok) = polymem(&["analyze", "matmul"]);
    assert!(ok);
    assert!(stdout.contains("Algorithm 1 decisions"), "{stdout}");
    assert!(stdout.contains("LA[N][N];"), "{stdout}");
}

#[test]
fn analyze_poly_file_with_params() {
    let (stdout, _, ok) = polymem(&["analyze", "examples/kernels/blur3.poly", "--params", "32,4"]);
    assert!(ok);
    assert!(stdout.contains("LA[N + 2];"), "{stdout}");
}

#[test]
fn emit_cuda_flavour() {
    let (stdout, _, ok) = polymem(&["emit", "conv2d", "--cuda"]);
    assert!(ok);
    assert!(stdout.contains("__global__ void conv2d_kernel"), "{stdout}");
    assert!(stdout.contains("__shared__"), "{stdout}");
}

#[test]
fn run_validates_against_reference() {
    let (stdout, _, ok) = polymem(&["run", "me", "--size", "8"]);
    assert!(ok);
    assert!(stdout.contains("matches reference"), "{stdout}");
}

#[test]
fn search_prints_paper_optima() {
    let (stdout, _, ok) = polymem(&["search", "jacobi"]);
    assert!(ok);
    assert!(stdout.contains("(32, 256)"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = polymem(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, ok) = polymem(&["analyze", "nosuchkernel"]);
    assert!(!ok);
    assert!(stderr.contains("unknown kernel"), "{stderr}");
}

// Exit-code classification: one directed test per class, so scripts
// (and the serve daemon's error mapping) can rely on the contract
// `0 ok / 2 usage / 3 compile / 4 runtime`.

#[test]
fn usage_errors_exit_with_code_2() {
    let (_, _, code) = polymem_code(&["frobnicate"], &[]);
    assert_eq!(code, 2);
    let (_, stderr, code) = polymem_code(&["run", "me", "--no-heirarchy"], &[]);
    assert_eq!(code, 2, "typo'd flag must be a usage error: {stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
    let (_, _, code) = polymem_code(&["run", "nosuchkernel"], &[]);
    assert_eq!(code, 2);
    // A non-integer --size used to run size 16 silently.
    for cmd in ["run", "key", "tune"] {
        let (stdout, stderr, code) = polymem_code(&[cmd, "matmul", "--size", "abc"], &[]);
        assert_eq!(code, 2, "{cmd}: {stdout}{stderr}");
        assert!(stderr.contains("`--size` needs an integer"), "{stderr}");
    }
}

#[test]
fn stray_and_unknown_positional_arguments_are_usage_errors() {
    // A stray or unknown argument is named in the two-line usage
    // error, never ignored.
    for (args, named) in [
        (&["figures", "four"][..], "`four`"),
        (&["figures", "9"], "`9`"),
        (&["figures", "4", "5"], "`5`"),
        (&["run", "matmul", "extra", "--size", "4"], "`extra`"),
        (&["key", "matmul", "--size", "4", "extra"], "`extra`"),
        (&["search", "foo"], "`foo`"),
        (&["trace", "foo"], "`foo`"),
    ] {
        let (stdout, stderr, code) = polymem_code(args, &[]);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 2, "{args:?}: {stderr}");
    }
    // A missing or unknown target lists the valid ones in plain text.
    for args in [&["search"][..], &["trace"], &["search", "foo"]] {
        let (_, stderr, code) = polymem_code(args, &[]);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains("me") && stderr.contains("jacobi"),
            "{stderr}"
        );
    }
}

#[test]
fn bare_figures_prints_the_paper_figures_then_the_extension() {
    let (stdout, stderr, ok) = polymem(&["figures"]);
    assert!(ok, "{stderr}");
    let at = |id: &str| stdout.find(&format!("# {id} ")).expect(id);
    let order: Vec<usize> = ["Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8"]
        .into_iter()
        .chain(["Extension"])
        .map(at)
        .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "{stdout}");
    assert!(stdout.contains("conv2d"), "{stdout}");
}

#[test]
fn trace_renders_both_paper_timelines() {
    for target in ["me", "jacobi"] {
        let (stdout, stderr, ok) = polymem(&["trace", target]);
        assert!(ok, "{target}: {stderr}");
        for row in ["ms total", "movement", "compute", "smem"] {
            assert!(stdout.contains(row), "{target}: no `{row}` in {stdout}");
        }
    }
}

#[test]
fn unbuildable_sizes_are_typed_errors_not_panics() {
    // No store exists for a negative extent: a compile-class error
    // (like the daemon's `class: compile`), where `expect("store")`
    // used to panic with exit 101.
    let (_, stderr, code) = polymem_code(&["run", "me", "--size", "-3"], &[]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("compile error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sizes_too_large_for_the_host_are_typed_errors_not_aborts() {
    // A 2^31 x 2^31 matrix overflows the allocation's byte count: the
    // store is refused where `vec!` used to panic with exit 101.
    let (_, stderr, code) = polymem_code(&["run", "matmul", "--size", "2147483648"], &[]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("no store for size 2147483648"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn compile_errors_exit_with_code_3() {
    let dir = std::env::temp_dir().join("polymem_cli_compile_err");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.poly");
    std::fs::write(&path, "program { this is not a kernel }").unwrap();
    let (_, stderr, code) = polymem_code(&["analyze", path.to_str().unwrap()], &[]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("compile error:"), "{stderr}");
}

#[test]
fn runtime_errors_exit_with_code_4() {
    // The fault hook panics one block worker; the simulation fails
    // after compilation succeeded, which is the runtime class.
    let (_, stderr, code) = polymem_code(
        &["run", "me", "--size", "8"],
        &[("POLYMEM_FAULT_PANIC_BLOCK", "0")],
    );
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("runtime error:"), "{stderr}");
    assert!(stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unusable_artifact_dirs_are_runtime_errors() {
    // A regular file where the store directory should be: asking for
    // persistence that cannot happen is an error before anything runs,
    // not a silent launch without it.
    let file = std::env::temp_dir().join("polymem_cli_not_a_dir");
    std::fs::write(&file, b"x").unwrap();
    let f = file.to_str().unwrap();
    for cmd in [
        &["run", "me", "--size", "8"][..],
        &["key", "me", "--size", "8"],
        &["analyze", "me", "--json"],
    ] {
        let args = [cmd, &["--artifact-dir", f]].concat();
        let (stdout, stderr, code) = polymem_code(&args, &[]);
        assert_eq!(code, 4, "{cmd:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("runtime error: artifact dir {f}: ")),
            "{cmd:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{cmd:?}: {stdout}");
    }
    // The tuner only meets the store when it saves its winner; that
    // failure renders as what it is, not as an IR "unknown name".
    let (_, stderr, code) = polymem_code(&["tune", "me", "--size", "8", "--artifact-dir", f], &[]);
    assert_eq!(code, 4, "{stderr}");
    assert!(
        stderr.starts_with("runtime error: tune failed: artifact save: "),
        "{stderr}"
    );
    assert!(!stderr.contains("unknown name"), "{stderr}");
    let _ = std::fs::remove_file(&file);
    // A usage error exits before the store directory is created.
    let dir = std::env::temp_dir().join("polymem_cli_never_created");
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    for cmd in [
        &["run", "me", "--size", "x"][..],
        &["key", "nosuch", "--size", "8"],
    ] {
        let (_, stderr, code) = polymem_code(&[cmd, &["--artifact-dir", d]].concat(), &[]);
        assert_eq!(code, 2, "{cmd:?}: {stderr}");
        assert!(!dir.exists(), "{cmd:?} created {d}");
    }
}

#[test]
fn key_is_stable_across_processes() {
    // The artifact address must be a pure content hash: two fresh
    // processes — separate ASLR, allocation order, everything —
    // print identical digests.
    let (k1, _, code1) = polymem_code(&["key", "me", "--size", "16"], &[]);
    let (k2, _, code2) = polymem_code(&["key", "me", "--size", "16"], &[]);
    assert_eq!(code1, 0);
    assert_eq!(code2, 0);
    assert_eq!(k1, k2);
    let digest = k1.trim();
    assert_eq!(digest.len(), 32, "two-lane key renders 32 hex digits");
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");

    // Different launch parametrization → different address.
    let (k3, _, _) = polymem_code(&["key", "me", "--size", "32"], &[]);
    assert_ne!(k1, k3);
    // Mapping-relevant config flips the key too.
    let (k4, _, _) = polymem_code(&["key", "me", "--size", "16", "--no-hierarchy"], &[]);
    assert_ne!(k1, k4);
}

#[test]
fn key_of_a_huge_size_reads_one_grid_point() {
    // A key needs the first point of each launch tier, not the tier:
    // a 2^18-square matmul in 4 x 4 tiles has 2^32 blocks, which the
    // grid used to list in full before it read the first.
    let (stdout, stderr, code) = polymem_code(&["key", "matmul", "--size", "262144"], &[]);
    assert_eq!(code, 0, "{stderr}");
    let digest = stdout.trim();
    assert_eq!(digest.len(), 32, "{digest}");
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");
}

#[test]
fn tune_ranks_candidates_and_run_tuned_reuses_the_artifact() {
    let dir = std::env::temp_dir().join("polymem_cli_tune");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap();
    // Cold: the pruned search runs, simulating only the frontier.
    let (out1, _, code1) = polymem_code(
        &[
            "tune",
            "matmul",
            "--size",
            "8",
            "--smoke",
            "--artifact-dir",
            d,
        ],
        &[],
    );
    assert_eq!(code1, 0, "{out1}");
    assert!(out1.contains("plan source: search"), "{out1}");
    assert!(out1.contains("winner:"), "{out1}");
    // The preset row is marked and simulated (pinned into the frontier).
    assert!(out1.contains("*tile["), "{out1}");
    // Warm: a second process answers from the tune artifact.
    let (out2, _, code2) = polymem_code(
        &[
            "tune",
            "matmul",
            "--size",
            "8",
            "--smoke",
            "--artifact-dir",
            d,
        ],
        &[],
    );
    assert_eq!(code2, 0, "{out2}");
    assert!(out2.contains("plan source: artifact"), "{out2}");
    assert!(out2.contains("0 simulated"), "{out2}");
    // The full-space search feeds `run --tuned` (separate key from
    // --smoke): first run searches, second loads the artifact.
    let (out3, _, code3) = polymem_code(
        &[
            "run",
            "matmul",
            "--size",
            "8",
            "--tuned",
            "--artifact-dir",
            d,
        ],
        &[],
    );
    assert_eq!(code3, 0, "{out3}");
    assert!(out3.contains("matches reference"), "{out3}");
    assert!(out3.contains("tuned mapping (search)"), "{out3}");
    let (out4, _, code4) = polymem_code(
        &[
            "run",
            "matmul",
            "--size",
            "8",
            "--tuned",
            "--artifact-dir",
            d,
        ],
        &[],
    );
    assert_eq!(code4, 0, "{out4}");
    assert!(out4.contains("tuned mapping (artifact)"), "{out4}");
}

#[test]
fn tune_json_dumps_the_ranked_table() {
    let (out, _, code) = polymem_code(
        &[
            "tune", "me", "--size", "8", "--smoke", "--top", "2", "--json",
        ],
        &[],
    );
    assert_eq!(code, 0, "{out}");
    let doc = Json::parse(&out).unwrap_or_else(|| panic!("not JSON: {out}"));
    assert_eq!(
        doc.get("plan_source").and_then(Json::as_str),
        Some("search")
    );
    let winner = doc.get("winner").expect("winner");
    assert!(winner.get("predicted").and_then(Json::as_i64).is_some());
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        panic!("no rows: {out}");
    };
    assert!(rows
        .iter()
        .any(|r| r.get("simulated").and_then(Json::as_i64).is_some()));
    // Unsimulated rows carry null, not a number.
    assert!(rows.iter().any(|r| r.get("simulated") == Some(&Json::Null)));
}

#[test]
fn tune_random_fuzzes_generated_programs() {
    let (out, stderr, code) = polymem_code(
        &[
            "tune", "--random", "2", "--seed", "6", "--size", "6", "--smoke",
        ],
        &[("POLYMEM_EXEC_CHECK", "1")],
    );
    assert_eq!(code, 0, "{out}\n{stderr}");
    assert!(out.contains("seed 6:"), "{out}");
    assert!(out.contains("seed 7:"), "{out}");
    assert!(out.contains("winner"), "{out}");
}

#[test]
fn run_reuses_persisted_artifacts_across_processes() {
    let dir = std::env::temp_dir().join("polymem_cli_artifact_reuse");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap();
    let (out1, _, code1) = polymem_code(&["run", "me", "--size", "8", "--artifact-dir", d], &[]);
    assert_eq!(code1, 0, "{out1}");
    assert!(out1.contains("matches reference"), "{out1}");
    // The store now holds the plan under the address `key` prints.
    let (key, _, _) = polymem_code(&["key", "me", "--size", "8"], &[]);
    let stored = dir.join(format!("{}.plan", key.trim()));
    assert!(stored.exists(), "expected artifact at {stored:?}");
    // A second process skips the §3 passes: compiler time is zero.
    let (out2, _, code2) = polymem_code(
        &["run", "me", "--size", "8", "--artifact-dir", d, "--profile"],
        &[],
    );
    assert_eq!(code2, 0, "{out2}");
    assert!(out2.contains("matches reference"), "{out2}");
    assert!(
        out2.contains("compiler (§3 passes)        0.000 ms"),
        "artifact hit must skip analysis:\n{out2}"
    );
}

// ---------------------------------------------------------------------------
// Machine registry: --machine / --machine-file
// ---------------------------------------------------------------------------

#[test]
fn every_registered_machine_runs_bit_exact() {
    for m in ["gpu", "cell", "host", "pim", "spatial"] {
        let (out, _, ok) = polymem(&["run", "matmul", "--size", "8", "--machine", m]);
        assert!(ok, "{m}: {out}");
        assert!(out.contains("matches reference"), "{m}: {out}");
    }
}

#[test]
fn unknown_machine_names_are_usage_errors() {
    let (_, stderr, code) = polymem_code(&["run", "me", "--machine", "quantum"], &[]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown machine"), "{stderr}");
    assert!(
        stderr.contains("pim") && stderr.contains("spatial"),
        "the error must list the registered names: {stderr}"
    );
    let (_, _, code) = polymem_code(
        &["tune", "matmul", "--size", "8", "--machine", "quantum"],
        &[],
    );
    assert_eq!(code, 2);
    let (_, _, code) = polymem_code(&["key", "me", "--machine", "quantum"], &[]);
    assert_eq!(code, 2);
}

#[test]
fn machine_file_loads_a_custom_description() {
    let dir = std::env::temp_dir().join("polymem_cli_machine_file");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lab.toml");
    let mut d = polymem_machine::desc::spatial();
    d.name = "labmesh".into();
    std::fs::write(&path, d.to_toml()).unwrap();
    let p = path.to_str().unwrap();

    let (out, _, ok) = polymem(&["run", "matmul", "--size", "8", "--machine-file", p]);
    assert!(ok, "{out}");
    assert!(out.contains("matches reference"), "{out}");

    // The two selection flags are mutually exclusive.
    let (_, stderr, code) = polymem_code(
        &["run", "matmul", "--machine", "gpu", "--machine-file", p],
        &[],
    );
    assert_eq!(code, 2, "{stderr}");

    // A malformed description is a usage error, not a crash.
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "name = \"x\"\nnot_a_key = 1\n").unwrap();
    let (_, _, code) = polymem_code(
        &["run", "matmul", "--machine-file", bad.to_str().unwrap()],
        &[],
    );
    assert_eq!(code, 2);
}

#[test]
fn a_misspelled_machine_level_is_a_usage_error() {
    // Read as written, the file would describe a machine without a
    // scratchpad: `smem_bytes = 0`, which the executor reads as
    // unlimited.
    let dir = std::env::temp_dir().join("polymem_cli_machine_level");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("typo.toml");
    let text = polymem_machine::desc::gpu().to_toml();
    std::fs::write(&path, text.replace("\"scratchpad\"", "\"scrachpad\"")).unwrap();
    let (_, stderr, code) = polymem_code(
        &["run", "matmul", "--machine-file", path.to_str().unwrap()],
        &[],
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown [[level]] `scrachpad`"), "{stderr}");
    // The cause is the last thing on screen, not buried under the
    // usage text.
    assert!(stderr.lines().count() <= 3, "{stderr}");
    assert!(!stderr.contains("commands:"), "{stderr}");
}

#[test]
fn machine_keys_are_stable_across_processes_and_differ_per_machine() {
    // The PIM and spatial presets address artifacts as pure content
    // hashes: fresh processes agree digit-for-digit.
    let mut keys = Vec::new();
    for m in ["gpu", "pim", "spatial"] {
        let (k1, _, c1) = polymem_code(&["key", "matmul", "--size", "8", "--machine", m], &[]);
        let (k2, _, c2) = polymem_code(&["key", "matmul", "--size", "8", "--machine", m], &[]);
        assert_eq!(c1, 0);
        assert_eq!(c2, 0);
        assert_eq!(k1, k2, "{m} key must be process-independent");
        keys.push(k1.trim().to_string());
    }
    // Mapping-relevant machine differences address different plans.
    assert_ne!(keys[0], keys[1], "gpu vs pim");
    assert_ne!(keys[0], keys[2], "gpu vs spatial");
    assert_ne!(keys[1], keys[2], "pim vs spatial");
}

/// `analyze <kernel> --json --params P --machine M`, parsed; returns the
/// scratchpad level, if the dump has one.
fn analyze_scratchpad_level(kernel: &str, params: &str, machine: &str) -> Option<Json> {
    let (out, stderr, code) = polymem_code(
        &[
            "analyze",
            kernel,
            "--json",
            "--params",
            params,
            "--machine",
            machine,
        ],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    let doc = Json::parse(&out).unwrap_or_else(|| panic!("not JSON: {out}"));
    let Some(Json::Arr(levels)) = doc.get("levels") else {
        panic!("no levels array: {out}");
    };
    levels
        .iter()
        .find(|l| l.get("level").and_then(Json::as_str) == Some("scratchpad"))
        .cloned()
}

#[test]
fn analyze_json_on_pim_stages_nothing() {
    // In-place compute declines every group: the dump must say what
    // `run --machine pim` does, not what the gpu would.
    let level = analyze_scratchpad_level("matmul", "16", "pim").expect("a staged mapping");
    assert_eq!(level.get("buffers"), Some(&Json::Arr(vec![])), "{level}");
    assert_eq!(level.get("total_words").and_then(Json::as_i64), Some(0));
}

#[test]
fn analyze_json_describes_the_launch_run_executes() {
    // Same problem size on both sides: `run --size 16` vs the
    // parameters the kernel table derives from it.
    for (kernel, params) in [
        ("me", "16,16,4"),
        ("jacobi", "8,16"),
        ("jacobi2d", "3,16"),
        ("matmul", "16"),
        ("conv2d", "16,3"),
    ] {
        for machine in ["gpu", "cell", "pim"] {
            let (out, stderr, code) =
                polymem_code(&["run", kernel, "--size", "16", "--machine", machine], &[]);
            assert_eq!(code, 0, "{stderr}");
            let peak: i64 = out
                .split("peak scratchpad ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("no peak in: {out}"));
            // An unstaged mapping (jacobi's) dumps no levels.
            let dumped = analyze_scratchpad_level(kernel, params, machine)
                .map_or(0, |l| l.get("total_words").and_then(Json::as_i64).unwrap());
            if kernel == "jacobi2d" {
                // Its loops start at 1, so the representative (first)
                // block is a clipped boundary tile; the peak is an
                // interior tile's.
                assert!(dumped <= peak && (dumped > 0) == (peak > 0));
            } else {
                assert_eq!(dumped, peak, "{kernel} on {machine}");
            }
        }
    }
}
