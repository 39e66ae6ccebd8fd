//! Golden plan-artifact keys of the built-in launches, recorded on the
//! commit *before* the CLI, the daemon, the tuner and the bench
//! harness were moved onto one kernel table and one launch resolver.
//!
//! `polymem key <kernel> --size 16 --machine M [--double-buffer]`
//! addresses the launch `polymem run` (and a daemon `run`) executes:
//! the key hashes the tiled program, the round/block/seq/thread split
//! and the mapping-relevant machine toggles, so any drift in "what a
//! built-in launch is" moves a key. 5 kernels × {flat,
//! `--double-buffer`} × {gpu, cell}; `launch_keys_golden.txt` must
//! stay untouched by a refactor.

use std::process::Command;

const GOLDEN: &str = include_str!("launch_keys_golden.txt");
const KERNELS: [&str; 5] = ["me", "jacobi", "jacobi2d", "matmul", "conv2d"];
const MACHINES: [&str; 2] = ["gpu", "cell"];

fn label(kernel: &str, machine: &str, db: bool) -> String {
    format!("{kernel}/{machine}/{}", if db { "db" } else { "flat" })
}

fn cli_key(kernel: &str, machine: &str, db: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_polymem"));
    cmd.args(["key", kernel, "--size", "16", "--machine", machine]);
    if db {
        cmd.arg("--double-buffer");
    }
    let out = cmd.output().expect("binary runs");
    assert!(out.status.success(), "{kernel}/{machine}: {out:?}");
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

/// Render one `label: key` line per launch with `key_of`.
fn render(key_of: impl Fn(&str, &str, bool) -> String) -> String {
    let mut out = String::new();
    for machine in MACHINES {
        for kernel in KERNELS {
            for db in [false, true] {
                let key = key_of(kernel, machine, db);
                out.push_str(&format!("{}: {key}\n", label(kernel, machine, db)));
            }
        }
    }
    out
}

#[test]
fn cli_keys_match_golden() {
    let actual = render(cli_key);
    assert!(
        actual == GOLDEN,
        "launch keys diverged from tests/launch_keys_golden.txt; actual output:\n{actual}"
    );
}
