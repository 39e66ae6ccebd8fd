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
//! stay untouched by a refactor, and is re-recorded only when the
//! machine salt itself changes (it holds what changes the plan) or
//! when the codec changes: a key is the hash of the codec's encoding
//! of its inputs, `schema_hash()` included, so editing the layout
//! descriptor or any encoder a key writes moves every key at once. A
//! re-record moves every key line and no `none` line (a launch that
//! stages nothing has no key). The last re-record came with the `v3`
//! layout, when movement entries stopped storing their data spaces.
//!
//! Since the collapse the same file also pins the in-process resolver
//! and the tuner's preset row: `tunespace::build` of the pinned preset
//! description must address the very launch the table resolves.

use polymem::kernels::builtins::launch;
use polymem::kernels::tunespace;
use polymem::machine::{config_for, desc, plan_artifact_key, LaunchToggles};
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

#[test]
fn resolver_and_tuner_preset_address_the_same_launches() {
    let actual = render(|kernel, machine, db| {
        let base = desc::lookup(machine).expect("registered").config();
        let toggles = LaunchToggles {
            double_buffer: db,
            ..LaunchToggles::default()
        };
        let l = launch(kernel, 16, &base, &toggles, false).expect("built-in");
        let key_of = |k, cfg| match plan_artifact_key(k, &l.params, cfg).expect("key") {
            Some(key) => key.to_string(),
            None => "none".into(),
        };
        // The tuner's pinned preset on this launch's config *is* this
        // launch: same description, and rebuilding it moves no key.
        let cands = tunespace::candidates(kernel, &l.config, true).expect("space");
        let preset = cands.iter().find(|c| c.preset).expect("pinned preset");
        assert_eq!(preset.desc, l.mapping, "{kernel}/{machine} db={db}");
        let rebuilt = tunespace::build(kernel, &preset.desc).expect("rebuilds");
        let key = key_of(&l.kernel, &l.config);
        assert_eq!(
            key_of(&rebuilt, &config_for(&preset.desc, &l.config)),
            key,
            "{kernel}/{machine} db={db}"
        );
        key
    });
    assert!(
        actual == GOLDEN,
        "resolver keys diverged from tests/launch_keys_golden.txt; actual output:\n{actual}"
    );
}
