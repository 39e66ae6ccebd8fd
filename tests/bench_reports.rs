//! The committed `BENCH_*.json` reports: each parses with the tree's
//! own parser and carries the shared envelope, from a full-mode run
//! under the current `STATS_SCHEMA` that passed (a `--smoke` run
//! overwrites the file in place — this catches committing one), and
//! the repo root holds no report of a harness that no longer exists.

use polymem::machine::{Json, STATS_SCHEMA};

/// The harness binaries that write a report, by bench name.
const BENCHES: [&str; 6] = [
    "engine", "machines", "movement", "polycore", "serve", "tune",
];

#[test]
fn committed_reports_share_the_envelope() {
    for bench in BENCHES {
        let path = format!("{}/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|| panic!("{path} is not JSON"));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bench));
        assert_eq!(
            doc.get("schema").and_then(Json::as_i64),
            Some(STATS_SCHEMA as i64),
            "{path}"
        );
        assert_eq!(
            doc.get("mode").and_then(Json::as_str),
            Some("full"),
            "{path}"
        );
        assert_eq!(
            doc.get("pass").and_then(Json::as_bool),
            Some(true),
            "{path}"
        );
        // What the writer wrote is what it would write again.
        assert_eq!(doc.pretty(), text, "{path}");
    }
}

#[test]
fn the_repo_root_holds_exactly_the_benches_reports() {
    let mut found: Vec<String> = std::fs::read_dir(env!("CARGO_MANIFEST_DIR"))
        .expect("repo root")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    found.sort();
    let expected: Vec<String> = BENCHES.map(|b| format!("BENCH_{b}.json")).into();
    assert_eq!(found, expected);
}
