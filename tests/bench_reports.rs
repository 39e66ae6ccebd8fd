//! The committed `BENCH_*.json` reports: each parses with the tree's
//! own parser and carries the shared envelope, from a full-mode run
//! that passed (a `--smoke` run overwrites the file in place — this
//! catches committing one).

use polymem::machine::{Json, STATS_SCHEMA};

#[test]
fn committed_reports_share_the_envelope() {
    for bench in [
        "dma",
        "exec",
        "extensions",
        "hier",
        "machines",
        "polycore",
        "residency",
        "serve",
        "tune",
        "unified",
    ] {
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
