//! `run` and `repeat`: every workload's two passes in fresh child
//! processes (so the process-global polyhedral memo and `VmHWM` are
//! per pass), the sum-checks over them, `results.json`, and the
//! agreement table between repeated runs.

use crate::api::{self, Json};
use crate::metrics::{fmt_value, Kind, Metric, BOUNDS, END_TO_END};
use crate::trace::{self, Span};
use crate::workloads::out_dir;
use std::process::{Command, Stdio};

/// Prefix of the line a pass prints before its result line, carrying
/// kind, sample count and high percentile of every metric.
pub const DETAIL_PREFIX: &str = "detail ";

pub fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        format!("{}\n", trace::to_json(workload, spans)),
    )
}

struct Pass {
    attempted: u64,
    failed: u64,
    correct: bool,
    values: Vec<Metric>,
}

impl Pass {
    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.value)
    }
}

/// Run one pass in a child process and read its last two lines.
fn run_pass(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let fail = |what: &str| format!("{workload} (trace {}): {what}", trace as u8);
    if !out.status.success() {
        print!("{text}");
        return Err(fail(&format!("child exited with {}", out.status)));
    }
    let [human @ .., detail, result] = &lines[..] else {
        return Err(fail("child printed no result"));
    };
    for l in human {
        println!("{l}");
    }
    let result = Json::parse(result).ok_or_else(|| fail("result line is not JSON"))?;
    let detail = detail
        .strip_prefix(DETAIL_PREFIX)
        .and_then(Json::parse)
        .ok_or_else(|| fail("detail line is missing"))?;
    let Json::Arr(items) = detail else {
        return Err(fail("detail line is not a list"));
    };
    let values = items
        .iter()
        .map(Metric::from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| fail("detail line is malformed"))?;
    Ok(Pass {
        attempted: api::num(&result, "attempted").unwrap_or(0.0) as u64,
        failed: api::num(&result, "failed").unwrap_or(0.0) as u64,
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        values,
    })
}

/// One line of the checks printed under a workload's metrics.
struct Check {
    what: String,
    value: f64,
    limit: String,
    ok: bool,
    /// A gate fails the run; the others show whether the workload
    /// still stresses the layer it was built to stress.
    gate: bool,
}

impl Check {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("what".into(), Json::Str(self.what.clone())),
            ("value".into(), Json::Num(self.value)),
            ("limit".into(), Json::Str(self.limit.clone())),
            ("ok".into(), Json::Bool(self.ok)),
            ("gate".into(), Json::Bool(self.gate)),
        ])
    }
}

fn at_most(what: &str, value: f64, limit: f64, gate: bool) -> Check {
    Check {
        what: what.into(),
        value,
        limit: format!("<= {limit}"),
        ok: value <= limit,
        gate,
    }
}

fn at_least(what: &str, value: f64, limit: f64, gate: bool) -> Check {
    Check {
        what: what.into(),
        value,
        limit: format!(">= {limit}"),
        ok: value >= limit,
        gate,
    }
}

/// The ledger must add up: the traced pass's parts against the
/// untraced pass's end-to-end figure, per workload.
fn checks(workload: &str, plain: &Pass, traced: &Pass) -> Vec<Check> {
    let t = |n: &str| traced.get(n);
    let gap = |parts: f64, whole: f64| 100.0 * (parts / whole - 1.0).abs();
    let sweep = plain.get("sweep_ms");
    let exec_cpu = t("exec.movein_cpu_ms")
        + t("exec.compute_cpu_ms")
        + t("exec.moveout_cpu_ms")
        + t("exec.merge_cpu_ms");
    let mut out = vec![at_most(
        "operations failed (both passes)",
        (plain.failed + traced.failed) as f64,
        0.0,
        true,
    )];
    match workload {
        "launch-hier-gpu" | "launch-dma-cell" => {
            out.push(at_most(
                "smem.plan_ms + exec.run_ms vs untraced sweep_ms, gap %",
                gap(t("smem.plan_ms") + t("exec.run_ms"), sweep),
                10.0,
                true,
            ));
            out.push(if workload == "launch-hier-gpu" {
                at_least(
                    "exec.compute_cpu_ms share of executor CPU, %",
                    100.0 * t("exec.compute_cpu_ms") / exec_cpu,
                    75.0,
                    false,
                )
            } else {
                at_least(
                    "exec.movein_cpu_ms + exec.moveout_cpu_ms share of executor CPU, %",
                    100.0 * (t("exec.movein_cpu_ms") + t("exec.moveout_cpu_ms")) / exec_cpu,
                    50.0,
                    false,
                )
            });
        }
        "tune-search" => {
            out.push(at_most(
                "tune.price_ms + tune.simulate_ms + tune.reference_ms vs untraced sweep_ms, gap %",
                gap(
                    t("tune.price_ms") + t("tune.simulate_ms") + t("tune.reference_ms"),
                    sweep,
                ),
                15.0,
                true,
            ));
            out.push(at_least(
                "polycore.core_ms share of sweep_ms, %",
                100.0 * t("polycore.core_ms") / sweep,
                60.0,
                false,
            ));
        }
        "serve-mixed" => {
            out.push(at_most(
                "serve.overhead_ms + serve.exec_ms vs serve.run_ms, gap %",
                gap(
                    t("serve.overhead_ms") + t("serve.exec_ms"),
                    t("serve.run_ms"),
                ),
                0.1,
                true,
            ));
            out.push(at_least(
                "serve.overhead_ms share of serve.run_ms, %",
                100.0 * t("serve.overhead_ms") / t("serve.run_ms"),
                50.0,
                false,
            ));
        }
        _ => {}
    }
    out.push(at_least(
        "ledger.cover_pct",
        t("ledger.cover_pct"),
        90.0,
        true,
    ));
    out.push(at_most(
        "trace.overhead_pct",
        t("trace.overhead_pct"),
        10.0,
        true,
    ));
    out
}

struct WorkloadRun {
    name: String,
    plain: Pass,
    traced: Pass,
    checks: Vec<Check>,
}

impl WorkloadRun {
    fn ok(&self) -> bool {
        self.plain.correct && self.traced.correct && self.checks.iter().all(|c| c.ok || !c.gate)
    }

    fn values(&self) -> impl Iterator<Item = &Metric> {
        self.plain.values.iter().chain(&self.traced.values)
    }

    fn json(&self) -> Json {
        let list = |p: &Pass| Json::Arr(p.values.iter().map(Metric::json).collect());
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "attempted".into(),
                Json::Num((self.plain.attempted + self.traced.attempted) as f64),
            ),
            (
                "failed".into(),
                Json::Num((self.plain.failed + self.traced.failed) as f64),
            ),
            ("ok".into(), Json::Bool(self.ok())),
            ("end_to_end".into(), list(&self.plain)),
            ("per_layer".into(), list(&self.traced)),
            (
                "checks".into(),
                Json::Arr(self.checks.iter().map(Check::json).collect()),
            ),
        ])
    }
}

fn run_once(names: &[&str], seed: u64, seconds: f64) -> Result<Vec<WorkloadRun>, String> {
    let mut runs = Vec::new();
    for &name in names {
        let plain = run_pass(name, seed, seconds, false)?;
        let traced = run_pass(name, seed, seconds, true)?;
        let checks = checks(name, &plain, &traced);
        println!("  checks:");
        for c in &checks {
            println!(
                "    [{}] {:<78} {:>10} (want {})",
                match (c.ok, c.gate) {
                    (true, _) => " ok ",
                    (false, true) => "FAIL",
                    (false, false) => "note",
                },
                c.what,
                fmt_value(c.value),
                c.limit
            );
        }
        println!();
        runs.push(WorkloadRun {
            name: name.into(),
            plain,
            traced,
            checks,
        });
    }
    Ok(runs)
}

/// Compare a later run with the first: counts must be identical,
/// end-to-end timings within their bound; per-layer timings are shown
/// with their change but carry no bound. Returns the table rows and
/// whether the runs agree.
fn agreement(first: &[WorkloadRun], later: &[WorkloadRun]) -> (Vec<Json>, bool) {
    let mut rows = Vec::new();
    let mut agree = true;
    println!(
        "  {:<16} {:<30} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "later", "change"
    );
    for (a, b) in first.iter().zip(later) {
        let (mut same, mut total) = (0, 0);
        for va in a.values() {
            let Some(vb) = b.values().find(|v| v.name == va.name) else {
                continue;
            };
            let change = if va.value == vb.value {
                0.0
            } else {
                (vb.value - va.value) / va.value.abs()
            };
            let bound = END_TO_END
                .iter()
                .position(|d| d.0 == va.name)
                .map(|i| BOUNDS[i]);
            let (verdict, shown) = match (va.kind, bound) {
                (Kind::Count, _) => {
                    total += 1;
                    if va.value == vb.value {
                        same += 1;
                        ("identical", bound.is_some())
                    } else {
                        agree = false;
                        ("DIFFERS (must be identical)", true)
                    }
                }
                (Kind::Time, Some(b)) if change.abs() <= b => ("within bound", true),
                (Kind::Time, Some(_)) => {
                    agree = false;
                    ("OUTSIDE BOUND", true)
                }
                // A percentage near 0 has no meaningful relative change.
                (Kind::Time, None) => ("no bound", change.abs() > 0.25 && va.unit != "%"),
                (Kind::Info, _) => continue,
            };
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(a.name.clone())),
                ("metric".into(), Json::Str(va.name.into())),
                ("first".into(), Json::Num(va.value)),
                ("later".into(), Json::Num(vb.value)),
                ("verdict".into(), Json::Str(verdict.into())),
            ]));
            if shown {
                println!(
                    "  {:<16} {:<30} {:>16} {:>16} {:>+8.2}%  {verdict}",
                    a.name,
                    va.name,
                    fmt_value(va.value),
                    fmt_value(vb.value),
                    100.0 * change
                );
            }
        }
        println!("  {:<16} {same} of {total} exact metrics identical", a.name);
    }
    (rows, agree)
}

/// `run` (`times == 1`) and `repeat`. `Ok(false)` when a gate failed
/// or repeated runs disagree.
pub fn run_many(times: usize, names: &[&str], seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all: Vec<Vec<WorkloadRun>> = Vec::new();
    for k in 0..times {
        if times > 1 {
            println!("=== run {} of {times} ===", k + 1);
        }
        all.push(run_once(names, seed, seconds)?);
    }
    let mut ok = all.iter().flatten().all(WorkloadRun::ok);
    let mut tables = Vec::new();
    for (k, later) in all.iter().enumerate().skip(1) {
        println!("=== agreement: run {} against run 1 ===", k + 1);
        let (rows, agree) = agreement(&all[0], later);
        tables.push(Json::Arr(rows));
        ok &= agree;
    }
    let last = all.last().expect("times >= 1");
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("ok".into(), Json::Bool(ok)),
        (
            "workloads".into(),
            Json::Arr(last.iter().map(WorkloadRun::json).collect()),
        ),
        ("agreement".into(), Json::Arr(tables)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: wrote {}",
        if ok {
            "all checks hold"
        } else {
            "CHECKS FAILED"
        },
        path.display()
    );
    Ok(ok)
}
