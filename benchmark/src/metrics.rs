//! The metric vocabulary (kept in step with `BENCHMARK.json` by a
//! test) and the report one pass of one workload fills in.

use crate::api::Json;
use crate::stats;

/// A declared metric: `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

/// What a user of polymem sees. Every workload reports all of them
/// from its untraced pass, in its own terms (see the README table).
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", "lower"),
    ("sweep_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("modeled_cycles", "cycles", "lower"),
    ("global_traffic_bytes", "bytes", "lower"),
];

/// Share of the earlier value by which each end-to-end metric may get
/// worse, in [`END_TO_END`] order (the `bound`s of `BENCHMARK.json`).
/// The two modeled-clock metrics are deterministic: `repeat` holds
/// them to exact equality whatever their bound says.
pub const BOUNDS: [f64; 5] = [0.25, 0.15, 0.15, 0.001, 0.001];

/// What single layers do, from the traced pass. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[Decl] = &[
    // polycore = polymem-poly (+ polymem-linalg)
    ("polycore.core_ms", "ms", "lower"),
    ("polycore.memo_hit_ratio", "ratio", "higher"),
    ("polycore.fm_rows", "count", "lower"),
    ("polycore.fm_pruned", "count", "lower"),
    // smem = polymem_core::smem §3 passes and symbolic plan
    ("smem.plan_ms", "ms", "lower"),
    ("smem.pass_ms.dataspace", "ms", "lower"),
    ("smem.pass_ms.partition", "ms", "lower"),
    ("smem.pass_ms.reuse", "ms", "lower"),
    ("smem.pass_ms.alloc", "ms", "lower"),
    ("smem.pass_ms.movement", "ms", "lower"),
    ("smem.pass_ms.hierarchy", "ms", "lower"),
    ("smem.buffers", "count", "lower"),
    ("smem.buffer_words", "words", "lower"),
    // artifact = smem::artifact store/codec
    ("artifact.save_us", "us", "lower"),
    ("artifact.load_us", "us", "lower"),
    ("artifact.bytes", "bytes", "lower"),
    // ir = polymem-ir store + reference interpreter
    ("ir.store_init_ms", "ms", "lower"),
    ("ir.reference_ms", "ms", "lower"),
    // exec = polymem_machine::{exec,compiled,overlay}, host side
    ("exec.run_ms", "ms", "lower"),
    ("exec.movein_cpu_ms", "ms", "lower"),
    ("exec.compute_cpu_ms", "ms", "lower"),
    ("exec.moveout_cpu_ms", "ms", "lower"),
    ("exec.merge_cpu_ms", "ms", "lower"),
    ("exec.cpu_over_wall", "ratio", "lower"),
    ("exec.instances_per_s", "1/s", "higher"),
    ("exec.blocks", "count", "lower"),
    ("exec.phases", "count", "lower"),
    ("exec.compiled_share", "ratio", "higher"),
    ("exec.fallbacks", "count", "lower"),
    ("exec.plan_cache_hits", "count", "higher"),
    ("exec.plan_cache_misses", "count", "lower"),
    // model = the modeled clock and its counters
    ("model.cycles.me", "cycles", "lower"),
    ("model.cycles.jacobi", "cycles", "lower"),
    ("model.cycles.jacobi2d", "cycles", "lower"),
    ("model.cycles.matmul", "cycles", "lower"),
    ("model.cycles.conv2d", "cycles", "lower"),
    ("model.block_cycles", "cycles", "lower"),
    ("model.moved_in_elems", "count", "lower"),
    ("model.moved_out_elems", "count", "lower"),
    ("model.retained_elems", "count", "higher"),
    ("model.delta_elems", "count", "lower"),
    ("model.smem_loads_saved", "count", "higher"),
    ("model.reg_bytes_moved", "bytes", "lower"),
    ("model.max_smem_words", "words", "lower"),
    ("model.predicted_global_bytes", "bytes", "lower"),
    ("dma.descriptors", "count", "lower"),
    ("dma.bytes", "bytes", "lower"),
    ("dma.stall_cycles", "cycles", "lower"),
    ("dma.busy_cycles", "cycles", "lower"),
    ("dma.overlap_fraction", "ratio", "higher"),
    // tune = polymem_machine::tune + smem::tune::estimate
    ("tune.price_ms", "ms", "lower"),
    ("tune.structure_ms", "ms", "lower"),
    ("tune.plan_ms", "ms", "lower"),
    ("tune.estimate_ms", "ms", "lower"),
    ("tune.simulate_cpu_ms", "ms", "lower"),
    ("tune.simulate_ms", "ms", "lower"),
    ("tune.reference_ms", "ms", "lower"),
    ("tune.candidates", "count", "lower"),
    ("tune.simulated", "count", "lower"),
    ("tune.infeasible", "count", "lower"),
    ("tune.prune_ratio", "ratio", "higher"),
    ("tune.spearman", "ratio", "higher"),
    ("tune.winner_pred_err", "ratio", "lower"),
    // serve = polymem-serve
    ("serve.run_ms", "ms", "lower"),
    ("serve.analyze_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.exec_ms", "ms", "lower"),
    ("serve.ping_ms", "ms", "lower"),
    ("serve.json_us", "us", "lower"),
    ("serve.seeded_share", "ratio", "higher"),
    ("serve.fresh_plans", "count", "lower"),
    ("serve.lru_hits", "count", "higher"),
    ("serve.lru_misses", "count", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.errors", "count", "lower"),
    // support
    ("proc.peak_rss_mb", "MB", "lower"),
    ("host.nproc", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("ledger.cover_pct", "%", "higher"),
    ("ledger.sum_gap_pct", "%", "lower"),
];

/// How two runs of the same code are expected to agree on a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host-clock measurement: noisy, compared against a bound.
    Time,
    /// Deterministic count or modeled quantity: must repeat exactly.
    Count,
    /// Reported for context (depends on how much work fitted into the
    /// window, or on the host); not compared.
    Info,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Time => "time",
            Kind::Count => "count",
            Kind::Info => "info",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Time, Kind::Count, Kind::Info]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    /// The median for timings taken over samples, else the value.
    pub value: f64,
    /// Samples behind `value` (1 for counts and derived values).
    pub samples: usize,
    /// First and third quartile of the samples.
    pub quartiles: Option<(f64, f64)>,
    /// `(percentile, value)`: the highest percentile with at least
    /// ten samples beyond it.
    pub hi: Option<(f64, f64)>,
}

fn decl(name: &str) -> Option<Decl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.0 == name)
        .copied()
}

impl Metric {
    pub fn json(&self) -> Json {
        let mut f = vec![
            ("name".to_string(), Json::Str(self.name.into())),
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::Str(self.unit.into())),
            ("kind".to_string(), Json::Str(self.kind.label().into())),
            ("samples".to_string(), Json::Num(self.samples as f64)),
        ];
        if let Some((q1, q3)) = self.quartiles {
            f.push(("q1".to_string(), Json::Num(q1)));
            f.push(("q3".to_string(), Json::Num(q3)));
        }
        if let Some((pct, v)) = self.hi {
            f.push(("hi_pct".to_string(), Json::Num(pct)));
            f.push(("hi".to_string(), Json::Num(v)));
        }
        Json::Obj(f)
    }

    /// The inverse of [`json`](Metric::json); `None` for a malformed
    /// object or an undeclared name.
    pub fn from_json(m: &Json) -> Option<Metric> {
        let num = |key| crate::api::num(m, key);
        let (name, unit, _) = decl(m.get("name")?.as_str()?)?;
        Some(Metric {
            name,
            unit,
            kind: Kind::parse(m.get("kind")?.as_str()?)?,
            value: num("value")?,
            samples: num("samples")? as usize,
            quartiles: num("q1").zip(num("q3")),
            hi: num("hi_pct").zip(num("hi")),
        })
    }
}

/// The metrics one pass of one workload produced.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, kind: Kind, value: f64, samples: &[f64]) {
        let (name, unit, _) =
            decl(name).unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"));
        assert!(
            self.get(name).is_none(),
            "metric `{name}` reported twice in one pass"
        );
        self.metrics.push(Metric {
            name,
            unit,
            kind,
            // JSON has no NaN or infinity; a ratio over nothing is 0.
            value: if value.is_finite() { value } else { 0.0 },
            samples: samples.len(),
            quartiles: stats::quartiles(samples),
            hi: stats::hi_percentile(samples),
        });
    }

    /// A timing: the median of `samples`, with its high percentile.
    pub fn time(&mut self, name: &str, samples: &[f64]) {
        self.push(name, Kind::Time, stats::median(samples), samples);
    }

    /// A timing derived from other timings (a ratio, a difference).
    pub fn time_value(&mut self, name: &str, value: f64) {
        self.push(name, Kind::Time, value, &[value]);
    }

    /// A value that must repeat exactly on the same code.
    pub fn count(&mut self, name: &str, value: f64) {
        self.push(name, Kind::Count, value, &[value]);
    }

    /// A value reported for context only.
    pub fn info(&mut self, name: &str, value: f64) {
        self.push(name, Kind::Info, value, &[value]);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    /// Report 0 for every declared metric of `set` the pass left out:
    /// the layer was not exercised by this workload.
    pub fn fill_unexercised(&mut self, set: &[Decl]) {
        for (name, _, _) in set {
            if self.get(name).is_none() {
                self.push(name, Kind::Info, 0.0, &[]);
            }
        }
    }

    /// The `metrics` object of the result line: exactly the declared
    /// `set`, in declaration order.
    pub fn contract_json(&self, set: &[Decl]) -> Json {
        Json::Obj(
            set.iter()
                .map(|(name, unit, _)| {
                    let m = self
                        .get(name)
                        .unwrap_or_else(|| panic!("declared metric `{name}` was not measured"));
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Everything, with kind, sample count, quartiles and high
    /// percentile: what `run` and `repeat` read back from a child pass.
    pub fn detail_json(&self) -> Json {
        Json::Arr(self.metrics.iter().map(Metric::json).collect())
    }

    /// One line per measured metric: name, value, unit, sample count,
    /// and — where there are enough samples — quartiles and high
    /// percentile. Layers the workload does not reach are only counted.
    pub fn print(&self) {
        let idle = self.metrics.iter().filter(|m| m.samples == 0).count();
        if idle > 0 {
            println!("  ({idle} metrics of layers this workload does not reach: 0)");
        }
        for m in self.metrics.iter().filter(|m| m.samples > 0) {
            let mut hi = m.quartiles.map_or(String::new(), |(q1, q3)| {
                format!("  q1..q3={}..{}", fmt_value(q1), fmt_value(q3))
            });
            if let Some((pct, v)) = m.hi {
                hi.push_str(&format!("  p{pct:.1}={}", fmt_value(v)));
            }
            println!(
                "  {:<30} {:>16} {:<6} [{}] n={}{hi}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.kind.label(),
                m.samples
            );
        }
    }
}

/// Whole numbers without a fraction, everything else to 4 places.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` and the tables above name the same metrics,
    /// with the same units and directions; names are unique and well
    /// formed; every declared name comes out of the result line.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let mut seen = BTreeSet::new();
        for (key, table, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("`{key}` is a list");
            };
            assert_eq!(items.len(), table.len(), "{key}: same number of metrics");
            for (item, (name, unit, better)) in items.iter().zip(table) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(*name));
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(item.get("better").and_then(Json::as_str), Some(*better));
                assert!(name_ok(name), "name `{name}`");
                assert!(unit_ok(unit), "unit `{unit}`");
                assert!(seen.insert(*name), "`{name}` is declared twice");
                let bound = crate::api::num(item, "bound");
                assert_eq!(bound.is_some(), bounded, "`{name}`: bound");
                if let Some(b) = bound {
                    let i = END_TO_END.iter().position(|d| d.0 == *name).unwrap();
                    assert_eq!(b, BOUNDS[i], "`{name}`: bound");
                    assert!((0.0..=0.25).contains(&b));
                }
            }
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("`workloads` is a list");
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        for n in names {
            assert!(name_ok(n) && seen.insert(n), "workload `{n}`");
        }

        // Every declared name is emitted: a pass that measured nothing
        // but the end-to-end set still prints all of either table.
        let mut r = Report::default();
        for (name, _, _) in END_TO_END {
            r.time(name, &[1.5, 2.5]);
        }
        r.fill_unexercised(PER_LAYER);
        for set in [END_TO_END, PER_LAYER] {
            let Json::Obj(fields) = r.contract_json(set) else {
                unreachable!()
            };
            let emitted: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<_> = set.iter().map(|d| d.0).collect();
            assert_eq!(emitted, declared);
        }
    }

    #[test]
    fn report_takes_medians_and_refuses_undeclared_or_repeated_names() {
        let mut r = Report::default();
        r.time("sweep_ms", &[3.0, 1.0, 2.0]);
        r.count("modeled_cycles", 12.0);
        r.time_value("exec.cpu_over_wall", f64::NAN);
        assert_eq!(r.value("sweep_ms"), 2.0);
        assert_eq!(r.get("sweep_ms").unwrap().samples, 3);
        assert_eq!(r.value("exec.cpu_over_wall"), 0.0, "non-finite becomes 0");
        assert_eq!(r.value("never.reported"), 0.0);
        assert!(std::panic::catch_unwind(|| Report::default().count("no.such", 1.0)).is_err());
        assert!(std::panic::catch_unwind(move || r.count("modeled_cycles", 1.0)).is_err());
    }

    #[test]
    fn metrics_round_trip_through_the_detail_line() {
        let mut r = Report::default();
        r.time("sweep_ms", &(1..=25).map(f64::from).collect::<Vec<_>>());
        r.count("modeled_cycles", 7.0);
        let Json::Arr(items) = Json::parse(&r.detail_json().to_string()).unwrap() else {
            unreachable!()
        };
        let back: Vec<Metric> = items
            .iter()
            .map(|m| Metric::from_json(m).unwrap())
            .collect();
        assert_eq!(back[0].value, 13.0);
        assert_eq!((back[0].samples, back[0].kind), (25, Kind::Time));
        assert_eq!(back[0].quartiles, r.metrics[0].quartiles);
        assert_eq!(back[0].hi, Some((60.0, 15.0)));
        assert_eq!((back[1].kind, back[1].hi), (Kind::Count, None));
        let alien =
            Json::parse(r#"{"name":"no.such","value":1,"unit":"s","kind":"time","samples":1}"#);
        assert!(Metric::from_json(&alien.unwrap()).is_none());
    }

    #[test]
    fn kinds_round_trip_through_their_labels() {
        for k in [Kind::Time, Kind::Count, Kind::Info] {
            assert_eq!(Kind::parse(k.label()), Some(k));
        }
        assert_eq!(Kind::parse("speed"), None);
    }
}
