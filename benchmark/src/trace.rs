//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The library is not instrumented: a span here is opened and closed
//! by the benchmark's own code on either side of a public call. Spans
//! stay in memory and are written out once, when the traced pass ends.

use crate::api::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-metric name (`smem.plan`, `exec.run`, …) or a structural
    /// name (`sweep`, `op:<case>`, `probe:<what>`).
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The sweep the span belongs to: spans of one sweep share it.
    pub sweep: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// An in-memory span recorder for one thread. Disabled tracers record
/// nothing, so the untraced pass pays one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    sweep: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            stack: Vec::new(),
            sweep: 0,
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on carry this sweep identifier.
    pub fn set_sweep(&mut self, sweep: u64) {
        self.sweep = sweep;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's index (`None` when
    /// tracing is off).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Option<usize>) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            sweep: self.sweep,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        (out, Some(id))
    }

    /// [`span`](Tracer::span) for a leaf: `f` opens no spans itself.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f()).0
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                kids[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(lo, hi) in k.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Structural spans group work; every other span names a layer.
fn structural(name: &str) -> bool {
    name == "sweep" || name.starts_with("op:") || name.starts_with("probe:")
}

/// Share of the sweeps' time that ends up inside a layer span: 100 ·
/// (1 − self time of structural spans ÷ duration of the `sweep`
/// spans). What is left over is time the ledger cannot name.
pub fn cover_pct(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let sweeps: u64 = spans
        .iter()
        .filter(|s| s.name == "sweep")
        .map(Span::dur_ns)
        .sum();
    if sweeps == 0 {
        return 0.0;
    }
    let unnamed: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| structural(&s.name))
        .map(|(_, t)| *t)
        .sum();
    100.0 * (1.0 - unnamed as f64 / sweeps as f64)
}

/// A `pick` for [`per_group_ms`] that accepts exactly `name`.
pub fn named(name: &'static str) -> impl Fn(&str) -> bool {
    move |n| n == name
}

/// For every span named `group`, in recording order, the summed
/// duration in ms of the spans below it whose name `pick` accepts —
/// the samples a per-layer timing's median is taken over.
pub fn per_group_ms(spans: &[Span], group: &str, pick: impl Fn(&str) -> bool) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<usize, f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == group)
        .map(|(i, _)| (i, 0.0))
        .collect();
    for s in spans.iter().filter(|s| pick(&s.name)) {
        let mut up = s.parent;
        while let Some(p) = up {
            if let Some(t) = sums.get_mut(&p) {
                *t += s.dur_ms();
                break;
            }
            up = spans[p].parent;
        }
    }
    sums.into_values().collect()
}

/// The trace file: one object per span.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(i, (s, self_ns))| {
            Json::Obj(vec![
                ("id".into(), Json::Num(i as f64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(*self_ns as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("sweep".into(), Json::Num(s.sweep as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("spans".into(), Json::Arr(rows)),
    ])
}

/// Append another thread's spans (parents re-indexed).
pub fn merge(into: &mut Vec<Span>, from: Vec<Span>) {
    let base = into.len();
    into.extend(from.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start: u64, end: u64, parent: Option<usize>, sweep: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            sweep,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips() {
        let spans = vec![
            sp("sweep", 0, 100, None, 0),
            sp("op:a", 10, 90, Some(0), 0),
            sp("smem.plan", 10, 30, Some(1), 0),
            sp("exec.run", 30, 80, Some(1), 0),
            // Overlaps exec.run and sticks out past its parent.
            sp("check", 70, 95, Some(1), 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 20, "sweep minus op");
        // Children cover [10,30] ∪ [30,80] ∪ [70,90] = 80 of op's 80.
        assert_eq!(st[1], 0);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 50);
        assert_eq!(st[4], 25, "leaves keep their full duration");
    }

    #[test]
    fn cover_counts_only_structural_self_time() {
        let spans = vec![
            sp("sweep", 0, 100, None, 0),
            sp("op:a", 0, 100, Some(0), 0),
            sp("exec.run", 5, 95, Some(1), 0),
        ];
        assert!((cover_pct(&spans) - 90.0).abs() < 1e-9);
        assert_eq!(cover_pct(&[]), 0.0);
    }

    #[test]
    fn per_group_sums_follow_the_parent_chain() {
        let spans = vec![
            sp("sweep", 0, 50, None, 0),
            sp("op:a", 0, 9, Some(0), 0),
            sp("exec.run", 0, 2_000_000, Some(1), 0),
            sp("exec.run", 0, 3_000_000, Some(0), 0),
            sp("sweep", 50, 90, None, 1),
            sp("exec.run", 0, 4_000_000, Some(4), 1),
            sp("sweep", 90, 99, None, 2),
            // Not below any sweep: counted nowhere.
            sp("exec.run", 0, 8_000_000, None, 2),
            sp("setup", 0, 10, None, 0),
            sp("exec.run", 0, 1_000_000, Some(8), 0),
        ];
        let run = || named("exec.run");
        assert_eq!(per_group_ms(&spans, "sweep", run()), vec![5.0, 4.0, 0.0]);
        assert_eq!(per_group_ms(&spans, "setup", run()), vec![1.0]);
        assert_eq!(
            per_group_ms(&spans, "sweep", |n| n.starts_with("op:")),
            vec![9e-6, 0.0, 0.0]
        );
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_sweep(7);
        let (v, id) = t.span("sweep", |t| {
            t.leaf("exec.run", || 41) + t.span("op:x", |t| t.leaf("check", || 1)).0
        });
        assert_eq!((v, id), (42, Some(0)));
        let names: Vec<_> = t.spans.iter().map(|s| (&s.name[..], s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("sweep", None),
                ("exec.run", Some(0)),
                ("op:x", Some(0)),
                ("check", Some(2))
            ]
        );
        assert!(t
            .spans
            .iter()
            .all(|s| s.sweep == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("sweep", |t| t.leaf("x", || 5)), (5, None));
        assert!(off.spans.is_empty());
    }

    #[test]
    fn merge_reindexes_parents() {
        let mut a = vec![sp("sweep", 0, 1, None, 0)];
        merge(
            &mut a,
            vec![sp("sweep", 0, 1, None, 1), sp("x", 0, 1, Some(0), 1)],
        );
        assert_eq!(a[2].parent, Some(1));
    }
}
