//! Where a request's host time goes: the daemon's per-phase ledger.
//!
//! Each request line is timed by one [`Laps`] stopwatch from the
//! moment its line is complete until its reply's write returns. Every
//! [`Laps::lap`] closes the phase that ran since the previous lap, so
//! the phases a request passes tile its interval: summed over a
//! snapshot, the phase totals equal the `request` total (up to requests
//! committed concurrently with the snapshot). A request's laps reach
//! the shared [`Ledger`] together, when its write has returned, so a
//! `stats` reply never counts half a request.
//!
//! Per phase the ledger keeps a count, a total and a lock-free
//! log-bucketed histogram (8 sub-buckets per power of two of
//! nanoseconds), from which `stats` reports p50 / p99 within 1/16 of
//! the true value.

use crate::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phases of one request, in the order a request passes them;
/// `Request` is the whole interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Request JSON and, for `run` / `analyze`, the launch request.
    Parse,
    /// Machine lookup, `launch()`, the plan key, the warm-cache probe
    /// and a `run`'s seeded input store.
    Resolve,
    /// Waiting for a launch slot (`run` only: `analyze` takes none).
    Gate,
    /// `execute_blocked_seeded` / `warm_plan`.
    Execute,
    /// Everything after execution up to the reply string: cache
    /// insert, checksum, serialisation (the whole answer for the
    /// commands that do not launch).
    Reply,
    /// The one socket write of the reply line.
    Write,
    /// Line complete to write returned.
    Request,
}

impl Phase {
    const ALL: [Phase; 7] = [
        Phase::Parse,
        Phase::Resolve,
        Phase::Gate,
        Phase::Execute,
        Phase::Reply,
        Phase::Write,
        Phase::Request,
    ];

    fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Resolve => "resolve",
            Phase::Gate => "gate",
            Phase::Execute => "execute",
            Phase::Reply => "reply",
            Phase::Write => "write",
            Phase::Request => "request",
        }
    }
}

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get a bucket each; every power of two from
/// `SUB` up to `2^63` gets `SUB`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket holding `v`.
fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> octave) as usize & (SUB - 1);
    SUB + octave as usize * SUB + sub
}

/// The midpoint of bucket `b`'s range: `SUB + sub` times `2^octave`
/// plus half its width, within 1/16 of every value the bucket holds.
fn midpoint(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let octave = ((b - SUB) / SUB) as u32;
    let sub = ((b - SUB) % SUB) as u64;
    ((SUB as u64 + sub) << octave) + ((1u64 << octave) >> 1)
}

/// A lock-free log-bucketed histogram of nanoseconds.
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        // Relaxed: a statistic, it publishes nothing.
        self.buckets[bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `qs` quantiles (each in `0.0..=1.0`) of one snapshot, so
    /// they are ordered as `qs` is; zeros when nothing was recorded.
    fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        qs.map(|q| {
            if n == 0 {
                return 0;
            }
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let mut seen = 0;
            let b = counts
                .iter()
                .position(|&c| {
                    seen += c;
                    seen >= rank
                })
                .expect("the counts sum to n >= rank");
            midpoint(b)
        })
    }
}

struct PhaseStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: Histogram,
}

/// Per-phase counts, totals and histograms shared by all workers.
pub(crate) struct Ledger {
    phases: [PhaseStat; 7],
}

impl Ledger {
    pub(crate) fn new() -> Ledger {
        Ledger {
            phases: std::array::from_fn(|_| PhaseStat {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                hist: Histogram::new(),
            }),
        }
    }

    fn record(&self, phase: Phase, ns: u64) {
        let s = &self.phases[phase as usize];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.total_ns.fetch_add(ns, Ordering::Relaxed);
        s.hist.record(ns);
    }

    /// `{phase: {count, total_ms, p50_us, p99_us}}` in phase order.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(Phase::ALL.map(|p| {
            let s = &self.phases[p as usize];
            let [p50, p99] = s.hist.quantiles([0.5, 0.99]);
            let json = Json::obj([
                ("count", s.count.load(Ordering::Relaxed).into()),
                (
                    "total_ms",
                    Json::Num(s.total_ns.load(Ordering::Relaxed) as f64 / 1e6),
                ),
                ("p50_us", Json::Num(p50 as f64 / 1e3)),
                ("p99_us", Json::Num(p99 as f64 / 1e3)),
            ]);
            (p.name(), json)
        }))
    }
}

/// One request's stopwatch.
pub(crate) struct Laps {
    start: Instant,
    last: Instant,
    ns: [Option<u64>; 6],
}

impl Laps {
    /// Start timing a request whose line just completed.
    pub(crate) fn start() -> Laps {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
            ns: [None; 6],
        }
    }

    /// Close `phase`: it ran from the previous lap until now.
    pub(crate) fn lap(&mut self, phase: Phase) {
        debug_assert!(phase != Phase::Request, "the request is not a lap");
        let now = Instant::now();
        *self.ns[phase as usize].get_or_insert(0) += nanos(now - self.last);
        self.last = now;
    }

    /// Record the phases this request reached, and the request itself
    /// up to its last lap.
    pub(crate) fn commit(self, ledger: &Ledger) {
        for (p, ns) in Phase::ALL.iter().zip(self.ns) {
            if let Some(ns) = ns {
                ledger.record(*p, ns);
            }
        }
        ledger.record(Phase::Request, nanos(self.last - self.start));
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_in_order_and_midpoints_stay_inside() {
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        let mut prev = 0;
        for v in (0..4096).chain([1 << 40, (1 << 40) + 12_345, u64::MAX / 3, u64::MAX]) {
            let b = bucket(v);
            assert!(b >= prev, "bucket order at {v}");
            prev = b;
            let mid = midpoint(b);
            assert_eq!(bucket(mid), b, "midpoint of bucket {b} lies in it");
            assert!(mid.abs_diff(v) as f64 <= v as f64 / 16.0, "{v} -> {mid}");
        }
    }

    #[test]
    fn quantiles_land_within_an_eighth() {
        let h = Histogram::new();
        assert_eq!(h.quantiles([0.5, 0.99]), [0, 0]);
        // 1..=1000 µs, once each.
        for us in 1..=1000u64 {
            h.record(us * 1000);
        }
        let [p50, p99, max] = h.quantiles([0.5, 0.99, 1.0]);
        for (got, want) in [(p50, 500_000.0), (p99, 990_000.0), (max, 1e6)] {
            assert!((got as f64 / want - 1.0).abs() <= 0.125, "{got} vs {want}");
        }
        // The top bucket neither overflows nor panics.
        h.record(u64::MAX);
        let [top] = h.quantiles([1.0]);
        assert!(top as f64 >= u64::MAX as f64 * 0.875, "{top}");
    }

    #[test]
    fn laps_tile_the_request() {
        let ledger = Ledger::new();
        let mut laps = Laps::start();
        laps.lap(Phase::Parse);
        std::thread::sleep(std::time::Duration::from_millis(2));
        laps.lap(Phase::Reply);
        laps.lap(Phase::Write);
        laps.commit(&ledger);
        let total = |p: Phase| ledger.phases[p as usize].total_ns.load(Ordering::Relaxed);
        let count = |p: Phase| ledger.phases[p as usize].count.load(Ordering::Relaxed);
        let laps: u64 = [Phase::Parse, Phase::Reply, Phase::Write]
            .map(total)
            .iter()
            .sum();
        assert_eq!(laps, total(Phase::Request));
        assert!(total(Phase::Reply) >= 2_000_000);
        assert_eq!(
            [Phase::Resolve, Phase::Gate, Phase::Execute].map(count),
            [0; 3]
        );
        assert_eq!(count(Phase::Request), 1);
    }
}
