//! Where host time goes: the one ledger type of the workspace.
//!
//! A [`Ledger`] is indexed by a fixed row set ([`Rows`]): the §3
//! compiler passes and executor phases of the
//! [`PassProfiler`](crate::PassProfiler), or the request phases of the
//! compile service. Per row it keeps a count, a total and a lock-free
//! log-bucketed histogram (8 sub-buckets per power of two of
//! nanoseconds), from which [`Ledger::to_json`] reports p50 / p99
//! within 1/16 of the true value. Any number of threads may record
//! into one shared ledger.
//!
//! A [`Laps`] stopwatch times one interval whose phases tile it: every
//! [`Laps::lap`] closes the phase that ran since the previous lap, so
//! summed over a snapshot the phase totals equal the whole interval's
//! (up to intervals committed concurrently with the snapshot). An
//! interval's laps reach the ledger together, at [`Laps::commit`], so a
//! snapshot never counts half an interval.

use crate::json::Json;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The row set a [`Ledger`] is indexed by.
pub trait Rows: Copy + 'static {
    /// Every row, in report order.
    const ALL: &'static [Self];
    /// The row's position in [`Rows::ALL`].
    fn index(self) -> usize;
    /// The row's name in reports.
    fn name(self) -> &'static str;
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

struct Tally {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: Histogram,
}

/// Per-row counts, totals and histograms, shared by every thread that
/// records into it.
pub struct Ledger<R> {
    rows: Box<[Tally]>,
    _rows: PhantomData<R>,
}

impl<R: Rows> Default for Ledger<R> {
    fn default() -> Self {
        Ledger::new()
    }
}

impl<R: Rows> Ledger<R> {
    /// A fresh, all-zero ledger.
    pub fn new() -> Ledger<R> {
        Ledger {
            rows: R::ALL
                .iter()
                .map(|_| Tally {
                    count: AtomicU64::new(0),
                    total_ns: AtomicU64::new(0),
                    hist: Histogram::new(),
                })
                .collect(),
            _rows: PhantomData,
        }
    }

    /// Record one timed occurrence of `row`.
    pub fn record(&self, row: R, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let t = &self.rows[row.index()];
        t.count.fetch_add(1, Ordering::Relaxed);
        t.total_ns.fetch_add(ns, Ordering::Relaxed);
        t.hist.record(ns);
    }

    /// Occurrences of `row` recorded so far.
    pub fn count(&self, row: R) -> u64 {
        self.rows[row.index()].count.load(Ordering::Relaxed)
    }

    /// Time recorded against `row` so far.
    pub fn total(&self, row: R) -> Duration {
        Duration::from_nanos(self.rows[row.index()].total_ns.load(Ordering::Relaxed))
    }

    /// `{row: {count, total_ms, p50_us, p99_us}}` in row order.
    pub fn to_json(&self) -> Json {
        Json::obj(R::ALL.iter().map(|&r| {
            let [p50, p99] = self.rows[r.index()].hist.quantiles([0.5, 0.99]);
            let json = Json::obj([
                ("count", self.count(r).into()),
                ("total_ms", Json::Num(self.total(r).as_nanos() as f64 / 1e6)),
                ("p50_us", Json::Num(p50 as f64 / 1e3)),
                ("p99_us", Json::Num(p99 as f64 / 1e3)),
            ]);
            (r.name(), json)
        }))
    }
}

/// One interval's stopwatch.
pub struct Laps<R> {
    start: Instant,
    last: Instant,
    laps: Vec<Option<Duration>>,
    _rows: PhantomData<R>,
}

impl<R: Rows> Laps<R> {
    /// Start timing an interval now.
    pub fn start() -> Laps<R> {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
            laps: vec![None; R::ALL.len()],
            _rows: PhantomData,
        }
    }

    /// Close `row`: it ran from the previous lap until now.
    pub fn lap(&mut self, row: R) {
        let now = Instant::now();
        *self.laps[row.index()].get_or_insert(Duration::ZERO) += now - self.last;
        self.last = now;
    }

    /// Record the rows this interval reached, and the interval itself
    /// up to its last lap as `whole`.
    pub fn commit(self, ledger: &Ledger<R>, whole: R) {
        debug_assert!(self.laps[whole.index()].is_none(), "the whole is not a lap");
        for (&r, lap) in R::ALL.iter().zip(self.laps) {
            if let Some(d) = lap {
                ledger.record(r, d);
            }
        }
        ledger.record(whole, self.last - self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Leg {
        Parse,
        Work,
        Write,
        Idle,
        Whole,
    }

    impl Rows for Leg {
        const ALL: &'static [Leg] = &[Leg::Parse, Leg::Work, Leg::Write, Leg::Idle, Leg::Whole];
        fn index(self) -> usize {
            self as usize
        }
        fn name(self) -> &'static str {
            ["parse", "work", "write", "idle", "whole"][self as usize]
        }
    }

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
    fn laps_tile_the_interval() {
        let ledger = Ledger::new();
        let mut laps = Laps::start();
        laps.lap(Leg::Parse);
        std::thread::sleep(Duration::from_millis(2));
        laps.lap(Leg::Work);
        laps.lap(Leg::Write);
        laps.commit(&ledger, Leg::Whole);
        let sum: Duration = [Leg::Parse, Leg::Work, Leg::Write]
            .map(|r| ledger.total(r))
            .iter()
            .sum();
        assert_eq!(sum, ledger.total(Leg::Whole));
        assert!(ledger.total(Leg::Work) >= Duration::from_millis(2));
        assert_eq!(ledger.count(Leg::Idle), 0);
        assert_eq!(ledger.count(Leg::Whole), 1);
        let json = ledger.to_json();
        let idle = json.get("idle").expect("every row is reported");
        assert_eq!(idle.get("count").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn ledger_is_shareable_across_threads() {
        let ledger = Ledger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        ledger.record(Leg::Work, Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(ledger.count(Leg::Work), 400);
        assert_eq!(ledger.total(Leg::Work), Duration::from_nanos(4000));
    }
}
