//! The sub-tile schedule of one thread block, written once.
//!
//! A block runs its sequential sub-tiles `0..n` in order (§4.2); a
//! mapping without them is one sub-tile spanning the block. Per
//! sub-tile `t`, [`Schedule::walk`] decides every step and hands it to
//! a [`Steps`] implementation:
//!
//! 1. *stage* each entry not prefetched yet from its cheapest source:
//!    the §4.2 parked copy when its shape fits, else the residency delta
//!    when `t` directly follows `t − 1`, else the full window, no earlier
//!    than `t − 1`'s move-out drained, and wait for it;
//! 2. under double buffering, *prefetch* each entry of `t + 1`, or
//!    decline it for the first [`Decline`] reason that applies;
//! 3. *wait* for `t`'s prefetches, then *compute*;
//! 4. *move out* each entry: park a hoisted one, else flush only the
//!    residency flush delta when legal and the successor follows, else
//!    the whole footprint; waited on, or flying over `t + 1` under
//!    double buffering;
//!
//! and at block end it writes back the dirty parked copies in array
//! order. The executor implements [`Steps`] with copies and its block
//! clock, the estimator ([`estimate`](super::tune::estimate)) with
//! transfer lists on a bare [`DmaClock`](super::DmaClock): what is
//! priced is what runs.

use super::{AccessId, SymbolicPlan};
use std::collections::{BTreeMap, HashSet};

/// What the schedule knows of a kernel's sequential sub-tiles, decided
/// from the kernel alone for the launch and the estimator alike.
#[derive(Clone, Debug, Default)]
pub struct SeqFacts {
    /// Double buffering engages on sequential sub-tiles.
    pub overlap: bool,
    /// Arrays none of whose accesses depend on the seq dims, ascending.
    pub seq_independent: Vec<usize>,
    /// Reads a seq-carried flow dependence reaches within one block
    /// (found under overlap only): their buffers never prefetch.
    pub stale_reads: HashSet<AccessId>,
}

/// One movement entry as the schedule sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The array its buffer holds; copies are parked per array.
    pub array: usize,
    /// §4.2 hoisting applies ([`SmemPlan::hoists`](super::SmemPlan::hoists)).
    pub hoists: bool,
    /// A stale read is rewritten into the buffer.
    pub poisoned: bool,
    /// The buffer is written ([`SmemPlan::is_written`](super::SmemPlan::is_written)).
    pub written: bool,
    /// Residency retains part of the buffer; flushing only its delta is legal.
    pub retain: Option<bool>,
}

/// One step of the schedule that moves data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transfer {
    /// Stage from the parked copy (scratchpad-local, nothing on the bus).
    Unpark,
    /// Stage by residency: re-base from `t − 1`, fetch the delta.
    Delta,
    /// Stage the full window.
    Window,
    /// Park the buffer past the seq loop (nothing on the bus).
    Park,
    /// Move out the flush delta only; the successor overwrites the rest.
    Flush,
    /// Move out the whole written footprint.
    MoveOut,
    /// Write back the copy sub-tile `t` parked.
    WriteBack,
}

/// Why a prefetch was declined: the first reason that applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decline {
    /// The buffer is written (its move-in may read what `t` writes).
    Written,
    /// A seq-carried flow dependence reaches one of its reads.
    Poisoned,
    /// The copy the computing sub-tile parks serves it for free.
    Parked,
}

/// What one block's walk decided, counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Entries prefetched.
    pub prefetched: u64,
    /// Poisoned entries staged past sub-tile 0 under double buffering.
    pub forced_sync: u64,
    /// Prefetches declined, indexed by [`Decline`].
    pub declined: [u64; 3],
}

/// The steps a [`Schedule`] is walked with: issue one transfer, wait,
/// compute, and answer two shape questions.
pub trait Steps {
    /// What a step fails with.
    type Error;
    /// Give sub-tile `t` its storage: alone, or `beside` the sub-tile
    /// computing while `t` prefetches (two footprints at once).
    fn open(&mut self, t: usize, beside: Option<usize>) -> Result<(), Self::Error>;
    /// Issue entry `mi`'s transfer for sub-tile `t` no earlier than
    /// `earliest`; returns its completion cycle.
    fn transfer(
        &mut self,
        t: usize,
        mi: usize,
        kind: Transfer,
        earliest: u64,
    ) -> Result<u64, Self::Error>;
    /// Wait until cycle `done`.
    fn wait(&mut self, done: u64);
    /// Compute sub-tile `t`; returns the cycle it ends on.
    fn compute(&mut self, t: usize) -> Result<u64, Self::Error>;
    /// Entry `mi`'s buffer has the same extents and offsets at
    /// sub-tiles `a` and `b`: a copy `a` parks fits `b`.
    fn fits(&self, mi: usize, a: usize, b: usize) -> bool;
    /// Sub-tile `t` directly follows `t − 1` along the residency dim,
    /// every other coordinate equal.
    fn follows(&self, t: usize) -> bool;
}

/// A launch's sub-tile schedule.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Double buffering engages ([`SeqFacts::overlap`]).
    pub overlap: bool,
    /// Per movement entry of the plan.
    pub entries: Vec<Entry>,
}

impl Schedule {
    /// The schedule of `sp`'s movement entries for a kernel with `facts`.
    pub fn new(sp: &SymbolicPlan, facts: &SeqFacts) -> Schedule {
        let plan = &sp.plan;
        let entries = plan.movement.iter().map(|mc| {
            let rp = sp.residency.as_ref().and_then(|r| r.plans.get(&mc.buffer));
            Entry {
                array: plan.buffers[mc.buffer].array,
                hoists: plan.hoists(mc.buffer, &facts.seq_independent),
                poisoned: (plan.rewrites.iter())
                    .any(|(id, la)| la.buffer == mc.buffer && facts.stale_reads.contains(id)),
                written: plan.is_written(mc.buffer),
                retain: rp.map(|rp| rp.flush_legal),
            }
        });
        Schedule {
            overlap: facts.overlap,
            entries: entries.collect(),
        }
    }

    /// Walk a block of `n` sub-tiles through `s` (see the module docs).
    pub fn walk<S: Steps>(&self, n: usize, s: &mut S) -> Result<Tally, S::Error> {
        let overlap = self.overlap && n > 1;
        let mut tally = Tally::default();
        // Per array: the parked copy's entry, sub-tile and dirtiness.
        let mut parked = BTreeMap::new();
        // Per entry, when its prefetch for `t` lands (none without overlap).
        let (mut landing, mut next) = (Vec::new(), Vec::new());
        // When `t − 1`'s move-out drained: its writes are in global
        // memory and its buffer slots are free.
        let mut out_done = 0;
        for t in 0..n {
            if t == 0 || !overlap {
                s.open(t, None)?;
            }
            for (mi, e) in self.entries.iter().enumerate() {
                if landing.get(mi).is_some_and(Option::is_some) {
                    continue;
                }
                if let Some(done) = self.stage(s, &mut parked, t, mi, false, out_done)? {
                    s.wait(done);
                    tally.forced_sync += u64::from(t > 0 && overlap && !e.hoists && e.poisoned);
                }
            }
            next.clear();
            if overlap && t + 1 < n {
                next.resize(self.entries.len(), None);
                s.open(t + 1, Some(t))?;
                for (mi, e) in self.entries.iter().enumerate() {
                    let decline = [
                        (e.written, Decline::Written),
                        (e.poisoned, Decline::Poisoned),
                        (e.hoists && s.fits(mi, t, t + 1), Decline::Parked),
                    ];
                    match decline.into_iter().find(|(applies, _)| *applies) {
                        Some((_, why)) => tally.declined[why as usize] += 1,
                        None => {
                            next[mi] = self.stage(s, &mut parked, t + 1, mi, true, out_done)?;
                            tally.prefetched += 1;
                        }
                    }
                }
            }
            for &done in landing.iter().flatten() {
                s.wait(done);
            }
            out_done = s.compute(t)?;
            for (mi, e) in self.entries.iter().enumerate() {
                if e.hoists {
                    let dirty = e.written || parked.get(&e.array).is_some_and(|p| p.2);
                    s.transfer(t, mi, Transfer::Park, 0)?;
                    parked.insert(e.array, (mi, t, dirty));
                    continue;
                }
                let flush = e.retain == Some(true) && t + 1 < n && s.follows(t + 1);
                let kind = if flush {
                    Transfer::Flush
                } else {
                    Transfer::MoveOut
                };
                let done = s.transfer(t, mi, kind, 0)?;
                if !overlap {
                    s.wait(done);
                }
                out_done = out_done.max(done);
            }
            std::mem::swap(&mut landing, &mut next);
        }
        for &(mi, at, _) in parked.values().filter(|p| p.2) {
            let done = s.transfer(at, mi, Transfer::WriteBack, 0)?;
            s.wait(done);
        }
        Ok(tally)
    }

    /// Stage entry `mi` of sub-tile `t` from its cheapest source, no
    /// earlier than `earliest`; `None` when the parked copy served it. A
    /// `prefetch` runs before `t − 1` moves out, so it never takes the
    /// parked copy, which `t − 1` re-parks.
    fn stage<S: Steps>(
        &self,
        s: &mut S,
        parked: &mut BTreeMap<usize, (usize, usize, bool)>,
        t: usize,
        mi: usize,
        prefetch: bool,
        earliest: u64,
    ) -> Result<Option<u64>, S::Error> {
        let e = &self.entries[mi];
        let fits = e.hoists && parked.get(&e.array).is_some_and(|p| s.fits(mi, p.1, t));
        if fits && !prefetch {
            s.transfer(t, mi, Transfer::Unpark, earliest)?;
            return Ok(None);
        }
        // A parked copy that fits is cheaper than any delta.
        let resident = !fits && t > 0 && e.retain.is_some() && s.follows(t);
        // A stale parked copy reaches global memory before the move-in
        // reads it; a prefetched full window leaves it alone.
        if e.hoists && !fits && (resident || !prefetch) {
            if let Some((mi, at, _)) = parked.remove(&e.array).filter(|p| p.2) {
                let done = s.transfer(at, mi, Transfer::WriteBack, 0)?;
                s.wait(done);
            }
        }
        let kind = if resident {
            Transfer::Delta
        } else {
            Transfer::Window
        };
        s.transfer(t, mi, kind, earliest).map(Some)
    }
}
