//! The block clock: modeled cycles plus the block's DMA channels.
//!
//! Each outer unit owns [`MachineConfig::dma_channels`] channels, the
//! shared [`DmaChannels`] cost model: issuing a [`TransferDescriptor`]
//! picks the least-busy channel and charges `dma_setup_cycles +
//! ceil(bytes / dma_bytes_per_cycle)` (+ the block's NoC route) cycles
//! on it. The block clock issues whole transfer lists through that one
//! descriptor loop, recording [`DmaStats`] as it goes; the returned
//! [`DmaTag`] records the completion cycle, and waiting on it advances
//! the clock (accumulating stall cycles) only if the transfer has not
//! already finished in the shadow of compute. Synchronous staging
//! issues and waits back to back, so every busy cycle is a stall; the
//! double-buffered executor issues ahead and most busy cycles are
//! hidden — the difference is the [`DmaStats::overlap_fraction`].
//!
//! Everything here is deterministic simulated time (integer cycles),
//! so stats survive the executor's sequential-vs-parallel equality
//! test.

use crate::config::MachineConfig;
use crate::json::{counters, Json};
use polymem_core::smem::{DmaChannels, TransferDescriptor, TransferList};

/// Number of log2 buckets in the bytes-per-descriptor histogram
/// (bucket `k` counts descriptors with `bytes in [2^k, 2^(k+1))`;
/// the last bucket absorbs everything larger).
pub const DMA_HIST_BUCKETS: usize = 16;

/// Observability block for a block's DMA channels, absorbed across
/// blocks into [`ExecStats`](crate::ExecStats).
#[derive(Clone, Debug, Default)]
pub struct DmaStats {
    /// Descriptors issued.
    pub descriptors: u64,
    /// Elements moved by those descriptors.
    pub elements: u64,
    /// Bytes moved by those descriptors.
    pub bytes: u64,
    /// Busy cycles per channel (transfer + setup time charged to it).
    pub channel_busy_cycles: Vec<u64>,
    /// Cycles the issuing unit stalled waiting on a tag.
    pub stall_cycles: u64,
    /// Bytes-per-descriptor histogram, log2 buckets
    /// ([`DMA_HIST_BUCKETS`] of them).
    pub bytes_hist: Vec<u64>,
}

counters!(DmaStats {
    descriptors,
    elements,
    bytes,
    channel_busy_cycles,
    stall_cycles,
    bytes_hist,
});

impl DmaStats {
    /// Total busy cycles across all channels.
    pub fn total_busy_cycles(&self) -> u64 {
        self.channel_busy_cycles.iter().sum()
    }

    /// Fraction of DMA busy time hidden behind compute: busy cycles
    /// the issuer did *not* stall for, over all busy cycles. 0.0 for
    /// fully synchronous staging, → 1.0 for perfect overlap.
    pub fn overlap_fraction(&self) -> f64 {
        let busy = self.total_busy_cycles();
        if busy == 0 {
            return 0.0;
        }
        let hidden = busy.saturating_sub(self.stall_cycles);
        hidden as f64 / busy as f64
    }

    /// Mean bytes per descriptor (0 if none were issued).
    pub fn mean_descriptor_bytes(&self) -> f64 {
        if self.descriptors == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.descriptors as f64
    }

    /// Every counter under its field name, plus the two ratios derived
    /// from them that reports quote.
    pub fn to_json(&self) -> Json {
        let mut fields = self.counters();
        fields.push((
            "mean_descriptor_bytes",
            Json::fixed(self.mean_descriptor_bytes(), 2),
        ));
        fields.push(("overlap_fraction", Json::fixed(self.overlap_fraction(), 4)));
        Json::obj(fields)
    }

    /// One-line human-readable summary for `--profile`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "dma: {} descriptors, {} elements, {} B ({:.1} B/desc), overlap {:.1}%, \
             stalls {} cy, busy {} cy on {} channels",
            self.descriptors,
            self.elements,
            self.bytes,
            self.mean_descriptor_bytes(),
            self.overlap_fraction() * 100.0,
            self.stall_cycles,
            self.total_busy_cycles(),
            self.channel_busy_cycles.len(),
        );
        if self.descriptors > 0 {
            s.push_str("\n  bytes/desc histogram:");
            for (k, &n) in self.bytes_hist.iter().enumerate() {
                if n > 0 {
                    s.push_str(&format!(" [2^{k}:{n}]"));
                }
            }
        }
        s
    }
}

/// Handle for an in-flight transfer: which channel it went to and
/// the cycle it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaTag {
    /// Channel index the transfer was queued on.
    pub channel: usize,
    /// Absolute cycle at which the transfer completes.
    pub done: u64,
}

impl DmaTag {
    /// A tag that is already complete (for empty transfer lists).
    pub fn immediate(now: u64) -> DmaTag {
        DmaTag {
            channel: 0,
            done: now,
        }
    }
}

/// Per-block simulated clock: `now` advances with modeled compute
/// cycles and with waits on the block's DMA channels, whose in-flight
/// transfers and counters it owns. Everything is deterministic integer
/// arithmetic, so block stats are identical between sequential and
/// parallel execution.
pub(crate) struct BlockClock<'a> {
    pub(crate) now: u64,
    channels: DmaChannels,
    stats: DmaStats,
    /// DMA modeling enabled (`dma_channels > 0`). When off, movement
    /// costs nothing in modeled time; lists, built for the copy, are
    /// never issued.
    dma_on: bool,
    config: &'a MachineConfig,
}

impl<'a> BlockClock<'a> {
    /// A clock at cycle 0 over idle channels (at least one, even when
    /// the config says 0 and nothing is ever issued), each descriptor
    /// paying `route_cycles` of NoC routing (the block's
    /// placement-determined hop cost; 0 on machines without
    /// placement-priced movement).
    pub(crate) fn new(config: &'a MachineConfig, route_cycles: u64) -> BlockClock<'a> {
        let channels = DmaChannels::new(
            config.dma_channels,
            config.dma_setup_cycles,
            config.dma_bytes_per_cycle,
            route_cycles,
        );
        BlockClock {
            now: 0,
            stats: DmaStats {
                channel_busy_cycles: vec![0; channels.count()],
                bytes_hist: vec![0; DMA_HIST_BUCKETS],
                ..DmaStats::default()
            },
            channels,
            dma_on: config.dma_channels > 0,
            config,
        }
    }

    /// Queue one transfer's DMA list; the transfer starts no earlier
    /// than `earliest` (buffer-reuse dependence on an earlier sub-tile's
    /// move-out) nor before `now`. The tag completes with the list's
    /// last descriptor — at `now` for an empty list or with DMA off.
    pub(crate) fn issue(&mut self, earliest: u64, list: &TransferList) -> DmaTag {
        let mut tag = DmaTag::immediate(self.now);
        if !self.dma_on {
            return tag;
        }
        // The tag is the descriptor that completes last (the first such).
        let (word_bytes, stats) = (self.config.word_bytes, &mut self.stats);
        let mut record = |d: &TransferDescriptor, (ch, cost, done): (usize, u64, u64)| {
            let bytes = d.bytes(word_bytes);
            stats.descriptors += 1;
            stats.elements += d.elements();
            stats.bytes += bytes;
            stats.channel_busy_cycles[ch] += cost;
            stats.bytes_hist[(bytes.max(1).ilog2() as usize).min(DMA_HIST_BUCKETS - 1)] += 1;
            if done > tag.done {
                tag = DmaTag { channel: ch, done };
            }
        };
        let start = self.now.max(earliest);
        self.channels
            .issue_list(list, word_bytes, start, Some(&mut record));
        tag
    }

    /// Queue the DMA list for a residency delta — the only elements
    /// that cross the bus. The local re-base rides the same channel
    /// first: retained atoms move scratchpad-to-scratchpad at 4× the
    /// global DMA rate, delaying the delta's start. The tag therefore
    /// always completes no later than the full transfer it replaces
    /// (the retained bytes leave the 1×-rate payload and come back as
    /// a 4×-rate local copy), in both the synchronous and the
    /// double-buffered schedule.
    pub(crate) fn issue_delta(
        &mut self,
        earliest: u64,
        retained: u64,
        list: &TransferList,
    ) -> DmaTag {
        let start = earliest.max(self.now);
        let mut tag = self.issue(start, list);
        // Re-basing the retained atoms is a scratchpad-local copy at 4x
        // the global DMA rate; it proceeds concurrently with the
        // incoming delta (the two touch disjoint buffer regions), so
        // the group is ready at the max of the two, never the sum.
        if self.dma_on {
            let bytes = (retained * self.config.word_bytes) as f64;
            let rebase = (bytes / (self.config.dma_bytes_per_cycle * 4.0)).ceil() as u64;
            tag.done = tag.done.max(start + rebase);
        }
        tag
    }

    /// Advance the clock to the tag's completion, recording stalls.
    pub(crate) fn wait(&mut self, tag: &DmaTag) {
        if tag.done > self.now {
            self.stats.stall_cycles += tag.done - self.now;
            self.now = tag.done;
        }
    }

    /// The end-of-block fence: wait until every channel is idle, then
    /// hand back the block's modeled cycles and DMA counters.
    pub(crate) fn finish(mut self) -> (u64, DmaStats) {
        self.wait(&DmaTag::immediate(self.channels.idle_at()));
        (self.now, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn desc(elems: i64) -> TransferDescriptor {
        TransferDescriptor {
            global_base: 0,
            local_base: 0,
            elem_count: elems,
            stride: 1,
            n_rows: 1,
            global_row_stride: 0,
            local_stride: 1,
            local_row_stride: 0,
        }
    }

    fn list(descriptors: Vec<TransferDescriptor>) -> TransferList {
        let elements = descriptors.iter().map(|d| d.elements()).sum();
        TransferList {
            descriptors,
            elements,
        }
    }

    fn machine(channels: u64, setup: f64, bpc: f64) -> MachineConfig {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.dma_channels = channels;
        cfg.dma_setup_cycles = setup;
        cfg.dma_bytes_per_cycle = bpc;
        cfg.word_bytes = 4;
        cfg
    }

    #[test]
    fn issue_charges_setup_plus_bandwidth() {
        let cfg = machine(1, 100.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        // 8 elements × 4 B = 32 B → 8 transfer cycles + 100 setup.
        let tag = c.issue(0, &list(vec![desc(8)]));
        assert_eq!(tag.done, 108);
        let (_, stats) = c.finish();
        assert_eq!(stats.descriptors, 1);
        assert_eq!(stats.elements, 8);
        assert_eq!(stats.bytes, 32);
        assert_eq!(stats.total_busy_cycles(), 108);
        // 32 B lands in the 2^5 bucket.
        assert_eq!(stats.bytes_hist[5], 1);
    }

    #[test]
    fn route_cycles_are_charged_per_descriptor() {
        let cfg = machine(1, 100.0, 4.0);
        let mut c = BlockClock::new(&cfg, 7);
        // 100 + 8 + 7 per descriptor; the second queues behind the first.
        assert_eq!(c.issue(0, &list(vec![desc(8)])).done, 115);
        assert_eq!(c.issue(0, &list(vec![desc(8)])).done, 230);
    }

    #[test]
    fn channels_round_robin_by_load() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        let t0 = c.issue(0, &list(vec![desc(4)])); // ch 0, done 14
        let t1 = c.issue(0, &list(vec![desc(4)])); // ch 1, done 14
        assert_ne!(t0.channel, t1.channel);
        // Third transfer queues behind whichever frees first.
        assert_eq!(c.issue(0, &list(vec![desc(4)])).done, 28);
    }

    #[test]
    fn sync_wait_accumulates_stalls_async_hides_them() {
        let cfg = machine(1, 50.0, 4.0);
        // Synchronous: issue, wait immediately → all busy is stalled.
        let mut c = BlockClock::new(&cfg, 0);
        let tag = c.issue(0, &list(vec![desc(4)]));
        c.wait(&tag);
        assert_eq!(c.now, tag.done);
        let (_, stats) = c.finish();
        assert_eq!(stats.stall_cycles, stats.total_busy_cycles());
        assert_eq!(stats.overlap_fraction(), 0.0);
        // Asynchronous: compute long enough to hide the transfer.
        let mut c = BlockClock::new(&cfg, 0);
        let tag = c.issue(0, &list(vec![desc(4)]));
        c.now = 1000; // clock already past completion
        c.wait(&tag);
        let (now, stats) = c.finish();
        assert_eq!(now, 1000);
        assert_eq!(stats.stall_cycles, 0);
        assert_eq!(stats.overlap_fraction(), 1.0);
    }

    #[test]
    fn a_list_completes_with_its_last_descriptor_and_finish_fences() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        let tag = c.issue(0, &list(vec![desc(4), desc(4), desc(4)]));
        assert_eq!(tag.done, 28); // two channels, third queues behind
        assert_eq!(c.now, 0);
        assert_eq!(c.finish().0, 28);
    }

    #[test]
    fn nothing_is_issued_without_channels() {
        let cfg = machine(0, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        c.now = 5;
        assert_eq!(c.issue(0, &list(vec![desc(4)])), DmaTag::immediate(5));
        let (now, stats) = c.finish();
        assert_eq!(now, 5);
        assert_eq!(stats.descriptors, 0);
        assert_eq!(stats.channel_busy_cycles, vec![0]);
    }

    #[test]
    fn absorb_merges_all_fields() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c1 = BlockClock::new(&cfg, 0);
        c1.issue(0, &list(vec![desc(4)]));
        let mut c2 = BlockClock::new(&cfg, 0);
        let t = c2.issue(0, &list(vec![desc(100)]));
        c2.wait(&t);
        let (s1, s2) = (c1.finish().1, c2.finish().1);
        let mut total = DmaStats::default();
        total.absorb(&s1);
        total.absorb(&s2);
        assert_eq!(total.descriptors, 2);
        assert_eq!(total.elements, 104);
        assert_eq!(total.bytes, 416);
        assert_eq!(
            total.total_busy_cycles(),
            s1.total_busy_cycles() + s2.total_busy_cycles()
        );
        assert_eq!(total.stall_cycles, s1.stall_cycles + s2.stall_cycles);
        assert_eq!(
            total.bytes_hist.iter().sum::<u64>(),
            2,
            "every descriptor lands in exactly one histogram bucket"
        );
        assert!(total.render().contains("descriptors"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// "Predicted == simulated whenever counts agree", for the DMA
        /// term: over arbitrary transfer lists, issue times, channel
        /// counts and setup / bandwidth / route values, the completion
        /// cycle the estimator computes with [`DmaChannels`] is the
        /// `done` of the tag the block clock hands back — and with no
        /// channels the clock charges nothing.
        #[test]
        fn estimator_dma_completion_equals_the_clock(
            issues in prop::collection::vec(
                (0u64..500, prop::collection::vec((1i64..200, 1i64..6), 0..6)),
                1..6,
            ),
            channels in 0u64..9,
            setup in 0.0f64..400.0,
            bytes_per_cycle in 0.25f64..32.0,
            route in 0u64..2000,
            word_bytes in 1u64..9,
        ) {
            let mut cfg = machine(channels, setup, bytes_per_cycle);
            cfg.word_bytes = word_bytes;
            let mut clock = BlockClock::new(&cfg, route);
            let mut model = DmaChannels::new(channels, setup, bytes_per_cycle, route);
            for (gap, rows) in &issues {
                clock.now += gap;
                let descriptors: Vec<TransferDescriptor> = rows
                    .iter()
                    .map(|&(elem_count, n_rows)| TransferDescriptor {
                        global_base: 0,
                        local_base: 0,
                        elem_count,
                        stride: 1,
                        n_rows,
                        global_row_stride: elem_count,
                        local_stride: 1,
                        local_row_stride: elem_count,
                    })
                    .collect();
                let list = list(descriptors);
                let predicted = model.issue_list(&list, word_bytes, clock.now, None);
                let simulated = clock.issue(clock.now, &list).done;
                prop_assert_eq!(simulated, if channels == 0 { clock.now } else { predicted });
            }
            let now = clock.now;
            let drained = if channels == 0 { now } else { model.idle_at().max(now) };
            prop_assert_eq!(clock.finish().0, drained);
        }
    }
}
