//! The block clock's counters.
//!
//! Each outer unit owns [`MachineConfig::dma_channels`] channels of the
//! shared [`DmaClock`] cost model: issuing a [`TransferDescriptor`]
//! picks the least-busy channel and charges `dma_setup_cycles +
//! ceil(bytes / dma_bytes_per_cycle)` (+ the block's NoC route) cycles
//! on it. A block issues whole transfer lists through that one
//! descriptor loop, recording [`DmaStats`] as it goes; an issue returns
//! the completion cycle, and waiting on it advances the clock
//! (accumulating stall cycles) only if the transfer has not already
//! finished in the shadow of compute. Synchronous staging
//! issues and waits back to back, so every busy cycle is a stall; the
//! double-buffered executor issues ahead and most busy cycles are
//! hidden — the difference is the [`DmaStats::overlap_fraction`].
//!
//! Everything here is deterministic simulated time (integer cycles),
//! so stats survive the executor's sequential-vs-parallel equality
//! test.

use crate::json::{counters, Json};
use polymem_core::smem::TransferDescriptor;
#[cfg(doc)]
use {crate::MachineConfig, polymem_core::smem::DmaClock};

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

impl DmaStats {
    /// Zeroed counters for a block over `channels` channels.
    pub(crate) fn for_channels(channels: usize) -> DmaStats {
        DmaStats {
            channel_busy_cycles: vec![0; channels],
            bytes_hist: vec![0; DMA_HIST_BUCKETS],
            ..DmaStats::default()
        }
    }

    /// Count one descriptor of `word_bytes`-wide elements that kept
    /// channel `ch` busy for `cost` cycles ([`DmaClock::issue`]'s
    /// observer).
    pub(crate) fn record(&mut self, d: &TransferDescriptor, word_bytes: u64, ch: usize, cost: u64) {
        let bytes = d.bytes(word_bytes);
        self.descriptors += 1;
        self.elements += d.elements();
        self.bytes += bytes;
        self.channel_busy_cycles[ch] += cost;
        self.bytes_hist[(bytes.max(1).ilog2() as usize).min(DMA_HIST_BUCKETS - 1)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use polymem_core::smem::{DmaClock, TransferList};
    use proptest::prelude::*;

    /// A block's clock and DMA counters, kept as the executor keeps them.
    struct BlockClock {
        clock: DmaClock,
        stats: DmaStats,
        word_bytes: u64,
    }

    impl BlockClock {
        fn new(cfg: &MachineConfig, route: u64) -> BlockClock {
            let (channels, setup) = (cfg.dma_channels, cfg.dma_setup_cycles);
            let clock = DmaClock::new(
                channels,
                setup,
                cfg.dma_bytes_per_cycle,
                route,
                cfg.word_bytes,
            );
            BlockClock {
                stats: DmaStats::for_channels(clock.channels()),
                clock,
                word_bytes: cfg.word_bytes,
            }
        }

        fn issue(&mut self, earliest: u64, retained: Option<u64>, list: &TransferList) -> u64 {
            let (word_bytes, stats) = (self.word_bytes, &mut self.stats);
            let mut record = |d: &_, (ch, cost, _)| stats.record(d, word_bytes, ch, cost);
            self.clock
                .issue(earliest, list, retained, Some(&mut record))
        }

        fn wait(&mut self, done: u64) {
            self.stats.stall_cycles += self.clock.wait(done);
        }

        fn now(&self) -> u64 {
            self.clock.now
        }

        fn advance(&mut self, cycles: u64) {
            self.clock.now += cycles;
        }

        fn finish(mut self) -> (u64, DmaStats) {
            self.stats.stall_cycles += self.clock.drain();
            (self.clock.now, self.stats)
        }
    }

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
        let done = c.issue(0, None, &list(vec![desc(8)]));
        assert_eq!(done, 108);
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
        assert_eq!(c.issue(0, None, &list(vec![desc(8)])), 115);
        assert_eq!(c.issue(0, None, &list(vec![desc(8)])), 230);
    }

    #[test]
    fn channels_round_robin_by_load() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        // Two channels take one transfer each, both done at 14.
        assert_eq!(c.issue(0, None, &list(vec![desc(4)])), 14);
        assert_eq!(c.issue(0, None, &list(vec![desc(4)])), 14);
        // Third transfer queues behind whichever frees first.
        assert_eq!(c.issue(0, None, &list(vec![desc(4)])), 28);
    }

    #[test]
    fn sync_wait_accumulates_stalls_async_hides_them() {
        let cfg = machine(1, 50.0, 4.0);
        // Synchronous: issue, wait immediately → all busy is stalled.
        let mut c = BlockClock::new(&cfg, 0);
        let done = c.issue(0, None, &list(vec![desc(4)]));
        c.wait(done);
        assert_eq!(c.now(), done);
        let (_, stats) = c.finish();
        assert_eq!(stats.stall_cycles, stats.total_busy_cycles());
        assert_eq!(stats.overlap_fraction(), 0.0);
        // Asynchronous: compute long enough to hide the transfer.
        let mut c = BlockClock::new(&cfg, 0);
        let done = c.issue(0, None, &list(vec![desc(4)]));
        c.advance(1000); // clock already past completion
        c.wait(done);
        let (now, stats) = c.finish();
        assert_eq!(now, 1000);
        assert_eq!(stats.stall_cycles, 0);
        assert_eq!(stats.overlap_fraction(), 1.0);
    }

    #[test]
    fn a_list_completes_with_its_last_descriptor_and_finish_fences() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        let done = c.issue(0, None, &list(vec![desc(4), desc(4), desc(4)]));
        assert_eq!(done, 28); // two channels, third queues behind
        assert_eq!(c.now(), 0);
        assert_eq!(c.finish().0, 28);
    }

    #[test]
    fn nothing_is_issued_without_channels() {
        let cfg = machine(0, 10.0, 4.0);
        let mut c = BlockClock::new(&cfg, 0);
        c.advance(5);
        assert_eq!(c.issue(0, None, &list(vec![desc(4)])), 5);
        let (now, stats) = c.finish();
        assert_eq!(now, 5);
        assert_eq!(stats.descriptors, 0);
        assert_eq!(stats.channel_busy_cycles, vec![0]);
    }

    #[test]
    fn absorb_merges_all_fields() {
        let cfg = machine(2, 10.0, 4.0);
        let mut c1 = BlockClock::new(&cfg, 0);
        c1.issue(0, None, &list(vec![desc(4)]));
        let mut c2 = BlockClock::new(&cfg, 0);
        let t = c2.issue(0, None, &list(vec![desc(100)]));
        c2.wait(t);
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

        /// The block clock's statistics never perturb its timing: over
        /// arbitrary transfer lists, issue times, channel counts and
        /// setup / bandwidth / route values, the completion cycle the
        /// estimator's bare [`DmaClock`] computes is the one the block
        /// clock hands back — and with no channels nothing is charged.
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
            let mut model = DmaClock::new(channels, setup, bytes_per_cycle, route, word_bytes);
            for (gap, rows) in &issues {
                clock.advance(*gap);
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
                model.now = clock.now();
                let predicted = model.issue(0, &list, None, None);
                let simulated = clock.issue(0, None, &list);
                prop_assert_eq!(simulated, predicted);
                if channels == 0 {
                    prop_assert_eq!(simulated, clock.now());
                }
            }
            model.drain();
            prop_assert_eq!(clock.finish().0, model.now);
        }
    }
}
