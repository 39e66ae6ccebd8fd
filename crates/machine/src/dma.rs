//! Tagged-channel DMA engine with a setup-latency + bandwidth cost
//! model.
//!
//! Each outer unit owns [`MachineConfig::dma_channels`] channels.
//! Issuing a [`TransferDescriptor`] picks the least-busy channel and
//! charges `dma_setup_cycles + ceil(bytes / dma_bytes_per_cycle)`
//! cycles on it; the returned [`DmaTag`] records the completion cycle,
//! and [`DmaEngine::wait`] advances the caller's clock (accumulating
//! stall cycles) only if the transfer has not already finished in the
//! shadow of compute. Synchronous staging issues and waits back to
//! back, so every busy cycle is a stall; the double-buffered executor
//! issues ahead and most busy cycles are hidden — the difference is
//! the [`DmaStats::overlap_fraction`].
//!
//! Everything here is deterministic simulated time (integer cycles),
//! so stats survive the executor's sequential-vs-parallel equality
//! test.

use crate::config::MachineConfig;
use crate::json::{counters_json, Json};
use polymem_core::smem::{DmaChannels, TransferDescriptor, TransferList};

/// Number of log2 buckets in the bytes-per-descriptor histogram
/// (bucket `k` counts descriptors with `bytes in [2^k, 2^(k+1))`;
/// the last bucket absorbs everything larger).
pub const DMA_HIST_BUCKETS: usize = 16;

/// Observability block for the DMA engine, absorbed across blocks
/// into [`ExecStats`](crate::ExecStats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
        let mut fields = counters_json!(
            DmaStats {
                descriptors,
                elements,
                bytes,
                channel_busy_cycles,
                stall_cycles,
                bytes_hist,
            } = self
        );
        fields.push((
            "mean_descriptor_bytes",
            Json::fixed(self.mean_descriptor_bytes(), 2),
        ));
        fields.push(("overlap_fraction", Json::fixed(self.overlap_fraction(), 4)));
        Json::obj(fields)
    }

    /// Accumulate another engine's stats (used by
    /// `ExecStats::absorb` when merging per-block results).
    pub fn absorb(&mut self, o: &DmaStats) {
        self.descriptors += o.descriptors;
        self.elements += o.elements;
        self.bytes += o.bytes;
        if self.channel_busy_cycles.len() < o.channel_busy_cycles.len() {
            self.channel_busy_cycles
                .resize(o.channel_busy_cycles.len(), 0);
        }
        for (a, b) in self
            .channel_busy_cycles
            .iter_mut()
            .zip(&o.channel_busy_cycles)
        {
            *a += b;
        }
        self.stall_cycles += o.stall_cycles;
        if self.bytes_hist.len() < o.bytes_hist.len() {
            self.bytes_hist.resize(o.bytes_hist.len(), 0);
        }
        for (a, b) in self.bytes_hist.iter_mut().zip(&o.bytes_hist) {
            *a += b;
        }
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

/// Per-block DMA engine: the shared [`DmaChannels`] cost model plus
/// tags, stall accounting and observability counters.
#[derive(Clone, Debug)]
pub struct DmaEngine {
    channels: DmaChannels,
    /// Accumulated observability counters.
    pub stats: DmaStats,
}

impl DmaEngine {
    /// Build an engine from the machine description (at least one
    /// channel, even if the config says 0 — issuing is then simply
    /// never attempted by the executor).
    pub fn new(config: &MachineConfig) -> DmaEngine {
        DmaEngine::with_route(config, 0)
    }

    /// Build an engine whose descriptors each pay `route_cycles` of
    /// NoC routing (a spatial block's placement-determined hop cost:
    /// the issuing block's placement fixes the hop count for the whole
    /// block; 0 on machines without placement-priced movement).
    pub fn with_route(config: &MachineConfig, route_cycles: u64) -> DmaEngine {
        let channels = DmaChannels::new(
            config.dma_channels,
            config.dma_setup_cycles,
            config.dma_bytes_per_cycle,
            route_cycles,
        );
        DmaEngine {
            stats: DmaStats {
                channel_busy_cycles: vec![0; channels.count()],
                bytes_hist: vec![0; DMA_HIST_BUCKETS],
                ..DmaStats::default()
            },
            channels,
        }
    }

    /// Queue one descriptor. The transfer starts no earlier than
    /// `max(now, earliest)` and no earlier than the chosen channel is
    /// free; the least-busy channel wins (deterministic tie-break on
    /// index).
    pub fn issue(
        &mut self,
        d: &TransferDescriptor,
        word_bytes: u64,
        now: u64,
        earliest: u64,
    ) -> DmaTag {
        let bytes = d.bytes(word_bytes);
        let (ch, cost, done) = self.channels.issue(bytes, now.max(earliest));
        self.stats.descriptors += 1;
        self.stats.elements += d.elements();
        self.stats.bytes += bytes;
        self.stats.channel_busy_cycles[ch] += cost;
        let bucket = (64 - bytes.max(1).leading_zeros() as usize - 1).min(DMA_HIST_BUCKETS - 1);
        self.stats.bytes_hist[bucket] += 1;
        DmaTag { channel: ch, done }
    }

    /// Queue a whole transfer list; the returned tag completes when
    /// the last descriptor does.
    pub fn issue_list(
        &mut self,
        list: &TransferList,
        word_bytes: u64,
        now: u64,
        earliest: u64,
    ) -> DmaTag {
        let mut last = DmaTag::immediate(now);
        for d in &list.descriptors {
            let t = self.issue(d, word_bytes, now, earliest);
            if t.done > last.done {
                last = t;
            }
        }
        last
    }

    /// Block until the tag completes: returns the new clock value and
    /// accumulates any stall cycles.
    pub fn wait(&mut self, tag: &DmaTag, now: u64) -> u64 {
        if tag.done > now {
            self.stats.stall_cycles += tag.done - now;
            tag.done
        } else {
            now
        }
    }

    /// Block until every channel is idle (end-of-block fence).
    pub fn drain(&mut self, now: u64) -> u64 {
        let tag = DmaTag {
            channel: 0,
            done: self.channels.idle_at(),
        };
        self.wait(&tag, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn engine(channels: u64, setup: f64, bpc: f64) -> DmaEngine {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.dma_channels = channels;
        cfg.dma_setup_cycles = setup;
        cfg.dma_bytes_per_cycle = bpc;
        DmaEngine::new(&cfg)
    }

    #[test]
    fn issue_charges_setup_plus_bandwidth() {
        let mut e = engine(1, 100.0, 4.0);
        // 8 elements × 4 B = 32 B → 8 transfer cycles + 100 setup.
        let tag = e.issue(&desc(8), 4, 0, 0);
        assert_eq!(tag.done, 108);
        assert_eq!(e.stats.descriptors, 1);
        assert_eq!(e.stats.elements, 8);
        assert_eq!(e.stats.bytes, 32);
        assert_eq!(e.stats.total_busy_cycles(), 108);
        // 32 B lands in the 2^5 bucket.
        assert_eq!(e.stats.bytes_hist[5], 1);
    }

    #[test]
    fn route_cycles_are_charged_per_descriptor() {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.dma_channels = 1;
        cfg.dma_setup_cycles = 100.0;
        cfg.dma_bytes_per_cycle = 4.0;
        let mut e = DmaEngine::with_route(&cfg, 7);
        let t0 = e.issue(&desc(8), 4, 0, 0); // 100 + 8 + 7 per hop term
        assert_eq!(t0.done, 115);
        let t1 = e.issue(&desc(8), 4, 0, 0); // queues behind, pays again
        assert_eq!(t1.done, 230);
    }

    #[test]
    fn channels_round_robin_by_load() {
        let mut e = engine(2, 10.0, 4.0);
        let t0 = e.issue(&desc(4), 4, 0, 0); // ch 0, done 14
        let t1 = e.issue(&desc(4), 4, 0, 0); // ch 1, done 14
        assert_ne!(t0.channel, t1.channel);
        // Third transfer queues behind whichever frees first.
        let t2 = e.issue(&desc(4), 4, 0, 0);
        assert_eq!(t2.done, 28);
    }

    #[test]
    fn sync_wait_accumulates_stalls_async_hides_them() {
        // Synchronous: issue, wait immediately → all busy is stalled.
        let mut e = engine(1, 50.0, 4.0);
        let tag = e.issue(&desc(4), 4, 0, 0);
        let now = e.wait(&tag, 0);
        assert_eq!(now, tag.done);
        assert_eq!(e.stats.stall_cycles, e.stats.total_busy_cycles());
        assert_eq!(e.stats.overlap_fraction(), 0.0);
        // Asynchronous: compute long enough to hide the transfer.
        let mut e = engine(1, 50.0, 4.0);
        let tag = e.issue(&desc(4), 4, 0, 0);
        let now = e.wait(&tag, 1000); // clock already past completion
        assert_eq!(now, 1000);
        assert_eq!(e.stats.stall_cycles, 0);
        assert_eq!(e.stats.overlap_fraction(), 1.0);
    }

    #[test]
    fn issue_list_returns_last_completion_and_drain_fences() {
        let mut e = engine(2, 10.0, 4.0);
        let list = TransferList {
            descriptors: vec![desc(4), desc(4), desc(4)],
            elements: 12,
        };
        let tag = e.issue_list(&list, 4, 0, 0);
        assert_eq!(tag.done, 28); // two channels, third queues behind
        let now = e.drain(0);
        assert_eq!(now, 28);
        let now = e.drain(now);
        assert_eq!(now, 28); // idempotent once idle
    }

    #[test]
    fn absorb_merges_all_fields() {
        let mut e1 = engine(2, 10.0, 4.0);
        e1.issue(&desc(4), 4, 0, 0);
        let mut e2 = engine(2, 10.0, 4.0);
        let t = e2.issue(&desc(100), 4, 0, 0);
        e2.wait(&t, 0);
        let mut total = DmaStats::default();
        total.absorb(&e1.stats);
        total.absorb(&e2.stats);
        assert_eq!(total.descriptors, 2);
        assert_eq!(total.elements, 104);
        assert_eq!(total.bytes, 416);
        assert_eq!(
            total.total_busy_cycles(),
            e1.stats.total_busy_cycles() + e2.stats.total_busy_cycles()
        );
        assert_eq!(total.stall_cycles, e2.stats.stall_cycles);
        assert_eq!(
            total.bytes_hist.iter().sum::<u64>(),
            2,
            "every descriptor lands in exactly one histogram bucket"
        );
        assert!(total.render().contains("descriptors"));
    }
}
