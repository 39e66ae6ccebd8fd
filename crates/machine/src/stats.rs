//! The executor's counters: [`ExecStats`], its nested
//! [`FallbackStats`], and the [`STATS_SCHEMA`] version of their JSON
//! form. Reporting, merging and equality all come from one field list
//! per struct ([`counters!`](crate::json::counters)).

use crate::dma::DmaStats;
use crate::json::{counters, Json};

/// Counters collected by the functional executor.
///
/// Every field is a count the launch determines: no host time is kept
/// here (a [`PassProfiler`](crate::PassProfiler) records it). Equality
/// compares every counter the modeled machine determines; it ignores
/// engine attribution (`compiled_blocks`, `interpreted_blocks`,
/// `fallback`) — the whole point of comparing stats across engines and
/// schedules is that everything *else* matches (the
/// parallel-determinism tests assert stats equality).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Statement instances executed.
    pub instances: u64,
    /// Global-memory element reads (incl. move-in traffic).
    pub global_reads: u64,
    /// Global-memory element writes (incl. move-out traffic).
    pub global_writes: u64,
    /// Scratchpad element reads.
    pub smem_reads: u64,
    /// Scratchpad element writes.
    pub smem_writes: u64,
    /// Elements moved global → scratchpad.
    pub moved_in: u64,
    /// Elements moved scratchpad → global.
    pub moved_out: u64,
    /// Rounds executed (device-wide barriers = rounds - 1).
    pub rounds: u64,
    /// Peak scratchpad words used by any single block.
    pub max_smem_words: u64,
    /// Sub-blocks whose scratchpad plan was instantiated from the
    /// shared symbolic plan (compile-once-per-shape reuse): every
    /// staged sub-block.
    pub plan_cache_hits: u64,
    /// Symbolic plans the launch had to obtain: 1 for a staged launch
    /// (the one warm-up of its block shape, whatever its source), else
    /// 0.
    pub plan_cache_misses: u64,
    /// Modeled cycles one block spent (compute + exposed transfer
    /// time); summed over blocks by [`absorb`](ExecStats::absorb).
    pub block_cycles: u64,
    /// Modeled device cycles for the whole launch: per round, the
    /// slowest block's cycles times the number of occupancy waves,
    /// plus the device-wide barrier cost (top-level only).
    pub modeled_cycles: u64,
    /// Buffer stagings issued asynchronously ahead of compute
    /// (double-buffer prefetches).
    pub overlap_groups: u64,
    /// Buffer stagings forced synchronous by a seq-carried flow
    /// dependence while double buffering was on.
    pub sync_groups: u64,
    /// Prefetches declined because the buffer is written (its move-in
    /// may read what the computing sub-tile writes). Each declined
    /// prefetch counts once, under the first of the three reasons.
    pub declined_written: u64,
    /// Prefetches declined because a seq-carried flow dependence
    /// reaches the buffer (and it is not written).
    pub declined_poisoned: u64,
    /// Prefetches declined because the §4.2 parked copy serves the
    /// buffer for free.
    pub declined_parked: u64,
    /// Scratchpad reads avoided because the access hit a register
    /// frame instead (level-2 hits; charged near-zero latency).
    pub smem_loads_saved: u64,
    /// Bytes moved between scratchpad and register frames (level-2
    /// move-in + move-out traffic).
    pub reg_bytes_moved: u64,
    /// Register frame sets staged (one per thread key per sub-block
    /// compute phase).
    pub hier_groups: u64,
    /// Elements kept resident in scratchpad across consecutive
    /// sub-tiles (re-based in place instead of re-transferred).
    pub retained_elems: u64,
    /// Elements transferred as residency deltas (the only move-in
    /// traffic of a residency-staged group).
    pub delta_elems: u64,
    /// Move-out elements flushed as residency flush deltas: when
    /// `RetainPlan::flush_legal` holds, elements the successor
    /// sub-tile overwrites anyway are skipped and only these cross the
    /// bus.
    pub flushed_delta_elems: u64,
    /// Buffer stagings served by the residency pass (retain + delta
    /// instead of a full move-in).
    pub residency_groups: u64,
    /// Sub-block compute phases executed by the compiled engine.
    pub compiled_blocks: u64,
    /// Sub-block compute phases that ran on the per-point interpreter
    /// (only with [`MachineConfig::compiled_exec`](crate::MachineConfig::compiled_exec)
    /// off).
    pub interpreted_blocks: u64,
    /// Why interpreted phases ran (one count per phase).
    pub fallback: FallbackStats,
    /// DMA transfer-engine counters ([`crate::dma`]).
    pub dma: DmaStats,
}

// The merge is per-block stats into the launch's: `max_smem_words` is
// a peak. `rounds` and `modeled_cycles` are only ever incremented at
// the top level of `execute_blocked_seeded` (zero in per-block stats),
// but they sum like the rest, so the merge stays right if per-block
// stats ever carry them.
counters!(ExecStats {
    blocks,
    instances,
    global_reads,
    global_writes,
    smem_reads,
    smem_writes,
    moved_in,
    moved_out,
    rounds,
    max_smem_words: max,
    plan_cache_hits,
    plan_cache_misses,
    block_cycles,
    modeled_cycles,
    overlap_groups,
    sync_groups,
    declined_written,
    declined_poisoned,
    declined_parked,
    smem_loads_saved,
    reg_bytes_moved,
    hier_groups,
    retained_elems,
    delta_elems,
    flushed_delta_elems,
    residency_groups,
    compiled_blocks: uncompared,
    interpreted_blocks: uncompared,
    fallback: uncompared,
    dma,
});

/// Version of the [`ExecStats::to_json`] document and of the report
/// envelope the bench harnesses wrap around it. Bump it whenever a
/// counter is renamed, removed or changes meaning (adding one is
/// compatible).
pub const STATS_SCHEMA: u64 = 4;

impl ExecStats {
    /// The one place a counter is named in output: `schema`, then every
    /// field under its own name, `fallback` and `dma` nested. The CLI,
    /// the daemon and every `BENCH_*.json` take their counters from
    /// here (DESIGN.md "Reports" lists units and clocks).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema", STATS_SCHEMA.into())];
        fields.extend(self.counters());
        Json::obj(fields)
    }
}

counters!(FallbackStats { engine_off });

/// Why sub-block compute phases ran on the interpreter. The compiled
/// engine is total (a shape it cannot run is a typed launch error), so
/// the one reason left is the engine switched off.
#[derive(Clone, Debug, Default)]
pub struct FallbackStats {
    /// [`MachineConfig::compiled_exec`](crate::MachineConfig::compiled_exec) was off
    /// for the launch.
    pub engine_off: u64,
}

impl FallbackStats {
    /// Total interpreted phases.
    pub fn total(&self) -> u64 {
        self.engine_off
    }

    /// Every counter under its field name.
    pub fn to_json(&self) -> Json {
        Json::obj(self.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats block with every field set, distinct from its
    /// neighbours. An explicit struct literal (no `..`), so a future
    /// field forces this test to be revisited.
    fn full(x: u64) -> ExecStats {
        ExecStats {
            blocks: x,
            instances: x + 1,
            global_reads: x + 2,
            global_writes: x + 3,
            smem_reads: x + 4,
            smem_writes: x + 5,
            moved_in: x + 6,
            moved_out: x + 7,
            rounds: x + 8,
            max_smem_words: x + 9,
            plan_cache_hits: x + 10,
            plan_cache_misses: x + 11,
            block_cycles: x + 12,
            modeled_cycles: x + 13,
            overlap_groups: x + 14,
            sync_groups: x + 15,
            declined_written: x + 29,
            declined_poisoned: x + 30,
            declined_parked: x + 31,
            smem_loads_saved: x + 23,
            reg_bytes_moved: x + 24,
            hier_groups: x + 25,
            retained_elems: x + 32,
            delta_elems: x + 33,
            flushed_delta_elems: x + 35,
            residency_groups: x + 34,
            compiled_blocks: x + 26,
            interpreted_blocks: x + 27,
            fallback: FallbackStats { engine_off: x + 28 },
            dma: DmaStats {
                descriptors: x + 16,
                elements: x + 17,
                bytes: x + 18,
                channel_busy_cycles: vec![x, x + 19],
                stall_cycles: x + 20,
                bytes_hist: vec![x + 21],
            },
        }
    }

    #[test]
    fn absorb_accumulates_every_field() {
        // Explicit struct literals (no `..`) so a future field forces
        // this test — and `absorb` — to be revisited.
        let mk = |x: u64| ExecStats {
            blocks: x,
            instances: x + 1,
            global_reads: x + 2,
            global_writes: x + 3,
            smem_reads: x + 4,
            smem_writes: x + 5,
            moved_in: x + 6,
            moved_out: x + 7,
            rounds: x + 8,
            max_smem_words: x + 9,
            plan_cache_hits: x + 10,
            plan_cache_misses: x + 11,
            block_cycles: x + 12,
            modeled_cycles: x + 13,
            overlap_groups: x + 14,
            sync_groups: x + 15,
            declined_written: x + 29,
            declined_poisoned: x + 30,
            declined_parked: x + 31,
            smem_loads_saved: x + 23,
            reg_bytes_moved: x + 24,
            hier_groups: x + 25,
            retained_elems: x + 32,
            delta_elems: x + 33,
            flushed_delta_elems: x + 35,
            residency_groups: x + 34,
            compiled_blocks: x + 26,
            interpreted_blocks: x + 27,
            fallback: FallbackStats { engine_off: x + 28 },
            dma: DmaStats {
                descriptors: x + 16,
                elements: x + 17,
                bytes: x + 18,
                channel_busy_cycles: vec![x, x + 19],
                stall_cycles: x + 20,
                bytes_hist: vec![x + 21],
            },
        };
        let mut a = mk(100);
        let b = mk(1);
        a.absorb(&b);
        assert_eq!(a.blocks, 101);
        assert_eq!(a.instances, 103);
        assert_eq!(a.global_reads, 105);
        assert_eq!(a.global_writes, 107);
        assert_eq!(a.smem_reads, 109);
        assert_eq!(a.smem_writes, 111);
        assert_eq!(a.moved_in, 113);
        assert_eq!(a.moved_out, 115);
        assert_eq!(a.rounds, 117);
        assert_eq!(a.max_smem_words, 109); // max, not sum
        assert_eq!(a.plan_cache_hits, 121);
        assert_eq!(a.plan_cache_misses, 123);
        assert_eq!(a.block_cycles, 125);
        assert_eq!(a.modeled_cycles, 127);
        assert_eq!(a.overlap_groups, 129);
        assert_eq!(a.sync_groups, 131);
        assert_eq!(a.declined_written, 159);
        assert_eq!(a.declined_poisoned, 161);
        assert_eq!(a.declined_parked, 163);
        assert_eq!(a.dma.descriptors, 133);
        assert_eq!(a.dma.elements, 135);
        assert_eq!(a.dma.bytes, 137);
        assert_eq!(a.dma.channel_busy_cycles, vec![101, 139]);
        assert_eq!(a.dma.stall_cycles, 141);
        assert_eq!(a.dma.bytes_hist, vec![143]);
        assert_eq!(a.smem_loads_saved, 147);
        assert_eq!(a.reg_bytes_moved, 149);
        assert_eq!(a.hier_groups, 151);
        assert_eq!(a.retained_elems, 165);
        assert_eq!(a.delta_elems, 167);
        assert_eq!(a.flushed_delta_elems, 171);
        assert_eq!(a.residency_groups, 169);
        assert_eq!(a.compiled_blocks, 153);
        assert_eq!(a.interpreted_blocks, 155);
        assert_eq!(a.fallback.engine_off, 157);
        assert_eq!(a.fallback.total(), 157);
    }

    #[test]
    fn equality_ignores_exactly_engine_attribution() {
        type Bump = fn(&mut ExecStats);
        let bumps: [(&str, bool, Bump); 35] = [
            ("blocks", true, |s| s.blocks += 1),
            ("instances", true, |s| s.instances += 1),
            ("global_reads", true, |s| s.global_reads += 1),
            ("global_writes", true, |s| s.global_writes += 1),
            ("smem_reads", true, |s| s.smem_reads += 1),
            ("smem_writes", true, |s| s.smem_writes += 1),
            ("moved_in", true, |s| s.moved_in += 1),
            ("moved_out", true, |s| s.moved_out += 1),
            ("rounds", true, |s| s.rounds += 1),
            ("max_smem_words", true, |s| s.max_smem_words += 1),
            ("plan_cache_hits", true, |s| s.plan_cache_hits += 1),
            ("plan_cache_misses", true, |s| s.plan_cache_misses += 1),
            ("block_cycles", true, |s| s.block_cycles += 1),
            ("modeled_cycles", true, |s| s.modeled_cycles += 1),
            ("overlap_groups", true, |s| s.overlap_groups += 1),
            ("sync_groups", true, |s| s.sync_groups += 1),
            ("declined_written", true, |s| s.declined_written += 1),
            ("declined_poisoned", true, |s| s.declined_poisoned += 1),
            ("declined_parked", true, |s| s.declined_parked += 1),
            ("smem_loads_saved", true, |s| s.smem_loads_saved += 1),
            ("reg_bytes_moved", true, |s| s.reg_bytes_moved += 1),
            ("hier_groups", true, |s| s.hier_groups += 1),
            ("retained_elems", true, |s| s.retained_elems += 1),
            ("delta_elems", true, |s| s.delta_elems += 1),
            ("flushed_delta_elems", true, |s| s.flushed_delta_elems += 1),
            ("residency_groups", true, |s| s.residency_groups += 1),
            ("compiled_blocks", false, |s| s.compiled_blocks += 1),
            ("interpreted_blocks", false, |s| s.interpreted_blocks += 1),
            ("fallback", false, |s| s.fallback.engine_off += 1),
            ("dma.descriptors", true, |s| s.dma.descriptors += 1),
            ("dma.elements", true, |s| s.dma.elements += 1),
            ("dma.bytes", true, |s| s.dma.bytes += 1),
            ("dma.channel_busy_cycles", true, |s| {
                s.dma.channel_busy_cycles[1] += 1
            }),
            ("dma.stall_cycles", true, |s| s.dma.stall_cycles += 1),
            ("dma.bytes_hist", true, |s| s.dma.bytes_hist[0] += 1),
        ];
        // Every reported counter is perturbed once: the top-level
        // fields, with `dma`'s own counters in place of `dma`.
        let base = full(1);
        let json = base.to_json();
        let keys = |v: &Json| match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => unreachable!("stats report as an object"),
        };
        let mut reported: Vec<String> = keys(&json)
            .into_iter()
            .filter(|k| k != "schema" && k != "dma")
            .collect();
        let dma_counters = keys(json.get("dma").unwrap()).into_iter();
        let derived = ["mean_descriptor_bytes", "overlap_fraction"];
        reported.extend(
            dma_counters
                .filter(|k| !derived.contains(&k.as_str()))
                .map(|k| format!("dma.{k}")),
        );
        let mut perturbed: Vec<String> = bumps.iter().map(|b| b.0.to_string()).collect();
        reported.sort();
        perturbed.sort();
        assert_eq!(reported, perturbed);
        for (name, compared, bump) in bumps {
            let mut s = base.clone();
            bump(&mut s);
            assert_eq!(s != base, compared, "{name}");
        }
    }
}
