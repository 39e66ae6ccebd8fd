//! Declarative machine descriptions.
//!
//! A [`MachineDesc`] is pure data: named memory levels (capacity +
//! latency), compute throughput, synchronisation costs, the DMA /
//! channel topology, capability flags, and — for spatial machines —
//! the PE-mesh geometry. Every built-in machine (`gpu`, `cell`,
//! `host`, `pim`, `spatial`) is a description in the [registry], and
//! arbitrary machines load from a TOML file (`polymem --machine-file`)
//! with [`MachineDesc::from_file`]. [`MachineDesc::config`] lowers a
//! description into the executable [`MachineConfig`] the simulator,
//! cost model and autotuner consume; nothing downstream branches on a
//! machine *name* — behaviour differences flow through the
//! description's numbers and [`Capabilities`] flags.
//!
//! The descriptions encode genuinely different optimisation regimes:
//!
//! * **gpu / cell** — the paper's testbeds: slow global memory behind
//!   a wide bus, a scratchpad worth staging into (mandatory on cell).
//! * **pim** — per-bank compute units sitting next to the DRAM rows:
//!   "global" latency is near zero, per-bank buffers are tiny, and
//!   inter-bank movement is expensive, so Algorithm 1's staging
//!   decision flips to in-place execution (the winning move is not
//!   moving data at all).
//! * **spatial** — a 2-D PE array where operand *placement* dominates:
//!   every DMA descriptor pays a NoC route proportional to the hop
//!   distance from the memory ports at the west edge to the PE the
//!   block is placed on, so the cost model trades parallel width
//!   against route length.
//!
//! The serialised form round-trips: `from_str(&d.to_toml()) == d` for
//! every registered description (a property test pins this).

use crate::config::{Capabilities, MachineConfig, MeshDesc, DEFAULT_ENUM_BUDGET};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One memory level of a description, outermost first. The canonical
/// three-level shape is `global` (capacity 0 = unbounded), a
/// `scratchpad` per outer unit, and a `register` file per inner
/// process; capacities are bytes, latencies cycles per element access.
#[derive(Clone, Debug, PartialEq)]
pub struct MemLevel {
    /// Level name: `global`, `scratchpad` or `register`.
    pub name: String,
    /// Capacity in bytes (0 = unbounded; only meaningful for
    /// `global`).
    pub capacity_bytes: u64,
    /// Cycles per element access at this level.
    pub latency: f64,
}

/// A declarative machine description — everything the mapper needs to
/// know about a target, as data.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineDesc {
    /// Registry / display name.
    pub name: String,
    /// Memory levels, outermost first (`global`, `scratchpad`,
    /// `register`).
    pub levels: Vec<MemLevel>,
    /// Outer-level parallel units (multiprocessors / SPEs / banks /
    /// PEs). For mesh machines this must equal `rows × cols`.
    pub n_outer: u64,
    /// Inner-level SIMD units per outer unit.
    pub n_inner: u64,
    /// Scheduling granularity of inner processes (warp size).
    pub warp_size: u64,
    /// Bytes per data word.
    pub word_bytes: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Cycles per arithmetic op on an inner unit.
    pub cycles_per_op: f64,
    /// Compiled-engine SIMD lane count.
    pub vector_width: u64,
    /// Outstanding global accesses one outer unit overlaps.
    pub global_overlap: f64,
    /// Hardware cap on blocks resident per outer unit.
    pub max_blocks_per_outer: u64,
    /// Cycles of sync per inner process per movement occurrence.
    pub sync_cycles: f64,
    /// Fixed cycles for a device-wide barrier...
    pub device_sync_base: f64,
    /// ...plus this many per active block.
    pub device_sync_per_block: f64,
    /// Tagged DMA channels per outer unit (0 = per-element movement).
    pub dma_channels: u64,
    /// Per-descriptor setup cycles.
    pub dma_setup_cycles: f64,
    /// DMA bandwidth in bytes per cycle.
    pub dma_bytes_per_cycle: f64,
    /// Capability flags (behavioural switches as data).
    pub caps: Capabilities,
    /// PE-mesh geometry (spatial machines only).
    pub mesh: Option<MeshDesc>,
}

impl MachineDesc {
    fn level(&self, name: &str) -> Option<&MemLevel> {
        self.levels.iter().find(|l| l.name == name)
    }

    /// Lower the description into the executable [`MachineConfig`].
    ///
    /// Derived rather than declared: `residency` is on exactly when
    /// the machine has a scratchpad *and* staging pays (a PIM bank
    /// computes in place, so there is no window to keep warm), and a
    /// mesh forces `n_outer = rows × cols`.
    pub fn config(&self) -> MachineConfig {
        let global = self.level("global");
        let spad = self.level("scratchpad");
        let regs = self.level("register");
        let smem_bytes = spad.map_or(0, |l| l.capacity_bytes);
        let n_outer = match &self.mesh {
            Some(m) => (m.rows * m.cols).max(1),
            None => self.n_outer,
        };
        let caps = self.caps;
        MachineConfig {
            caps,
            n_outer,
            n_inner: self.n_inner,
            warp_size: self.warp_size,
            smem_bytes,
            word_bytes: self.word_bytes,
            clock_ghz: self.clock_ghz,
            cycles_per_op: self.cycles_per_op,
            global_latency: global.map_or(0.0, |l| l.latency),
            global_overlap: self.global_overlap,
            smem_latency: spad.map_or(0.0, |l| l.latency),
            sync_cycles: self.sync_cycles,
            device_sync_base: self.device_sync_base,
            device_sync_per_block: self.device_sync_per_block,
            max_blocks_per_outer: self.max_blocks_per_outer,
            enum_budget: DEFAULT_ENUM_BUDGET,
            dma_channels: self.dma_channels,
            dma_setup_cycles: self.dma_setup_cycles,
            dma_bytes_per_cycle: self.dma_bytes_per_cycle,
            double_buffer: false,
            compiled_exec: true,
            regs_per_inner: regs.map_or(0, |l| l.capacity_bytes / self.word_bytes.max(1)),
            hierarchy: false,
            vector_width: self.vector_width,
            residency: smem_bytes > 0 && !caps.in_place_compute,
            partition: true,
            artifact_dir: None,
            mesh: self.mesh.clone(),
        }
    }

    /// Serialise to the TOML subset [`MachineDesc::from_str`] reads.
    /// `from_str(&d.to_toml())` reconstructs `d` exactly.
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "name = \"{}\"", self.name);
        let _ = writeln!(s, "\n[compute]");
        let _ = writeln!(s, "n_outer = {}", self.n_outer);
        let _ = writeln!(s, "n_inner = {}", self.n_inner);
        let _ = writeln!(s, "warp_size = {}", self.warp_size);
        let _ = writeln!(s, "word_bytes = {}", self.word_bytes);
        let _ = writeln!(s, "clock_ghz = {}", self.clock_ghz);
        let _ = writeln!(s, "cycles_per_op = {}", self.cycles_per_op);
        let _ = writeln!(s, "vector_width = {}", self.vector_width);
        let _ = writeln!(s, "global_overlap = {}", self.global_overlap);
        let _ = writeln!(s, "max_blocks_per_outer = {}", self.max_blocks_per_outer);
        let _ = writeln!(s, "\n[sync]");
        let _ = writeln!(s, "sync_cycles = {}", self.sync_cycles);
        let _ = writeln!(s, "device_sync_base = {}", self.device_sync_base);
        let _ = writeln!(s, "device_sync_per_block = {}", self.device_sync_per_block);
        let _ = writeln!(s, "\n[dma]");
        let _ = writeln!(s, "channels = {}", self.dma_channels);
        let _ = writeln!(s, "setup_cycles = {}", self.dma_setup_cycles);
        let _ = writeln!(s, "bytes_per_cycle = {}", self.dma_bytes_per_cycle);
        let _ = writeln!(s, "\n[caps]");
        let _ = writeln!(s, "must_stage = {}", self.caps.must_stage);
        let _ = writeln!(s, "in_place_compute = {}", self.caps.in_place_compute);
        let _ = writeln!(s, "placement_cost = {}", self.caps.placement_cost);
        let _ = writeln!(s, "hardware_cache = {}", self.caps.hardware_cache);
        if let Some(m) = &self.mesh {
            let _ = writeln!(s, "\n[mesh]");
            let _ = writeln!(s, "rows = {}", m.rows);
            let _ = writeln!(s, "cols = {}", m.cols);
            let _ = writeln!(s, "hop_cycles = {}", m.hop_cycles);
        }
        for l in &self.levels {
            let _ = writeln!(s, "\n[[level]]");
            let _ = writeln!(s, "name = \"{}\"", l.name);
            let _ = writeln!(s, "capacity_bytes = {}", l.capacity_bytes);
            let _ = writeln!(s, "latency = {}", l.latency);
        }
        s
    }

    /// Parse a description from the TOML subset `to_toml` emits:
    /// `key = value` lines under `[section]` headers, `[[level]]`
    /// array-of-tables for the memory levels, `#` comments, values
    /// either quoted strings, booleans or numbers. Unknown sections or
    /// keys are errors (a typo must not silently describe a different
    /// machine).
    ///
    /// Inherent rather than `impl FromStr` so the error stays a plain
    /// `String` like the rest of the file codec.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<MachineDesc, String> {
        let mut root: HashMap<String, String> = HashMap::new();
        let mut sections: HashMap<String, HashMap<String, String>> = HashMap::new();
        let mut levels: Vec<HashMap<String, String>> = Vec::new();
        let mut cur: Option<String> = None; // None = root, Some("level") = last level table
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |m: &str| format!("machine file line {}: {m}", ln + 1);
            if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
                if name.trim() != "level" {
                    return Err(err(&format!("unknown array table `[[{}]]`", name.trim())));
                }
                levels.push(HashMap::new());
                cur = Some("level".into());
            } else if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                let name = name.trim().to_string();
                if !["compute", "sync", "dma", "caps", "mesh"].contains(&name.as_str()) {
                    return Err(err(&format!("unknown section `[{name}]`")));
                }
                sections.entry(name.clone()).or_default();
                cur = Some(name);
            } else if let Some((k, v)) = line.split_once('=') {
                let key = k.trim().to_string();
                let val = parse_value(v.trim()).map_err(|m| err(&m))?;
                match cur.as_deref() {
                    None => root.insert(key, val),
                    Some("level") => levels.last_mut().expect("open level").insert(key, val),
                    Some(sec) => sections
                        .get_mut(sec)
                        .expect("open section")
                        .insert(key, val),
                };
            } else {
                return Err(err("expected `key = value` or `[section]`"));
            }
        }

        let name = root
            .remove("name")
            .ok_or("machine file: missing top-level `name`")?;
        if let Some(k) = root.keys().next() {
            return Err(format!("machine file: unknown top-level key `{k}`"));
        }
        let mut compute = sections.remove("compute").unwrap_or_default();
        let mut sync = sections.remove("sync").unwrap_or_default();
        let mut dma = sections.remove("dma").unwrap_or_default();
        let mut caps = sections.remove("caps").unwrap_or_default();
        let mesh_tbl = sections.remove("mesh");

        let mesh = match mesh_tbl {
            Some(mut m) => {
                let mesh = MeshDesc {
                    rows: get_u64(&mut m, "mesh", "rows")?,
                    cols: get_u64(&mut m, "mesh", "cols")?,
                    hop_cycles: get_f64(&mut m, "mesh", "hop_cycles")?,
                };
                reject_extra(&m, "mesh")?;
                Some(mesh)
            }
            None => None,
        };
        let mut lvls = Vec::new();
        for mut l in levels {
            let lvl = MemLevel {
                name: l
                    .remove("name")
                    .ok_or("machine file: [[level]] missing `name`")?,
                capacity_bytes: get_u64(&mut l, "level", "capacity_bytes")?,
                latency: get_f64(&mut l, "level", "latency")?,
            };
            reject_extra(&l, "level")?;
            lvls.push(lvl);
        }
        if lvls.is_empty() {
            return Err("machine file: at least one [[level]] required".into());
        }

        let desc = MachineDesc {
            name,
            levels: lvls,
            n_outer: get_u64(&mut compute, "compute", "n_outer")?,
            n_inner: get_u64(&mut compute, "compute", "n_inner")?,
            warp_size: get_u64(&mut compute, "compute", "warp_size")?,
            word_bytes: get_u64(&mut compute, "compute", "word_bytes")?,
            clock_ghz: get_f64(&mut compute, "compute", "clock_ghz")?,
            cycles_per_op: get_f64(&mut compute, "compute", "cycles_per_op")?,
            vector_width: get_u64(&mut compute, "compute", "vector_width")?,
            global_overlap: get_f64(&mut compute, "compute", "global_overlap")?,
            max_blocks_per_outer: get_u64(&mut compute, "compute", "max_blocks_per_outer")?,
            sync_cycles: get_f64(&mut sync, "sync", "sync_cycles")?,
            device_sync_base: get_f64(&mut sync, "sync", "device_sync_base")?,
            device_sync_per_block: get_f64(&mut sync, "sync", "device_sync_per_block")?,
            dma_channels: get_u64(&mut dma, "dma", "channels")?,
            dma_setup_cycles: get_f64(&mut dma, "dma", "setup_cycles")?,
            dma_bytes_per_cycle: get_f64(&mut dma, "dma", "bytes_per_cycle")?,
            caps: Capabilities {
                must_stage: get_bool(&mut caps, "caps", "must_stage")?,
                in_place_compute: get_bool(&mut caps, "caps", "in_place_compute")?,
                placement_cost: get_bool(&mut caps, "caps", "placement_cost")?,
                hardware_cache: get_bool(&mut caps, "caps", "hardware_cache")?,
            },
            mesh,
        };
        for (tbl, label) in [
            (&compute, "compute"),
            (&sync, "sync"),
            (&dma, "dma"),
            (&caps, "caps"),
        ] {
            reject_extra(tbl, label)?;
        }
        if desc.caps.placement_cost && desc.mesh.is_none() {
            return Err("machine file: `placement_cost = true` needs a [mesh] section".into());
        }
        if let Some(m) = &desc.mesh {
            if m.rows == 0 || m.cols == 0 {
                return Err("machine file: mesh rows/cols must be positive".into());
            }
        }
        Ok(desc)
    }

    /// Load a description from a TOML file on disk.
    pub fn from_file(path: &str) -> Result<MachineDesc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("machine file `{path}`: {e}"))?;
        MachineDesc::from_str(&text)
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<String, String> {
    if let Some(s) = v.strip_prefix('"') {
        return s
            .strip_suffix('"')
            .map(str::to_string)
            .ok_or_else(|| format!("unterminated string `{v}`"));
    }
    if v == "true" || v == "false" || v.parse::<f64>().is_ok() {
        return Ok(v.to_string());
    }
    Err(format!("unparseable value `{v}`"))
}

fn get_u64(tbl: &mut HashMap<String, String>, sec: &str, key: &str) -> Result<u64, String> {
    let v = tbl
        .remove(key)
        .ok_or_else(|| format!("machine file: [{sec}] missing `{key}`"))?;
    v.parse()
        .map_err(|_| format!("machine file: [{sec}] `{key}` is not an unsigned integer: `{v}`"))
}

fn get_f64(tbl: &mut HashMap<String, String>, sec: &str, key: &str) -> Result<f64, String> {
    let v = tbl
        .remove(key)
        .ok_or_else(|| format!("machine file: [{sec}] missing `{key}`"))?;
    v.parse()
        .map_err(|_| format!("machine file: [{sec}] `{key}` is not a number: `{v}`"))
}

fn get_bool(tbl: &mut HashMap<String, String>, sec: &str, key: &str) -> Result<bool, String> {
    let v = tbl
        .remove(key)
        .ok_or_else(|| format!("machine file: [{sec}] missing `{key}`"))?;
    v.parse()
        .map_err(|_| format!("machine file: [{sec}] `{key}` is not a boolean: `{v}`"))
}

fn reject_extra(tbl: &HashMap<String, String>, sec: &str) -> Result<(), String> {
    match tbl.keys().min() {
        Some(k) => Err(format!("machine file: unknown key `{k}` in [{sec}]")),
        None => Ok(()),
    }
}

fn lvl(name: &str, capacity_bytes: u64, latency: f64) -> MemLevel {
    MemLevel {
        name: name.into(),
        capacity_bytes,
        latency,
    }
}

/// The paper's testbed: NVIDIA GeForce 8800 GTX. 16 multiprocessors ×
/// 8 SIMD units at 1.35 GHz, 16 KB scratchpad per multiprocessor,
/// warp 32, ~500-cycle DRAM latency heavily overlapped by warps.
pub fn gpu() -> MachineDesc {
    MachineDesc {
        name: "gpu".into(),
        levels: vec![
            lvl("global", 0, 500.0),
            lvl("scratchpad", 16 * 1024, 2.0),
            // One warp's worth of 32-bit registers per thread is far
            // more than any frame set here; 64 words is the gate that
            // keeps frames row-sized.
            lvl("register", 64 * 4, 0.0),
        ],
        n_outer: 16,
        n_inner: 8,
        warp_size: 32,
        word_bytes: 4,
        clock_ghz: 1.35,
        cycles_per_op: 1.0,
        vector_width: 8,
        global_overlap: 32.0,
        max_blocks_per_outer: 8,
        sync_cycles: 20.0,
        device_sync_base: 2_000.0,
        device_sync_per_block: 50.0,
        // Coalescing hardware: a half-warp's worth of outstanding
        // wide transactions, ~64 B/cycle aggregate.
        dma_channels: 8,
        dma_setup_cycles: 300.0,
        dma_bytes_per_cycle: 16.0,
        caps: Capabilities::default(),
        mesh: None,
    }
}

/// A Cell-BE-like machine: the local store is mandatory (`must_stage`
/// — data cannot be touched from global memory during compute, §3).
pub fn cell() -> MachineDesc {
    MachineDesc {
        name: "cell".into(),
        levels: vec![
            lvl("global", 0, 400.0),
            lvl("scratchpad", 256 * 1024, 4.0),
            // The SPE register file has 128 entries.
            lvl("register", 128 * 4, 0.0),
        ],
        n_outer: 8,
        n_inner: 1,
        warp_size: 1,
        word_bytes: 4,
        clock_ghz: 3.2,
        cycles_per_op: 1.0,
        vector_width: 4,
        global_overlap: 4.0,
        max_blocks_per_outer: 1,
        sync_cycles: 100.0,
        device_sync_base: 10_000.0,
        device_sync_per_block: 1_000.0,
        // The MFC accepts 16 queued DMA commands per SPE.
        dma_channels: 16,
        dma_setup_cycles: 200.0,
        dma_bytes_per_cycle: 8.0,
        caps: Capabilities {
            must_stage: true,
            ..Capabilities::default()
        },
        mesh: None,
    }
}

/// The host CPU baseline (Core2-Duo class, 2.13 GHz, hardware cache).
pub fn host() -> MachineDesc {
    MachineDesc {
        name: "host".into(),
        levels: vec![
            // Cache-filtered average memory cost per element access;
            // no explicitly managed scratchpad.
            lvl("global", 0, 8.0),
            lvl("scratchpad", 0, 0.0),
            lvl("register", 16 * 4, 0.0),
        ],
        n_outer: 1,
        n_inner: 1,
        warp_size: 1,
        word_bytes: 4,
        clock_ghz: 2.13,
        cycles_per_op: 1.0,
        vector_width: 1,
        global_overlap: 1.0,
        max_blocks_per_outer: 1,
        sync_cycles: 0.0,
        device_sync_base: 0.0,
        device_sync_per_block: 0.0,
        dma_channels: 0,
        dma_setup_cycles: 0.0,
        dma_bytes_per_cycle: 8.0,
        caps: Capabilities {
            hardware_cache: true,
            ..Capabilities::default()
        },
        mesh: None,
    }
}

/// A processing-in-memory machine: one compute unit per DRAM bank.
/// Compute happens where the data lives — "global" accesses cost a
/// single cycle (the row is already open under the unit) — while the
/// per-bank row buffer is tiny and *inter-bank* movement crawls
/// through a narrow shared port (one channel, 1 B/cycle, 1000-cycle
/// setup). Staging can never beat touching data in place, so the
/// `in_place_compute` capability tells Algorithm 1 that no copy
/// relation is beneficial: plans stage nothing and `moved_in` is zero.
pub fn pim() -> MachineDesc {
    MachineDesc {
        name: "pim".into(),
        levels: vec![
            lvl("global", 0, 1.0),
            // The open-row buffer: same latency as the bank itself —
            // a copy saves nothing even before paying the movement.
            lvl("scratchpad", 512, 1.0),
            lvl("register", 0, 0.0),
        ],
        n_outer: 32,
        n_inner: 1,
        warp_size: 1,
        word_bytes: 4,
        clock_ghz: 0.3,
        cycles_per_op: 4.0,
        vector_width: 1,
        global_overlap: 1.0,
        max_blocks_per_outer: 1,
        sync_cycles: 10.0,
        // Cross-bank barriers serialise on the shared command bus.
        device_sync_base: 8_000.0,
        device_sync_per_block: 100.0,
        dma_channels: 1,
        dma_setup_cycles: 1_000.0,
        dma_bytes_per_cycle: 1.0,
        caps: Capabilities {
            in_place_compute: true,
            ..Capabilities::default()
        },
        mesh: None,
    }
}

/// A spatial/dataflow accelerator: an 8×8 PE mesh, each PE with a
/// small operand memory, fed by memory ports on the west edge. Blocks
/// are placed on PEs column-major (block `b` → column `(b mod 64) /
/// 8`), and every DMA descriptor is routed over the NoC: it pays
/// `hop_cycles` per hop from the edge port to the PE's column. The
/// cost model therefore prices *placement* — wide launches reach
/// far columns and pay long routes, narrow launches waste PEs — which
/// moves the optimal tile away from the GPU's.
pub fn spatial() -> MachineDesc {
    MachineDesc {
        name: "spatial".into(),
        levels: vec![
            lvl("global", 0, 120.0),
            // Per-PE operand memory: 2 KB.
            lvl("scratchpad", 2 * 1024, 1.0),
            lvl("register", 32 * 4, 0.0),
        ],
        n_outer: 64,
        n_inner: 1,
        warp_size: 1,
        word_bytes: 4,
        clock_ghz: 1.0,
        cycles_per_op: 1.0,
        vector_width: 1,
        global_overlap: 2.0,
        max_blocks_per_outer: 1,
        sync_cycles: 5.0,
        device_sync_base: 3_000.0,
        device_sync_per_block: 20.0,
        // Per-PE route injection ports.
        dma_channels: 4,
        dma_setup_cycles: 60.0,
        dma_bytes_per_cycle: 4.0,
        caps: Capabilities {
            placement_cost: true,
            ..Capabilities::default()
        },
        mesh: Some(MeshDesc {
            rows: 8,
            cols: 8,
            hop_cycles: 160.0,
        }),
    }
}

/// Canonical names of the registered machines.
pub const NAMES: [&str; 5] = ["gpu", "cell", "host", "pim", "spatial"];

/// Look a machine description up by name. `cpu` is accepted as an
/// alias for `host` (the compile service's historical spelling), and
/// the full preset names (`geforce_8800_gtx`, `cell_like`, `host_cpu`)
/// resolve to their registry entries.
pub fn lookup(name: &str) -> Option<MachineDesc> {
    match name {
        "gpu" | "geforce_8800_gtx" => Some(gpu()),
        "cell" | "cell_like" => Some(cell()),
        "host" | "cpu" | "host_cpu" => Some(host()),
        "pim" => Some(pim()),
        "spatial" => Some(spatial()),
        _ => None,
    }
}

/// All registered descriptions, in registry order.
pub fn all() -> Vec<MachineDesc> {
    NAMES
        .iter()
        .map(|n| lookup(n).expect("registered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_through_toml() {
        for d in all() {
            let text = d.to_toml();
            let back =
                MachineDesc::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", d.name));
            assert_eq!(back, d, "round-trip changed `{}`", d.name);
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_description() {
        assert_eq!(lookup("cpu"), lookup("host"));
        assert_eq!(lookup("geforce_8800_gtx"), lookup("gpu"));
        assert_eq!(lookup("cell_like"), lookup("cell"));
        assert!(lookup("tpu").is_none());
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let mut text = gpu().to_toml();
        text.push_str("\n[compute]\nwarp_sise = 32\n");
        assert!(MachineDesc::from_str(&text)
            .unwrap_err()
            .contains("warp_sise"));
        let bad = "name = \"x\"\n[turbo]\n";
        assert!(MachineDesc::from_str(bad).unwrap_err().contains("turbo"));
    }

    #[test]
    fn placement_cost_requires_a_mesh() {
        let mut d = spatial();
        d.mesh = None;
        assert!(MachineDesc::from_str(&d.to_toml()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# header\n\n{}\n# trailer", gpu().to_toml());
        assert_eq!(MachineDesc::from_str(&text).unwrap(), gpu());
    }

    #[test]
    fn mesh_forces_outer_width() {
        let mut d = spatial();
        d.n_outer = 7; // inconsistent on purpose
        assert_eq!(d.config().n_outer, 64);
    }

    #[test]
    fn derived_residency_follows_capability_and_capacity() {
        assert!(gpu().config().residency);
        assert!(cell().config().residency);
        assert!(spatial().config().residency);
        assert!(!host().config().residency, "no scratchpad to keep warm");
        assert!(!pim().config().residency, "in-place compute stages nothing");
    }
}
