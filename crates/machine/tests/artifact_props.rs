//! Properties of the content-addressed plan-artifact store, driven
//! through the real kernels: the binary codec must round-trip every
//! plan the executor produces (5 kernels × GPU/Cell × hierarchy
//! on/off), every such plan must fit the live program, and every
//! corruption class — wrong version, wrong schema, truncation, payload
//! bit-flips, checksum damage, key damage, a resealed payload that
//! decodes to a plan naming what the program lacks — must fall back to
//! `None`, never panic, never hang, never partial data. The same holds
//! for tune artifacts, which share the envelope and the codec. A count
//! guard holds the plan files' total size to a recorded figure.
//!
//! The restart test is the PR's headline property: a process with a
//! cold plan cache but a warm store skips the §3 passes entirely
//! (`PlanSource::Artifact`, zero compiler nanoseconds on the
//! profiler) and still executes bit-exactly.

use polymem_core::smem::artifact::{
    decode_artifact, encode_artifact, open, seal, ArtifactStore, PlanArtifact, FORMAT_VERSION,
    MAGIC,
};
use polymem_core::smem::tune::{TuneArtifact, TuneRow, TUNE_FORMAT_VERSION, TUNE_MAGIC};
use polymem_ir::{exec_program, ArrayStore};
use polymem_kernels::builtins::{launch, Builtin};
use polymem_kernels::tunespace;
use polymem_machine::{
    execute_blocked_seeded, plan_artifact_key, warm_plan, BlockedKernel, LaunchToggles,
    MachineConfig, PassProfiler, PlanSource,
};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;

/// The kernels whose canonical mapping stages through the scratchpad
/// and therefore produces a plan artifact. `jacobi`'s overlapped
/// mapping runs scratchpad-off (asserted separately below).
const PLANNED: [&str; 4] = ["me", "jacobi2d", "matmul", "conv2d"];

/// The canonical blocked mapping + launch params of each built-in
/// kernel at a small size: the table's flat variant, as `polymem run`
/// resolves it.
fn workload(name: &str, size: i64) -> (BlockedKernel, Vec<i64>, &'static str) {
    let gpu = MachineConfig::geforce_8800_gtx();
    let l = launch(name, size, &gpu, &LaunchToggles::default(), false).expect("built-in");
    (l.kernel, l.params, l.check)
}

/// The untiled source program each mapping was derived from — the
/// reference semantics (the tiled loop nests are only equivalent
/// under the executor's round/block schedule).
fn base_program(name: &str) -> polymem_ir::Program {
    (Builtin::named(name).expect("built-in").program)()
}

fn init(name: &str, st: &mut ArrayStore) {
    tunespace::init_store(name, st, 42);
}

fn config(cell: bool, hierarchy: bool, dir: &std::path::Path) -> MachineConfig {
    let mut cfg = if cell {
        MachineConfig::cell_like()
    } else {
        MachineConfig::geforce_8800_gtx()
    };
    cfg.hierarchy = hierarchy;
    cfg.artifact_dir = Some(dir.to_string_lossy().into_owned());
    cfg
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("polymem_artifact_props_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Warm one workload's plan into a fresh store and return the
/// on-disk bytes plus everything needed to reload them.
fn warmed_bytes(
    name: &str,
    cell: bool,
    hierarchy: bool,
    tag: &str,
) -> (
    Vec<u8>,
    BlockedKernel,
    polymem_core::smem::artifact::ArtifactKey,
    std::path::PathBuf,
) {
    let dir = temp_store(tag);
    let cfg = config(cell, hierarchy, &dir);
    let (kernel, params, _) = workload(name, 8);
    let warmed = warm_plan(&kernel, &params, &cfg, None, None)
        .expect("analysis succeeds")
        .expect("plan cache enabled");
    assert_eq!(warmed.1, PlanSource::Fresh, "{name}: first warm compiles");
    let key = plan_artifact_key(&kernel, &params, &cfg)
        .expect("key derives")
        .expect("scratchpad launch has a key");
    let store = ArtifactStore::open(&dir).unwrap();
    let path = store.path_for(&key);
    let bytes = std::fs::read(&path).expect("warm_plan persisted the artifact");
    (bytes, kernel, key, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// serialize → deserialize ≡ identity, across every kernel ×
    /// machine × hierarchy combination: the decoded artifact fits the
    /// live program and re-encodes to the identical bytes.
    #[test]
    fn artifact_round_trips_bit_exactly(
        k in 0usize..4,
        cell in 0u8..=1,
        hierarchy in 0u8..=1,
    ) {
        let name = PLANNED[k];
        let tag = format!("rt_{name}_{cell}_{hierarchy}");
        let (bytes, kernel, key, _dir) =
            warmed_bytes(name, cell == 1, hierarchy == 1, &tag);
        let decoded = decode_artifact(&bytes, &kernel.program).expect("stored artifact fits");
        prop_assert_eq!(decoded.key, key);
        let reencoded = encode_artifact(&decoded);
        prop_assert_eq!(&reencoded, &bytes, "{}: encode∘decode is the identity", name);
        // Idempotent through a second cycle, too.
        let twice = encode_artifact(&decode_artifact(&reencoded, &kernel.program).unwrap());
        prop_assert_eq!(&twice, &bytes);
    }
}

/// A plan file is a pure function of its key: two independent fresh
/// compiles of one launch (`analyze_symbolic_hier` on matmul at size 16
/// on gpu, register level on), each persisted into its own store, write
/// byte-identical files.
#[test]
fn a_plan_file_is_a_pure_function_of_its_key() {
    let (kernel, params, _) = workload("matmul", 16);
    let files: Vec<Vec<u8>> = ["pure_a", "pure_b"]
        .iter()
        .map(|tag| {
            let dir = temp_store(tag);
            let cfg = config(false, true, &dir);
            let (sp, src) = warm_plan(&kernel, &params, &cfg, None, None)
                .expect("analysis succeeds")
                .expect("matmul stages");
            assert_eq!(src, PlanSource::Fresh, "each store starts cold");
            assert!(sp.hier.is_some(), "the register level planned frames");
            let key = plan_artifact_key(&kernel, &params, &cfg).unwrap().unwrap();
            let path = ArtifactStore::open(&dir).unwrap().path_for(&key);
            std::fs::read(path).expect("warm_plan persisted the artifact")
        })
        .collect();
    assert!(
        files[0] == files[1],
        "two compiles of one launch wrote different bytes"
    );
}

#[test]
fn version_mismatch_is_rejected() {
    let (mut bytes, kernel, key, dir) = warmed_bytes("me", false, true, "ver");
    // Envelope layout: MAGIC[0..4], FORMAT_VERSION u32 le [4..8].
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        FORMAT_VERSION
    );
    bytes[4] = bytes[4].wrapping_add(1);
    assert!(
        decode_artifact(&bytes, &kernel.program).is_none(),
        "future format version must not decode"
    );
    // And through the store: overwrite the file, load falls back.
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), &bytes).unwrap();
    assert!(store.load(&key, &kernel.program).is_none());
}

#[test]
fn schema_mismatch_is_rejected() {
    let (mut bytes, kernel, ..) = warmed_bytes("me", false, true, "schema");
    // schema_hash u64 le at [8..16].
    bytes[8] ^= 0xff;
    assert!(decode_artifact(&bytes, &kernel.program).is_none());
}

#[test]
fn truncated_artifacts_are_rejected() {
    let (bytes, kernel, key, dir) = warmed_bytes("jacobi2d", false, true, "trunc");
    let decode = |b: &[u8]| decode_artifact(b, &kernel.program);
    for cut in [bytes.len() - 1, bytes.len() / 2, 16, 4, 0] {
        assert!(
            decode(&bytes[..cut]).is_none(),
            "truncation to {cut} bytes must not decode"
        );
    }
    // Trailing garbage is corruption too, not ignorable padding.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(decode(&padded).is_none());
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.load(&key, &kernel.program).is_none());
}

#[test]
fn payload_and_checksum_corruption_are_rejected() {
    let (bytes, kernel, ..) = warmed_bytes("matmul", false, false, "corrupt");
    // One flipped payload byte (anywhere after the 40-byte header)
    // breaks the FNV checksum; a flipped checksum byte mismatches
    // the intact payload.
    let mid = 40 + (bytes.len() - 48) / 2;
    for pos in [40, mid, bytes.len() - 1] {
        let mut b = bytes.clone();
        b[pos] ^= 0x01;
        assert!(
            decode_artifact(&b, &kernel.program).is_none(),
            "flip at byte {pos} must not decode"
        );
    }
}

#[test]
fn key_corruption_is_rejected_by_the_store() {
    let (mut bytes, kernel, key, dir) = warmed_bytes("conv2d", false, true, "key");
    // The stored key lives at [16..32], outside the payload checksum:
    // the codec alone can't catch damage there, so the store's
    // key-equality check is the line of defence.
    bytes[16] ^= 0x01;
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), &bytes).unwrap();
    assert!(
        store.load(&key, &kernel.program).is_none(),
        "artifact whose embedded key mismatches its address must not load"
    );
}

#[test]
fn non_scratchpad_launches_have_no_artifact() {
    // jacobi's canonical overlapped mapping runs scratchpad-off:
    // there is nothing to address, and both entry points say so
    // rather than manufacturing a key for a plan that doesn't exist.
    let dir = temp_store("jacobi_none");
    let cfg = config(false, true, &dir);
    let (kernel, params, _) = workload("jacobi", 8);
    assert!(!kernel.use_scratchpad);
    assert!(plan_artifact_key(&kernel, &params, &cfg)
        .expect("key derivation succeeds")
        .is_none());
    assert!(warm_plan(&kernel, &params, &cfg, None, None)
        .expect("warm succeeds")
        .is_none());
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 0, "no artifact may be written");
}

#[test]
fn restart_with_warm_store_skips_analysis_and_stays_bit_exact() {
    for name in PLANNED {
        let dir = temp_store(&format!("restart_{name}"));
        let cfg = config(false, true, &dir);
        let (kernel, params, check) = workload(name, 8);

        // Reference result from the plain interpreter on the base
        // (untiled) program — arrays are name-addressed, so the same
        // store drives both.
        let base = base_program(name);
        let mut st = ArrayStore::for_program(&base, &params).unwrap();
        init(name, &mut st);
        let mut reference = st.clone();
        exec_program(&base, &params, &mut reference).unwrap();

        // "Process 1": cold store, compiles fresh and persists.
        let p1 = PassProfiler::new();
        let mut st1 = st.clone();
        let (_, warmed1) =
            execute_blocked_seeded(&kernel, &params, &mut st1, &cfg, true, Some(&p1), None)
                .unwrap();
        let (_, src1) = warmed1.expect("plan produced");
        assert_eq!(src1, PlanSource::Fresh, "{name}: first run compiles");
        assert!(
            p1.report().compiler_total() > std::time::Duration::ZERO,
            "{name}: fresh compile spends §3 time"
        );

        // "Process 2": a fresh profiler and a fresh internal plan
        // cache (each execute call builds its own), same store dir —
        // exactly what a daemon restart sees.
        let p2 = PassProfiler::new();
        let mut st2 = st.clone();
        let (_, warmed2) =
            execute_blocked_seeded(&kernel, &params, &mut st2, &cfg, true, Some(&p2), None)
                .unwrap();
        let (_, src2) = warmed2.expect("plan produced");
        assert_eq!(
            src2,
            PlanSource::Artifact,
            "{name}: restart must hit the store"
        );
        assert_eq!(
            p2.report().compiler_total(),
            std::time::Duration::ZERO,
            "{name}: artifact hit must skip the §3 passes"
        );

        // Bit-exact across fresh, artifact-loaded, and reference.
        assert_eq!(
            st1.data(check).unwrap(),
            st2.data(check).unwrap(),
            "{name}: artifact run diverged from fresh run"
        );
        assert_eq!(
            st2.data(check).unwrap(),
            reference.data(check).unwrap(),
            "{name}: artifact run diverged from reference"
        );
    }
}

/// The sequential-sub-tile launches carry a residency plan whose three
/// nests are scanned straight off pieces `plan_residency` holds: the
/// stored artifact must decode to the same bytes, and the loaded plan
/// must drive the executor to the counters the fresh one produced.
#[test]
fn seq_residency_plan_round_trips_and_executes_identically() {
    for name in ["jacobi2d", "conv2d", "me"] {
        for machine in ["gpu", "cell"] {
            let dir = temp_store(&format!("seq_{name}_{machine}"));
            let toggles = LaunchToggles {
                double_buffer: true,
                hierarchy: false,
                artifact_dir: Some(dir.to_string_lossy().into_owned()),
                ..LaunchToggles::default()
            };
            let base = polymem_machine::desc::lookup(machine).unwrap().config();
            let l = launch(name, 8, &base, &toggles, false).expect("built-in");
            let st = l.seeded_store(42).unwrap();
            let run = |want: PlanSource| {
                let mut out = st.clone();
                let (stats, warmed) = execute_blocked_seeded(
                    &l.kernel, &l.params, &mut out, &l.config, true, None, None,
                )
                .unwrap();
                let (plan, source) = warmed.expect("the mapping stages");
                assert_eq!(source, want, "{name}/{machine}");
                (stats, out, plan)
            };
            let (fresh_stats, fresh_out, plan) = run(PlanSource::Fresh);
            assert!(
                plan.residency.as_ref().is_some_and(|r| !r.is_empty()),
                "{name}/{machine}: no residency plan to round-trip"
            );
            assert!(fresh_stats.residency_groups > 0, "{name}/{machine}");

            let key = plan_artifact_key(&l.kernel, &l.params, &l.config)
                .unwrap()
                .expect("scratchpad launch has a key");
            let path = ArtifactStore::open(&dir).unwrap().path_for(&key);
            let bytes = std::fs::read(&path).expect("the fresh run persisted its plan");
            let decoded = decode_artifact(&bytes, &l.kernel.program).expect("stored plan fits");
            assert_eq!(encode_artifact(&decoded), bytes, "{name}/{machine}");

            let (loaded_stats, loaded_out, _) = run(PlanSource::Artifact);
            assert_eq!(loaded_stats, fresh_stats, "{name}/{machine}");
            assert_eq!(
                loaded_out.data(l.check).unwrap(),
                fresh_out.data(l.check).unwrap(),
                "{name}/{machine}"
            );
        }
    }
}

/// A load always returns. A resealed artifact (valid envelope, valid
/// checksum) whose plan names an array the program lacks is refused by
/// the fit check instead of indexing past the program's arrays.
#[test]
fn a_plan_naming_a_missing_array_does_not_load() {
    let (bytes, kernel, key, dir) = warmed_bytes("matmul", false, false, "crafted");
    let mut art = decode_artifact(&bytes, &kernel.program).expect("stored plan fits");
    art.plan.plan.buffers[0].array = 99;
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), encode_artifact(&art)).unwrap();
    assert!(store.load(&key, &kernel.program).is_none());
}

/// The summed size of the 32 plan files [`plan_files_stay_within_the_recorded_bytes`]
/// encodes. Lower it when a plan file sheds bytes; raising it needs a
/// consumer for every byte added.
const PROBE_PLAN_BYTES: usize = 716_701;

/// A count guard on what a plan file holds: the 32 plans of
/// {me, jacobi2d, matmul, conv2d} × {gpu, cell} × double buffering
/// {off, on} × register level {off, on} at size 16, compiled fresh and
/// encoded without a store, sum to at most [`PROBE_PLAN_BYTES`], and
/// each decodes back against its program. Data no consumer reads
/// cannot come back unnoticed.
#[test]
fn plan_files_stay_within_the_recorded_bytes() {
    let mut total = 0;
    for name in PLANNED {
        for machine in ["gpu", "cell"] {
            let base = polymem_machine::desc::lookup(machine).unwrap().config();
            for (double_buffer, hierarchy) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let toggles = LaunchToggles {
                    double_buffer,
                    hierarchy,
                    ..LaunchToggles::default()
                };
                let l = launch(name, 16, &base, &toggles, false).expect("built-in");
                let (sp, _) = warm_plan(&l.kernel, &l.params, &l.config, None, None)
                    .unwrap()
                    .expect("the mapping stages");
                let key = plan_artifact_key(&l.kernel, &l.params, &l.config)
                    .unwrap()
                    .unwrap();
                let art = PlanArtifact::build(&l.kernel.program, &sp, key, &l.params).unwrap();
                let bytes = encode_artifact(&art);
                let at = format!("{name}/{machine} db={double_buffer} hier={hierarchy}");
                assert!(decode_artifact(&bytes, &l.kernel.program).is_some(), "{at}");
                total += bytes.len();
            }
        }
    }
    eprintln!("32 plan files: {total} bytes (recorded {PROBE_PLAN_BYTES})");
    assert!(total <= PROBE_PLAN_BYTES, "plan files grew: {total} bytes");
}

/// splitmix64: the deterministic stream the mutation fuzz draws from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Feed `cases` resealed mutants of `bytes` through `decode`: each
/// mutant changes 1–3 payload bytes and recomputes the checksum, so it
/// gets past the envelope. Every case must return (no panic) within
/// `DEADLINE`; a case that hangs fails the test after `HANG`. Returns
/// how many mutants decoded.
fn fuzz_resealed(
    bytes: &[u8],
    (magic, version): ([u8; 4], u32),
    seed: u64,
    cases: usize,
    decode: impl Fn(&[u8]) -> bool + Send + 'static,
) -> usize {
    const DEADLINE: std::time::Duration = std::time::Duration::from_millis(100);
    const HANG: std::time::Duration = std::time::Duration::from_secs(10);
    let (key, payload) = open(bytes, magic, version).expect("the seed artifact opens");
    let payload = payload.to_vec();
    let (tx, rx) = std::sync::mpsc::channel();
    // Joined once every verdict is in; a hung case is reported without
    // waiting for it.
    let worker = std::thread::spawn(move || {
        let mut rng = seed;
        for case in 0..cases {
            let mut p = payload.clone();
            for _ in 0..=splitmix64(&mut rng) % 3 {
                let r = splitmix64(&mut rng);
                let at = (r % p.len() as u64) as usize;
                p[at] ^= 1 + (r >> 56) as u8 % 255;
            }
            let mutant = seal(magic, version, key, &p);
            let t0 = std::time::Instant::now();
            let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| decode(&mutant)));
            if tx.send((case, verdict.ok(), t0.elapsed())).is_err() {
                return;
            }
        }
    });
    let mut decoded = 0;
    for _ in 0..cases {
        let (case, verdict, took) = rx
            .recv_timeout(HANG)
            .unwrap_or_else(|_| panic!("seed {seed:#x}: a mutant hung past {HANG:?}"));
        let ok = verdict.unwrap_or_else(|| panic!("seed {seed:#x}: mutant {case} panicked"));
        assert!(
            took < DEADLINE,
            "seed {seed:#x}: mutant {case} took {took:?}"
        );
        decoded += ok as usize;
    }
    worker.join().expect("the fuzz worker returns");
    decoded
}

const FUZZ_CASES: usize = 10_000;

/// Loads are total over resealed mutants of a plan artifact with a
/// register level and a residency plan: every mutant decodes to a
/// plan that fits or to `None`, each within the deadline.
#[test]
fn resealed_plan_mutants_load_or_refuse_within_the_deadline() {
    let dir = temp_store("fuzz_plan");
    let toggles = LaunchToggles {
        double_buffer: true,
        hierarchy: true,
        artifact_dir: Some(dir.to_string_lossy().into_owned()),
        ..LaunchToggles::default()
    };
    let l = launch(
        "matmul",
        4,
        &MachineConfig::geforce_8800_gtx(),
        &toggles,
        false,
    )
    .unwrap();
    let (sp, _) = warm_plan(&l.kernel, &l.params, &l.config, None, None)
        .unwrap()
        .expect("the mapping stages");
    assert!(sp.hier.is_some() && sp.residency.as_ref().is_some_and(|r| !r.is_empty()));
    let key = plan_artifact_key(&l.kernel, &l.params, &l.config)
        .unwrap()
        .unwrap();
    let bytes = std::fs::read(ArtifactStore::open(&dir).unwrap().path_for(&key)).unwrap();
    let program = l.kernel.program.clone();
    let decoded = fuzz_resealed(
        &bytes,
        (MAGIC, FORMAT_VERSION),
        0x5eed_0001,
        FUZZ_CASES,
        move |b| decode_artifact(b, &program).is_some(),
    );
    eprintln!(
        "plan: {decoded} of {FUZZ_CASES} resealed mutants of {} bytes load",
        bytes.len()
    );
}

/// The same over a tune artifact whose rows are a real candidate
/// space.
#[test]
fn resealed_tune_mutants_load_or_refuse_within_the_deadline() {
    let gpu = MachineConfig::geforce_8800_gtx();
    let cands = tunespace::candidates("matmul", &gpu, true).expect("space");
    let rows: Vec<TuneRow> = (cands.iter().enumerate())
        .map(|(i, c)| TuneRow {
            desc: c.desc.clone(),
            predicted: 1000 + i as u64,
            simulated: (i % 3 == 0).then_some(900 + i as u64),
            exact: true,
            preset: c.preset,
            note: if i % 5 == 0 {
                "infeasible: needs 1 B".into()
            } else {
                String::new()
            },
        })
        .collect();
    let art = TuneArtifact {
        key: polymem_core::smem::ArtifactKey { lo: 1, hi: 2 },
        winner: rows[0].desc.clone(),
        winner_predicted: 1000,
        winner_cycles: 900,
        rows,
    };
    let bytes = art.encode();
    let version = (TUNE_MAGIC, TUNE_FORMAT_VERSION);
    let decoded = fuzz_resealed(&bytes, version, 0x5eed_0002, FUZZ_CASES, |b| {
        TuneArtifact::decode(b).is_some()
    });
    eprintln!(
        "tune: {decoded} of {FUZZ_CASES} resealed mutants of {} bytes load",
        bytes.len()
    );
}
