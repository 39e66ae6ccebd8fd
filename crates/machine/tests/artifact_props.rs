//! Properties of the content-addressed plan-artifact store, driven
//! through the real kernels: the binary codec must round-trip every
//! plan the executor produces (5 kernels × GPU/Cell × hierarchy
//! on/off), loads must survive re-proof against the live program, and
//! every corruption class — wrong version, wrong schema, truncation,
//! payload bit-flips, checksum damage, key damage — must fall back to
//! `None`, never panic, never partial data.
//!
//! The restart test is the PR's headline property: a process with a
//! cold plan cache but a warm store skips the §3 passes entirely
//! (`PlanSource::Artifact`, zero compiler nanoseconds on the
//! profiler) and still executes bit-exactly.

use polymem_core::smem::artifact::{
    decode_artifact, encode_artifact, ArtifactStore, FORMAT_VERSION,
};
use polymem_ir::{exec_program, ArrayStore};
use polymem_kernels::builtins::{launch, Builtin};
use polymem_kernels::tunespace;
use polymem_machine::{
    execute_blocked_seeded, plan_artifact_key, warm_plan, BlockedKernel, LaunchToggles,
    MachineConfig, PassProfiler, PlanSource,
};
use proptest::prelude::*;

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
    /// machine × hierarchy combination: the decoded artifact re-proves
    /// against the live program and re-encodes to the identical bytes.
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
        let decoded = decode_artifact(&bytes).expect("stored artifact decodes");
        prop_assert_eq!(decoded.key, key);
        prop_assert!(decoded.validate(&kernel.program), "{} re-proof", name);
        let reencoded = encode_artifact(&decoded);
        prop_assert_eq!(&reencoded, &bytes, "{}: encode∘decode is the identity", name);
        // Idempotent through a second cycle, too.
        let twice = encode_artifact(&decode_artifact(&reencoded).unwrap());
        prop_assert_eq!(&twice, &bytes);
    }
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
        decode_artifact(&bytes).is_none(),
        "future format version must not decode"
    );
    // And through the store: overwrite the file, load falls back.
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), &bytes).unwrap();
    assert!(store.load(&key, &kernel.program).is_none());
}

#[test]
fn schema_mismatch_is_rejected() {
    let (mut bytes, ..) = warmed_bytes("me", false, true, "schema");
    // schema_hash u64 le at [8..16].
    bytes[8] ^= 0xff;
    assert!(decode_artifact(&bytes).is_none());
}

#[test]
fn truncated_artifacts_are_rejected() {
    let (bytes, kernel, key, dir) = warmed_bytes("jacobi2d", false, true, "trunc");
    for cut in [bytes.len() - 1, bytes.len() / 2, 16, 4, 0] {
        assert!(
            decode_artifact(&bytes[..cut]).is_none(),
            "truncation to {cut} bytes must not decode"
        );
    }
    // Trailing garbage is corruption too, not ignorable padding.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(decode_artifact(&padded).is_none());
    let store = ArtifactStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&key), &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.load(&key, &kernel.program).is_none());
}

#[test]
fn payload_and_checksum_corruption_are_rejected() {
    let (bytes, ..) = warmed_bytes("matmul", false, false, "corrupt");
    // One flipped payload byte (anywhere after the 40-byte header)
    // breaks the FNV checksum; a flipped checksum byte mismatches
    // the intact payload.
    let mid = 40 + (bytes.len() - 48) / 2;
    for pos in [40, mid, bytes.len() - 1] {
        let mut b = bytes.clone();
        b[pos] ^= 0x01;
        assert!(
            decode_artifact(&b).is_none(),
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
            let decoded = decode_artifact(&bytes).expect("stored artifact decodes");
            assert!(decoded.validate(&l.kernel.program), "{name}/{machine}");
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
