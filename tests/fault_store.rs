//! Telemetry-store faults end to end: torn segment writes, crashes between
//! write and rename, and silent bit rot discovered only at read time. In
//! every case the outcome must be a **typed error** (`StoreError::Corrupt`
//! / `Injected`) or a provably consistent prefix — never a panic, never
//! silently truncated data.

use orfpred::fleet::{parse_daemon_args, run};
use orfpred::smart::gen::{FleetConfig, FleetSim, ScalePreset};
use orfpred::smart::DomainSchema;
use orfpred::store::{
    record_fleet, Segment, SegmentFault, Store, StoreConfig, StoreError, StoreWriter,
};
use orfpred_testkit::FaultPlan;
use std::path::PathBuf;
use std::sync::Arc;

fn fleet(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 10;
    cfg.n_failed = 2;
    cfg.duration_days = 60;
    cfg
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("orfpred_fault_store_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Record `fleet(seed)` into `dir` with small segments so several rotations
/// happen; `plan` supplies the fault schedule.
fn record_with_plan(
    dir: &std::path::Path,
    plan: &Arc<FaultPlan>,
    seed: u64,
) -> Result<orfpred::store::StoreMeta, StoreError> {
    record_fleet(
        dir,
        &fleet(seed),
        StoreConfig {
            segment_rows: 64,
            injector: Arc::clone(plan) as Arc<dyn orfpred::store::StoreFaultInjector>,
            ..StoreConfig::default()
        },
    )
}

#[test]
fn truncated_segment_is_a_typed_corruption_error_at_open() {
    let dir = workdir("trunc");
    let meta = record_with_plan(&dir, &Arc::new(FaultPlan::new()), 1).unwrap();
    assert!(meta.segments.len() >= 2, "want several segments");

    // Post-hoc tear: the manifest still lists the full size, the file lost
    // its tail (data blocks never hit disk, metadata did).
    let seg_path = dir.join(&meta.segments[1].file);
    let bytes = std::fs::read(&seg_path).unwrap();
    std::fs::write(&seg_path, &bytes[..bytes.len() / 3]).unwrap();

    let err = Store::open(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::Corrupt { .. }),
        "open must flag the size mismatch as corruption, got: {err}"
    );
    assert!(
        err.to_string().contains(&meta.segments[1].file),
        "error must name the damaged file: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_footer_bit_is_caught_by_crc_not_by_luck() {
    let dir = workdir("flip");
    let meta = record_with_plan(&dir, &Arc::new(FaultPlan::new()), 2).unwrap();

    // Flip one bit inside the footer region of segment 0 (a handful of
    // bytes before the fixed-size trailer). The file size is unchanged, so
    // open() succeeds — only the CRC can notice.
    let seg_path = dir.join(&meta.segments[0].file);
    let mut bytes = std::fs::read(&seg_path).unwrap();
    let at = bytes.len() - 20;
    bytes[at] ^= 0x08;
    std::fs::write(&seg_path, &bytes).unwrap();

    let store = Store::open(&dir).expect("stat-level checks still pass");
    let err = store.verify().unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "got: {err}");

    // The streaming replay hits the same typed error on the first event
    // instead of yielding garbage rows.
    let first = store.events().next().expect("iterator yields the error");
    assert!(matches!(first, Err(StoreError::Corrupt { .. })));
    // After the error the iterator fuses — no partial segment leaks out.
    let mut events = store.events();
    assert!(events.next().unwrap().is_err());
    assert!(events.next().is_none(), "iterator must fuse after an error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_bit_rot_is_silent_at_write_time_and_typed_at_read_time() {
    let dir = workdir("rot");
    let plan = Arc::new(FaultPlan::new());
    plan.store_fault_at(
        1,
        SegmentFault::FlipByte {
            byte_from_end: 25,
            xor: 0x40,
        },
    );
    // The writer cannot see the rot: recording succeeds end to end.
    let meta = record_with_plan(&dir, &plan, 3).unwrap();
    assert!(plan.all_consumed(), "the flip must actually fire");
    assert!(meta.segments.len() >= 2);

    let store = Store::open(&dir).expect("sizes all match the manifest");
    let err = store.verify().unwrap_err();
    assert!(
        matches!(err, StoreError::Corrupt { .. }),
        "verify must catch injected rot: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_segment_write_fails_loud_and_keeps_the_sealed_prefix() {
    let dir = workdir("torn");
    let plan = Arc::new(FaultPlan::new());
    plan.store_fault_at(1, SegmentFault::TornWrite { keep: 100 });

    let err = record_with_plan(&dir, &plan, 4).unwrap_err();
    assert!(
        matches!(err, StoreError::Injected { .. }),
        "the writer must surface the tear, got: {err}"
    );
    assert!(plan.all_consumed());

    // The manifest never admitted the torn segment: the store opens as the
    // consistent one-segment prefix and replays clean.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.n_segments(), 1);
    assert_eq!(store.n_rows(), 64);
    store.verify().unwrap();
    assert!(store.records().all(|r| r.is_ok()));

    // The torn file itself is on disk but undecodable — a reader that
    // bypasses the manifest still gets a typed error, not garbage.
    let torn = std::fs::read(dir.join("seg-00001.orfseg")).unwrap();
    assert_eq!(torn.len(), 100);
    let err = Segment::decode(&torn, &dir.join("seg-00001.orfseg")).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_rename_leaves_only_a_tmp_file_and_a_readable_store() {
    let dir = workdir("crash");
    let plan = Arc::new(FaultPlan::new());
    plan.store_fault_at(1, SegmentFault::CrashBeforeRename);

    let err = record_with_plan(&dir, &plan, 5).unwrap_err();
    assert!(matches!(err, StoreError::Injected { .. }), "got: {err}");
    assert!(plan.all_consumed());

    // The rename never happened: no second segment, the fully-written temp
    // file is still there (crash-recovery debris), and the store is the
    // consistent one-segment prefix.
    assert!(!dir.join("seg-00001.orfseg").exists());
    assert!(dir.join("seg-00001.tmp").exists());
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.n_segments(), 1);
    store.verify().unwrap();
    let mut n = 0u64;
    for e in store.events() {
        e.expect("the surviving prefix replays clean");
        n += 1;
    }
    assert_eq!(n, store.n_rows() + failures_in_prefix(&store));
    std::fs::remove_dir_all(&dir).ok();
}

/// Failures the replay synthesizes for a (possibly truncated) store: one
/// per failed roster disk whose failure day falls inside the recorded
/// prefix (or at the stream end).
fn failures_in_prefix(store: &Store) -> u64 {
    store
        .events()
        .map(|e| e.unwrap())
        .filter(|e| matches!(e, orfpred::smart::gen::FleetEvent::Failure { .. }))
        .count() as u64
}

#[test]
fn a_flag_built_daemon_refuses_a_store_of_another_schema() {
    // `orfpredd --store DIR` without `--tenant`: catch-up must check the
    // store's domain schema before replaying a row. An mce store behind the
    // SMART `default` tenant is the store's typed schema error at startup,
    // never a silent width pun.
    let dir = workdir("schema_mismatch");
    let ds = FleetSim::collect(&fleet(7));
    let mce = DomainSchema::mce();
    let store_cfg = StoreConfig {
        schema: mce.clone(),
        ..StoreConfig::default()
    };
    let mut w = StoreWriter::create(&dir, "MCE-NODE", ds.duration_days, &ds.disks, store_cfg)
        .expect("mce store created");
    let mut rec = ds.records[0].clone();
    rec.features = vec![1.0; mce.n_base_features()];
    w.append(&rec).expect("mce-width row accepted");
    w.finish().expect("store sealed");

    let argv = ["--store".to_string(), dir.to_string_lossy().into_owned()];
    let cfg = parse_daemon_args(argv).expect("flags parse");
    let mut out = Vec::new();
    let err = run(
        &cfg,
        std::io::Cursor::new("{\"type\":\"shutdown\"}\n"),
        &mut out,
    )
    .err()
    .expect("the daemon refuses to start");
    assert!(
        err.contains("store was recorded under schema `mce`"),
        "got: {err}"
    );
    assert!(out.is_empty(), "nothing was served before the refusal");
    std::fs::remove_dir_all(&dir).ok();
}
