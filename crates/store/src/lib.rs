//! # orfpred-store — columnar SMART telemetry store
//!
//! Append-only on-disk log for daily SMART snapshots, built so repeated
//! experiments replay from durable segments instead of re-running the
//! simulator or re-parsing CSV (see DESIGN.md §11):
//!
//! - **Segments** (`segment`): fixed-row-count units with per-column
//!   encoding (dictionary disk ids, zigzag-delta days, delta-varint or
//!   raw-f32 feature columns), a CRC-checked footer of per-column offsets,
//!   and a fixed trailer. Replay is bit-identical to the recorded stream.
//! - **Writer** (`writer`): [`StoreWriter`] seals segments via the
//!   tmp + fsync + rename discipline and atomically rewrites the
//!   `store.json` manifest after every seal, so a crash leaves a readable
//!   consistent prefix.
//! - **Reader** (`reader`): [`Store`] streams [`DiskDay`] records or full
//!   [`FleetEvent`] sequences (failure events synthesized from the disk
//!   roster in exactly the simulator's order), exposes each decoded
//!   [`Segment`], and offers [`Store::verify`] / [`Store::info`] for
//!   integrity checks and `data info` summaries.
//! - **Faults** (`fault`): write-time injection points (torn write, crash
//!   before rename, silent byte flip) driven by the testkit; every
//!   corruption surfaces as a typed [`StoreError`], never a panic.
//!
//! [`DiskDay`]: orfpred_smart::record::DiskDay
//! [`FleetEvent`]: orfpred_smart::gen::FleetEvent

pub mod crc;
pub mod fault;
pub mod reader;
pub mod segment;
pub mod varint;
pub mod writer;

pub use fault::{NoStoreFaults, SegmentFault, StoreFaultInjector};
pub use reader::{ColumnStat, Events, Records, Store, StoreInfo, VerifyReport};
pub use segment::{logical_row_bytes, Segment, SegmentBuilder};
pub use writer::{
    record_dataset, record_fleet, SegmentMeta, StoreConfig, StoreMeta, StoreWriter,
    DEFAULT_SEGMENT_ROWS, META_FILE, STORE_VERSION,
};

use std::path::PathBuf;

/// Every store failure mode, typed. `Io` is the environment failing us,
/// `Corrupt` is bytes failing a check (CRC, bounds, ordering, manifest
/// consistency), `Injected` is a testkit fault firing, `InvalidInput` is a
/// caller error (out-of-order append, bad roster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    Io { path: PathBuf, detail: String },
    Corrupt { path: PathBuf, detail: String },
    Injected { path: PathBuf, detail: String },
    InvalidInput { detail: String },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, detail } => {
                write!(f, "store I/O error at {}: {detail}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "store corruption in {}: {detail}", path.display())
            }
            StoreError::Injected { path, detail } => {
                write!(f, "injected store fault at {}: {detail}", path.display())
            }
            StoreError::InvalidInput { detail } => write!(f, "invalid store input: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "orfpred-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_fleet() -> FleetConfig {
        let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 99);
        cfg.n_good = 12;
        cfg.n_failed = 3;
        cfg.duration_days = 60;
        cfg
    }

    #[test]
    fn record_and_replay_events_match_sim_exactly() {
        let fleet = tiny_fleet();
        let dir = tmp_dir("events");
        let cfg = StoreConfig {
            segment_rows: 128, // force several segments
            ..StoreConfig::default()
        };
        let meta = record_fleet(&dir, &fleet, cfg).unwrap();
        assert!(meta.segments.len() > 1, "want multiple segments");

        let store = Store::open(&dir).unwrap();
        store.verify().unwrap();
        let replayed: Vec<FleetEvent> = store.events().map(|e| e.unwrap()).collect();
        let expected: Vec<FleetEvent> = FleetSim::new(&fleet).collect::<Vec<_>>();
        assert_eq!(replayed.len(), expected.len());
        for (i, (a, b)) in replayed.iter().zip(&expected).enumerate() {
            match (a, b) {
                (FleetEvent::Sample(x), FleetEvent::Sample(y)) => {
                    assert_eq!(x.disk_id, y.disk_id, "event {i}");
                    assert_eq!(x.day, y.day, "event {i}");
                    for (fa, fb) in x.features.iter().zip(y.features.iter()) {
                        assert_eq!(fa.to_bits(), fb.to_bits(), "event {i}");
                    }
                }
                (
                    FleetEvent::Failure {
                        disk_id: da,
                        day: ya,
                    },
                    FleetEvent::Failure {
                        disk_id: db,
                        day: yb,
                    },
                ) => {
                    assert_eq!((da, ya), (db, yb), "event {i}");
                }
                _ => panic!("event {i}: kind mismatch"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dataset_round_trip_matches_collect() {
        let fleet = tiny_fleet();
        let ds = FleetSim::collect(&fleet);
        let dir = tmp_dir("dataset");
        record_dataset(
            &dir,
            &ds,
            StoreConfig {
                segment_rows: 200,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let store = Store::open(&dir).unwrap();
        let back = store.dataset().unwrap();
        assert_eq!(back.model, ds.model);
        assert_eq!(back.duration_days, ds.duration_days);
        assert_eq!(back.disks.len(), ds.disks.len());
        assert_eq!(back.records.len(), ds.records.len());
        for (a, b) in back.records.iter().zip(&ds.records) {
            assert_eq!((a.disk_id, a.day), (b.disk_id, b.day));
            for (fa, fb) in a.features.iter().zip(b.features.iter()) {
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_rejects_out_of_order_and_unknown_disks() {
        let fleet = tiny_fleet();
        let ds = FleetSim::collect(&fleet);
        let dir = tmp_dir("order");
        let mut w = StoreWriter::create(
            &dir,
            &ds.model,
            ds.duration_days,
            &ds.disks,
            StoreConfig::default(),
        )
        .unwrap();
        w.append(&ds.records[1]).unwrap();
        assert!(matches!(
            w.append(&ds.records[0]),
            Err(StoreError::InvalidInput { .. })
        ));
        let mut bad = ds.records[2].clone();
        bad.disk_id = ds.disks.len() as u32 + 7;
        assert!(matches!(
            w.append(&bad),
            Err(StoreError::InvalidInput { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let fleet = tiny_fleet();
        let dir = tmp_dir("exists");
        record_fleet(&dir, &fleet, StoreConfig::default()).unwrap();
        assert!(matches!(
            StoreWriter::create(&dir, "X", 1, &[], StoreConfig::default()),
            Err(StoreError::InvalidInput { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_reports_columns_and_sizes() {
        let fleet = tiny_fleet();
        let dir = tmp_dir("info");
        let meta = record_fleet(
            &dir,
            &fleet,
            StoreConfig {
                segment_rows: 256,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let store = Store::open(&dir).unwrap();
        let info = store.info().unwrap();
        assert_eq!(info.rows, meta.total_rows);
        assert_eq!(info.segments, meta.segments.len());
        assert_eq!(info.columns.len(), orfpred_smart::N_FEATURES);
        assert_eq!(info.schema_name, "smart");
        assert_eq!(info.n_attributes, orfpred_smart::N_ATTRIBUTES);
        assert_eq!(
            info.schema_fp,
            orfpred_smart::DomainSchema::smart().fingerprint()
        );
        assert!(info.disk_bytes > 0);
        assert!(
            info.disk_bytes < info.logical_bytes,
            "encoded ({}) should beat logical ({})",
            info.disk_bytes,
            info.logical_bytes
        );
        let col_sum: u64 = info.columns.iter().map(|c| c.encoded_bytes).sum();
        assert!(col_sum > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_schema_appends_are_refused_with_a_typed_error() {
        use orfpred_smart::DomainSchema;
        let fleet = tiny_fleet();
        let ds = FleetSim::collect(&fleet);
        let dir = tmp_dir("mixed");
        let mce = DomainSchema::mce();
        let mut w = StoreWriter::create(
            &dir,
            "MCE-NODE",
            ds.duration_days,
            &ds.disks,
            StoreConfig {
                schema: mce.clone(),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        // SMART-width rows must be refused by an mce-schema store.
        let err = w.append(&ds.records[0]).unwrap_err();
        match err {
            StoreError::InvalidInput { detail } => {
                assert!(detail.contains("mixed-schema"), "got: {detail}")
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // A correctly sized row is accepted and the schema survives reopen.
        let mut rec = ds.records[0].clone();
        rec.features = vec![1.0; mce.n_base_features()];
        w.append(&rec).unwrap();
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.schema().name, "mce");
        store.verify_domain(&mce).unwrap();
        assert!(matches!(
            store.verify_domain(&DomainSchema::smart()),
            Err(StoreError::InvalidInput { .. })
        ));
        store.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
