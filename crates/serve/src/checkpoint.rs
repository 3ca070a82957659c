//! Durable serving state: the full Algorithm 2 pipeline — forest, scaler,
//! labelling queues, alarm threshold — plus the stream position, written
//! atomically (write-tmp → fsync → rename) so a crash never leaves a
//! half-written file.
//!
//! The JSON shape is deliberately identical to the CLI's `SavedModel`
//! (`{"Online": {...}}`): a v1 model file written by `orfpred train
//! --online` (scaler + forest only) restores into a daemon with empty
//! labelling queues, and a daemon checkpoint loads anywhere a `SavedModel`
//! does. The extra fields are optional for exactly that reason.
//!
//! Loading is defensive: a truncated, torn, or structurally inconsistent
//! file yields a typed [`CheckpointError`] with a message naming the file
//! and the defect — never a panic deep inside a deserializer or, worse, an
//! engine that starts on nonsense state (`tests/fault_checkpoint.rs`
//! exercises the torn-write path end to end).

use crate::fault::{CheckpointFault, FaultInjector, NoFaults};
use orfpred_core::{AdaptiveState, OnlineLabeller, OnlineRandomForest};
use orfpred_prep::Preprocessor;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current checkpoint schema version ([`Checkpoint::Online`]'s `version`
/// field). v1 files predate the field and deserialize as `None`; v2 files
/// predate the domain-schema and window-stage fields, which deserialize as
/// `None` — the implicit SMART domain with no derived features.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why a checkpoint could not be saved or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written (missing, permissions,
    /// full disk, failed fsync/rename).
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Operating-system error text.
        detail: String,
    },
    /// The file exists but does not hold a usable checkpoint: truncated by
    /// a torn write, garbage bytes, or a JSON document whose pieces are
    /// mutually inconsistent (see [`Checkpoint::validate`]).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What exactly is wrong with it.
        detail: String,
    },
    /// An injected fault aborted the save mid-write (testkit only). The
    /// on-disk state is whatever the fault left behind — the previous file
    /// for [`CheckpointFault::CrashBeforeRename`], a truncated file for
    /// [`CheckpointFault::TornWrite`].
    Injected {
        /// File the aborted save targeted.
        path: PathBuf,
        /// The fault that fired.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error on {}: {detail}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => write!(
                f,
                "checkpoint {} is truncated or corrupt: {detail} \
                 (delete it or restore an older checkpoint to proceed)",
                path.display()
            ),
            CheckpointError::Injected { path, detail } => write!(
                f,
                "injected checkpoint fault on {}: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serving checkpoint; the single variant keeps the external tag that
/// makes the file a valid `SavedModel` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Checkpoint {
    /// Online pipeline state.
    Online {
        /// Streaming min–max scaler state.
        scaler: OnlineMinMax,
        /// The online random forest.
        forest: OnlineRandomForest,
        /// Schema version; `None` on v1 files (scaler + forest only).
        version: Option<u32>,
        /// Merged per-disk labelling queues (Algorithm 2 state). `None` on
        /// v1 files: restore with empty queues.
        labeller: Option<OnlineLabeller>,
        /// Alarm operating point. `None` on v1 files: use the config's.
        alarm_threshold: Option<f32>,
        /// Alarms raised before the checkpoint.
        alarms_raised: Option<u64>,
        /// Next global sequence number; a restored engine resumes here.
        next_seq: Option<u64>,
        /// Stream events (samples + failures, barriers excluded) applied
        /// before the checkpoint. `next_seq` cannot serve this purpose —
        /// it also counts checkpoint/shutdown barriers — and the telemetry
        /// store's catch-up replay needs the exact number of *events* to
        /// skip (a tenant's `catchup_store`). `None` on older files:
        /// catch-up then replays from the beginning. With a preprocessing
        /// stage enabled this counts *raw* events offered to `ingest`
        /// (before repair/drop/hold), matching what the store replays.
        events_ingested: Option<u64>,
        /// Ingest-side preprocessing state (imputation memory, held
        /// failures, repair counters). `None` on older files or when the
        /// engine runs without a prep stage.
        prep: Option<Preprocessor>,
        /// Drift-adaptation loop state (detector windows, labelled-history
        /// buffers, rebuild bookkeeping). `None` on older files or when the
        /// engine runs without adaptation.
        adapt: Option<AdaptiveState>,
        /// The telemetry domain the checkpointed pipeline ran on. `None`
        /// on v1/v2 files and `orfpred train --online` models: the
        /// implicit SMART domain. Carried so a restore against a different
        /// domain fails a fingerprint check ([`Checkpoint::check_domain`])
        /// instead of silently misaligning feature columns.
        schema: Option<DomainSchema>,
        /// Sliding-window derived-feature state at the barrier (per-disk
        /// history). `None` on v1/v2 files or when the domain's derived
        /// plan is empty.
        window: Option<WindowStage>,
    },
}

impl Checkpoint {
    /// Serialize and atomically replace `path`: write to a sibling
    /// temporary file, fsync it, then rename over the target, so `path`
    /// always holds either the previous or the new checkpoint in full.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_atomic_faulted(path, &NoFaults)
    }

    /// [`Checkpoint::save_atomic`] with an injection point: the injector
    /// may abort the save mid-write to simulate a crash or a torn file
    /// (the fault semantics are documented on [`CheckpointFault`]).
    pub fn save_atomic_faulted(
        &self,
        path: &Path,
        injector: &dyn FaultInjector,
    ) -> Result<(), CheckpointError> {
        let io = |p: &Path, e: std::io::Error| CheckpointError::Io {
            path: p.to_path_buf(),
            detail: e.to_string(),
        };
        let bytes = serde_json::to_vec(self).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            detail: format!("serialize checkpoint: {e}"),
        })?;
        let tmp = path.with_extension("tmp");
        match injector.checkpoint_fault(path) {
            CheckpointFault::None => {}
            CheckpointFault::CrashBeforeRename => {
                // The crash window the rename protects against: tmp fully
                // written and synced, target untouched.
                std::fs::write(&tmp, &bytes).map_err(|e| io(&tmp, e))?;
                return Err(CheckpointError::Injected {
                    path: path.to_path_buf(),
                    detail: "crash before rename (tmp written, target untouched)".into(),
                });
            }
            CheckpointFault::TornWrite { keep } => {
                // A filesystem without the atomic guarantee: a prefix of
                // the new bytes lands directly in the target.
                let keep = keep.min(bytes.len());
                std::fs::write(path, &bytes[..keep]).map_err(|e| io(path, e))?;
                return Err(CheckpointError::Injected {
                    path: path.to_path_buf(),
                    detail: format!("torn write ({keep} of {} bytes)", bytes.len()),
                });
            }
        }
        let mut file = std::fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
        file.write_all(&bytes).map_err(|e| io(&tmp, e))?;
        file.sync_all().map_err(|e| io(&tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io(path, e))?;
        Ok(())
    }

    /// Load a checkpoint (or v1 `SavedModel::Online`) from `path`.
    ///
    /// A missing/unreadable file is [`CheckpointError::Io`]; anything that
    /// parses wrong or fails [`Checkpoint::validate`] is
    /// [`CheckpointError::Corrupt`] — callers can distinguish "no
    /// checkpoint yet" from "the checkpoint is damaged, fall back".
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        let ck: Checkpoint =
            serde_json::from_slice(&bytes).map_err(|e| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: e.to_string(),
            })?;
        ck.validate().map_err(|detail| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })?;
        Ok(ck)
    }

    /// The telemetry domain the checkpoint was written for: its schema, or
    /// the implicit SMART domain when it carries none.
    fn domain(&self) -> Cow<'_, DomainSchema> {
        let Checkpoint::Online {
            schema,
            scaler: _,
            forest: _,
            version: _,
            labeller: _,
            alarm_threshold: _,
            alarms_raised: _,
            next_seq: _,
            events_ingested: _,
            prep: _,
            adapt: _,
            window: _,
        } = self;
        schema
            .as_ref()
            .map_or_else(|| Cow::Owned(DomainSchema::smart()), Cow::Borrowed)
    }

    /// Refuse a restore into an engine configured for another domain: the
    /// two fingerprints must match, a checkpoint without a schema counting
    /// as SMART.
    pub fn check_domain(&self, configured: &DomainSchema) -> Result<(), String> {
        let saved = self.domain();
        if saved.fingerprint() == configured.fingerprint() {
            return Ok(());
        }
        Err(format!(
            "checkpoint domain `{}` does not match the configured domain `{}`",
            saved.name, configured.name
        ))
    }

    /// Structural consistency checks on a parsed checkpoint: pieces that
    /// deserialize fine individually but cannot have come from one engine
    /// are rejected here, before they can panic deep inside scoring or
    /// restore (scaler/forest width mismatch, scaler bounds that do not
    /// match its columns, a scaler column past its domain's row, a zero
    /// labelling window, a version from the future).
    pub fn validate(&self) -> Result<(), String> {
        // lint: allow(checkpoint_coverage, reason="shape validation probes only the structurally constrained fields; Engine::restore consumes every field")
        let Checkpoint::Online {
            scaler,
            forest,
            version,
            labeller,
            alarm_threshold,
            schema,
            window,
            ..
        } = self;
        if let Some(v) = version {
            if *v > CHECKPOINT_VERSION {
                return Err(format!(
                    "version {v} is newer than this binary's {CHECKPOINT_VERSION}"
                ));
            }
        }
        if scaler.n_outputs() == 0 {
            return Err("scaler has zero output columns".into());
        }
        scaler.validate()?;
        if scaler.n_outputs() != forest.n_features() {
            return Err(format!(
                "scaler produces {} features but the forest expects {}",
                scaler.n_outputs(),
                forest.n_features()
            ));
        }
        if let Some(l) = labeller {
            if l.window() == 0 {
                return Err("labeller window is zero (queues could never release)".into());
            }
        }
        if let Some(t) = alarm_threshold {
            if !t.is_finite() {
                return Err(format!("alarm threshold {t} is not finite"));
            }
        }
        if let Some(s) = schema {
            s.validate().map_err(|e| format!("domain schema: {e}"))?;
            if let Some(w) = window {
                if w.n_base() != s.n_base_features() || w.n_features() != s.n_features() {
                    return Err(format!(
                        "window stage is {}→{} columns but the schema says {}→{}",
                        w.n_base(),
                        w.n_features(),
                        s.n_base_features(),
                        s.n_features()
                    ));
                }
            }
        } else if window.is_some() {
            return Err("window state present without a domain schema".into());
        }
        let domain = self.domain();
        if let Some(c) = scaler.cols().iter().find(|&&c| c >= domain.n_features()) {
            return Err(format!(
                "scaler reads column {c} but a `{}` row has {} columns",
                domain.name,
                domain.n_features()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_core::OrfConfig;

    fn tiny() -> Checkpoint {
        let cols = vec![0usize, 2];
        let mut scaler = OnlineMinMax::new_log1p(&cols);
        scaler.update(&[1.0, 9.0, 3.0]);
        let mut forest = OnlineRandomForest::new(
            2,
            OrfConfig {
                n_trees: 2,
                warmup_age: 0,
                ..OrfConfig::default()
            },
            7,
        );
        forest.update(&[0.1, 0.9], true);
        let mut labeller = OnlineLabeller::new(7);
        labeller.observe_sample(3, 1, &[1.0, 9.0, 3.0]);
        Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: Some(labeller),
            alarm_threshold: Some(0.4),
            alarms_raised: Some(5),
            next_seq: Some(42),
            events_ingested: Some(41),
            prep: Some(Preprocessor::new(&orfpred_prep::PrepConfig::tolerant())),
            adapt: None,
            schema: Some(DomainSchema::smart()),
            window: None,
        }
    }

    #[test]
    fn atomic_save_round_trips_byte_identically() {
        let ck = tiny();
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_test.json");
        ck.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        // Byte-identity of re-serialization is the restore guarantee.
        assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_saved_model_without_serving_fields_loads() {
        let ck = tiny();
        // Strip the serving fields down to a v1 document by hand.
        let Checkpoint::Online { scaler, forest, .. } = ck;
        let v1 = format!(
            "{{\"Online\":{{\"scaler\":{},\"forest\":{}}}}}",
            serde_json::to_string(&scaler).unwrap(),
            serde_json::to_string(&forest).unwrap()
        );
        let loaded: Checkpoint = serde_json::from_str(&v1).unwrap();
        loaded.validate().unwrap();
        let Checkpoint::Online {
            version,
            labeller,
            alarm_threshold,
            next_seq,
            ..
        } = loaded;
        assert_eq!(version, None);
        assert!(labeller.is_none());
        assert!(alarm_threshold.is_none());
        assert!(next_seq.is_none());
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_does_not_exist.json");
        match Checkpoint::load(&path) {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_a_typed_corrupt_error() {
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_trunc_test.json");
        let ck = tiny();
        ck.save_atomic(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for frac in [0, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..frac]).unwrap();
            match Checkpoint::load(&path) {
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(!detail.is_empty());
                }
                other => panic!("truncation to {frac} bytes: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_document_is_rejected_by_validate() {
        // Scaler for 2 columns, forest expecting 5: parses, must not load.
        let Checkpoint::Online { scaler, .. } = tiny();
        let forest = OnlineRandomForest::new(5, OrfConfig::default(), 7);
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: None,
            alarm_threshold: Some(0.5),
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            schema: None,
            window: None,
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("forest expects"), "got: {err}");
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_inconsistent_test.json");
        std::fs::write(&path, serde_json::to_vec(&bad).unwrap()).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION + 1),
            labeller: None,
            alarm_threshold: None,
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            schema: None,
            window: None,
        };
        assert!(bad.validate().unwrap_err().contains("newer"));
    }

    #[test]
    fn v3_checkpoint_with_non_default_domain_round_trips() {
        let schema = DomainSchema::mce();
        let mut window = WindowStage::new(&schema);
        // Give the window real per-disk history so the round trip covers it.
        for day in 0..4u16 {
            for disk in [2u32, 9] {
                let mut row = vec![0.0f32; schema.n_base_features()];
                row[1] = f32::from(day) * 3.0 + disk as f32;
                window.extend(disk, &mut row);
            }
        }
        let Checkpoint::Online {
            scaler,
            forest,
            labeller,
            ..
        } = tiny();
        let ck = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller,
            alarm_threshold: Some(0.4),
            alarms_raised: Some(1),
            next_seq: Some(7),
            events_ingested: Some(6),
            prep: None,
            adapt: None,
            schema: Some(schema.clone()),
            window: Some(window),
        };
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_v3_domain_test.json");
        ck.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        let Checkpoint::Online {
            schema: s,
            window: w,
            ..
        } = back;
        let s = s.unwrap();
        assert_eq!(s.fingerprint(), schema.fingerprint());
        let w = w.unwrap();
        assert_eq!(w.n_tracked(), 2, "per-disk history survived");
        assert_eq!(w.n_features(), schema.n_features());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_checkpoint_without_schema_loads_as_implicit_smart() {
        // A v2 document: everything tiny() has except the v3 fields.
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let v2 = format!(
            "{{\"Online\":{{\"scaler\":{},\"forest\":{},\"version\":2,\"alarm_threshold\":0.5}}}}",
            serde_json::to_string(&scaler).unwrap(),
            serde_json::to_string(&forest).unwrap()
        );
        let loaded: Checkpoint = serde_json::from_str(&v2).unwrap();
        loaded.validate().unwrap();
        loaded.check_domain(&DomainSchema::smart()).unwrap();
        let err = loaded.check_domain(&DomainSchema::mce()).unwrap_err();
        assert!(err.contains("`mce`"), "{err}");
        let Checkpoint::Online { schema, window, .. } = loaded;
        assert!(
            schema.is_none(),
            "v2 files carry no schema (implicit SMART)"
        );
        assert!(window.is_none());
    }

    #[test]
    fn a_scaler_reading_past_the_domain_row_is_corrupt() {
        // Column 48 is one past a SMART row, with or without a schema.
        let width = DomainSchema::smart().n_features();
        for schema in [Some(DomainSchema::smart()), None] {
            let mut ck = tiny();
            let Checkpoint::Online {
                scaler, schema: s, ..
            } = &mut ck;
            *scaler = OnlineMinMax::new_log1p(&[0, width]);
            *s = schema;
            let path = std::env::temp_dir().join(format!(
                "orfpred_serve_ckpt_wide_scaler_{}.json",
                std::process::id()
            ));
            std::fs::write(&path, serde_json::to_vec(&ck).unwrap()).unwrap();
            match Checkpoint::load(&path) {
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("column 48"), "{detail}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_scaler_with_short_bounds_is_corrupt() {
        // Null bounds read back as NaN, the shape of a scaler saved before
        // its first row: valid at full length, corrupt when one is missing.
        for (max, ok) in [("[null,null]", true), ("[null]", false), ("[]", false)] {
            let mut ck = tiny();
            let Checkpoint::Online { scaler, .. } = &mut ck;
            *scaler = serde_json::from_str(&format!(
                r#"{{"cols":[0,2],"min":[null,null],"max":{max},"seen":0,"log1p":true}}"#
            ))
            .unwrap();
            let path = std::env::temp_dir().join(format!(
                "orfpred_serve_ckpt_short_bounds_{}.json",
                std::process::id()
            ));
            std::fs::write(&path, serde_json::to_vec(&ck).unwrap()).unwrap();
            match Checkpoint::load(&path) {
                Ok(_) => assert!(ok, "max {max} loaded"),
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(!ok, "max {max}: {detail}");
                    assert!(detail.contains("2 columns"), "{detail}");
                }
                Err(other) => panic!("max {max}: expected Corrupt, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mismatched_window_and_schema_are_rejected() {
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: None,
            alarm_threshold: None,
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            // SMART schema but a window stage built for the mce layout.
            schema: Some(DomainSchema::smart()),
            window: Some(WindowStage::new(&DomainSchema::mce())),
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("window stage"), "got: {err}");
    }
}
