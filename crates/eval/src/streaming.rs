//! Paper-scale evaluation without materialising the dataset.
//!
//! The full Table 1 populations (36,531 STA disks ≈ 25M daily snapshots)
//! do not fit in memory as a `Dataset` (≈ 5 GB), but nothing about the
//! §4.4 protocol actually needs them to: labels are a pure function of the
//! per-disk metadata (which the simulator knows up front), training needs
//! only the positives plus a λ-thinned negative sample, ORF is online by
//! construction, and the per-disk FDR/FAR reduce to streaming maxima.
//!
//! Two passes over the (regenerable, seeded) event stream:
//!
//! 1. collect the training matrix (all positive samples + Bernoulli-thinned
//!    negatives at the rate that lands λ·|positives| in expectation) and
//!    run the ORF over the training disks' chronological samples through
//!    [`OnlineModel::learn_labelled`], the trainer `stream_orf` uses;
//! 2. re-generate the stream and score every test-disk sample with the
//!    fitted offline RF and the final ORF, each frozen into a
//!    [`FrozenModel`], folding into per-disk maxima.
//!
//! Peak memory: the training matrix + O(#disks) accumulators.

use crate::metrics::ScoredDisks;
use crate::prep::TRAIN_RUN;
use orfpred_core::{FrozenModel, OnlineModel, OnlinePredictorConfig, OrfConfig};
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, MceSim};
use orfpred_smart::record::DiskInfo;
use orfpred_smart::scale::MinMaxScaler;
use orfpred_trees::{ForestConfig, RandomForest};
use orfpred_util::{Matrix, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// Configuration for the streaming evaluation.
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// Feature columns.
    pub cols: Vec<usize>,
    /// Prediction window in days.
    pub window: u16,
    /// NegSampleRatio for the offline RF.
    pub lambda: f64,
    /// FAR target for the reported operating points.
    pub target_far: f64,
    /// Offline RF settings.
    pub forest: ForestConfig,
    /// ORF settings.
    pub orf: OrfConfig,
    /// Seed for split/thinning (the fleet's own seed lives in its config).
    pub seed: u64,
}

impl StreamingConfig {
    /// Paper-like defaults over the given columns.
    pub fn new(cols: Vec<usize>, seed: u64) -> Self {
        Self {
            cols,
            window: 7,
            lambda: 3.0,
            target_far: 0.01,
            forest: ForestConfig::default(),
            orf: OrfConfig::default(),
            seed,
        }
    }
}

/// One model's headline numbers.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelOutcome {
    /// FDR (%) at the FAR-pinned operating point.
    pub fdr: f64,
    /// Achieved FAR (%).
    pub far: f64,
    /// Operating threshold.
    pub tau: f32,
    /// Per-disk AUC.
    pub auc: f64,
}

/// Result of the streaming evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StreamingResult {
    /// Offline RF (λ-downsampled training).
    pub rf: ModelOutcome,
    /// ORF after the full chronological stream.
    pub orf: ModelOutcome,
    /// Positive training samples collected.
    pub n_train_pos: usize,
    /// Negative training samples kept after thinning.
    pub n_train_neg: usize,
    /// Negative training samples seen before thinning.
    pub n_train_neg_total: u64,
    /// Failed / good disks in the test set.
    pub n_test_failed: usize,
    /// Good disks in the test set.
    pub n_test_good: usize,
    /// Total snapshots streamed (both passes count once).
    pub n_samples: u64,
}

/// Oracle label for a sample, from the predetermined per-disk metadata:
/// `Some(true)` inside a failed disk's final window, `None` in a survivor's
/// final (status-unknown) week, `Some(false)` otherwise.
fn oracle_label(info: &DiskInfo, day: u16, window: u16) -> Option<bool> {
    if day + window > info.last_day {
        if info.failed {
            Some(true)
        } else {
            None
        }
    } else {
        Some(false)
    }
}

/// Run the two-pass streaming evaluation on a fleet configuration.
pub fn run_streaming(fleet: &FleetConfig, cfg: &StreamingConfig) -> StreamingResult {
    let infos = FleetSim::new(fleet).disk_infos();
    run_streaming_with(cfg, &infos, || FleetSim::new(fleet))
}

/// Run the streaming evaluation replaying a recorded telemetry store
/// instead of the simulator. The store is fully verified (CRCs, ordering,
/// manifest consistency) before the evaluation starts, so replay inside
/// the passes cannot fail; given a store recorded from the same fleet
/// configuration, results are bit-identical to [`run_streaming`] because
/// the replayed event stream is bit-identical.
pub fn run_streaming_store(
    store: &orfpred_store::Store,
    cfg: &StreamingConfig,
) -> Result<StreamingResult, orfpred_store::StoreError> {
    store.verify()?;
    Ok(run_streaming_with(cfg, &store.meta().disks, || {
        store
            .events()
            .map(|e| e.expect("store verified before replay"))
    }))
}

/// Run the streaming evaluation on the mce (correctable-memory-error)
/// domain. The simulated DIMM stream carries base-width rows; a fresh
/// [`WindowStage`] is folded over each pass so every row reaches the
/// models extended with the schema's windowed delta/mean/std columns —
/// `cfg.cols` may therefore index derived columns (`>= n_base_features`).
/// Both passes build the stage from scratch over the same seeded stream,
/// so the evaluation stays bit-deterministic in `(mce.seed, cfg.seed)`.
///
/// [`WindowStage`]: orfpred_smart::WindowStage
pub fn run_streaming_mce(
    mce: &orfpred_smart::gen::MceFleetConfig,
    cfg: &StreamingConfig,
) -> StreamingResult {
    use orfpred_smart::{DomainSchema, WindowStage};
    let schema = DomainSchema::mce();
    let infos = MceSim::new(mce).disk_infos();
    run_streaming_with(cfg, &infos, || {
        let mut w = WindowStage::new(&schema);
        MceSim::new(mce).map(move |mut ev| {
            match &mut ev {
                FleetEvent::Sample(rec) => w.extend(rec.disk_id, &mut rec.features),
                FleetEvent::Failure { disk_id, .. } => w.forget(*disk_id),
            }
            ev
        })
    })
}

/// The two-pass §4.4 protocol over any twice-replayable event source: the
/// factory is called once per pass and must yield the same stream both
/// times (a seeded simulator, a verified store, …).
pub fn run_streaming_with<I, F>(
    cfg: &StreamingConfig,
    infos: &[DiskInfo],
    events: F,
) -> StreamingResult
where
    I: Iterator<Item = FleetEvent>,
    F: Fn() -> I,
{
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);

    // ---- Pass 0: metadata (fates are fixed before any sample). ----
    let is_train = stratified_mask(infos, 0.7, &mut rng);

    // Exact expected counts → thinning probability for λ·|pos| negatives.
    let mut exp_pos = 0u64;
    let mut exp_neg = 0u64;
    for info in infos.iter().filter(|i| is_train[i.disk_id as usize]) {
        let days = u64::from(info.observed_days());
        let w = u64::from(cfg.window);
        if info.failed {
            exp_pos += days.min(w);
            exp_neg += days.saturating_sub(w);
        } else {
            exp_neg += days.saturating_sub(w);
        }
    }
    let p_keep = ((cfg.lambda * exp_pos as f64) / (exp_neg.max(1) as f64)).min(1.0);

    // ---- Pass 1: training collection + ORF stream. ----
    let mut pos_rows: Vec<Box<[f32]>> = Vec::with_capacity(exp_pos as usize);
    let mut neg_rows: Vec<Box<[f32]>> = Vec::new();
    let mut n_neg_total = 0u64;
    let mut n_samples = 0u64;
    let mut orf = OnlineModel::new(&OnlinePredictorConfig {
        orf: cfg.orf.clone(),
        ..OnlinePredictorConfig::new(cfg.cols.clone(), cfg.seed ^ 0x0e)
    });
    // ORF trains in chronological order on the oracle-labelled training
    // samples (the Table 4 protocol), in runs of `TRAIN_RUN`, thinning
    // nothing — λn does the thinning inside the forest.
    let mut run: Vec<(Vec<f32>, bool)> = Vec::with_capacity(TRAIN_RUN);
    let learn = |orf: &mut OnlineModel, run: &mut Vec<(Vec<f32>, bool)>| {
        let rows: Vec<(&[f32], bool)> = run.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
        orf.learn_labelled(&rows);
        run.clear();
    };
    for ev in events() {
        let FleetEvent::Sample(rec) = ev else {
            continue;
        };
        n_samples += 1;
        if !is_train[rec.disk_id as usize] {
            continue;
        }
        let info = &infos[rec.disk_id as usize];
        let Some(positive) = oracle_label(info, rec.day, cfg.window) else {
            continue;
        };
        if positive {
            pos_rows.push(rec.features.as_slice().into());
        } else {
            n_neg_total += 1;
            if rng.bernoulli(p_keep) {
                neg_rows.push(rec.features.as_slice().into());
            }
        }
        run.push((rec.features, positive));
        if run.len() == TRAIN_RUN {
            learn(&mut orf, &mut run);
        }
    }
    learn(&mut orf, &mut run);

    // ---- Offline RF on the collected matrix. ----
    let scaler = MinMaxScaler::fit_log1p(
        pos_rows.iter().chain(neg_rows.iter()).map(|r| &**r),
        &cfg.cols,
    );
    let mut x = Matrix::with_capacity(cfg.cols.len(), pos_rows.len() + neg_rows.len());
    let mut y = Vec::with_capacity(pos_rows.len() + neg_rows.len());
    for r in &pos_rows {
        x.push_row(&scaler.transform(r));
        y.push(true);
    }
    for r in &neg_rows {
        x.push_row(&scaler.transform(r));
        y.push(false);
    }
    let rf = RandomForest::fit(&x, &y, &cfg.forest, rng.next_u64());

    // ---- Pass 2: score the test disks with both final models. ----
    // Both models are fixed from here on, so they are frozen and rows are
    // scored in batches: accumulate a chunk of raw rows, score it through
    // each model's scaler and batch kernel, then fold scores into the
    // per-disk maxima (per-disk max is order-insensitive, so chunking
    // cannot change the result).
    let rf_model = FrozenModel {
        scaler,
        forest: rf.freeze(),
    };
    let orf_model = orf.freeze();
    #[derive(Clone, Copy)]
    struct Maxima {
        rf: f32,
        orf: f32,
    }
    let mut maxima = vec![
        Maxima {
            rf: f32::NEG_INFINITY,
            orf: f32::NEG_INFINITY
        };
        infos.len()
    ];
    const CHUNK_ROWS: usize = 4096;
    let mut chunk: Vec<(u32, Vec<f32>)> = Vec::with_capacity(CHUNK_ROWS);
    let mut flush = |chunk: &mut Vec<(u32, Vec<f32>)>| {
        let rows: Vec<&[f32]> = chunk.iter().map(|(_, x)| x.as_slice()).collect();
        let rf_scores = rf_model.score_rows(&rows);
        let orf_scores = orf_model.score_rows(&rows);
        for (((disk, _), rf), orf) in chunk.iter().zip(rf_scores).zip(orf_scores) {
            let m = &mut maxima[*disk as usize];
            m.rf = m.rf.max(rf);
            m.orf = m.orf.max(orf);
        }
        chunk.clear();
    };
    for ev in events() {
        let FleetEvent::Sample(rec) = ev else {
            continue;
        };
        if is_train[rec.disk_id as usize] {
            continue;
        }
        let info = &infos[rec.disk_id as usize];
        let in_window = rec.day + cfg.window > info.last_day;
        // FDR needs failed-disk window samples; FAR needs good-disk
        // outside samples; everything else is irrelevant.
        if info.failed != in_window {
            continue;
        }
        chunk.push((rec.disk_id, rec.features));
        if chunk.len() == CHUNK_ROWS {
            flush(&mut chunk);
        }
    }
    flush(&mut chunk);

    let mut rf_scored = ScoredDisks::default();
    let mut orf_scored = ScoredDisks::default();
    let mut n_test_failed = 0;
    let mut n_test_good = 0;
    for info in infos.iter().filter(|i| !is_train[i.disk_id as usize]) {
        let m = maxima[info.disk_id as usize];
        if !m.rf.is_finite() {
            continue;
        }
        if info.failed {
            n_test_failed += 1;
            rf_scored.failed_window_max.push(m.rf);
            orf_scored.failed_window_max.push(m.orf);
        } else {
            n_test_good += 1;
            rf_scored.good_outside_max.push(m.rf);
            orf_scored.good_outside_max.push(m.orf);
        }
    }

    let outcome = |scored: &ScoredDisks| {
        let op = scored.tune_for_far(cfg.target_far);
        ModelOutcome {
            fdr: op.fdr * 100.0,
            far: op.far * 100.0,
            tau: op.tau,
            auc: scored.auc(),
        }
    };
    StreamingResult {
        rf: outcome(&rf_scored),
        orf: outcome(&orf_scored),
        n_train_pos: pos_rows.len(),
        n_train_neg: neg_rows.len(),
        n_train_neg_total: n_neg_total,
        n_test_failed,
        n_test_good,
        n_samples,
    }
}

/// Stratified 70/30 mask over disk metadata (train = true).
fn stratified_mask(infos: &[DiskInfo], train_fraction: f64, rng: &mut Xoshiro256pp) -> Vec<bool> {
    let mut mask = vec![false; infos.len()];
    for failed in [false, true] {
        let mut ids: Vec<u32> = infos
            .iter()
            .filter(|d| d.failed == failed)
            .map(|d| d.disk_id)
            .collect();
        rng.shuffle(&mut ids);
        let n_train = (ids.len() as f64 * train_fraction).round() as usize;
        for &d in &ids[..n_train] {
            mask[d as usize] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::table2_feature_columns;
    use orfpred_smart::gen::ScalePreset;

    fn tiny_fleet() -> FleetConfig {
        let mut f = FleetConfig::sta(ScalePreset::Tiny, 23);
        f.n_good = 150;
        f.n_failed = 35;
        f.duration_days = 400;
        f
    }

    fn tiny_cfg() -> StreamingConfig {
        let mut cfg = StreamingConfig::new(table2_feature_columns(), 9);
        cfg.target_far = 0.05;
        cfg.forest.n_trees = 12;
        cfg.orf.n_trees = 12;
        cfg.orf.n_tests = 80;
        cfg.orf.min_parent_size = 40.0;
        cfg.orf.warmup_age = 10;
        cfg
    }

    #[test]
    fn streaming_matches_the_materialised_protocol_in_spirit() {
        let fleet = tiny_fleet();
        let cfg = tiny_cfg();
        let r = run_streaming(&fleet, &cfg);
        // Counts are sane.
        let n_test = r.n_test_failed + r.n_test_good;
        // 30% of 185 disks, minus any disk with no scoreable samples.
        assert!((52..=56).contains(&n_test), "test disks {n_test}");
        assert!(r.n_train_pos > 100, "positives {}", r.n_train_pos);
        let ratio = r.n_train_neg as f64 / r.n_train_pos as f64;
        assert!(
            (ratio - cfg.lambda).abs() < 0.8,
            "thinning should land near λ: ratio {ratio}"
        );
        // Models learned something real.
        assert!(r.rf.fdr > 60.0, "RF FDR {}", r.rf.fdr);
        assert!(r.rf.far <= 5.0 + 1e-9);
        assert!(r.orf.fdr > 40.0, "ORF FDR {}", r.orf.fdr);
        assert!(r.rf.auc > 0.8, "RF AUC {}", r.rf.auc);
        assert!(r.n_samples > 30_000);
    }

    #[test]
    fn mce_streaming_evaluation_learns_from_windowed_columns() {
        use orfpred_smart::gen::MceFleetConfig;
        use orfpred_smart::DomainSchema;

        let mut mce = MceFleetConfig::preset(ScalePreset::Tiny, 31);
        mce.n_good = 120;
        mce.n_failed = 30;
        mce.duration_days = 200;

        // Mix base columns with the windowed delta/mean/std columns so the
        // evaluation exercises the derived half of the layout.
        let schema = DomainSchema::mce();
        let n_base = schema.n_base_features();
        let cols: Vec<usize> = (0..n_base).chain(n_base..schema.n_features()).collect();
        let mut cfg = StreamingConfig::new(cols, 9);
        cfg.target_far = 0.05;
        cfg.forest.n_trees = 12;
        cfg.orf.n_trees = 12;
        cfg.orf.n_tests = 80;
        cfg.orf.min_parent_size = 40.0;
        cfg.orf.warmup_age = 10;

        let a = run_streaming_mce(&mce, &cfg);
        assert!(a.n_train_pos > 50, "positives {}", a.n_train_pos);
        assert!(a.n_samples > 10_000, "samples {}", a.n_samples);
        // The failure signature (CE-rate ramp) is learnable.
        assert!(a.rf.auc > 0.7, "RF AUC {}", a.rf.auc);
        assert!(a.rf.fdr > 40.0, "RF FDR {}", a.rf.fdr);
        // Both passes rebuild the window stage: the run is reproducible.
        let b = run_streaming_mce(&mce, &cfg);
        assert_eq!(a.rf.fdr.to_bits(), b.rf.fdr.to_bits());
        assert_eq!(a.orf.fdr.to_bits(), b.orf.fdr.to_bits());
        assert_eq!(a.orf.tau.to_bits(), b.orf.tau.to_bits());
        assert_eq!(a.n_samples, b.n_samples);
    }

    #[test]
    fn oracle_label_matches_label_policy_semantics() {
        let failed = DiskInfo {
            disk_id: 0,
            install_day: 0,
            last_day: 100,
            failed: true,
        };
        let good = DiskInfo {
            disk_id: 1,
            install_day: 0,
            last_day: 100,
            failed: false,
        };
        assert_eq!(oracle_label(&failed, 94, 7), Some(true));
        assert_eq!(oracle_label(&failed, 93, 7), Some(false));
        assert_eq!(oracle_label(&good, 94, 7), None);
        assert_eq!(oracle_label(&good, 93, 7), Some(false));
    }

    #[test]
    fn store_replay_reproduces_the_simulator_run_exactly() {
        let fleet = tiny_fleet();
        let cfg = tiny_cfg();
        let from_sim = run_streaming(&fleet, &cfg);

        let dir = std::env::temp_dir().join(format!(
            "orfpred-eval-store-{}-{}",
            std::process::id(),
            fleet.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        orfpred_store::record_fleet(
            &dir,
            &fleet,
            orfpred_store::StoreConfig {
                segment_rows: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        let store = orfpred_store::Store::open(&dir).unwrap();
        let from_store = run_streaming_store(&store, &cfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        // Same events + same seeds → the whole evaluation is bit-identical.
        assert_eq!(from_sim.n_samples, from_store.n_samples);
        assert_eq!(from_sim.n_train_pos, from_store.n_train_pos);
        assert_eq!(from_sim.n_train_neg, from_store.n_train_neg);
        assert_eq!(from_sim.rf.fdr.to_bits(), from_store.rf.fdr.to_bits());
        assert_eq!(from_sim.rf.auc.to_bits(), from_store.rf.auc.to_bits());
        assert_eq!(from_sim.orf.fdr.to_bits(), from_store.orf.fdr.to_bits());
        assert_eq!(from_sim.orf.tau.to_bits(), from_store.orf.tau.to_bits());
    }

    #[test]
    fn two_generations_of_the_same_fleet_are_identical() {
        // The two-pass design relies on the stream being regenerable.
        let fleet = tiny_fleet();
        let a: Vec<(u32, u16, f32)> = FleetSim::new(&fleet)
            .filter_map(|ev| match ev {
                FleetEvent::Sample(r) => Some((r.disk_id, r.day, r.features[7])),
                FleetEvent::Failure { .. } => None,
            })
            .take(5_000)
            .collect();
        let b: Vec<(u32, u16, f32)> = FleetSim::new(&fleet)
            .filter_map(|ev| match ev {
                FleetEvent::Sample(r) => Some((r.disk_id, r.day, r.features[7])),
                FleetEvent::Failure { .. } => None,
            })
            .take(5_000)
            .collect();
        assert_eq!(a, b);
    }
}
