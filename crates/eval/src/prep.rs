//! Glue from labelled datasets to trained models.
//!
//! Implements the offline training pipeline of §4.4 — label with the 7-day
//! window, keep the training disks, λ-downsample the negatives (Eq. 4), fit
//! the min–max scaler on the kept rows, build the matrix — plus the
//! chronological streaming protocol that trains the ORF for Table 4, the
//! ROC, interpretability, zoo and ablation runs, and `orfpred train` ("we
//! simulate the sequential arrival of training data according to the
//! timestamp of labeled samples"). [`stream_orf`] replays the oracle
//! labels through [`OnlineModel::learn_labelled`], whose forest loop,
//! `OnlineRandomForest::update_batch`, trains every ORF the repo grows.

use orfpred_core::{OnlineModel, OnlinePredictorConfig, OrfConfig};
use orfpred_smart::label::{LabelPolicy, Labeled};
use orfpred_smart::record::Dataset;
use orfpred_smart::scale::MinMaxScaler;
use orfpred_trees::downsample_negatives;
use orfpred_util::{Matrix, Xoshiro256pp};

/// Labelled samples of the training disks, observable up to `cutoff`.
pub fn training_labels(ds: &Dataset, is_train: &[bool], cutoff: u16, window: u16) -> Vec<Labeled> {
    let policy = LabelPolicy {
        window_days: window,
    };
    policy
        .label_dataset(ds, cutoff)
        .into_iter()
        .filter(|l| is_train[ds.records[l.record].disk_id as usize])
        .collect()
}

/// Labelled training-disk samples within `(from, to]` (the 1-month
/// replacing strategy of §4.5).
pub fn training_labels_range(
    ds: &Dataset,
    is_train: &[bool],
    from: u16,
    to: u16,
    window: u16,
) -> Vec<Labeled> {
    let policy = LabelPolicy {
        window_days: window,
    };
    policy
        .label_range(ds, from, to)
        .into_iter()
        .filter(|l| is_train[ds.records[l.record].disk_id as usize])
        .collect()
}

/// A ready-to-train design matrix plus the scaler that produced it.
pub struct TrainMatrix {
    /// Scaled feature rows.
    pub x: Matrix,
    /// Labels aligned with `x`.
    pub y: Vec<bool>,
    /// Scaler fitted on the kept (post-downsampling) rows.
    pub scaler: MinMaxScaler,
}

impl TrainMatrix {
    /// Number of positive labels.
    pub fn n_pos(&self) -> usize {
        self.y.iter().filter(|&&b| b).count()
    }
}

/// Downsample (λ = `lambda`, `None` = keep all), fit the scaler, build the
/// matrix. Returns `None` when no positives survive (a model cannot be
/// trained yet — early months of the stream).
pub fn build_matrix(
    ds: &Dataset,
    labeled: &[Labeled],
    cols: &[usize],
    lambda: Option<f64>,
    rng: &mut Xoshiro256pp,
) -> Option<TrainMatrix> {
    if labeled.is_empty() {
        return None;
    }
    let y_all: Vec<bool> = labeled.iter().map(|l| l.positive).collect();
    if !y_all.iter().any(|&b| b) {
        return None;
    }
    let keep = downsample_negatives(&y_all, lambda, rng);
    // log1p + min–max: heavy-tailed counters need the compression (see
    // `orfpred_smart::scale`).
    let scaler = MinMaxScaler::fit_log1p(
        keep.iter()
            .map(|&k| ds.records[labeled[k].record].features.as_slice()),
        cols,
    );
    let mut x = Matrix::with_capacity(cols.len(), keep.len());
    let mut y = Vec::with_capacity(keep.len());
    let mut buf = vec![0.0f32; cols.len()];
    for &k in &keep {
        scaler.transform_into(&ds.records[labeled[k].record].features, &mut buf);
        x.push_row(&buf);
        y.push(labeled[k].positive);
    }
    Some(TrainMatrix { x, y, scaler })
}

/// Labelled samples per training run of [`stream_orf`]. A run is scaled
/// first and then trained tree by tree, and each tree starts a run with
/// its test pools cold: on STA `Small`, runs of 1,024 to 8,192 trained
/// 10–20% faster than runs of 512. Any length gives the same bits.
pub(crate) const TRAIN_RUN: usize = 4096;

/// Train an ORF by replaying the labelled samples in timestamp order, with
/// a streaming scaler that widens as data arrives — no future peeking.
/// The samples go through [`OnlineModel::learn_labelled`] in runs of
/// 4,096.
///
/// `labeled` must be sorted by record position (= chronological), which is
/// what [`training_labels`] produces. Returns the model at the end of the
/// stream: scaler, forest, and the default alarm threshold.
pub fn stream_orf(
    ds: &Dataset,
    labeled: &[Labeled],
    cols: &[usize],
    cfg: &OrfConfig,
    seed: u64,
) -> OnlineModel {
    let mut model = OnlineModel::new(&OnlinePredictorConfig {
        orf: cfg.clone(),
        ..OnlinePredictorConfig::new(cols.to_vec(), seed)
    });
    for run in labeled.chunks(TRAIN_RUN) {
        let rows: Vec<(&[f32], bool)> = run
            .iter()
            .map(|l| (ds.records[l.record].features.as_slice(), l.positive))
            .collect();
        model.learn_labelled(&rows);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::{feature_index, FeatureKind};
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    fn dataset() -> Dataset {
        let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 11);
        cfg.n_good = 60;
        cfg.n_failed = 12;
        cfg.duration_days = 240;
        FleetSim::collect(&cfg)
    }

    fn cols() -> Vec<usize> {
        vec![
            feature_index(5, FeatureKind::Raw).unwrap(),
            feature_index(187, FeatureKind::Raw).unwrap(),
            feature_index(197, FeatureKind::Raw).unwrap(),
            feature_index(9, FeatureKind::Raw).unwrap(),
        ]
    }

    #[test]
    fn training_labels_only_cover_train_disks_and_cutoff() {
        let ds = dataset();
        let mut is_train = vec![false; ds.disks.len()];
        is_train[..30].fill(true);
        let labels = training_labels(&ds, &is_train, 100, 7);
        assert!(!labels.is_empty());
        for l in &labels {
            let rec = &ds.records[l.record];
            assert!(is_train[rec.disk_id as usize]);
            assert!(rec.day <= 100);
        }
    }

    #[test]
    fn build_matrix_balances_and_scales() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        let labels = training_labels(&ds, &is_train, ds.duration_days, 7);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let tm = build_matrix(&ds, &labels, &cols(), Some(3.0), &mut rng).unwrap();
        let n_pos = tm.n_pos();
        assert!(n_pos > 0);
        let n_neg = tm.y.len() - n_pos;
        assert!(
            (n_neg as f64 / n_pos as f64 - 3.0).abs() < 0.2,
            "ratio {} with {n_pos} positives",
            n_neg as f64 / n_pos as f64
        );
        for i in 0..tm.x.n_rows() {
            for &v in tm.x.row(i) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn build_matrix_without_positives_returns_none() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        // Cutoff before any failure can be observed.
        let labels = training_labels(&ds, &is_train, 10, 7);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert!(build_matrix(&ds, &labels, &cols(), Some(3.0), &mut rng).is_none());
    }

    #[test]
    fn stream_orf_learns_the_failure_signature() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        let labels = training_labels(&ds, &is_train, ds.duration_days, 7);
        let cfg = OrfConfig {
            n_trees: 15,
            n_tests: 60,
            min_parent_size: 40.0,
            min_gain: 0.02,
            lambda_neg: 0.05,
            warmup_age: 10,
            ..OrfConfig::default()
        };
        let model = stream_orf(&ds, &labels, &cols(), &cfg, 7);
        assert!(model.forest.samples_seen() > 100);
        // Failure signature: large raw counters → high score.
        let mut sick = [0.0f32; orfpred_smart::attrs::N_FEATURES];
        for &c in &cols() {
            sick[c] = 1e9;
        }
        let healthy = [0.0f32; orfpred_smart::attrs::N_FEATURES];
        let mut s_buf = vec![0.0f32; 4];
        model.scaler.transform_into(&sick, &mut s_buf);
        let sick_score = model.forest.score(&s_buf);
        model.scaler.transform_into(&healthy, &mut s_buf);
        let healthy_score = model.forest.score(&s_buf);
        assert!(
            sick_score > healthy_score + 0.25,
            "sick {sick_score} vs healthy {healthy_score}"
        );
    }
}
