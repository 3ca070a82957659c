//! A uniform scoring interface over every model family.
//!
//! Each wrapper owns its fitted scaler, so callers hand in **raw 48-column
//! snapshots** and every model sees exactly the preprocessing it was
//! trained with. Higher scores mean "more likely to fail within the
//! window"; scores need not be probabilities (the SVM emits decision
//! values) — the metrics only use their ordering.

use orfpred_baselines::{GaussianNaiveBayes, Gbdt, MahalanobisDetector};
use orfpred_core::FrozenModel;
use orfpred_smart::scale::MinMaxScaler;
use orfpred_svm::Svm;
use orfpred_trees::threshold::ThresholdModel;
use orfpred_trees::{DecisionTree, RandomForest};

/// Anything that can score a raw SMART snapshot.
pub trait Scorer: Sync {
    /// Risk score of a raw 48-column snapshot (higher = riskier).
    fn score_raw(&self, features: &[f32]) -> f32;

    /// Batch scoring: must return exactly what mapping [`Self::score_raw`]
    /// over `rows` would, bit for bit. The default does just that;
    /// [`FrozenModel`] overrides it to run the breadth-first interleaved
    /// batch kernel, which the eval harnesses (monthly / longterm / zoo)
    /// funnel through.
    fn score_raw_many(&self, rows: &[&[f32]]) -> Vec<f32> {
        rows.iter().map(|r| self.score_raw(r)).collect()
    }
}

/// Offline Random Forest + its scaler.
pub struct RfScorer {
    /// Fitted forest.
    pub model: RandomForest,
    /// Scaler fitted on the forest's training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for RfScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.score(&self.scaler.transform(features))
    }
}

/// Single decision tree + its scaler (the paper's DT baseline).
pub struct DtScorer {
    /// Fitted tree.
    pub model: DecisionTree,
    /// Scaler fitted on the tree's training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for DtScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.score(&self.scaler.transform(features))
    }
}

/// SVM + its scaler; scores are decision values (unbounded, monotone in
/// risk), which is all the operating-point machinery needs.
pub struct SvmScorer {
    /// Fitted C-SVC model.
    pub model: Svm,
    /// Scaler fitted on the SVM's training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for SvmScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.decision(&self.scaler.transform(features)) as f32
    }
}

/// The vendor threshold baseline (binary score: 1 = alarm).
pub struct ThresholdScorer {
    /// Static rules over unscaled values.
    pub model: ThresholdModel,
}

impl Scorer for ThresholdScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        f32::from(u8::from(self.model.predict(features)))
    }
}

/// A scaler + frozen forest: the scoring path every tree model funnels
/// through after `freeze()` — offline DT and RF behind their fitted
/// scaler, the ORF behind its streaming scaler's bounds. Batches run the
/// frozen row kernel; scores are bit-identical to the live model's.
impl Scorer for FrozenModel {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.score(features)
    }

    fn score_raw_many(&self, rows: &[&[f32]]) -> Vec<f32> {
        self.score_rows(rows)
    }
}

/// Gaussian naive Bayes + its scaler (Hamerly & Elkan baseline).
pub struct NbScorer {
    /// Fitted model.
    pub model: GaussianNaiveBayes,
    /// Scaler fitted on the training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for NbScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.score(&self.scaler.transform(features))
    }
}

/// Mahalanobis-distance detector + its scaler (Wang et al. baseline);
/// scores are distances (unbounded, monotone in risk).
pub struct MdScorer {
    /// Fitted detector.
    pub model: MahalanobisDetector,
    /// Scaler fitted on the (healthy) training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for MdScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.score(&self.scaler.transform(features))
    }
}

/// Gradient-boosted trees + scaler (Li et al.-style GBRT comparator).
pub struct GbdtScorer {
    /// Fitted ensemble.
    pub model: Gbdt,
    /// Scaler fitted on the training rows.
    pub scaler: MinMaxScaler,
}

impl Scorer for GbdtScorer {
    fn score_raw(&self, features: &[f32]) -> f32 {
        self.model.score(&self.scaler.transform(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::N_FEATURES;
    use orfpred_util::{Matrix, Xoshiro256pp};

    /// All scorer wrappers must agree with their wrapped model on the
    /// scaled row; spot-check the RF wrapper end to end.
    #[test]
    fn rf_scorer_applies_scaling_before_the_model() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        // Train on scaled column 3 of raw rows whose raw range is [0, 100].
        let mut raw_rows: Vec<[f32; N_FEATURES]> = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let mut row = [0.0f32; N_FEATURES];
            row[3] = (i % 100) as f32;
            raw_rows.push(row);
            y.push(row[3] > 50.0);
        }
        let scaler = MinMaxScaler::fit(raw_rows.iter().map(|r| r.as_slice()), &[3]);
        let mut x = Matrix::new(1);
        for r in &raw_rows {
            x.push_row(&scaler.transform(r));
        }
        let model = orfpred_trees::RandomForest::fit(
            &x,
            &y,
            &orfpred_trees::ForestConfig::default(),
            rng.next_u64(),
        );
        let scorer = RfScorer { model, scaler };
        let mut risky = [0.0f32; N_FEATURES];
        risky[3] = 90.0;
        let mut safe = [0.0f32; N_FEATURES];
        safe[3] = 10.0;
        assert!(scorer.score_raw(&risky) > 0.9);
        assert!(scorer.score_raw(&safe) < 0.1);
    }

    #[test]
    fn frozen_scorer_matches_live_rf_scorer_bitwise() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut raw_rows: Vec<[f32; N_FEATURES]> = Vec::new();
        let mut y = Vec::new();
        for _ in 0..300 {
            let mut row = [0.0f32; N_FEATURES];
            row[3] = rng.next_f32() * 100.0;
            row[7] = rng.next_f32() * 10.0;
            y.push(row[3] > 50.0);
            raw_rows.push(row);
        }
        let scaler = MinMaxScaler::fit(raw_rows.iter().map(|r| r.as_slice()), &[3, 7]);
        let mut x = Matrix::new(2);
        for r in &raw_rows {
            x.push_row(&scaler.transform(r));
        }
        let model = orfpred_trees::RandomForest::fit(
            &x,
            &y,
            &orfpred_trees::ForestConfig::default(),
            rng.next_u64(),
        );
        let frozen = FrozenModel {
            forest: model.freeze(),
            scaler: scaler.clone(),
        };
        let live = RfScorer { model, scaler };
        let refs: Vec<&[f32]> = raw_rows.iter().map(|r| r.as_slice()).collect();
        let batch = frozen.score_raw_many(&refs);
        for (i, r) in refs.iter().enumerate() {
            let f = frozen.score_raw(r);
            assert_eq!(f.to_bits(), live.score_raw(r).to_bits(), "row {i}");
            assert_eq!(f.to_bits(), batch[i].to_bits(), "batch row {i}");
        }
    }

    #[test]
    fn threshold_scorer_is_binary() {
        let scorer = ThresholdScorer {
            model: ThresholdModel::conservative(),
        };
        let healthy = [100.0f32; N_FEATURES];
        assert_eq!(scorer.score_raw(&healthy), 0.0);
        let mut dead = [100.0f32; N_FEATURES];
        let col =
            orfpred_smart::attrs::feature_index(5, orfpred_smart::attrs::FeatureKind::Normalized)
                .unwrap();
        dead[col] = 1.0;
        assert_eq!(scorer.score_raw(&dead), 1.0);
    }
}
