//! Figures 2–3: monthly convergence of ORF toward the offline models.
//!
//! Protocol (§4.4): one stratified 70/30 disk split. Every month:
//!
//! * the **offline** models (RF, DT, SVM) are retrained from scratch on all
//!   training-disk samples labelled so far (λ-downsampled);
//! * the **ORF** has simply kept consuming the training-disk event stream
//!   through its online labeller — no retraining;
//! * each model's vote threshold is tuned so FAR ≈ the target (the paper
//!   pins 1.0 %), and the FDR at that operating point is recorded.

use crate::metrics::score_test_disks;
use crate::prep::{build_matrix, training_labels};
use crate::report::{Figure, Series};
use crate::scorer::SvmScorer;
use crate::split::DiskSplit;
use orfpred_core::{FrozenModel, OnlinePredictor, OnlinePredictorConfig, OrfConfig};
use orfpred_smart::record::Dataset;
use orfpred_svm::{Kernel, Svm, SvmConfig};
use orfpred_trees::{CartConfig, DecisionTree, ForestConfig, RandomForest};
use orfpred_util::{Matrix, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// SVM grid-search settings (§4.4: "grid search for the highest FDR with a
/// FAR less than 1 %"), with caps keeping the O(n²·grid) cost sane.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SvmGrid {
    /// Candidate penalty values.
    pub c_values: Vec<f64>,
    /// Candidate RBF γ values.
    pub gammas: Vec<f64>,
    /// Max training rows (random subsample beyond this).
    pub train_cap: usize,
    /// Max good test disks scored (all failed test disks are always kept).
    pub test_good_cap: usize,
}

impl Default for SvmGrid {
    fn default() -> Self {
        Self {
            c_values: vec![1.0, 10.0],
            gammas: vec![0.5, 2.0],
            train_cap: 3_000,
            test_good_cap: 250,
        }
    }
}

/// Configuration of the monthly-convergence experiment.
#[derive(Clone, Debug)]
pub struct MonthlyConfig {
    /// Feature columns (Table 2 selection).
    pub cols: Vec<usize>,
    /// Prediction window in days.
    pub window: u16,
    /// FAR the operating points are pinned to (paper: 0.01).
    pub target_far: f64,
    /// Days per month.
    pub month_days: u16,
    /// First/last month evaluated (inclusive; paper plots 2–21).
    pub start_month: usize,
    /// Last month evaluated.
    pub end_month: usize,
    /// NegSampleRatio for the offline models (paper: 3).
    pub lambda: Option<f64>,
    /// Offline RF settings.
    pub forest: ForestConfig,
    /// DT baseline settings (Matlab-like: 100 splits).
    pub dt: CartConfig,
    /// ORF settings.
    pub orf: OrfConfig,
    /// SVM grid (set `None` to skip the SVM — it dominates runtime).
    pub svm: Option<SvmGrid>,
    /// Master seed.
    pub seed: u64,
}

impl MonthlyConfig {
    /// Paper-like defaults over the given columns.
    pub fn new(cols: Vec<usize>, seed: u64) -> Self {
        Self {
            cols,
            window: 7,
            target_far: 0.01,
            month_days: 30,
            start_month: 2,
            end_month: 21,
            lambda: Some(3.0),
            forest: ForestConfig::default(),
            dt: CartConfig {
                max_splits: Some(100),
                max_depth: 30,
                // A lone tree with singleton leaves memorises the training
                // set and alarms on 80%+ of good disks under the per-disk
                // any-sample FAR; a minimum leaf mass is the standard cure.
                min_samples_leaf: 15,
                ..CartConfig::default()
            },
            orf: OrfConfig::default(),
            svm: Some(SvmGrid::default()),
            seed,
        }
    }
}

/// Per-model FDR (and diagnostic FAR) series at the pinned operating point.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MonthlyResult {
    /// Evaluated months.
    pub months: Vec<usize>,
    /// ORF FDR (%) per month.
    pub orf_fdr: Vec<f64>,
    /// Offline RF FDR (%) per month.
    pub rf_fdr: Vec<f64>,
    /// DT FDR (%) per month.
    pub dt_fdr: Vec<f64>,
    /// SVM FDR (%) per month (`NaN` when skipped/untrainable).
    pub svm_fdr: Vec<f64>,
    /// Achieved FARs (%) per month per model, for the paper's "around 1 %"
    /// check: `[orf, rf, dt, svm]`.
    pub fars: Vec<[f64; 4]>,
}

impl MonthlyResult {
    /// Convert to a renderable figure (Figures 2 and 3).
    pub fn figure(&self, title: &str) -> Figure {
        let x: Vec<f64> = self.months.iter().map(|&m| m as f64).collect();
        Figure {
            title: title.into(),
            xlabel: "month".into(),
            ylabel: "FDR".into(),
            series: vec![
                Series {
                    name: "ORF".into(),
                    x: x.clone(),
                    y: self.orf_fdr.clone(),
                },
                Series {
                    name: "Offline RF".into(),
                    x: x.clone(),
                    y: self.rf_fdr.clone(),
                },
                Series {
                    name: "DT".into(),
                    x: x.clone(),
                    y: self.dt_fdr.clone(),
                },
                Series {
                    name: "SVM".into(),
                    x,
                    y: self.svm_fdr.clone(),
                },
            ],
        }
    }
}

/// Run the experiment.
pub fn run_monthly(ds: &Dataset, cfg: &MonthlyConfig) -> MonthlyResult {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let split = DiskSplit::stratified(ds, 0.7, &mut rng);

    // ORF consumes the training-disk stream through Algorithm 2.
    let mut predictor_cfg = OnlinePredictorConfig::new(cfg.cols.clone(), rng.next_u64());
    predictor_cfg.orf = cfg.orf.clone();
    predictor_cfg.window_days = cfg.window as usize;
    let mut predictor = OnlinePredictor::new(&predictor_cfg);

    let mut result = MonthlyResult::default();
    let mut cursor = 0usize; // position in the chronological record stream

    for month in cfg.start_month..=cfg.end_month {
        let cutoff = (month as u16).saturating_mul(cfg.month_days);
        if cutoff > ds.duration_days + cfg.month_days {
            break;
        }

        // Advance the ORF through this month's training-disk events.
        while cursor < ds.records.len() && ds.records[cursor].day < cutoff {
            let rec = &ds.records[cursor];
            let info = &ds.disks[rec.disk_id as usize];
            if split.is_train[rec.disk_id as usize] {
                predictor.observe_sample(rec);
                if info.failed && rec.day == info.last_day {
                    predictor.observe_failure(rec.disk_id);
                }
            }
            cursor += 1;
        }

        // Evaluate every model on the full test set at FAR ≈ target. The
        // ORF is frozen at the month boundary — batch evaluation scores a
        // fixed model state, so the flat representation applies.
        let orf_scored = score_test_disks(ds, &split.test, &predictor.model().freeze(), cfg.window);
        let orf_op = orf_scored.tune_for_far(cfg.target_far);

        let labels = training_labels(ds, &split.is_train, cutoff, cfg.window);
        let tm = build_matrix(ds, &labels, &cfg.cols, cfg.lambda, &mut rng);

        let (rf_op, dt_op, svm_op) = match &tm {
            None => (None, None, None),
            Some(tm) => {
                let rf = RandomForest::fit(&tm.x, &tm.y, &cfg.forest, rng.next_u64());
                let rf_scorer = FrozenModel {
                    forest: rf.freeze(),
                    scaler: tm.scaler.clone(),
                };
                let rf_scored = score_test_disks(ds, &split.test, &rf_scorer, cfg.window);

                // DT: a single tree's scores are too coarse to tune a
                // threshold against a tight FAR target, so — like the
                // paper, which adjusts Matlab's class `Weights` — sweep the
                // positive-class weight and keep the best admissible point.
                let dt_op = [0.1f64, 0.25, 0.5, 1.0, 2.0, 4.0]
                    .iter()
                    .map(|&w| {
                        let dt_cfg = CartConfig {
                            pos_weight: w,
                            ..cfg.dt.clone()
                        };
                        let dt = DecisionTree::fit(&tm.x, &tm.y, &dt_cfg, &mut rng);
                        let dt_scorer = FrozenModel {
                            forest: dt.freeze(),
                            scaler: tm.scaler.clone(),
                        };
                        score_test_disks(ds, &split.test, &dt_scorer, cfg.window)
                            .tune_for_far(cfg.target_far)
                    })
                    .max_by(|a, b| a.fdr.partial_cmp(&b.fdr).unwrap());

                let svm_op = cfg
                    .svm
                    .as_ref()
                    .and_then(|grid| svm_grid_search(ds, &split, tm, grid, cfg, &mut rng));
                (Some(rf_scored.tune_for_far(cfg.target_far)), dt_op, svm_op)
            }
        };

        result.months.push(month);
        result.orf_fdr.push(orf_op.fdr * 100.0);
        result
            .rf_fdr
            .push(rf_op.map_or(f64::NAN, |o| o.fdr * 100.0));
        result
            .dt_fdr
            .push(dt_op.map_or(f64::NAN, |o| o.fdr * 100.0));
        result
            .svm_fdr
            .push(svm_op.map_or(f64::NAN, |o| o.fdr * 100.0));
        result.fars.push([
            orf_op.far * 100.0,
            rf_op.map_or(f64::NAN, |o| o.far * 100.0),
            dt_op.map_or(f64::NAN, |o| o.far * 100.0),
            svm_op.map_or(f64::NAN, |o| o.far * 100.0),
        ]);
    }
    result
}

/// Grid-search the SVM and return its best operating point on the (capped)
/// test subset.
fn svm_grid_search(
    ds: &Dataset,
    split: &DiskSplit,
    tm: &crate::prep::TrainMatrix,
    grid: &SvmGrid,
    cfg: &MonthlyConfig,
    rng: &mut Xoshiro256pp,
) -> Option<crate::metrics::OperatingPoint> {
    // Cap training rows.
    let n = tm.x.n_rows();
    let (x, y): (Matrix, Vec<bool>) = if n > grid.train_cap {
        let keep = rng.sample_indices(n, grid.train_cap);
        let mut x = Matrix::with_capacity(tm.x.n_cols(), keep.len());
        let mut y = Vec::with_capacity(keep.len());
        for &k in &keep {
            x.push_row(tm.x.row(k));
            y.push(tm.y[k]);
        }
        (x, y)
    } else {
        (tm.x.clone(), tm.y.clone())
    };
    if !y.iter().any(|&b| b) || !y.iter().any(|&b| !b) {
        return None;
    }

    // Cap good test disks (keep all failed ones): per-disk FAR resolution
    // drops, but the grid stays tractable.
    let mut test: Vec<u32> = split
        .test
        .iter()
        .copied()
        .filter(|&d| ds.disks[d as usize].failed)
        .collect();
    let good: Vec<u32> = split
        .test
        .iter()
        .copied()
        .filter(|&d| !ds.disks[d as usize].failed)
        .collect();
    test.extend(good.iter().take(grid.test_good_cap));

    let mut best: Option<crate::metrics::OperatingPoint> = None;
    for &c in &grid.c_values {
        for &gamma in &grid.gammas {
            let svm_cfg = SvmConfig {
                c_pos: c,
                c_neg: c,
                kernel: Kernel::Rbf { gamma },
                max_iter: 50_000,
                ..SvmConfig::default()
            };
            let model = Svm::fit(&x, &y, &svm_cfg);
            let scorer = SvmScorer {
                model,
                scaler: tm.scaler.clone(),
            };
            let scored = score_test_disks(ds, &test, &scorer, cfg.window);
            let op = scored.tune_for_far(cfg.target_far);
            if best.as_ref().is_none_or(|b| op.fdr > b.fdr) {
                best = Some(op);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::table2_feature_columns;
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    #[test]
    fn monthly_run_produces_series_and_orf_improves() {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 9);
        c.n_good = 120;
        c.n_failed = 30;
        c.duration_days = 330;
        let ds = FleetSim::collect(&c);

        let mut cfg = MonthlyConfig::new(table2_feature_columns(), 5);
        cfg.start_month = 3;
        cfg.end_month = 10;
        cfg.svm = None; // runtime
        cfg.forest.n_trees = 12;
        cfg.orf.n_trees = 12;
        cfg.orf.n_tests = 80;
        cfg.orf.min_parent_size = 40.0;
        cfg.orf.min_gain = 0.02;
        cfg.orf.warmup_age = 10;
        cfg.target_far = 0.05; // tiny test set → coarse FAR resolution

        let r = run_monthly(&ds, &cfg);
        assert_eq!(r.months.len(), 8);
        assert_eq!(r.rf_fdr.len(), 8);
        // All operating points satisfy the FAR constraint.
        for fars in &r.fars {
            assert!(fars[0] <= 5.0 + 1e-9, "ORF FAR {}", fars[0]);
            assert!(fars[1].is_nan() || fars[1] <= 5.0 + 1e-9);
        }
        // Late ORF should beat early ORF (convergence).
        let early = r.orf_fdr[0];
        let late = *r.orf_fdr.last().unwrap();
        assert!(
            late >= early,
            "ORF should not degrade: early {early} late {late}"
        );
        // By the end RF and ORF should both detect a decent share.
        assert!(*r.rf_fdr.last().unwrap() > 40.0, "RF {:?}", r.rf_fdr);
        assert!(late > 30.0, "ORF {:?}", r.orf_fdr);
        // Figure rendering works.
        let fig = r.figure("Fig 2");
        assert!(fig.render().contains("Offline RF"));
    }

    #[test]
    fn svm_column_is_populated_when_enabled() {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 4);
        c.n_good = 80;
        c.n_failed = 20;
        c.duration_days = 240;
        let ds = FleetSim::collect(&c);

        let mut cfg = MonthlyConfig::new(table2_feature_columns(), 2);
        cfg.start_month = 6;
        cfg.end_month = 7;
        cfg.target_far = 0.10;
        cfg.forest.n_trees = 8;
        cfg.orf.n_trees = 8;
        cfg.orf.n_tests = 40;
        cfg.orf.min_parent_size = 30.0;
        cfg.svm = Some(SvmGrid {
            c_values: vec![10.0],
            gammas: vec![1.0],
            train_cap: 800,
            test_good_cap: 60,
        });
        let r = run_monthly(&ds, &cfg);
        assert_eq!(r.months, vec![6, 7]);
        // The SVM column must contain real numbers once training data
        // exists (not NaN).
        assert!(
            r.svm_fdr.iter().any(|v| !v.is_nan()),
            "svm fdr: {:?}",
            r.svm_fdr
        );
        for f in &r.fars {
            assert!(f[3].is_nan() || f[3] <= 10.0 + 1e-9, "svm FAR {f:?}");
        }
    }
}
