//! Hyper-parameter sweeps: Table 3 (λ on offline RF) and Table 4 (λn on
//! ORF).
//!
//! Protocol (§4.4): stratified 70/30 disk split, labels over the full
//! window, model trained with the swept balance parameter, FDR/FAR measured
//! on the test disks at the *default* vote threshold (0.5) — the tables
//! show how the balance knob itself trades detection against false alarms,
//! so no operating-point tuning is applied. Each setting repeats
//! `repeats` times over different splits; cells are `mean ± sd`.

use crate::metrics::score_test_disks;
use crate::prep::{build_matrix, stream_orf, training_labels};
use crate::report::{SweepRow, SweepTable};
use crate::scorer::RfScorer;
use crate::split::DiskSplit;
use orfpred_core::OrfConfig;
use orfpred_smart::record::Dataset;
use orfpred_trees::{ForestConfig, RandomForest};
use orfpred_util::stats::{mean, std_dev};
use orfpred_util::Xoshiro256pp;

/// Shared sweep settings.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Feature columns (Table 2 selection).
    pub cols: Vec<usize>,
    /// Prediction window in days.
    pub window: u16,
    /// Number of repeats (the paper uses 5).
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
    /// Fixed vote threshold for both models.
    pub tau: f32,
    /// Offline RF settings.
    pub forest: ForestConfig,
    /// ORF settings (λn overridden per row).
    pub orf: OrfConfig,
}

impl SweepConfig {
    /// Defaults matching §4.4.
    pub fn new(cols: Vec<usize>, seed: u64) -> Self {
        Self {
            cols,
            window: 7,
            repeats: 5,
            seed,
            tau: 0.5,
            forest: ForestConfig::default(),
            orf: OrfConfig::default(),
        }
    }
}

/// Table 3: FDR/FAR of the offline RF as `λ` (NegSampleRatio) varies.
/// `None` is the paper's "Max" row (no downsampling).
pub fn table3(
    ds: &Dataset,
    dataset_label: &str,
    lambdas: &[Option<f64>],
    cfg: &SweepConfig,
) -> SweepTable {
    let mut rows = Vec::new();
    for (li, &lambda) in lambdas.iter().enumerate() {
        let mut fdrs = Vec::new();
        let mut fars = Vec::new();
        for rep in 0..cfg.repeats {
            let mut rng =
                Xoshiro256pp::seed_from_u64(cfg.seed ^ (rep as u64) << 8 ^ (li as u64) << 32);
            let split = DiskSplit::stratified(ds, 0.7, &mut rng);
            let labels = training_labels(ds, &split.is_train, ds.duration_days, cfg.window);
            let Some(tm) = build_matrix(ds, &labels, &cfg.cols, lambda, &mut rng) else {
                continue;
            };
            let model = RandomForest::fit(&tm.x, &tm.y, &cfg.forest, rng.next_u64());
            let scorer = RfScorer {
                model,
                scaler: tm.scaler,
            };
            let scored = score_test_disks(ds, &split.test, &scorer, cfg.window);
            fdrs.push(scored.fdr(cfg.tau) * 100.0);
            fars.push(scored.far(cfg.tau) * 100.0);
        }
        rows.push(SweepRow {
            param: lambda.map_or("Max".to_string(), |l| format!("{l}")),
            fdr_mean: mean(&fdrs),
            fdr_sd: std_dev(&fdrs),
            far_mean: mean(&fars),
            far_sd: std_dev(&fars),
        });
    }
    SweepTable {
        title: "Table 3: Impact of λ on Offline RF".into(),
        param_name: "λ".into(),
        dataset: dataset_label.into(),
        rows,
    }
}

/// Table 4: FDR/FAR of ORF as `λn` varies (`λp = 1`). Training replays the
/// labelled training-disk samples chronologically.
pub fn table4(
    ds: &Dataset,
    dataset_label: &str,
    lambda_ns: &[f64],
    cfg: &SweepConfig,
) -> SweepTable {
    let mut rows = Vec::new();
    for (li, &lambda_n) in lambda_ns.iter().enumerate() {
        let mut fdrs = Vec::new();
        let mut fars = Vec::new();
        for rep in 0..cfg.repeats {
            let mut rng = Xoshiro256pp::seed_from_u64(
                cfg.seed ^ (rep as u64) << 8 ^ (li as u64) << 40 ^ 0x5eed,
            );
            let split = DiskSplit::stratified(ds, 0.7, &mut rng);
            let labels = training_labels(ds, &split.is_train, ds.duration_days, cfg.window);
            let orf_cfg = OrfConfig {
                lambda_neg: lambda_n,
                ..cfg.orf.clone()
            };
            let model = stream_orf(ds, &labels, &cfg.cols, &orf_cfg, rng.next_u64());
            let scored = score_test_disks(ds, &split.test, &model.freeze(), cfg.window);
            fdrs.push(scored.fdr(cfg.tau) * 100.0);
            fars.push(scored.far(cfg.tau) * 100.0);
        }
        rows.push(SweepRow {
            param: format!("{lambda_n}"),
            fdr_mean: mean(&fdrs),
            fdr_sd: std_dev(&fdrs),
            far_mean: mean(&fars),
            far_sd: std_dev(&fars),
        });
    }
    SweepTable {
        title: "Table 4: Impact of λn on ORF".into(),
        param_name: "λn".into(),
        dataset: dataset_label.into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::table2_feature_columns;
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    fn tiny_dataset() -> Dataset {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 5);
        c.n_good = 80;
        c.n_failed = 25;
        c.duration_days = 300;
        FleetSim::collect(&c)
    }

    fn tiny_cfg() -> SweepConfig {
        let mut cfg = SweepConfig::new(table2_feature_columns(), 3);
        cfg.repeats = 2;
        cfg.forest.n_trees = 12;
        cfg.orf.n_trees = 12;
        cfg.orf.n_tests = 60;
        cfg.orf.min_parent_size = 50.0;
        cfg.orf.min_gain = 0.02;
        cfg.orf.warmup_age = 10;
        cfg
    }

    #[test]
    fn table3_shape_lambda_max_collapses_fdr() {
        let ds = tiny_dataset();
        let t = table3(&ds, "tiny", &[Some(1.0), None], &tiny_cfg());
        assert_eq!(t.rows.len(), 2);
        let balanced = &t.rows[0];
        let unbalanced = &t.rows[1];
        // With only ~8 failed test disks the FDR cells are noise (the Max
        // collapse is asserted at harness scale in EXPERIMENTS.md); the
        // robust tiny-scale invariant is the FAR ordering of Eq. 4.
        assert!(
            unbalanced.far_mean <= balanced.far_mean + 1e-9,
            "Max FAR {} must not exceed balanced FAR {}",
            unbalanced.far_mean,
            balanced.far_mean
        );
        for row in &t.rows {
            assert!((0.0..=100.0).contains(&row.fdr_mean));
            assert!((0.0..=100.0).contains(&row.far_mean));
        }
    }

    #[test]
    fn table4_shape_lambda_n_trades_fdr_for_far() {
        let ds = tiny_dataset();
        let t = table4(&ds, "tiny", &[0.02, 1.0], &tiny_cfg());
        assert_eq!(t.rows.len(), 2);
        assert!(
            t.rows[0].fdr_mean > t.rows[1].fdr_mean,
            "small λn {} must beat λn=1 {} on FDR",
            t.rows[0].fdr_mean,
            t.rows[1].fdr_mean
        );
    }
}
