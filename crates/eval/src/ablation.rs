//! ORF design-choice ablations.
//!
//! The paper motivates several mechanisms without isolating them; this
//! harness does the isolation. Each variant modifies exactly one knob of
//! the base configuration and is trained/evaluated with the Table 4
//! protocol (chronological replay of labelled training-disk samples,
//! FDR at the FAR ≈ 1 % operating point on held-out disks):
//!
//! * `no-imbalance (λn=1)` — drops Eq. 3; shows why naive online bagging
//!   fails on disk data;
//! * `no-replacement` — disables the OOBE discard mechanism (Algorithm 1
//!   line 24), the paper's defence against model aging;
//! * `no-warmup` — fresh trees vote immediately after replacement;
//! * `tests=N` — the per-leaf random-test pool size (paper uses 5 000; the
//!   ablation shows the diminishing returns that justify a smaller pool).

use crate::metrics::score_test_disks;
use crate::prep::{stream_orf, training_labels};
use crate::split::DiskSplit;
use orfpred_core::OrfConfig;
use orfpred_smart::record::Dataset;
use orfpred_util::Xoshiro256pp;
use serde::{Deserialize, Serialize};

/// One ablation outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// FDR (%) at the FAR-pinned operating point.
    pub fdr: f64,
    /// Achieved FAR (%).
    pub far: f64,
    /// Operating threshold.
    pub tau: f32,
    /// Trees discarded and regrown during the stream.
    pub trees_replaced: u64,
    /// Total splits across the forest at the end.
    pub total_splits: usize,
}

/// The standard variant set derived from `base`.
pub fn standard_variants(base: &OrfConfig) -> Vec<(String, OrfConfig)> {
    vec![
        ("base".into(), base.clone()),
        (
            "no-imbalance (λn=1)".into(),
            OrfConfig {
                lambda_neg: 1.0,
                ..base.clone()
            },
        ),
        (
            "no-replacement".into(),
            OrfConfig {
                age_threshold: u64::MAX,
                ..base.clone()
            },
        ),
        (
            "no-warmup".into(),
            OrfConfig {
                warmup_age: 0,
                ..base.clone()
            },
        ),
        (
            "tests=50".into(),
            OrfConfig {
                n_tests: 50,
                ..base.clone()
            },
        ),
        (
            format!("tests={}", base.n_tests * 4),
            OrfConfig {
                n_tests: base.n_tests * 4,
                ..base.clone()
            },
        ),
    ]
}

/// Run the ablation suite on one dataset.
pub fn run_ablation(
    ds: &Dataset,
    cols: &[usize],
    base: &OrfConfig,
    target_far: f64,
    seed: u64,
) -> Vec<AblationRow> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let split = DiskSplit::stratified(ds, 0.7, &mut rng);
    let labels = training_labels(ds, &split.is_train, ds.duration_days, 7);
    standard_variants(base)
        .into_iter()
        .map(|(variant, cfg)| {
            let model = stream_orf(ds, &labels, cols, &cfg, seed ^ 0xAB1A7E);
            let scored = score_test_disks(ds, &split.test, &model.freeze(), 7);
            let op = scored.tune_for_far(target_far);
            AblationRow {
                variant,
                fdr: op.fdr * 100.0,
                far: op.far * 100.0,
                tau: op.tau,
                trees_replaced: model.forest.trees_replaced(),
                total_splits: model.forest.tree_stats().iter().map(|(_, _, s)| s).sum(),
            }
        })
        .collect()
}

/// Render rows as an aligned text table.
pub fn render(rows: &[AblationRow], dataset: &str) -> String {
    let mut out = format!("ORF ablations — {dataset} (FDR at FAR-pinned operating point)\n");
    out.push_str(&format!(
        "{:>22} | {:>8} | {:>8} | {:>7} | {:>9} | {:>7}\n",
        "variant", "FDR(%)", "FAR(%)", "τ", "replaced", "splits"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>22} | {:>8.2} | {:>8.2} | {:>7.3} | {:>9} | {:>7}\n",
            r.variant, r.fdr, r.far, r.tau, r.trees_replaced, r.total_splits
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::table2_feature_columns;
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    #[test]
    fn ablation_suite_runs_and_imbalance_variant_hurts() {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 13);
        c.n_good = 120;
        c.n_failed = 30;
        c.duration_days = 360;
        let ds = FleetSim::collect(&c);
        let base = OrfConfig {
            n_trees: 12,
            n_tests: 80,
            min_parent_size: 40.0,
            min_gain: 0.02,
            warmup_age: 10,
            ..OrfConfig::default()
        };
        let rows = run_ablation(&ds, &table2_feature_columns(), &base, 0.05, 3);
        assert_eq!(rows.len(), 6);
        let get = |name: &str| rows.iter().find(|r| r.variant.starts_with(name)).unwrap();
        let base_row = get("base");
        let naive = get("no-imbalance");
        assert!(
            base_row.fdr >= naive.fdr,
            "λn thinning should not hurt: base {:.1} vs naive {:.1}",
            base_row.fdr,
            naive.fdr
        );
        assert!(render(&rows, "tiny").contains("no-replacement"));
    }
}
