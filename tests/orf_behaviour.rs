//! Behavioural properties of the full ORF pipeline on simulated fleets:
//! convergence toward the offline RF, adaptation under drift, and
//! determinism under a fixed seed.

use orfpred::core::{OnlinePredictor, OnlinePredictorConfig};
use orfpred::eval::metrics::score_test_disks;
use orfpred::eval::monthly::{run_monthly, MonthlyConfig};
use orfpred::eval::prep::{build_matrix, stream_orf, training_labels};
use orfpred::eval::scorer::{OrfScorer, RfScorer};
use orfpred::eval::split::DiskSplit;
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetSim, ScalePreset};
use orfpred::trees::{ForestConfig, RandomForest};
use orfpred::util::Xoshiro256pp;

fn fleet(seed: u64) -> orfpred::smart::record::Dataset {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 200;
    cfg.n_failed = 45;
    cfg.duration_days = 420;
    FleetSim::collect(&cfg)
}

fn orf_cfg() -> orfpred::core::OrfConfig {
    orfpred::core::OrfConfig {
        n_trees: 15,
        n_tests: 120,
        min_parent_size: 50.0,
        min_gain: 0.02,
        warmup_age: 15,
        ..orfpred::core::OrfConfig::default()
    }
}

#[test]
fn orf_lands_near_the_offline_rf_after_the_full_stream() {
    let ds = fleet(1);
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let split = DiskSplit::stratified(&ds, 0.7, &mut rng);
    let labels = training_labels(&ds, &split.is_train, ds.duration_days, 7);

    let tm = build_matrix(&ds, &labels, &table2_feature_columns(), Some(3.0), &mut rng)
        .expect("trainable");
    let rf = RandomForest::fit(&tm.x, &tm.y, &ForestConfig::default(), 3);
    let rf_op = score_test_disks(
        &ds,
        &split.test,
        &RfScorer {
            model: rf,
            scaler: tm.scaler,
        },
        7,
    )
    .tune_for_far(0.05);

    let (forest, scaler) = stream_orf(&ds, &labels, &table2_feature_columns(), &orf_cfg(), 4);
    let orf_op = score_test_disks(
        &ds,
        &split.test,
        &OrfScorer {
            forest: &forest,
            scaler: &scaler,
        },
        7,
    )
    .tune_for_far(0.05);

    assert!(rf_op.fdr > 0.7, "offline RF sanity: FDR {:.2}", rf_op.fdr);
    assert!(
        orf_op.fdr > rf_op.fdr - 0.25,
        "converged ORF ({:.2}) should be within reach of RF ({:.2})",
        orf_op.fdr,
        rf_op.fdr
    );
}

#[test]
fn monthly_curves_show_convergence() {
    let ds = fleet(9);
    let mut cfg = MonthlyConfig::new(table2_feature_columns(), 5);
    cfg.start_month = 3;
    cfg.end_month = 12;
    cfg.svm = None;
    cfg.target_far = 0.05;
    cfg.forest.n_trees = 15;
    cfg.orf = orf_cfg();
    let r = run_monthly(&ds, &cfg);
    assert_eq!(r.months.len(), 10);
    let early = r.orf_fdr[..3].iter().copied().fold(f64::NAN, f64::max);
    let late = r.orf_fdr[r.orf_fdr.len() - 3..]
        .iter()
        .copied()
        .fold(f64::NAN, f64::min);
    // ORF must improve (or at least not collapse) as data accumulates.
    assert!(
        late + 10.0 >= early,
        "late ORF FDR {late:.1} collapsed vs early {early:.1}: {:?}",
        r.orf_fdr
    );
    // Achieved FARs respect the constraint.
    for f in &r.fars {
        assert!(f[0] <= 5.0 + 1e-9, "ORF FAR {f:?}");
    }
}

#[test]
fn online_predictor_is_deterministic_for_a_fixed_seed() {
    let ds = fleet(31);
    let run = || {
        let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 8);
        cfg.orf = orf_cfg();
        let mut p = OnlinePredictor::new(&cfg);
        for rec in ds.records.iter().take(20_000) {
            p.observe_sample(rec);
            let info = &ds.disks[rec.disk_id as usize];
            if info.failed && rec.day == info.last_day {
                p.observe_failure(rec.disk_id);
            }
        }
        ds.records
            .iter()
            .take(50)
            .map(|r| p.score_row(&r.features))
            .collect::<Vec<f32>>()
    };
    assert_eq!(run(), run(), "same seed, same scores");
}

#[test]
fn orf_serde_snapshot_round_trips() {
    // A deployed predictor's forest can be checkpointed and restored.
    let ds = fleet(55);
    let labels = training_labels(&ds, &vec![true; ds.disks.len()], 300, 7);
    let (forest, scaler) = stream_orf(&ds, &labels, &table2_feature_columns(), &orf_cfg(), 6);
    let json = serde_json::to_string(&forest).expect("serialize forest");
    let restored: orfpred::core::OnlineRandomForest =
        serde_json::from_str(&json).expect("deserialize forest");
    for rec in ds.records.iter().take(200) {
        let scaled = scaler.transform(&rec.features);
        assert_eq!(forest.score(&scaled), restored.score(&scaled));
    }
}
