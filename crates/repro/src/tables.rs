//! Tables 1–4 plus the vendor-threshold strawman.

use crate::common::Options;
use orfpred_eval::metrics::score_test_disks;
use orfpred_eval::scorer::ThresholdScorer;
use orfpred_eval::split::DiskSplit;
use orfpred_eval::sweeps::{self, SweepConfig};
use orfpred_eval::Scorer;
use orfpred_smart::attrs::{self, feature_name, N_FEATURES};
use orfpred_smart::label::LabelPolicy;
use orfpred_smart::record::Dataset;
use orfpred_smart::select::select_features;
use orfpred_trees::threshold::ThresholdModel;
use orfpred_trees::{ForestConfig, RandomForest};
use orfpred_util::{Matrix, Xoshiro256pp};
use serde::Serialize;

/// Table 1: dataset overview.
pub fn table1(opts: &Options) {
    #[derive(Serialize)]
    struct Row {
        dataset: &'static str,
        disk_model: String,
        capacity_tb: u32,
        good_disks: usize,
        failed_disks: usize,
        duration_months: u16,
        samples: usize,
    }
    let mut rows = Vec::new();
    for (label, cfg) in [("STA", opts.sta_config()), ("STB", opts.stb_config())] {
        // Count samples by streaming (no need to materialise).
        let sim = orfpred_smart::gen::FleetSim::new(&cfg);
        let samples: usize = sim
            .disk_infos()
            .iter()
            .map(|d| d.observed_days() as usize)
            .sum();
        rows.push(Row {
            dataset: label,
            disk_model: cfg.profile.name.clone(),
            capacity_tb: cfg.profile.capacity_tb,
            good_disks: cfg.n_good,
            failed_disks: cfg.n_failed,
            duration_months: cfg.duration_days / 30,
            samples,
        });
    }
    println!("Table 1: Overview of dataset (scale: {:?})", opts.scale);
    println!(
        "{:>8} {:>14} {:>9} {:>10} {:>12} {:>10} {:>12}",
        "dataset", "DiskModel", "Cap(TB)", "#Good", "#Failed", "Months", "#Samples"
    );
    for r in &rows {
        println!(
            "{:>8} {:>14} {:>9} {:>10} {:>12} {:>10} {:>12}",
            r.dataset,
            r.disk_model,
            r.capacity_tb,
            r.good_disks,
            r.failed_disks,
            r.duration_months,
            r.samples
        );
    }
    println!("(paper: STA 34,535/1,996 over 39 months; STB 2,898/1,357 over 20 months)\n");
    opts.write_json("table1", &rows);
}

/// Table 2: feature selection on STA — rank-sum filter + redundancy
/// elimination, ranked by RF importance.
pub fn table2(opts: &Options) {
    let ds = opts.sta();
    let policy = LabelPolicy::default();
    let labels = policy.label_dataset(&ds, ds.duration_days);
    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);

    // Collect positive rows and a capped sample of negative rows.
    let mut pos: Vec<&[f32]> = Vec::new();
    let mut neg: Vec<&[f32]> = Vec::new();
    for l in &labels {
        let row = ds.records[l.record].features.as_slice();
        if l.positive {
            pos.push(row);
        } else if neg.len() < 50_000 && rng.bernoulli(0.05) {
            neg.push(row);
        }
    }
    let candidates: Vec<usize> = (0..N_FEATURES).collect();
    let report = select_features(&pos, &neg, &candidates, 0.01, 0.97);
    println!(
        "Table 2: feature selection on STA — {} of {} candidates survive \
         ({} non-discriminative, {} redundant)",
        report.kept.len(),
        N_FEATURES,
        report.dropped_nondiscriminative.len(),
        report.dropped_redundant.len()
    );

    // Rank survivors by RF importance (the paper's "contribution" rank).
    let mut x = Matrix::new(report.kept.len());
    let mut y = Vec::new();
    let scaler = orfpred_smart::scale::MinMaxScaler::fit_log1p(
        pos.iter().chain(neg.iter()).copied(),
        &report.kept,
    );
    for (&row, label) in pos
        .iter()
        .zip(std::iter::repeat(true))
        .chain(neg.iter().zip(std::iter::repeat(false)))
    {
        x.push_row(&scaler.transform(row));
        y.push(label);
    }
    let rf = RandomForest::fit(&x, &y, &ForestConfig::default(), opts.seed);
    let imp = rf.importances();
    let mut ranked: Vec<(usize, f64)> = report
        .kept
        .iter()
        .copied()
        .zip(imp.iter().copied())
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    #[derive(Serialize)]
    struct Row {
        rank: usize,
        feature: String,
        importance: f64,
        in_paper_table2: bool,
    }
    let paper_cols = attrs::table2_feature_columns();
    let rows: Vec<Row> = ranked
        .iter()
        .enumerate()
        .map(|(i, &(col, importance))| Row {
            rank: i + 1,
            feature: feature_name(col),
            importance,
            in_paper_table2: paper_cols.contains(&col),
        })
        .collect();
    println!(
        "{:>5} {:>26} {:>12} {:>10}",
        "rank", "feature", "importance", "in-paper"
    );
    for r in rows.iter().take(19) {
        println!(
            "{:>5} {:>26} {:>12.4} {:>10}",
            r.rank,
            r.feature,
            r.importance,
            if r.in_paper_table2 { "yes" } else { "no" }
        );
    }
    let in_paper = rows.iter().take(19).filter(|r| r.in_paper_table2).count();
    println!("({in_paper}/19 of the top-19 selected features are in the paper's Table 2)\n");
    opts.write_json("table2", &rows);
}

/// Table 3: λ sweep for the offline RF on both datasets.
pub fn table3(opts: &Options) {
    let lambdas = [Some(1.0), Some(2.0), Some(3.0), Some(4.0), Some(5.0), None];
    let mut cfg = SweepConfig::new(opts.cols(), opts.seed);
    cfg.repeats = opts.repeats;
    cfg.forest = opts.forest_cfg();
    cfg.orf = opts.orf_cfg();
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let table = sweeps::table3(&ds, label, &lambdas, &cfg);
        println!("{}", table.render());
        opts.write_json(&format!("table3_{label}"), &table);
    }
}

/// Table 4: λn sweep for ORF on both datasets.
pub fn table4(opts: &Options) {
    let lambda_ns = [0.01, 0.02, 0.03, 0.05, 0.10, 1.00];
    let mut cfg = SweepConfig::new(opts.cols(), opts.seed);
    cfg.repeats = opts.repeats;
    cfg.forest = opts.forest_cfg();
    cfg.orf = opts.orf_cfg();
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let table = sweeps::table4(&ds, label, &lambda_ns, &cfg);
        println!("{}", table.render());
        opts.write_json(&format!("table4_{label}"), &table);
    }
}

/// §2 strawman: the vendor SMART threshold mechanism (3–10 % FDR in the
/// literature). Shows the gap the learned models close.
pub fn threshold_baseline(opts: &Options) {
    #[derive(Serialize)]
    struct Row {
        dataset: &'static str,
        fdr_pct: f64,
        far_pct: f64,
    }
    let mut rows = Vec::new();
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let scorer = ThresholdScorer {
            model: ThresholdModel::conservative(),
        };
        let split = DiskSplit::stratified(&ds, 0.7, &mut Xoshiro256pp::seed_from_u64(opts.seed));
        let scored = score_test_disks(&ds, &split.test, &scorer, 7);
        rows.push(Row {
            dataset: label,
            fdr_pct: scored.fdr(0.5) * 100.0,
            far_pct: scored.far(0.5) * 100.0,
        });
    }
    println!("Vendor SMART threshold baseline (§2: literature reports 3-10% FDR)");
    println!("{:>8} {:>10} {:>10}", "dataset", "FDR(%)", "FAR(%)");
    for r in &rows {
        println!("{:>8} {:>10.2} {:>10.2}", r.dataset, r.fdr_pct, r.far_pct);
    }
    println!();
    opts.write_json("threshold_baseline", &rows);
}

/// Extended §4.1 field-data look: population, hazard and imbalance
/// statistics of the simulated fleets.
pub fn summary(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let s = orfpred_smart::summary::summarize(&ds, 30);
        println!("=== {label} ({}) ===", s.model);
        println!(
            "disks: {} good / {} failed | samples: {} | labelled {} pos / {} neg (1:{:.0})",
            s.n_good, s.n_failed, s.n_samples, s.n_positive, s.n_negative, s.imbalance
        );
        println!("population by month: {:?}", s.population_by_month);
        println!("failures  by month: {:?}", s.failures_by_month);
        let hz: Vec<String> = s
            .hazard_by_age_bucket
            .iter()
            .map(|h| format!("{h:.1}"))
            .collect();
        println!(
            "annualised failure rate by 90d age bucket (%): [{}]",
            hz.join(", ")
        );
        let quantiles = orfpred_smart::summary::feature_quantiles(&ds, &opts.cols(), 100_000);
        println!(
            "{:>26} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "feature", "q25", "q50", "q75", "q99", "max"
        );
        for fq in &quantiles {
            println!(
                "{:>26} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>10.1}",
                fq.name,
                fq.quantiles[1],
                fq.quantiles[2],
                fq.quantiles[3],
                fq.quantiles[4],
                fq.quantiles[5]
            );
        }
        println!();
        opts.write_json(&format!("summary_{label}"), &s);
    }
}

/// Extension: full per-disk ROC curves and AUC for RF vs ORF (the paper
/// only reports single operating points; the ROC shows the whole
/// trade-off surface both models offer).
pub fn roc(opts: &Options) {
    #[derive(Serialize)]
    struct ModelRoc {
        model: &'static str,
        auc: f64,
        points: Vec<orfpred_eval::metrics::RocPoint>,
    }
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
        let split = DiskSplit::stratified(&ds, 0.7, &mut rng);
        let labels = orfpred_eval::prep::training_labels(&ds, &split.is_train, ds.duration_days, 7);
        let cols = opts.cols();
        let mut out = Vec::new();

        if let Some(tm) = orfpred_eval::prep::build_matrix(&ds, &labels, &cols, Some(3.0), &mut rng)
        {
            let rf = RandomForest::fit(&tm.x, &tm.y, &opts.forest_cfg(), rng.next_u64());
            let scored = score_test_disks(
                &ds,
                &split.test,
                &orfpred_eval::scorer::RfScorer {
                    model: rf,
                    scaler: tm.scaler,
                },
                7,
            );
            out.push(ModelRoc {
                model: "offline RF",
                auc: scored.auc(),
                points: scored.roc(),
            });
        }
        let model =
            orfpred_eval::prep::stream_orf(&ds, &labels, &cols, &opts.orf_cfg(), opts.seed ^ 1);
        let scored = score_test_disks(&ds, &split.test, &model.freeze(), 7);
        out.push(ModelRoc {
            model: "ORF",
            auc: scored.auc(),
            points: scored.roc(),
        });

        println!("Per-disk ROC — {label}");
        for m in &out {
            println!("  {:>10}: AUC = {:.4}", m.model, m.auc);
            // Print the FDR at a few canonical FAR levels.
            for target in [0.001, 0.01, 0.05] {
                let best = m
                    .points
                    .iter()
                    .filter(|p| p.far <= target)
                    .map(|p| p.fdr)
                    .fold(0.0f64, f64::max);
                println!(
                    "    FDR at FAR ≤ {:>5.1}%: {:>6.2}%",
                    target * 100.0,
                    best * 100.0
                );
            }
        }
        println!();
        opts.write_json(&format!("roc_{label}"), &out);
    }
}

/// Drift diagnostic (paper §1 motivation): distribution shift of the
/// healthy population's SMART features between early and late months.
pub fn drift(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let cols: Vec<usize> = (0..N_FEATURES).collect();
        let report = orfpred_smart::drift::measure_drift(
            &ds,
            &orfpred_smart::DomainSchema::smart(),
            &cols,
            30,
            5_000,
        );
        println!("=== {label} ===");
        println!("{}", report.render(12));
        let cum_top = report
            .features
            .iter()
            .take(6)
            .filter(|f| f.cumulative)
            .count();
        println!(
            "({cum_top}/6 of the strongest-drifting features are cumulative attributes)
"
        );
        opts.write_json(&format!("drift_{label}"), &report);
    }
}

/// Interpretability (§3.2 claim): which SMART features does the trained
/// ORF actually split on?
pub fn interpret(opts: &Options) {
    let ds = opts.sta();
    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
    let split = DiskSplit::stratified(&ds, 0.7, &mut rng);
    let labels = orfpred_eval::prep::training_labels(&ds, &split.is_train, ds.duration_days, 7);
    let cols = opts.cols();
    let model = orfpred_eval::prep::stream_orf(&ds, &labels, &cols, &opts.orf_cfg(), opts.seed);
    let imp = model.forest.importances();
    let mut ranked: Vec<(usize, f64)> = cols.iter().copied().zip(imp).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("ORF feature importances on STA (weighted Gini decrease across online splits)");
    println!("{:>5} {:>26} {:>12}", "rank", "feature", "importance");
    #[derive(Serialize)]
    struct Row {
        rank: usize,
        feature: String,
        importance: f64,
    }
    let rows: Vec<Row> = ranked
        .iter()
        .enumerate()
        .map(|(i, &(c, v))| Row {
            rank: i + 1,
            feature: feature_name(c),
            importance: v,
        })
        .collect();
    for r in rows.iter().take(12) {
        println!("{:>5} {:>26} {:>12.4}", r.rank, r.feature, r.importance);
    }
    println!(
        "(paper Table 2 ranks SMART 187, 197, 5 as the top contributors)
"
    );
    opts.write_json("interpret", &rows);
}

/// Multi-level health assessment (extension; related-work formulation).
pub fn health(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let Some(r) =
            orfpred_eval::health::run_health(&ds, &opts.cols(), &opts.forest_cfg(), opts.seed)
        else {
            println!("[{label}] not enough labelled bands to train");
            continue;
        };
        println!(
            "Health assessment — {label}: ACC on failed-disk samples {:.1}%              over {} samples (related-work RNN: 40-60%)",
            r.acc_failed * 100.0,
            r.n_samples
        );
        println!(
            "  recall: critical {:.1}%  warning {:.1}%  healthy {:.1}%",
            r.recall[0] * 100.0,
            r.recall[1] * 100.0,
            r.recall[2] * 100.0
        );
        println!("  confusion (rows=truth c/w/h): {:?}\n", r.confusion);
        opts.write_json(&format!("health_{label}"), &r);
    }
}

/// Paper-scale headline numbers via the streaming (O(disks)-memory)
/// evaluator — works even at `--scale paper` (25M+ snapshots).
pub fn paper_scale(opts: &Options) {
    for (label, fleet) in [("STA", opts.sta_config()), ("STB", opts.stb_config())] {
        // With `--store`, stream the recorded telemetry instead of the
        // simulator. One store holds one drive model, so the non-matching
        // dataset of the pair is skipped rather than silently relabelled.
        let store = opts.store.as_deref().map(|dir| {
            orfpred_store::Store::open(std::path::Path::new(dir)).unwrap_or_else(|e| {
                eprintln!("[repro] {e}");
                std::process::exit(2);
            })
        });
        if let Some(s) = &store {
            if s.meta().model != fleet.profile.name {
                eprintln!(
                    "[repro] store holds drive model {}; skipping {label}",
                    s.meta().model
                );
                continue;
            }
        }
        eprintln!(
            "[repro] streaming {label} ({} disks, {} days)…",
            fleet.n_disks(),
            fleet.duration_days
        );
        let mut cfg = orfpred_eval::streaming::StreamingConfig::new(opts.cols(), opts.seed);
        cfg.forest = opts.forest_cfg();
        cfg.orf = opts.orf_cfg();
        if matches!(opts.scale, crate::common::Scale::Paper) {
            // At the full Table 1 population each tree absorbs ~450k in-bag
            // samples; let the trees grow deeper and thin the negative
            // flood harder (Table 4's λn sweep peaks at 0.01).
            cfg.orf.lambda_neg = 0.01;
            cfg.orf.max_depth = 25;
        }
        let t0 = std::time::Instant::now();
        let r = match &store {
            Some(s) => orfpred_eval::streaming::run_streaming_store(s, &cfg).unwrap_or_else(|e| {
                eprintln!("[repro] {e}");
                std::process::exit(2);
            }),
            None => orfpred_eval::streaming::run_streaming(&fleet, &cfg),
        };
        println!(
            "=== {label}: {} snapshots streamed in {:.0}s ===",
            r.n_samples,
            t0.elapsed().as_secs_f64()
        );
        println!(
            "training: {} positives + {} of {} negatives (λ thinning)",
            r.n_train_pos, r.n_train_neg, r.n_train_neg_total
        );
        println!(
            "test: {} failed / {} good disks",
            r.n_test_failed, r.n_test_good
        );
        println!(
            "offline RF @FAR≤{:.0}%: FDR {:.2}%  FAR {:.2}%  AUC {:.4}",
            cfg.target_far * 100.0,
            r.rf.fdr,
            r.rf.far,
            r.rf.auc
        );
        println!(
            "       ORF @FAR≤{:.0}%: FDR {:.2}%  FAR {:.2}%  AUC {:.4}\n",
            cfg.target_far * 100.0,
            r.orf.fdr,
            r.orf.far,
            r.orf.auc
        );
        opts.write_json(&format!("paper_scale_{label}"), &r);
    }
}

/// Model zoo (extension): every predictor family from the paper's related
/// work under one protocol.
pub fn zoo(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let mut cfg = orfpred_eval::zoo::ZooConfig::new(opts.cols(), opts.seed);
        cfg.forest = opts.forest_cfg();
        cfg.orf = opts.orf_cfg();
        let rows = orfpred_eval::zoo::run_zoo(&ds, &cfg);
        println!("{}", orfpred_eval::zoo::render(&rows, label));
        opts.write_json(&format!("zoo_{label}"), &rows);
    }
}

/// ORF design ablations (extension experiment; see `eval::ablation`).
pub fn ablation(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let rows = orfpred_eval::ablation::run_ablation(
            &ds,
            &opts.cols(),
            &opts.orf_cfg(),
            0.01,
            opts.seed,
        );
        println!("{}", orfpred_eval::ablation::render(&rows, label));
        opts.write_json(&format!("ablation_{label}"), &rows);
    }
}

/// Calibration diagnostic (not a paper artefact): offline RF at λ=3,
/// τ=0.5, with score distributions and feature importances — the fastest
/// way to see whether the simulated fleet sits in the paper's regime.
pub fn calib(opts: &Options) {
    for (label, ds) in [("STA", opts.sta()), ("STB", opts.stb())] {
        let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
        let split = DiskSplit::stratified(&ds, 0.7, &mut rng);
        let labels = orfpred_eval::prep::training_labels(&ds, &split.is_train, ds.duration_days, 7);
        let n_pos = labels.iter().filter(|l| l.positive).count();
        let tm = orfpred_eval::prep::build_matrix(&ds, &labels, &opts.cols(), Some(3.0), &mut rng)
            .expect("trainable");
        let rf = RandomForest::fit(&tm.x, &tm.y, &opts.forest_cfg(), rng.next_u64());
        let imp = rf.importances();
        let scorer = orfpred_eval::scorer::RfScorer {
            model: rf,
            scaler: tm.scaler.clone(),
        };
        let scored = score_test_disks(&ds, &split.test, &scorer, 7);
        println!(
            "[calib {label}] labels: {} ({n_pos} pos) | test disks: {} failed / {} good",
            labels.len(),
            scored.failed_window_max.len(),
            scored.good_outside_max.len()
        );
        println!(
            "[calib {label}] RF λ=3 τ=0.5: FDR {:.2}%  FAR {:.2}%   (τ=0.7: {:.2}% / {:.2}%)",
            scored.fdr(0.5) * 100.0,
            scored.far(0.5) * 100.0,
            scored.fdr(0.7) * 100.0,
            scored.far(0.7) * 100.0
        );
        let op = scored.tune_for_far(0.01);
        println!(
            "[calib {label}] FAR≈1% point: τ={:.3} FDR {:.2}% FAR {:.2}%",
            op.tau,
            op.fdr * 100.0,
            op.far * 100.0
        );
        let mut good = scored.good_outside_max.clone();
        good.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let show: Vec<String> = good.iter().take(12).map(|v| format!("{v:.2}")).collect();
        println!(
            "[calib {label}] top good-disk max scores: {}",
            show.join(" ")
        );
        let mut failed = scored.failed_window_max.clone();
        failed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let show: Vec<String> = failed.iter().take(12).map(|v| format!("{v:.2}")).collect();
        println!(
            "[calib {label}] bottom failed-disk window scores: {}",
            show.join(" ")
        );
        // Peak raw counters of the worst-scoring good disks — who are the
        // false alarms?
        let by_disk = ds.records_by_disk();
        let mut worst: Vec<(f32, u32)> = split
            .test
            .iter()
            .filter(|&&d| !ds.disks[d as usize].failed)
            .map(|&d| {
                let info = &ds.disks[d as usize];
                let best = by_disk[d as usize]
                    .iter()
                    .filter(|&&pos| ds.records[pos].day + 7 <= info.last_day)
                    .map(|&pos| scorer.score_raw(&ds.records[pos].features))
                    .fold(f32::NEG_INFINITY, f32::max);
                (best, d)
            })
            .collect();
        worst.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        for &(score, d) in worst.iter().take(3) {
            let mut peaks = String::new();
            for id in [5u16, 183, 187, 197, 198, 199] {
                let col =
                    orfpred_smart::attrs::feature_index(id, orfpred_smart::attrs::FeatureKind::Raw)
                        .unwrap();
                let peak = by_disk[d as usize]
                    .iter()
                    .map(|&pos| ds.records[pos].features[col])
                    .fold(0.0f32, f32::max);
                peaks.push_str(&format!(" {id}:{peak:.0}"));
            }
            println!("[calib {label}] worst good disk {d} score {score:.2} peaks{peaks}");
        }
        let mut ranked: Vec<(usize, f64)> = opts.cols().into_iter().zip(imp).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let show: Vec<String> = ranked
            .iter()
            .take(8)
            .map(|&(c, v)| format!("{}={v:.3}", feature_name(c)))
            .collect();
        println!("[calib {label}] importances: {}\n", show.join(" "));
    }
}

/// Used by `figures.rs` too.
pub fn dataset_for(opts: &Options, label: &str) -> Dataset {
    match label {
        "STA" => opts.sta(),
        "STB" => opts.stb(),
        _ => unreachable!(),
    }
}
