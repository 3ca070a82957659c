//! Figures 4–7: simulating practical long-term use (§4.5).
//!
//! Four deployments are compared on the *whole* fleet, month by month:
//!
//! * **No updating** — an offline RF trained once on the initial months,
//!   operating point fixed at deployment. Model aging makes its FAR climb
//!   and FDR sag as the SMART distribution drifts.
//! * **1-month replacing** — retrained each month on only the previous
//!   month's labelled samples (Zhu et al.'s replacing strategy).
//! * **Accumulation** — retrained each month on everything labelled so far.
//! * **ORF** — one online model consuming the live stream through
//!   Algorithm 2; *predictions are causal* (each sample is scored by the
//!   model state at its arrival instant) and no retraining ever happens.
//!
//! For month `i`, offline strategies train on data visible at the end of
//! month `i−1` (their operating point tuned on that same visible past) and
//! are then measured on month `i`'s samples.

use crate::metrics::{monthly_outcome_with, scored_disks_censored, MonthlyOutcome};
use crate::prep::{build_matrix, training_labels, training_labels_range};
use crate::report::{Figure, Series};
use crate::scorer::Scorer;
use crate::split::DiskSplit;
use orfpred_core::{AdaptConfig, FrozenModel, OnlinePredictor, OnlinePredictorConfig, OrfConfig};
use orfpred_smart::record::Dataset;
use orfpred_trees::{ForestConfig, RandomForest};
use orfpred_util::Xoshiro256pp;
use serde::{Deserialize, Serialize};

/// Configuration for the long-term simulation.
#[derive(Clone, Debug)]
pub struct LongtermConfig {
    /// Feature columns.
    pub cols: Vec<usize>,
    /// Prediction window in days.
    pub window: u16,
    /// Days per month.
    pub month_days: u16,
    /// Months of initial training before deployment (paper: 6 for STA,
    /// 4 for STB).
    pub initial_months: usize,
    /// Last month evaluated (inclusive).
    pub end_month: usize,
    /// NegSampleRatio for the offline RF.
    pub lambda: Option<f64>,
    /// FAR target used when fixing/tuning operating points.
    pub target_far: f64,
    /// Lower bound on tuned alarm thresholds. Operating points are tuned
    /// on the model's own (in-sample) past, where good-disk scores are
    /// systematically deflated; without a floor an occasional over-confident
    /// month tunes τ into the noise band and the next month's
    /// out-of-sample scores blow the FAR up. 0.2 is far below any sensible
    /// forest operating point yet above the noise floor.
    pub tau_floor: f32,
    /// Offline RF settings.
    pub forest: ForestConfig,
    /// ORF settings.
    pub orf: OrfConfig,
    /// Master seed.
    pub seed: u64,
}

impl LongtermConfig {
    /// Paper-like defaults.
    pub fn new(cols: Vec<usize>, initial_months: usize, end_month: usize, seed: u64) -> Self {
        Self {
            cols,
            window: 7,
            month_days: 30,
            initial_months,
            end_month,
            lambda: Some(3.0),
            target_far: 0.01,
            tau_floor: 0.2,
            forest: ForestConfig::default(),
            orf: OrfConfig::default(),
            seed,
        }
    }
}

/// Monthly FDR/FAR series of one deployment strategy.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StrategySeries {
    /// Strategy label.
    pub name: String,
    /// Evaluated months.
    pub months: Vec<usize>,
    /// Monthly outcomes (percentages; `NaN` = no data that month).
    pub fdr: Vec<f64>,
    /// Monthly FARs (%).
    pub far: Vec<f64>,
}

impl StrategySeries {
    fn push(&mut self, o: &MonthlyOutcome) {
        self.months.push(o.month);
        self.fdr.push(o.fdr * 100.0);
        self.far.push(o.far * 100.0);
    }
}

/// Result of the long-term simulation: one series per strategy.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LongtermResult {
    /// Offline RF frozen at deployment.
    pub no_update: StrategySeries,
    /// Offline RF retrained on the last month only.
    pub replacing: StrategySeries,
    /// Offline RF retrained on all data so far.
    pub accumulation: StrategySeries,
    /// Online Random Forest (no retraining).
    pub orf: StrategySeries,
}

impl LongtermResult {
    /// Figure of the FAR series (Figures 4–5).
    pub fn far_figure(&self, title: &str) -> Figure {
        self.figure(title, "FAR", |s| (s.months.clone(), s.far.clone()))
    }

    /// Figure of the FDR series (Figures 6–7).
    pub fn fdr_figure(&self, title: &str) -> Figure {
        self.figure(title, "FDR", |s| (s.months.clone(), s.fdr.clone()))
    }

    fn figure(
        &self,
        title: &str,
        ylabel: &str,
        pick: impl Fn(&StrategySeries) -> (Vec<usize>, Vec<f64>),
    ) -> Figure {
        let series = [
            &self.no_update,
            &self.replacing,
            &self.accumulation,
            &self.orf,
        ]
        .iter()
        .map(|s| {
            let (m, y) = pick(s);
            Series {
                name: s.name.clone(),
                x: m.into_iter().map(|v| v as f64).collect(),
                y,
            }
        })
        .collect();
        Figure {
            title: title.into(),
            xlabel: "month".into(),
            ylabel: ylabel.into(),
            series,
        }
    }
}

/// Run the long-term simulation.
pub fn run_longterm(ds: &Dataset, cfg: &LongtermConfig) -> LongtermResult {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let all_disks: Vec<u32> = ds.disks.iter().map(|d| d.disk_id).collect();
    let w0 = cfg.initial_months as u16 * cfg.month_days;

    // Offline strategies train on 85% of the disks and tune their operating
    // points on the held-out 15% (within the visible past). Tuning on the
    // training disks themselves systematically deflates good-disk scores
    // (the model has memorised them as negative) and occasionally tunes τ
    // into the noise band, blowing up the next month's FAR.
    let tune_split = DiskSplit::stratified(ds, 0.85, &mut rng);

    // ---- ORF: causal scores over the whole stream. ----
    let mut predictor_cfg = OnlinePredictorConfig::new(cfg.cols.clone(), rng.next_u64());
    predictor_cfg.orf = cfg.orf.clone();
    predictor_cfg.window_days = cfg.window as usize;
    let mut predictor = OnlinePredictor::new(&predictor_cfg);
    let mut causal_scores = vec![0.0f32; ds.records.len()];
    for (pos, rec) in ds.records.iter().enumerate() {
        // Deployment behaviour: each sample is scored by the model state at
        // its arrival instant, then the model learns whatever just became
        // labelled.
        causal_scores[pos] = predictor.observe_sample_scored(rec).0;
        let info = &ds.disks[rec.disk_id as usize];
        if info.failed && rec.day == info.last_day {
            predictor.observe_failure(rec.disk_id);
        }
    }
    let orf_score_fn = |pos: usize, _rec: &orfpred_smart::record::DiskDay| causal_scores[pos];

    // ---- No-update RF: trained once on the initial window. ----
    // The model is fixed for the whole horizon, so every record is
    // pre-scored once through the frozen batch kernel; tuning and each
    // month's evaluation then index the same array.
    let initial_labels = training_labels(ds, &tune_split.is_train, w0, cfg.window);
    let frozen_scores =
        build_matrix(ds, &initial_labels, &cfg.cols, cfg.lambda, &mut rng).map(|tm| {
            let model = RandomForest::fit(&tm.x, &tm.y, &cfg.forest, rng.next_u64());
            let scorer = FrozenModel {
                forest: model.freeze(),
                scaler: tm.scaler,
            };
            prescore_range(ds, &scorer, 0, ds.duration_days.saturating_add(1))
        });
    let frozen_tau = frozen_scores.as_ref().map(|scores| {
        let scored = scored_disks_censored(
            ds,
            &tune_split.test,
            &|pos, _| scores[pos],
            cfg.window,
            0,
            w0 + 1,
            Some(w0),
        );
        scored.tune_for_far(cfg.target_far).tau.max(cfg.tau_floor)
    });

    let mut result = LongtermResult {
        no_update: StrategySeries {
            name: "No updating".into(),
            ..Default::default()
        },
        replacing: StrategySeries {
            name: "1-month replacing".into(),
            ..Default::default()
        },
        accumulation: StrategySeries {
            name: "Accumulation".into(),
            ..Default::default()
        },
        orf: StrategySeries {
            name: "ORF".into(),
            ..Default::default()
        },
    };

    for month in (cfg.initial_months + 1)..=cfg.end_month {
        let train_end = (month as u16 - 1) * cfg.month_days; // end of month i−1
        if train_end >= ds.duration_days {
            break;
        }

        // ORF: causal scores; the *model* is never retrained, but the alarm
        // threshold is recalibrated each month from the trailing month of
        // observed scores — an online model's score distribution keeps
        // moving as trees grow and are replaced, so a deployment-frozen τ
        // silently drifts off its FAR target (any production deployment
        // recalibrates operating points from live alarm statistics).
        let tune_from = train_end.saturating_sub(cfg.month_days);
        let orf_tau = scored_disks_censored(
            ds,
            &all_disks,
            &orf_score_fn,
            cfg.window,
            tune_from,
            train_end + 1,
            Some(train_end),
        )
        .tune_for_far(cfg.target_far)
        .tau
        .max(cfg.tau_floor);
        result.orf.push(&monthly_outcome_with(
            ds,
            &all_disks,
            &orf_score_fn,
            orf_tau,
            cfg.window,
            month,
            cfg.month_days,
        ));

        // No updating (frozen model, frozen tau, pre-scored records).
        if let (Some(scores), Some(tau)) = (&frozen_scores, frozen_tau) {
            result.no_update.push(&monthly_outcome_with(
                ds,
                &all_disks,
                &|pos, _| scores[pos],
                tau,
                cfg.window,
                month,
                cfg.month_days,
            ));
        } else {
            result.no_update.push(&nan_outcome(month));
        }

        // Accumulation: train on everything up to train_end, tune on the
        // recent visible past (last three months — tuning on the whole
        // history would both leak stale distributions into the operating
        // point and dominate runtime), evaluate on month i.
        let labels = training_labels(ds, &tune_split.is_train, train_end, cfg.window);
        let tune_from = train_end.saturating_sub(3 * cfg.month_days);
        result.accumulation.push(&train_and_eval(
            ds,
            &all_disks,
            &tune_split.test,
            &labels,
            tune_from,
            train_end,
            cfg,
            month,
            &mut rng,
        ));

        // 1-month replacing: train on month i−1 only (tune on the trailing
        // three months — a single month of per-disk maxima is too coarse to
        // pin a 1% FAR).
        let from = train_end.saturating_sub(cfg.month_days);
        let labels = training_labels_range(ds, &tune_split.is_train, from, train_end, cfg.window);
        result.replacing.push(&train_and_eval(
            ds,
            &all_disks,
            &tune_split.test,
            &labels,
            tune_from,
            train_end,
            cfg,
            month,
            &mut rng,
        ));
    }
    result
}

/// Result of one closed-loop run: the monthly series plus the adaptation
/// loop's own counters (how often drift fired, how often the policy
/// actually rebuilt the forest).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ClosedLoopResult {
    /// Monthly FDR/FAR of the adaptive deployment.
    pub series: StrategySeries,
    /// Distribution shifts the detector declared over the stream.
    pub drift_events: u64,
    /// Forests rebuilt by the policy (0 under `no-update`).
    pub rebuilds: u64,
}

/// §4.5 closed loop, offline: one serial Algorithm-2 predictor with the
/// drift-triggered long-term update policy armed, scored causally and
/// measured month by month with the same monthly τ-recalibration protocol
/// as the ORF strategy in [`run_longterm`].
///
/// This is the reference the live daemon is checked against
/// (`tests/serve_adapt.rs`): the serving engine running the same policy on
/// the same fleet must land on the identical model state, so this offline
/// series *is* the live deployment's series.
pub fn run_closed_loop(
    ds: &Dataset,
    cfg: &LongtermConfig,
    adapt: &AdaptConfig,
) -> ClosedLoopResult {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let all_disks: Vec<u32> = ds.disks.iter().map(|d| d.disk_id).collect();

    let mut predictor_cfg = OnlinePredictorConfig::new(cfg.cols.clone(), rng.next_u64());
    predictor_cfg.orf = cfg.orf.clone();
    predictor_cfg.window_days = cfg.window as usize;
    predictor_cfg.adapt = Some(adapt.clone());
    let policy = adapt.policy;

    let mut predictor = OnlinePredictor::new(&predictor_cfg);
    let mut causal_scores = vec![0.0f32; ds.records.len()];
    for (pos, rec) in ds.records.iter().enumerate() {
        causal_scores[pos] = predictor.observe_sample_scored(rec).0;
        let info = &ds.disks[rec.disk_id as usize];
        if info.failed && rec.day == info.last_day {
            predictor.observe_failure(rec.disk_id);
        }
    }
    let score_fn = |pos: usize, _rec: &orfpred_smart::record::DiskDay| causal_scores[pos];

    let mut series = StrategySeries {
        name: format!("ORF + {}", policy.as_str()),
        ..Default::default()
    };
    for month in (cfg.initial_months + 1)..=cfg.end_month {
        let train_end = (month as u16 - 1) * cfg.month_days;
        if train_end >= ds.duration_days {
            break;
        }
        let tune_from = train_end.saturating_sub(cfg.month_days);
        let tau = scored_disks_censored(
            ds,
            &all_disks,
            &score_fn,
            cfg.window,
            tune_from,
            train_end + 1,
            Some(train_end),
        )
        .tune_for_far(cfg.target_far)
        .tau
        .max(cfg.tau_floor);
        series.push(&monthly_outcome_with(
            ds,
            &all_disks,
            &score_fn,
            tau,
            cfg.window,
            month,
            cfg.month_days,
        ));
    }

    let (drift_events, rebuilds) = predictor
        .model()
        .adaptive
        .as_ref()
        .map(|a| (a.drift_events(), a.rebuilds()))
        .unwrap_or((0, 0));
    ClosedLoopResult {
        series,
        drift_events,
        rebuilds,
    }
}

fn nan_outcome(month: usize) -> MonthlyOutcome {
    MonthlyOutcome {
        month,
        fdr: f64::NAN,
        far: f64::NAN,
        n_failed: 0,
        n_good: 0,
    }
}

/// Pre-score every record with `rec.day` in `[from, to)` through the
/// scorer's batch path ([`Scorer::score_raw_many`] — the frozen
/// breadth-first kernel for a [`FrozenModel`]). Positions outside the range
/// stay 0.0; the day-range-filtered consumers
/// ([`scored_disks_censored`], [`monthly_outcome_with`]) never read them.
fn prescore_range<S: Scorer>(ds: &Dataset, scorer: &S, from: u16, to: u16) -> Vec<f32> {
    let mut idx = Vec::new();
    let mut rows: Vec<&[f32]> = Vec::new();
    for (pos, rec) in ds.records.iter().enumerate() {
        if rec.day >= from && rec.day < to {
            idx.push(pos);
            rows.push(&rec.features);
        }
    }
    let scores = scorer.score_raw_many(&rows);
    let mut out = vec![0.0f32; ds.records.len()];
    for (pos, s) in idx.into_iter().zip(scores) {
        out[pos] = s;
    }
    out
}

/// Train an RF on `labels`, tune its operating point on the held-out
/// `tune_disks` over the visible past `[tune_from, train_end]`, and
/// evaluate it on `month` over `disks`.
#[allow(clippy::too_many_arguments)]
fn train_and_eval(
    ds: &Dataset,
    disks: &[u32],
    tune_disks: &[u32],
    labels: &[orfpred_smart::label::Labeled],
    tune_from: u16,
    train_end: u16,
    cfg: &LongtermConfig,
    month: usize,
    rng: &mut Xoshiro256pp,
) -> MonthlyOutcome {
    let Some(tm) = build_matrix(ds, labels, &cfg.cols, cfg.lambda, rng) else {
        return nan_outcome(month);
    };
    let model = RandomForest::fit(&tm.x, &tm.y, &cfg.forest, rng.next_u64());
    let scorer = FrozenModel {
        forest: model.freeze(),
        scaler: tm.scaler,
    };
    // This month's scorer only ever sees days in [tune_from, month end):
    // batch-score that span once and index into it.
    let scores = prescore_range(ds, &scorer, tune_from, month as u16 * cfg.month_days);
    let score_fn = |pos: usize, _rec: &orfpred_smart::record::DiskDay| scores[pos];
    // Tune on held-out disks over the visible past only (no future leakage,
    // no in-sample deflation).
    let scored = scored_disks_censored(
        ds,
        tune_disks,
        &score_fn,
        cfg.window,
        tune_from,
        train_end + 1,
        Some(train_end),
    );
    let tau = scored.tune_for_far(cfg.target_far).tau.max(cfg.tau_floor);
    monthly_outcome_with(ds, disks, &score_fn, tau, cfg.window, month, cfg.month_days)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::table2_feature_columns;
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};
    use orfpred_util::stats::mean;

    #[test]
    fn longterm_produces_all_four_series() {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 21);
        c.n_good = 150;
        c.n_failed = 40;
        c.duration_days = 420;
        let ds = FleetSim::collect(&c);

        let mut cfg = LongtermConfig::new(table2_feature_columns(), 4, 13, 3);
        cfg.forest.n_trees = 12;
        cfg.orf.n_trees = 12;
        cfg.orf.n_tests = 80;
        cfg.orf.min_parent_size = 40.0;
        cfg.orf.min_gain = 0.02;
        cfg.orf.warmup_age = 10;
        cfg.target_far = 0.05;

        let r = run_longterm(&ds, &cfg);
        let n = r.orf.months.len();
        assert!(n >= 8, "months evaluated: {n}");
        for s in [&r.no_update, &r.replacing, &r.accumulation, &r.orf] {
            assert_eq!(s.months.len(), n, "{}", s.name);
        }
        // The adaptive strategies should do reasonably on late months.
        let late = n.saturating_sub(4)..n;
        let acc_late: Vec<f64> = late.clone().map(|i| r.accumulation.fdr[i]).collect();
        let acc_fdr = mean(
            &acc_late
                .iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect::<Vec<_>>(),
        );
        assert!(acc_fdr > 30.0, "accumulation late FDR {acc_fdr}");
        // Figures render.
        assert!(r.far_figure("Fig 4").render().contains("No updating"));
        assert!(r.fdr_figure("Fig 6").render().contains("Accumulation"));
    }

    #[test]
    fn closed_loop_detects_drift_and_applies_the_policy() {
        let mut c = FleetConfig::sta(ScalePreset::Tiny, 33);
        c.n_good = 100;
        c.n_failed = 25;
        c.duration_days = 300;
        let ds = FleetSim::collect(&c);

        let mut cfg = LongtermConfig::new(table2_feature_columns(), 4, 9, 5);
        cfg.forest.n_trees = 8;
        cfg.orf.n_trees = 8;
        cfg.orf.n_tests = 40;
        cfg.orf.min_parent_size = 40.0;
        cfg.orf.warmup_age = 10;
        cfg.target_far = 0.05;

        let mut adapt =
            orfpred_core::AdaptConfig::new(orfpred_core::UpdatePolicy::Replace, cfg.cols.clone());
        adapt.detector.window = 128;
        adapt.detector.check_every = 64;
        adapt.detector.z_threshold = 5.0;
        let replace = run_closed_loop(&ds, &cfg, &adapt);
        adapt.policy = orfpred_core::UpdatePolicy::NoUpdate;
        let no_update = run_closed_loop(&ds, &cfg, &adapt);

        assert!(!replace.series.months.is_empty());
        assert_eq!(replace.series.months, no_update.series.months);
        // The simulator's cumulative attributes drift by construction, so
        // the detector must fire on this horizon.
        assert!(replace.drift_events > 0, "no drift detected");
        // The detector watches the released stream, which no policy can
        // alter — shift counts are policy-independent.
        assert_eq!(replace.drift_events, no_update.drift_events);
        assert_eq!(
            replace.rebuilds, replace.drift_events,
            "replace rebuilds on every shift"
        );
        assert_eq!(no_update.rebuilds, 0, "no-update never rebuilds");
    }
}
