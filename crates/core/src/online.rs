//! Algorithm 2 end-to-end: the deployable online predictor.
//!
//! Algorithm 2 has two halves. [`OnlineModel`] is the model half: for
//! every event it (1) widens the streaming min–max scaler with the fresh
//! snapshot, (2) trains the ORF on whatever the labeller just released and
//! runs the optional drift-adaptation hook, and (3) scores the fresh
//! snapshot, raising an [`Alarm`] when the ensemble vote crosses the alarm
//! threshold ("immediate data migration is recommended", Algorithm 2
//! line 20). Disk failures flush that disk's queue as positive training
//! data.
//!
//! [`OnlinePredictor`] wraps one such model in the stages that decide
//! what it sees: the optional preprocessing stage, the window stage and
//! the [`OnlineLabeller`]. The serve engine's model writer drives an
//! [`OnlineModel`] of its own with the labels its shards computed, so the
//! serial and the sharded pipelines run one model step.
//!
//! No offline retraining ever happens — this is the paper's headline
//! property.

use crate::adapt::{AdaptConfig, AdaptiveState};
use crate::config::OrfConfig;
use crate::forest::OnlineRandomForest;
use crate::frozen::FrozenModel;
use crate::labeller::{OnlineLabeller, ReleasedSample};
use orfpred_prep::{PrepConfig, Preprocessor};
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use serde::{Deserialize, Serialize};

/// Configuration of the online predictor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlinePredictorConfig {
    /// ORF hyper-parameters.
    pub orf: OrfConfig,
    /// Prediction window `W` in days (queue length; the paper fixes 7).
    pub window_days: usize,
    /// Ensemble vote threshold above which an alarm is raised.
    pub alarm_threshold: f32,
    /// Columns of the full feature row used as model inputs (typically the
    /// Table 2 selection for SMART). Indices may point at base *or*
    /// derived (windowed) columns of the domain schema.
    pub feature_cols: Vec<usize>,
    /// Seed for the forest's RNG streams.
    pub seed: u64,
    /// Optional preprocessing stage applied to events entering through
    /// [`OnlinePredictor::observe`] (imputation, dedup, stuck-at,
    /// survival re-checks). `None` feeds events to the labeller verbatim.
    pub prep: Option<PrepConfig>,
    /// Optional drift-triggered closed-loop adaptation. `None` keeps the
    /// paper's pure-ORF behaviour.
    pub adapt: Option<AdaptConfig>,
    /// Telemetry domain the pipeline runs on. `None` (and every config
    /// serialized before the field existed) means the implicit SMART
    /// domain with an empty derived plan — bit-exact with the pre-schema
    /// pipeline. A schema with a non-empty derived plan enables the
    /// sliding-window feature stage between prep and the labeller.
    pub domain: Option<DomainSchema>,
}

impl OnlinePredictorConfig {
    /// Default configuration over the given feature columns.
    pub fn new(feature_cols: Vec<usize>, seed: u64) -> Self {
        Self {
            orf: OrfConfig::default(),
            window_days: 7,
            alarm_threshold: 0.5,
            feature_cols,
            seed,
            prep: None,
            adapt: None,
            domain: None,
        }
    }

    /// Default configuration for an explicit telemetry domain.
    pub fn for_domain(schema: DomainSchema, feature_cols: Vec<usize>, seed: u64) -> Self {
        let mut cfg = Self::new(feature_cols, seed);
        cfg.domain = Some(schema);
        cfg
    }

    /// The resolved domain schema (`None` ⇒ implicit SMART).
    pub fn domain_schema(&self) -> DomainSchema {
        self.domain.clone().unwrap_or_else(DomainSchema::smart)
    }

    /// A window stage for this config's derived plan; `None` when the plan
    /// is empty (the stage would be a strict no-op).
    pub fn window_stage(&self) -> Option<WindowStage> {
        let stage = WindowStage::new(&self.domain_schema());
        if stage.is_noop() {
            None
        } else {
            Some(stage)
        }
    }
}

/// A raised at-risk alarm.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Disk predicted to fail within the window.
    pub disk_id: u32,
    /// Day the alarm fired.
    pub day: u16,
    /// Ensemble score that triggered it.
    pub score: f32,
}

/// The model half of Algorithm 2: per event, [`Self::learn`] and then,
/// for a sample, [`Self::predict`] on the same row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlineModel {
    /// Streaming min–max scaler over the feature columns.
    pub scaler: OnlineMinMax,
    /// The online random forest, as wide as the scaler's output.
    pub forest: OnlineRandomForest,
    /// Drift-triggered adaptation loop; `None` keeps the paper's pure ORF.
    pub adaptive: Option<AdaptiveState>,
    /// Ensemble vote at or above which a sample raises an alarm.
    pub alarm_threshold: f32,
    /// Alarms raised so far.
    pub alarms_raised: u64,
    /// Scaled-row buffer, as wide as the scaler's output.
    scratch: Vec<f32>,
}

impl OnlineModel {
    /// A fresh model for `cfg`: empty scaler bounds, an untrained forest,
    /// and the adaptation loop when `cfg.adapt` arms one.
    pub fn new(cfg: &OnlinePredictorConfig) -> Self {
        let n = cfg.feature_cols.len();
        assert!(n > 0, "need at least one feature column");
        Self {
            scaler: OnlineMinMax::new_log1p(&cfg.feature_cols),
            forest: OnlineRandomForest::new(n, cfg.orf.clone(), cfg.seed),
            adaptive: fresh_adaptive(cfg),
            alarm_threshold: cfg.alarm_threshold,
            alarms_raised: 0,
            scratch: vec![0.0; n],
        }
    }

    /// A model resumed from a checkpoint's parts. A part an older
    /// checkpoint lacks (`None`) starts as in [`Self::new`].
    pub fn restore(
        cfg: &OnlinePredictorConfig,
        scaler: OnlineMinMax,
        forest: OnlineRandomForest,
        adaptive: Option<AdaptiveState>,
        alarm_threshold: Option<f32>,
        alarms_raised: Option<u64>,
    ) -> Self {
        Self {
            scratch: vec![0.0; scaler.n_outputs()],
            scaler,
            forest,
            adaptive: adaptive.or_else(|| fresh_adaptive(cfg)),
            alarm_threshold: alarm_threshold.unwrap_or(cfg.alarm_threshold),
            alarms_raised: alarms_raised.unwrap_or(0),
        }
    }

    /// The model update phase: widen the scaler with the fresh sample's
    /// row (`None` for a failure), then train the forest on each released
    /// sample in order and feed it to the adaptation loop, whose policy may
    /// swap in a rebuilt forest. The scaler only ever widens, so widening
    /// it before training keeps past and future transforms consistent.
    ///
    /// Returns whether the adaptation loop declared drift. It watches
    /// released negatives only, and a failure releases positives only, so
    /// one call declares at most one drift.
    pub fn learn(&mut self, fresh: Option<&[f32]>, released: &[ReleasedSample]) -> bool {
        if let Some(row) = fresh {
            self.scaler.update(row);
        }
        let mut drifted = false;
        for rel in released {
            self.scaler.transform_into(&rel.features, &mut self.scratch);
            self.forest.update(&self.scratch, rel.positive);
            let Some(adaptive) = self.adaptive.as_mut() else {
                continue;
            };
            if adaptive.on_released(&rel.features, rel.positive).is_some() {
                drifted = true;
                if let Some(forest) = adaptive.rebuild(&self.scaler) {
                    self.forest = forest;
                }
            }
        }
        drifted
    }

    /// Train on raw rows whose labels come from an oracle instead of the
    /// labeller (the eval harnesses' chronological replay): widen the
    /// scaler with each row and scale that row at that point, then train
    /// the forest on the whole run with one
    /// [`OnlineRandomForest::update_batch`]. The result is bit-identical to
    /// feeding the rows one at a time, at any run length. The adaptation
    /// loop does not run.
    pub fn learn_labelled(&mut self, rows: &[(&[f32], bool)]) {
        let width = self.scaler.n_outputs();
        let mut scaled = vec![0.0f32; width * rows.len()];
        for (&(row, _), out) in rows.iter().zip(scaled.chunks_exact_mut(width)) {
            self.scaler.update(row);
            self.scaler.transform_into(row, out);
        }
        let batch: Vec<(&[f32], bool)> = scaled
            .chunks_exact(width)
            .zip(rows)
            .map(|(x, &(_, positive))| (x, positive))
            .collect();
        self.forest.update_batch(&batch);
    }

    /// The prediction phase: score the fresh, still unlabelled sample and
    /// raise an alarm when the vote reaches the threshold (Algorithm 2
    /// line 20).
    pub fn predict(&mut self, rec: &DiskDay) -> (f32, Option<Alarm>) {
        self.scaler.transform_into(&rec.features, &mut self.scratch);
        let score = self.forest.score(&self.scratch);
        if score < self.alarm_threshold {
            return (score, None);
        }
        self.alarms_raised += 1;
        let alarm = Alarm {
            disk_id: rec.disk_id,
            day: rec.day,
            score,
        };
        (score, Some(alarm))
    }

    /// Score a full-width feature row (no state change).
    pub fn score_row(&self, features: &[f32]) -> f32 {
        let mut scaled = vec![0.0f32; self.scaler.n_outputs()];
        self.scaler.transform_into(features, &mut scaled);
        self.forest.score(&scaled)
    }

    /// Freeze the current state for scoring: the scaler's current bounds
    /// in front of the compiled forest. Its scores are bit-identical to
    /// [`Self::score_row`] at the freeze point.
    pub fn freeze(&self) -> FrozenModel {
        FrozenModel {
            scaler: self.scaler.freeze(),
            forest: self.forest.freeze(),
        }
    }
}

/// The adaptation loop a fresh model for `cfg` starts with.
fn fresh_adaptive(cfg: &OnlinePredictorConfig) -> Option<AdaptiveState> {
    cfg.adapt
        .as_ref()
        .map(|a| AdaptiveState::new(a, cfg.feature_cols.len(), &cfg.orf, cfg.seed))
}

/// The deployable Algorithm 2 pipeline: the labeller, prep and window
/// stages around one [`OnlineModel`].
///
/// Serializable: a running deployment can be checkpointed (labeller queues,
/// scaler bounds, forest state, RNG streams) and restored bit-exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlinePredictor {
    labeller: OnlineLabeller,
    model: OnlineModel,
    prep: Option<Preprocessor>,
    /// Sliding-window derived-feature stage (schema-driven); `None` for
    /// domains with an empty derived plan.
    window: Option<WindowStage>,
}

impl OnlinePredictor {
    /// Build the pipeline.
    pub fn new(cfg: &OnlinePredictorConfig) -> Self {
        Self {
            labeller: OnlineLabeller::new(cfg.window_days),
            model: OnlineModel::new(cfg),
            prep: cfg.prep.as_ref().map(Preprocessor::new),
            window: cfg.window_stage(),
        }
    }

    /// Process one fleet event; returns an alarm if the fresh sample looks
    /// at-risk.
    ///
    /// This is the *raw ingest* entry point: when a preprocessing stage is
    /// configured the event runs through it first and the pipeline sees
    /// only what prep emits (a dropped sample never touches the labeller;
    /// a held failure commits later). The snapshot-level APIs
    /// ([`Self::observe_sample`], [`Self::observe_failure`]) are the
    /// post-prep entry points and bypass the stage.
    pub fn observe(&mut self, event: &FleetEvent) -> Option<Alarm> {
        let Some(mut prep) = self.prep.take() else {
            return self.observe_prepped(event);
        };
        let mut buf = Vec::new();
        prep.observe(event, &mut buf);
        let mut alarm = None;
        for ev in &buf {
            alarm = self.observe_prepped(ev).or(alarm);
        }
        self.prep = Some(prep);
        alarm
    }

    /// End of stream: flush failures still held by the preprocessing
    /// stage's survival re-check (no-op without prep or pending holds).
    pub fn finish(&mut self) {
        let Some(mut prep) = self.prep.take() else {
            return;
        };
        let mut buf = Vec::new();
        prep.finish(&mut buf);
        for ev in &buf {
            self.observe_prepped(ev);
        }
        self.prep = Some(prep);
    }

    /// Dispatch one already-preprocessed event.
    fn observe_prepped(&mut self, event: &FleetEvent) -> Option<Alarm> {
        match event {
            FleetEvent::Sample(rec) => self.observe_sample(rec),
            FleetEvent::Failure { disk_id, .. } => {
                self.observe_failure(*disk_id);
                None
            }
        }
    }

    /// Process one SMART snapshot (Algorithm 2 lines 10–22).
    pub fn observe_sample(&mut self, rec: &DiskDay) -> Option<Alarm> {
        self.observe_sample_scored(rec).1
    }

    /// Like [`OnlinePredictor::observe_sample`], but also returns the score
    /// the model assigned to the fresh sample (evaluation harnesses record
    /// every causal score, alarm or not).
    ///
    /// When the domain schema has a non-empty derived plan, the window
    /// stage extends the base row here — after prep, before the labeller —
    /// so the labeller queues, the scaler, and the forest all see
    /// full-width rows. With an empty plan the row passes through
    /// untouched (the SMART bit-exactness pin).
    pub fn observe_sample_scored(&mut self, rec: &DiskDay) -> (f32, Option<Alarm>) {
        if let Some(w) = self.window.as_mut() {
            let mut features = rec.features.clone();
            w.extend(rec.disk_id, &mut features);
            let extended = DiskDay {
                disk_id: rec.disk_id,
                day: rec.day,
                features,
            };
            return self.observe_extended(&extended);
        }
        self.observe_extended(rec)
    }

    /// Algorithm 2 lines 10–22 on a row already at full feature width:
    /// label, then the model's update and prediction phases.
    fn observe_extended(&mut self, rec: &DiskDay) -> (f32, Option<Alarm>) {
        let released = self
            .labeller
            .observe_sample(rec.disk_id, rec.day, &rec.features);
        self.model.learn(Some(&rec.features), released.as_slice());
        self.model.predict(rec)
    }

    /// Process a disk failure (Algorithm 2 lines 2–8): flush its queue as
    /// positive training samples.
    pub fn observe_failure(&mut self, disk_id: u32) {
        let flushed = self.labeller.observe_failure(disk_id);
        self.model.learn(None, &flushed);
        // The disk is gone; its window history can never be extended again.
        if let Some(w) = self.window.as_mut() {
            w.forget(disk_id);
        }
    }

    /// Score a full-width feature row with the current model (no state
    /// change). For a domain with derived columns the caller supplies them
    /// (e.g. via [`WindowStage::extend_records`] offline); stateless probes
    /// may zero-pad.
    pub fn score_row(&self, features: &[f32]) -> f32 {
        self.model.score_row(features)
    }

    /// The model: scaler, forest, adaptation loop, alarm operating point
    /// and alarm count.
    pub fn model(&self) -> &OnlineModel {
        &self.model
    }

    /// The forest; the same as `model().forest`.
    pub fn forest(&self) -> &OnlineRandomForest {
        &self.model.forest
    }

    /// The labeller (diagnostics).
    pub fn labeller(&self) -> &OnlineLabeller {
        &self.labeller
    }

    /// The preprocessing stage, when configured (counters / diagnostics).
    pub fn prep(&self) -> Option<&Preprocessor> {
        self.prep.as_ref()
    }

    /// The window stage, when the domain's derived plan is non-empty
    /// (counters / diagnostics).
    pub fn window(&self) -> Option<&WindowStage> {
        self.window.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::{feature_index, FeatureKind, N_FEATURES};

    fn cols() -> Vec<usize> {
        vec![
            feature_index(187, FeatureKind::Raw).unwrap(),
            feature_index(197, FeatureKind::Raw).unwrap(),
            feature_index(5, FeatureKind::Raw).unwrap(),
        ]
    }

    fn cfg() -> OnlinePredictorConfig {
        let mut c = OnlinePredictorConfig::new(cols(), 77);
        c.orf.n_trees = 10;
        c.orf.n_tests = 30;
        c.orf.min_parent_size = 20.0;
        c.orf.min_gain = 0.02;
        c.orf.lambda_neg = 0.1;
        c.orf.warmup_age = 5;
        c
    }

    fn rec(disk_id: u32, day: u16, err: f32) -> DiskDay {
        let mut features = vec![0.0f32; N_FEATURES];
        for &c in &cols() {
            features[c] = err;
        }
        DiskDay {
            disk_id,
            day,
            features,
        }
    }

    /// Healthy disks report ~0 errors; dying disks ramp up for their last
    /// week. Returns (predictor, last trained day).
    fn train_stream(p: &mut OnlinePredictor, n_disks: u32, days: u16) {
        for day in 0..days {
            for disk in 0..n_disks {
                // Every 10th disk dies at day = 40 + disk, with a ramp.
                let dies_at = if disk % 10 == 0 {
                    40 + disk as u16
                } else {
                    u16::MAX
                };
                if day > dies_at {
                    continue;
                }
                let err = if dies_at != u16::MAX && day + 7 > dies_at {
                    20.0 + f32::from(day + 7 - dies_at)
                } else {
                    0.0
                };
                p.observe_sample(&rec(disk, day, err));
                if day == dies_at {
                    p.observe_failure(disk);
                }
            }
        }
    }

    #[test]
    fn pipeline_learns_to_separate_ramps_from_healthy() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        assert!(p.forest().samples_seen() > 1_000, "forest was fed");
        let healthy = p.score_row(&rec(999, 0, 0.0).features);
        let dying = p.score_row(&rec(999, 0, 25.0).features);
        assert!(dying > healthy + 0.3, "dying {dying} vs healthy {healthy}");
    }

    #[test]
    fn alarms_fire_on_risky_samples_only() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        p.model.alarm_threshold = 0.5;
        let a = p.observe_sample(&rec(500, 121, 25.0));
        assert!(a.is_some(), "ramping disk must alarm");
        let a = a.unwrap();
        assert_eq!(a.disk_id, 500);
        assert!(a.score >= 0.5);
        let none = p.observe_sample(&rec(501, 121, 0.0));
        assert!(none.is_none(), "healthy disk must stay silent");
        assert!(p.model().alarms_raised >= 1);
    }

    #[test]
    fn failure_without_samples_is_harmless() {
        let mut p = OnlinePredictor::new(&cfg());
        p.observe_failure(12345);
        assert_eq!(p.forest().samples_seen(), 0);
    }

    #[test]
    fn observe_dispatches_both_event_kinds() {
        let mut p = OnlinePredictor::new(&cfg());
        let r = rec(1, 0, 0.0);
        assert!(p.observe(&FleetEvent::Sample(r)).is_none());
        assert_eq!(p.labeller().n_pending(), 1);
        p.observe(&FleetEvent::Failure { disk_id: 1, day: 0 });
        assert_eq!(p.labeller().n_pending(), 0);
        assert_eq!(
            p.forest().samples_seen(),
            1,
            "queued sample trained as positive"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_exactly() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 30, 80);
        let checkpoint = serde_json::to_string(&p).expect("checkpoint");
        let mut restored: OnlinePredictor = serde_json::from_str(&checkpoint).expect("restore");
        // Continue both pipelines identically: same updates, same scores.
        for day in 80..120u16 {
            for disk in 0..30u32 {
                let r = rec(disk, day, if disk % 7 == 0 { 10.0 } else { 0.0 });
                let a = p.observe_sample(&r);
                let b = restored.observe_sample(&r);
                assert_eq!(a, b, "divergence at day {day} disk {disk}");
            }
        }
        assert_eq!(p.forest().samples_seen(), restored.forest().samples_seen());
    }

    #[test]
    fn windowed_domain_extends_rows_and_checkpoints_bit_exactly() {
        // An mce-domain config whose feature columns include derived
        // (windowed) indices; the predictor must extend rows internally.
        let schema = DomainSchema::mce();
        let n_base = schema.n_base_features();
        let cols = vec![1usize, 3, n_base, n_base + 1]; // two base, two derived
        let mut c = OnlinePredictorConfig::for_domain(schema.clone(), cols, 41);
        c.orf.n_trees = 5;
        c.orf.n_tests = 10;
        c.orf.min_parent_size = 10.0;
        c.orf.min_gain = 0.0;
        c.orf.warmup_age = 0;
        let mut p = OnlinePredictor::new(&c);
        assert!(p.window().is_some(), "mce derived plan enables the stage");

        let mce_rec = |disk: u32, day: u16, v: f32| DiskDay {
            disk_id: disk,
            day,
            features: {
                let mut f = vec![0.0f32; n_base];
                f[1] = v;
                f[3] = v * 0.5;
                f
            },
        };
        for day in 0..40u16 {
            for disk in 0..8u32 {
                p.observe_sample(&mce_rec(
                    disk,
                    day,
                    f32::from(day % 6) * f32::from(disk as u8 + 1),
                ));
            }
        }
        p.observe_failure(3);
        assert_eq!(
            p.window().unwrap().n_tracked(),
            7,
            "failed disk's window state is dropped"
        );

        // Checkpoint mid-stream and continue both pipelines identically.
        let json = serde_json::to_string(&p).unwrap();
        let mut restored: OnlinePredictor = serde_json::from_str(&json).unwrap();
        for day in 40..70u16 {
            for disk in 0..8u32 {
                if disk == 3 {
                    continue;
                }
                let r = mce_rec(disk, day, f32::from(day % 9));
                let (sa, aa) = p.observe_sample_scored(&r);
                let (sb, ab) = restored.observe_sample_scored(&r);
                assert_eq!(sa.to_bits(), sb.to_bits(), "day {day} disk {disk}");
                assert_eq!(aa, ab);
            }
        }
    }

    #[test]
    fn smart_domain_with_empty_plan_is_bit_exact_with_no_domain() {
        // Explicit SMART schema (empty derived plan) must not perturb the
        // pipeline at all relative to the implicit default.
        let mut a = OnlinePredictor::new(&cfg());
        let explicit = OnlinePredictorConfig {
            domain: Some(DomainSchema::smart()),
            ..cfg()
        };
        let mut b = OnlinePredictor::new(&explicit);
        assert!(b.window().is_none(), "empty plan must not build a stage");
        train_stream(&mut a, 30, 80);
        train_stream(&mut b, 30, 80);
        let probe = rec(999, 81, 13.0);
        assert_eq!(
            a.score_row(&probe.features).to_bits(),
            b.score_row(&probe.features).to_bits()
        );
    }

    #[test]
    fn threshold_controls_alarm_volume() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        let probe = rec(900, 121, 12.0);
        let score = p.score_row(&probe.features);
        p.model.alarm_threshold = score + 0.01;
        assert!(p.observe_sample(&probe).is_none());
        p.model.alarm_threshold = (score - 0.01).max(0.0);
        assert!(p.observe_sample(&rec(901, 121, 12.0)).is_some());
    }
}
