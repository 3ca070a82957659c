//! Drift-triggered closed-loop adaptation — the paper's §4.5 long-term
//! update strategies, live.
//!
//! `eval::longterm` *simulates* the three long-term policies (no-update,
//! replacing, accumulation) offline to argue the ORF ages best. This
//! module closes the loop in the serving path: an online
//! [`DriftDetector`] watches the
//! healthy population the labeller releases, and when it declares a
//! distribution shift, a configurable [`UpdatePolicy`] rebuilds the forest
//! from buffered labelled history — deterministically, so sharded serving
//! and serial replay still agree bit for bit.
//!
//! The buffers hold **raw** feature rows; a rebuild transforms them
//! through the *current* streaming scaler, so a model rebuilt after drift
//! sees the stream exactly as a freshly trained one would.

use crate::config::OrfConfig;
use crate::forest::OnlineRandomForest;
use orfpred_smart::drift::{DriftDetector, DriftDetectorConfig, DriftEvent};
use orfpred_smart::scale::OnlineMinMax;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What to do with the model when drift is detected (paper §4.5 names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdatePolicy {
    /// Count the shift but keep the model — the paper's aging baseline.
    NoUpdate,
    /// Replace the forest with one trained on the recent window only.
    Replace,
    /// Replace the forest with one trained on the full (thinned)
    /// accumulated history.
    Accumulate,
}

impl UpdatePolicy {
    /// Parse a CLI spelling (`no-update` / `replace` / `accumulate`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "no-update" | "no_update" | "none" => Some(Self::NoUpdate),
            "replace" => Some(Self::Replace),
            "accumulate" => Some(Self::Accumulate),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::NoUpdate => "no-update",
            Self::Replace => "replace",
            Self::Accumulate => "accumulate",
        }
    }
}

/// Configuration of the closed adaptation loop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Long-term update policy applied when drift fires.
    pub policy: UpdatePolicy,
    /// The drift detector watching the released healthy population.
    pub detector: DriftDetectorConfig,
    /// Labelled samples kept in the recent window ([`UpdatePolicy::Replace`]
    /// trains on exactly this window).
    pub replace_window: usize,
    /// Cap on the accumulated history buffer; when full it is decimated
    /// (every other sample dropped, sampling stride doubled) so it spans
    /// the whole stream at decreasing resolution.
    pub accum_cap: usize,
}

impl AdaptConfig {
    /// Default loop: monitor `cols` with detector defaults.
    pub fn new(policy: UpdatePolicy, cols: Vec<usize>) -> Self {
        Self {
            policy,
            detector: DriftDetectorConfig::new(cols),
            replace_window: 2_048,
            accum_cap: 8_192,
        }
    }
}

/// The serializable state of the adaptation loop: detector windows plus
/// the labelled-history buffers and rebuild bookkeeping. Deterministic and
/// checkpointable — both the serial predictor and the serve engine's
/// writer thread embed one and must agree bit-exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveState {
    cfg: AdaptConfig,
    detector: DriftDetector,
    /// Model input width (the forest's feature count after column
    /// selection).
    n_features: usize,
    /// ORF hyper-parameters for rebuilt forests.
    orf: OrfConfig,
    /// Base seed; each rebuild derives a fresh deterministic stream.
    base_seed: u64,
    /// Sliding window of the most recent released samples (raw row, label).
    recent: VecDeque<(Box<[f32]>, bool)>,
    /// Decimated history spanning the whole stream (raw row, label).
    accum: Vec<(Box<[f32]>, bool)>,
    /// Current decimation stride: every `stride`-th release is kept.
    stride: u64,
    /// Releases observed (drives the decimation phase).
    seen: u64,
    drift_events: u64,
    rebuilds: u64,
}

impl AdaptiveState {
    /// Build the loop for a model of `n_features` inputs rebuilt with
    /// `orf` hyper-parameters and seeds derived from `base_seed`.
    pub fn new(cfg: &AdaptConfig, n_features: usize, orf: &OrfConfig, base_seed: u64) -> Self {
        Self {
            cfg: cfg.clone(),
            detector: DriftDetector::new(&cfg.detector),
            n_features,
            orf: orf.clone(),
            base_seed,
            recent: VecDeque::new(),
            accum: Vec::new(),
            stride: 1,
            seen: 0,
            drift_events: 0,
            rebuilds: 0,
        }
    }

    /// The loop configuration.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// The embedded drift detector.
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// Shifts declared so far.
    pub fn drift_events(&self) -> u64 {
        self.drift_events
    }

    /// Forests rebuilt so far (stays 0 under [`UpdatePolicy::NoUpdate`]).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Observe one sample released by the labeller (raw features + final
    /// label). Buffers it for future rebuilds and, for negatives — the
    /// provably healthy population the offline drift study samples — feeds
    /// the detector. Returns the [`DriftEvent`] when this update's check
    /// declares a shift.
    pub fn on_released(&mut self, features: &[f32], positive: bool) -> Option<DriftEvent> {
        self.recent.push_back((features.into(), positive));
        if self.recent.len() > self.cfg.replace_window {
            self.recent.pop_front();
        }
        if self.cfg.accum_cap > 0 && self.seen.is_multiple_of(self.stride) {
            self.accum.push((features.into(), positive));
            if self.accum.len() >= self.cfg.accum_cap {
                // Decimate: keep every other sample, halve the resolution.
                let mut keep = false;
                self.accum.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride = self.stride.saturating_mul(2);
            }
        }
        self.seen += 1;

        if positive {
            return None;
        }
        let event = self.detector.update(features);
        if event.is_some() {
            self.drift_events += 1;
        }
        event
    }

    /// Execute the update policy after a drift event: train a replacement
    /// forest from the buffered history through the *current* scaler.
    /// Returns `None` under [`UpdatePolicy::NoUpdate`] (and when the
    /// selected buffer is still empty).
    pub fn rebuild(&mut self, scaler: &OnlineMinMax) -> Option<OnlineRandomForest> {
        let buffer: Vec<&(Box<[f32]>, bool)> = match self.cfg.policy {
            UpdatePolicy::NoUpdate => return None,
            UpdatePolicy::Replace => self.recent.iter().collect(),
            UpdatePolicy::Accumulate => self.accum.iter().collect(),
        };
        if buffer.is_empty() {
            return None;
        }
        // Fresh deterministic RNG stream per rebuild: same history, same
        // scaler, same rebuild ordinal → bit-identical forest everywhere.
        // The buffer is scaled once and trained as one batch, which gives
        // the per-sample bits.
        let seed = self
            .base_seed
            .wrapping_add((self.rebuilds + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut forest = OnlineRandomForest::new(self.n_features, self.orf.clone(), seed);
        let mut scaled = vec![0.0f32; self.n_features * buffer.len()];
        for ((row, _), out) in buffer.iter().zip(scaled.chunks_exact_mut(self.n_features)) {
            scaler.transform_into(row, out);
        }
        let batch: Vec<(&[f32], bool)> = scaled
            .chunks_exact(self.n_features)
            .zip(&buffer)
            .map(|(x, (_, positive))| (x, *positive))
            .collect();
        forest.update_batch(&batch);
        self.rebuilds += 1;
        Some(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: UpdatePolicy) -> AdaptConfig {
        let mut c = AdaptConfig::new(policy, vec![0]);
        c.detector.window = 64;
        c.detector.check_every = 16;
        c.detector.z_threshold = 5.0;
        c.replace_window = 256;
        c.accum_cap = 128;
        c
    }

    fn orf() -> OrfConfig {
        OrfConfig {
            n_trees: 5,
            n_tests: 10,
            min_parent_size: 10.0,
            ..Default::default()
        }
    }

    /// Drive `n` released negatives with mean `base` through the loop.
    fn drive(state: &mut AdaptiveState, n: u32, base: f32, salt: u32) -> Vec<DriftEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let jitter = ((i.wrapping_mul(2_654_435_761).wrapping_add(salt)) % 97) as f32 / 970.0;
            let row = [base + jitter, 1.0];
            if let Some(ev) = state.on_released(&row, false) {
                events.push(ev);
            }
        }
        events
    }

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [
            UpdatePolicy::NoUpdate,
            UpdatePolicy::Replace,
            UpdatePolicy::Accumulate,
        ] {
            assert_eq!(UpdatePolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(UpdatePolicy::parse("nonsense"), None);
    }

    #[test]
    fn drift_fires_and_replace_builds_a_forest() {
        let mut state = AdaptiveState::new(&cfg(UpdatePolicy::Replace), 2, &orf(), 9);
        assert!(drive(&mut state, 200, 0.2, 1).is_empty(), "stationary");
        let events = drive(&mut state, 200, 8.0, 2);
        assert_eq!(events.len(), 1, "regime change fires once");
        assert_eq!(state.drift_events(), 1);

        let scaler = OnlineMinMax::new_log1p(&[0, 1]);
        let forest = state.rebuild(&scaler).expect("replace builds");
        assert!(forest.samples_seen() > 0);
        assert_eq!(state.rebuilds(), 1);
    }

    #[test]
    fn no_update_counts_but_never_rebuilds() {
        let mut state = AdaptiveState::new(&cfg(UpdatePolicy::NoUpdate), 2, &orf(), 9);
        drive(&mut state, 200, 0.2, 1);
        let events = drive(&mut state, 200, 8.0, 2);
        assert_eq!(events.len(), 1);
        let scaler = OnlineMinMax::new_log1p(&[0, 1]);
        assert!(state.rebuild(&scaler).is_none());
        assert_eq!(state.rebuilds(), 0);
    }

    #[test]
    fn accumulation_buffer_decimates_deterministically() {
        let mut state = AdaptiveState::new(&cfg(UpdatePolicy::Accumulate), 2, &orf(), 9);
        drive(&mut state, 1_000, 0.5, 3);
        assert!(state.accum.len() < 128, "cap respected via decimation");
        assert!(state.stride > 1, "stride doubled at least once");

        // Bit-determinism: an identical second run agrees exactly.
        let mut state2 = AdaptiveState::new(&cfg(UpdatePolicy::Accumulate), 2, &orf(), 9);
        drive(&mut state2, 1_000, 0.5, 3);
        assert_eq!(
            serde_json::to_string(&state).unwrap(),
            serde_json::to_string(&state2).unwrap()
        );
    }

    #[test]
    fn rebuilds_are_reproducible_across_a_serde_roundtrip() {
        let mut state = AdaptiveState::new(&cfg(UpdatePolicy::Replace), 2, &orf(), 9);
        drive(&mut state, 200, 0.2, 1);
        drive(&mut state, 200, 8.0, 2);

        let mut copy: AdaptiveState =
            serde_json::from_str(&serde_json::to_string(&state).unwrap()).unwrap();
        let mut scaler = OnlineMinMax::new_log1p(&[0, 1]);
        scaler.update(&[3.0, 1.0]);
        let a = state.rebuild(&scaler).expect("a");
        let b = copy.rebuild(&scaler).expect("b");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "rebuild must be a pure function of (state, scaler)"
        );
    }
}
