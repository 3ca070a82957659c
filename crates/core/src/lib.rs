//! Online Random Forests for disk failure prediction — the paper's core
//! contribution (§3, Algorithms 1 and 2).
//!
//! * [`tree::OnlineTree`] — a decision tree grown on-the-fly: each unsplit
//!   leaf keeps a pool of `N` random threshold tests with streaming class
//!   statistics and splits once it has seen `MinParentSize` (α) samples and
//!   some test reaches `MinGain` (β) of Gini improvement (Eq. 1–2);
//! * [`forest::OnlineRandomForest`] — Algorithm 1: online bagging where each
//!   arriving sample updates each tree `k ~ Poisson(λ)` times, with the
//!   paper's imbalance correction `λp`/`λn` (Eq. 3); out-of-bag samples
//!   (`k = 0`) feed a per-tree OOBE estimate, and trees that are old and
//!   inaccurate (`OOBE > θ_OOBE ∧ AGE > θ_AGE`) are discarded and regrown —
//!   the unlearning mechanism that defeats model aging;
//! * [`labeller::OnlineLabeller`] — the automatic online label method
//!   (Figure 1): per-disk queues of recent unlabelled samples, flushed as
//!   positives when the disk fails and aged out as negatives otherwise;
//! * [`online::OnlineModel`] — Algorithm 2's model step: streaming
//!   min–max scaler + ORF + adaptation hook + alarm threshold, which learns
//!   from released samples and scores fresh ones. The serial predictor
//!   and the serve engine's model writer both run it, and the eval
//!   harnesses train it on oracle labels ([`online::OnlineModel::learn_labelled`]);
//! * [`frozen::FrozenModel`] — the fixed scaler + [`orfpred_trees::FrozenForest`]
//!   pair that serve snapshots, the CLI and the eval harnesses score with;
//!   [`online::OnlineModel::freeze`] builds one;
//! * [`online::OnlinePredictor`] — Algorithm 2 end-to-end: one
//!   [`online::OnlineModel`] behind the labeller, consuming the fleet event
//!   stream directly (optionally through the `orfpred-prep` preprocessing
//!   stage and a domain's window stage);
//! * [`adapt::AdaptiveState`] — drift-triggered closed-loop adaptation:
//!   a windowed detector over the released healthy population plus a
//!   configurable long-term update policy (no-update / replace /
//!   accumulate) that rebuilds the forest deterministically.

#![warn(missing_docs)]

pub mod adapt;
pub mod config;
pub mod forest;
pub mod frozen;
pub mod labeller;
pub mod online;
pub mod tree;

pub use adapt::{AdaptConfig, AdaptiveState, UpdatePolicy};
pub use config::OrfConfig;
pub use forest::OnlineRandomForest;
pub use frozen::FrozenModel;
pub use labeller::{OnlineLabeller, ReleasedSample};
pub use online::{Alarm, OnlineModel, OnlinePredictor, OnlinePredictorConfig};
pub use tree::OnlineTree;
