//! Offline tree learners: the baselines the paper compares ORF against.
//!
//! * [`cart::DecisionTree`] — CART with Gini impurity, exact threshold
//!   search, optional per-node random feature subsets (for forests),
//!   optional best-first growth with a split cap (mirroring Matlab
//!   `fitctree` with `MaxNumSplits`, the paper's DT baseline), and class
//!   weights;
//! * [`forest::RandomForest`] — bootstrap-aggregated CART trees, trained
//!   one after another on per-tree RNG streams (the paper's offline RF);
//! * [`sampling`] — the `NegSampleRatio` (λ) downsampling of Eq. 4 used to
//!   balance offline training sets;
//! * [`threshold`] — the vendor-style static SMART threshold detector
//!   (the 3–10 % FDR strawman of §2);
//! * [`frozen`] — the flat, breadth-first [`frozen::FrozenForest`] scoring
//!   representation every tree model (offline and online) compiles into via
//!   `freeze()`, with its single-row walk and interleaved lane kernel;
//! * [`level`] — the batch entry points over those same arrays, fanned out
//!   over threads, that serve every batch scoring path (eval sweeps, CLI
//!   score/eval, store replay).

#![warn(missing_docs)]

pub mod cart;
pub mod forest;
pub mod frozen;
pub mod gini;
pub mod level;
pub mod sampling;
pub mod threshold;

pub use cart::{CartConfig, DecisionTree};
pub use forest::{ForestConfig, RandomForest};
pub use frozen::{FrozenBuilder, FrozenForest, SourceNode};
pub use sampling::downsample_negatives;
