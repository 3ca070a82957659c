//! Algorithm 1: the Online Random Forest ensemble.
//!
//! Each arriving `(x, y)` updates every tree `k ~ Poisson(λp or λn)` times
//! (online bagging with the paper's imbalance correction, Eq. 3). A sample
//! with `k = 0` is *out of bag* for that tree and instead refreshes the
//! tree's OOBE estimate; trees that are both old (`AGE > θ_AGE`) and
//! inaccurate (`OOBE > θ_OOBE`) are discarded and regrown from scratch —
//! the temporal-forgetting mechanism that makes the model track a drifting
//! SMART distribution.
//!
//! Determinism: trees are fully independent and are updated and scored one
//! after another. Every tree owns a private RNG stream derived from the
//! forest seed, so a tree's work never depends on another tree's — results
//! are **bit-identical for a fixed seed**, the property the whole
//! experiment suite leans on.

use crate::config::OrfConfig;
use crate::tree::OnlineTree;
use orfpred_util::dist::poisson;
use orfpred_util::stats::Ewma;
use orfpred_util::Xoshiro256pp;
use serde::{Deserialize, Serialize};

/// One tree plus its bagging/decay bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TreeSlot {
    tree: OnlineTree,
    rng: Xoshiro256pp,
    /// In-bag updates absorbed since (re)birth — `AGE_t`.
    age: u64,
    /// Class-balanced out-of-bag error components.
    oobe_pos: Ewma,
    oobe_neg: Ewma,
    /// How many times this slot has been regrown.
    generation: u32,
}

impl TreeSlot {
    fn new(n_features: usize, cfg: &OrfConfig, mut rng: Xoshiro256pp, generation: u32) -> Self {
        let tree = OnlineTree::new(n_features, cfg, &mut rng);
        Self {
            tree,
            rng,
            age: 0,
            // Start optimistic: a fresh tree should not be culled before it
            // has had a chance to learn (age gate also protects it).
            oobe_pos: Ewma::new(cfg.oobe_alpha, 0.0),
            oobe_neg: Ewma::new(cfg.oobe_alpha, 0.0),
            generation,
        }
    }

    /// Class-balanced OOBE: mean of the per-class error rates, so the flood
    /// of negatives cannot mask total blindness on positives.
    fn oobe(&self) -> f64 {
        if self.oobe_pos.count() == 0 {
            self.oobe_neg.value()
        } else {
            0.5 * (self.oobe_pos.value() + self.oobe_neg.value())
        }
    }

    /// Process one sample for this tree (Algorithm 1, lines 2–28).
    fn process(&mut self, x: &[f32], positive: bool, cfg: &OrfConfig) -> bool {
        let lambda = if positive {
            cfg.lambda_pos
        } else {
            cfg.lambda_neg
        };
        let k = poisson(&mut self.rng, lambda);
        if k > 0 {
            for _ in 0..k {
                self.tree.update(x, positive, cfg, &mut self.rng);
            }
            self.age += u64::from(k);
            false
        } else {
            // Out-of-bag: update OOBE and check the decay condition.
            let err = self.tree.predict(x) != positive;
            if positive {
                self.oobe_pos.push(f64::from(u8::from(err)));
            } else {
                self.oobe_neg.push(f64::from(u8::from(err)));
            }
            self.oobe() > cfg.oobe_threshold && self.age > cfg.age_threshold
        }
    }
}

/// The Online Random Forest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlineRandomForest {
    slots: Vec<TreeSlot>,
    cfg: OrfConfig,
    n_features: usize,
    master: Xoshiro256pp,
    samples_seen: u64,
    trees_replaced: u64,
}

impl OnlineRandomForest {
    /// Build an empty forest over `n_features` scaled inputs.
    pub fn new(n_features: usize, cfg: OrfConfig, seed: u64) -> Self {
        cfg.validate();
        let master = Xoshiro256pp::seed_from_u64(seed);
        let slots = (0..cfg.n_trees)
            .map(|t| TreeSlot::new(n_features, &cfg, master.split(t as u64), 0))
            .collect();
        Self {
            slots,
            cfg,
            n_features,
            master,
            samples_seen: 0,
            trees_replaced: 0,
        }
    }

    /// Absorb one labelled sample (Algorithm 1 over all trees).
    pub fn update(&mut self, x: &[f32], positive: bool) {
        assert_eq!(x.len(), self.n_features, "feature dimension mismatch");
        self.samples_seen += 1;
        let cfg = &self.cfg;
        let mut replace: Vec<usize> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.process(x, positive, cfg) {
                replace.push(i);
            }
        }
        self.replace_slots(&replace);
    }

    /// Absorb a batch, tree by tree: each tree takes the whole batch before
    /// the next one starts.
    ///
    /// Exactly equivalent to calling [`OnlineRandomForest::update`] per
    /// sample (per-tree RNG streams make tree work independent), except that
    /// tree replacement is deferred to batch boundaries — a tree flagged as
    /// decayed mid-batch finishes the batch before being regrown.
    pub fn update_batch(&mut self, batch: &[(&[f32], bool)]) {
        for (x, _) in batch {
            assert_eq!(x.len(), self.n_features, "feature dimension mismatch");
        }
        self.samples_seen += batch.len() as u64;
        let cfg = self.cfg.clone();
        let flagged: Vec<usize> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| {
                let mut decayed = false;
                for &(x, positive) in batch {
                    decayed |= slot.process(x, positive, &cfg);
                }
                decayed.then_some(i)
            })
            .collect();
        let mut flagged = flagged;
        flagged.sort_unstable();
        self.replace_slots(&flagged);
    }

    fn replace_slots(&mut self, indices: &[usize]) {
        for &i in indices {
            // Algorithm 1 line 26: discard and regrow. The replacement
            // stream id mixes slot and generation so regrown trees never
            // replay a previous tree's randomness.
            let generation = self.slots[i].generation + 1;
            let stream = (u64::from(generation)) << 32 | i as u64;
            self.slots[i] = TreeSlot::new(
                self.n_features,
                &self.cfg,
                self.master.split(stream),
                generation,
            );
            self.trees_replaced += 1;
        }
    }

    /// Ensemble score in `[0, 1]`: mean per-tree positive probability over
    /// mature trees (see [`OrfConfig::warmup_age`]); falls back to all trees
    /// while the forest is young.
    pub fn score(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.n_features);
        let warmup = self.cfg.warmup_age;
        let n_mature = self.slots.iter().filter(|s| s.age >= warmup).count();
        // Sum in slot order either way, so scores stay bit-identical.
        let (n, sum) = if n_mature == 0 {
            let sum: f32 = self.slots.iter().map(|s| s.tree.score(x)).sum();
            (self.slots.len(), sum)
        } else {
            let sum: f32 = self
                .slots
                .iter()
                .filter(|s| s.age >= warmup)
                .map(|s| s.tree.score(x))
                .sum();
            (n_mature, sum)
        };
        sum / n as f32
    }

    /// Score many rows, one after another.
    pub fn score_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        rows.iter().map(|r| self.score(r)).collect()
    }

    /// Hard prediction at vote threshold `tau`.
    pub fn predict(&self, x: &[f32], tau: f32) -> bool {
        self.score(x) >= tau
    }

    /// Configuration in force.
    pub fn config(&self) -> &OrfConfig {
        &self.cfg
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Labelled samples absorbed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Total trees discarded and regrown so far.
    pub fn trees_replaced(&self) -> u64 {
        self.trees_replaced
    }

    /// Normalized per-feature importances (mean weighted Gini decrease
    /// across trees; sums to 1 unless the forest has never split).
    pub fn importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for s in &self.slots {
            s.tree.add_importances(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
    }

    /// Per-tree (age, OOBE, splits) diagnostics.
    pub fn tree_stats(&self) -> Vec<(u64, f64, usize)> {
        self.slots
            .iter()
            .map(|s| (s.age, s.oobe(), s.tree.n_splits()))
            .collect()
    }

    /// Approximate heap footprint of all candidate-test pools, in bytes —
    /// the growth state a [`freeze`](Self::freeze) discards.
    pub fn test_pool_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.tree.test_pool_bytes()).sum()
    }

    /// Compile the current scoring ensemble into the flat
    /// [`orfpred_trees::FrozenForest`] representation.
    ///
    /// Captures exactly the pool [`Self::score`] would consult *right now*:
    /// mature trees (`age >= warmup_age`), or every tree while the forest is
    /// still young — in slot order, so frozen scores are bit-identical to
    /// live scores at the freeze point. Importances are accumulated over all
    /// slots, matching [`Self::importances`].
    pub fn freeze(&self) -> orfpred_trees::FrozenForest {
        let mut b = orfpred_trees::FrozenBuilder::new(self.n_features);
        let mature: Vec<&TreeSlot> = self
            .slots
            .iter()
            .filter(|s| s.age >= self.cfg.warmup_age)
            .collect();
        if mature.is_empty() {
            for s in &self.slots {
                s.tree.freeze_into(&mut b);
            }
        } else {
            for s in mature {
                s.tree.freeze_into(&mut b);
            }
        }
        let mut acc = vec![0.0; self.n_features];
        for s in &self.slots {
            s.tree.add_importances(&mut acc);
        }
        b.finish(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_fast() -> OrfConfig {
        OrfConfig {
            n_trees: 12,
            n_tests: 30,
            min_parent_size: 25.0,
            min_gain: 0.05,
            lambda_pos: 1.0,
            lambda_neg: 1.0, // balanced synthetic streams in these tests
            warmup_age: 10,
            ..OrfConfig::default()
        }
    }

    /// Balanced separable stream: positive iff x0 > 0.5.
    fn feed_separable(forest: &mut OnlineRandomForest, n: usize, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..n {
            let x = [rng.next_f32(), rng.next_f32()];
            forest.update(&x, x[0] > 0.5);
        }
    }

    #[test]
    fn learns_separable_stream() {
        let mut f = OnlineRandomForest::new(2, cfg_fast(), 42);
        feed_separable(&mut f, 3_000, 7);
        assert!(
            f.score(&[0.9, 0.5]) > 0.8,
            "pos score {}",
            f.score(&[0.9, 0.5])
        );
        assert!(
            f.score(&[0.1, 0.5]) < 0.2,
            "neg score {}",
            f.score(&[0.1, 0.5])
        );
        assert_eq!(f.samples_seen(), 3_000);
    }

    #[test]
    fn update_and_update_batch_agree_exactly() {
        let mut a = OnlineRandomForest::new(2, cfg_fast(), 1);
        let mut b = OnlineRandomForest::new(2, cfg_fast(), 1);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let data: Vec<([f32; 2], bool)> = (0..800)
            .map(|_| {
                let x = [rng.next_f32(), rng.next_f32()];
                (x, x[0] > 0.5)
            })
            .collect();
        for (x, y) in &data {
            a.update(x, *y);
        }
        let batch: Vec<(&[f32], bool)> = data.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
        b.update_batch(&batch);
        for probe in [[0.2f32, 0.6], [0.8, 0.1], [0.5, 0.5], [0.42, 0.99]] {
            assert_eq!(a.score(&probe), b.score(&probe), "probe {probe:?}");
        }
    }

    #[test]
    fn batch_updates_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut f = OnlineRandomForest::new(2, cfg_fast(), 5);
            let mut rng = Xoshiro256pp::seed_from_u64(6);
            let data: Vec<([f32; 2], bool)> = (0..600)
                .map(|_| {
                    let x = [rng.next_f32(), rng.next_f32()];
                    (x, x[1] > 0.3)
                })
                .collect();
            let batch: Vec<(&[f32], bool)> = data.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
            f.update_batch(&batch);
            f.score(&[0.25, 0.75])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let mut f = OnlineRandomForest::new(2, cfg_fast(), 9);
        feed_separable(&mut f, 500, 10);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..200 {
            let s = f.score(&[rng.next_f32(), rng.next_f32()]);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn small_lambda_neg_slows_negative_consumption() {
        // With λn = 0.01 a tree takes a negative sample in-bag only ~1% of
        // the time; ages should reflect mostly positive updates.
        let cfg = OrfConfig {
            lambda_neg: 0.01,
            ..cfg_fast()
        };
        let mut f = OnlineRandomForest::new(1, cfg, 2);
        for i in 0..1_000 {
            // 1 positive per 100 negatives, like disk data.
            f.update(&[0.5], i % 100 == 0);
        }
        let total_age: u64 = f.tree_stats().iter().map(|(a, _, _)| a).sum();
        // Expected in-bag updates per tree: 10 positives · 1 + 990 · 0.01 ≈ 20.
        let per_tree = total_age as f64 / 12.0;
        assert!(
            (5.0..60.0).contains(&per_tree),
            "per-tree in-bag updates {per_tree}"
        );
    }

    #[test]
    fn drift_triggers_tree_replacement() {
        let cfg = OrfConfig {
            age_threshold: 100,
            oobe_threshold: 0.35,
            oobe_alpha: 0.02,
            ..cfg_fast()
        };
        let mut f = OnlineRandomForest::new(1, cfg, 3);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        // Phase 1: positive iff x > 0.5.
        for _ in 0..2_000 {
            let v = rng.next_f32();
            f.update(&[v], v > 0.5);
        }
        assert_eq!(f.trees_replaced(), 0, "no decay on a stationary stream");
        // Phase 2: concept flips — old trees become systematically wrong.
        for _ in 0..4_000 {
            let v = rng.next_f32();
            f.update(&[v], v <= 0.5);
        }
        assert!(
            f.trees_replaced() > 0,
            "flipped concept must replace trees (stats {:?})",
            f.tree_stats()
        );
        // And the forest must have adapted to the new concept.
        assert!(f.score(&[0.1]) > 0.6, "adapted score {}", f.score(&[0.1]));
        assert!(f.score(&[0.9]) < 0.4, "adapted score {}", f.score(&[0.9]));
    }

    #[test]
    fn stationary_stream_keeps_trees() {
        let mut f = OnlineRandomForest::new(2, cfg_fast(), 12);
        feed_separable(&mut f, 5_000, 13);
        assert_eq!(
            f.trees_replaced(),
            0,
            "good trees on stationary data must survive"
        );
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let mut f = OnlineRandomForest::new(2, cfg_fast(), 77);
        feed_separable(&mut f, 4_000, 78); // label = x0 > 0.5
        let imp = f.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9, "normalized");
        assert!(imp[0] > 0.7, "feature 0 carries the signal: {imp:?}");
    }

    #[test]
    fn frozen_forest_matches_live_scores_bitwise() {
        let mut f = OnlineRandomForest::new(2, cfg_fast(), 21);
        // Young forest: no tree has reached warmup_age, so both live and
        // frozen scoring must fall back to the full slot set.
        let young = f.freeze();
        assert_eq!(young.n_trees(), 12);
        feed_separable(&mut f, 2_000, 22);
        let frozen = f.freeze();
        assert_eq!(frozen.importances(), &f.importances()[..]);
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        for _ in 0..200 {
            let probe = [rng.next_f32(), rng.next_f32()];
            assert_eq!(
                frozen.score(&probe).to_bits(),
                f.score(&probe).to_bits(),
                "probe {probe:?}"
            );
        }
        assert!(f.test_pool_bytes() > 0);
        assert!(frozen.memory_bytes() < f.test_pool_bytes());
    }

    #[test]
    fn serde_round_trip_preserves_future_behaviour() {
        let mut a = OnlineRandomForest::new(2, cfg_fast(), 5);
        feed_separable(&mut a, 500, 6);
        let blob = serde_json::to_vec(&a).unwrap();
        let mut b: OnlineRandomForest = serde_json::from_slice(&blob).unwrap();
        // Updating both with the same continuation keeps them identical —
        // the RNG streams are part of the state.
        feed_separable(&mut a, 200, 9);
        feed_separable(&mut b, 200, 9);
        assert_eq!(a.score(&[0.3, 0.3]), b.score(&[0.3, 0.3]));
        assert_eq!(a.trees_replaced(), b.trees_replaced());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn update_rejects_wrong_dimension() {
        let mut f = OnlineRandomForest::new(3, cfg_fast(), 1);
        f.update(&[0.0, 1.0], true);
    }
}
