//! Offline Random Forest (Breiman 2001) — the paper's strongest offline
//! baseline and the convergence target for ORF in Figures 2–3.
//!
//! Bootstrap replicates + per-node random feature subsets; trees are grown
//! one after another, each on its own RNG stream split from the seed.

use crate::cart::{CartConfig, DecisionTree};
use orfpred_util::{Matrix, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// Forest hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (the paper uses 30).
    pub n_trees: usize,
    /// Per-tree CART settings. If `cart.mtry` is `None`, √d is used — the
    /// conventional classification default.
    pub cart: CartConfig,
    /// Draw a bootstrap replicate per tree (true = standard bagging).
    pub bootstrap: bool,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 30,
            cart: CartConfig::default(),
            bootstrap: true,
        }
    }
}

/// A fitted random forest.
///
/// ```
/// use orfpred_trees::{ForestConfig, RandomForest};
/// use orfpred_util::Matrix;
///
/// // y = (x0 > 0.5)
/// let mut x = Matrix::new(1);
/// let mut y = Vec::new();
/// for i in 0..200 {
///     let v = i as f32 / 200.0;
///     x.push_row(&[v]);
///     y.push(v > 0.5);
/// }
/// let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 42);
/// assert!(forest.score(&[0.9]) > 0.9);
/// assert!(forest.score(&[0.1]) < 0.1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Fit on all rows of `x`. Deterministic in `seed`: each tree owns the
    /// stream `seed ⊕ tree_index`.
    pub fn fit(x: &Matrix, y: &[bool], cfg: &ForestConfig, seed: u64) -> Self {
        assert_eq!(x.n_rows(), y.len());
        assert!(x.n_rows() > 0, "cannot fit a forest on zero samples");
        assert!(cfg.n_trees > 0, "forest needs at least one tree");
        let mut cart = cfg.cart.clone();
        if cart.mtry.is_none() {
            cart.mtry = Some((x.n_cols() as f64).sqrt().ceil() as usize);
        }
        let master = Xoshiro256pp::seed_from_u64(seed);
        let n = x.n_rows();
        let trees: Vec<DecisionTree> = (0..cfg.n_trees)
            .map(|t| {
                let mut rng = master.split(t as u64);
                let idx: Vec<u32> = if cfg.bootstrap {
                    (0..n).map(|_| rng.index(n) as u32).collect()
                } else {
                    (0..n as u32).collect()
                };
                DecisionTree::fit_on(x, y, &idx, &cart, &mut rng)
            })
            .collect();
        Self {
            trees,
            n_features: x.n_cols(),
        }
    }

    /// Mean leaf posterior over the trees — a score in `[0, 1]`.
    pub fn score(&self, row: &[f32]) -> f32 {
        let sum: f32 = self.trees.iter().map(|t| t.score(row)).sum();
        sum / self.trees.len() as f32
    }

    /// Score many rows, one after another.
    pub fn score_batch(&self, rows: &Matrix) -> Vec<f32> {
        rows.rows().map(|r| self.score(r)).collect()
    }

    /// Hard prediction at vote threshold `tau`.
    pub fn predict(&self, row: &[f32], tau: f32) -> bool {
        self.score(row) >= tau
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Normalized mean-decrease-in-impurity feature importances
    /// (sums to 1 unless no split was ever made).
    pub fn importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for t in &self.trees {
            t.add_importances(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
    }

    /// Compile the forest into the flat [`crate::FrozenForest`] scoring
    /// representation. Trees are emitted in ensemble order and importances
    /// captured, so frozen scores and [`FrozenForest::importances`] are
    /// bit-identical to [`Self::score`] / [`Self::importances`].
    ///
    /// [`FrozenForest::importances`]: crate::FrozenForest::importances
    pub fn freeze(&self) -> crate::FrozenForest {
        let mut b = crate::frozen::FrozenBuilder::new(self.n_features);
        for t in &self.trees {
            t.freeze_into(&mut b);
        }
        let mut acc = vec![0.0; self.n_features];
        for t in &self.trees {
            t.add_importances(&mut acc);
        }
        b.finish(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
        // Positive iff inside a centered disc — not axis-separable, so the
        // ensemble has to combine many axis-aligned splits.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut x = Matrix::new(2);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.next_f32() * 2.0 - 1.0;
            let b = rng.next_f32() * 2.0 - 1.0;
            x.push_row(&[a, b]);
            y.push(a * a + b * b < 0.4);
        }
        (x, y)
    }

    #[test]
    fn forest_learns_nonlinear_boundary() {
        let (x, y) = ring_data(2_000, 1);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 42);
        let (xt, yt) = ring_data(500, 2);
        let correct = (0..xt.n_rows())
            .filter(|&i| forest.predict(xt.row(i), 0.5) == yt[i])
            .count();
        let acc = correct as f64 / yt.len() as f64;
        assert!(acc > 0.93, "test accuracy {acc}");
    }

    #[test]
    fn fit_is_deterministic_for_a_fixed_seed() {
        let (x, y) = ring_data(500, 3);
        let f1 = RandomForest::fit(&x, &y, &ForestConfig::default(), 7);
        let f2 = RandomForest::fit(&x, &y, &ForestConfig::default(), 7);
        let (xt, _) = ring_data(100, 4);
        for i in 0..xt.n_rows() {
            assert_eq!(f1.score(xt.row(i)), f2.score(xt.row(i)));
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = ring_data(500, 5);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 1);
        for i in 0..x.n_rows() {
            let s = forest.score(x.row(i));
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn score_batch_matches_scalar_scores() {
        let (x, y) = ring_data(300, 6);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 2);
        let batch = forest.score_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, forest.score(x.row(i)));
        }
    }

    #[test]
    fn importances_normalize_and_find_signal() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut x = Matrix::new(3);
        let mut y = Vec::new();
        for _ in 0..1_000 {
            let row = [rng.next_f32(), rng.next_f32(), rng.next_f32()];
            y.push(row[1] > 0.6);
            x.push_row(&row);
        }
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 3);
        let imp = forest.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > 0.8, "importances {imp:?}");
    }

    #[test]
    fn frozen_forest_matches_live_scores_and_importances() {
        let (x, y) = ring_data(500, 11);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 5);
        let frozen = forest.freeze();
        assert_eq!(frozen.n_trees(), forest.n_trees());
        assert_eq!(frozen.importances(), &forest.importances()[..]);
        for i in 0..x.n_rows() {
            assert_eq!(
                frozen.score(x.row(i)).to_bits(),
                forest.score(x.row(i)).to_bits(),
                "row {i}"
            );
        }
        let batch = frozen.score_batch(&x);
        assert_eq!(batch, forest.score_batch(&x));
    }

    #[test]
    fn serde_round_trip_preserves_scores() {
        let (x, y) = ring_data(300, 10);
        let f = RandomForest::fit(&x, &y, &ForestConfig::default(), 4);
        let blob = serde_json::to_string(&f).unwrap();
        let g: RandomForest = serde_json::from_str(&blob).unwrap();
        for i in 0..50 {
            assert_eq!(f.score(x.row(i)), g.score(x.row(i)));
        }
    }

    #[test]
    fn more_trees_reduce_score_variance() {
        let (x, y) = ring_data(1_000, 9);
        let small = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 3,
                ..ForestConfig::default()
            },
            1,
        );
        let big = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 60,
                ..ForestConfig::default()
            },
            1,
        );
        assert_eq!(small.n_trees(), 3);
        assert_eq!(big.n_trees(), 60);
        // On boundary points the small forest's scores are coarse
        // (multiples of 1/3); the big forest's are finer.
        let s = big.score(&[0.63, 0.0]);
        assert!((0.0..=1.0).contains(&s));
    }
}
