//! Sequential Minimal Optimization for C-SVC.

use crate::kernel::Kernel;
use orfpred_util::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// SVM hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Penalty for positive-class violations (LIBSVM `C · w₊`).
    pub c_pos: f64,
    /// Penalty for negative-class violations.
    pub c_neg: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance (LIBSVM default 1e-3).
    pub tol: f64,
    /// Hard cap on SMO iterations.
    pub max_iter: usize,
    /// Kernel-row cache capacity (rows).
    pub cache_rows: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            c_pos: 1.0,
            c_neg: 1.0,
            kernel: Kernel::Rbf { gamma: 1.0 },
            tol: 1e-3,
            max_iter: 200_000,
            cache_rows: 1_024,
        }
    }
}

/// A trained C-SVC model (stores support vectors only).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Svm {
    support: Matrix,
    /// `αᵢ yᵢ` per support vector.
    alpha_y: Vec<f64>,
    bias: f64,
    kernel: Kernel,
    iterations: usize,
}

/// LRU-ish kernel row cache (simple generation-stamped map — eviction
/// quality matters less than avoiding the O(n²) matrix).
struct RowCache<'a> {
    x: &'a Matrix,
    kernel: Kernel,
    rows: HashMap<usize, (u64, Vec<f32>)>,
    clock: u64,
    capacity: usize,
}

impl<'a> RowCache<'a> {
    fn new(x: &'a Matrix, kernel: Kernel, capacity: usize) -> Self {
        Self {
            x,
            kernel,
            rows: HashMap::with_capacity(capacity.min(4_096)),
            clock: 0,
            capacity: capacity.max(2),
        }
    }

    /// Kernel row `K(i, ·)`; computed on a miss.
    fn row(&mut self, i: usize) -> &[f32] {
        self.clock += 1;
        let clock = self.clock;
        if self.rows.len() >= self.capacity && !self.rows.contains_key(&i) {
            // Evict the least recently used entry.
            if let Some((&victim, _)) = self.rows.iter().min_by_key(|(_, (t, _))| *t) {
                self.rows.remove(&victim);
            }
        }
        let x = self.x;
        let kernel = self.kernel;
        let entry = self.rows.entry(i).or_insert_with(|| {
            let xi = x.row(i);
            let row: Vec<f32> = x.rows().map(|xj| kernel.eval(xi, xj) as f32).collect();
            (clock, row)
        });
        entry.0 = clock;
        &entry.1
    }
}

impl Svm {
    /// Train on rows of `x` with boolean labels (`true` = positive class).
    ///
    /// Requires at least one sample of each class.
    pub fn fit(x: &Matrix, y: &[bool], cfg: &SvmConfig) -> Self {
        assert_eq!(x.n_rows(), y.len());
        let n = x.n_rows();
        assert!(
            y.iter().any(|&b| b) && y.iter().any(|&b| !b),
            "C-SVC needs both classes present"
        );
        let ys: Vec<f64> = y.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let cs: Vec<f64> = y
            .iter()
            .map(|&b| if b { cfg.c_pos } else { cfg.c_neg })
            .collect();
        let mut alpha = vec![0.0f64; n];
        // Gradient of the dual objective: G = Qα − e; starts at −e.
        let mut grad = vec![-1.0f64; n];
        let mut cache = RowCache::new(x, cfg.kernel, cfg.cache_rows);

        let mut iterations = 0usize;
        let bias;
        loop {
            // Working-set selection: maximal violating pair.
            // I_up:  α_i < C_i if y_i = +1, α_i > 0 if y_i = −1
            // I_low: α_i > 0 if y_i = +1, α_i < C_i if y_i = −1
            let mut i_up = usize::MAX;
            let mut m_up = f64::NEG_INFINITY; // max over I_up of −y G
            let mut i_low = usize::MAX;
            let mut m_low = f64::INFINITY; // min over I_low of −y G
            for t in 0..n {
                let yg = -ys[t] * grad[t];
                let in_up = (ys[t] > 0.0 && alpha[t] < cs[t]) || (ys[t] < 0.0 && alpha[t] > 0.0);
                let in_low = (ys[t] > 0.0 && alpha[t] > 0.0) || (ys[t] < 0.0 && alpha[t] < cs[t]);
                if in_up && yg > m_up {
                    m_up = yg;
                    i_up = t;
                }
                if in_low && yg < m_low {
                    m_low = yg;
                    i_low = t;
                }
            }
            if i_up == usize::MAX || i_low == usize::MAX || m_up - m_low < cfg.tol {
                bias = (m_up + m_low) / 2.0;
                break;
            }
            if iterations >= cfg.max_iter {
                bias = (m_up + m_low) / 2.0;
                break;
            }
            iterations += 1;

            let (i, j) = (i_up, i_low);
            let ki: Vec<f32> = cache.row(i).to_vec();
            let kj_jj = cache.row(j)[j];
            let kii = f64::from(ki[i]);
            let kjj = f64::from(kj_jj);
            let kij = f64::from(ki[j]);
            let eta = (kii + kjj - 2.0 * kij).max(1e-12);

            // Two-variable analytic step (equality constraint preserved).
            let yi = ys[i];
            let yj = ys[j];
            let delta = (m_up - m_low) / eta; // step along the violating direction
            let mut ai_new = alpha[i] + yi * delta;
            // Clip to the box, respecting yᵀα = const.
            let sum = yi * alpha[i] + yj * alpha[j];
            ai_new = ai_new.clamp(0.0, cs[i]);
            let mut aj_new = yj * (sum - yi * ai_new);
            if aj_new < 0.0 {
                aj_new = 0.0;
                ai_new = (yi * (sum - yj * aj_new)).clamp(0.0, cs[i]);
            } else if aj_new > cs[j] {
                aj_new = cs[j];
                ai_new = (yi * (sum - yj * aj_new)).clamp(0.0, cs[i]);
            }

            let dai = ai_new - alpha[i];
            let daj = aj_new - alpha[j];
            if dai.abs() < 1e-14 && daj.abs() < 1e-14 {
                // Numerically stuck; accept the current iterate.
                bias = (m_up + m_low) / 2.0;
                break;
            }
            alpha[i] = ai_new;
            alpha[j] = aj_new;

            // Gradient update: G_t += y_t y_i K_ti Δα_i + y_t y_j K_tj Δα_j.
            let kjrow: Vec<f32> = cache.row(j).to_vec();
            for (t, g) in grad.iter_mut().enumerate() {
                *g += ys[t] * (yi * dai * f64::from(ki[t]) + yj * daj * f64::from(kjrow[t]));
            }
        }

        // Keep support vectors only.
        let mut support = Matrix::new(x.n_cols());
        let mut alpha_y = Vec::new();
        for t in 0..n {
            if alpha[t] > 1e-12 {
                support.push_row(x.row(t));
                alpha_y.push(alpha[t] * ys[t]);
            }
        }
        Self {
            support,
            alpha_y,
            bias,
            kernel: cfg.kernel,
            iterations,
        }
    }

    /// Decision value `f(x) = Σ αᵢ yᵢ K(xᵢ, x) + b`; positive ⇒ positive
    /// class.
    pub fn decision(&self, row: &[f32]) -> f64 {
        let sum: f64 = self
            .alpha_y
            .iter()
            .enumerate()
            .map(|(t, &ay)| ay * self.kernel.eval(self.support.row(t), row))
            .sum();
        sum + self.bias
    }

    /// Decision values for many rows, one after another.
    pub fn decision_batch(&self, rows: &Matrix) -> Vec<f64> {
        rows.rows().map(|r| self.decision(r)).collect()
    }

    /// Hard prediction with a tunable offset (`thr = 0` is the SVM's own
    /// boundary; larger values trade FDR for fewer false alarms).
    pub fn predict(&self, row: &[f32], thr: f64) -> bool {
        self.decision(row) >= thr
    }

    /// Number of support vectors kept.
    pub fn n_support(&self) -> usize {
        self.alpha_y.len()
    }

    /// SMO iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_util::Xoshiro256pp;

    fn linear_data(n: usize, seed: u64, margin: f32) -> (Matrix, Vec<bool>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut x = Matrix::new(2);
        let mut y = Vec::new();
        for _ in 0..n {
            let pos = rng.bernoulli(0.5);
            let base = if pos { 1.0 + margin } else { -1.0 - margin };
            x.push_row(&[base + rng.next_f32() - 0.5, rng.next_f32() * 2.0 - 1.0]);
            y.push(pos);
        }
        (x, y)
    }

    #[test]
    fn separates_linear_data_with_linear_kernel() {
        let (x, y) = linear_data(200, 1, 0.5);
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            c_pos: 10.0,
            c_neg: 10.0,
            ..SvmConfig::default()
        };
        let svm = Svm::fit(&x, &y, &cfg);
        let errors = (0..x.n_rows())
            .filter(|&i| svm.predict(x.row(i), 0.0) != y[i])
            .count();
        assert_eq!(errors, 0, "separable data must be fit exactly");
        assert!(svm.n_support() < x.n_rows(), "solution should be sparse");
    }

    #[test]
    fn two_point_problem_has_midpoint_boundary() {
        let mut x = Matrix::new(1);
        x.push_row(&[0.0]);
        x.push_row(&[2.0]);
        let y = vec![false, true];
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            c_pos: 100.0,
            c_neg: 100.0,
            ..SvmConfig::default()
        };
        let svm = Svm::fit(&x, &y, &cfg);
        // Max-margin boundary is x = 1 → f(1) = 0, f(0) = −1, f(2) = +1.
        assert!(
            svm.decision(&[1.0]).abs() < 0.05,
            "f(1)={}",
            svm.decision(&[1.0])
        );
        assert!((svm.decision(&[2.0]) - 1.0).abs() < 0.05);
        assert!((svm.decision(&[0.0]) + 1.0).abs() < 0.05);
    }

    #[test]
    fn rbf_learns_ring() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut x = Matrix::new(2);
        let mut y = Vec::new();
        for _ in 0..400 {
            let a = rng.next_f32() * 2.0 - 1.0;
            let b = rng.next_f32() * 2.0 - 1.0;
            x.push_row(&[a, b]);
            y.push(a * a + b * b < 0.4);
        }
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 4.0 },
            c_pos: 10.0,
            c_neg: 10.0,
            ..SvmConfig::default()
        };
        let svm = Svm::fit(&x, &y, &cfg);
        let correct = (0..x.n_rows())
            .filter(|&i| svm.predict(x.row(i), 0.0) == y[i])
            .count();
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn class_weights_shift_the_boundary() {
        // Overlapping classes; upweighting positives should catch more of
        // them at threshold 0.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut x = Matrix::new(1);
        let mut y = Vec::new();
        for _ in 0..300 {
            let pos = rng.bernoulli(0.2);
            let v = if pos {
                rng.next_f32() * 2.0 // [0, 2)
            } else {
                rng.next_f32() * 2.0 - 1.0 // [-1, 1)
            };
            x.push_row(&[v]);
            y.push(pos);
        }
        let plain = Svm::fit(
            &x,
            &y,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..SvmConfig::default()
            },
        );
        let weighted = Svm::fit(
            &x,
            &y,
            &SvmConfig {
                kernel: Kernel::Linear,
                c_pos: 8.0,
                ..SvmConfig::default()
            },
        );
        let recall = |m: &Svm| {
            let tp = (0..x.n_rows())
                .filter(|&i| y[i] && m.predict(x.row(i), 0.0))
                .count();
            tp as f64 / y.iter().filter(|&&b| b).count() as f64
        };
        assert!(
            recall(&weighted) >= recall(&plain),
            "weighted recall {} < plain {}",
            recall(&weighted),
            recall(&plain)
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = linear_data(150, 9, 0.2);
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 1.0 },
            ..SvmConfig::default()
        };
        let a = Svm::fit(&x, &y, &cfg);
        let b = Svm::fit(&x, &y, &cfg);
        assert_eq!(a.n_support(), b.n_support());
        assert_eq!(a.decision(x.row(0)), b.decision(x.row(0)));
    }

    #[test]
    fn dual_feasibility_holds() {
        // yᵀα = 0 is implied by Σ αᵢyᵢ = −(sum of alpha_y) = 0.
        let (x, y) = linear_data(100, 11, 0.3);
        let svm = Svm::fit(
            &x,
            &y,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..SvmConfig::default()
            },
        );
        let sum: f64 = svm.alpha_y.iter().sum();
        assert!(sum.abs() < 1e-9, "equality constraint violated: {sum}");
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class_input() {
        let mut x = Matrix::new(1);
        x.push_row(&[0.0]);
        x.push_row(&[1.0]);
        Svm::fit(&x, &[true, true], &SvmConfig::default());
    }
}
