//! Level-order batch kernels ≡ frozen single-row walk ≡ live walkers, as a
//! seeded shrinking property over random forests, adversarial batch shapes
//! (0, 1, lane−1, lane, lane+1, non-multiples of the lane width), hostile
//! feature values (NaN, ±∞, far out of the trained range), worker counts,
//! and mid-stream ORF freezes.
//!
//! Every comparison is bitwise: the interleaved breadth-first kernels must
//! be indistinguishable from the live tree walks they replace, not merely
//! close. Override the seed set with `TESTKIT_SEEDS=1,2,3 cargo test`.

use orfpred::core::{OnlineRandomForest, OrfConfig};
use orfpred::trees::level::LANES;
use orfpred::trees::{CartConfig, DecisionTree, ForestConfig, FrozenForest, RandomForest};
use orfpred::util::{Matrix, Xoshiro256pp};
use orfpred_testkit::{check_shrinking, default_seeds, seeds_from_env};

/// The adversarial batch shapes: empty, single row, one short of a full
/// lane block, exactly one block, one over, and a non-multiple well past
/// the threading cut-offs for small batches.
fn batch_sizes() -> [usize; 6] {
    [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5]
}

/// Random rows salted with hostile values: NaN (must route right at every
/// split, like the live walkers), infinities, and magnitudes far outside
/// the trained [0, 1] range.
fn hostile_rows(n: usize, n_features: usize, rng: &mut Xoshiro256pp) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..n_features)
                .map(|_| match rng.index(10) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => rng.range_f32(-1e6, 1e6),
                    _ => rng.range_f32(-0.2, 1.2),
                })
                .collect()
        })
        .collect()
}

/// Drive one frozen forest (and the live model behind it) through every
/// batch path at every adversarial shape, comparing bits throughout.
fn check_batch_paths(
    what: &str,
    frozen: &FrozenForest,
    live: &dyn Fn(&[f32]) -> f32,
    n_features: usize,
    rng: &mut Xoshiro256pp,
) -> Result<(), String> {
    for n in batch_sizes() {
        let probes = hostile_rows(n, n_features, rng);
        let rows: Vec<&[f32]> = probes.iter().map(|p| p.as_slice()).collect();

        // Reference: live walk and frozen single-row, which must already
        // agree (frozen_equiv covers that; re-checked here because hostile
        // values never reach that suite's probe generator).
        let want: Vec<u32> = probes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let l = live(p);
                let f = frozen.score(p);
                if l.to_bits() != f.to_bits() {
                    return Err(format!("{what}: n={n} row {i}: frozen {f} != live {l}"));
                }
                Ok(l.to_bits())
            })
            .collect::<Result<_, String>>()?;

        let check = |path: &str, got: &[f32]| -> Result<(), String> {
            if got.len() != n {
                return Err(format!("{what}: n={n} {path}: {} scores", got.len()));
            }
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                if g.to_bits() != w {
                    return Err(format!(
                        "{what}: n={n} {path} row {i}: {g} (bits {:#x}) != live (bits {w:#x})",
                        g.to_bits()
                    ));
                }
            }
            Ok(())
        };

        // Interleaved row kernel, auto-threaded surface and pinned workers
        // (1 = serial, several = chunked; counts above the chunk limit
        // exercise the clamp).
        check("score_rows", &frozen.score_rows(&rows))?;
        for workers in [1usize, 2, 3, 7] {
            check(
                &format!("score_rows_threaded({workers})"),
                &frozen.score_rows_threaded(&rows, workers),
            )?;
        }
    }
    Ok(())
}

#[test]
fn offline_forests_batch_bit_identical_at_every_shape() {
    check_shrinking(
        "batch ≡ live (CART/RF)",
        &seeds_from_env(&default_seeds(7100, 5)),
        50,
        |seed, size| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let n_features = 2 + rng.index(5);
            let n = 30 + 12 * size as usize;
            let mut x = Matrix::new(n_features);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let row: Vec<f32> = (0..n_features).map(|_| rng.next_f32()).collect();
                y.push(row[0] > 0.5 || rng.bernoulli(0.1));
                x.push_row(&row);
            }

            let tree = DecisionTree::fit(&x, &y, &CartConfig::default(), &mut rng);
            check_batch_paths(
                "CART",
                &tree.freeze(),
                &|p| tree.score(p),
                n_features,
                &mut rng,
            )?;

            let cfg = ForestConfig {
                n_trees: 3 + rng.index(6),
                ..ForestConfig::default()
            };
            let rf = RandomForest::fit(&x, &y, &cfg, rng.next_u64());
            check_batch_paths("RF", &rf.freeze(), &|p| rf.score(p), n_features, &mut rng)
        },
    );
}

#[test]
fn orf_mid_stream_freezes_batch_bit_identical() {
    check_shrinking(
        "batch ≡ live (ORF mid-stream)",
        &seeds_from_env(&default_seeds(7200, 5)),
        40,
        |seed, size| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let n_features = 2 + rng.index(4);
            let n = 60 * size as usize + 20;
            let cfg = OrfConfig {
                n_trees: 4 + rng.index(6),
                n_tests: 10 + rng.index(20),
                min_parent_size: 8.0 + rng.index(16) as f64,
                min_gain: 0.0,
                lambda_neg: 0.5,
                // High enough that the earliest freeze happens before any
                // tree matures, covering the all-slots pool fallback.
                warmup_age: 25,
                ..OrfConfig::default()
            };
            let mut forest = OnlineRandomForest::new(n_features, cfg, seed ^ 0xBA7C);

            let checkpoints = [n / 10, n / 2, n];
            let mut fed = 0usize;
            for (c, &stop) in checkpoints.iter().enumerate() {
                while fed < stop {
                    let x: Vec<f32> = (0..n_features).map(|_| rng.next_f32()).collect();
                    let y = rng.bernoulli(0.3) && x[0] > 0.45;
                    forest.update(&x, y);
                    fed += 1;
                }
                let frozen = forest.freeze();
                check_batch_paths(
                    &format!("ORF checkpoint {c} ({fed} samples)"),
                    &frozen,
                    &|p| forest.score(p),
                    n_features,
                    &mut rng,
                )?;
            }
            Ok(())
        },
    );
}
