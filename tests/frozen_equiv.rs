//! Frozen ≡ live scoring equivalence, as a seeded shrinking property: for
//! any random stream or training set, `freeze()` must produce bit-identical
//! scores and importances to the live model it compiled — including frozen
//! snapshots taken mid-stream from a partially grown online forest, where
//! the mature-pool fallback (no tree past `warmup_age` yet) is exercised.
//!
//! Override the seed set with `TESTKIT_SEEDS=1,2,3 cargo test`.

use orfpred::core::{OnlineRandomForest, OrfConfig};
use orfpred::trees::{CartConfig, DecisionTree, ForestConfig, FrozenForest, RandomForest};
use orfpred::util::{Matrix, Xoshiro256pp};
use orfpred_testkit::{check_shrinking, default_seeds, seeds_from_env};

/// Compare one frozen snapshot against a live scoring closure, bit for bit,
/// on `n_probes` random rows — single-row and batch kernels both.
fn assert_bit_identical(
    what: &str,
    frozen: &FrozenForest,
    live: &dyn Fn(&[f32]) -> f32,
    n_features: usize,
    n_probes: usize,
    rng: &mut Xoshiro256pp,
) -> Result<(), String> {
    let probes: Vec<Vec<f32>> = (0..n_probes)
        .map(|_| (0..n_features).map(|_| rng.range_f32(-0.2, 1.2)).collect())
        .collect();
    let rows: Vec<&[f32]> = probes.iter().map(|p| p.as_slice()).collect();
    let batch = frozen.score_rows(&rows);
    for (i, p) in probes.iter().enumerate() {
        let want = live(p);
        let got = frozen.score(p);
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "{what}: probe {i}: frozen {got} != live {want} (bits {:#x} vs {:#x})",
                got.to_bits(),
                want.to_bits()
            ));
        }
        if batch[i].to_bits() != want.to_bits() {
            return Err(format!(
                "{what}: probe {i}: batch {} != live {want}",
                batch[i]
            ));
        }
    }
    Ok(())
}

fn importances_match(what: &str, frozen: &FrozenForest, live: &[f64]) -> Result<(), String> {
    if frozen.importances() != live {
        return Err(format!("{what}: frozen importances diverge from live"));
    }
    Ok(())
}

#[test]
fn orf_freeze_is_bit_identical_at_every_growth_stage() {
    check_shrinking(
        "ORF frozen ≡ live",
        &seeds_from_env(&default_seeds(2100, 5)),
        60,
        |seed, size| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let n_features = 2 + rng.index(4);
            let n = 40 * size as usize;
            let cfg = OrfConfig {
                n_trees: 4 + rng.index(8),
                n_tests: 10 + rng.index(30),
                min_parent_size: 8.0 + rng.index(20) as f64,
                min_gain: 0.0,
                lambda_neg: 0.5,
                // High enough that the earliest freeze below happens before
                // any tree matures — covering the all-slots fallback.
                warmup_age: 25,
                ..OrfConfig::default()
            };
            let mut forest = OnlineRandomForest::new(n_features, cfg, seed ^ 0x5EED);

            // Freeze at several growth stages, including very early
            // (partially grown, typically no mature tree) and the end.
            let checkpoints = [n / 20, n / 3, n];
            let mut fed = 0usize;
            for (c, &stop) in checkpoints.iter().enumerate() {
                while fed < stop {
                    let x: Vec<f32> = (0..n_features).map(|_| rng.next_f32()).collect();
                    let y = rng.bernoulli(0.3) && x[0] > 0.45;
                    forest.update(&x, y);
                    fed += 1;
                }
                let frozen = forest.freeze();
                let what = format!("ORF checkpoint {c} ({fed} samples)");
                assert_bit_identical(
                    &what,
                    &frozen,
                    &|p| forest.score(p),
                    n_features,
                    40,
                    &mut rng,
                )?;
                importances_match(&what, &frozen, &forest.importances())?;
            }
            Ok(())
        },
    );
}

#[test]
fn cart_and_rf_freeze_are_bit_identical() {
    check_shrinking(
        "CART/RF frozen ≡ live",
        &seeds_from_env(&default_seeds(2200, 5)),
        60,
        |seed, size| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let n_features = 2 + rng.index(5);
            let n = 30 + 10 * size as usize;
            let mut x = Matrix::new(n_features);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let row: Vec<f32> = (0..n_features).map(|_| rng.next_f32()).collect();
                // Noisy threshold labels so trees grow real structure.
                y.push(row[0] > 0.5 || rng.bernoulli(0.1));
                x.push_row(&row);
            }

            let tree = DecisionTree::fit(&x, &y, &CartConfig::default(), &mut rng);
            let frozen_tree = tree.freeze();
            assert_bit_identical(
                "CART",
                &frozen_tree,
                &|p| tree.score(p),
                n_features,
                40,
                &mut rng,
            )?;

            let cfg = ForestConfig {
                n_trees: 3 + rng.index(6),
                ..ForestConfig::default()
            };
            let rf = RandomForest::fit(&x, &y, &cfg, rng.next_u64());
            let frozen_rf = rf.freeze();
            assert_bit_identical("RF", &frozen_rf, &|p| rf.score(p), n_features, 40, &mut rng)?;
            importances_match("RF", &frozen_rf, &rf.importances())?;
            Ok(())
        },
    );
}
