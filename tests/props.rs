//! Cross-crate randomized property tests: invariants that must hold for
//! arbitrary inputs, not just the simulated fleets.
//!
//! Driven by the workspace's own deterministic [`Xoshiro256pp`] generator
//! rather than a property-testing framework (the build is hermetic), so
//! every case is reproducible from the fixed seeds below.

use orfpred::core::{OnlineLabeller, OnlineRandomForest, OrfConfig};
use orfpred::smart::csv::{civil_from_days, days_from_civil};
use orfpred::smart::scale::{MinMaxScaler, OnlineMinMax};
use orfpred::smart::select::rank_sum_test;
use orfpred::trees::gini::{split_gain, ClassCounts};
use orfpred::trees::{CartConfig, DecisionTree};
use orfpred::util::{Matrix, Xoshiro256pp};

/// Run `body` over `cases` deterministic random cases.
fn for_cases(cases: u64, mut body: impl FnMut(&mut Xoshiro256pp)) {
    for case in 0..cases {
        let mut rng = Xoshiro256pp::seed_from_u64(0x9E37_79B9 ^ case);
        body(&mut rng);
    }
}

#[test]
fn gini_bounds_and_gain_nonnegative() {
    for_cases(256, |rng| {
        let l = ClassCounts {
            neg: rng.range_f64(0.0, 1e4),
            pos: rng.range_f64(0.0, 1e4),
        };
        let r = ClassCounts {
            neg: rng.range_f64(0.0, 1e4),
            pos: rng.range_f64(0.0, 1e4),
        };
        let parent = l.merged(&r);
        assert!((0.0..=0.5 + 1e-12).contains(&parent.gini()));
        let g = split_gain(&l, &r);
        assert!(g >= 0.0);
        assert!(
            g <= parent.gini() + 1e-12,
            "gain can never exceed parent impurity"
        );
    });
}

#[test]
fn scaler_outputs_unit_interval_for_any_data() {
    for_cases(64, |rng| {
        let n_rows = 1 + rng.index(39);
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|_| (0..4).map(|_| rng.range_f32(-1e6, 1e6)).collect())
            .collect();
        let probe: Vec<f32> = (0..4).map(|_| rng.range_f32(-1e7, 1e7)).collect();
        let cols = [0usize, 1, 2, 3];
        let offline = MinMaxScaler::fit_log1p(rows.iter().map(|r| r.as_slice()), &cols);
        for v in offline.transform(&probe) {
            assert!((0.0..=1.0).contains(&v), "offline out of range: {v}");
        }
        let mut online = OnlineMinMax::new_log1p(&cols);
        for r in &rows {
            online.update(r);
        }
        for v in online.transform(&probe) {
            assert!((0.0..=1.0).contains(&v), "online out of range: {v}");
        }
    });
}

#[test]
fn rank_sum_p_value_is_a_probability() {
    for_cases(128, |rng| {
        let xs: Vec<f32> = (0..rng.index(80))
            .map(|_| rng.range_f32(-100.0, 100.0))
            .collect();
        let ys: Vec<f32> = (0..rng.index(80))
            .map(|_| rng.range_f32(-100.0, 100.0))
            .collect();
        let t = rank_sum_test(&xs, &ys);
        assert!((0.0..=1.0).contains(&t.p), "p = {}", t.p);
        assert!(t.z.is_finite());
    });
}

#[test]
fn cart_training_accuracy_is_high_on_separable_labels() {
    for_cases(48, |rng| {
        // Labels are a pure threshold function of feature 0 — a tree must
        // fit it (near-)perfectly.
        let n = 20 + rng.index(130);
        let mut x = Matrix::new(2);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.next_f32();
            x.push_row(&[a, rng.next_f32()]);
            y.push(a > 0.5);
        }
        let tree = DecisionTree::fit(&x, &y, &CartConfig::default(), rng);
        let errors = (0..n)
            .filter(|&i| tree.predict(x.row(i), 0.5) != y[i])
            .count();
        assert_eq!(errors, 0, "tree failed to separate a threshold function");
    });
}

#[test]
fn forest_scores_stay_in_unit_interval_under_any_stream() {
    for_cases(24, |rng| {
        let seed = rng.next_u64() % 500;
        let n_labels = 1 + rng.index(199);
        let cfg = OrfConfig {
            n_trees: 5,
            n_tests: 10,
            min_parent_size: 10.0,
            min_gain: 0.0,
            lambda_neg: 0.5,
            warmup_age: 0,
            ..OrfConfig::default()
        };
        let mut f = OnlineRandomForest::new(2, cfg, seed);
        let mut stream = Xoshiro256pp::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..n_labels {
            let positive = rng.bernoulli(0.5);
            f.update(&[stream.next_f32(), stream.next_f32()], positive);
        }
        for _ in 0..20 {
            let s = f.score(&[stream.next_f32(), stream.next_f32()]);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    });
}

#[test]
fn labeller_conservation() {
    for_cases(128, |rng| {
        // Every pushed sample is either released exactly once (negative on
        // age-out, positive on failure) or still pending at the end.
        let window = 1 + rng.index(9);
        let n_samples = rng.index(60) as u16;
        let fails = rng.bernoulli(0.5);
        let mut l = OnlineLabeller::new(window);
        let mut released = 0usize;
        for day in 0..n_samples {
            if l.observe_sample(1, day, &[f32::from(day)]).is_some() {
                released += 1;
            }
        }
        let flushed = if fails { l.observe_failure(1).len() } else { 0 };
        let pending = l.n_pending();
        assert_eq!(
            released + flushed + if fails { 0 } else { pending },
            n_samples as usize,
            "conservation violated"
        );
        if fails {
            assert_eq!(pending, 0);
            assert!(flushed <= window);
        } else {
            assert!(pending <= window);
        }
    });
}

#[test]
fn civil_date_round_trips_for_any_day() {
    for_cases(512, |rng| {
        // Days 1970..~2517 round-trip through the civil-date conversion.
        let offset = rng.next_below(200_000) as i64;
        let (y, m, d) = civil_from_days(offset);
        assert_eq!(days_from_civil(y, m, d), offset);
        assert!((1..=12).contains(&m));
        assert!((1..=31).contains(&d));
    });
}

#[test]
fn poisson_bagging_respects_zero_lambda() {
    for_cases(32, |rng| {
        // λn = 0 ⇒ negatives never update a tree; the forest stays empty.
        let seed = rng.next_u64() % 100;
        let n = 1 + rng.index(99);
        let cfg = OrfConfig {
            n_trees: 3,
            n_tests: 5,
            lambda_neg: 0.0,
            warmup_age: 0,
            ..OrfConfig::default()
        };
        let mut f = OnlineRandomForest::new(1, cfg, seed);
        for i in 0..n {
            f.update(&[i as f32 / n as f32], false);
        }
        let ages: u64 = f.tree_stats().iter().map(|(a, _, _)| a).sum();
        assert_eq!(ages, 0, "no negative may enter a tree at λn = 0");
    });
}
