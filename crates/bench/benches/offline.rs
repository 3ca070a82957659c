//! Offline baseline benchmarks: CART / best-first DT / Random Forest
//! training and batch scoring (trees are fit and scored one after another).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use orfpred_trees::{CartConfig, DecisionTree, ForestConfig, RandomForest};
use orfpred_util::{Matrix, Xoshiro256pp};
use std::hint::black_box;

fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<bool>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut x = Matrix::new(d);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0f32; d];
    for _ in 0..n {
        for v in &mut row {
            *v = rng.next_f32();
        }
        // Nonlinear label over two features + noise.
        let score = row[0] * row[0] + row[1];
        y.push(score > 0.8 && rng.bernoulli(0.9));
        x.push_row(&row);
    }
    (x, y)
}

fn bench_cart(c: &mut Criterion) {
    let mut group = c.benchmark_group("cart_fit");
    for &n in &[1_000usize, 5_000] {
        let (x, y) = dataset(n, 19, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("full_tree", n), &n, |b, _| {
            let mut rng = Xoshiro256pp::seed_from_u64(2);
            b.iter(|| DecisionTree::fit(black_box(&x), &y, &CartConfig::default(), &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("capped_100_splits", n), &n, |b, _| {
            let cfg = CartConfig {
                max_splits: Some(100),
                ..CartConfig::default()
            };
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            b.iter(|| DecisionTree::fit(black_box(&x), &y, &cfg, &mut rng));
        });
    }
    group.finish();
}

fn bench_forest_fit(c: &mut Criterion) {
    let (x, y) = dataset(4_000, 19, 4);
    let mut group = c.benchmark_group("rf_fit_30_trees");
    group.throughput(Throughput::Elements(x.n_rows() as u64));
    group.bench_function("4k_rows", |b| {
        b.iter(|| RandomForest::fit(black_box(&x), &y, &ForestConfig::default(), 7));
    });
    group.finish();
}

fn bench_forest_score(c: &mut Criterion) {
    let (x, y) = dataset(4_000, 19, 5);
    let forest = RandomForest::fit(&x, &y, &ForestConfig::default(), 8);
    let (probes, _) = dataset(10_000, 19, 6);
    let mut group = c.benchmark_group("rf_score");
    group.throughput(Throughput::Elements(probes.n_rows() as u64));
    group.bench_function("batch_10k", |b| {
        b.iter(|| forest.score_batch(black_box(&probes)));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cart, bench_forest_fit, bench_forest_score
);
criterion_main!(benches);
