//! ORF micro-benchmarks: per-sample update cost, batch-update cost,
//! prediction latency, and the `n_tests` memory/CPU knob. Both update
//! cases run one loop, `update_batch`: `update` is a batch of one, and a
//! long batch runs tree by tree, keeping one tree's test pools in cache.
//! The per-tree RNG streams behind the "training and testing procedures
//! can be easily parallelized" claim of §3.2 make both orders give the
//! same bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use orfpred_core::{OnlineRandomForest, OrfConfig};
use orfpred_util::Xoshiro256pp;
use std::hint::black_box;

fn stream(n: usize, seed: u64) -> Vec<([f32; 8], bool)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut x = [0.0f32; 8];
            for v in &mut x {
                *v = rng.next_f32();
            }
            // ~3% positives, like a thinned disk stream.
            let pos = rng.bernoulli(0.03) && x[0] > 0.4;
            (x, pos)
        })
        .collect()
}

fn cfg(n_tests: usize) -> OrfConfig {
    OrfConfig {
        n_trees: 30,
        n_tests,
        min_parent_size: 100.0,
        min_gain: 0.01,
        lambda_neg: 0.05,
        ..OrfConfig::default()
    }
}

fn warmed_forest(n_tests: usize) -> OnlineRandomForest {
    let mut f = OnlineRandomForest::new(8, cfg(n_tests), 7);
    for (x, y) in stream(8_000, 1) {
        f.update(&x, y);
    }
    f
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("orf_update");
    let data = stream(3_000, 2);
    for &n_tests in &[50usize, 500] {
        group.throughput(Throughput::Elements(data.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("serial_samples", n_tests),
            &n_tests,
            |b, &n_tests| {
                b.iter(|| {
                    let mut f = warmed_forest(n_tests);
                    for (x, y) in &data {
                        f.update(black_box(x), *y);
                    }
                    f.samples_seen()
                });
            },
        );
    }
    group.finish();
}

fn bench_update_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("orf_batch_update");
    let data = stream(5_000, 3);
    let batch: Vec<(&[f32], bool)> = data.iter().map(|(x, y)| (x.as_slice(), *y)).collect();
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("5k_samples", |b| {
        b.iter(|| {
            let mut f = warmed_forest(200);
            f.update_batch(black_box(&batch));
            f.samples_seen()
        });
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let forest = warmed_forest(200);
    let probes = stream(1_000, 4);
    let mut group = c.benchmark_group("orf_predict");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("score_1k_samples", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for (x, _) in &probes {
                acc += forest.score(black_box(x));
            }
            acc
        });
    });
    group.finish();
}

fn bench_tree_replacement(c: &mut Criterion) {
    // Concept flip forces OOBE-driven replacement; measures the unlearning
    // machinery end to end.
    c.bench_function("orf_drift_adaptation_4k_samples", |b| {
        let cfg = OrfConfig {
            n_trees: 10,
            n_tests: 50,
            min_parent_size: 30.0,
            min_gain: 0.01,
            lambda_neg: 1.0,
            age_threshold: 200,
            oobe_threshold: 0.35,
            oobe_alpha: 0.02,
            ..OrfConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let phase1: Vec<(f32, bool)> = (0..2_000)
            .map(|_| {
                let v = rng.next_f32();
                (v, v > 0.5)
            })
            .collect();
        let phase2: Vec<(f32, bool)> = (0..2_000)
            .map(|_| {
                let v = rng.next_f32();
                (v, v <= 0.5)
            })
            .collect();
        b.iter(|| {
            let mut f = OnlineRandomForest::new(1, cfg.clone(), 11);
            for &(v, y) in phase1.iter().chain(&phase2) {
                f.update(&[v], y);
            }
            f.trees_replaced()
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_update, bench_update_batch, bench_predict, bench_tree_replacement
);
criterion_main!(benches);
