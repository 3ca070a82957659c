//! Scoring-path micro-benchmarks: the live ORF tree walk (pointer-chasing
//! through slot pools and enum nodes), the frozen forest's single-row walk
//! over its breadth-first arrays, and the interleaved lane kernels over the
//! same arrays — per-thread (pinned to 1 worker) and total (pinned to the
//! host's core count) throughput reported separately, so a constrained host
//! cannot masquerade serial numbers as parallel ones (`BENCH_score.json`
//! records the trajectory and the core count).
//!
//! The forest is paper-scale: 30 trees warmed on 8k samples of a thinned
//! disk stream, exactly like `orf.rs`'s prediction bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orfpred_core::{OnlineRandomForest, OrfConfig};
use orfpred_util::Xoshiro256pp;
use std::hint::black_box;

const N_FEATURES: usize = 8;
const N_PROBES: usize = 1_000;

fn stream(n: usize, seed: u64) -> Vec<([f32; N_FEATURES], bool)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut x = [0.0f32; N_FEATURES];
            for v in &mut x {
                *v = rng.next_f32();
            }
            let pos = rng.bernoulli(0.03) && x[0] > 0.4;
            (x, pos)
        })
        .collect()
}

fn warmed_forest() -> OnlineRandomForest {
    let cfg = OrfConfig {
        n_trees: 30,
        n_tests: 200,
        min_parent_size: 100.0,
        min_gain: 0.01,
        lambda_neg: 0.05,
        ..OrfConfig::default()
    };
    let mut f = OnlineRandomForest::new(N_FEATURES, cfg, 7);
    for (x, y) in stream(8_000, 1) {
        f.update(&x, y);
    }
    f
}

fn bench_score(c: &mut Criterion) {
    let forest = warmed_forest();
    let frozen = forest.freeze();
    let probes = stream(N_PROBES, 4);
    let rows: Vec<&[f32]> = probes.iter().map(|(x, _)| x.as_slice()).collect();
    // Pinned worker counts: 1 for per-thread numbers, the core count for
    // totals — recorded in BENCH_score.json, never inferred from batch size.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    eprintln!("score bench: host cores = {cores} (frozen_batch_bf_mt pins this count)");

    let mut group = c.benchmark_group("score");
    group.throughput(Throughput::Elements(probes.len() as u64));

    // Walk every live tree's enum nodes: what the serve writer does for the
    // alarm score of each arriving sample.
    group.bench_function("live_walk_1k_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for (x, _) in &probes {
                acc += forest.score(black_box(x));
            }
            acc
        });
    });

    // Frozen single-row walk, one row at a time — same call shape as the
    // live walk; `score` requests against a published snapshot take it.
    group.bench_function("frozen_single_1k_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for (x, _) in &probes {
                acc += frozen.score(black_box(x));
            }
            acc
        });
    });

    // Level-order interleaved kernel, pinned to ONE worker: per-thread
    // throughput, comparable across hosts of any width.
    group.bench_function("frozen_batch_bf_1t_1k_rows", |b| {
        b.iter(|| frozen.score_rows_threaded(black_box(&rows), 1).len());
    });

    // Same kernel pinned to the core count: total machine throughput
    // (identical to _1t on a single-core host — the JSON notes the count).
    group.bench_function("frozen_batch_bf_mt_1k_rows", |b| {
        b.iter(|| frozen.score_rows_threaded(black_box(&rows), cores).len());
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_score
);
criterion_main!(benches);
