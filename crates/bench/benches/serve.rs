//! Serving-engine benchmarks: end-to-end ingest throughput of the sharded
//! engine at 1, 2 and 4 shards (same event stream, same model — the shard
//! count is a pure deployment knob), plus the lock-free scoring fast path.
//! The end-to-end benchmark of the live `orfpredd` is `orfbench/` (see its README).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use orfpred_core::OnlinePredictorConfig;
use orfpred_serve::{Engine, ServeConfig};
use orfpred_smart::attrs::table2_feature_columns;
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use std::hint::black_box;

fn events() -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 11);
    cfg.duration_days = 150;
    FleetSim::new(&cfg).collect()
}

fn serve_cfg(n_shards: usize) -> ServeConfig {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), 5);
    p.orf.n_trees = 10;
    p.orf.min_parent_size = 30.0;
    p.orf.warmup_age = 10;
    p.orf.lambda_neg = 0.2;
    let mut cfg = ServeConfig::new(p);
    cfg.n_shards = n_shards;
    cfg
}

fn bench_ingest(c: &mut Criterion) {
    let stream = events();
    let mut group = c.benchmark_group("serve_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));
    for n_shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n_shards), &n_shards, |b, &n| {
            b.iter(|| {
                let engine = Engine::new(&serve_cfg(n));
                for e in &stream {
                    engine.ingest(e.clone()).unwrap();
                }
                engine.finish().unwrap().alarms.len()
            });
        });
    }
    group.finish();
}

fn bench_score(c: &mut Criterion) {
    // Train a model first, then hammer the lock-free scoring path.
    let stream = events();
    let engine = Engine::new(&serve_cfg(4));
    for e in &stream {
        engine.ingest(e.clone()).unwrap();
    }
    engine.flush();
    let row = [1.5f32; orfpred_smart::attrs::N_FEATURES];
    let mut group = c.benchmark_group("serve_score");
    group.throughput(Throughput::Elements(1));
    group.bench_function("snapshot_score", |b| {
        b.iter(|| engine.score(black_box(&row)));
    });
    group.finish();
    engine.finish().unwrap();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_score
);
criterion_main!(benches);
