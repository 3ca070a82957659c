//! Drive the sharded serving engine two ways: through the line-delimited
//! JSON protocol (the `orfpredd` loop, run in-process with one tenant, as
//! the daemon does without `--tenant`) and through the in-process
//! [`Engine`] API, showing checkpoint/restore and the live counters along
//! the way.
//!
//! ```sh
//! cargo run --release --example serve_stream
//! ```

use orfpred::core::OnlinePredictorConfig;
use orfpred::fleet::{run, FleetDaemonConfig, TenantConfig};
use orfpred::serve::{Checkpoint, Engine, Request, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use std::io::Cursor;

fn serve_cfg(n_shards: usize) -> ServeConfig {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), 7);
    p.alarm_threshold = 0.85;
    p.orf.n_trees = 20;
    p.orf.n_tests = 200;
    let mut cfg = ServeConfig::new(p);
    cfg.n_shards = n_shards;
    cfg
}

fn fleet() -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 2024);
    cfg.duration_days = 150;
    FleetSim::new(&cfg).collect()
}

/// Render a fleet event as a protocol request line.
fn to_request(event: &FleetEvent) -> Request {
    match event {
        FleetEvent::Sample(rec) => Request::Sample {
            disk_id: rec.disk_id,
            day: rec.day,
            features: rec.features.to_vec(),
        },
        FleetEvent::Failure { disk_id, day } => Request::Failure {
            disk_id: *disk_id,
            day: *day,
        },
    }
}

fn main() {
    let events = fleet();
    println!("fleet stream: {} events", events.len());

    // --- 1. The wire protocol, exactly as a monitoring agent would use it.
    let mut script = String::new();
    for event in &events {
        script.push_str(&to_request(event).to_line());
        script.push('\n');
    }
    script.push_str(&Request::Stats.to_line());
    script.push('\n');
    script.push_str(&Request::Shutdown.to_line());
    script.push('\n');

    let cfg = FleetDaemonConfig::new(vec![TenantConfig {
        name: "default".into(),
        serve: serve_cfg(4),
        checkpoint_path: None,
        catchup_store: None,
    }]);
    let mut transcript = Vec::new();
    let finished = run(&cfg, Cursor::new(script), &mut transcript)
        .expect("daemon run succeeds")
        .remove(0);
    let transcript = String::from_utf8(transcript).unwrap();
    let alarm_lines = transcript
        .lines()
        .filter(|l| l.contains("\"type\":\"alarm\""))
        .count();
    println!("\n== protocol run (4 shards) ==");
    println!("daemon emitted {alarm_lines} alarm lines; sample output:");
    for line in transcript.lines().take(3) {
        println!("  {line}");
    }
    if let Some(stats) = transcript
        .lines()
        .find(|l| l.contains("\"type\":\"stats\""))
    {
        println!("  {stats}");
    }

    // --- 2. The in-process API with a mid-stream checkpoint + restore.
    println!("\n== engine API run with checkpoint/restore ==");
    let ckpt = std::env::temp_dir().join("orfpred_serve_stream_example.json");
    let half = events.len() / 2;

    let engine = Engine::new(&serve_cfg(4));
    for e in &events[..half] {
        engine.ingest(e.clone()).unwrap();
    }
    engine.checkpoint(&ckpt).unwrap();
    let mut alarms = engine.take_alarms();
    println!(
        "first half: {} alarms, checkpoint written to {}",
        alarms.len(),
        ckpt.display()
    );
    drop(engine); // simulate a crash — in-flight state past the barrier is lost

    let restored = Engine::restore(&serve_cfg(2), Checkpoint::load(&ckpt).unwrap());
    for e in &events[half..] {
        restored.ingest(e.clone()).unwrap();
    }
    let stats = restored.stats();
    let fin = restored.finish().unwrap();
    alarms.extend(fin.alarms);
    println!(
        "resumed on 2 shards: {} alarms total, {} forest samples, \
         score p99 ≈ {} ns over {} measured scores",
        alarms.len(),
        stats.forest_samples_seen,
        stats.score_latency_p99_ns,
        stats.scores_measured
    );

    // The combined alarm stream equals the protocol run's: same model, same
    // events, different deployment shape.
    assert_eq!(
        finished.alarms, alarms,
        "protocol and API runs must agree exactly"
    );
    println!("protocol run and checkpoint/restore run raised identical alarms ✓");
    std::fs::remove_file(&ckpt).ok();
}
