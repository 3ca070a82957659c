//! Checkpoint/restore round-trip: interrupting a serving run and resuming
//! from the checkpoint must produce the same alarms and the same final
//! state as never having stopped.
//!
//! The checkpoint barrier consumes one global sequence number in *both*
//! runs (the uninterrupted run also calls `checkpoint`), so the restored
//! engine resumes at exactly the sequence position the uninterrupted run
//! is at after its own checkpoint — which is what makes the two final
//! states byte-identical rather than merely statistically similar.

use orfpred::core::OnlinePredictorConfig;
use orfpred::serve::{Checkpoint, Engine, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 30;
    cfg.n_failed = 6;
    cfg.duration_days = 100;
    FleetSim::new(&cfg).collect()
}

fn serve_cfg(n_shards: usize) -> ServeConfig {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), 9);
    p.orf.n_trees = 8;
    p.orf.min_parent_size = 30.0;
    p.orf.warmup_age = 10;
    p.orf.lambda_neg = 0.2;
    let mut cfg = ServeConfig::new(p);
    cfg.n_shards = n_shards;
    cfg
}

fn checkpoint_bytes(ck: &Checkpoint) -> String {
    serde_json::to_string(ck).expect("checkpoint serializes")
}

/// Serve `events` twice, both runs taking a checkpoint barrier after the
/// first `cut` events: run A straight through, run B restored from its
/// checkpoint file (at another shard count) for the tail. Both must raise
/// the same alarms and end on the same checkpoint bytes.
fn assert_restore_matches_uninterrupted(events: &[FleetEvent], cut: usize, tag: &str) {
    let tmp = std::env::temp_dir();
    let ck_a = tmp.join(format!("orfpred_restore_test_{tag}_uninterrupted.json"));
    let ck_b = tmp.join(format!("orfpred_restore_test_{tag}_interrupted.json"));

    // Run A: straight through, with a checkpoint call at the cut (the
    // barrier consumes a sequence number, matching run B's cut).
    let engine_a = Engine::new(&serve_cfg(4));
    for e in &events[..cut] {
        engine_a.ingest(e.clone()).unwrap();
    }
    engine_a.checkpoint(&ck_a).unwrap();
    for e in &events[cut..] {
        engine_a.ingest(e.clone()).unwrap();
    }
    let fin_a = engine_a.finish().unwrap();
    assert!(
        !fin_a.alarms.is_empty(),
        "stream must raise alarms for the comparison to mean anything"
    );

    // Run B: same head, checkpoint, then the process "crashes" (the engine
    // is dropped). A fresh engine restores from the file — at a different
    // shard count, which must not matter — and serves the tail.
    let engine_b1 = Engine::new(&serve_cfg(4));
    for e in &events[..cut] {
        engine_b1.ingest(e.clone()).unwrap();
    }
    engine_b1.checkpoint(&ck_b).unwrap();
    let mut alarms_b = engine_b1.take_alarms();
    drop(engine_b1); // crash: whatever was in flight after the barrier is lost

    let restored = Checkpoint::load(&ck_b).unwrap();
    let engine_b2 = Engine::restore(&serve_cfg(2), restored);
    for e in &events[cut..] {
        engine_b2.ingest(e.clone()).unwrap();
    }
    let fin_b = engine_b2.finish().unwrap();
    alarms_b.extend(fin_b.alarms);

    assert_eq!(fin_a.alarms, alarms_b, "alarm streams diverged");
    assert_eq!(
        checkpoint_bytes(&fin_a.checkpoint),
        checkpoint_bytes(&fin_b.checkpoint),
        "final serving state diverged"
    );

    std::fs::remove_file(&ck_a).ok();
    std::fs::remove_file(&ck_b).ok();
}

#[test]
fn restore_mid_stream_replays_identically() {
    let events = fleet_events(2208);
    assert_restore_matches_uninterrupted(&events, events.len() / 2, "mid");
}

#[test]
fn a_checkpoint_taken_before_the_first_event_restores_a_live_scaler() {
    // The fresh scaler's ±∞ bounds are saved as null and read back as NaN;
    // the restored engine must still widen them on its first sample.
    let events = fleet_events(2208);
    assert_restore_matches_uninterrupted(&events, 0, "empty");
}

#[test]
fn checkpoint_file_is_a_loadable_consistent_cut() {
    let events = fleet_events(2209);
    let tmp = std::env::temp_dir().join("orfpred_restore_test_cut.json");
    let engine = Engine::new(&serve_cfg(3));
    let n = events.len() * 2 / 3;
    let mut samples = 0u64;
    for e in &events[..n] {
        if matches!(e, FleetEvent::Sample(_)) {
            samples += 1;
        }
        engine.ingest(e.clone()).unwrap();
    }
    engine.checkpoint(&tmp).unwrap();
    let Checkpoint::Online {
        labeller,
        next_seq,
        version,
        alarm_threshold,
        ..
    } = Checkpoint::load(&tmp).unwrap();
    assert_eq!(version, Some(orfpred::serve::CHECKPOINT_VERSION));
    assert_eq!(alarm_threshold, Some(0.5));
    // The barrier sits after the n ingested events: seq n is the barrier
    // itself, so the restored stream resumes at n + 1.
    assert_eq!(next_seq, Some(n as u64 + 1));
    let labeller = labeller.expect("v2 checkpoints carry the labeller");
    assert!(
        labeller.n_pending() > 0 && (labeller.n_pending() as u64) <= samples,
        "queues hold a plausible slice of the in-window samples"
    );
    engine.finish().unwrap();
    std::fs::remove_file(&tmp).ok();
}
