//! Dirty fleets through the preprocessing stage, end to end.
//!
//! The fleet simulator's corruption model (`smart::gen::corrupt_events`)
//! injects the faults real telemetry collectors produce — dropped days,
//! duplicated rows, stale re-deliveries, NaN and garbage attribute values,
//! stuck sensors, flipped failure tickets — and the `orfpred-prep` stage
//! must absorb them *deterministically*: the same dirty stream through the
//! serial predictor, a 1-shard engine, a multi-shard engine, and a
//! crash-recovered engine must produce bit-identical alarms and final
//! model state, with the repair counters accounting for every event.

use orfpred::core::OnlinePredictorConfig;
use orfpred::prep::PrepConfig;
use orfpred::serve::{Engine, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{
    corrupt_events, DirtyConfig, FleetConfig, FleetEvent, FleetSim, ScalePreset,
};
use orfpred_testkit::{
    compare_alarms, compare_final_state, serial_reference, Action, DriverConfig, FaultPlan,
};
use std::sync::Arc;

fn dirty_events(seed: u64, harsh: bool) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 40;
    cfg.n_failed = 8;
    cfg.duration_days = 120;
    let clean: Vec<FleetEvent> = FleetSim::new(&cfg).collect();
    let dirt = if harsh {
        DirtyConfig::harsh(seed ^ 0xd1)
    } else {
        DirtyConfig::mild(seed ^ 0xd1)
    };
    corrupt_events(&clean, &dirt)
}

fn prep_predictor_cfg() -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 9);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    cfg.alarm_threshold = 0.5;
    cfg.prep = Some(PrepConfig::tolerant());
    cfg
}

#[test]
fn dirty_stream_serial_and_sharded_agree_bit_exactly() {
    let events = dirty_events(4401, false);
    let actions: Vec<Action> = events.iter().cloned().map(Action::Event).collect();
    let (serial_alarms, serial_predictor) = serial_reference(&prep_predictor_cfg(), &actions);

    for n_shards in [1usize, 3] {
        let mut cfg = ServeConfig::new(prep_predictor_cfg());
        cfg.n_shards = n_shards;
        let engine = Engine::new(&cfg);
        for event in &events {
            engine.ingest(event.clone()).expect("engine accepts events");
        }
        engine.flush().expect("the writer applies every event");
        let counters = engine.stats().prep.expect("prep counters exposed");
        assert!(
            counters.any_repairs(),
            "a corrupted stream must trip at least one repair rule: {counters:?}"
        );
        assert!(
            counters.values_imputed > 0,
            "NaN/garbage clobbers must impute"
        );
        assert!(
            counters.duplicate_days + counters.out_of_order_days > 0,
            "duplicate/stale re-deliveries must be dropped"
        );
        let fin = engine.finish().expect("clean shutdown");
        compare_alarms(&serial_alarms, &fin.alarms)
            .unwrap_or_else(|e| panic!("{n_shards} shards: {e}"));
        compare_final_state(&serial_predictor, &fin.checkpoint)
            .unwrap_or_else(|e| panic!("{n_shards} shards: {e}"));
    }
}

#[test]
fn harsh_dirty_stream_still_matches_the_golden_trace() {
    let events = dirty_events(4402, true);
    let actions: Vec<Action> = events.iter().cloned().map(Action::Event).collect();
    let (serial_alarms, serial_predictor) = serial_reference(&prep_predictor_cfg(), &actions);
    assert!(
        !serial_alarms.is_empty(),
        "harsh corruption should not silence the whole alarm stream"
    );

    let mut cfg = ServeConfig::new(prep_predictor_cfg());
    cfg.n_shards = 4;
    let engine = Engine::new(&cfg);
    for event in &events {
        engine.ingest(event.clone()).expect("engine accepts events");
    }
    let fin = engine.finish().expect("clean shutdown");
    compare_alarms(&serial_alarms, &fin.alarms).unwrap();
    compare_final_state(&serial_predictor, &fin.checkpoint).unwrap();
}

#[test]
fn dirty_stream_recovers_identically_through_crashes_and_checkpoints() {
    // The full gauntlet: corrupted telemetry, a shard kill, a forced
    // process crash, checkpoint/restore across different shard counts —
    // the committed output must still equal the serial golden trace, and
    // the restored prep state must re-derive the identical repair
    // decisions on replay.
    let events = dirty_events(4403, false);
    let actions = orfpred_testkit::actions_with_checkpoints(events, 400);
    let (serial_alarms, serial_predictor) = serial_reference(&prep_predictor_cfg(), &actions);

    let workdir = std::env::temp_dir().join(format!("orfpred_fault_prep_{}", std::process::id()));
    let plan = Arc::new(FaultPlan::new());
    plan.kill_at(700);
    let mut driver_cfg = DriverConfig::new(prep_predictor_cfg(), workdir.clone());
    driver_cfg.shard_cycle = vec![2, 3, 1];
    driver_cfg.plan = Arc::clone(&plan);
    driver_cfg.crash_after = vec![900, 2000];

    let outcome = orfpred_testkit::run_faulted(&driver_cfg, &actions);
    std::fs::remove_dir_all(&workdir).ok();
    let outcome = outcome.expect("driver completes");

    assert!(outcome.recoveries >= 2, "crashes must force recoveries");
    assert!(outcome.checkpoints_taken > 0);
    compare_alarms(&serial_alarms, &outcome.alarms).unwrap();
    compare_final_state(&serial_predictor, &outcome.final_checkpoint).unwrap();
}
