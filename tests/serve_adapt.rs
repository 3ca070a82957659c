//! Drift-triggered closed-loop adaptation, live: the serving engine running
//! a long-term update policy must be bit-equivalent to the serial predictor
//! with the same policy armed — and both must land on the exact model state
//! the offline `eval::longterm::run_closed_loop` reference computes, so the
//! offline strategy series *is* the live deployment's series.

use orfpred::core::{AdaptConfig, OnlinePredictor, OnlinePredictorConfig, UpdatePolicy};
use orfpred::eval::longterm::{run_closed_loop, LongtermConfig};
use orfpred::serve::{Engine, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred::util::Xoshiro256pp;
use orfpred_testkit::compare_final_state;

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 40;
    cfg.n_failed = 8;
    cfg.duration_days = 150;
    FleetSim::new(&cfg).collect()
}

fn adaptive_cfg(policy: UpdatePolicy) -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 77);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    cfg.alarm_threshold = 0.5;
    let mut adapt = AdaptConfig::new(policy, cfg.feature_cols.clone());
    // Small windows + a low threshold so the fleet's built-in attribute
    // drift fires the detector several times inside a 150-day stream.
    adapt.detector.window = 64;
    adapt.detector.check_every = 32;
    adapt.detector.z_threshold = 3.0;
    adapt.replace_window = 512;
    adapt.accum_cap = 1_024;
    cfg.adapt = Some(adapt);
    cfg
}

#[test]
fn adaptive_engine_matches_serial_bit_exactly_for_every_policy() {
    let events = fleet_events(2701);
    for policy in [
        UpdatePolicy::NoUpdate,
        UpdatePolicy::Replace,
        UpdatePolicy::Accumulate,
    ] {
        let predictor_cfg = adaptive_cfg(policy);
        let mut serial = OnlinePredictor::new(&predictor_cfg);
        let serial_alarms: Vec<_> = events
            .iter()
            .filter_map(|event| serial.observe(event))
            .collect();
        serial.finish();
        let adaptive = serial
            .model()
            .adaptive
            .as_ref()
            .expect("adaptation loop armed");
        assert!(
            adaptive.drift_events() > 0,
            "{policy:?}: detector must fire on this stream"
        );
        match policy {
            UpdatePolicy::NoUpdate => assert_eq!(adaptive.rebuilds(), 0),
            _ => assert_eq!(adaptive.rebuilds(), adaptive.drift_events()),
        }

        for n_shards in [1usize, 3] {
            let mut cfg = ServeConfig::new(predictor_cfg.clone());
            cfg.n_shards = n_shards;
            let engine = Engine::new(&cfg);
            for event in &events {
                engine.ingest(event.clone()).expect("engine accepts events");
            }
            let fin = engine.finish().expect("clean shutdown");
            let stats = engine.stats();
            assert_eq!(
                stats.drift_events,
                adaptive.drift_events(),
                "{policy:?} @ {n_shards} shards: drift counter"
            );
            assert_eq!(
                stats.model_rebuilds,
                adaptive.rebuilds(),
                "{policy:?} @ {n_shards} shards: rebuild counter"
            );
            assert_eq!(
                fin.alarms, serial_alarms,
                "{policy:?} @ {n_shards} shards: alarm stream"
            );
            compare_final_state(&serial, &fin.checkpoint)
                .unwrap_or_else(|e| panic!("{policy:?} @ {n_shards} shards: {e}"));
        }
    }
}

#[test]
fn live_daemon_lands_on_the_offline_closed_loop_model_state() {
    // The acceptance chain for the closed loop: run the offline
    // `run_closed_loop` reference on a dataset, then feed the *same*
    // observation order (sample per record, failure right after a failed
    // disk's last record — exactly the reference's loop) to the live
    // engine with the identical predictor seed. Counters and final model
    // state must agree at every link.
    let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 33);
    fleet.n_good = 80;
    fleet.n_failed = 20;
    fleet.duration_days = 240;
    let ds = FleetSim::collect(&fleet);

    let mut cfg = LongtermConfig::new(table2_feature_columns(), 4, 8, 5);
    cfg.forest.n_trees = 8;
    cfg.orf.n_trees = 8;
    cfg.orf.n_tests = 40;
    cfg.orf.min_parent_size = 40.0;
    cfg.orf.warmup_age = 10;
    cfg.target_far = 0.05;

    let mut adapt = AdaptConfig::new(UpdatePolicy::Replace, cfg.cols.clone());
    adapt.detector.window = 128;
    adapt.detector.check_every = 64;
    adapt.detector.z_threshold = 5.0;

    let closed = run_closed_loop(&ds, &cfg, &adapt);
    assert!(closed.drift_events > 0, "reference run must detect drift");
    assert_eq!(closed.rebuilds, closed.drift_events);
    assert!(!closed.series.months.is_empty());

    // Same predictor the reference built internally: first draw from the
    // master seed, same columns/window/forest, same policy.
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut predictor_cfg = OnlinePredictorConfig::new(cfg.cols.clone(), rng.next_u64());
    predictor_cfg.orf = cfg.orf.clone();
    predictor_cfg.window_days = cfg.window as usize;
    predictor_cfg.adapt = Some(adapt);

    let mut tape = Vec::with_capacity(ds.records.len());
    for rec in &ds.records {
        let info = &ds.disks[rec.disk_id as usize];
        let failed_here = info.failed && rec.day == info.last_day;
        tape.push(FleetEvent::Sample(rec.clone()));
        if failed_here {
            tape.push(FleetEvent::Failure {
                disk_id: rec.disk_id,
                day: rec.day,
            });
        }
    }

    let mut serial = OnlinePredictor::new(&predictor_cfg);
    for event in &tape {
        serial.observe(event);
    }
    let adaptive = serial
        .model()
        .adaptive
        .as_ref()
        .expect("adaptation loop armed");
    assert_eq!(
        (adaptive.drift_events(), adaptive.rebuilds()),
        (closed.drift_events, closed.rebuilds),
        "serial event-tape replay diverged from the offline reference"
    );

    let mut serve_cfg = ServeConfig::new(predictor_cfg);
    serve_cfg.n_shards = 3;
    let engine = Engine::new(&serve_cfg);
    for event in &tape {
        engine.ingest(event.clone()).expect("engine accepts events");
    }
    let fin = engine.finish().expect("clean shutdown");
    let stats = engine.stats();
    assert_eq!(stats.drift_events, closed.drift_events);
    assert_eq!(stats.model_rebuilds, closed.rebuilds);
    compare_final_state(&serial, &fin.checkpoint).unwrap();
}
