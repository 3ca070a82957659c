//! Sharded serving is bit-equivalent to serial Algorithm 2 replay.
//!
//! The engine's whole design argument is that sharding the labeller and
//! pipelining the model writer changes *throughput*, never *output*: the
//! global sequence numbers stamped at ingest plus the writer's reorder
//! buffer reconstruct the exact serial event order. This test drives the
//! same fleet event stream through the serial [`OnlinePredictor`] and
//! through engines with 1 and 4 shards and demands the identical alarm
//! stream — same disks, same days, same float scores, same order. Ingest
//! batching is output-neutral too: ragged `ingest_batch` runs match
//! per-event `ingest` byte for byte.

use orfpred::core::{Alarm, OnlinePredictor, OnlinePredictorConfig};
use orfpred::prep::PrepConfig;
use orfpred::serve::{Checkpoint, Engine, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{
    corrupt_events, DirtyConfig, FleetConfig, FleetEvent, FleetSim, ScalePreset,
};
use orfpred::smart::DomainSchema;

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 40;
    cfg.n_failed = 8;
    cfg.duration_days = 120;
    FleetSim::new(&cfg).collect()
}

fn predictor_cfg() -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 9);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    cfg.alarm_threshold = 0.5;
    cfg
}

fn serial_alarms(events: &[FleetEvent]) -> Vec<Alarm> {
    let mut predictor = OnlinePredictor::new(&predictor_cfg());
    events
        .iter()
        .filter_map(|event| predictor.observe(event))
        .collect()
}

fn sharded_alarms(events: &[FleetEvent], n_shards: usize) -> Vec<Alarm> {
    let mut cfg = ServeConfig::new(predictor_cfg());
    cfg.n_shards = n_shards;
    let engine = Engine::new(&cfg);
    for event in events {
        engine.ingest(event.clone()).expect("engine accepts events");
    }
    let finished = engine.finish().expect("clean shutdown");
    let stats = engine.stats();
    assert_eq!(
        stats.events_applied, stats.events_issued,
        "writer drained every issued sequence number"
    );
    finished.alarms
}

#[test]
fn one_shard_matches_serial_replay_exactly() {
    let events = fleet_events(1301);
    let serial = serial_alarms(&events);
    assert!(
        serial.len() >= 5,
        "stream must produce a non-trivial alarm set, got {}",
        serial.len()
    );
    assert_eq!(sharded_alarms(&events, 1), serial);
}

#[test]
fn four_shards_match_serial_replay_exactly() {
    let events = fleet_events(1302);
    let serial = serial_alarms(&events);
    assert!(serial.len() >= 5, "non-trivial alarm set required");
    assert_eq!(sharded_alarms(&events, 4), serial);
}

#[test]
fn published_frozen_snapshot_scores_match_the_serial_predictor_bitwise() {
    // The epoch-published snapshot is a *frozen* forest; its scores must be
    // bit-identical to the live serial predictor fed the same stream — the
    // serve-side face of the freeze ≡ live guarantee.
    let events = fleet_events(1304);
    let mut predictor = OnlinePredictor::new(&predictor_cfg());
    for event in &events {
        predictor.observe(event);
    }

    let mut cfg = ServeConfig::new(predictor_cfg());
    cfg.n_shards = 4;
    let engine = Engine::new(&cfg);
    for event in &events {
        engine.ingest(event.clone()).expect("engine accepts events");
    }
    engine.flush().expect("the writer applies every event");
    // finish() publishes the final snapshot after draining the stream.
    engine.finish().expect("clean shutdown");

    let mut probes = 0;
    for event in &events {
        if let FleetEvent::Sample(dd) = event {
            assert_eq!(
                engine.score(&dd.features).to_bits(),
                predictor.score_row(&dd.features).to_bits(),
                "disk {} day {}",
                dd.disk_id,
                dd.day
            );
            probes += 1;
            if probes == 500 {
                break;
            }
        }
    }
    assert!(probes > 100, "stream produced too few probe samples");
}

#[test]
fn clean_stream_with_default_prep_is_bit_exact_passthrough() {
    // Acceptance gate for the prep stage: with no faults in the data, an
    // engine running the default (strict) preprocessing config must be
    // indistinguishable from today's pipeline — same alarms, same final
    // checkpoint bytes (once the prep stage's own state, which the
    // baseline run simply doesn't have, is stripped), zero repairs.
    let events = fleet_events(1305);

    let mut base_cfg = ServeConfig::new(predictor_cfg());
    base_cfg.n_shards = 3;
    let base = Engine::new(&base_cfg);
    for event in &events {
        base.ingest(event.clone()).expect("baseline accepts events");
    }
    let base_fin = base.finish().expect("clean shutdown");

    let mut prep_cfg = ServeConfig::new(predictor_cfg());
    prep_cfg.predictor.prep = Some(PrepConfig::default());
    prep_cfg.n_shards = 3;
    let prepped = Engine::new(&prep_cfg);
    for event in &events {
        prepped
            .ingest(event.clone())
            .expect("prep engine accepts events");
    }
    prepped.flush().expect("the writer applies every event");
    let counters = prepped.stats().prep.expect("prep stage reports counters");
    assert_eq!(counters.samples_in, counters.samples_out);
    assert_eq!(counters.failures_in, counters.failures_out);
    assert!(!counters.any_repairs(), "clean stream repaired nothing");
    let prep_fin = prepped.finish().expect("clean shutdown");

    assert!(!base_fin.alarms.is_empty(), "non-trivial stream required");
    assert_eq!(base_fin.alarms, prep_fin.alarms);

    fn strip(ck: Checkpoint) -> Checkpoint {
        let Checkpoint::Online {
            scaler,
            forest,
            version,
            labeller,
            alarm_threshold,
            alarms_raised,
            next_seq,
            events_ingested,
            ..
        } = ck;
        Checkpoint::Online {
            scaler,
            forest,
            version,
            labeller,
            alarm_threshold,
            alarms_raised,
            next_seq,
            events_ingested,
            prep: None,
            adapt: None,
            schema: None,
            window: None,
        }
    }
    assert_eq!(
        serde_json::to_string(&strip(base_fin.checkpoint)).unwrap(),
        serde_json::to_string(&strip(prep_fin.checkpoint)).unwrap(),
        "default prep must be a bit-exact passthrough"
    );
}

#[test]
fn shard_counts_agree_with_each_other() {
    // Transitivity check on a third seed: every shard count produces the
    // same stream, so scaling out is a pure deployment decision.
    let events = fleet_events(1303);
    let one = sharded_alarms(&events, 1);
    let two = sharded_alarms(&events, 2);
    let four = sharded_alarms(&events, 4);
    assert!(!one.is_empty());
    assert_eq!(one, two);
    assert_eq!(two, four);
}

/// Batch sizes for the batched-ingest leg, cycled: single events, ragged
/// runs, and runs either side of a full ORFB batch (512) and of two shard
/// messages at the default queue capacity (1024).
const RAGGED: [usize; 7] = [1, 3, 512, 2, 513, 37, 1025];

/// The prep stage armed, over the windowed SMART domain with two derived
/// columns among the features.
fn windowed_prep_cfg() -> OnlinePredictorConfig {
    let schema = DomainSchema::smart_windowed();
    let n_base = schema.n_base_features();
    let mut cols = table2_feature_columns();
    cols.extend([n_base, n_base + 1]);
    let plain = predictor_cfg();
    let mut cfg = OnlinePredictorConfig::for_domain(schema, cols, 9);
    cfg.orf = plain.orf;
    cfg.alarm_threshold = plain.alarm_threshold;
    cfg.prep = Some(PrepConfig::tolerant());
    cfg
}

/// Run `events` through an engine, per event or in ragged batches; return
/// the alarms and the final checkpoint JSON.
fn engine_run(
    predictor: &OnlinePredictorConfig,
    events: &[FleetEvent],
    n_shards: usize,
    batched: bool,
) -> (Vec<Alarm>, String) {
    let mut cfg = ServeConfig::new(predictor.clone());
    cfg.n_shards = n_shards;
    let engine = Engine::new(&cfg);
    if batched {
        let mut rest = events;
        for size in RAGGED.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*size).min(rest.len()));
            engine.ingest_batch(head.iter().cloned()).unwrap();
            rest = tail;
        }
    } else {
        for event in events {
            engine.ingest(event.clone()).unwrap();
        }
    }
    let fin = engine.finish().expect("clean shutdown");
    (fin.alarms, serde_json::to_string(&fin.checkpoint).unwrap())
}

#[test]
fn ragged_batches_match_per_event_ingest_bit_for_bit() {
    let dirty = corrupt_events(&fleet_events(2208), &DirtyConfig::mild(0x5e));
    let legs = [
        ("plain", predictor_cfg(), fleet_events(2207)),
        ("prep + smart-windowed", windowed_prep_cfg(), dirty),
    ];
    for (name, predictor, events) in &legs {
        for n_shards in [1usize, 2, 5] {
            let (per_event, per_event_ck) = engine_run(predictor, events, n_shards, false);
            assert!(
                !per_event.is_empty(),
                "{name}: the stream must raise alarms"
            );
            let (batched, batched_ck) = engine_run(predictor, events, n_shards, true);
            assert_eq!(
                batched, per_event,
                "{name}, {n_shards} shard(s): batched alarms diverged"
            );
            assert!(
                batched_ck == per_event_ck,
                "{name}, {n_shards} shard(s): batched final checkpoint diverged"
            );
        }
    }
}
