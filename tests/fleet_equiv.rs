//! The multi-tenant fleet daemon is bit-equivalent to standalone serving.
//!
//! `orfpred-fleet` hosts many per-tenant engines behind one daemon, adds a
//! binary wire protocol, and re-shards tenants live. None of that may
//! change a single output bit: each tenant's alarm stream and final
//! checkpoint must match what a standalone engine fed the same events
//! would produce — with one tenant (the daemon `orfpredd`
//! runs without `--tenant`), across interleaved multi-tenant traffic,
//! across a live reshard, across a crash + checkpoint/store recovery, and
//! across the two wire formats.

use orfpred::core::{Alarm, OnlinePredictorConfig};
use orfpred::fleet::{
    read_frame, run as fleet_run, ClientFrame, FleetDaemonConfig, FleetEngine, ServerFrame,
    TenantConfig, WIRE_MAGIC, WIRE_VERSION,
};
use orfpred::serve::{Engine, Request, ServeConfig};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred::store::{record_fleet, Store, StoreConfig};
use std::io::Cursor;
use std::path::PathBuf;

fn sim_cfg(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 40;
    cfg.n_failed = 8;
    cfg.duration_days = 120;
    cfg
}

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    FleetSim::new(&sim_cfg(seed)).collect()
}

fn predictor_cfg(seed: u64) -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), seed);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    cfg.alarm_threshold = 0.5;
    cfg
}

fn event_line(ev: &FleetEvent) -> String {
    match ev {
        FleetEvent::Sample(dd) => Request::Sample {
            disk_id: dd.disk_id,
            day: dd.day,
            features: dd.features.clone(),
        }
        .to_line(),
        FleetEvent::Failure { disk_id, day } => Request::Failure {
            disk_id: *disk_id,
            day: *day,
        }
        .to_line(),
    }
}

fn checkpoint_json(ck: &orfpred::serve::Checkpoint) -> String {
    serde_json::to_string(ck).expect("checkpoint serializes")
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("orfpred_fleet_eq_{tag}_{}", std::process::id()))
}

/// A standalone engine run over `events`: the bit-exactness reference.
fn standalone(events: &[FleetEvent], predictor: OnlinePredictorConfig) -> orfpred::serve::Finished {
    let cfg = ServeConfig::new(predictor);
    let engine = Engine::new(&cfg);
    for ev in events {
        engine.ingest(ev.clone()).expect("engine accepts events");
    }
    engine.finish().expect("clean shutdown")
}

#[test]
fn single_tenant_fleet_matches_the_standalone_daemon_bitwise() {
    // A tenant-less JSON script through a one-tenant fleet daemon — what
    // `orfpredd` runs without `--tenant` — against a standalone engine fed
    // the same events: identical alarms, identical final checkpoint bytes.
    // Single-tenant scripts never name a tenant, which a one-tenant fleet
    // must accept; every alarm line carries the tenant's name.
    let events = fleet_events(1401);
    let mut script = String::new();
    for ev in &events {
        script.push_str(&event_line(ev));
        script.push('\n');
    }
    let solo = standalone(&events, predictor_cfg(9));

    let fleet_cfg = FleetDaemonConfig::new(vec![TenantConfig::new("default", predictor_cfg(9))]);
    let mut fleet_out = Vec::new();
    let fins =
        fleet_run(&fleet_cfg, Cursor::new(script), &mut fleet_out).expect("fleet daemon runs");

    assert!(solo.alarms.len() >= 5, "non-trivial alarm set required");
    assert_eq!(fins.len(), 1);
    assert_eq!(fins[0].alarms, solo.alarms, "alarm streams identical");
    assert_eq!(fins[0].counters.alarms, solo.alarms.len() as u64);
    assert_eq!(
        checkpoint_json(&fins[0].checkpoint),
        checkpoint_json(&solo.checkpoint),
        "final checkpoints byte-identical"
    );
    let wire_alarms = String::from_utf8(fleet_out)
        .expect("utf8 output")
        .lines()
        .filter(|l| l.contains("\"type\":\"alarm\"") && l.contains("\"tenant\":\"default\""))
        .count();
    assert_eq!(wire_alarms, solo.alarms.len(), "every alarm hit the wire");
}

#[test]
fn interleaved_tenants_each_match_their_own_standalone_run() {
    // Two tenants with different streams and different forests, traffic
    // interleaved chunk-by-chunk through one fleet: each tenant's output
    // must equal a standalone engine fed only its stream — multi-tenancy
    // is pure multiplexing, never cross-talk.
    let sta_events = fleet_events(1402);
    let stb_events = fleet_events(1403);
    let sta_ref = standalone(&sta_events, predictor_cfg(9));
    let stb_ref = standalone(&stb_events, predictor_cfg(31));

    let (fleet, _) = FleetEngine::start(vec![
        TenantConfig::new("sta", predictor_cfg(9)),
        TenantConfig::new("stb", predictor_cfg(31)),
    ])
    .expect("fleet starts");
    let mut sta = sta_events.iter();
    let mut stb = stb_events.iter();
    loop {
        let mut progressed = false;
        for ev in sta.by_ref().take(7) {
            fleet.ingest(Some("sta"), ev.clone()).expect("sta ingest");
            progressed = true;
        }
        for ev in stb.by_ref().take(13) {
            fleet.ingest(Some("stb"), ev.clone()).expect("stb ingest");
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    let fins = fleet.finish().expect("clean shutdown");
    assert_eq!(fins.len(), 2);

    let sta_fin = fins
        .iter()
        .find(|f| f.tenant == "sta")
        .expect("sta finished");
    let stb_fin = fins
        .iter()
        .find(|f| f.tenant == "stb")
        .expect("stb finished");
    assert!(!sta_ref.alarms.is_empty() && !stb_ref.alarms.is_empty());
    assert_eq!(sta_fin.alarms, sta_ref.alarms, "sta stream isolated");
    assert_eq!(stb_fin.alarms, stb_ref.alarms, "stb stream isolated");
    assert_eq!(
        checkpoint_json(&sta_fin.checkpoint),
        checkpoint_json(&sta_ref.checkpoint)
    );
    assert_eq!(
        checkpoint_json(&stb_fin.checkpoint),
        checkpoint_json(&stb_ref.checkpoint)
    );
}

#[test]
fn live_reshard_matches_an_uninterrupted_run_bitwise() {
    // Reshard a tenant mid-stream (2 → 5 shards). The reference run keeps
    // its shard count but takes a checkpoint barrier at the same event
    // index — both barriers consume exactly one sequence number, so the
    // final checkpoints must be byte-identical, and the alarm stream must
    // not notice the swap at all.
    let events = fleet_events(1404);
    let mid = events.len() / 2;
    let barrier_path = tmp_path("reshard_barrier.json");
    let _ = std::fs::remove_file(&barrier_path);

    let mut ref_cfg = ServeConfig::new(predictor_cfg(9));
    ref_cfg.n_shards = 2;
    let reference = Engine::new(&ref_cfg);
    for (i, ev) in events.iter().enumerate() {
        if i == mid {
            reference
                .checkpoint(&barrier_path)
                .expect("reference barrier checkpoint");
        }
        reference.ingest(ev.clone()).expect("reference ingest");
    }
    let ref_fin = reference.finish().expect("clean shutdown");

    let mut tenant = TenantConfig::new("t", predictor_cfg(9));
    tenant.serve.n_shards = 2;
    let (fleet, _) = FleetEngine::start(vec![tenant]).expect("fleet starts");
    for (i, ev) in events.iter().enumerate() {
        if i == mid {
            fleet.reshard(None, 5).expect("live reshard");
        }
        fleet.ingest(None, ev.clone()).expect("fleet ingest");
    }
    let fin = fleet.finish().expect("clean shutdown").remove(0);

    assert!(ref_fin.alarms.len() >= 5, "non-trivial alarm set required");
    assert_eq!(
        fin.alarms, ref_fin.alarms,
        "alarm stream survives the reshard"
    );
    assert_eq!(fin.counters.reshards, 1);
    assert_eq!(
        checkpoint_json(&fin.checkpoint),
        checkpoint_json(&ref_fin.checkpoint),
        "reshard barrier ≡ checkpoint barrier in the final state"
    );
    let _ = std::fs::remove_file(&barrier_path);
}

#[test]
fn crash_recovery_from_checkpoint_and_store_matches_a_clean_run() {
    // A tenant checkpoints at event `cut`, keeps serving, then its engine
    // is killed (undrained state discarded, nothing flushed — a process
    // crash). A restarted fleet restores the checkpoint and replays the
    // telemetry store tail past the cursor: the recovered tenant must land
    // on the same final checkpoint as a never-crashed run, and the replay
    // must re-raise exactly the alarms the clean run raised after the cut.
    let store_dir = tmp_path("crash_store");
    let ck_path = tmp_path("crash_ck.json");
    let clean_barrier = tmp_path("crash_clean_barrier.json");
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_file(&ck_path);
    let _ = std::fs::remove_file(&clean_barrier);

    record_fleet(&store_dir, &sim_cfg(1405), StoreConfig::default()).expect("store recorded");
    let store = Store::open(&store_dir).expect("store opens");
    let events: Vec<FleetEvent> = store
        .events()
        .collect::<Result<_, _>>()
        .expect("store replays");
    let cut = events.len() / 3;
    let crash_at = 2 * events.len() / 3;

    // Clean reference: same stream, with a checkpoint barrier at `cut` so
    // both runs consume the same sequence numbers.
    let clean_cfg = ServeConfig::new(predictor_cfg(9));
    let clean = Engine::new(&clean_cfg);
    for (i, ev) in events.iter().enumerate() {
        if i == cut {
            clean.checkpoint(&clean_barrier).expect("clean barrier");
        }
        clean.ingest(ev.clone()).expect("clean ingest");
    }
    let clean_fin = clean.finish().expect("clean shutdown");

    // Crashing run: checkpoint at `cut`, serve on to `crash_at`, die.
    let mut tenant = TenantConfig::new("t", predictor_cfg(9));
    tenant.checkpoint_path = Some(ck_path.clone());
    let (fleet, _) = FleetEngine::start(vec![tenant.clone()]).expect("fleet starts");
    for (i, ev) in events.iter().enumerate().take(crash_at) {
        if i == cut {
            fleet.flush(None).expect("flush before checkpoint");
            fleet.checkpoint(None, None).expect("mid-run checkpoint");
        }
        fleet.ingest(None, ev.clone()).expect("pre-crash ingest");
    }
    fleet.kill(None).expect("tenant killed");
    assert!(
        fleet.finish().expect("fleet shutdown").is_empty(),
        "a killed tenant reports nothing back"
    );
    let saved = orfpred::serve::Checkpoint::load(&ck_path).expect("checkpoint readable");
    let orfpred::serve::Checkpoint::Online {
        alarms_raised,
        events_ingested,
        ..
    } = &saved;
    assert_eq!(
        events_ingested.unwrap_or(0),
        cut as u64,
        "checkpoint cursor sits at the cut"
    );
    let already_raised = alarms_raised.unwrap_or(0) as usize;

    // Recovery: restore the checkpoint, catch up from the store tail.
    tenant.catchup_store = Some(store_dir.clone());
    let (recovered, notes) = FleetEngine::start(vec![tenant]).expect("fleet restarts");
    assert_eq!(notes.len(), 1);
    assert_eq!(
        notes[0].skipped, cut as u64,
        "cursor skipped the covered prefix"
    );
    assert_eq!(notes[0].applied, (events.len() - cut) as u64);
    let rec_fin = recovered.finish().expect("clean shutdown").remove(0);

    let expected_tail = clean_fin
        .alarms
        .get(already_raised..)
        .expect("alarm cut in range");
    assert!(
        !expected_tail.is_empty(),
        "non-trivial post-cut alarms required"
    );
    assert_eq!(
        rec_fin.alarms, expected_tail,
        "catch-up re-raises exactly the post-checkpoint alarms"
    );
    assert_eq!(
        checkpoint_json(&rec_fin.checkpoint),
        checkpoint_json(&clean_fin.checkpoint),
        "recovered state ≡ never-crashed state"
    );

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_file(&ck_path);
    let _ = std::fs::remove_file(&clean_barrier);
}

#[test]
fn binary_and_json_sessions_produce_identical_alarm_streams() {
    // The same event stream once as line-JSON and once as binary frames:
    // same alarms (bit-exact scores), same final checkpoint, and the
    // binary session's Alarm frames carry the same floats that the fleet
    // accumulated internally.
    let events = fleet_events(1401);
    let tenant = TenantConfig::new("solo", predictor_cfg(9));
    let fingerprint = tenant.serve.predictor.domain_schema().fingerprint();

    let mut script = String::new();
    for ev in &events {
        script.push_str(&event_line(ev));
        script.push('\n');
    }
    let json_cfg = FleetDaemonConfig::new(vec![tenant.clone()]);
    let mut json_out = Vec::new();
    let json_fins =
        fleet_run(&json_cfg, Cursor::new(script), &mut json_out).expect("json session runs");

    let mut input = Vec::new();
    input.extend_from_slice(&WIRE_MAGIC);
    ClientFrame::Hello {
        version: WIRE_VERSION,
        fingerprint,
        tenant: "solo".into(),
    }
    .encode(&mut input);
    for ev in &events {
        match ev {
            FleetEvent::Sample(dd) => ClientFrame::Sample {
                disk_id: dd.disk_id,
                day: dd.day,
                features: dd.features.clone(),
            }
            .encode(&mut input),
            FleetEvent::Failure { disk_id, day } => ClientFrame::Failure {
                disk_id: *disk_id,
                day: *day,
            }
            .encode(&mut input),
        }
    }
    // Shutdown (not bare EOF) so the session flushes the engine and drains
    // the whole alarm stream as frames before the daemon's final JSON-line
    // drain would get a chance to.
    ClientFrame::Shutdown.encode(&mut input);
    let bin_cfg = FleetDaemonConfig::new(vec![tenant]);
    let mut bin_out = Vec::new();
    let bin_fins =
        fleet_run(&bin_cfg, Cursor::new(input), &mut bin_out).expect("binary session runs");

    assert!(
        json_fins[0].alarms.len() >= 5,
        "non-trivial alarm set required"
    );
    assert_eq!(
        bin_fins[0].alarms, json_fins[0].alarms,
        "wire format never changes the alarm stream"
    );
    for (b, j) in bin_fins[0].alarms.iter().zip(&json_fins[0].alarms) {
        assert_eq!(b.score.to_bits(), j.score.to_bits(), "scores bit-exact");
    }
    assert_eq!(
        checkpoint_json(&bin_fins[0].checkpoint),
        checkpoint_json(&json_fins[0].checkpoint),
        "final checkpoints byte-identical across wire formats"
    );

    // The binary output itself: HelloAck first, then the alarm frames in
    // fleet order. A binary session only flushes alarms when it writes a
    // reply or hits EOF, so the daemon's final drain covers the stream.
    let mut cursor = &bin_out[..];
    let (op, payload) = read_frame(&mut cursor)
        .expect("well-formed output")
        .expect("non-empty output");
    assert!(matches!(
        ServerFrame::decode(op, &payload).expect("decodable"),
        ServerFrame::HelloAck {
            version: WIRE_VERSION,
            ..
        }
    ));
    let mut wire_alarms = Vec::new();
    while let Some((op, payload)) = read_frame(&mut cursor).expect("well-formed output") {
        if let ServerFrame::Alarm {
            disk_id,
            day,
            score,
        } = ServerFrame::decode(op, &payload).expect("decodable")
        {
            wire_alarms.push(Alarm {
                disk_id,
                day,
                score,
            });
        }
    }
    assert_eq!(
        wire_alarms, bin_fins[0].alarms,
        "alarm frames on the wire match the accumulated stream"
    );
}

#[test]
fn binary_control_frames_round_trip_score_stats_checkpoint_and_reshard() {
    // One binary session drives the full control plane: Score (twice, to
    // pin determinism bit-for-bit), Stats, Checkpoint to an explicit path,
    // Reshard (once legal, once illegal), then Shutdown. The replies must
    // come back typed — ScoreReply / StatsReply / Ok / Error — in request
    // order, with alarm frames free to interleave ahead of them.
    let events = fleet_events(1406);
    let mid = events.len() / 2;
    let tenant = TenantConfig::new("solo", predictor_cfg(9));
    let fingerprint = tenant.serve.predictor.domain_schema().fingerprint();
    let ck_path = tmp_path("control_ck.json");
    let _ = std::fs::remove_file(&ck_path);

    let probe_row = vec![0.5f32; 4]; // short on purpose: the daemon pads
    let mut input = Vec::new();
    input.extend_from_slice(&WIRE_MAGIC);
    ClientFrame::Hello {
        version: WIRE_VERSION,
        fingerprint,
        tenant: "solo".into(),
    }
    .encode(&mut input);
    for ev in &events[..mid] {
        match ev {
            FleetEvent::Sample(dd) => ClientFrame::Sample {
                disk_id: dd.disk_id,
                day: dd.day,
                features: dd.features.clone(),
            }
            .encode(&mut input),
            FleetEvent::Failure { disk_id, day } => ClientFrame::Failure {
                disk_id: *disk_id,
                day: *day,
            }
            .encode(&mut input),
        }
    }
    ClientFrame::Score {
        features: probe_row.clone(),
    }
    .encode(&mut input);
    ClientFrame::Score {
        features: probe_row,
    }
    .encode(&mut input);
    ClientFrame::Stats.encode(&mut input);
    ClientFrame::Checkpoint {
        path: Some(ck_path.to_string_lossy().into_owned()),
    }
    .encode(&mut input);
    ClientFrame::Reshard { n_shards: 3 }.encode(&mut input);
    ClientFrame::Reshard { n_shards: 0 }.encode(&mut input);
    for ev in &events[mid..] {
        match ev {
            FleetEvent::Sample(dd) => ClientFrame::Sample {
                disk_id: dd.disk_id,
                day: dd.day,
                features: dd.features.clone(),
            }
            .encode(&mut input),
            FleetEvent::Failure { disk_id, day } => ClientFrame::Failure {
                disk_id: *disk_id,
                day: *day,
            }
            .encode(&mut input),
        }
    }
    ClientFrame::Shutdown.encode(&mut input);

    let cfg = FleetDaemonConfig::new(vec![tenant]);
    let mut out = Vec::new();
    let fins = fleet_run(&cfg, Cursor::new(input), &mut out).expect("binary session runs");
    assert_eq!(fins.len(), 1);
    assert_eq!(fins[0].counters.reshards, 1, "only the legal reshard took");

    let mut cursor = &out[..];
    let (op, payload) = read_frame(&mut cursor)
        .expect("well-formed output")
        .expect("non-empty output");
    assert!(matches!(
        ServerFrame::decode(op, &payload).expect("decodable"),
        ServerFrame::HelloAck {
            version: WIRE_VERSION,
            ..
        }
    ));
    let mut replies = Vec::new();
    while let Some((op, payload)) = read_frame(&mut cursor).expect("well-formed output") {
        let frame = ServerFrame::decode(op, &payload).expect("decodable");
        if !matches!(frame, ServerFrame::Alarm { .. }) {
            replies.push(frame);
        }
    }
    assert_eq!(replies.len(), 7, "one reply per control frame: {replies:?}");
    let (s1, s2) = match (&replies[0], &replies[1]) {
        (ServerFrame::ScoreReply { score: a }, ServerFrame::ScoreReply { score: b }) => (*a, *b),
        other => panic!("expected two ScoreReply frames, got {other:?}"),
    };
    assert!(s1.is_finite());
    assert_eq!(s1.to_bits(), s2.to_bits(), "scoring is deterministic");
    match &replies[2] {
        ServerFrame::StatsReply { json } => {
            assert!(json.starts_with('{'), "stats reply is JSON: {json}");
            assert!(json.contains("solo"), "stats name the tenant: {json}");
        }
        other => panic!("expected StatsReply, got {other:?}"),
    }
    match &replies[3] {
        ServerFrame::Ok { message } => {
            assert!(message.contains("checkpoint"), "{message}");
        }
        other => panic!("expected checkpoint Ok, got {other:?}"),
    }
    let saved = orfpred::serve::Checkpoint::load(&ck_path).expect("checkpoint readable");
    let orfpred::serve::Checkpoint::Online {
        events_ingested, ..
    } = &saved;
    assert_eq!(
        events_ingested.unwrap_or(0),
        mid as u64,
        "checkpoint cursor sits at the control point"
    );
    match &replies[4] {
        ServerFrame::Ok { message } => {
            assert!(message.contains("reshard to 3"), "{message}");
        }
        other => panic!("expected reshard Ok, got {other:?}"),
    }
    match &replies[5] {
        ServerFrame::Error { message } => {
            assert!(message.contains("at least 1"), "{message}");
        }
        other => panic!("expected reshard Error, got {other:?}"),
    }
    assert!(
        matches!(&replies[6], ServerFrame::Ok { message } if message == "shutdown"),
        "expected shutdown Ok, got {:?}",
        replies[6]
    );
    let _ = std::fs::remove_file(&ck_path);
}
