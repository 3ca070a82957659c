//! The traced pipeline is the reference replay, layer by layer, and the
//! alarm gate compares streams exactly.

use orfbench::replay::{check_alarms, Ledger, Pipeline};
use orfbench::workload::{set_template_day, wire_day_template, Scale, Workload, ALL};
use orfpred_core::{Alarm, OnlinePredictor};
use orfpred_fleet::{read_frame, ClientFrame};
use orfpred_smart::gen::FleetSim;

#[test]
fn traced_pipeline_matches_online_predictor_bit_for_bit() {
    for w in [
        Workload::StaPaper,
        Workload::StbForest100,
        Workload::RestartJson,
    ] {
        let (cfg, snapshot_every) = w.predictor();
        let mut fleet = w.fleet(Scale::Tiny, 3);
        fleet.duration_days = 400;
        let mut reference = OnlinePredictor::new(&cfg);
        let mut traced = Pipeline::new(&cfg, snapshot_every, vec![vec![1.0; 48]]);
        let mut led = Ledger::new(true);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for ev in FleetSim::new(&fleet) {
            a.extend(reference.observe(&ev));
            b.extend(traced.observe(&ev, &mut led));
        }
        assert!(!a.is_empty(), "{}: the tiny fleet raises alarms", w.name());
        assert_eq!(a.len(), b.len(), "{}", w.name());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.disk_id, x.day), (y.disk_id, y.day));
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(
            reference.forest().samples_seen(),
            traced.forest().samples_seen()
        );
        assert_eq!(reference.labeller().n_pending(), traced.pending());
        assert!(led.summary(orfbench::replay::Layer::Freeze).count > 0);
    }
}

#[test]
fn alarm_gate_ignores_interleaving_but_not_content() {
    let a = |disk_id, day, score| Alarm {
        disk_id,
        day,
        score,
    };
    let expected = [a(1, 5, 0.5), a(2, 5, 0.75), a(1, 6, 0.5)];
    let shuffled = [a(1, 6, 0.5), a(1, 5, 0.5), a(2, 5, 0.75)];
    assert!(check_alarms(&expected, &shuffled).is_ok());
    let bits = [a(1, 5, 0.5), a(2, 5, 0.750_000_06), a(1, 6, 0.5)];
    assert!(check_alarms(&expected, &bits)
        .unwrap_err()
        .contains("alarm 1"));
    assert!(check_alarms(&expected, &expected[..2]).is_err());
    assert!(check_alarms(&expected[..2], &expected).is_err());
}

#[test]
fn wire_template_days_decode_as_written() {
    let mut t = wire_day_template(9, 5);
    set_template_day(&mut t, 4);
    let mut cursor = &t[..];
    let mut disks = Vec::new();
    while let Some((op, payload)) = read_frame(&mut cursor).unwrap() {
        match ClientFrame::decode(op, &payload).unwrap() {
            ClientFrame::Sample { disk_id, day, .. } => {
                assert_eq!(day, 4);
                disks.push(disk_id);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(disks, [0, 1, 2, 3, 4]);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in ALL {
        let bytes = |seed| orfbench::workload::inputs(w, Scale::Tiny, seed).bytes();
        assert_eq!(bytes(5), bytes(5), "{}", w.name());
    }
    let frames = |seed| match orfbench::workload::inputs(Workload::StaPaper, Scale::Tiny, seed) {
        orfbench::workload::Inputs::Lanes { mut lanes, .. } => {
            match lanes.remove(0).sessions.remove(0).body {
                orfbench::workload::Body::Frames(b) => b,
                orfbench::workload::Body::Days(_) => unreachable!(),
            }
        }
        orfbench::workload::Inputs::Lines { .. } => unreachable!(),
    };
    assert_eq!(frames(5), frames(5));
    assert_ne!(frames(5), frames(6));
}
