//! The reply-line parser and the percentile helpers.

use orfbench::stats::{median, nearest_rank, parse_reply, tail_supported, Reply};
use orfpred_core::{Alarm, OnlinePredictorConfig};
use orfpred_fleet::{FleetEngine, TenantConfig};
use orfpred_serve::{Response, ServeStats};
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;

#[test]
fn classic_stats_lines_parse() {
    let s = ServeStats::new(2);
    s.samples_ingested.store(90, Ordering::Relaxed);
    s.failures_ingested.store(10, Ordering::Relaxed);
    s.events_issued.store(130, Ordering::Relaxed);
    s.events_applied.store(125, Ordering::Relaxed);
    s.alarms_raised.store(3, Ordering::Relaxed);
    s.snapshots_published.store(7, Ordering::Relaxed);
    let line = Response::Stats(Box::new(s.report())).to_line();
    let Reply::Stats(st) = parse_reply(&line) else {
        panic!("not parsed as stats: {line}");
    };
    assert_eq!(st.tenant, None);
    assert_eq!(st.events, 100);
    assert_eq!((st.issued, st.applied), (130, 125));
    assert_eq!((st.alarms, st.snapshots_published), (3, 7));
    assert!(!st.drained(100), "applied lags issued");
    assert!(!st.drained(99));
}

#[test]
fn fleet_stats_lines_parse() {
    let mut p = OnlinePredictorConfig::new(vec![0], 1);
    p.orf.n_trees = 1;
    let (fleet, _) = FleetEngine::start(vec![TenantConfig::new("sta", p)]).unwrap();
    let stats = fleet.stats(Some("sta")).unwrap();
    // The fleet daemon's layout: the type tag, then the TenantStats fields.
    let Value::Obj(fields) = stats.ser() else {
        panic!("TenantStats serializes to an object");
    };
    let mut all = vec![("type".to_string(), Value::Str("stats".into()))];
    all.extend(fields);
    let line = serde_json::value_to_string(&Value::Obj(all));
    let Reply::Stats(st) = parse_reply(&line) else {
        panic!("not parsed as stats: {line}");
    };
    assert_eq!(st.tenant.as_deref(), Some("sta"));
    assert_eq!(st.events, 0);
    assert!(st.drained(0), "an idle tenant is drained");
    fleet.finish().unwrap();
}

#[test]
fn alarm_lines_keep_score_bits() {
    for score in [0.5f32, 0.6, 1.0, 0.123_456_79, f32::MIN_POSITIVE] {
        let a = Alarm {
            disk_id: 4_000_000_000,
            day: 1169,
            score,
        };
        let line = Response::Alarm(a).to_line();
        match parse_reply(&line) {
            Reply::Alarm(b) => {
                assert_eq!((a.disk_id, a.day), (b.disk_id, b.day));
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{line}");
            }
            other => panic!("not an alarm: {other:?}"),
        }
    }
    let tagged = "{\"type\":\"alarm\",\"tenant\":\"sta\",\"disk_id\":7,\"day\":3,\"score\":0.75}";
    assert!(matches!(
        parse_reply(tagged),
        Reply::Alarm(Alarm {
            disk_id: 7,
            day: 3,
            ..
        })
    ));
}

#[test]
fn errors_and_other_lines_are_classified() {
    let line = Response::Error {
        message: "nope".into(),
    }
    .to_line();
    assert_eq!(parse_reply(&line), Reply::Error("nope".into()));
    assert_eq!(
        parse_reply("{\"type\":\"ok\",\"what\":\"shutdown\"}"),
        Reply::Other
    );
    assert_eq!(parse_reply("not json"), Reply::Other);
    assert_eq!(
        parse_reply("{\"type\":\"stats\"}"),
        Reply::Other,
        "no counters"
    );
}

#[test]
fn nearest_rank_percentiles_are_exact() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&v, 0.5), Some(50));
    assert_eq!(nearest_rank(&v, 0.99), Some(99));
    assert_eq!(nearest_rank(&v, 1.0), Some(100));
    assert_eq!(nearest_rank(&v, 0.0), Some(1));
    assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
    assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert!(tail_supported(1000, 0.99), "rank 990 leaves 10 beyond");
    assert!(!tail_supported(999, 0.99), "rank 990 leaves 9 beyond");
    assert!(!tail_supported(100, 0.99));
    assert!(!tail_supported(0, 0.5));
    assert!(tail_supported(20, 0.5));
}

#[test]
fn medians() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}
