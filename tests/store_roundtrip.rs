//! The telemetry store's golden-trace oracle: recording a simulated fleet
//! and replaying it from disk must reproduce the simulator's event stream
//! **bit for bit** — same order, same days, same f32 feature bits, same
//! synthesized failure events. Runs through the testkit's shrinking
//! property runner, so a failing seed is reduced to the smallest fleet
//! size that still breaks before being reported.
//!
//! Override the seed set with `TESTKIT_SEEDS=1,2,3 cargo test`.

use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred::store::{record_fleet, Store, StoreConfig};
use orfpred::util::Xoshiro256pp;
use orfpred_testkit::{check_shrinking, default_seeds, seeds_from_env};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("orfpred_store_rt_{tag}_{}_{n}", std::process::id()))
}

/// Bit-exact event equality: f32 features compare by raw bits, so a NaN or
/// a -0.0 smuggled through the encoder cannot pass as "close enough".
fn events_equal(a: &FleetEvent, b: &FleetEvent) -> bool {
    match (a, b) {
        (FleetEvent::Sample(x), FleetEvent::Sample(y)) => {
            x.disk_id == y.disk_id
                && x.day == y.day
                && x.features
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(y.features.iter().map(|v| v.to_bits()))
        }
        (
            FleetEvent::Failure {
                disk_id: xd,
                day: xy,
            },
            FleetEvent::Failure {
                disk_id: yd,
                day: yy,
            },
        ) => xd == yd && xy == yy,
        _ => false,
    }
}

fn describe(ev: Option<&FleetEvent>) -> String {
    match ev {
        Some(FleetEvent::Sample(r)) => format!("sample disk {} day {}", r.disk_id, r.day),
        Some(FleetEvent::Failure { disk_id, day }) => {
            format!("failure disk {disk_id} day {day}")
        }
        None => "end of stream".into(),
    }
}

/// Record `fleet` with the given segment capacity, replay, and compare
/// against a fresh simulator run of the same config.
fn record_and_compare(fleet: &FleetConfig, segment_rows: u32) -> Result<(), String> {
    let dir = tmp_dir("case");
    let cfg = StoreConfig {
        segment_rows,
        ..StoreConfig::default()
    };
    let meta = record_fleet(&dir, fleet, cfg).map_err(|e| e.to_string())?;
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    store.verify().map_err(|e| format!("verify: {e}"))?;

    let mut expected = FleetSim::new(fleet);
    let mut n = 0u64;
    for got in store.events() {
        let got = got.map_err(|e| format!("replay event {n}: {e}"))?;
        let want = expected.next();
        let ok = want.as_ref().is_some_and(|w| events_equal(&got, w));
        if !ok {
            std::fs::remove_dir_all(&dir).ok();
            return Err(format!(
                "event {n} diverged at segment_rows {segment_rows}: store replayed {}, \
                 simulator produced {}",
                describe(Some(&got)),
                describe(want.as_ref())
            ));
        }
        n += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    if let Some(extra) = expected.next() {
        return Err(format!(
            "store stream ended after {n} events but the simulator still had {}",
            describe(Some(&extra))
        ));
    }
    if meta.total_rows + fleet.n_failed as u64 != n {
        return Err(format!(
            "event accounting off: {} rows + {} failures != {n} events",
            meta.total_rows, fleet.n_failed
        ));
    }
    Ok(())
}

/// Seed-derived random case: fleet shape and segment capacity both come
/// from the seed, with the capacity deliberately biased onto the
/// boundaries (1, exactly-total, total±1) where rotation bugs live.
fn roundtrip(seed: u64, size: u32) -> Result<(), String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x51);
    let mut fleet = FleetConfig::sta(ScalePreset::Tiny, seed);
    fleet.n_good = 1 + rng.index(size.max(1) as usize);
    fleet.n_failed = rng.index(fleet.n_good.min(4) + 1);
    // ≥ 170 days guarantees every disk can host a failure ramp (installs
    // span at most 70 % of the window and a ramp needs 50 observed days).
    fleet.duration_days = 170 + rng.index(60) as u16;

    let total: u64 = FleetSim::new(&fleet)
        .filter(|e| matches!(e, FleetEvent::Sample(_)))
        .count() as u64;
    // Capacity 1 means one segment (and one manifest rewrite) per row —
    // O(rows²) bytes of manifest churn — so only exercise it on short
    // streams; the other boundaries stay in play at every size.
    let one = if total <= 600 {
        1u64
    } else {
        2 + rng.index(7) as u64
    };
    let menu = [
        one,
        2 + rng.index(7) as u64,
        total.saturating_sub(1).max(1),
        total.max(1),
        total + 1 + rng.index(9) as u64,
    ];
    let segment_rows = menu[rng.index(menu.len())].min(u64::from(u32::MAX)) as u32;
    record_and_compare(&fleet, segment_rows)
        .map_err(|e| format!("fleet {}+{}: {e}", fleet.n_good, fleet.n_failed))
}

#[test]
fn recorded_replay_matches_the_simulator_bit_for_bit() {
    let seeds = seeds_from_env(&default_seeds(31, 6));
    check_shrinking("store round-trip", &seeds, 40, roundtrip);
}

#[test]
fn single_disk_fleet_round_trips_across_extreme_segment_capacities() {
    // A lone disk installed after day 0 gives a stream with empty leading
    // days; scan a few seeds so the case is guaranteed, not probabilistic.
    let mut fleet = None;
    for seed in 0..32 {
        let mut f = FleetConfig::sta(ScalePreset::Tiny, seed);
        f.n_good = 1;
        f.n_failed = 0;
        f.duration_days = 90;
        let first_day = FleetSim::new(&f).find_map(|e| match e {
            FleetEvent::Sample(r) => Some(r.day),
            FleetEvent::Failure { .. } => None,
        });
        if first_day.is_some_and(|d| d > 0) {
            fleet = Some(f);
            break;
        }
    }
    let fleet = fleet.expect("some seed installs the disk after day 0");
    let total: u64 = FleetSim::new(&fleet)
        .filter(|e| matches!(e, FleetEvent::Sample(_)))
        .count() as u64;
    assert!(total > 2, "need a non-trivial stream, got {total}");
    for segment_rows in [1, total - 1, total, total + 7] {
        record_and_compare(&fleet, segment_rows as u32)
            .unwrap_or_else(|e| panic!("segment_rows {segment_rows}: {e}"));
    }
}

#[test]
fn segment_columns_score_bit_identical_to_materialized_rows() {
    use orfpred::eval::prep::{stream_orf, training_labels};

    // Record a fleet, train an ORF on the replayed dataset, freeze it, then
    // score every segment's rows, materialized from its columns, three
    // times: through the frozen batch kernel, the frozen single-row walk
    // and the live model. Every score must match bit for bit.
    let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 101);
    fleet.n_good = 12;
    fleet.n_failed = 4;
    fleet.duration_days = 200;
    let dir = tmp_dir("cols");
    record_fleet(
        &dir,
        &fleet,
        StoreConfig {
            segment_rows: 113, // prime: batches straddle segment boundaries
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let store = Store::open(&dir).unwrap();
    let ds = store.dataset().unwrap();

    let cols = orfpred::smart::attrs::table2_feature_columns();
    let is_train = vec![true; ds.disks.len()];
    let labels = training_labels(&ds, &is_train, ds.duration_days, 7);
    let orf_cfg = orfpred::core::OrfConfig {
        n_trees: 8,
        n_tests: 40,
        min_parent_size: 30.0,
        warmup_age: 10,
        ..orfpred::core::OrfConfig::default()
    };
    let model = stream_orf(&ds, &labels, &cols, &orf_cfg, 0xC0);
    let scorer = model.freeze();
    let (forest, scaler) = (&model.forest, &model.scaler);

    let mut rows_scored = 0usize;
    for i in 0..store.n_segments() {
        let seg = store.segment(i).unwrap();
        let materialized: Vec<Vec<f32>> =
            (0..seg.n_rows()).map(|r| seg.record(r).features).collect();
        let row_refs: Vec<&[f32]> = materialized.iter().map(|f| &f[..]).collect();
        let batch = scorer.score_rows(&row_refs);
        assert_eq!(batch.len(), seg.n_rows(), "segment {i}");
        for (r, row) in row_refs.iter().enumerate() {
            let single = scorer.score(row);
            assert_eq!(
                batch[r].to_bits(),
                single.to_bits(),
                "segment {i} row {r}: row batch vs single-row"
            );
            let live = forest.score(&scaler.transform(row));
            assert_eq!(
                single.to_bits(),
                live.to_bits(),
                "segment {i} row {r}: frozen vs live"
            );
        }
        rows_scored += seg.n_rows();
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(rows_scored as u64, store.n_rows(), "all rows covered");
    assert!(rows_scored > 200, "non-trivial fleet: {rows_scored} rows");
}

#[test]
fn dataset_view_equals_the_materialized_simulation() {
    // The batch (Dataset) view and the streaming view come from the same
    // segments; check the batch one against FleetSim::collect directly.
    let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 77);
    fleet.n_good = 10;
    fleet.n_failed = 3;
    fleet.duration_days = 180;
    let dir = tmp_dir("ds");
    record_fleet(
        &dir,
        &fleet,
        StoreConfig {
            segment_rows: 97, // deliberately prime: rows straddle segments
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let got = Store::open(&dir).unwrap().dataset().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let want = FleetSim::collect(&fleet);
    assert_eq!(got.model, want.model);
    assert_eq!(got.duration_days, want.duration_days);
    assert_eq!(got.records.len(), want.records.len());
    for (i, (a, b)) in got.records.iter().zip(&want.records).enumerate() {
        assert_eq!(a.disk_id, b.disk_id, "row {i}");
        assert_eq!(a.day, b.day, "row {i}");
        for (x, y) in a.features.iter().zip(&b.features) {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i} feature bits");
        }
    }
    assert_eq!(got.disks.len(), want.disks.len());
}
