//! Pinned model bits: FNV-1a digests of what Algorithm 2 computes on fixed
//! streams, committed as constants.
//!
//! Every other oracle compares two paths of one build (serial against
//! sharded, live against frozen, JSON against binary), so none of them sees
//! a change to code both paths share. These digests compare a build against
//! the constants instead. Each run goes through [`OnlinePredictor`] and
//! digests, separately:
//!
//! * every alarm (disk, day, score bits);
//! * the serialized scaler, forest and labeller, plus the adaptation state
//!   when one is armed;
//! * the scores of a fixed probe set through [`OnlinePredictor::score_row`];
//! * the final checkpoint JSON of a 2-shard [`Engine`] over the same stream.
//!
//! Two more legs pin the eval harnesses' trainer, which runs on oracle
//! labels instead of the online labeller:
//!
//! * `eval::prep::stream_orf` (the Table 4 protocol) on a trimmed STA
//!   fleet where trees split but none is regrown: the serialized scaler
//!   and forest, and the probe set's scores;
//! * `eval::streaming::run_streaming` (`paper-scale`'s two passes) on the
//!   fleet and config of its unit tests: every bit of the RF and ORF
//!   outcomes and the sample counts.
//!
//! A change that means to alter model bits updates the constants and says
//! why in CHANGES.md; any other change leaves them alone.
//!
//! The scaler and the trees call libm (`ln_1p`, `exp`), whose last bits may
//! differ between platforms, so the constants are asserted on x86_64 Linux
//! only. Elsewhere the test still runs every stream and prints the digests.

use orfpred::core::{
    AdaptConfig, Alarm, OnlineModel, OnlinePredictor, OnlinePredictorConfig, OrfConfig,
    UpdatePolicy,
};
use orfpred::eval::prep::{stream_orf, training_labels};
use orfpred::eval::streaming::{run_streaming, ModelOutcome, StreamingConfig};
use orfpred::serve::{Engine, ServeConfig};
use orfpred::smart::attrs::{table2_feature_columns, N_FEATURES};
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, MceFleetConfig, MceSim, ScalePreset};
use orfpred::smart::DomainSchema;
use serde_json::Value;

/// The digests of one run: alarms, model state, probe scores, engine
/// checkpoint.
type Digests = [u64; 4];

/// Pinned digests per run, in [`Digests`] order.
const PINNED: [(&str, Digests); 4] = [
    (
        "sta",
        [
            0xa149_12e7_1d95_37b3,
            0x95dd_3189_4718_d914,
            0x25c3_908c_8668_69d0,
            0x6b44_7fd0_18c7_c004,
        ],
    ),
    (
        "stb",
        [
            0xa4fe_c69b_3092_a858,
            0x01a2_caba_30d2_3e93,
            0x5a20_72bf_f5f7_12f4,
            0x5f8a_d920_cd5f_46bc,
        ],
    ),
    (
        "mce",
        [
            0xa044_f279_2e45_c8b6,
            0xb83b_2a88_1110_f80d,
            0x0d3d_51ba_b2b7_c01b,
            0xde42_6d34_eb23_9b95,
        ],
    ),
    (
        "sta_replace",
        [
            0x2fbb_2f8f_a49c_9c0d,
            0xd1a2_b0ad_2cba_d311,
            0x4a4c_267d_9178_3ffa,
            0x02ea_744d_dbb4_e76f,
        ],
    ),
];

/// Pinned `stream_orf` digests: serialized scaler and forest, probe scores.
const PINNED_STREAM_ORF: [u64; 2] = [0xdd6a_a462_5bca_628a, 0x818d_7dbf_3941_6463];

/// Pinned `run_streaming` digest: both outcomes and every count.
const PINNED_RUN_STREAMING: u64 = 0xdd02_0016_ffde_a971;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// A preset fleet trimmed so the debug build replays it in about a second.
/// The default-config runs take 60 healthy and 40 failing disks over 200
/// days: with fewer positives, no leaf reaches the default
/// `min_parent_size` of 200, no tree splits and no alarm fires.
fn default_stream(cfg: FleetConfig) -> Vec<FleetEvent> {
    FleetSim::new(&trimmed(cfg)).collect()
}

/// The size [`default_stream`] replays.
fn trimmed(mut cfg: FleetConfig) -> FleetConfig {
    cfg.n_good = 60;
    cfg.n_failed = 40;
    cfg.duration_days = 200;
    cfg
}

/// `tests/serve_adapt.rs`'s stream, where its detector fires.
fn adapt_stream() -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 2701);
    cfg.n_good = 40;
    cfg.n_failed = 8;
    cfg.duration_days = 150;
    FleetSim::new(&cfg).collect()
}

/// The mce domain at the same size as [`default_stream`].
fn mce_events() -> Vec<FleetEvent> {
    let mut cfg = MceFleetConfig::preset(ScalePreset::Tiny, 5);
    cfg.n_good = 60;
    cfg.n_failed = 40;
    cfg.duration_days = 200;
    MceSim::new(&cfg).collect()
}

/// Two base and three derived mce columns, so the forest depends on the
/// window stage's output.
fn mce_cfg() -> OnlinePredictorConfig {
    let schema = DomainSchema::mce();
    let n_base = schema.n_base_features();
    let cols = vec![0, 2, n_base, n_base + 1, n_base + 2];
    OnlinePredictorConfig::for_domain(schema, cols, 19)
}

/// `tests/serve_adapt.rs`'s replace-policy loop: small detector windows
/// and a low threshold, so drift fires on the STA stream.
fn replace_cfg() -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 77);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    let mut adapt = AdaptConfig::new(UpdatePolicy::Replace, cfg.feature_cols.clone());
    adapt.detector.window = 64;
    adapt.detector.check_every = 32;
    adapt.detector.z_threshold = 3.0;
    adapt.replace_window = 512;
    adapt.accum_cap = 1_024;
    cfg.adapt = Some(adapt);
    cfg
}

/// A field of a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// One part of the predictor's serialized state. The model's parts sit
/// under a `model` field or at the predictor's top level, depending on how
/// a build nests them; the digest pins the parts' bytes, not the nesting.
fn part<'a>(predictor: &'a Value, key: &str) -> &'a Value {
    field(predictor, "model")
        .and_then(|model| field(model, key))
        .or_else(|| field(predictor, key))
        .unwrap_or_else(|| panic!("the serialized predictor has no `{key}`"))
}

/// Every 400th sample row of the stream, zero-padded to the domain's
/// full width (a stateless probe has no window history), then sixteen
/// synthetic rows that fill every column, derived ones included.
fn probes(events: &[FleetEvent], width: usize) -> Vec<Vec<f32>> {
    let stream = events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Sample(rec) => Some(rec),
            FleetEvent::Failure { .. } => None,
        })
        .step_by(400)
        .map(|rec| {
            let mut row = rec.features.clone();
            row.resize(width, 0.0);
            row
        });
    let synthetic = (0..16u32).map(|k| {
        (0..width as u32)
            .map(|c| ((k * 37 + c * 11) % 101) as f32 * (1.0 + (c % 5) as f32 * 20.0))
            .collect()
    });
    stream.chain(synthetic).collect()
}

fn digest(cfg: &OnlinePredictorConfig, events: &[FleetEvent]) -> (Digests, usize) {
    let mut predictor = OnlinePredictor::new(cfg);
    let alarms: Vec<Alarm> = events.iter().filter_map(|e| predictor.observe(e)).collect();
    predictor.finish();

    let mut h = Fnv::new();
    for a in &alarms {
        h.bytes(&a.disk_id.to_le_bytes())
            .bytes(&a.day.to_le_bytes())
            .bytes(&a.score.to_bits().to_le_bytes());
    }
    let alarm_digest = h.0;

    let json = serde_json::to_string(&predictor).expect("serialize the predictor");
    let state = serde_json::value_from_str(&json).expect("parse the predictor");
    let mut h = Fnv::new();
    for key in ["scaler", "forest", "labeller"] {
        h.bytes(serde_json::value_to_string(part(&state, key)).as_bytes());
    }
    if cfg.adapt.is_some() {
        h.bytes(serde_json::value_to_string(part(&state, "adaptive")).as_bytes());
    }
    let model_digest = h.0;

    let mut h = Fnv::new();
    for row in probes(events, cfg.domain_schema().n_features()) {
        h.bytes(&predictor.score_row(&row).to_bits().to_le_bytes());
    }
    let probe_digest = h.0;

    let mut serve = ServeConfig::new(cfg.clone());
    serve.n_shards = 2;
    let engine = Engine::new(&serve);
    engine
        .ingest_batch(events.iter().cloned())
        .expect("the engine takes the stream");
    let fin = engine.finish().expect("clean shutdown");
    assert_eq!(fin.alarms, alarms, "the engine raises the serial alarms");
    let ck = serde_json::to_string(&fin.checkpoint).expect("serialize the checkpoint");
    let engine_digest = Fnv::new().bytes(ck.as_bytes()).0;

    (
        [alarm_digest, model_digest, probe_digest, engine_digest],
        alarms.len(),
    )
}

#[test]
fn model_bits_match_the_pinned_digests() {
    let runs: [(&str, OnlinePredictorConfig, Vec<FleetEvent>); 4] = [
        (
            "sta",
            OnlinePredictorConfig::new(table2_feature_columns(), 42),
            default_stream(FleetConfig::sta(ScalePreset::Tiny, 11)),
        ),
        (
            "stb",
            OnlinePredictorConfig::new(table2_feature_columns(), 43),
            default_stream(FleetConfig::stb(ScalePreset::Tiny, 12)),
        ),
        ("mce", mce_cfg(), mce_events()),
        ("sta_replace", replace_cfg(), adapt_stream()),
    ];
    let pinned = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    let mut mismatches = Vec::new();
    for ((name, cfg, events), (pinned_name, expected)) in runs.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        let (got, n_alarms) = digest(cfg, events);
        println!("{name}: {n_alarms} alarms, digests {got:#018x?}");
        if got != expected {
            mismatches.push(format!(
                "{name}: got {got:#018x?}, pinned {expected:#018x?}"
            ));
        }
    }
    if pinned {
        assert!(
            mismatches.is_empty(),
            "model bits changed (alarms, model state, probe scores, engine checkpoint):\n{}",
            mismatches.join("\n")
        );
    }
}

/// Assert one leg's digests on the pinned platform; print them everywhere.
fn assert_pinned(name: &str, got: &[u64], pinned: &[u64]) {
    println!("{name}: digests {got:#018x?}");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(got, pinned, "{name}: model bits changed");
    }
}

#[test]
fn stream_orf_bits_match_the_pinned_digests() {
    let fleet = trimmed(FleetConfig::sta(ScalePreset::Tiny, 11));
    let ds = FleetSim::collect(&fleet);
    let all = vec![true; ds.disks.len()];
    let labels = training_labels(&ds, &all, ds.duration_days, 7);
    let orf = OrfConfig {
        n_trees: 12,
        n_tests: 60,
        min_parent_size: 40.0,
        min_gain: 0.02,
        warmup_age: 10,
        ..OrfConfig::default()
    };
    let OnlineModel { forest, scaler, .. } =
        stream_orf(&ds, &labels, &table2_feature_columns(), &orf, 7);
    assert_eq!(forest.samples_seen(), labels.len() as u64);
    let splits: usize = forest.tree_stats().iter().map(|&(_, _, s)| s).sum();
    assert!(splits > 0, "the pinned forest must split");
    assert_eq!(forest.trees_replaced(), 0, "no tree may regrow in this leg");

    let mut h = Fnv::new();
    h.bytes(serde_json::to_string(&scaler).unwrap().as_bytes())
        .bytes(serde_json::to_string(&forest).unwrap().as_bytes());
    let model_digest = h.0;
    let mut h = Fnv::new();
    let mut scaled = vec![0.0f32; scaler.n_outputs()];
    for row in probes(&default_stream(fleet), N_FEATURES) {
        scaler.transform_into(&row, &mut scaled);
        h.bytes(&forest.score(&scaled).to_bits().to_le_bytes());
    }
    assert_pinned("stream_orf", &[model_digest, h.0], &PINNED_STREAM_ORF);
}

#[test]
fn run_streaming_bits_match_the_pinned_digest() {
    let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 23);
    fleet.n_good = 150;
    fleet.n_failed = 35;
    fleet.duration_days = 400;
    let mut cfg = StreamingConfig::new(table2_feature_columns(), 9);
    cfg.target_far = 0.05;
    cfg.forest.n_trees = 12;
    cfg.orf.n_trees = 12;
    cfg.orf.n_tests = 80;
    cfg.orf.min_parent_size = 40.0;
    cfg.orf.warmup_age = 10;
    let r = run_streaming(&fleet, &cfg);

    let mut h = Fnv::new();
    for m in [&r.rf, &r.orf] {
        let ModelOutcome { fdr, far, tau, auc } = *m;
        h.bytes(&fdr.to_bits().to_le_bytes())
            .bytes(&far.to_bits().to_le_bytes())
            .bytes(&tau.to_bits().to_le_bytes())
            .bytes(&auc.to_bits().to_le_bytes());
    }
    for n in [
        r.n_train_pos as u64,
        r.n_train_neg as u64,
        r.n_train_neg_total,
        r.n_test_failed as u64,
        r.n_test_good as u64,
        r.n_samples,
    ] {
        h.bytes(&n.to_le_bytes());
    }
    assert_pinned("run_streaming", &[h.0], &[PINNED_RUN_STREAMING]);
}
