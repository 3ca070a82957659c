//! In-process replays of a workload's event stream: the reference alarm
//! stream the daemon must reproduce, and the traced pass that times each
//! layer's public functions.

use crate::workload::{inputs, set_template_day, Body, Inputs, Scale, Workload};
use orfpred_core::{
    Alarm, OnlineLabeller, OnlinePredictor, OnlinePredictorConfig, OnlineRandomForest,
};
use orfpred_fleet::{read_frame, ClientFrame};
use orfpred_serve::{pad_features, Checkpoint, Engine, Request, ServeConfig};
use orfpred_smart::gen::{FleetEvent, FleetSim};
use orfpred_smart::record::DiskDay;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::DomainSchema;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A traced layer: the public calls the trace wraps in spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `fleet::wire::read_frame` + `ClientFrame::decode` + row padding.
    WireDecode,
    /// `serve::protocol::Request::parse` + row padding.
    ProtocolParse,
    /// `OnlineLabeller::observe_sample` / `observe_failure`.
    Labeller,
    /// `OnlineMinMax::update` / `transform_into`.
    Scale,
    /// `OnlineRandomForest::update`.
    ForestUpdate,
    /// `OnlineRandomForest::score` of the fresh row (the live score).
    ForestScore,
    /// `OnlineRandomForest::freeze` + scaler copy (snapshot publish).
    Freeze,
    /// `FrozenForest::score` of one probe row against a snapshot.
    FrozenScore,
    /// `Checkpoint::load`.
    CheckpointLoad,
    /// `Checkpoint::save_atomic`.
    CheckpointSave,
}

/// Every layer with its report name.
pub const LAYERS: [(Layer, &str); 10] = [
    (Layer::WireDecode, "fleet.wire.decode"),
    (Layer::ProtocolParse, "serve.protocol.parse"),
    (Layer::Labeller, "core.labeller"),
    (Layer::Scale, "smart.scale"),
    (Layer::ForestUpdate, "core.forest.update"),
    (Layer::ForestScore, "core.forest.score"),
    (Layer::Freeze, "core.forest.freeze"),
    (Layer::FrozenScore, "trees.frozen.score"),
    (Layer::CheckpointLoad, "serve.checkpoint.load"),
    (Layer::CheckpointSave, "serve.checkpoint.save"),
];

/// Aggregate of one layer's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanSummary {
    /// Calls timed.
    pub count: u64,
    /// Total time (ns).
    pub total_ns: u64,
    /// Mean per call (ns); 0 without calls.
    pub mean_ns: f64,
    /// Nearest-rank median (ns).
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile (ns), when ten calls lie beyond it.
    pub p99_ns: Option<u64>,
}

/// Span durations kept in memory, one list per layer, summarised at the
/// end. Recording can be switched off (untraced prefix replays).
pub struct Ledger {
    on: bool,
    spans: Vec<Vec<u32>>,
}

impl Ledger {
    /// An empty ledger, recording iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: vec![Vec::new(); LAYERS.len()],
        }
    }

    /// Switch recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f`, recording its duration under `layer` when on.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.spans[layer as usize].push(ns);
        out
    }

    /// Aggregate `layer`'s spans.
    pub fn summary(&self, layer: Layer) -> SpanSummary {
        let mut d = self.spans[layer as usize].clone();
        d.sort_unstable();
        let total_ns: u64 = d.iter().map(|&x| u64::from(x)).sum();
        let n = d.len();
        SpanSummary {
            count: n as u64,
            total_ns,
            mean_ns: if n == 0 {
                0.0
            } else {
                total_ns as f64 / n as f64
            },
            p50_ns: crate::stats::nearest_rank(&d, 0.5).map_or(0, u64::from),
            p99_ns: crate::stats::tail_supported(n, 0.99)
                .then(|| crate::stats::nearest_rank(&d, 0.99).map_or(0, u64::from)),
        }
    }
}

/// Algorithm 2 composed from its layers' public parts, in exactly the
/// order `OnlinePredictor` (and the serve engine's writer) applies them,
/// with a span around each call. Only for configs without prep, adaptation
/// or a window stage, which no workload uses.
pub struct Pipeline {
    labeller: OnlineLabeller,
    scaler: OnlineMinMax,
    forest: OnlineRandomForest,
    threshold: f32,
    scratch: Vec<f32>,
    snapshot_every: u64,
    applied_samples: u64,
    /// Rows scored against every published snapshot.
    probe_rows: Vec<Vec<f32>>,
    /// Snapshot footprint at the last publish (bytes).
    pub frozen_bytes: usize,
}

impl Pipeline {
    /// A fresh pipeline; publishes a snapshot every `snapshot_every`
    /// applied samples like the serve writer.
    pub fn new(
        cfg: &OnlinePredictorConfig,
        snapshot_every: u64,
        probe_rows: Vec<Vec<f32>>,
    ) -> Self {
        assert!(
            cfg.prep.is_none() && cfg.adapt.is_none() && cfg.window_stage().is_none(),
            "the traced pipeline composes only labeller, scaler and forest"
        );
        Self {
            labeller: OnlineLabeller::new(cfg.window_days),
            scaler: OnlineMinMax::new_log1p(&cfg.feature_cols),
            forest: OnlineRandomForest::new(cfg.feature_cols.len(), cfg.orf.clone(), cfg.seed),
            threshold: cfg.alarm_threshold,
            scratch: vec![0.0; cfg.feature_cols.len()],
            snapshot_every: snapshot_every.max(1),
            applied_samples: 0,
            probe_rows,
            frozen_bytes: 0,
        }
    }

    /// Apply one event; returns the alarm it raised.
    pub fn observe(&mut self, ev: &FleetEvent, led: &mut Ledger) -> Option<Alarm> {
        match ev {
            FleetEvent::Sample(rec) => self.observe_sample(rec, led),
            FleetEvent::Failure { disk_id, .. } => {
                let released =
                    led.time(Layer::Labeller, || self.labeller.observe_failure(*disk_id));
                for rel in released {
                    self.train(&rel.features, true, led);
                }
                None
            }
        }
    }

    fn train(&mut self, features: &[f32], positive: bool, led: &mut Ledger) {
        led.time(Layer::Scale, || {
            self.scaler.transform_into(features, &mut self.scratch)
        });
        led.time(Layer::ForestUpdate, || {
            self.forest.update(&self.scratch, positive)
        });
    }

    fn observe_sample(&mut self, rec: &DiskDay, led: &mut Ledger) -> Option<Alarm> {
        led.time(Layer::Scale, || self.scaler.update(&rec.features));
        let released = led.time(Layer::Labeller, || {
            self.labeller
                .observe_sample(rec.disk_id, rec.day, &rec.features)
        });
        if let Some(rel) = released {
            self.train(&rel.features, rel.positive, led);
        }
        led.time(Layer::Scale, || {
            self.scaler.transform_into(&rec.features, &mut self.scratch)
        });
        let score = led.time(Layer::ForestScore, || self.forest.score(&self.scratch));
        self.applied_samples += 1;
        if self.applied_samples.is_multiple_of(self.snapshot_every) {
            self.publish(led);
        }
        (score >= self.threshold).then_some(Alarm {
            disk_id: rec.disk_id,
            day: rec.day,
            score,
        })
    }

    /// Freeze a snapshot as the serve writer does, then score the probe
    /// rows against it one at a time, as `score` requests do.
    fn publish(&mut self, led: &mut Ledger) {
        let (frozen, scaler) = led.time(Layer::Freeze, || {
            (self.forest.freeze(), self.scaler.clone())
        });
        self.frozen_bytes = frozen.memory_bytes();
        let mut scaled = vec![0.0f32; scaler.n_outputs()];
        for row in &self.probe_rows {
            scaler.transform_into(row, &mut scaled);
            std::hint::black_box(led.time(Layer::FrozenScore, || frozen.score(&scaled)));
        }
    }

    /// The forest (end-of-replay counters).
    pub fn forest(&self) -> &OnlineRandomForest {
        &self.forest
    }

    /// Samples still queued unlabelled.
    pub fn pending(&self) -> usize {
        self.labeller.n_pending()
    }
}

/// The reference replay (`OnlinePredictor`, the repository's Algorithm 2
/// reference) or the traced composition of its layers.
enum Replayer {
    Reference(Box<OnlinePredictor>),
    Traced(Box<Pipeline>),
}

impl Replayer {
    fn new(w: Workload, traced: bool, probe_rows: Vec<Vec<f32>>) -> Self {
        let (cfg, snapshot_every) = w.predictor();
        if traced {
            Replayer::Traced(Box::new(Pipeline::new(&cfg, snapshot_every, probe_rows)))
        } else {
            Replayer::Reference(Box::new(OnlinePredictor::new(&cfg)))
        }
    }

    fn observe(&mut self, ev: &FleetEvent, led: &mut Ledger) -> Option<Alarm> {
        match self {
            Replayer::Reference(p) => p.observe(ev),
            Replayer::Traced(p) => p.observe(ev, led),
        }
    }
}

/// End-of-replay model counters of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct TraceCounts {
    /// Events replayed in the timed part.
    pub events: u64,
    /// Bytes those events took on the wire (ORFB or line-JSON).
    pub wire_bytes: u64,
    /// Trees discarded and regrown.
    pub trees_replaced: u64,
    /// Live nodes across all trees at the end.
    pub nodes_end: u64,
    /// Candidate-test pool footprint at the end (bytes).
    pub test_pool_bytes: u64,
    /// Snapshot footprint at the last publish (bytes).
    pub frozen_bytes: u64,
    /// Samples still queued at the end.
    pub pending_end: u64,
    /// Checkpoint file size (bytes; restart only).
    pub checkpoint_bytes: u64,
}

/// What a workload's daemon output is checked against.
pub struct Reference {
    /// Expected alarm stream of the timed part, in stream order.
    pub alarms: Vec<Alarm>,
    /// Restart workload: the checkpoint every daemon restores from.
    pub checkpoint: Option<PathBuf>,
    /// The traced pass's spans and counters (traced runs only).
    pub trace: Option<(Ledger, TraceCounts)>,
}

fn add_counts(counts: &mut TraceCounts, p: &Pipeline) {
    let f = p.forest();
    counts.trees_replaced += f.trees_replaced();
    counts.nodes_end += f
        .tree_stats()
        .iter()
        .map(|&(_, _, splits)| 2 * splits as u64 + 1)
        .sum::<u64>();
    counts.test_pool_bytes += f.test_pool_bytes() as u64;
    counts.frozen_bytes += p.frozen_bytes as u64;
    counts.pending_end += p.pending() as u64;
}

/// Decode one binary session's event frames exactly as the daemon's
/// session loop does, feeding each event to `sink`.
fn decode_frames(
    mut body: &[u8],
    led: &mut Ledger,
    mut sink: impl FnMut(&FleetEvent, &mut Ledger),
) {
    let n_base = DomainSchema::smart().n_base_features();
    while !body.is_empty() {
        let ev = led.time(Layer::WireDecode, || {
            let (op, payload) = read_frame(&mut body)
                .expect("benchmark frames are well-formed")
                .expect("not at end of buffer");
            match ClientFrame::decode(op, &payload).expect("benchmark frames decode") {
                ClientFrame::Sample {
                    disk_id,
                    day,
                    features,
                } => FleetEvent::Sample(DiskDay {
                    disk_id,
                    day,
                    features: pad_features(&features, n_base),
                }),
                ClientFrame::Failure { disk_id, day } => FleetEvent::Failure { disk_id, day },
                other => panic!("not an event frame: {other:?}"),
            }
        });
        sink(&ev, led);
    }
}

/// Parse one line-JSON event exactly as the classic daemon does.
fn parse_line(line: &str, led: &mut Ledger) -> FleetEvent {
    let n_base = DomainSchema::smart().n_base_features();
    led.time(Layer::ProtocolParse, || {
        match Request::parse(line).expect("benchmark lines parse") {
            Request::Sample {
                disk_id,
                day,
                features,
            } => FleetEvent::Sample(DiskDay {
                disk_id,
                day,
                features: pad_features(&features, n_base),
            }),
            Request::Failure { disk_id, day } => FleetEvent::Failure { disk_id, day },
            other => panic!("not an event line: {other:?}"),
        }
    })
}

/// Build a workload's inputs and replay them in-process: the reference
/// alarm stream, plus spans and counters when `traced`. The restart
/// workload first replays its prefix through an in-process serve engine
/// with the daemon's default configuration and writes the checkpoint
/// every daemon restores from into `workdir`.
pub fn prepare(
    w: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    workdir: &Path,
) -> (Reference, Inputs) {
    let mut inp = inputs(w, scale, seed);
    let mut led = Ledger::new(false);
    let mut counts = TraceCounts {
        wire_bytes: inp.bytes(),
        ..TraceCounts::default()
    };
    let mut alarms = Vec::new();
    let mut checkpoint = None;
    match &mut inp {
        // A one-tree forest behind a threshold of 2 raises nothing, so the
        // wire-only workload is replayed only to trace it.
        Inputs::Lanes { .. } if w == Workload::FleetWire && !traced => {}
        Inputs::Lanes { lanes, probe_rows } => {
            led.set_on(traced);
            for lane in lanes.iter_mut() {
                for s in &lane.sessions {
                    let mut r = Replayer::new(w, traced, probe_rows.clone());
                    let mut sink = |ev: &FleetEvent, led: &mut Ledger| {
                        counts.events += 1;
                        alarms.extend(r.observe(ev, led));
                    };
                    match s.body {
                        Body::Frames(ref b) => decode_frames(b, &mut led, &mut sink),
                        Body::Days(days) => {
                            for day in 0..days {
                                set_template_day(&mut lane.day_template, day);
                                decode_frames(&lane.day_template, &mut led, &mut sink);
                            }
                        }
                    }
                    if let Replayer::Traced(p) = &r {
                        add_counts(&mut counts, p);
                    }
                }
            }
        }
        Inputs::Lines { bytes, .. } => {
            let (cfg, _) = w.predictor();
            let mut serve = ServeConfig::new(cfg);
            serve.n_shards = 2;
            let engine = Engine::new(&serve);
            let mut r = Replayer::new(w, traced, Vec::new());
            for ev in FleetSim::new(&w.fleet(scale, seed)).take(Workload::restart_prefix(scale)) {
                engine
                    .ingest(ev.clone())
                    .expect("in-process engine ingests");
                r.observe(&ev, &mut led);
            }
            let path = workdir.join("restart-master.json");
            engine
                .finish()
                .expect("in-process engine finishes")
                .checkpoint
                .save_atomic(&path)
                .expect("write the restart checkpoint");
            counts.checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

            led.set_on(traced);
            for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                let line = std::str::from_utf8(line).expect("benchmark lines are UTF-8");
                counts.events += 1;
                let ev = parse_line(line, &mut led);
                alarms.extend(r.observe(&ev, &mut led));
            }
            if let Replayer::Traced(p) = &r {
                add_counts(&mut counts, p);
                let ck = led.time(Layer::CheckpointLoad, || {
                    Checkpoint::load(&path).expect("the checkpoint just written loads")
                });
                let copy = workdir.join("restart-save.json");
                led.time(Layer::CheckpointSave, || {
                    ck.save_atomic(&copy).expect("write a checkpoint copy")
                });
                std::fs::remove_file(&copy).ok();
            }
            checkpoint = Some(path);
        }
    }
    let reference = Reference {
        alarms,
        checkpoint,
        trace: traced.then_some((led, counts)),
    };
    (reference, inp)
}

/// Compare the daemon's alarms (gathered from every connection, in any
/// interleaving) with the reference: equal disk, day and score bits, one
/// for one. Returns the first divergence.
pub fn check_alarms(expected: &[Alarm], got: &[Alarm]) -> Result<(), String> {
    let key = |a: &Alarm| (a.day, a.disk_id);
    let mut exp = expected.to_vec();
    let mut got = got.to_vec();
    exp.sort_by_key(key);
    got.sort_by_key(key);
    for (i, (e, g)) in exp.iter().zip(&got).enumerate() {
        if key(e) != key(g) || e.score.to_bits() != g.score.to_bits() {
            return Err(format!(
                "alarm {i} diverges: expected disk {} day {} score {}, daemon sent disk {} day {} score {}",
                e.disk_id, e.day, e.score, g.disk_id, g.day, g.score
            ));
        }
    }
    if exp.len() != got.len() {
        return Err(format!(
            "expected {} alarms, daemon sent {}",
            exp.len(),
            got.len()
        ));
    }
    Ok(())
}
