//! The sharded serving engine.
//!
//! ```text
//!                      ┌────────── shard 0 (labeller part) ──────┐
//!  ingest_batch ───┬──▶│ queue │ Algorithm 2 labelling           │──┐
//!  (stamps global  │   └─────────────────────────────────────────┘  │   ┌─────────────┐
//!   sequence nums, │   ┌────────── shard 1 ──────────────────────┐  ├──▶│ model writer│──▶ alarms
//!   fills one      ├──▶│   ...                                   │──┤   │ (reorders by│──▶ checkpoints
//!   outbox per     │   └─────────────────────────────────────────┘  │   │  seq; owns  │──▶ snapshot ─▶ score/stats
//!   shard)         └──▶ ...                                         │   │  ORF+scaler)│
//!                                                                   └──▶└─────────────┘
//! ```
//!
//! Disks are partitioned over shards by a hash of `disk_id`; each shard
//! owns its slice of the per-disk labelling queues (Algorithm 2 state) and
//! turns raw events into labelled training samples. Labelled events flow
//! over bounded channels into the single **model writer**, which owns the
//! ORF and the streaming scaler.
//!
//! # Batched hand-offs
//!
//! [`Engine::ingest_batch`] is the only way in ([`Engine::ingest`] is a
//! batch of one). One call takes the ingest lock once, stamps every event,
//! and sends each shard its events as one message; the shard forwards one
//! vector of labelled events to the writer. A batch of `B` events over `N`
//! shards thus costs about `2N` channel sends instead of `2B`.
//! `queue_capacity` still counts events: a send first takes room for its
//! events in the shard, so a shard never holds more than that many,
//! whether they came one per message or a batch per message.
//!
//! # Determinism
//!
//! The ingest path stamps every event with a global, contiguous sequence
//! number, and the writer applies events in exactly that order (a small
//! reorder buffer absorbs cross-shard skew; its size is bounded by the
//! channel capacities, which also provide backpressure). Because labelling
//! is a pure per-disk function and per-disk order is preserved (a disk maps
//! to one shard; channels are FIFO), the writer sees, for every event, the
//! same released training samples a single-threaded [`OnlinePredictor`]
//! replay would produce — and applies scaler updates, forest updates, and
//! scoring in the identical order. The alarm stream is therefore identical
//! for **any** shard count.
//!
//! # Checkpoints
//!
//! A checkpoint request takes one sequence number and is broadcast to all
//! shards; each shard forwards its labelling-queue snapshot at that point
//! in its stream. When the writer has applied everything before the
//! checkpoint's sequence number and holds all shard snapshots, the merged
//! state is written atomically. A restored engine resumes byte-identically:
//! feeding the same remaining events yields the same alarms and the same
//! final checkpoint bytes. Shutdown is the same barrier, and the writer
//! builds the final checkpoint the same way, so a shard that died before
//! it leaves no final state: `finish` and `suspend` fail instead.
//!
//! [`OnlinePredictor`]: orfpred_core::OnlinePredictor

use crate::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use crate::fault::{FaultInjector, NoFaults};
use crate::stats::{ServeStats, StatsReport};
use orfpred_core::{
    AdaptiveState, Alarm, OnlineLabeller, OnlinePredictorConfig, OnlineRandomForest, ReleasedSample,
};
use orfpred_prep::Preprocessor;
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use orfpred_trees::FrozenForest;
use parking_lot::Mutex;
use std::collections::{BinaryHeap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Route a disk to its shard. Stable across restarts (and used to
/// re-partition restored labelling queues), uniform via splitmix64.
pub fn shard_of(disk_id: u32, n_shards: usize) -> usize {
    let mut s = u64::from(disk_id) ^ 0x6f72_6670_7265_6421;
    (orfpred_util::rng::splitmix64(&mut s) % n_shards as u64) as usize
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The Algorithm 2 pipeline to run (hyper-parameters, window, alarm
    /// threshold, feature columns, seed).
    pub predictor: OnlinePredictorConfig,
    /// Number of labelling shards (threads). Alarms are identical for any
    /// value; more shards increase ingest throughput.
    pub n_shards: usize,
    /// Bounded capacity of each shard's input queue, in events; a full
    /// queue blocks `ingest_batch` (backpressure).
    pub queue_capacity: usize,
    /// Publish a fresh scoring snapshot every this many applied samples.
    pub snapshot_every: u64,
    /// Fault-injection points ([`NoFaults`] in production). Consulted by
    /// the shard loops (kill / delayed delivery) and the checkpoint
    /// writer; the testkit installs seeded fault plans here.
    pub injector: Arc<dyn FaultInjector>,
}

impl ServeConfig {
    /// Defaults: 4 shards, 1024-event queues, snapshot every 256 samples,
    /// no fault injection.
    pub fn new(predictor: OnlinePredictorConfig) -> Self {
        Self {
            predictor,
            n_shards: 4,
            queue_capacity: 1024,
            snapshot_every: 256,
            injector: Arc::new(NoFaults),
        }
    }
}

/// Immutable published model state, what `score` requests read. Readers
/// clone its `Arc` under a mutex held only for that clone and score on
/// frozen state, so they never wait on training.
pub struct ModelSnapshot {
    /// Streaming scaler state at publication time.
    pub scaler: OnlineMinMax,
    /// The forest at publication time, compiled to the flat scoring
    /// representation (no candidate-test pools, no growth state).
    pub forest: FrozenForest,
}

impl ModelSnapshot {
    /// Score a full-width feature row against this frozen model.
    pub fn score(&self, features: &[f32]) -> f32 {
        let mut scaled = vec![0.0f32; self.scaler.n_outputs()];
        self.scaler.transform_into(features, &mut scaled);
        self.forest.score(&scaled)
    }
}

/// Why an engine call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The engine has been shut down (or its writer died).
    ShuttingDown,
    /// A worker thread panicked; the engine's state is unrecoverable and
    /// the caller should restore from the last checkpoint.
    WorkerPanicked,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => f.write_str("serving engine is shutting down"),
            ServeError::WorkerPanicked => {
                f.write_str("a serving engine thread panicked; restore from the last checkpoint")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything a finished engine hands back.
pub struct Finished {
    /// Every alarm raised over the engine's lifetime (in stream order).
    pub alarms: Vec<Alarm>,
    /// Final state, identical to what a checkpoint at shutdown would hold.
    pub checkpoint: Checkpoint,
}

/// Ingest-side message to a shard.
enum ShardMsg {
    /// A run of stream events routed to this shard, each stamped with its
    /// global sequence number (ascending, at most the queue capacity).
    Events(Vec<(u64, FleetEvent)>),
    /// Checkpoint barrier: forward a labeller snapshot to the writer.
    Checkpoint(u64),
    /// Final barrier: hand the labeller to the writer and exit.
    Shutdown(u64),
}

/// Shard-side message to the model writer. Shards forward them in
/// vectors, one per [`ShardMsg`] they handle.
enum WriterMsg {
    Sample {
        seq: u64,
        rec: DiskDay,
        released: Option<ReleasedSample>,
    },
    Failure {
        seq: u64,
        flushed: Vec<ReleasedSample>,
    },
    /// The shard's labelling queues at a checkpoint or shutdown barrier
    /// (which one is told by the barrier's [`CheckpointRequest`]).
    Marker { seq: u64, labeller: OnlineLabeller },
}

impl WriterMsg {
    fn seq(&self) -> u64 {
        match self {
            WriterMsg::Sample { seq, .. }
            | WriterMsg::Failure { seq, .. }
            | WriterMsg::Marker { seq, .. } => *seq,
        }
    }
}

/// Min-heap adapter: BinaryHeap is a max-heap, so order by reversed seq.
struct BySeq(WriterMsg);

impl PartialEq for BySeq {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq() == other.0.seq()
    }
}
impl Eq for BySeq {}
impl PartialOrd for BySeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BySeq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.seq().cmp(&self.0.seq())
    }
}

/// A barrier's share of its checkpoint, queued under the ingest lock in
/// barrier order: the ingest-side state at the barrier (the writer owns
/// everything else the checkpoint needs) and where the checkpoint goes.
struct CheckpointRequest {
    /// Target path and the `checkpoint` caller's wakeup; `None` at the
    /// shutdown barrier, whose checkpoint the writer returns instead.
    save: Option<(PathBuf, SyncSender<Result<(), String>>)>,
    /// Raw events offered to `ingest` before the barrier — the store
    /// catch-up cursor (pre-prep, so it matches what the store replays).
    raw_events: u64,
    /// Preprocessing state at the barrier.
    prep: Option<Preprocessor>,
    /// Window-stage state at the barrier (per-disk derived-feature
    /// history); restored so recovery extends rows bit-identically.
    window: Option<WindowStage>,
}

/// Mutable ingest-side state, serialized by one mutex so sequence stamping
/// and channel sends stay atomic (per-disk FIFO order is what the
/// determinism argument rests on). The preprocessing stage lives here too:
/// it must see raw events in arrival order, before sharding.
struct IngestState {
    next_seq: u64,
    txs: Option<Vec<SyncSender<ShardMsg>>>,
    /// Raw events offered to `ingest` (pre-prep); the checkpoint cursor.
    raw_events: u64,
    /// Optional repair/hold stage between the raw stream and the shards.
    prep: Option<Preprocessor>,
    /// Schema-driven sliding-window derived-feature stage, after prep and
    /// before sharding. It lives under the ingest lock for the same reason
    /// prep does: per-disk state must see the disk's rows in arrival
    /// order, which is what keeps N-shard == serial bit-exact (DESIGN §15).
    /// `None` when the domain's derived plan is empty.
    window: Option<WindowStage>,
    /// Reusable scratch buffer for prep output (0..n events per raw one).
    prep_buf: Vec<FleetEvent>,
    /// Per-shard outboxes of stamped events. A batch fills them and sends
    /// each as one message; they are empty whenever the lock is free.
    outboxes: Vec<Vec<(u64, FleetEvent)>>,
    /// Per-shard event credit: a send first takes room for its events.
    rooms: Vec<Arc<ShardRoom>>,
    /// The most events a shard holds (`ServeConfig::queue_capacity`), and
    /// so the most one message carries.
    capacity: usize,
}

impl IngestState {
    /// The ingest-side state of a barrier taken now.
    fn request(
        &self,
        save: Option<(PathBuf, SyncSender<Result<(), String>>)>,
    ) -> CheckpointRequest {
        CheckpointRequest {
            save,
            raw_events: self.raw_events,
            prep: self.prep.clone(),
            window: self.window.clone(),
        }
    }

    /// Feed raw events through prep and the window stage, stamp each
    /// resulting event with the next sequence number, and send the
    /// outboxes. Counters are updated once per call. Callers hold the
    /// ingest lock.
    fn ingest_raw(
        &mut self,
        events: impl IntoIterator<Item = FleetEvent>,
        stats: &ServeStats,
    ) -> Result<(), ServeError> {
        if self.txs.is_none() {
            return Err(ServeError::ShuttingDown);
        }
        let (mut samples, mut failures) = (0u64, 0u64);
        let mut buf = std::mem::take(&mut self.prep_buf);
        let mut result = Ok(());
        for event in events {
            // Raw-side accounting happens even when prep swallows the
            // event: the checkpoint cursor must match what the telemetry
            // store holds.
            match &event {
                FleetEvent::Sample(_) => samples += 1,
                FleetEvent::Failure { .. } => failures += 1,
            }
            self.raw_events += 1;
            result = match self.prep.as_mut() {
                Some(prep) => {
                    buf.clear();
                    prep.observe(&event, &mut buf);
                    buf.drain(..).try_for_each(|ev| self.stamp(ev, stats))
                }
                None => self.stamp(event, stats),
            };
            if result.is_err() {
                break;
            }
        }
        self.prep_buf = buf;
        result = result.and_then(|()| self.send_outboxes(stats));
        if result.is_err() {
            self.outboxes.iter_mut().for_each(Vec::clear);
        }
        stats.samples_ingested.fetch_add(samples, Ordering::Relaxed);
        stats
            .failures_ingested
            .fetch_add(failures, Ordering::Relaxed);
        stats.events_issued.store(self.next_seq, Ordering::Relaxed);
        result
    }

    /// Run the window stage on one prepped event, stamp it with the next
    /// global sequence number and append it to its shard's outbox; an
    /// outbox that reaches the queue capacity goes out at once.
    fn stamp(&mut self, mut event: FleetEvent, stats: &ServeStats) -> Result<(), ServeError> {
        // The window stage runs after prep and before sharding: rows grow
        // to full width here, so labeller queues and the writer only ever
        // see extended rows (mirroring the serial predictor's hook point
        // in `observe_sample_scored`).
        if let Some(w) = self.window.as_mut() {
            match &mut event {
                FleetEvent::Sample(rec) => w.extend(rec.disk_id, &mut rec.features),
                FleetEvent::Failure { disk_id, .. } => w.forget(*disk_id),
            }
        }
        let disk_id = match &event {
            FleetEvent::Sample(rec) => rec.disk_id,
            FleetEvent::Failure { disk_id, .. } => *disk_id,
        };
        let shard = shard_of(disk_id, self.outboxes.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        // lint: allow(panic_path, reason="shard < n_shards: shard_of reduces mod outboxes.len()")
        let outbox = &mut self.outboxes[shard];
        outbox.push((seq, event));
        if outbox.len() >= self.capacity {
            self.send_outbox(shard, stats)?;
        }
        Ok(())
    }

    /// Send every non-empty outbox to its shard, in shard order.
    fn send_outboxes(&mut self, stats: &ServeStats) -> Result<(), ServeError> {
        for shard in 0..self.outboxes.len() {
            self.send_outbox(shard, stats)?;
        }
        Ok(())
    }

    /// Send one shard's outbox as a single message. Blocks while the
    /// shard has no room for it (backpressure).
    fn send_outbox(&mut self, shard: usize, stats: &ServeStats) -> Result<(), ServeError> {
        // lint: allow(panic_path, reason="callers pass shard < n_shards == outboxes.len()")
        let events = std::mem::take(&mut self.outboxes[shard]);
        if events.is_empty() {
            return Ok(());
        }
        let txs = self.txs.as_ref().ok_or(ServeError::ShuttingDown)?;
        // lint: allow(panic_path, reason="shard < n_shards; rooms has one entry per shard")
        if !self.rooms[shard].take(events.len()) {
            return Err(ServeError::ShuttingDown); // the shard has exited
        }
        let n = events.len() as u64;
        // lint: allow(panic_path, reason="shard < n_shards; stats has one depth counter per shard")
        let depth = &stats.shard_depths[shard];
        depth.fetch_add(n, Ordering::Relaxed);
        // lint: allow(panic_path, reason="shard < n_shards; txs has one sender per shard")
        if txs[shard].send(ShardMsg::Events(events)).is_err() {
            depth.fetch_sub(n, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        Ok(())
    }
}

/// The events one shard has in flight — queued, being labelled, held back,
/// or on their way to the writer: ingest takes room for a message before
/// sending it and waits while there is none, and the writer gives the room
/// back as it receives the shard's labelled events. So a shard never has
/// more than the queue capacity in flight, whether its messages carry one
/// event or a whole batch.
struct ShardRoom {
    capacity: usize,
    credit: std::sync::Mutex<RoomState>,
    freed: std::sync::Condvar,
}

#[derive(Default)]
struct RoomState {
    held: usize,
    /// Room a waiting ingest needs; 0 when none waits.
    want: usize,
    /// The shard thread has exited; no room will ever be given back.
    closed: bool,
}

impl ShardRoom {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            credit: std::sync::Mutex::default(),
            freed: std::sync::Condvar::new(),
        }
    }

    fn counts(&self) -> std::sync::MutexGuard<'_, RoomState> {
        // The guarded section is plain arithmetic, so a poisoned lock still
        // holds consistent counts.
        self.credit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take room for `n ≤ capacity` events, waiting while the shard holds
    /// more than `capacity - n`. False when the shard has exited.
    fn take(&self, n: usize) -> bool {
        let mut st = self.counts();
        while !st.closed && st.held + n > self.capacity {
            st.want = n;
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.held += n;
        !st.closed
    }

    /// Give back the room of `n` events the writer has received. A waiting
    /// ingest is woken once half the capacity is free (or its message
    /// fits, if larger), so a full pipeline costs one wake-up per half
    /// queue rather than one per event.
    fn give(&self, n: usize) {
        let mut st = self.counts();
        st.held -= n;
        if st.want > 0 && st.held + st.want.max(self.capacity / 2) <= self.capacity {
            st.want = 0;
            self.freed.notify_one();
        }
    }

    /// Mark the shard gone and wake a waiting ingest.
    fn close(&self) {
        self.counts().closed = true;
        self.freed.notify_one();
    }

    /// The shard thread has exited.
    fn is_closed(&self) -> bool {
        self.counts().closed
    }
}

/// Closes its shard's room when the shard thread exits, by return or by
/// panic, so an ingest waiting for room fails instead of hanging.
struct CloseOnExit(Arc<ShardRoom>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The sharded serving engine. All methods take `&self`; the engine is
/// meant to be shared (e.g. in an `Arc`) between an ingest loop and any
/// number of scoring/stats readers.
pub struct Engine {
    ingest: Mutex<IngestState>,
    stats: Arc<ServeStats>,
    /// The latest published snapshot. The lock is held only to swap or
    /// clone the `Arc`, never while a snapshot is built or scored.
    snapshot: Arc<Mutex<Arc<ModelSnapshot>>>,
    fresh_alarms: Arc<Mutex<Vec<Alarm>>>,
    checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>>,
    shard_handles: Mutex<Vec<JoinHandle<()>>>,
    /// The writer returns its alarms and final checkpoint, or `None` when
    /// it stopped short of a complete shutdown barrier.
    writer_handle: Mutex<Option<JoinHandle<Option<Finished>>>>,
    n_shards: usize,
    /// The resolved telemetry domain (implicit SMART when the predictor
    /// config carries none). Scoring clients pad rows to its width.
    schema: DomainSchema,
}

/// The writer's share of a checkpoint: cloned at a checkpoint barrier and
/// moved out at the shutdown barrier.
#[derive(Clone)]
struct ModelState {
    scaler: OnlineMinMax,
    forest: OnlineRandomForest,
    /// Drift-triggered adaptation loop; `None` runs the writer without
    /// one. The writer owns it because rebuilds swap the forest —
    /// mirroring the serial predictor's hook point keeps N-shard == serial.
    adaptive: Option<AdaptiveState>,
    alarm_threshold: f32,
    alarms_raised: u64,
    /// The engine's resolved domain, embedded in every checkpoint so a
    /// restore against a different domain fails its fingerprint check.
    schema: DomainSchema,
}

impl ModelState {
    /// The scaler and the forest compiled to its frozen scoring form.
    fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::new(ModelSnapshot {
            scaler: self.scaler.clone(),
            forest: self.forest.freeze(),
        })
    }

    /// The checkpoint of the barrier at `seq`: this model, the shards'
    /// merged labelling queues, and the ingest-side state taken with the
    /// barrier. The only place the engine builds a checkpoint.
    fn checkpoint(self, seq: u64, labeller: OnlineLabeller, req: CheckpointRequest) -> Checkpoint {
        Checkpoint::Online {
            scaler: self.scaler,
            forest: self.forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: Some(labeller),
            alarm_threshold: Some(self.alarm_threshold),
            alarms_raised: Some(self.alarms_raised),
            next_seq: Some(seq + 1),
            events_ingested: Some(req.raw_events),
            prep: req.prep,
            adapt: self.adaptive,
            schema: Some(self.schema),
            window: req.window,
        }
    }
}

impl Engine {
    /// Start a fresh engine.
    pub fn new(cfg: &ServeConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Start an engine from a checkpoint (also accepts v1 `SavedModel`
    /// files holding only scaler + forest; serving state then starts
    /// empty). The shard count may differ from the checkpointing run —
    /// queues are re-partitioned.
    pub fn restore(cfg: &ServeConfig, checkpoint: Checkpoint) -> Self {
        Self::build(cfg, Some(checkpoint))
    }

    fn build(cfg: &ServeConfig, from: Option<Checkpoint>) -> Self {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert!(cfg.queue_capacity > 0, "need a positive queue capacity");
        let p = &cfg.predictor;
        // A fresh engine (or an older checkpoint without the fields) builds
        // the prep stage and adaptation loop from the predictor config; a
        // checkpoint that carries them resumes their exact state.
        let schema = p.domain_schema();
        let fresh_prep = || p.prep.as_ref().map(Preprocessor::new);
        let fresh_adapt = || {
            p.adapt
                .as_ref()
                .map(|a| AdaptiveState::new(a, p.feature_cols.len(), &p.orf, p.seed))
        };
        let fresh_window = || p.window_stage();
        let (model, labeller, start_seq, raw_events, prep, window) = match from {
            None => (
                ModelState {
                    scaler: OnlineMinMax::new_log1p(&p.feature_cols),
                    forest: OnlineRandomForest::new(p.feature_cols.len(), p.orf.clone(), p.seed),
                    adaptive: fresh_adapt(),
                    alarm_threshold: p.alarm_threshold,
                    alarms_raised: 0,
                    schema: schema.clone(),
                },
                OnlineLabeller::new(p.window_days),
                0,
                0,
                fresh_prep(),
                fresh_window(),
            ),
            Some(Checkpoint::Online {
                scaler,
                forest,
                labeller,
                alarm_threshold,
                alarms_raised,
                next_seq,
                events_ingested,
                prep,
                adapt,
                schema: ck_schema,
                window,
                version: _,
            }) => {
                // A checkpoint from a different domain would misalign every
                // feature column; fail loudly at restore time.
                if let Some(s) = &ck_schema {
                    assert_eq!(
                        s.fingerprint(),
                        schema.fingerprint(),
                        "checkpoint domain `{}` does not match the configured domain `{}`",
                        s.name,
                        schema.name
                    );
                }
                (
                    ModelState {
                        scaler,
                        forest,
                        adaptive: adapt.or_else(fresh_adapt),
                        alarm_threshold: alarm_threshold.unwrap_or(p.alarm_threshold),
                        alarms_raised: alarms_raised.unwrap_or(0),
                        schema: schema.clone(),
                    },
                    labeller.unwrap_or_else(|| OnlineLabeller::new(p.window_days)),
                    next_seq.unwrap_or(0),
                    events_ingested.unwrap_or(0),
                    prep.or_else(fresh_prep),
                    window.or_else(fresh_window),
                )
            }
        };

        let n = cfg.n_shards;
        let stats = Arc::new(ServeStats::new(n));
        stats.events_issued.store(start_seq, Ordering::Relaxed);
        stats.events_applied.store(start_seq, Ordering::Relaxed);
        if let Some(ad) = &model.adaptive {
            stats
                .drift_events
                .store(ad.drift_events(), Ordering::Relaxed);
            stats.model_rebuilds.store(ad.rebuilds(), Ordering::Relaxed);
        }
        let snapshot = Arc::new(Mutex::new(model.snapshot()));
        let fresh_alarms = Arc::new(Mutex::new(Vec::new()));
        let checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>> =
            Arc::new(Mutex::new(VecDeque::new()));

        // Writer channel: big enough that every in-flight shard event plus
        // one marker per shard fits (every message carries at least one
        // event or marker), so only the shards' event credit blocks.
        let (wtx, wrx) = sync_channel::<(usize, Vec<WriterMsg>)>(n * cfg.queue_capacity + n);
        let rooms: Vec<Arc<ShardRoom>> = (0..n)
            .map(|_| Arc::new(ShardRoom::new(cfg.queue_capacity)))
            .collect();

        let mut txs = Vec::with_capacity(n);
        let mut shard_handles = Vec::with_capacity(n);
        let mut parts = labeller.split_by(n, |d| shard_of(d, n));
        for (idx, part) in parts.drain(..).enumerate() {
            let (tx, rx) = sync_channel::<ShardMsg>(cfg.queue_capacity);
            txs.push(tx);
            let wtx = wtx.clone();
            let stats = Arc::clone(&stats);
            let injector = Arc::clone(&cfg.injector);
            // lint: allow(panic_path, reason="idx < n == rooms.len(): one room per shard")
            let room = Arc::clone(&rooms[idx]);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("orfpred-shard-{idx}"))
                    .spawn(move || {
                        let _close = CloseOnExit(room);
                        shard_loop(idx, rx, wtx, part, &stats, &*injector)
                    })
                    // lint: allow(panic_path, reason="construction-time spawn failure (OS out of threads) before any stream state exists; failing fast is the only sane recovery")
                    .expect("spawn shard thread"),
            );
        }
        drop(wtx);

        let writer = WriterThread {
            rx: wrx,
            rooms: rooms.clone(),
            model,
            next_seq: start_seq,
            n_shards: n,
            snapshot_every: cfg.snapshot_every.max(1),
            stats: Arc::clone(&stats),
            snapshot: Arc::clone(&snapshot),
            fresh_alarms: Arc::clone(&fresh_alarms),
            checkpoints: Arc::clone(&checkpoints),
            injector: Arc::clone(&cfg.injector),
        };
        let writer_handle = std::thread::Builder::new()
            .name("orfpred-writer".into())
            .spawn(move || writer.run())
            // lint: allow(panic_path, reason="construction-time spawn failure before any stream state exists; failing fast is the only sane recovery")
            .expect("spawn writer thread");

        Self {
            ingest: Mutex::new(IngestState {
                next_seq: start_seq,
                txs: Some(txs),
                raw_events,
                prep,
                window,
                prep_buf: Vec::new(),
                outboxes: (0..n).map(|_| Vec::new()).collect(),
                rooms,
                capacity: cfg.queue_capacity,
            }),
            stats,
            snapshot,
            fresh_alarms,
            checkpoints,
            shard_handles: Mutex::new(shard_handles),
            writer_handle: Mutex::new(Some(writer_handle)),
            n_shards: n,
            schema,
        }
    }

    /// Number of labelling shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The telemetry domain this engine serves (implicit SMART when the
    /// predictor config carries none).
    pub fn schema(&self) -> &DomainSchema {
        &self.schema
    }

    /// Full feature-row width (base + derived columns) of the domain.
    pub fn n_features(&self) -> usize {
        self.schema.n_features()
    }

    /// Feed one raw stream event: a batch of one (see [`Self::ingest_batch`]).
    pub fn ingest(&self, event: FleetEvent) -> Result<(), ServeError> {
        self.ingest_batch(std::iter::once(event))
    }

    /// Feed a run of raw stream events under one ingest-lock acquisition.
    /// The optional preprocessing stage runs here, before sequence
    /// stamping: one raw event becomes 0 (dropped / held) or more (held
    /// failures released) stamped events. Stamped events collect in
    /// per-shard outboxes, and each shard gets them as one message (a run
    /// of more than `queue_capacity` events for one shard goes out in
    /// several). Blocks while a target shard has no room for its message
    /// (backpressure) and returns an error after shutdown; no event stays
    /// in an outbox once this returns.
    pub fn ingest_batch(
        &self,
        events: impl IntoIterator<Item = FleetEvent>,
    ) -> Result<(), ServeError> {
        // Preprocessing, stamping seqs and enqueueing to the shards must be
        // one atomic step: two ingests racing between stamp and send could
        // invert per-disk order and break the N-shard == serial determinism
        // argument (DESIGN §8). The sends under this lock live in
        // `IngestState::send_outbox`.
        let mut st = self.ingest.lock();
        st.ingest_raw(events, &self.stats)
    }

    /// Score a full-width feature row against the latest published model
    /// snapshot. Waits only for the clone of the snapshot's `Arc`, never
    /// for training or ingest.
    pub fn score(&self, features: &[f32]) -> f32 {
        let snap = self.model_snapshot();
        let t0 = Instant::now();
        let score = snap.score(features);
        self.stats.score_latency.record(t0.elapsed());
        score
    }

    /// The latest published model snapshot.
    pub fn model_snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.snapshot.lock())
    }

    /// Point-in-time serving counters (including the prep stage's repair
    /// counters when one is configured).
    pub fn stats(&self) -> StatsReport {
        let mut report = self.stats.report();
        report.prep = self
            .ingest
            .lock()
            .prep
            .as_ref()
            .map(|p| p.counters().clone());
        report
    }

    /// Drain alarms raised since the last call (in stream order).
    pub fn take_alarms(&self) -> Vec<Alarm> {
        std::mem::take(&mut *self.fresh_alarms.lock())
    }

    /// Block until every event ingested before this call has been applied
    /// by the model writer (and is visible in alarms / the next snapshot).
    /// Fails instead of waiting forever once the writer can no longer get
    /// there: a shard thread or the writer has exited (a dead shard is
    /// [`ServeError::WorkerPanicked`]), or the engine is shutting down.
    pub fn flush(&self) -> Result<(), ServeError> {
        let (target, rooms) = {
            let st = self.ingest.lock();
            (st.next_seq, st.rooms.clone())
        };
        while self.stats.events_applied.load(Ordering::Acquire) < target {
            let writer_gone = self
                .writer_handle
                .lock()
                .as_ref()
                .is_none_or(JoinHandle::is_finished);
            if writer_gone || rooms.iter().any(|r| r.is_closed()) {
                // Shards exit at a shutdown barrier too: only a shard that
                // died while the engine still takes events is a crash.
                return Err(if self.ingest.lock().txs.is_some() {
                    ServeError::WorkerPanicked
                } else {
                    ServeError::ShuttingDown
                });
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        Ok(())
    }

    /// Write an atomic checkpoint of the full serving state to `path`.
    /// Blocks until the file is durably in place; events ingested after
    /// this call are not included.
    pub fn checkpoint(&self, path: &Path) -> Result<(), String> {
        let (done_tx, done_rx) = sync_channel(1);
        {
            // lint: allow(lock_discipline, reason="the checkpoint barrier must take one seq slot across every shard with no ingest interleaved, or shards would snapshot at different stream points; the sends are to bounded queues the shards are actively draining")
            let mut st = self.ingest.lock();
            let txs = st.txs.as_ref().ok_or("engine is shutting down")?;
            let seq = st.next_seq;
            self.checkpoints
                .lock()
                .push_back(st.request(Some((path.to_path_buf(), done_tx))));
            for tx in txs {
                tx.send(ShardMsg::Checkpoint(seq))
                    .map_err(|_| "a shard exited before the checkpoint".to_string())?;
            }
            st.next_seq += 1;
            self.stats
                .events_issued
                .store(st.next_seq, Ordering::Relaxed);
        }
        done_rx
            .recv()
            .map_err(|_| "the writer exited before completing the checkpoint".to_string())?
    }

    /// Shut down: barrier all shards, join every thread, and return the
    /// collected alarms plus the final state (the same state `checkpoint`
    /// would have written). Subsequent calls return `ShuttingDown`. When a
    /// shard or the writer died before the barrier completed there is no
    /// consistent final state, and this fails with
    /// [`ServeError::WorkerPanicked`]: restore from the last checkpoint.
    pub fn finish(&self) -> Result<Finished, ServeError> {
        self.shutdown(true)
    }

    /// Shut down *without* end-of-stream semantics: the prep stage keeps
    /// any failures it is still holding for their survival re-check, so
    /// the returned checkpoint can seed a successor engine that continues
    /// the stream bit-identically (live re-sharding). `finish()` on the
    /// same stream point would release held failures early and diverge
    /// from a serial run that kept going.
    ///
    /// The barrier consumes one sequence number — exactly like
    /// `checkpoint()` — so a reference run that calls `checkpoint()` where
    /// a fleet run suspends sees the same seq stream afterwards. Fails
    /// like `finish` when a shard died before the barrier.
    pub fn suspend(&self) -> Result<Finished, ServeError> {
        self.shutdown(false)
    }

    fn shutdown(&self, flush_prep: bool) -> Result<Finished, ServeError> {
        let (txs, seq) = {
            // The barrier takes the last seq and the shard senders under
            // the ingest lock, so no ingest or checkpoint can follow it.
            // Event sends under this lock go through
            // `IngestState::send_outbox`.
            let mut st = self.ingest.lock();
            if st.txs.is_none() {
                return Err(ServeError::ShuttingDown);
            }
            if flush_prep {
                // End-of-stream for the prep stage: failures still held for
                // their survival re-check enter the stream now, before the
                // shutdown barrier — exactly like `OnlinePredictor::finish`.
                // Late-released events pass through the window stage like
                // any other (they are failures, so this only drops state).
                let mut buf = Vec::new();
                if let Some(prep) = st.prep.as_mut() {
                    prep.finish(&mut buf);
                }
                // A dead shard is noticed at join time, like the barrier
                // sends below.
                let _ = buf
                    .into_iter()
                    .try_for_each(|ev| st.stamp(ev, &self.stats))
                    .and_then(|()| st.send_outboxes(&self.stats));
                st.outboxes.iter_mut().for_each(Vec::clear);
            }
            let txs = st.txs.take().ok_or(ServeError::ShuttingDown)?;
            let seq = st.next_seq;
            // The writer builds the final checkpoint at the barrier.
            self.checkpoints.lock().push_back(st.request(None));
            st.next_seq += 1;
            self.stats
                .events_issued
                .store(st.next_seq, Ordering::Relaxed);
            (txs, seq)
        };
        for tx in txs {
            // A shard that already died will be noticed at join time. The
            // sender drops here: the shard's channel closes once drained.
            let _ = tx.send(ShardMsg::Shutdown(seq));
        }
        let mut panicked = false;
        for h in self.shard_handles.lock().drain(..) {
            panicked |= h.join().is_err();
        }
        let writer = self
            .writer_handle
            .lock()
            .take()
            .ok_or(ServeError::ShuttingDown)?;
        let fin = writer.join().map_err(|_| ServeError::WorkerPanicked)?;
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        // No final checkpoint: a shard died, so the writer never applied
        // the shutdown barrier with every shard's labelling queues.
        fin.ok_or(ServeError::WorkerPanicked)
    }
}

/// Shard thread body: apply Algorithm 2 labelling for this shard's disks
/// and forward every event (with any released training samples attached)
/// to the model writer, one vector per message handled.
///
/// The injector hooks live here and fire per event: `kill_shard` makes the
/// thread die on the spot (labelling queues, held and queued events lost,
/// exactly like a crashed thread; what the message already labelled goes
/// out first, as a per-event shard would have sent it), and
/// `delay_to_writer` holds a labelled event back until that many later
/// events have been forwarded — injected delivery reordering the writer's
/// sequence-number reorder buffer must absorb. Held events are flushed
/// before any barrier so checkpoints and shutdown never wait on an
/// injected delay.
fn shard_loop(
    idx: usize,
    rx: Receiver<ShardMsg>,
    wtx: SyncSender<(usize, Vec<WriterMsg>)>,
    mut labeller: OnlineLabeller,
    stats: &ServeStats,
    injector: &dyn FaultInjector,
) {
    // Injected-delay holdback: (events still to let pass first, message).
    let mut held: Vec<(usize, WriterMsg)> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Events(events) => {
                let n = events.len();
                // lint: allow(panic_path, reason="idx is this shard's index, always < n_shards == shard_depths.len()")
                stats.shard_depths[idx].fetch_sub(n as u64, Ordering::Relaxed);
                let mut out = Vec::with_capacity(n);
                for (seq, event) in events {
                    if injector.kill_shard(idx, seq) {
                        // Simulated shard crash: abandon the labelling
                        // queues, the held messages, and the channel, as a
                        // real dead thread would. The engine reports
                        // ShuttingDown on the next ingest routed here;
                        // recovery is restore-from-checkpoint
                        // (tests/fault_shard.rs).
                        if !out.is_empty() {
                            let _ = wtx.send((idx, out));
                        }
                        return;
                    }
                    let labelled = match event {
                        FleetEvent::Sample(rec) => {
                            let released =
                                labeller.observe_sample(rec.disk_id, rec.day, &rec.features);
                            WriterMsg::Sample { seq, rec, released }
                        }
                        FleetEvent::Failure { disk_id, .. } => WriterMsg::Failure {
                            seq,
                            flushed: labeller.observe_failure(disk_id),
                        },
                    };
                    let delay = injector.delay_to_writer(idx, seq);
                    if delay > 0 {
                        held.push((delay, labelled));
                    } else {
                        out.push(labelled);
                    }
                    // One more event has gone past (or joined the
                    // holdback): tick every held entry and release the
                    // expired ones.
                    let mut i = 0;
                    while i < held.len() {
                        // lint: allow(panic_path, reason="i < held.len() is the loop condition; remove() below re-checks it")
                        held[i].0 -= 1;
                        // lint: allow(panic_path, reason="i < held.len() is the loop condition and i is not advanced since the check")
                        if held[i].0 == 0 {
                            out.push(held.remove(i).1);
                        } else {
                            i += 1;
                        }
                    }
                }
                if !out.is_empty() && wtx.send((idx, out)).is_err() {
                    return; // writer is gone; nothing left to do
                }
            }
            ShardMsg::Checkpoint(seq) => {
                let mut out: Vec<WriterMsg> = held.drain(..).map(|(_, m)| m).collect();
                out.push(WriterMsg::Marker {
                    seq,
                    labeller: labeller.clone(),
                });
                if wtx.send((idx, out)).is_err() {
                    return;
                }
            }
            ShardMsg::Shutdown(seq) => {
                let mut out: Vec<WriterMsg> = held.drain(..).map(|(_, m)| m).collect();
                out.push(WriterMsg::Marker { seq, labeller });
                let _ = wtx.send((idx, out));
                return;
            }
        }
    }
}

/// The model writer: single owner of the ORF and scaler, applying events
/// in global sequence order.
struct WriterThread {
    rx: Receiver<(usize, Vec<WriterMsg>)>,
    /// The shards' event credit, given back as their events arrive.
    rooms: Vec<Arc<ShardRoom>>,
    model: ModelState,
    next_seq: u64,
    n_shards: usize,
    snapshot_every: u64,
    stats: Arc<ServeStats>,
    snapshot: Arc<Mutex<Arc<ModelSnapshot>>>,
    fresh_alarms: Arc<Mutex<Vec<Alarm>>>,
    checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>>,
    injector: Arc<dyn FaultInjector>,
}

impl WriterThread {
    /// Apply the stream until the shutdown barrier, then return every
    /// alarm and the final checkpoint; `None` when the shards stopped
    /// short of a complete shutdown barrier.
    fn run(mut self) -> Option<Finished> {
        let mut heap: BinaryHeap<BySeq> = BinaryHeap::new();
        let mut scratch = vec![0.0f32; self.model.scaler.n_outputs()];
        let mut alarms: Vec<Alarm> = Vec::new();
        let mut applied_samples: u64 = 0;

        // The shutdown barrier's cut, or `None` when the shards stopped
        // short of it.
        let end = 'main: loop {
            // Pull until the next contiguous sequence number is buffered.
            while heap.peek().map(|m| m.0.seq()) != Some(self.next_seq) {
                if !self.receive(&mut heap) {
                    break 'main None; // all shards gone
                }
            }
            // lint: allow(panic_path, reason="the pull loop above only exits with the heap head at next_seq, so pop() is Some")
            match heap.pop().expect("peeked").0 {
                WriterMsg::Sample { rec, released, .. } => {
                    // Exactly OnlinePredictor::observe_sample's order:
                    // widen scaler → train on released (adaptation hook
                    // after the forest update, so a rebuild is visible to
                    // this event's own score) → score fresh row.
                    self.model.scaler.update(&rec.features);
                    if let Some(rel) = released {
                        self.model
                            .scaler
                            .transform_into(&rel.features, &mut scratch);
                        self.model.forest.update(&scratch, rel.positive);
                        self.adapt_released(&rel.features, rel.positive);
                    }
                    let t0 = Instant::now();
                    self.model
                        .scaler
                        .transform_into(&rec.features, &mut scratch);
                    let score = self.model.forest.score(&scratch);
                    self.stats.score_latency.record(t0.elapsed());
                    if score >= self.model.alarm_threshold {
                        self.model.alarms_raised += 1;
                        self.stats.alarms_raised.fetch_add(1, Ordering::Relaxed);
                        let alarm = Alarm {
                            disk_id: rec.disk_id,
                            day: rec.day,
                            score,
                        };
                        alarms.push(alarm);
                        self.fresh_alarms.lock().push(alarm);
                    }
                    applied_samples += 1;
                    if applied_samples.is_multiple_of(self.snapshot_every) {
                        self.publish();
                    }
                }
                WriterMsg::Failure { flushed, .. } => {
                    for rel in flushed {
                        self.model
                            .scaler
                            .transform_into(&rel.features, &mut scratch);
                        self.model.forest.update(&scratch, true);
                        self.adapt_released(&rel.features, true);
                    }
                }
                WriterMsg::Marker { seq, labeller } => {
                    // A barrier is a consistent cut only with every
                    // shard's labelling queues; a request is queued for
                    // each barrier, in barrier order.
                    let merged = self.collect_markers(&mut heap, seq, labeller);
                    let req = self.checkpoints.lock().pop_front();
                    let (Some(labeller), Some(mut req)) = (merged, req) else {
                        break 'main None;
                    };
                    let Some((path, done)) = req.save.take() else {
                        // The shutdown barrier: the stream ends here.
                        self.advance();
                        break 'main Some((seq, labeller, req));
                    };
                    let result = self
                        .model
                        .clone()
                        .checkpoint(seq, labeller, req)
                        .save_atomic_faulted(&path, &*self.injector)
                        .map_err(|e| e.to_string());
                    self.publish();
                    let _ = done.send(result);
                }
            }
            self.advance();
        };
        self.publish();
        let (seq, labeller, req) = end?;
        let checkpoint = self.model.checkpoint(seq, labeller, req);
        Some(Finished { alarms, checkpoint })
    }

    /// Receive one shard's labelled events into the reorder buffer and give
    /// the shard back their room. False once every shard is gone.
    fn receive(&self, heap: &mut BinaryHeap<BySeq>) -> bool {
        let Ok((shard, batch)) = self.rx.recv() else {
            return false;
        };
        let events = batch
            .iter()
            .filter(|m| !matches!(m, WriterMsg::Marker { .. }))
            .count();
        if let Some(room) = self.rooms.get(shard) {
            room.give(events);
        }
        heap.extend(batch.into_iter().map(BySeq));
        true
    }

    /// Feed one released training sample (raw features + final label) to
    /// the adaptation loop; on a declared shift, run the update policy and
    /// publish the rebuilt model immediately so score requests see it
    /// without waiting for the next scheduled snapshot.
    fn adapt_released(&mut self, features: &[f32], positive: bool) {
        let Some(adaptive) = self.model.adaptive.as_mut() else {
            return;
        };
        if adaptive.on_released(features, positive).is_none() {
            return;
        }
        if let Some(forest) = adaptive.rebuild(&self.model.scaler) {
            self.model.forest = forest;
        }
        self.publish();
    }

    /// One barrier message per shard arrives with the same sequence number;
    /// gather them all and merge the labelling-queue partitions. `None`
    /// when a shard died before sending its part.
    fn collect_markers(
        &mut self,
        heap: &mut BinaryHeap<BySeq>,
        seq: u64,
        first: OnlineLabeller,
    ) -> Option<OnlineLabeller> {
        let mut merged = first;
        let mut have = 1;
        while have < self.n_shards {
            if heap.peek().map(|m| m.0.seq()) == Some(seq) {
                // lint: allow(panic_path, reason="peek() just returned Some at this seq and the heap is writer-local")
                match heap.pop().expect("peeked").0 {
                    WriterMsg::Marker { labeller, .. } => {
                        merged.absorb(labeller);
                        have += 1;
                    }
                    // lint: allow(panic_path, reason="barrier seq numbers are allocated once and every shard sends exactly a Marker for them; a non-marker here is memory corruption, where dying beats absorbing garbage into the model")
                    other => unreachable!("non-marker at barrier seq {}", other.seq()),
                }
            } else if !self.receive(heap) {
                return None; // a shard died mid-barrier
            }
        }
        Some(merged)
    }

    /// Mark the current sequence number applied and move to the next.
    fn advance(&mut self) {
        self.next_seq += 1;
        self.stats
            .events_applied
            .store(self.next_seq, Ordering::Release);
    }

    /// Compile the live forest into its frozen scoring form outside the
    /// snapshot lock, swap the new snapshot in under it (the old one drops
    /// after the guard), and mirror the writer-owned counters into the
    /// shared stats.
    fn publish(&self) {
        let fresh = self.model.snapshot();
        let _old = std::mem::replace(&mut *self.snapshot.lock(), fresh);
        self.stats
            .forest_samples_seen
            .store(self.model.forest.samples_seen(), Ordering::Relaxed);
        self.stats
            .trees_replaced
            .store(self.model.forest.trees_replaced(), Ordering::Relaxed);
        if let Some(ad) = &self.model.adaptive {
            self.stats
                .drift_events
                .store(ad.drift_events(), Ordering::Relaxed);
            self.stats
                .model_rebuilds
                .store(ad.rebuilds(), Ordering::Relaxed);
        }
        self.stats
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::N_FEATURES;

    fn cfg(n_shards: usize) -> ServeConfig {
        let mut p = OnlinePredictorConfig::new(vec![0, 1, 2], 9);
        p.orf.n_trees = 5;
        p.orf.n_tests = 10;
        p.orf.min_parent_size = 10.0;
        p.orf.min_gain = 0.0;
        p.orf.lambda_neg = 0.5;
        p.orf.warmup_age = 0;
        let mut c = ServeConfig::new(p);
        c.n_shards = n_shards;
        c.snapshot_every = 16;
        c
    }

    fn rec(disk_id: u32, day: u16, v: f32) -> DiskDay {
        let mut features = vec![0.0f32; N_FEATURES];
        features[0] = v;
        features[1] = v * 0.5;
        features[2] = v * 2.0;
        DiskDay {
            disk_id,
            day,
            features,
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 7] {
            for disk in 0..200u32 {
                let s = shard_of(disk, n);
                assert!(s < n);
                assert_eq!(s, shard_of(disk, n), "routing must be deterministic");
            }
        }
        // Non-degenerate spread over 4 shards.
        let mut counts = [0usize; 4];
        for disk in 0..1000u32 {
            counts[shard_of(disk, 4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 100),
            "skewed routing: {counts:?}"
        );
    }

    #[test]
    fn ingest_flush_and_counters() {
        let engine = Engine::new(&cfg(2));
        for day in 0..30u16 {
            for disk in 0..10u32 {
                engine
                    .ingest(FleetEvent::Sample(rec(
                        disk,
                        day,
                        if disk == 0 { 30.0 } else { 0.0 },
                    )))
                    .unwrap();
            }
        }
        engine
            .ingest(FleetEvent::Failure {
                disk_id: 0,
                day: 30,
            })
            .unwrap();
        engine.flush().unwrap();
        let s = engine.stats();
        assert_eq!(s.samples_ingested, 300);
        assert_eq!(s.failures_ingested, 1);
        assert_eq!(s.events_applied, s.events_issued);
        assert!(
            s.forest_samples_seen > 0,
            "labelled samples reached the forest"
        );
        assert!(s.snapshots_published >= 1);
        let fin = engine.finish().unwrap();
        assert!(engine.finish().is_err(), "double finish must fail");
        let Checkpoint::Online { labeller, .. } = fin.checkpoint;
        assert!(labeller.unwrap().n_pending() > 0, "survivors stay queued");
    }

    #[test]
    fn score_and_snapshot_survive_shutdown() {
        let engine = Engine::new(&cfg(3));
        for day in 0..40u16 {
            for disk in 0..8u32 {
                engine
                    .ingest(FleetEvent::Sample(rec(disk, day, 0.0)))
                    .unwrap();
            }
        }
        engine.flush().unwrap();
        let s = engine.score(&rec(99, 0, 0.0).features);
        assert!((0.0..=1.0).contains(&s));
        let snap = engine.model_snapshot();
        engine.finish().unwrap();
        // Frozen snapshots keep working after shutdown.
        assert_eq!(snap.score(&rec(99, 0, 0.0).features), s);
        assert!(engine
            .ingest(FleetEvent::Failure { disk_id: 1, day: 0 })
            .is_err());
    }

    #[test]
    fn take_alarms_drains_in_stream_order() {
        let c = {
            let mut c = cfg(2);
            c.predictor.alarm_threshold = 0.0; // everything alarms
            c
        };
        let engine = Engine::new(&c);
        for day in 0..10u16 {
            engine.ingest(FleetEvent::Sample(rec(1, day, 1.0))).unwrap();
        }
        engine.flush().unwrap();
        let drained = engine.take_alarms();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].day < w[1].day));
        assert!(engine.take_alarms().is_empty(), "drained exactly once");
        let fin = engine.finish().unwrap();
        assert_eq!(fin.alarms.len(), 10, "finish still returns the full list");
    }

    /// Holds its shard on the stream's first event until opened.
    #[derive(Debug, Default)]
    struct Gate {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl Gate {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl FaultInjector for Gate {
        fn kill_shard(&self, _shard: usize, seq: u64) -> bool {
            if seq == 0 {
                let mut open = self.open.lock().unwrap();
                while !*open {
                    open = self.opened.wait(open).unwrap();
                }
            }
            false
        }
    }

    fn samples(disk: u32, days: std::ops::Range<u16>) -> impl Iterator<Item = FleetEvent> {
        days.map(move |day| FleetEvent::Sample(rec(disk, day, f32::from(day % 7))))
    }

    #[test]
    fn a_shard_never_holds_more_than_queue_capacity_events() {
        use std::sync::atomic::AtomicBool;
        for capacity in [1usize, 2, 3, 5, 1024] {
            let gate = Arc::new(Gate::default());
            let mut c = cfg(1);
            c.queue_capacity = capacity;
            c.injector = gate.clone();
            let engine = Arc::new(Engine::new(&c));
            let room = Arc::clone(&engine.ingest.lock().rooms[0]);
            // The shard stops on the first event, so these fill it to the
            // bound, in one message or in many.
            let full = capacity as u16;
            engine.ingest_batch(samples(1, 0..full / 2)).unwrap();
            for day in full / 2..full {
                engine
                    .ingest(samples(1, day..day + 1).next().unwrap())
                    .unwrap();
            }
            assert_eq!(room.counts().held, capacity);
            let done = Arc::new(AtomicBool::new(false));
            let blocked = {
                let (engine, done) = (Arc::clone(&engine), Arc::clone(&done));
                std::thread::spawn(move || {
                    engine.ingest_batch(samples(1, full..full + 1)).unwrap();
                    done.store(true, Ordering::SeqCst);
                })
            };
            // One more event finds no room: its ingest waits for some.
            while room.counts().want == 0 {
                std::thread::yield_now();
            }
            assert!(!done.load(Ordering::SeqCst));
            assert_eq!(room.counts().held, capacity, "capacity {capacity}");
            gate.open();
            blocked.join().unwrap();
            engine.flush().unwrap();
            assert_eq!(engine.stats().events_applied, capacity as u64 + 1);
            engine.finish().unwrap();
        }
    }

    #[test]
    fn outboxes_are_empty_whenever_ingest_batch_returns() {
        #[derive(Debug)]
        struct KillShardOne;
        impl FaultInjector for KillShardOne {
            fn kill_shard(&self, shard: usize, seq: u64) -> bool {
                shard == 1 && seq >= 40
            }
        }
        let mut c = cfg(2);
        c.queue_capacity = 8;
        c.injector = Arc::new(KillShardOne);
        let engine = Engine::new(&c);
        let outboxes_empty = || engine.ingest.lock().outboxes.iter().all(Vec::is_empty);
        let mut failed = false;
        for (k, day) in (0..60u16).step_by(3).enumerate() {
            let batch: Vec<FleetEvent> = (0..6u32)
                .flat_map(|disk| samples(disk, day..day + 3))
                .take(1 + k % 18)
                .collect();
            failed |= engine.ingest_batch(batch).is_err();
            assert!(outboxes_empty(), "batch {k} left events in an outbox");
        }
        assert!(failed, "the killed shard made a later batch fail");
        let _ = engine.suspend();
        assert!(engine.ingest_batch(samples(0, 0..3)).is_err());
        assert!(outboxes_empty());
    }

    /// Kills whichever shard dequeues the event with this sequence number.
    #[derive(Debug)]
    struct KillAt(u64);

    impl FaultInjector for KillAt {
        fn kill_shard(&self, _shard: usize, seq: u64) -> bool {
            seq == self.0
        }
    }

    /// An engine whose shard dequeuing seq 5 died, after one batch of
    /// `days` days of samples from disks 0..`disks`.
    fn with_a_dead_shard(n_shards: usize, disks: u32, days: u16) -> Engine {
        let mut c = cfg(n_shards);
        c.injector = Arc::new(KillAt(5));
        let engine = Engine::new(&c);
        engine
            .ingest_batch((0..disks).flat_map(|disk| samples(disk, 0..days)))
            .unwrap();
        engine
    }

    #[test]
    fn flush_returns_once_a_shard_has_died() {
        let engine = Arc::new(with_a_dead_shard(1, 1, 20));
        let (tx, rx) = std::sync::mpsc::channel();
        let flusher = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || tx.send(engine.flush()).unwrap())
        };
        let flushed = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("flush returns instead of waiting for the dead shard");
        assert_eq!(flushed, Err(ServeError::WorkerPanicked));
        flusher.join().unwrap();
        assert!(engine.stats().events_applied <= 5);
    }

    #[test]
    fn a_dead_shard_fails_finish_and_suspend() {
        // One shard, then three: the killed shard's barrier marker is the
        // one that never reaches the writer.
        for n_shards in [1, 3] {
            let engine = with_a_dead_shard(n_shards, 3, 20);
            assert_eq!(
                engine.finish().err(),
                Some(ServeError::WorkerPanicked),
                "{n_shards} shard(s)"
            );
            assert_eq!(engine.finish().err(), Some(ServeError::ShuttingDown));
            let engine = with_a_dead_shard(n_shards, 3, 20);
            assert_eq!(
                engine.suspend().err(),
                Some(ServeError::WorkerPanicked),
                "{n_shards} shard(s)"
            );
        }
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        let c = cfg(2);
        let path = std::env::temp_dir().join("orfpred_engine_ckpt_test.json");

        // Uninterrupted reference run.
        let reference = Engine::new(&c);
        for day in 0..30u16 {
            for disk in 0..6u32 {
                reference
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        // Take the same checkpoint barrier so sequence numbers line up.
        reference.checkpoint(&path).unwrap();
        for day in 30..50u16 {
            for disk in 0..6u32 {
                reference
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        let ref_fin = reference.finish().unwrap();

        // Restore from the mid-stream checkpoint (different shard count)
        // and replay only the tail.
        let mut c3 = c.clone();
        c3.n_shards = 3;
        let resumed = Engine::restore(&c3, Checkpoint::load(&path).unwrap());
        for day in 30..50u16 {
            for disk in 0..6u32 {
                resumed
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        let res_fin = resumed.finish().unwrap();

        // The final states must be byte-identical.
        assert_eq!(
            serde_json::to_string(&ref_fin.checkpoint).unwrap(),
            serde_json::to_string(&res_fin.checkpoint).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}
