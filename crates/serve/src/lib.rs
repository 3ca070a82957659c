//! `orfpred-serve`: a sharded online serving engine for the paper's
//! Algorithm 2 pipeline, with checkpoint/restore and live metrics.
//!
//! The offline crates answer "does the ORF reproduce the paper's
//! curves?"; this crate answers "can it run as a long-lived service?".
//! Architecture (details and the determinism argument in [`engine`]):
//!
//! * **Sharded labelling** — disks are partitioned across N shard threads
//!   by a stable hash of `disk_id`; each shard owns its slice of the
//!   per-disk labelling queues (Algorithm 2 state) and turns raw events
//!   into labelled training samples;
//! * **Single model writer** — labelled samples flow over bounded
//!   channels into one writer thread that owns the model, an
//!   [`orfpred_core::OnlineModel`], and applies events in global sequence
//!   order (a reorder buffer undoes shard interleaving). It runs the same
//!   model step as the serial [`orfpred_core::OnlinePredictor`], so it
//!   raises the same alarms;
//! * **Snapshot scoring** — alarms are scored on the live forest inside
//!   the writer; `score` requests read an immutable
//!   [`orfpred_core::FrozenModel`] (the scaler's bounds in front of the
//!   forest compiled to a flat `FrozenForest`) that the writer republishes
//!   every `snapshot_every` samples. The snapshot
//!   `Arc` sits under a plain mutex held only to swap or clone it, so a
//!   request never waits on training;
//! * **Atomic checkpoints** — a barrier token flows through every shard
//!   so the saved labelling queues, scaler, forest and stream position
//!   form one consistent cut; files are written tmp → fsync → rename and
//!   a restored daemon resumes byte-identically. Shutdown is one more
//!   such barrier, so an engine that lost a shard has no final state and
//!   `finish` fails. A checkpoint without a schema is SMART, and an engine
//!   of another domain refuses it; when the writer dies, `checkpoint`,
//!   `flush` and ingest fail instead of waiting;
//! * **Protocol** — the line-delimited JSON requests and replies
//!   ([`protocol`]) that the `orfpredd` loop in `orfpred-fleet` serves
//!   over stdin and an optional TCP listener; live counters via [`stats`].

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod fault;
pub mod protocol;
pub mod stats;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use engine::{shard_of, Engine, Finished, ServeConfig, ServeError};
pub use fault::{CheckpointFault, FaultInjector, NoFaults};
pub use protocol::{pad_features, ProtocolError, Request, Response, MAX_FRAME_LEN};
pub use stats::{LatencyHistogram, ServeStats, StatsReport};
