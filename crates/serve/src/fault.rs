//! Deterministic fault-injection points.
//!
//! The engine's correctness claim — alarms bit-identical to serial replay
//! across sharding, checkpoints, and crash/restore — is only worth much if
//! it survives the faults a real deployment sees: a process dying mid
//! checkpoint, a torn file on a non-atomic filesystem, a shard thread
//! dying with its queue state, channel delivery skew far beyond natural
//! scheduling jitter, and garbage on the wire.
//!
//! This module defines the [`FaultInjector`] trait the hot paths consult
//! at those exact points. Production uses [`NoFaults`], a zero-sized
//! implementation whose methods are trivially inlined no-ops; the
//! `orfpred-testkit` crate implements seeded fault *plans* on top of it
//! and drives the differential test suites in `tests/fault_*.rs`.
//!
//! Every hook is deterministic from the injector's own state — no clocks,
//! no OS randomness — so a failing fault schedule reproduces exactly from
//! a printed seed.

use std::path::Path;

/// What the checkpoint writer should do instead of a clean atomic save.
///
/// Returned by [`FaultInjector::checkpoint_fault`] just before the
/// write-tmp → fsync → rename sequence starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointFault {
    /// No fault: perform the normal atomic save.
    None,
    /// Simulate a crash after the temporary file is written but before the
    /// rename: the target path keeps its previous content (or stays
    /// absent) and the call reports failure — the atomic-rename guarantee
    /// holding up under an ill-timed crash.
    CrashBeforeRename,
    /// Simulate a torn write on a filesystem without the rename guarantee:
    /// only the first `keep` bytes of the serialized checkpoint land in
    /// the *target* path, and the call reports failure. Loading the
    /// resulting file must yield [`CheckpointError::Corrupt`], never a
    /// panic.
    ///
    /// [`CheckpointError::Corrupt`]: crate::checkpoint::CheckpointError
    TornWrite {
        /// How many bytes of the serialized checkpoint survive.
        keep: usize,
    },
}

/// Injection points threaded through the serving engine and the daemon
/// loop.
///
/// All methods default to "no fault", so implementations override only the
/// points a test exercises. Implementations must be deterministic: the
/// same injector state and the same call sequence must produce the same
/// decisions (the testkit keys every fault off global sequence numbers and
/// consumes each one exactly once, so crash-recovery replays do not
/// re-fire it).
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called by a shard thread as it dequeues the event with global
    /// sequence number `seq`. Returning `true` makes the shard thread die
    /// on the spot — dropping its labelling queues and every event still
    /// in its channel, exactly the state loss of a crashed thread. The
    /// engine surfaces the death as [`ServeError::ShuttingDown`] on the
    /// next ingest routed to that shard, and as
    /// [`ServeError::WorkerPanicked`] from `flush`, `finish` and `suspend`.
    ///
    /// [`ServeError::ShuttingDown`]: crate::engine::ServeError
    /// [`ServeError::WorkerPanicked`]: crate::engine::ServeError
    fn kill_shard(&self, _shard: usize, _seq: u64) -> bool {
        false
    }

    /// Called by a shard thread just before forwarding the labelled
    /// message for `seq` to the model writer. Returning `n > 0` holds the
    /// message back until `n` later messages from the same shard have been
    /// forwarded first — forcing out-of-order delivery well beyond natural
    /// scheduling skew, which the writer's reorder buffer must absorb.
    /// Held messages are flushed before any checkpoint/shutdown barrier.
    /// A held message keeps its room in the shard's queue capacity, so at
    /// most half of `queue_capacity` messages may be held at once.
    fn delay_to_writer(&self, _shard: usize, _seq: u64) -> usize {
        0
    }

    /// Called by the checkpoint writer before persisting to `path`.
    fn checkpoint_fault(&self, _path: &Path) -> CheckpointFault {
        CheckpointFault::None
    }

    /// Called by the `orfpredd` loop (`orfpred_fleet::run`) for every
    /// line-JSON primary-input line (0-based index, counted before
    /// blank-line filtering) when the injector is installed as the
    /// daemon's. Returning `Some` replaces the line — the hook tests force
    /// malformed bytes at chosen stream positions without rebuilding the
    /// input.
    fn mangle_line(&self, _idx: u64, _line: &str) -> Option<String> {
        None
    }

    /// Called by the `orfpredd` loop before processing primary-input line
    /// `idx`. Returning `Some((tenant, n_shards))` live-reshards that
    /// tenant first (an empty name addresses the only tenant of a
    /// one-tenant daemon). Lets fault plans exercise the reshard
    /// drain-barrier at exact stream positions.
    fn reshard_event(&self, _idx: u64) -> Option<(String, usize)> {
        None
    }

    /// Called by the `orfpredd` loop before processing primary-input line
    /// `idx`. Returning `Some(tenant)` kills that tenant on the spot —
    /// engine torn down, undrained state lost, no checkpoint written (an
    /// empty name addresses the only tenant of a one-tenant daemon).
    /// Crash-recovery tests restart the daemon afterwards and compare
    /// against a clean run.
    fn kill_tenant(&self, _idx: u64) -> Option<String> {
        None
    }
}

/// The production injector: every hook is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_defaults_are_inert() {
        let inj = NoFaults;
        assert!(!inj.kill_shard(0, 0));
        assert_eq!(inj.delay_to_writer(3, 17), 0);
        assert_eq!(
            inj.checkpoint_fault(Path::new("/tmp/x")),
            CheckpointFault::None
        );
        assert!(inj.mangle_line(5, "{\"type\":\"stats\"}").is_none());
        assert!(inj.reshard_event(0).is_none());
        assert!(inj.kill_tenant(0).is_none());
    }
}
