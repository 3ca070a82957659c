//! Seeded fault plans: a concrete [`FaultInjector`] built from explicit
//! "fire fault X at point Y" entries.
//!
//! Every entry is **one-shot**: it is consumed the first time its hook
//! fires and never fires again. This is what makes crash-recovery tests
//! converge — after the driver restores from a checkpoint and replays the
//! stream, the already-consumed fault does not re-kill the same shard or
//! re-tear the same checkpoint, so the replay runs clean and the
//! differential oracle can compare its output against the serial reference.
//!
//! All entries are keyed by values that are deterministic across replays:
//! global sequence numbers (which equal driver action indices, see
//! [`crate::driver`]), checkpoint target paths, and input line indices.

use orfpred_serve::{CheckpointFault, FaultInjector};
use orfpred_store::{SegmentFault, StoreFaultInjector};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// A deterministic, one-shot fault schedule. Configure it through `&self`
/// methods (interior mutability), wrap it in an `Arc`, and install it as
/// `ServeConfig::injector`; the same `Arc` doubles as the test's handle for
/// asking what actually fired.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Pending shard kills, keyed by global sequence number. The targeted
    /// sequence number must belong to an *event* (not a checkpoint
    /// barrier), or the kill can never fire and the driver's quiesce loop
    /// would wait on it forever.
    kills: Mutex<HashSet<u64>>,
    /// Sequence numbers whose kill has fired.
    fired_kills: Mutex<HashSet<u64>>,
    /// Pending delivery delays: seq → how many later messages pass first.
    delays: Mutex<HashMap<u64, usize>>,
    /// Pending checkpoint faults, keyed by the save's target path.
    ckpt_faults: Mutex<HashMap<PathBuf, CheckpointFault>>,
    /// Pending input-line replacements, keyed by 0-based line index.
    mangles: Mutex<HashMap<u64, String>>,
    /// Pending live reshards (daemon loop), keyed by 0-based
    /// primary-input line index: (tenant name, new shard count). An empty
    /// tenant name addresses the fleet's default tenant.
    reshards: Mutex<HashMap<u64, (String, usize)>>,
    /// Pending tenant kills (daemon loop), keyed by 0-based
    /// primary-input line index.
    tenant_kills: Mutex<HashMap<u64, String>>,
    /// Pending telemetry-store segment faults, keyed by segment index.
    store_faults: Mutex<HashMap<u64, SegmentFault>>,
    /// Human-readable log of every fault that fired, in firing order.
    fired: Mutex<Vec<String>>,
}

impl FaultPlan {
    /// An empty plan (no faults until some are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill the shard thread that processes global sequence number `seq`.
    /// `seq` must be an event, not a checkpoint barrier.
    pub fn kill_at(&self, seq: u64) {
        self.kills.lock().insert(seq);
    }

    /// Hold the labelled message for `seq` back until `n` later messages
    /// from the same shard have been forwarded to the model writer.
    pub fn delay_at(&self, seq: u64, n: usize) {
        assert!(n > 0, "a zero delay is not a fault");
        self.delays.lock().insert(seq, n);
    }

    /// Abort the next checkpoint save targeting `path` with `fault`.
    pub fn fail_checkpoint(&self, path: &Path, fault: CheckpointFault) {
        assert!(fault != CheckpointFault::None, "None is not a fault");
        self.ckpt_faults.lock().insert(path.to_path_buf(), fault);
    }

    /// Replace daemon input line `idx` (0-based) with `replacement`.
    pub fn mangle_at(&self, idx: u64, replacement: &str) {
        self.mangles.lock().insert(idx, replacement.to_string());
    }

    /// Live-reshard `tenant` to `n_shards` shards just before the
    /// daemon loop processes primary-input line `idx` (0-based).
    /// An empty tenant name addresses the fleet's default tenant.
    pub fn reshard_at(&self, idx: u64, tenant: &str, n_shards: usize) {
        assert!(n_shards > 0, "a zero shard count can never apply");
        self.reshards
            .lock()
            .insert(idx, (tenant.to_string(), n_shards));
    }

    /// Kill `tenant` (engine torn down, undrained state lost, no checkpoint
    /// written) just before the daemon loop processes primary-input
    /// line `idx` (0-based). An empty name addresses the default tenant.
    pub fn kill_tenant_at(&self, idx: u64, tenant: &str) {
        self.tenant_kills.lock().insert(idx, tenant.to_string());
    }

    /// Fire `fault` when the telemetry-store writer seals segment
    /// `seg_index` (0-based).
    pub fn store_fault_at(&self, seg_index: u64, fault: SegmentFault) {
        assert!(fault != SegmentFault::None, "None is not a fault");
        self.store_faults.lock().insert(seg_index, fault);
    }

    /// Every fault that has fired so far, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.fired.lock().clone()
    }

    /// Number of faults that have fired so far.
    pub fn n_fired(&self) -> usize {
        self.fired.lock().len()
    }

    /// Number of shard kills that have fired so far. The driver compares
    /// this against a baseline taken at engine (re)start to learn whether
    /// the *current* engine instance has lost a shard.
    pub fn kills_fired(&self) -> usize {
        self.fired_kills.lock().len()
    }

    /// Is a kill still pending for a sequence number below `seq`? Such a
    /// kill targets an already-ingested event and is therefore guaranteed
    /// to fire once the owning shard drains its queue — the driver's
    /// quiesce loop keys off this to wait for it deterministically.
    pub fn kill_pending_below(&self, seq: u64) -> bool {
        self.kills.lock().iter().any(|&s| s < seq)
    }

    /// True when every scheduled fault has fired — the usual end-of-test
    /// assertion that the schedule was actually exercised.
    pub fn all_consumed(&self) -> bool {
        self.kills.lock().is_empty()
            && self.delays.lock().is_empty()
            && self.ckpt_faults.lock().is_empty()
            && self.mangles.lock().is_empty()
            && self.reshards.lock().is_empty()
            && self.tenant_kills.lock().is_empty()
            && self.store_faults.lock().is_empty()
    }

    fn log(&self, entry: String) {
        self.fired.lock().push(entry);
    }
}

impl FaultInjector for FaultPlan {
    fn kill_shard(&self, shard: usize, seq: u64) -> bool {
        // Mark the kill fired *before* removing it from the pending set,
        // holding the pending lock across both: at no instant is the seq in
        // neither set. The driver's quiesce loop reads pending-then-fired,
        // so a kill that vanished from pending is always seen as fired —
        // the other order had a window where quiesce concluded "no kill
        // anywhere" and let the run finish with a dead shard.
        let mut kills = self.kills.lock();
        if !kills.contains(&seq) {
            return false;
        }
        self.fired_kills.lock().insert(seq);
        kills.remove(&seq);
        drop(kills);
        self.log(format!("kill shard {shard} at seq {seq}"));
        true
    }

    fn delay_to_writer(&self, shard: usize, seq: u64) -> usize {
        match self.delays.lock().remove(&seq) {
            Some(n) => {
                self.log(format!("delay seq {seq} on shard {shard} by {n}"));
                n
            }
            None => 0,
        }
    }

    fn checkpoint_fault(&self, path: &Path) -> CheckpointFault {
        match self.ckpt_faults.lock().remove(path) {
            Some(fault) => {
                self.log(format!("checkpoint fault {fault:?} on {}", path.display()));
                fault
            }
            None => CheckpointFault::None,
        }
    }

    fn mangle_line(&self, idx: u64, _line: &str) -> Option<String> {
        let replacement = self.mangles.lock().remove(&idx)?;
        self.log(format!("mangled input line {idx}"));
        Some(replacement)
    }

    fn reshard_event(&self, idx: u64) -> Option<(String, usize)> {
        let (tenant, n) = self.reshards.lock().remove(&idx)?;
        self.log(format!(
            "reshard tenant `{tenant}` to {n} shards at line {idx}"
        ));
        Some((tenant, n))
    }

    fn kill_tenant(&self, idx: u64) -> Option<String> {
        let tenant = self.tenant_kills.lock().remove(&idx)?;
        self.log(format!("kill tenant `{tenant}` at line {idx}"));
        Some(tenant)
    }
}

impl StoreFaultInjector for FaultPlan {
    fn segment_fault(&self, seg_index: u64) -> SegmentFault {
        match self.store_faults.lock().remove(&seg_index) {
            Some(fault) => {
                self.log(format!("store fault {fault:?} on segment {seg_index}"));
                fault
            }
            None => SegmentFault::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_kind_fires_exactly_once() {
        let plan = FaultPlan::new();
        plan.kill_at(7);
        plan.delay_at(9, 3);
        plan.fail_checkpoint(
            Path::new("/tmp/ck.json"),
            CheckpointFault::CrashBeforeRename,
        );
        plan.mangle_at(2, "garbage");
        plan.reshard_at(4, "sta", 3);
        plan.kill_tenant_at(5, "stb");
        plan.store_fault_at(1, SegmentFault::TornWrite { keep: 10 });
        assert!(!plan.all_consumed());

        assert!(!plan.kill_shard(0, 6));
        assert!(plan.kill_shard(0, 7));
        assert!(!plan.kill_shard(0, 7), "kill is one-shot");
        assert_eq!(plan.kills_fired(), 1);
        assert!(!plan.kill_pending_below(u64::MAX));

        assert_eq!(plan.delay_to_writer(1, 9), 3);
        assert_eq!(plan.delay_to_writer(1, 9), 0, "delay is one-shot");

        let p = Path::new("/tmp/ck.json");
        assert_eq!(plan.checkpoint_fault(p), CheckpointFault::CrashBeforeRename);
        assert_eq!(plan.checkpoint_fault(p), CheckpointFault::None);

        assert_eq!(plan.mangle_line(2, "ok").as_deref(), Some("garbage"));
        assert!(plan.mangle_line(2, "ok").is_none(), "mangle is one-shot");

        assert!(plan.reshard_event(3).is_none());
        assert_eq!(plan.reshard_event(4), Some(("sta".to_string(), 3)));
        assert!(plan.reshard_event(4).is_none(), "reshard is one-shot");
        assert_eq!(plan.kill_tenant(5).as_deref(), Some("stb"));
        assert!(plan.kill_tenant(5).is_none(), "tenant kill is one-shot");

        assert_eq!(plan.segment_fault(0), SegmentFault::None);
        assert_eq!(plan.segment_fault(1), SegmentFault::TornWrite { keep: 10 });
        assert_eq!(
            plan.segment_fault(1),
            SegmentFault::None,
            "store fault is one-shot"
        );

        assert!(plan.all_consumed());
        assert_eq!(plan.n_fired(), 7);
    }

    #[test]
    fn kill_pending_below_sees_only_smaller_seqs() {
        let plan = FaultPlan::new();
        plan.kill_at(100);
        assert!(!plan.kill_pending_below(100));
        assert!(plan.kill_pending_below(101));
    }
}
