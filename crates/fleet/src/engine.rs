//! The multi-tenant fleet engine: many independent per-tenant
//! [`Engine`] instances behind one handle.
//!
//! A *tenant* is one drive-model × domain-schema pair — the paper trains
//! one ORF per drive model (STA/STB), and a production fleet runs dozens
//! of those models behind one endpoint. Each tenant owns:
//!
//! * its own serving engine (shards, writer, snapshot) and therefore
//!   its own bit-exactness guarantee against a serial replay of *its*
//!   stream;
//! * its own checkpoint lineage (restore path, default checkpoint file);
//! * its own telemetry-store catch-up cursor (`events_ingested`), so a
//!   restarted fleet daemon replays exactly the store tail each tenant
//!   missed;
//! * its own alarm stream, drained independently of every other tenant.
//!
//! **Live re-sharding** (the reason this crate exists beyond a `Vec` of
//! engines): a tenant's shard count can change without restarting the
//! daemon. The tenant's engine is drained through a suspend barrier
//! ([`Engine::suspend`] — a shutdown that does *not* flush prep-held
//! failures, because the stream is continuing), its checkpoint seeds a
//! successor engine with the new shard count, and the deterministic
//! `shard_of` re-partition of the restored labelling queues guarantees the
//! successor continues the alarm stream bit-identically (DESIGN §8 + §16).
//! The barrier consumes exactly one sequence number — the same as a
//! `checkpoint` barrier — so a reference run that checkpoints where the
//! fleet run resharded produces a byte-identical final checkpoint.

use crate::daemon::BATCH_EVENTS;
use orfpred_core::{Alarm, OnlinePredictorConfig};
use orfpred_serve::{Checkpoint, Engine, ServeConfig, ServeError, StatsReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Configuration of one tenant.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Tenant name (wire identifier; unique within the fleet).
    pub name: String,
    /// The tenant's serving engine configuration.
    pub serve: ServeConfig,
    /// Default checkpoint file: restored at startup when present, written
    /// at shutdown and by path-less `checkpoint` requests.
    pub checkpoint_path: Option<PathBuf>,
    /// Optional telemetry store replayed (tail after the restored cursor)
    /// before the tenant goes live.
    pub catchup_store: Option<PathBuf>,
}

impl TenantConfig {
    /// A tenant with the given name and predictor, no checkpoint lineage.
    pub fn new(name: impl Into<String>, predictor: OnlinePredictorConfig) -> Self {
        Self {
            name: name.into(),
            serve: ServeConfig::new(predictor),
            checkpoint_path: None,
            catchup_store: None,
        }
    }
}

/// Why a fleet call failed.
#[derive(Debug)]
pub enum FleetError {
    /// No tenant with that name (or an ambiguous request with no tenant
    /// named while the fleet hosts several).
    UnknownTenant(String),
    /// The tenant's engine rejected the call.
    Engine(ServeError),
    /// The tenant has already been shut down.
    Stopped(String),
    /// Invalid argument (zero shard count, checkpoint failure, ...).
    Invalid(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            FleetError::Engine(e) => write!(f, "{e}"),
            FleetError::Stopped(name) => write!(f, "tenant `{name}` is shut down"),
            FleetError::Invalid(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Engine(e)
    }
}

/// Per-tenant lifetime counters (across reshard epochs), reported in the
/// fleet `stats` response and the daemon's shutdown summary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Raw events (samples + failures) ingested over the tenant's life.
    pub events: u64,
    /// Alarms raised over the tenant's life.
    pub alarms: u64,
    /// Distribution shifts declared by the adaptation loop (cumulative —
    /// this rides the checkpoint, surviving reshards and restarts).
    pub drift_events: u64,
    /// Forests rebuilt by the long-term update policy (cumulative).
    pub model_rebuilds: u64,
    /// Live reshards performed this daemon run.
    pub reshards: u64,
}

/// Point-in-time per-tenant stats: lifetime counters plus the current
/// engine epoch's full [`StatsReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Current shard count.
    pub n_shards: u64,
    /// Lifetime counters.
    pub counters: TenantCounters,
    /// The current engine epoch's counters (reset at reshard/restart).
    pub engine: StatsReport,
}

/// What one finished tenant hands back.
pub struct TenantFinished {
    /// Tenant name.
    pub tenant: String,
    /// Every alarm the tenant raised this daemon run, in stream order
    /// (concatenated across reshard epochs).
    pub alarms: Vec<Alarm>,
    /// Final checkpoint (same bytes a `checkpoint` request at shutdown
    /// would have written).
    pub checkpoint: Checkpoint,
    /// Lifetime counters at shutdown.
    pub counters: TenantCounters,
}

/// One tenant's startup catch-up summary.
#[derive(Clone, Debug)]
pub struct CatchupNote {
    /// Tenant name.
    pub tenant: String,
    /// Store events replayed.
    pub applied: u64,
    /// Store events skipped (covered by the restored checkpoint cursor).
    pub skipped: u64,
    /// Store directory replayed.
    pub store: PathBuf,
}

/// Mutable per-tenant state, serialized by one mutex per tenant so
/// concurrent protocol sessions see each tenant's request stream as a
/// single total order (the engine's own determinism argument needs per-
/// disk FIFO arrival, which a per-tenant lock provides across sessions).
struct TenantState {
    cfg: ServeConfig,
    /// `None` once the tenant is shut down.
    engine: Option<Engine>,
    checkpoint_path: Option<PathBuf>,
    /// Alarms raised in *earlier* reshard epochs that no caller has
    /// drained yet (carried over by the reshard drain-barrier).
    pending: Vec<Alarm>,
    /// Full alarm lists of completed epochs (for the final
    /// [`TenantFinished::alarms`] stream).
    epoch_alarms: Vec<Alarm>,
    /// Events/alarms from completed epochs (the engine's own counters
    /// reset when a reshard builds a successor engine).
    base_events: u64,
    base_alarms: u64,
    reshards: u64,
}

struct TenantSlot {
    name: String,
    /// Domain schema fingerprint (checked at binary session open).
    fingerprint: u64,
    n_base_features: usize,
    n_features: usize,
    state: Mutex<TenantState>,
}

/// The multi-tenant serving engine.
pub struct FleetEngine {
    tenants: Vec<TenantSlot>,
}

impl FleetEngine {
    /// Start every tenant: restore from its checkpoint when one exists,
    /// then replay its store tail. Returns the engine plus one catch-up
    /// note per tenant that had a store configured.
    pub fn start(configs: Vec<TenantConfig>) -> Result<(Self, Vec<CatchupNote>), String> {
        if configs.is_empty() {
            return Err("a fleet needs at least one tenant".into());
        }
        for (i, c) in configs.iter().enumerate() {
            if c.name.is_empty() {
                return Err("tenant names must be non-empty".into());
            }
            if configs.iter().take(i).any(|earlier| earlier.name == c.name) {
                return Err(format!("duplicate tenant name `{}`", c.name));
            }
        }
        let mut tenants = Vec::with_capacity(configs.len());
        let mut notes = Vec::new();
        for cfg in configs {
            let schema = cfg.serve.predictor.domain_schema();
            let (engine, cursor) = match &cfg.checkpoint_path {
                Some(path) if path.exists() => {
                    let ck = Checkpoint::load(path)
                        .map_err(|e| format!("tenant `{}`: {e}", cfg.name))?;
                    // lint: allow(checkpoint_coverage, reason="read-only peek at the replay cursor; Engine::restore consumes the full checkpoint on the next line")
                    let Checkpoint::Online {
                        events_ingested, ..
                    } = &ck;
                    let cursor = events_ingested.unwrap_or(0);
                    (Engine::restore(&cfg.serve, ck), cursor)
                }
                _ => (Engine::new(&cfg.serve), 0),
            };
            if let Some(dir) = &cfg.catchup_store {
                let applied = catch_up(&cfg.name, &engine, dir, cursor)?;
                notes.push(CatchupNote {
                    tenant: cfg.name.clone(),
                    applied,
                    skipped: cursor,
                    store: dir.clone(),
                });
            }
            tenants.push(TenantSlot {
                name: cfg.name,
                fingerprint: schema.fingerprint(),
                n_base_features: schema.n_base_features(),
                n_features: schema.n_features(),
                state: Mutex::new(TenantState {
                    cfg: cfg.serve,
                    engine: Some(engine),
                    checkpoint_path: cfg.checkpoint_path,
                    pending: Vec::new(),
                    epoch_alarms: Vec::new(),
                    base_events: 0,
                    base_alarms: 0,
                    reshards: 0,
                }),
            });
        }
        Ok((Self { tenants }, notes))
    }

    /// Tenant names, in configuration order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Resolve a request's tenant: an explicit name must exist; no name is
    /// allowed only when the fleet hosts exactly one tenant (single-tenant
    /// compatibility with the line-JSON protocol).
    fn slot(&self, tenant: Option<&str>) -> Result<&TenantSlot, FleetError> {
        match tenant {
            Some(name) => self
                .tenants
                .iter()
                .find(|t| t.name == name)
                .ok_or_else(|| FleetError::UnknownTenant(name.to_string())),
            None => {
                if let [only] = self.tenants.as_slice() {
                    Ok(only)
                } else {
                    Err(FleetError::UnknownTenant(
                        "(none — a multi-tenant fleet needs an explicit tenant)".into(),
                    ))
                }
            }
        }
    }

    /// Resolve a request's tenant to its canonical name (errors exactly
    /// like every other call: unknown name, or no name in a multi-tenant
    /// fleet).
    pub fn resolve_tenant(&self, tenant: Option<&str>) -> Result<&str, FleetError> {
        self.slot(tenant).map(|s| s.name.as_str())
    }

    /// Simulate a tenant crash (testkit fault hook): the engine is torn
    /// down and every piece of undrained in-memory state — pending alarms,
    /// epoch bookkeeping — is discarded *without* writing a checkpoint,
    /// exactly what a killed process loses. Subsequent requests fail with
    /// [`FleetError::Stopped`]; recovery is a daemon restart from the
    /// tenant's last on-disk checkpoint plus store catch-up.
    pub fn kill(&self, tenant: Option<&str>) -> Result<(), FleetError> {
        let slot = self.slot(tenant)?;
        let mut st = slot.state.lock();
        let engine = st
            .engine
            .take()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        // Join the worker threads so the process doesn't leak them; the
        // drained state is thrown away, which is what makes this a crash.
        let _ = engine.suspend();
        st.pending.clear();
        st.epoch_alarms.clear();
        Ok(())
    }

    /// `(schema fingerprint, n_base_features, n_features)` for the binary
    /// session handshake.
    pub fn schema_info(&self, tenant: Option<&str>) -> Result<(u64, usize, usize), FleetError> {
        let slot = self.slot(tenant)?;
        Ok((slot.fingerprint, slot.n_base_features, slot.n_features))
    }

    /// Feed one raw event into a tenant's stream: a batch of one.
    pub fn ingest(
        &self,
        tenant: Option<&str>,
        event: orfpred_smart::gen::FleetEvent,
    ) -> Result<(), FleetError> {
        self.ingest_batch(tenant, std::iter::once(event))
    }

    /// Feed a batch of raw events under one tenant lock acquisition (the
    /// binary protocol's ingest path): one [`Engine::ingest_batch`] call,
    /// so the whole batch reaches each shard as one message.
    pub fn ingest_batch(
        &self,
        tenant: Option<&str>,
        events: impl IntoIterator<Item = orfpred_smart::gen::FleetEvent>,
    ) -> Result<(), FleetError> {
        let slot = self.slot(tenant)?;
        let st = slot.state.lock();
        let engine = st
            .engine
            .as_ref()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        engine.ingest_batch(events).map_err(FleetError::Engine)
    }

    /// Score a full-width feature row against a tenant's latest snapshot.
    pub fn score(&self, tenant: Option<&str>, features: &[f32]) -> Result<f32, FleetError> {
        let slot = self.slot(tenant)?;
        let st = slot.state.lock();
        let engine = st
            .engine
            .as_ref()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        Ok(engine.score(features))
    }

    /// Block until a tenant's stream is fully applied. Fails instead once
    /// a shard or the writer of the tenant's engine has died.
    pub fn flush(&self, tenant: Option<&str>) -> Result<(), FleetError> {
        let slot = self.slot(tenant)?;
        let st = slot.state.lock();
        let engine = st
            .engine
            .as_ref()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        Ok(engine.flush()?)
    }

    /// Drain a tenant's alarms raised since the last call, in stream order
    /// (alarms carried across a reshard barrier come first).
    pub fn take_alarms(&self, tenant: Option<&str>) -> Result<Vec<Alarm>, FleetError> {
        let slot = self.slot(tenant)?;
        let mut st = slot.state.lock();
        let mut out = std::mem::take(&mut st.pending);
        if let Some(engine) = &st.engine {
            out.extend(engine.take_alarms());
        }
        Ok(out)
    }

    /// Point-in-time per-tenant stats.
    pub fn stats(&self, tenant: Option<&str>) -> Result<TenantStats, FleetError> {
        let slot = self.slot(tenant)?;
        let st = slot.state.lock();
        let engine = st
            .engine
            .as_ref()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        let report = engine.stats();
        Ok(TenantStats {
            tenant: slot.name.clone(),
            n_shards: engine.n_shards() as u64,
            counters: TenantCounters {
                events: st.base_events + report.samples_ingested + report.failures_ingested,
                alarms: st.base_alarms + report.alarms_raised,
                drift_events: report.drift_events,
                model_rebuilds: report.model_rebuilds,
                reshards: st.reshards,
            },
            engine: report,
        })
    }

    /// Write an atomic checkpoint of one tenant to `path` (or the tenant's
    /// configured default). Returns the path written.
    pub fn checkpoint(
        &self,
        tenant: Option<&str>,
        path: Option<&Path>,
    ) -> Result<PathBuf, FleetError> {
        let slot = self.slot(tenant)?;
        let st = slot.state.lock();
        let target = match path {
            Some(p) => p.to_path_buf(),
            None => st.checkpoint_path.clone().ok_or_else(|| {
                FleetError::Invalid(format!(
                    "tenant `{}` has no default checkpoint path configured",
                    slot.name
                ))
            })?,
        };
        let engine = st
            .engine
            .as_ref()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        engine.checkpoint(&target).map_err(FleetError::Invalid)?;
        Ok(target)
    }

    /// Live re-shard: drain the tenant's engine through a suspend barrier
    /// and seed a successor with `n_shards` shards from the barrier
    /// checkpoint. Alarms the caller has not drained yet are carried over;
    /// the successor continues the stream bit-identically (the labelling
    /// queues are re-partitioned by the same stable `shard_of` hash the
    /// restore path has always used). Holds the tenant lock for the whole
    /// swap, so concurrent sessions simply observe it as one long request.
    /// An engine with a dead shard has no barrier checkpoint: the call
    /// fails and the tenant stays stopped until a restart restores it.
    pub fn reshard(&self, tenant: Option<&str>, n_shards: usize) -> Result<(), FleetError> {
        if n_shards == 0 {
            return Err(FleetError::Invalid("shard count must be at least 1".into()));
        }
        let slot = self.slot(tenant)?;
        let mut st = slot.state.lock();
        let engine = st
            .engine
            .take()
            .ok_or_else(|| FleetError::Stopped(slot.name.clone()))?;
        let fin = match engine.suspend() {
            Ok(fin) => fin,
            Err(e) => return Err(FleetError::Engine(e)),
        };
        // Read the epoch counters only after the suspend barrier drained
        // the writer — `alarms_raised` is bumped by the writer thread.
        let report = engine.stats();
        st.base_events += report.samples_ingested + report.failures_ingested;
        st.base_alarms += report.alarms_raised;
        // The suspended engine's fresh-alarm queue holds exactly the
        // alarms no caller has drained.
        st.pending.extend(engine.take_alarms());
        st.epoch_alarms.extend(fin.alarms);
        st.cfg.n_shards = n_shards;
        st.engine = Some(Engine::restore(&st.cfg, fin.checkpoint));
        st.reshards += 1;
        Ok(())
    }

    /// Shut down every tenant: drain, join, write each tenant's default
    /// checkpoint (when configured), and return per-tenant results in
    /// configuration order. Tenants already stopped are skipped. A tenant
    /// that fails (a dead shard leaves no final state) writes nothing and
    /// does not stop the others; the first failure is returned.
    pub fn finish(&self) -> Result<Vec<TenantFinished>, String> {
        let mut out = Vec::new();
        let mut failed = None;
        for slot in &self.tenants {
            match finish_tenant(slot) {
                Ok(fin) => out.extend(fin),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(out), Err)
    }
}

/// Shut one tenant down (see [`FleetEngine::finish`]); `None` when it was
/// already stopped.
fn finish_tenant(slot: &TenantSlot) -> Result<Option<TenantFinished>, String> {
    // Everything file-touching happens after the guard drops: the lock
    // only covers taking the engine out and snapshotting the bookkeeping.
    let (fin, mut alarms, counters, ckpt_path) = {
        let mut st = slot.state.lock();
        let Some(engine) = st.engine.take() else {
            return Ok(None);
        };
        let fin = engine
            .finish()
            .map_err(|e| format!("tenant `{}`: {e}", slot.name))?;
        let report = engine.stats();
        let alarms = std::mem::take(&mut st.epoch_alarms);
        let counters = TenantCounters {
            events: st.base_events + report.samples_ingested + report.failures_ingested,
            alarms: st.base_alarms + report.alarms_raised,
            drift_events: report.drift_events,
            model_rebuilds: report.model_rebuilds,
            reshards: st.reshards,
        };
        st.pending.clear();
        (fin, alarms, counters, st.checkpoint_path.clone())
    };
    alarms.extend_from_slice(&fin.alarms);
    if let Some(path) = &ckpt_path {
        fin.checkpoint
            .save_atomic(path)
            .map_err(|e| format!("tenant `{}`: {e}", slot.name))?;
    }
    Ok(Some(TenantFinished {
        tenant: slot.name.clone(),
        alarms,
        checkpoint: fin.checkpoint,
        counters,
    }))
}

/// Replay a tenant's store tail: verify the store's schema matches the
/// tenant's domain (a silent layout mismatch would misalign every feature
/// column), skip the first `skip` events, ingest the rest in batches of
/// [`BATCH_EVENTS`].
fn catch_up(tenant: &str, engine: &Engine, dir: &Path, skip: u64) -> Result<u64, String> {
    let store = orfpred_store::Store::open(dir).map_err(|e| format!("tenant `{tenant}`: {e}"))?;
    store
        .verify_domain(engine.schema())
        .map_err(|e| format!("tenant `{tenant}`: {e}"))?;
    let mut applied = 0u64;
    let mut batch = Vec::with_capacity(BATCH_EVENTS);
    let mut events = store.events_from(skip).peekable();
    while events.peek().is_some() {
        for ev in events.by_ref().take(BATCH_EVENTS) {
            batch.push(ev.map_err(|e| format!("tenant `{tenant}`: {e}"))?);
        }
        applied += batch.len() as u64;
        engine
            .ingest_batch(batch.drain(..))
            .map_err(|e| format!("tenant `{tenant}` catch-up: {e}"))?;
    }
    engine
        .flush()
        .map_err(|e| format!("tenant `{tenant}` catch-up: {e}"))?;
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};

    fn predictor(seed: u64) -> OnlinePredictorConfig {
        let mut p = OnlinePredictorConfig::new(vec![0, 1], seed);
        p.orf.n_trees = 3;
        p.orf.warmup_age = 0;
        p.orf.min_parent_size = 10.0;
        p.orf.lambda_neg = 0.5;
        p
    }

    fn events(seed: u64) -> Vec<FleetEvent> {
        let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
        cfg.n_good = 12;
        cfg.n_failed = 4;
        cfg.duration_days = 60;
        FleetSim::new(&cfg).collect()
    }

    fn two_tenant_fleet() -> FleetEngine {
        let cfgs = vec![
            TenantConfig::new("sta", predictor(3)),
            TenantConfig::new("stb", predictor(4)),
        ];
        FleetEngine::start(cfgs).unwrap().0
    }

    #[test]
    fn tenants_are_isolated_and_addressable() {
        let fleet = two_tenant_fleet();
        assert_eq!(fleet.tenant_names(), vec!["sta", "stb"]);
        for ev in events(11) {
            fleet.ingest(Some("sta"), ev).unwrap();
        }
        fleet.flush(Some("sta")).unwrap();
        let sta = fleet.stats(Some("sta")).unwrap();
        let stb = fleet.stats(Some("stb")).unwrap();
        assert!(sta.counters.events > 0);
        assert_eq!(stb.counters.events, 0, "other tenant untouched");
        assert!(matches!(
            fleet.ingest(Some("nope"), FleetEvent::Failure { disk_id: 1, day: 1 }),
            Err(FleetError::UnknownTenant(_))
        ));
        assert!(
            matches!(
                fleet.ingest(None, FleetEvent::Failure { disk_id: 1, day: 1 }),
                Err(FleetError::UnknownTenant(_))
            ),
            "tenant-less requests are ambiguous in a multi-tenant fleet"
        );
    }

    #[test]
    fn single_tenant_fleet_accepts_tenantless_requests() {
        let (fleet, _) = FleetEngine::start(vec![TenantConfig::new("solo", predictor(5))]).unwrap();
        for ev in events(12) {
            fleet.ingest(None, ev).unwrap();
        }
        fleet.flush(None).unwrap();
        assert!(fleet.stats(None).unwrap().counters.events > 0);
        fleet.finish().unwrap();
    }

    #[test]
    fn reshard_preserves_the_alarm_stream_and_counts() {
        let evs = events(13);
        let (reference, _) =
            FleetEngine::start(vec![TenantConfig::new("t", predictor(6))]).unwrap();
        for ev in &evs {
            reference.ingest(None, ev.clone()).unwrap();
        }
        let ref_fin = reference.finish().unwrap().remove(0);

        let (fleet, _) = FleetEngine::start(vec![TenantConfig::new("t", predictor(6))]).unwrap();
        let mid = evs.len() / 2;
        let mut drained = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            if i == mid {
                fleet.flush(None).unwrap();
                drained.extend(fleet.take_alarms(None).unwrap());
                fleet.reshard(None, 3).unwrap();
            }
            fleet.ingest(None, ev.clone()).unwrap();
        }
        let fin = fleet.finish().unwrap().remove(0);
        assert_eq!(fin.counters.reshards, 1);
        assert_eq!(fin.counters.events, evs.len() as u64);
        assert_eq!(
            fin.alarms, ref_fin.alarms,
            "full alarm stream identical across the live reshard"
        );
        assert!(
            !drained.is_empty() || fin.alarms.is_empty() || mid == 0,
            "sanity: mid-stream drain ran"
        );
    }

    #[test]
    fn undrained_alarms_survive_a_reshard() {
        let evs = events(14);
        let (fleet, _) = FleetEngine::start(vec![TenantConfig::new("t", predictor(6))]).unwrap();
        let mid = evs.len() / 2;
        for ev in evs.iter().take(mid) {
            fleet.ingest(None, ev.clone()).unwrap();
        }
        fleet.flush(None).unwrap();
        // Nothing drained before the reshard: every alarm so far must be
        // carried into the successor epoch's pending list.
        fleet.reshard(None, 2).unwrap();
        for ev in evs.iter().skip(mid) {
            fleet.ingest(None, ev.clone()).unwrap();
        }
        fleet.flush(None).unwrap();
        let drained = fleet.take_alarms(None).unwrap();
        let fin = fleet.finish().unwrap().remove(0);
        assert_eq!(
            drained.len(),
            fin.alarms.len(),
            "take_alarms after the reshard saw carried + fresh alarms"
        );
        assert_eq!(drained, fin.alarms);
    }

    #[test]
    fn a_dead_shard_fails_finish_and_keeps_the_last_checkpoint() {
        #[derive(Debug)]
        struct KillAt(u64);
        impl orfpred_serve::FaultInjector for KillAt {
            fn kill_shard(&self, _shard: usize, seq: u64) -> bool {
                seq == self.0
            }
        }
        let dir = std::env::temp_dir().join(format!("orfpred_fleet_dead_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut dead = TenantConfig::new("dead", predictor(6));
        dead.serve.n_shards = 1;
        // Seq 30 is the checkpoint barrier below; seq 40 is an event after it.
        dead.serve.injector = std::sync::Arc::new(KillAt(40));
        dead.checkpoint_path = Some(dir.join("dead.json"));
        let mut live = TenantConfig::new("live", predictor(7));
        live.checkpoint_path = Some(dir.join("live.json"));
        let (fleet, _) = FleetEngine::start(vec![dead, live]).unwrap();

        let evs = events(15);
        fleet
            .ingest_batch(Some("dead"), evs[..30].to_vec())
            .unwrap();
        let saved = fleet.checkpoint(Some("dead"), None).unwrap();
        let before = std::fs::read(&saved).unwrap();
        fleet
            .ingest_batch(Some("dead"), evs[30..60].to_vec())
            .unwrap();
        fleet
            .ingest_batch(Some("live"), evs[..60].to_vec())
            .unwrap();
        assert!(matches!(
            fleet.flush(Some("dead")),
            Err(FleetError::Engine(ServeError::WorkerPanicked))
        ));

        let err = fleet.finish().err().expect("the dead tenant fails finish");
        assert!(err.contains("tenant `dead`"), "{err}");
        assert_eq!(
            std::fs::read(&saved).unwrap(),
            before,
            "the dead tenant's last checkpoint is left as it was"
        );
        assert!(
            dir.join("live.json").exists(),
            "the other tenant still saved its state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_empty_names_rejected() {
        assert!(FleetEngine::start(vec![]).is_err());
        assert!(FleetEngine::start(vec![
            TenantConfig::new("a", predictor(1)),
            TenantConfig::new("a", predictor(2)),
        ])
        .is_err());
        assert!(FleetEngine::start(vec![TenantConfig::new("", predictor(1))]).is_err());
    }

    #[test]
    fn zero_shard_reshard_is_rejected() {
        let (fleet, _) = FleetEngine::start(vec![TenantConfig::new("t", predictor(6))]).unwrap();
        assert!(matches!(
            fleet.reshard(None, 0),
            Err(FleetError::Invalid(_))
        ));
        fleet.finish().unwrap();
    }
}
