//! Live serving counters: lock-free atomics updated by the ingest path,
//! the shards, and the model writer; snapshotted on demand by `stats`
//! requests.

use orfpred_prep::PrepCounters;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of logarithmic latency buckets (bucket `i` holds durations with
/// 64-bit nanosecond values of `i` significant bits, i.e. `[2^(i-1), 2^i)`).
const N_BUCKETS: usize = 64;

/// Log-bucketed latency histogram with atomic counters.
///
/// Percentiles are approximate (upper bucket bound, i.e. within 2× of the
/// true value), which is plenty for spotting serving regressions live.
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (64 - ns.leading_zeros()) as usize; // 0 for ns == 0
        self.buckets[bucket.min(N_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate `q`-quantile in nanoseconds (upper bound of the bucket
    /// containing it); 0 when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i).saturating_sub(1).max(1)
                };
            }
        }
        u64::MAX
    }
}

/// Shared live counters for one [`crate::Engine`].
#[derive(Default)]
pub struct ServeStats {
    /// SMART snapshots accepted by `ingest`.
    pub samples_ingested: AtomicU64,
    /// Failure events accepted by `ingest`.
    pub failures_ingested: AtomicU64,
    /// Alarms the model writer has raised.
    pub alarms_raised: AtomicU64,
    /// Sequence numbers issued by the ingest path.
    pub events_issued: AtomicU64,
    /// Sequence numbers the writer has fully applied.
    pub events_applied: AtomicU64,
    /// Training samples the forest has consumed (mirrored from the writer).
    pub forest_samples_seen: AtomicU64,
    /// Trees discarded and regrown (mirrored from the writer).
    pub trees_replaced: AtomicU64,
    /// Model snapshots published for score requests.
    pub snapshots_published: AtomicU64,
    /// Distribution shifts the adaptation loop has declared (mirrored
    /// from the writer; stays 0 without an adaptation loop).
    pub drift_events: AtomicU64,
    /// Forests rebuilt by the long-term update policy (mirrored from the
    /// writer; stays 0 under `no-update` or without adaptation).
    pub model_rebuilds: AtomicU64,
    /// In-flight events per shard (sent by ingest, not yet picked up).
    pub shard_depths: Vec<AtomicU64>,
    /// Latency of snapshot scoring (`score` requests) and of the writer's
    /// in-stream scoring, pooled.
    pub score_latency: LatencyHistogram,
}

impl ServeStats {
    /// Counters for an engine with `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self {
            shard_depths: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Materialize a point-in-time report.
    pub fn report(&self) -> StatsReport {
        StatsReport {
            samples_ingested: self.samples_ingested.load(Ordering::Relaxed),
            failures_ingested: self.failures_ingested.load(Ordering::Relaxed),
            alarms_raised: self.alarms_raised.load(Ordering::Relaxed),
            events_issued: self.events_issued.load(Ordering::Relaxed),
            events_applied: self.events_applied.load(Ordering::Relaxed),
            forest_samples_seen: self.forest_samples_seen.load(Ordering::Relaxed),
            trees_replaced: self.trees_replaced.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            drift_events: self.drift_events.load(Ordering::Relaxed),
            model_rebuilds: self.model_rebuilds.load(Ordering::Relaxed),
            prep: None,
            shard_queue_depths: self
                .shard_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            scores_measured: self.score_latency.count(),
            score_latency_p50_ns: self.score_latency.quantile_ns(0.50),
            score_latency_p90_ns: self.score_latency.quantile_ns(0.90),
            score_latency_p99_ns: self.score_latency.quantile_ns(0.99),
        }
    }
}

/// Point-in-time snapshot of [`ServeStats`], as returned to `stats`
/// protocol requests and by [`crate::Engine::stats`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsReport {
    /// SMART snapshots accepted by `ingest`.
    pub samples_ingested: u64,
    /// Failure events accepted by `ingest`.
    pub failures_ingested: u64,
    /// Alarms the model writer has raised.
    pub alarms_raised: u64,
    /// Sequence numbers issued by the ingest path.
    pub events_issued: u64,
    /// Sequence numbers the writer has fully applied; `events_issued -
    /// events_applied` is the engine's total in-flight backlog.
    pub events_applied: u64,
    /// Training samples the forest has consumed.
    pub forest_samples_seen: u64,
    /// Trees discarded and regrown by the ORF's OOBE replacement.
    pub trees_replaced: u64,
    /// Model snapshots published for score requests.
    pub snapshots_published: u64,
    /// Distribution shifts the adaptation loop has declared.
    pub drift_events: u64,
    /// Forests rebuilt by the long-term update policy.
    pub model_rebuilds: u64,
    /// Per-rule repair counters of the ingest-side preprocessing stage;
    /// `None` when the engine runs without one.
    pub prep: Option<PrepCounters>,
    /// In-flight events per shard.
    pub shard_queue_depths: Vec<u64>,
    /// Observations in the score-latency histogram.
    pub scores_measured: u64,
    /// Approximate median scoring latency (ns).
    pub score_latency_p50_ns: u64,
    /// Approximate 90th-percentile scoring latency (ns).
    pub score_latency_p90_ns: u64,
    /// Approximate 99th-percentile scoring latency (ns).
    pub score_latency_p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(Duration::from_nanos(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_000_000));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5);
        assert!((64..=255).contains(&p50), "p50 bucket for 100ns: {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 524_287, "p99 must land in the 1ms bucket: {p99}");
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn report_mirrors_counters() {
        let s = ServeStats::new(3);
        s.samples_ingested.store(7, Ordering::Relaxed);
        s.shard_depths[1].store(4, Ordering::Relaxed);
        let r = s.report();
        assert_eq!(r.samples_ingested, 7);
        assert_eq!(r.shard_queue_depths, vec![0, 4, 0]);
    }
}
