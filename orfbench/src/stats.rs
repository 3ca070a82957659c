//! Small statistics helpers and the parser for the daemons' output lines.

use orfpred_core::Alarm;
use serde_json::ValueRef;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Exact nearest-rank `q`-quantile of ascending `sorted` samples; `None`
/// when there are none.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Whether `n` samples support reporting the `q`-quantile: at least ten
/// samples must lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The counters the benchmark reads from one `stats` reply line, in either
/// the classic daemon's flat layout or the fleet daemon's per-tenant one
/// (which nests the same engine counters under `"engine"`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsLine {
    /// Tenant the line reports on (`None` from the classic daemon).
    pub tenant: Option<String>,
    /// Samples plus failures accepted by ingest this daemon run.
    pub events: u64,
    /// Alarms raised by the model writer.
    pub alarms: u64,
    /// Sequence numbers issued by ingest.
    pub issued: u64,
    /// Sequence numbers applied by the model writer.
    pub applied: u64,
    /// Training samples the forest absorbed (as of the last snapshot).
    pub forest_samples_seen: u64,
    /// Trees discarded and regrown (as of the last snapshot).
    pub trees_replaced: u64,
    /// Scoring snapshots published.
    pub snapshots_published: u64,
    /// The daemon's own approximate score-latency median (ns).
    pub score_p50_ns: u64,
    /// The daemon's own approximate score-latency 99th percentile (ns).
    pub score_p99_ns: u64,
}

impl StatsLine {
    /// Ingest is fully applied and covers `sent` events.
    pub fn drained(&self, sent: u64) -> bool {
        self.events == sent && self.applied == self.issued
    }
}

/// One line the daemon writes to its standard output.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// An alarm.
    Alarm(Alarm),
    /// A `stats` reply.
    Stats(StatsLine),
    /// An error reply, with its message.
    Error(String),
    /// Anything else (`ok`, `score`, blank lines).
    Other,
}

/// Classify and parse one output line of either daemon.
pub fn parse_reply(line: &str) -> Reply {
    let Ok(v) = serde_json::value_ref_from_str(line.trim()) else {
        return Reply::Other;
    };
    let field = |obj: &ValueRef<'_>, key: &str| match obj.get(key) {
        Some(ValueRef::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    };
    match v.get("type") {
        Some(ValueRef::Str(t)) if t == "alarm" => {
            let score = match v.get("score") {
                Some(ValueRef::Float(f)) => *f as f32,
                Some(ValueRef::Int(i)) => *i as f32,
                _ => return Reply::Other,
            };
            match (field(&v, "disk_id"), field(&v, "day")) {
                (Some(disk_id), Some(day)) => Reply::Alarm(Alarm {
                    disk_id: disk_id as u32,
                    day: day as u16,
                    score,
                }),
                _ => Reply::Other,
            }
        }
        Some(ValueRef::Str(t)) if t == "error" => Reply::Error(match v.get("message") {
            Some(ValueRef::Str(m)) => m.to_string(),
            _ => String::new(),
        }),
        Some(ValueRef::Str(t)) if t == "stats" => {
            let tenant = match v.get("tenant") {
                Some(ValueRef::Str(t)) => Some(t.to_string()),
                _ => None,
            };
            let engine = v.get("engine").unwrap_or(&v);
            let num = |key: &str| field(engine, key);
            let parsed = (|| {
                Some(StatsLine {
                    tenant,
                    events: num("samples_ingested")? + num("failures_ingested")?,
                    alarms: num("alarms_raised")?,
                    issued: num("events_issued")?,
                    applied: num("events_applied")?,
                    forest_samples_seen: num("forest_samples_seen")?,
                    trees_replaced: num("trees_replaced")?,
                    snapshots_published: num("snapshots_published")?,
                    score_p50_ns: num("score_latency_p50_ns")?,
                    score_p99_ns: num("score_latency_p99_ns")?,
                })
            })();
            parsed.map_or(Reply::Other, Reply::Stats)
        }
        _ => Reply::Other,
    }
}
