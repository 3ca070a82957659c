//! Metric names and units, and the one-line JSON result.

use serde::Value;

/// End-to-end metrics of an untraced run: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics of a traced run: name, unit. Layers are named after
/// the modules whose public calls the trace times; `serve.engine.*` are the
/// daemon's own counters; `probe.*` is the score probe of the untraced
/// repeat (zero samples on workloads without one).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.forest.update_ns", "ns"),
    ("core.forest.updates", "count"),
    ("core.forest.trees_replaced", "count"),
    ("core.forest.nodes_end", "count"),
    ("core.forest.test_pool_mb", "MB"),
    ("core.forest.score_ns", "ns"),
    ("core.forest.freeze_us", "us"),
    ("core.forest.freezes", "count"),
    ("trees.frozen.kb", "KB"),
    ("trees.frozen.score_ns", "ns"),
    ("smart.scale.ns", "ns"),
    ("core.labeller.ns", "ns"),
    ("core.labeller.released", "count"),
    ("core.labeller.pending_end", "count"),
    ("fleet.wire.decode_ns", "ns"),
    ("fleet.wire.bytes_per_event", "B"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.bytes_per_event", "B"),
    ("serve.checkpoint.load_ms", "ms"),
    ("serve.checkpoint.save_ms", "ms"),
    ("serve.checkpoint.mb", "MB"),
    ("serve.engine.alarms", "count"),
    ("serve.engine.snapshots_published", "count"),
    ("serve.engine.trees_replaced", "count"),
    ("serve.engine.forest_samples_seen", "count"),
    ("serve.engine.score_p50_ns", "ns"),
    ("serve.engine.score_p99_ns", "ns"),
    ("trace.layer_sum_us_per_event", "us"),
    ("trace.gap_cpu_share", "ratio"),
    ("probe.score_p50_us", "us"),
    ("probe.score_p99_us", "us"),
    ("probe.samples", "count"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (possibly prefixed by its workload).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Look up the unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("undeclared metric `{name}`"))
}

/// A metric declared in [`END_TO_END`] or [`PER_LAYER`].
pub fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit_of(name),
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    serde_json::value_to_string(&Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(i128::from(attempted))),
        ("failed".into(), Value::Int(i128::from(failed))),
        ("metrics".into(), Value::Obj(metrics)),
    ]))
}
