//! The output schema: `BENCHMARK.json` declares exactly the workloads and
//! metrics the benchmark emits, and the result line has the agreed shape.

use orfbench::replay::{Layer, LAYERS};
use orfbench::report::{metric, render, END_TO_END, PER_LAYER};
use orfbench::workload::{Workload, ALL, SAMPLE_DAY_OFFSET};
use orfpred_fleet::ClientFrame;
use serde_json::ValueRef;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn str_field<'a>(v: &'a ValueRef<'a>, key: &str) -> &'a str {
    match v.get(key) {
        Some(ValueRef::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn names_units<'a>(root: &'a ValueRef<'a>, key: &str) -> Vec<(&'a str, &'a str)> {
    let Some(ValueRef::Arr(items)) = root.get(key) else {
        panic!("`{key}` is not an array");
    };
    items
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let text = benchmark_json();
    let root = serde_json::value_ref_from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(names_units(&root, "end_to_end"), END_TO_END.to_vec());
    assert_eq!(names_units(&root, "per_layer"), PER_LAYER.to_vec());
    let Some(ValueRef::Arr(workloads)) = root.get("workloads") else {
        panic!("no workloads");
    };
    let declared: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let ours: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);
    for w in ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn result_line_has_the_agreed_shape() {
    let metrics: Vec<_> = END_TO_END.iter().map(|(n, _)| metric(n, 1.5)).collect();
    let line = render(true, 10, 0, &metrics);
    let v = serde_json::value_ref_from_str(&line).unwrap();
    let ValueRef::Obj(fields) = &v else {
        panic!("not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_ref()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let m = v.get("metrics").unwrap().get("setup_s").unwrap();
    assert_eq!(m.get("value"), Some(&ValueRef::Float(1.5)));
    assert_eq!(str_field(m, "unit"), "s");
    // Non-finite values never reach the JSON.
    let line = render(false, 1, 1, &[metric("setup_s", f64::NAN)]);
    assert!(serde_json::value_ref_from_str(&line).is_ok(), "{line}");
}

#[test]
fn layer_table_is_indexed_by_layer() {
    for (i, (l, _)) in LAYERS.iter().enumerate() {
        assert_eq!(*l as usize, i);
    }
    assert_eq!(LAYERS[Layer::Freeze as usize].1, "core.forest.freeze");
}

#[test]
fn template_day_offset_matches_the_wire_layout() {
    let mut buf = Vec::new();
    ClientFrame::Sample {
        disk_id: 1,
        day: 0xBEEF,
        features: vec![1.0; 3],
    }
    .encode(&mut buf);
    assert_eq!(
        buf[SAMPLE_DAY_OFFSET..SAMPLE_DAY_OFFSET + 2],
        0xBEEFu16.to_le_bytes()
    );
}
