//! End-to-end smoke run: every workload at `Tiny` scale against the real
//! daemon, untraced and traced, emitting every declared metric.

use orfbench::report::{END_TO_END, PER_LAYER};
use orfbench::workload::ALL;
use serde_json::ValueRef;
use std::process::Command;

fn run_tiny(trace: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_orfbench"))
        .current_dir(root)
        .args([
            "--scale",
            "tiny",
            "--seconds",
            "0",
            "--seed",
            "5",
            "--trace",
            trace,
        ])
        .output()
        .expect("run orfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "orfbench failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().expect("a result line").to_string()
}

fn check(line: &str, declared: &[(&str, &str)], nonzero: bool) {
    let v = serde_json::value_ref_from_str(line).expect("result line is JSON");
    assert_eq!(v.get("correct"), Some(&ValueRef::Bool(true)), "{line}");
    assert_eq!(v.get("failed"), Some(&ValueRef::Int(0)), "{line}");
    let metrics = v.get("metrics").expect("metrics");
    for w in ALL {
        for (name, unit) in declared {
            let key = format!("{}.{name}", w.name());
            let m = metrics.get(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(m.get("unit"), Some(&ValueRef::Str((*unit).into())), "{key}");
            if nonzero {
                assert!(
                    matches!(m.get("value"), Some(ValueRef::Float(x)) if *x > 0.0),
                    "{key} must be positive: {line}"
                );
            }
        }
    }
}

#[test]
fn tiny_run_emits_every_metric_for_every_workload() {
    let untraced = run_tiny("0");
    check(&untraced, &END_TO_END, true);
    let traced = run_tiny("1");
    check(&traced, &PER_LAYER, false);
}
