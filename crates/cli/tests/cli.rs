//! End-to-end CLI tests: drive the built `orfpred` binary through the full
//! simulate → inspect → train → score → eval workflow, exactly as a
//! downstream operator would.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orfpred"))
}

fn tmp(name: &str) -> (PathBuf, String) {
    let p = std::env::temp_dir().join(format!("orfpred_cli_{}_{name}", std::process::id()));
    let s = p.to_str().unwrap().to_string();
    (p, s)
}

#[test]
fn full_workflow_simulate_train_score_eval() {
    let (csv_path, csv) = tmp("fleet.csv");
    let (model_path, model) = tmp("model.json");

    // simulate
    let out = bin()
        .args([
            "simulate",
            "--out",
            &csv,
            "--dataset",
            "sta",
            "--scale",
            "tiny",
            "--seed",
            "7",
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(csv_path.exists());

    // inspect
    let out = bin().args(["inspect", "--csv", &csv]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ST4000DM000"), "inspect output: {text}");
    assert!(text.contains("failed"), "inspect output: {text}");

    // train (offline)
    let out = bin()
        .args(["train", "--csv", &csv, "--model", &model, "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model_path.exists());

    // model inspect
    let out = bin()
        .args(["model", "inspect", "--model", &model, "--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "model inspect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("offline random forest (frozen)"), "{text}");
    assert!(text.contains("depth histogram"), "{text}");
    assert!(text.contains("frozen footprint"), "{text}");
    // One layout, one footprint line.
    assert_eq!(text.matches("footprint").count(), 1, "{text}");
    assert!(
        text.contains("smart_"),
        "inspect must name features: {text}"
    );

    // score
    let out = bin()
        .args(["score", "--csv", &csv, "--model", &model, "--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "score failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() >= 6, "score output: {text}");
    assert!(text.contains("risk"));

    // eval
    let out = bin()
        .args([
            "eval",
            "--csv",
            &csv,
            "--model",
            &model,
            "--target-far",
            "0.05",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "eval failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AUC"), "eval output: {text}");
    assert!(text.contains("FDR"), "eval output: {text}");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn online_training_path_works() {
    let (csv_path, csv) = tmp("fleet2.csv");
    let (model_path, model) = tmp("model2.json");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            &csv,
            "--dataset",
            "stb",
            "--scale",
            "tiny",
            "--seed",
            "9"
        ])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["train", "--csv", &csv, "--model", &model, "--online"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("online random forest"));

    // model inspect on the ORF-frozen model: the same report, whose one
    // footprint line also prices the live candidate-test pools it dropped.
    let out = bin()
        .args(["model", "inspect", "--model", &model])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "model inspect (online) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("online random forest (frozen)"), "{text}");
    assert!(text.contains("depth histogram"), "{text}");
    assert!(
        text.contains("frozen footprint") && text.contains("live candidate-test pools"),
        "{text}"
    );

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn drift_command_reports_cumulative_attributes() {
    let (csv_path, csv) = tmp("fleet3.csv");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            &csv,
            "--dataset",
            "sta",
            "--scale",
            "tiny",
            "--seed",
            "4"
        ])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["drift", "--csv", &csv, "--top", "6"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Power-On Hours is the canonical drifting attribute.
    assert!(text.contains("smart_9_raw"), "drift output: {text}");
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn assess_command_triages_disks() {
    let (csv_path, csv) = tmp("fleet4.csv");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            &csv,
            "--dataset",
            "stb",
            "--scale",
            "tiny",
            "--seed",
            "6"
        ])
        .status()
        .unwrap()
        .success());
    let out = bin().args(["assess", "--csv", &csv]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("act-now"), "assess output: {text}");
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn data_store_workflow_record_info_verify_train() {
    let (store_path, store) = tmp("store");
    std::fs::remove_dir_all(&store_path).ok();
    let (model_path, model) = tmp("model5.json");

    // record straight from the simulator
    let out = bin()
        .args([
            "data",
            "record",
            "--out",
            &store,
            "--dataset",
            "sta",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--segment-rows",
            "512",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "data record failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("recorded"));
    assert!(store_path.join("store.json").exists());

    // info
    let out = bin()
        .args(["data", "info", "--store", &store])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "data info failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ST4000DM000"), "info output: {text}");
    assert!(text.contains("compression"), "info output: {text}");
    assert!(text.contains("smart_"), "info must name columns: {text}");

    // verify
    let out = bin()
        .args(["data", "verify", "--store", &store])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "data verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok:"));

    // a store is a drop-in CSV replacement downstream
    let out = bin()
        .args(["train", "--store", &store, "--model", &model, "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train --store failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model_path.exists());

    // verify flags corruption loudly
    let seg = std::fs::read_dir(&store_path)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "orfseg"))
        .expect("a segment file");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();
    let out = bin()
        .args(["data", "verify", "--store", &store])
        .output()
        .unwrap();
    assert!(!out.status.success(), "verify must fail on a flipped bit");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt"),
        "typed corruption message: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&store_path).ok();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn lenient_csv_parsing_skips_bad_rows_with_a_warning() {
    let (csv_path, csv) = tmp("fleet6.csv");
    assert!(bin()
        .args(["simulate", "--out", &csv, "--scale", "tiny", "--seed", "2"])
        .status()
        .unwrap()
        .success());
    // Wreck one data row.
    let mut text = std::fs::read_to_string(&csv_path).unwrap();
    let line_start = text.match_indices('\n').nth(2).unwrap().0 + 1;
    let line_end = text[line_start..].find('\n').unwrap() + line_start;
    text.replace_range(line_start..line_end, "not,a,row");
    std::fs::write(&csv_path, &text).unwrap();

    // Strict parse fails with the line number…
    let out = bin().args(["inspect", "--csv", &csv]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 4"),
        "strict error names the line: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // …lenient skips it and says so.
    let out = bin()
        .args(["inspect", "--csv", &csv, "--lenient"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lenient inspect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("skipped 1 of"),
        "skip warning: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn bad_usage_exits_nonzero_with_message() {
    let out = bin().output().unwrap();
    assert!(!out.status.success(), "no-arg run must fail");

    let out = bin().args(["train", "--csv"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args([
            "score",
            "--csv",
            "/nonexistent.csv",
            "--model",
            "/nonexistent.json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Run `orfpred serve` with `args`, feeding `input` on stdin.
fn serve(args: &[&str], input: &str) -> std::process::Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = bin()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orfpred serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("orfpred serve exits")
}

#[test]
fn serve_takes_the_orfpredd_flag_set() {
    // The flag list `crates/fleet/tests/orfpredd.rs` gives `orfpredd`.
    let (ck, ck_arg) = tmp("serve_ck.json");
    let out = serve(
        &[
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--checkpoint",
            &ck_arg,
            "--threshold",
            "0.6",
            "--window",
            "5",
            "--seed",
            "7",
            "--trees",
            "9",
            "--queue-capacity",
            "64",
            "--snapshot-every",
            "32",
            "--prep",
            "--stuck-run",
            "3",
            "--recheck-days",
            "1",
            "--max-value",
            "1e6",
            "--drift-policy",
            "accumulate",
            "--drift-z",
            "3.5",
            "--drift-window",
            "200",
            "--drift-check-every",
            "50",
        ],
        "{\"type\":\"sample\",\"disk_id\":1,\"day\":0,\"features\":[1,2,3]}\n\
         {\"type\":\"stats\"}\n{\"type\":\"checkpoint\"}\n{\"type\":\"shutdown\"}\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve failed: {stderr}");
    assert!(
        stdout.contains("\"type\":\"stats\",\"tenant\":\"default\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"what\":\"checkpoint "), "{stdout}");
    assert!(stdout.contains("\"what\":\"shutdown\""), "{stdout}");
    assert!(
        stderr.contains("serve: clean shutdown, 1 tenant(s)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("serve: tenant `default`: 1 events"),
        "{stderr}"
    );
    assert!(ck.exists(), "default checkpoint written");
    std::fs::remove_file(&ck).ok();

    let out = serve(&["--tenant", "a", "--shards", "3"], "");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`shards=...`"));
}
