//! The `orfpredd` binary end to end: the full daemon flag set, driven over
//! stdin/stdout as an operator would. `crates/cli/tests/cli.rs` drives
//! `orfpred serve` with the same flags; both front-ends share one parser.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Run `orfpredd` with `args`, feeding `input` on stdin.
fn orfpredd(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_orfpredd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orfpredd");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("orfpredd exits")
}

#[test]
fn every_flag_builds_the_default_tenant_and_serves_it() {
    let ck = std::env::temp_dir().join(format!("orfpredd_flags_{}.json", std::process::id()));
    let ck_arg = ck.to_string_lossy().into_owned();
    let out = orfpredd(
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
    assert!(out.status.success(), "orfpredd failed: {stderr}");
    assert!(
        stdout.contains("\"type\":\"stats\",\"tenant\":\"default\""),
        "stats name the flag-built tenant: {stdout}"
    );
    assert!(stdout.contains("\"what\":\"checkpoint "), "{stdout}");
    assert!(stdout.contains("\"what\":\"shutdown\""), "{stdout}");
    assert!(
        stderr.contains("orfpredd: clean shutdown, 1 tenant(s)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("orfpredd: tenant `default`: 1 events"),
        "{stderr}"
    );
    assert!(ck.exists(), "default checkpoint written");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn tenant_flags_beside_tenant_are_refused() {
    let out = orfpredd(&["--tenant", "a", "--shards", "3"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`shards=...`"), "{stderr}");

    let out = orfpredd(&["--help"], "");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--drift-policy"));
}
