//! Fixture-driven end-to-end checks of the rule engine.
//!
//! Each file under `tests/fixtures/` seeds one deliberate violation of
//! one rule; the engine must report exactly the documented
//! `(file, line, rule)` triple — and the annotation escape hatch must
//! suppress if and only if it carries a reason. The fixtures are lexed,
//! never compiled, so they can use banned constructs freely.

use orfpred_analyze::{analyze, AllowEntry, Report, RuleId, SourceFile};

/// Load `tests/fixtures/<name>` as if it lived in crate `crate_name`.
fn fixture(name: &str, crate_name: &str) -> SourceFile {
    let disk = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    SourceFile {
        text: std::fs::read_to_string(&disk)
            .unwrap_or_else(|e| panic!("reading fixture {disk}: {e}")),
        path: format!("tests/fixtures/{name}"),
        crate_name: crate_name.into(),
    }
}

fn run(name: &str, crate_name: &str) -> Report {
    analyze(&[fixture(name, crate_name)], &[])
}

/// The `(path, line, rule)` triples of every surviving violation.
fn triples(r: &Report) -> Vec<(String, u32, RuleId)> {
    r.violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect()
}

#[test]
fn nondeterminism_fixture_flags_every_hashmap_line() {
    let r = run("nondeterminism.rs", "core");
    assert_eq!(
        triples(&r),
        vec![
            (
                "tests/fixtures/nondeterminism.rs".into(),
                3,
                RuleId::Nondeterminism
            ),
            (
                "tests/fixtures/nondeterminism.rs".into(),
                5,
                RuleId::Nondeterminism
            ),
            (
                "tests/fixtures/nondeterminism.rs".into(),
                6,
                RuleId::Nondeterminism
            ),
        ],
    );
}

#[test]
fn nondeterminism_fixture_is_fine_outside_the_deterministic_scope() {
    // `serve` is not a determinism-scoped crate, and the fixture holds no
    // panic or lock violations.
    let r = run("nondeterminism.rs", "serve");
    assert_eq!(triples(&r), vec![]);
}

#[test]
fn unsafe_audit_fixture_flags_the_bare_block_and_inventories_it() {
    let r = run("unsafe_audit.rs", "serve");
    assert_eq!(
        triples(&r),
        vec![(
            "tests/fixtures/unsafe_audit.rs".into(),
            4,
            RuleId::UnsafeAudit
        )],
    );
    assert_eq!(r.inventory.len(), 1);
    let site = &r.inventory[0];
    assert_eq!((site.line, site.kind), (4, "block"));
    assert!(site.safety.is_none(), "no SAFETY comment in the fixture");
    assert!(!site.in_test);
}

#[test]
fn panic_path_fixture_flags_the_unwrap() {
    let r = run("panic_path.rs", "store");
    assert_eq!(
        triples(&r),
        vec![("tests/fixtures/panic_path.rs".into(), 5, RuleId::PanicPath)],
    );
}

#[test]
fn panic_path_fixture_is_fine_outside_the_panic_scope() {
    // `trees` is determinism-scoped but not panic-scoped; an unwrap there
    // is allowed (assertive style is the norm in the model crates).
    let r = run("panic_path.rs", "trees");
    assert_eq!(triples(&r), vec![]);
}

#[test]
fn lock_discipline_fixture_flags_the_guard_binding_line() {
    let r = run("lock_discipline.rs", "serve");
    assert_eq!(
        triples(&r),
        vec![(
            "tests/fixtures/lock_discipline.rs".into(),
            5,
            RuleId::LockDiscipline
        )],
    );
}

#[test]
fn allow_with_reason_suppresses_the_next_code_line() {
    let r = run("allowed.rs", "core");
    assert_eq!(triples(&r), vec![], "reasoned allow must suppress");
}

#[test]
fn reasonless_allow_suppresses_nothing_and_is_itself_flagged() {
    let r = run("reasonless.rs", "core");
    assert_eq!(
        triples(&r),
        vec![
            (
                "tests/fixtures/reasonless.rs".into(),
                5,
                RuleId::AllowSyntax
            ),
            (
                "tests/fixtures/reasonless.rs".into(),
                6,
                RuleId::Nondeterminism
            ),
        ],
    );
}

#[test]
fn lint_toml_entry_suppresses_and_unused_entries_are_noted() {
    let file = fixture("panic_path.rs", "store");
    let used = AllowEntry {
        rule: RuleId::PanicPath,
        path: "tests/fixtures/panic_path.rs".into(),
        line: Some(5),
        reason: "fixture exercise".into(),
    };
    let unused = AllowEntry {
        rule: RuleId::Nondeterminism,
        path: "tests/fixtures/panic_path.rs".into(),
        line: None,
        reason: "never matches".into(),
    };
    let r = analyze(std::slice::from_ref(&file), &[used, unused]);
    assert_eq!(
        triples(&r),
        vec![],
        "allowlisted violation must not survive"
    );
    assert_eq!(
        r.notes.len(),
        1,
        "exactly the unused entry is noted: {:?}",
        r.notes
    );
    assert!(r.notes[0].contains("unused"), "{:?}", r.notes);
}

#[test]
fn batch_kernel_unsafe_sites_are_inventoried_and_justified() {
    // The frozen forest's block kernel is the workspace's densest unsafe
    // code (unchecked lane gathers); it must sit inside the determinism
    // scope (crate `trees`) and every one of its unsafe sites must be
    // inventoried with a `// SAFETY:` justification.
    assert!(
        orfpred_analyze::rules::DETERMINISTIC_CRATES.contains(&"trees"),
        "the kernel crate must stay in the determinism scope"
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf();
    let files = orfpred_analyze::load_workspace(&root).expect("workspace walks");
    let allows =
        orfpred_analyze::load_allowlist(&root.join("lint.toml")).expect("lint.toml parses");
    let report = analyze(&files, &allows);
    let kernel: Vec<&orfpred_analyze::UnsafeSite> = report
        .inventory
        .iter()
        .filter(|s| s.path.ends_with("crates/trees/src/frozen.rs") && !s.in_test)
        .collect();
    assert!(
        !kernel.is_empty(),
        "the kernel's unchecked lane indexing must appear in the unsafe inventory"
    );
    for s in &kernel {
        assert!(
            s.safety.is_some(),
            "{}:{} ({}) lacks a SAFETY justification",
            s.path,
            s.line,
            s.kind
        );
    }
}

#[test]
fn the_workspace_itself_is_clean_under_the_committed_allowlist() {
    // The CI gate in scripts/ci.sh relies on this invariant; keep it
    // enforced from the test suite too so `cargo test` alone catches a
    // regression.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf();
    let files = orfpred_analyze::load_workspace(&root).expect("workspace walks");
    let corpus = orfpred_analyze::load_corpus(&root).expect("wire corpus loads");
    let allows =
        orfpred_analyze::load_allowlist(&root.join("lint.toml")).expect("lint.toml parses");
    let report = orfpred_analyze::analyze_with_corpus(&files, &corpus, &allows);
    assert!(
        report.violations.is_empty(),
        "workspace must stay lint-clean:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "  {}:{}: [{}] {}",
                v.path,
                v.line,
                v.rule.as_str(),
                v.message
            ))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}
