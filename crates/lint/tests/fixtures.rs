//! Golden-fixture and self-check integration tests for `laser-lint`.
//!
//! * every file under `fixtures/bad/` must trigger exactly the rules its
//!   header documents when linted under the strictest (library) role;
//! * every file under `fixtures/good/` must lint clean;
//! * the shipped workspace itself must lint clean (`--check` gates CI, so a
//!   regression here is caught before the pipeline does);
//! * the binary's exit-code contract is smoke-tested end to end.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use laser_lint::{lint_source, lint_tree};

fn fixture(kind: &str, name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lint fixture text under the strictest role: a library source path.
fn lint_as_lib(source: &str) -> Vec<laser_lint::Finding> {
    lint_source("crates/fixture/src/lib.rs", source)
}

fn rule_set(findings: &[laser_lint::Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn bad_fixtures_trigger_exactly_their_rules() {
    let cases: &[(&str, &[&str])] = &[
        ("default_hasher.rs", &["default-hasher"]),
        ("hash_iter.rs", &["default-hasher", "hash-iter"]),
        ("fs_iter.rs", &["fs-iter"]),
        ("wall_clock.rs", &["wall-clock"]),
        ("float_accum.rs", &["float-accum"]),
        ("panic.rs", &["panic"]),
        ("unsafe_code.rs", &["unsafe-code"]),
        ("bad_allow.rs", &["bad-allow", "panic"]),
    ];
    for (name, expected) in cases {
        let findings = lint_as_lib(&fixture("bad", name));
        let got = rule_set(&findings);
        let want: BTreeSet<&str> = expected.iter().copied().collect();
        assert_eq!(
            got, want,
            "fixtures/bad/{name} triggered {got:?}, expected {want:?}"
        );
    }
}

#[test]
fn bad_fixture_finding_counts_are_pinned() {
    // One `fs::read_dir(…)` call plus one `path.read_dir()` method form.
    assert_eq!(lint_as_lib(&fixture("bad", "fs_iter.rs")).len(), 2);
    assert_eq!(lint_as_lib(&fixture("bad", "wall_clock.rs")).len(), 3);
    assert_eq!(lint_as_lib(&fixture("bad", "float_accum.rs")).len(), 3);
    assert_eq!(lint_as_lib(&fixture("bad", "panic.rs")).len(), 5);
    // Two malformed annotations plus the unsuppressed unwrap.
    assert_eq!(lint_as_lib(&fixture("bad", "bad_allow.rs")).len(), 3);
}

#[test]
fn unsafe_rule_reaches_test_code() {
    // Linted under its real fixtures/ path the file is test-like, yet the
    // unsafe-code findings must survive — it is the one rule with no exempt
    // role.
    let findings = lint_source(
        "crates/lint/fixtures/bad/unsafe_code.rs",
        &fixture("bad", "unsafe_code.rs"),
    );
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.rule == "unsafe-code"));
    assert!(
        findings.len() >= 3,
        "static mut, unsafe block, and the unsafe block inside #[cfg(test)]"
    );
}

#[test]
fn good_fixtures_are_clean() {
    for name in ["clean.rs", "allowed.rs", "test_code.rs"] {
        let findings = lint_as_lib(&fixture("good", name));
        assert!(
            findings.is_empty(),
            "fixtures/good/{name} should lint clean, got: {findings:?}"
        );
    }
}

#[test]
fn shipped_workspace_lints_clean() {
    let root = workspace_root();
    let report = lint_tree(&root, &[]).expect("walk the workspace tree");
    assert!(
        report.files_scanned > 50,
        "workspace walk found only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "the shipped tree must lint clean; found:\n{}",
        report.to_text()
    );
}

#[test]
fn check_flag_exits_nonzero_on_bad_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_laser-lint"))
        .current_dir(workspace_root())
        .args([
            "--check",
            "--format",
            "json",
            "crates/lint/fixtures/bad/unsafe_code.rs",
        ])
        .output()
        .expect("run laser-lint");
    assert_eq!(out.status.code(), Some(2), "findings under --check exit 2");
    let stdout = String::from_utf8(out.stdout).expect("json is utf-8");
    assert!(stdout.contains("\"finding_count\""));
    assert!(stdout.contains("unsafe-code"));
}

#[test]
fn check_flag_exits_zero_on_clean_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_laser-lint"))
        .current_dir(workspace_root())
        .args(["--check", "--format", "json"])
        .output()
        .expect("run laser-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the shipped tree must pass --check; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_laser-lint"))
        .arg("--list-rules")
        .output()
        .expect("run laser-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "default-hasher",
        "hash-iter",
        "fs-iter",
        "wall-clock",
        "float-accum",
        "panic",
        "unsafe-code",
    ] {
        assert!(stdout.contains(rule), "--list-rules omits {rule}");
    }
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_laser-lint"))
        .arg("--bogus-flag")
        .output()
        .expect("run laser-lint");
    assert_eq!(out.status.code(), Some(2));
}
