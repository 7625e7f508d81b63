//! Self-test corpus: every lint rule is proven by a deliberately-bad
//! fixture that must trigger it, and the good fixtures must stay
//! quiet. Fixture files carry a `// lint-fixture-path:` header naming
//! the workspace path they should be linted *as if* they lived at
//! (several rules are crate- or file-scoped).

use std::path::{Path, PathBuf};

use imprecise_verify::{lint_source, rules, Finding};

fn fixtures_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

fn lint_fixture(path: &Path) -> Vec<Finding> {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let pretend = source
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// lint-fixture-path:"))
        .map(str::trim)
        .unwrap_or("crates/pxml/src/fixture.rs")
        .to_owned();
    lint_source(&pretend, &source)
}

fn fixture_files(kind: &str) -> Vec<PathBuf> {
    let dir = fixtures_dir(kind);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    files
}

/// `fixtures/bad/<rule_with_underscores>.rs` must produce at least one
/// unallowed finding for exactly that rule.
#[test]
fn every_bad_fixture_triggers_its_rule() {
    for path in fixture_files("bad") {
        let stem = path
            .file_stem()
            .expect("stem")
            .to_string_lossy()
            .to_string();
        let expected_rule = stem.replace('_', "-");
        let findings = lint_fixture(&path);
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == expected_rule && f.allowed.is_none())
            .collect();
        assert!(
            !hits.is_empty(),
            "fixture {} should trigger `{expected_rule}`; findings were: {:#?}",
            path.display(),
            findings
        );
    }
}

/// Every documented rule has a bad fixture, and every bad fixture names
/// a documented rule — the corpus and the rule table cannot drift.
#[test]
fn rule_table_and_fixture_corpus_agree() {
    let ids = rules::rule_ids();
    let fixture_rules: Vec<String> = fixture_files("bad")
        .iter()
        .map(|p| {
            p.file_stem()
                .expect("stem")
                .to_string_lossy()
                .replace('_', "-")
        })
        .collect();
    for id in &ids {
        assert!(
            fixture_rules.iter().any(|r| r == id),
            "rule `{id}` has no bad fixture under fixtures/bad/"
        );
    }
    for r in &fixture_rules {
        assert!(
            ids.contains(&r.as_str()),
            "fixture for `{r}` names a rule that is not in rules::RULES"
        );
    }
    assert!(
        ids.len() >= 10,
        "the lint must ship at least 10 rules, found {}",
        ids.len()
    );
}

/// Good fixtures produce zero *unallowed* findings; the fully-clean
/// ones produce zero findings at all.
#[test]
fn good_fixtures_stay_quiet() {
    for path in fixture_files("good") {
        let findings = lint_fixture(&path);
        let unallowed: Vec<&Finding> = findings.iter().filter(|f| f.allowed.is_none()).collect();
        assert!(
            unallowed.is_empty(),
            "good fixture {} has unallowed findings: {:#?}",
            path.display(),
            unallowed
        );
        let stem = path
            .file_stem()
            .expect("stem")
            .to_string_lossy()
            .to_string();
        if stem != "allowed" {
            assert!(
                findings.is_empty(),
                "good fixture {} should be finding-free, got: {:#?}",
                path.display(),
                findings
            );
        }
    }
}

/// The allowed.rs fixture exercises both attachment forms (standalone
/// comment -> next line, trailing comment -> same line) and must show
/// its findings as suppressed-with-reason.
#[test]
fn allows_attach_to_the_right_lines() {
    let path = fixtures_dir("good").join("allowed.rs");
    let findings = lint_fixture(&path);
    assert!(
        findings.len() >= 2,
        "expected suppressed findings, got {findings:#?}"
    );
    for f in &findings {
        let reason = f.allowed.as_deref().unwrap_or("");
        assert!(!reason.is_empty(), "finding lost its allow reason: {f}");
    }
}

/// The machine-readable report escapes content and round-trips the
/// allowed/unallowed distinction.
#[test]
fn json_report_shape() {
    let findings = lint_fixture(&fixtures_dir("bad").join("unwrap_in_lib.rs"));
    let json = imprecise_verify::to_json(&findings);
    assert!(json.starts_with('['));
    assert!(json.contains("\"rule\":\"unwrap-in-lib\""));
    assert!(json.contains("\"allowed\":null"));
    assert!(json.trim_end().ends_with(']'));
}

/// The fan-out helper is the one sanctioned `thread-fanout` site: linted
/// as it stands its finding is allowed, and with the allow stripped the
/// same source fails the rule.
#[test]
fn fanout_helper_needs_its_allow() {
    let rel = "crates/integrate/src/fanout.rs";
    let source = include_str!("../../integrate/src/fanout.rs");
    let fanout_sites = |findings: &[Finding], allowed: bool| {
        findings
            .iter()
            .filter(|f| f.rule == "thread-fanout" && f.allowed.is_some() == allowed)
            .count()
    };
    let with_allow = lint_source(rel, source);
    assert!(
        with_allow.iter().all(|f| f.allowed.is_some()),
        "{with_allow:#?}"
    );
    assert_eq!(fanout_sites(&with_allow, true), 1, "{with_allow:#?}");

    let stripped: String = source
        .lines()
        .filter(|l| !l.contains("lint:allow(thread-fanout"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(fanout_sites(&lint_source(rel, &stripped), false), 1);
}
