//! Allow-table and allow-application suite: every entry of the table
//! names a known rule, an existing file and a reason, no entry repeats,
//! and — the load-bearing property — an allow that suppresses nothing is
//! *stale* and fails the run.

use ss_lint::allows::{Allow, ALLOWS};
use ss_lint::apply_allows;
use ss_lint::rules::{self, Finding};
use std::collections::BTreeSet;
use std::path::Path;

fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        message: "synthetic".to_string(),
    }
}

fn allow(rule: &'static str, path: &'static str) -> Allow {
    Allow {
        rule,
        path,
        reason: "reviewed",
    }
}

// ----------------------------------------------------------- the table

#[test]
fn allow_table_names_known_rules_existing_files_and_reasons() {
    // A missing field is a compile error; what the type system cannot see
    // is checked here: every entry names a rule of the rule table, a file
    // that exists, a non-empty reason, and no `(rule, path)` pair twice.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut seen = BTreeSet::new();
    for a in ALLOWS {
        assert!(
            rules::meta(a.rule).is_some(),
            "allow names unknown rule {}",
            a.rule
        );
        assert!(
            root.join(a.path).is_file(),
            "allow for {} names missing file {}",
            a.rule,
            a.path
        );
        assert!(
            !a.reason.trim().is_empty(),
            "allow for {} at {} has no reason",
            a.rule,
            a.path
        );
        assert!(
            seen.insert((a.rule, a.path)),
            "duplicate allow for {} at {}",
            a.rule,
            a.path
        );
    }
}

// ------------------------------------------------------- applying allows

#[test]
fn allows_suppress_matching_findings() {
    let report = apply_allows(
        vec![finding("L001", "a.rs", 10), finding("L001", "a.rs", 20)],
        &[allow("L001", "a.rs")],
        None,
    );
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed, 2);
    assert_eq!(report.allow_uses[0].1, Some(2));
    assert!(report.is_clean());
    assert!(report.render().contains("0 finding(s), 2 suppressed"));
}

#[test]
fn allows_do_not_cross_rules_or_paths() {
    let report = apply_allows(
        vec![finding("L002", "a.rs", 10), finding("L001", "b.rs", 5)],
        &[allow("L001", "a.rs")],
        None,
    );
    assert_eq!(report.findings.len(), 2, "nothing matched the allow");
    // …which in turn makes the allow stale: a double failure.
    assert_eq!(report.stale_allows().len(), 1);
    assert!(!report.is_clean());
}

#[test]
fn stale_allows_are_hard_errors() {
    let report = apply_allows(Vec::new(), &[allow("L006", "gone.rs")], None);
    assert!(report.findings.is_empty());
    assert!(!report.is_clean(), "a stale allow alone must fail the run");
    let rendered = report.render();
    assert!(rendered.contains("stale allow"), "{rendered}");
    assert!(rendered.contains("L006 at gone.rs"), "{rendered}");
    assert!(rendered.contains("crates/lint/src/allows.rs"), "{rendered}");
    assert!(rendered.contains("1 stale allow(s)"), "{rendered}");
}

#[test]
fn rule_selection_exempts_other_rules_allows_from_staleness() {
    // Under `--rule L001`, an L002 allow had no chance to match — it must
    // not be reported stale; an unmatched L001 allow still must be.
    let report = apply_allows(
        Vec::new(),
        &[allow("L001", "a.rs"), allow("L002", "b.rs")],
        Some("L001"),
    );
    assert_eq!(report.allow_uses[0].1, Some(0), "selected rule: stale");
    assert_eq!(report.allow_uses[1].1, None, "unselected rule: exempt");
    let stale = report.stale_allows();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "L001");
}
