//! Per-rule fixture suite: every known-bad fixture must fire exactly its
//! rule at exactly the marked lines, every known-good fixture must stay
//! silent, and the real workspace must scan clean (the acceptance
//! criterion the CI `lint` job enforces).

use ss_lint::rules::{self, Finding};
use ss_lint::run_workspace;
use ss_lint::scan::SourceFile;
use std::path::Path;

/// Run one rule over one synthetic file and return the lines it fires on.
fn rule_lines(rule: &str, rel_path: &str, source: &str) -> Vec<u32> {
    let file = SourceFile::from_source(rel_path, source);
    rules::run(std::slice::from_ref(&file), Some(rule))
        .into_iter()
        .map(|f| {
            assert_eq!(f.rule, rule, "selected rule only");
            assert_eq!(f.path, rel_path);
            f.line
        })
        .collect()
}

// ------------------------------------------------------------------ L001

#[test]
fn l001_known_bad_fires_at_each_hash_collection_line() {
    let lines = rule_lines(
        "L001",
        "crates/fabric/src/stats.rs",
        include_str!("fixtures/l001_bad.rs"),
    );
    assert_eq!(lines, vec![4, 5, 7, 8, 12]);
}

#[test]
fn l001_known_good_is_silent() {
    let lines = rule_lines(
        "L001",
        "crates/fabric/src/stats.rs",
        include_str!("fixtures/l001_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

#[test]
fn l001_ignores_artifact_consuming_crates() {
    // ss-conform consumes artifacts; its comparison maps are legal.
    let lines = rule_lines(
        "L001",
        "crates/conform/src/divergence.rs",
        include_str!("fixtures/l001_bad.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------------------------ L002

#[test]
fn l002_known_bad_fires_at_each_clock_read() {
    let lines = rule_lines(
        "L002",
        "crates/queueing/src/sim.rs",
        include_str!("fixtures/l002_bad.rs"),
    );
    assert_eq!(lines, vec![6, 8]);
}

#[test]
fn l002_known_good_is_silent() {
    let lines = rule_lines(
        "L002",
        "crates/queueing/src/sim.rs",
        include_str!("fixtures/l002_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------------------------ L003

#[test]
fn l003_known_bad_fires_on_numeric_debug_asserts() {
    let lines = rule_lines(
        "L003",
        "crates/bandits/src/discipline.rs",
        include_str!("fixtures/l003_bad.rs"),
    );
    assert_eq!(lines, vec![5, 6]);
}

#[test]
fn l003_known_good_is_silent() {
    // Shifts, turbofish, `debug_assert_eq!` and plain `assert!` must all
    // be left alone.
    let lines = rule_lines(
        "L003",
        "crates/bandits/src/discipline.rs",
        include_str!("fixtures/l003_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------------------------ L004

#[test]
fn l004_known_bad_fires_at_each_stream_id_declaration() {
    // `DEFAULT_SEED` on line 5 is a `u64` constant but not a stream id.
    let lines = rule_lines(
        "L004",
        "crates/fabric/src/sim.rs",
        include_str!("fixtures/l004_bad.rs"),
    );
    assert_eq!(lines, vec![3, 4, 6, 9]);
}

#[test]
fn l004_known_good_is_silent() {
    let lines = rule_lines(
        "L004",
        "crates/sim/src/rng.rs",
        include_str!("fixtures/l004_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------------------------ L005

#[test]
fn l005_known_bad_fires_on_each_unpinned_rendering() {
    let lines = rule_lines(
        "L005",
        "crates/fabric/src/metrics.rs",
        include_str!("fixtures/l005_bad.rs"),
    );
    assert_eq!(lines, vec![5, 6, 7]);
}

#[test]
fn l005_known_good_is_silent() {
    let lines = rule_lines(
        "L005",
        "crates/fabric/src/metrics.rs",
        include_str!("fixtures/l005_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

#[test]
fn l005_only_polices_render_modules() {
    // The same bad source outside RENDER_PATHS is out of scope.
    let lines = rule_lines(
        "L005",
        "crates/fabric/src/sim.rs",
        include_str!("fixtures/l005_bad.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------------------------ L006

#[test]
fn l006_known_bad_fires_on_inline_seed_derivations() {
    let lines = rule_lines(
        "L006",
        "crates/bench/src/sweeps.rs",
        include_str!("fixtures/l006_bad.rs"),
    );
    assert_eq!(lines, vec![5, 6]);
}

#[test]
fn l006_known_good_is_silent() {
    let lines = rule_lines(
        "L006",
        "crates/bench/src/sweeps.rs",
        include_str!("fixtures/l006_good.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

#[test]
fn l006_rng_home_is_exempt() {
    // sim/src/rng.rs is the audited mixer: the same bad source is legal
    // there and only there.
    let lines = rule_lines(
        "L006",
        "crates/sim/src/rng.rs",
        include_str!("fixtures/l006_bad.rs"),
    );
    assert_eq!(lines, Vec::<u32>::new());
}

// ------------------------------------------------- workspace self-scan

#[test]
fn workspace_self_scan_is_clean() {
    // The CI acceptance criterion, asserted from the test suite too: the
    // real tree has zero findings and zero stale allows.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = run_workspace(&root, None).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "ss-lint is not clean:\n{}",
        report.render()
    );
    assert!(
        report.suppressed > 0,
        "the allows in crates/lint/src/allows.rs should be load-bearing, not decorative"
    );
}

#[test]
fn rule_path_lists_name_files_that_exist() {
    // A path list entry naming a deleted file or crate silently polices
    // nothing, so every entry must resolve under the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    for path in rules::l005::RENDER_PATHS {
        assert!(root.join(path).is_file(), "L005 names missing file {path}");
    }
    for path in rules::l001::ARTIFACT_PATHS {
        assert!(
            root.join(path).is_dir(),
            "L001 names missing directory {path}"
        );
    }
    let rng_home = rules::l006::ALLOWED_PATH;
    assert!(
        root.join(rng_home).is_file(),
        "L006 names missing file {rng_home}"
    );
}

#[test]
fn rule_listing_is_complete_and_ordered() {
    let ids: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec!["L001", "L002", "L003", "L004", "L005", "L006"]);
    assert!(rules::meta("L003").is_some());
    assert!(rules::meta("L999").is_none());
}

#[test]
fn finding_rendering_is_the_documented_format() {
    let f = Finding {
        rule: "L002",
        path: "crates/x/src/y.rs".to_string(),
        line: 41,
        message: "message text".to_string(),
    };
    assert_eq!(f.render(), "crates/x/src/y.rs:41 L002 message text");
}
