//! Subsystem-level acceptance tests: the declared targets against their
//! committed fixtures, the fixture-compare/bless lifecycle, and the
//! end-to-end guarantee that an injected nondeterminism is caught and
//! localized through the full [`run_target`] path.

use ss_conform::harness::{run_target, FixtureStatus, RunMode};
use ss_conform::targets::{fixture_path, EXPECT_PAIRS, EXPECT_TRAILER, FIXTURE_DIR};
use ss_conform::{RootCause, Target};
use ss_verify::OraclePair;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// A scratch root that cleans itself up (fixture round-trip tests write
/// real files; they must not touch the repo's committed fixtures).
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> ScratchRoot {
        let dir = std::env::temp_dir().join(format!("ss-conform-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        ScratchRoot(dir)
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The expectation check of a synthetic target: none.
fn no_expectations(_: &str) -> Vec<String> {
    Vec::new()
}

// ----------------------------------------------------------------- targets

#[test]
fn fixture_dir_holds_exactly_one_fixture_per_target() {
    // A renamed or deleted target would otherwise leave its old fixture
    // behind for good: conform reads only the current targets' fixtures.
    let mut committed: Vec<String> = std::fs::read_dir(repo_root().join(FIXTURE_DIR))
        .expect("the fixture directory is committed")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    let mut declared: Vec<String> = Target::ALL.map(|t| format!("{}.txt", t.key())).into();
    committed.sort_unstable();
    declared.sort_unstable();
    assert_eq!(committed, declared, "run `conform --bless`, delete orphans");
    for t in Target::ALL {
        assert_eq!(Target::from_key(t.key()), Some(t));
    }

    // The spelled-out pair list is exactly the oracle pairs the corpus
    // implements — a pair added to the code without an ss-conform edit (or
    // vice versa) fails here before CI even runs the corpus.
    let mut expected: Vec<&str> = EXPECT_PAIRS.into();
    let mut implemented: Vec<&str> = OraclePair::ALL.iter().map(|p| p.key()).collect();
    expected.sort_unstable();
    implemented.sort_unstable();
    assert_eq!(expected, implemented);
    assert_eq!(EXPECT_TRAILER.seed, ss_verify::DEFAULT_SEED);
}

#[test]
fn every_expectation_holds_on_its_fixture_and_fires_on_a_doctored_copy() {
    let fixture =
        |t: Target| std::fs::read_to_string(repo_root().join(fixture_path(t.key()))).unwrap();
    for t in Target::ALL {
        assert_eq!(t.check(&fixture(t)), Vec::<String>::new(), "{}", t.key());
    }
    // One doctored copy per expectation; each must fail exactly one check.
    let doctored = [
        (
            Target::VerifyCheck,
            "PASS fabric-vs-mmck",
            "FAIL fabric-vs-mmck",
        ),
        (Target::VerifyCheck, "scenarios=66", "scenarios=65"),
        (Target::VerifyCheck, "seed=3235798765", "seed=1"),
        (Target::FabricCheck, "(seed 4205862637)", "(seed 1)"),
        (Target::ReplicationsCheck, "summary:", "totals:"),
        (Target::SweepsCheck, "sweep ", "Sweep "),
        (Target::ExperimentsSubset, "== E13 ", "== E31 "),
    ];
    for (t, from, to) in doctored {
        let text = fixture(t);
        assert!(text.contains(from), "{}: {from:?}", t.key());
        let failures = t.check(&text.replace(from, to));
        assert_eq!(failures.len(), 1, "{} with {to:?}: {failures:?}", t.key());
    }
    // A verify artifact without its trailer fails on the trailer alone.
    let text = fixture(Target::VerifyCheck);
    let cut = text.find("corpus-trailer:").unwrap();
    let failures = Target::VerifyCheck.check(&text[..cut]);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("corpus trailer"), "{failures:?}");
}

// ------------------------------------------------- injected nondeterminism

#[test]
fn injected_timestamp_nondeterminism_is_caught_and_localized() {
    // Deterministic stand-in for a wall clock: each replica renders a
    // different "epoch" value, exactly what a real clock leak produces.
    let calls = AtomicUsize::new(0);
    let render = move || {
        let fake_epoch = 1_700_000_000 + calls.fetch_add(1, Ordering::SeqCst);
        Ok(format!(
            "stable line A\nelapsed {fake_epoch} seconds\nstable line B\n"
        ))
    };
    let scratch = ScratchRoot::new("injected");
    let outcome = run_target(
        "injected-timestamp",
        &render,
        &no_expectations,
        &scratch.0,
        RunMode::Check,
    );

    assert!(!outcome.pass(), "nondeterminism must fail the target");
    assert_eq!(
        outcome.divergences.len(),
        2,
        "replica 0 vs replicas 1 and 2"
    );
    for d in &outcome.divergences {
        // The replicas differ in the last digits of the epoch token.
        let base = "stable line A\nelapsed 170000000";
        assert!(
            d.offset >= base.len() - 2 && d.offset <= base.len() + 1,
            "offset {} localizes the epoch digits",
            d.offset
        );
        assert_eq!(d.cause, RootCause::Timestamp, "{:?}", d.cause);
        assert!(d.left_context.contains('|'), "hex context rendered");
    }
    assert_eq!(
        outcome.replica_labels,
        ["threads=1", "threads=2", "threads=4"]
    );
    // The report is what CI prints: it must carry the hint.
    assert!(
        outcome.report().contains("timestamp leakage"),
        "{}",
        outcome.report()
    );
    // A broken target is never compared against (or blessed into) fixtures.
    assert!(matches!(outcome.fixture, FixtureStatus::Skipped));
}

#[test]
fn bless_refuses_to_bless_diverging_replicas() {
    let calls = AtomicUsize::new(0);
    let render = move || Ok(format!("value {}\n", calls.fetch_add(1, Ordering::SeqCst)));
    let scratch = ScratchRoot::new("refuse");
    let outcome = run_target(
        "refuse-bless",
        &render,
        &no_expectations,
        &scratch.0,
        RunMode::Bless,
    );
    assert!(!outcome.pass());
    assert!(matches!(outcome.fixture, FixtureStatus::Skipped));
    assert!(
        !scratch.0.join(fixture_path("refuse-bless")).exists(),
        "no fixture written for a diverging target"
    );
}

#[test]
fn bless_refuses_to_bless_a_failed_expectation() {
    let scratch = ScratchRoot::new("refuse-expectation");
    let outcome = run_target(
        "refuse-expectation",
        &deterministic_render,
        &|_: &str| vec!["the artifact is too short".to_string()],
        &scratch.0,
        RunMode::Bless,
    );
    assert!(!outcome.pass());
    assert!(matches!(outcome.fixture, FixtureStatus::Skipped));
    assert!(
        !scratch.0.join(fixture_path("refuse-expectation")).exists(),
        "no fixture written for a target that fails its expectations"
    );
    assert!(
        outcome
            .report()
            .contains("expectation: the artifact is too short"),
        "{}",
        outcome.report()
    );
}

// ------------------------------------------------------- fixture lifecycle

fn deterministic_render() -> Result<String, String> {
    Ok("artifact line 1\nartifact line 2\n".to_string())
}

#[test]
fn fixture_missing_then_bless_then_match_round_trip() {
    let scratch = ScratchRoot::new("roundtrip");
    let root: &Path = &scratch.0;

    // 1. No fixture yet: check mode fails with Missing.
    let outcome = run_target(
        "round-trip",
        &deterministic_render,
        &no_expectations,
        root,
        RunMode::Check,
    );
    assert!(!outcome.pass());
    assert!(matches!(outcome.fixture, FixtureStatus::Missing(_)));
    assert!(outcome.report().contains("--bless"), "{}", outcome.report());

    // 2. Bless writes it.
    let outcome = run_target(
        "round-trip",
        &deterministic_render,
        &no_expectations,
        root,
        RunMode::Bless,
    );
    assert!(outcome.pass());
    assert!(matches!(
        outcome.fixture,
        FixtureStatus::Blessed { changed: true, .. }
    ));

    // 3. Check now passes; re-bless is a no-op (the CI bless-drift gate).
    let outcome = run_target(
        "round-trip",
        &deterministic_render,
        &no_expectations,
        root,
        RunMode::Check,
    );
    assert!(outcome.pass(), "{}", outcome.report());
    assert!(matches!(outcome.fixture, FixtureStatus::Match));
    let outcome = run_target(
        "round-trip",
        &deterministic_render,
        &no_expectations,
        root,
        RunMode::Bless,
    );
    assert!(matches!(
        outcome.fixture,
        FixtureStatus::Blessed { changed: false, .. }
    ));
}

#[test]
fn stale_fixture_is_a_localized_mismatch() {
    let scratch = ScratchRoot::new("stale");
    let path = scratch.0.join(fixture_path("stale"));
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, "artifact line 1\nartifact line 2 OLD\n").unwrap();

    let outcome = run_target(
        "stale",
        &deterministic_render,
        &no_expectations,
        &scratch.0,
        RunMode::Check,
    );
    assert!(!outcome.pass());
    let FixtureStatus::Mismatch(d) = &outcome.fixture else {
        panic!("expected Mismatch, got {:?}", outcome.fixture);
    };
    assert_eq!(d.left_label, "committed-fixture");
    assert_eq!(
        d.offset,
        "artifact line 1\nartifact line 2".len(),
        "divergence at the edit"
    );
    assert!(
        outcome.report().contains("re-bless"),
        "{}",
        outcome.report()
    );
}
