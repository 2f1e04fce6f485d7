//! Tier-1 integration test: the fast corpus slice must pass every oracle
//! check, cover the required diversity, and be bit-identical across thread
//! counts (the same contract CI enforces via `verify --check`).

use ss_sim::pool;
use ss_verify::corpus::generate_corpus;
use ss_verify::run::{format_report_line, render_check_report, run_corpus, summarize};
use ss_verify::scenario::Budget;
use ss_verify::{CorpusStats, OraclePair, DEFAULT_SEED};
use std::collections::HashSet;

/// The committed corpus shape: these numbers are append-only (pairs and
/// scenarios may only grow) and are the same values the `verify --check`
/// trailer declares and ss-conform's `verify-check` target expects
/// (`crates/conform/src/targets.rs`) — one source of truth instead of
/// per-consumer `PASS`-line scraping.
#[test]
fn corpus_stats_pin_the_committed_shape() {
    let stats = generate_corpus(DEFAULT_SEED).stats();
    assert_eq!(
        stats,
        CorpusStats {
            pairs: 12,
            scenarios: 66,
            seed: DEFAULT_SEED,
        },
        "corpus shape changed; grow it append-only, then update ss-conform's \
         expectations and re-bless its fixtures deliberately"
    );
    assert_eq!(stats.pairs, OraclePair::ALL.len());
}

#[test]
fn check_report_carries_a_parseable_trailer() {
    // The trailer is what ss-conform and CI read; it must round-trip out of
    // the rendered report and agree with the corpus it came from.  The LP
    // pairs are exact (no Monte-Carlo replications), so restricting to them
    // keeps this a rendering test rather than a third full corpus run.
    let mut corpus = generate_corpus(DEFAULT_SEED);
    corpus.scenarios.retain(|s| {
        matches!(
            s.spec.pair(),
            OraclePair::LpPrimalVsDual | OraclePair::AchievableLpVsCmu
        )
    });
    let reports = run_corpus(&corpus, &Budget::check());
    let report = render_check_report(&corpus, &reports);
    assert_eq!(CorpusStats::parse(&report), Some(corpus.stats()));
    // The summary line keeps its historical shape (humans grep for it too).
    assert!(report.contains(&format!(
        "verify: {}/{} oracle checks passed (seed {})",
        corpus.len(),
        corpus.len(),
        DEFAULT_SEED
    )));
}

#[test]
fn check_corpus_passes_and_is_thread_count_invariant() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let stats = corpus.stats();
    assert!(
        stats.scenarios >= 60,
        "corpus has only {} scenarios",
        stats.scenarios
    );
    assert_eq!(
        stats.pairs,
        OraclePair::ALL.len(),
        "corpus covers only {} oracle pairs",
        stats.pairs
    );

    let budget = Budget::check();
    let serial = pool::with_threads(1, || run_corpus(&corpus, &budget));
    let parallel = pool::with_threads(4, || run_corpus(&corpus, &budget));

    // Every oracle check passes on the fast budget.
    let (passed, total) = summarize(&serial);
    let failures: Vec<String> = serial
        .iter()
        .filter(|r| !r.verdict.pass)
        .map(format_report_line)
        .collect();
    assert_eq!(
        passed,
        total,
        "failed oracle checks:\n{}",
        failures.join("\n")
    );

    // Bit-identical reports for any thread count: compare the raw bits of
    // every numeric field, not formatted strings, so -0.0 vs 0.0 or a
    // last-ulp drift cannot hide.
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.label, b.label);
        assert_eq!(a.verdict.pass, b.verdict.pass);
        assert_eq!(
            a.verdict.simulated.to_bits(),
            b.verdict.simulated.to_bits(),
            "scenario {} diverged across thread counts",
            a.label
        );
        assert_eq!(a.verdict.exact.to_bits(), b.verdict.exact.to_bits());
        assert_eq!(
            a.verdict.ci_half_width.to_bits(),
            b.verdict.ci_half_width.to_bits()
        );
    }
}

#[test]
fn every_oracle_pair_appears_in_the_corpus() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let pairs: HashSet<OraclePair> = corpus.scenarios.iter().map(|s| s.spec.pair()).collect();
    for p in OraclePair::ALL {
        assert!(pairs.contains(&p), "corpus misses oracle pair {p}");
    }
}

#[test]
fn the_simulator_pairs_added_in_pr5_are_each_multi_scenario() {
    // Klimov, Whittle and SEPT/LEPT each need scenarios on both sides of
    // their internal diversity axes (feedback/no-feedback, m=1 vs m=2,
    // flowtime vs makespan), so a single-scenario block would be a
    // coverage regression.
    let corpus = generate_corpus(DEFAULT_SEED);
    for pair in [
        OraclePair::KlimovVsExact,
        OraclePair::WhittleVsDp,
        OraclePair::SeptLeptVsDp,
    ] {
        let count = corpus
            .scenarios
            .iter()
            .filter(|s| s.spec.pair() == pair)
            .count();
        assert!(count >= 4, "pair {pair} has only {count} scenarios");
    }
}

#[test]
fn klimov_block_covers_feedback_and_feedback_free_networks() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let labels: Vec<&str> = corpus
        .scenarios
        .iter()
        .filter(|s| s.spec.pair() == OraclePair::KlimovVsExact)
        .map(|s| s.label.as_str())
        .collect();
    assert!(labels.iter().any(|l| l.ends_with("no-feedback")));
    assert!(labels.iter().any(|l| l.ends_with(" feedback")));
}

#[test]
fn growing_the_corpus_did_not_perturb_the_pre_existing_scenarios() {
    // Scenario parameters are drawn from the generation substream keyed by
    // the scenario id, so appending the PR-5 blocks must leave the first
    // 42 scenarios' labels (families, loads, orders) exactly as they were.
    let corpus = generate_corpus(DEFAULT_SEED);
    assert_eq!(corpus.scenarios[0].label, "mg1-fifo k=1 rho=0.30 Exp");
    assert_eq!(
        corpus.scenarios[41].label,
        "achievable-lp k=4 rho=0.75 Erlang2+Erlang4+H2s2+H2s4"
    );
    assert_eq!(corpus.scenarios[42].spec.pair(), OraclePair::KlimovVsExact);
    // PR 6 appended the fabric block after the PR-5 tail.
    assert_eq!(
        corpus.scenarios[56].spec.pair(),
        OraclePair::FabricVsErlangC
    );
    assert_eq!(corpus.scenarios[56].label, "fabric-mmc c=2 rho=0.60");
    // PR 7 appended the finite-buffer fabric block after the Erlang-C tail.
    assert_eq!(corpus.scenarios[61].spec.pair(), OraclePair::FabricVsMmck);
    assert_eq!(corpus.scenarios[61].label, "fabric-mmck c=2 K=4 rho=0.85");
}

#[test]
fn the_fabric_erlang_c_block_spans_server_counts_and_loads() {
    let corpus = generate_corpus(DEFAULT_SEED);
    let labels: Vec<&str> = corpus
        .scenarios
        .iter()
        .filter(|s| s.spec.pair() == OraclePair::FabricVsErlangC)
        .map(|s| s.label.as_str())
        .collect();
    assert!(labels.len() >= 5, "only {} fabric scenarios", labels.len());
    assert!(labels.iter().any(|l| l.contains("c=2")));
    assert!(labels.iter().any(|l| l.contains("c=8")));
}

#[test]
fn the_fabric_mmck_block_covers_the_reductions_and_overload() {
    // The finite-buffer block must keep the shapes that pin down the
    // M/M/c/K family: a single-server chain (the geometric closed form)
    // and at least one genuinely overloaded scenario — the regime where
    // the Erlang-C pair is undefined but blocking still has an exact value.
    let corpus = generate_corpus(DEFAULT_SEED);
    let mmck: Vec<_> = corpus
        .scenarios
        .iter()
        .filter(|s| s.spec.pair() == OraclePair::FabricVsMmck)
        .collect();
    assert!(mmck.len() >= 5, "only {} fabric-mmck scenarios", mmck.len());
    assert!(mmck.iter().any(|s| s.label.contains("c=1")));
    let overloaded = mmck.iter().any(|s| {
        matches!(
            s.spec,
            ss_verify::scenario::Spec::FabricFinite {
                servers,
                lambda,
                mu,
                ..
            } if lambda > servers as f64 * mu
        )
    });
    assert!(overloaded, "no overloaded M/M/c/K scenario left");
}
