//! The `verify-corpus` workload: the oracle corpus CI checks, one timed
//! round (every scenario through `run_scenario`, then
//! `render_check_report`), and the identities every verdict satisfies on
//! any seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ss_sim::pool::parallel_indexed;
use ss_sim::rng::RngStreams;
use ss_verify::{
    generate_corpus, render_check_report, run_scenario, Budget, Corpus, CorpusStats, OraclePair,
    ScenarioReport, DEFAULT_SEED,
};

use crate::trace::{since, within, Trace};
use crate::{Results, RoundOutcome};

/// Corpus ids the workload runs.  The corpus only grows by appending, so
/// pinning the prefix keeps new oracle pairs from reading as a slowdown.
pub const CORPUS_IDS: usize = 66;

/// The workload's cold set-up: the committed corpus (`DEFAULT_SEED`), cut
/// to [`CORPUS_IDS`], carrying the run's `seed`.  That seed drives only the
/// replication streams, as it does in `run_corpus`, so every seed checks
/// CI's scenarios and the exact oracle values are the same on every seed.
pub fn setup(seed: u64) -> Corpus {
    let mut corpus = generate_corpus(DEFAULT_SEED);
    assert!(
        corpus.scenarios.len() >= CORPUS_IDS,
        "the corpus shrank below {CORPUS_IDS} scenarios"
    );
    corpus.scenarios.truncate(CORPUS_IDS);
    corpus.seed = seed;
    corpus
}

struct Cell {
    report: Option<ScenarioReport>,
    start_ns: u64,
    end_ns: u64,
}

/// One round: every scenario on the current pool, then
/// `render_check_report`.  With a trace, the round, each `run_scenario`
/// (tagged with its oracle pair) and the render get a span.
pub fn round(
    corpus: &Corpus,
    exact_bits: Option<&[u64]>,
    mut trace: Option<&mut Trace>,
) -> RoundOutcome {
    let budget = Budget::check();
    let epoch = trace.as_ref().map(|t| t.epoch());
    let root = trace
        .as_deref_mut()
        .map(|t| t.open("round", "verify", None));
    let t0 = Instant::now();

    let streams = RngStreams::new(corpus.seed);
    let cells = parallel_indexed(corpus.scenarios.len(), |i| {
        let start_ns = epoch.map_or(0, since);
        let report = catch_unwind(AssertUnwindSafe(|| {
            run_scenario(&corpus.scenarios[i], &budget, &streams)
        }))
        .ok();
        let end_ns = epoch.map_or(0, since);
        Cell {
            report,
            start_ns,
            end_ns,
        }
    });
    // A panicked scenario is left out of the report; the line check then
    // flags it and every line after it.
    let reports: Vec<ScenarioReport> = cells.iter().filter_map(|c| c.report.clone()).collect();
    let text = within(
        trace.as_deref_mut(),
        "render_check_report",
        "verify",
        root,
        || render_check_report(corpus, &reports),
    );
    let wall_ns = since(t0);

    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root);
        for (s, c) in corpus.scenarios.iter().zip(&cells) {
            t.record(
                "run_scenario",
                s.spec.pair().key(),
                Some(root),
                c.start_ns,
                c.end_ns,
            );
        }
    }

    let op_errors = cells
        .iter()
        .enumerate()
        .map(|(i, c)| match &c.report {
            None => Some(format!("scenario #{i} panicked")),
            Some(r) => identities(corpus, i, r, exact_bits).err(),
        })
        .collect();
    let expected = CorpusStats {
        pairs: OraclePair::ALL.len(),
        scenarios: CORPUS_IDS,
        seed: corpus.seed,
    };
    let round_error = (CorpusStats::parse(&text) != Some(expected))
        .then(|| format!("trailer differs from {}", expected.trailer()));
    let line_ops = text
        .lines()
        .enumerate()
        .map(|(i, _)| (i < CORPUS_IDS).then_some(i..i + 1))
        .collect();
    RoundOutcome {
        wall_ns,
        root,
        text,
        op_errors,
        round_error,
        line_ops,
        results: Results::Verify(reports),
    }
}

/// Identities of one verdict that hold on every seed: the report belongs to
/// its scenario, the error is `|sim - exact|`, the verdict is `error <=
/// allowed`, exact-vs-exact pairs pass, and the exact oracle value is
/// bit-identical to the committed one (the corpus does not depend on the
/// seed).
fn identities(
    corpus: &Corpus,
    i: usize,
    r: &ScenarioReport,
    exact_bits: Option<&[u64]>,
) -> Result<(), String> {
    let v = &r.verdict;
    let fail = |what: &str| Err(format!("#{i} {}: {what}", r.pair.key()));
    if r.id != i || r.pair != corpus.scenarios[i].spec.pair() {
        return fail("report does not belong to its scenario");
    }
    if ![
        v.simulated,
        v.exact,
        v.abs_error,
        v.ci_half_width,
        v.allowed,
    ]
    .iter()
    .all(|x| x.is_finite())
    {
        return fail("non-finite verdict field");
    }
    if v.abs_error.to_bits() != (v.simulated - v.exact).abs().to_bits() {
        return fail("error is not |sim - exact|");
    }
    if v.pass != (v.abs_error <= v.allowed) {
        return fail("verdict disagrees with error <= allowed");
    }
    let exact_pair = matches!(
        r.pair,
        OraclePair::LpPrimalVsDual | OraclePair::AchievableLpVsCmu
    );
    if exact_pair && !v.pass {
        return fail("exact-vs-exact pair failed");
    }
    if let Some(bits) = exact_bits {
        if bits.get(i) != Some(&v.exact.to_bits()) {
            return fail("exact oracle value differs from the committed one");
        }
    }
    Ok(())
}
