//! Oracle cross-validation harness binary.
//!
//! ```text
//! cargo run --release -p ss-verify --bin verify
//!     # full-budget corpus: report lines + summary + wall-clock
//! cargo run --release -p ss-verify --bin verify -- --check
//!     # fast corpus slice, deterministic output only (no wall-clock);
//!     # exits nonzero on any FAIL; the `verify-check` conform target pins
//!     # these bytes across pool sizes
//! SS_THREADS=4 cargo run --release -p ss-verify --bin verify -- --check
//!     # the same bytes from a 4-thread pool
//! cargo run --release -p ss-verify --bin verify -- --list
//!     # print the corpus without running it
//! cargo run --release -p ss-verify --bin verify -- --seed 7
//!     # regenerate and run the corpus from another master seed
//! cargo run --release -p ss-verify --bin verify -- --check --pair klimov-vs-exact --pair whittle-vs-dp
//!     # restrict the run (or --list) to the named oracle pairs; scenario
//!     # ids and RNG streams are unchanged by filtering, so a filtered
//!     # report is a strict subset of the full report's lines
//! ```
//!
//! Report lines are bit-identical for any thread count (each replication
//! owns an `RngStreams` stream keyed by `(scenario, rep)` and results are
//! collected in corpus order), so determinism is a hard gate here, as it
//! is for the fabric suite and the sweep workloads.

use ss_verify::corpus::generate_corpus;
use ss_verify::oracle::OraclePair;
use ss_verify::run::{render_check_report, run_corpus, summarize};
use ss_verify::scenario::Budget;
use ss_verify::DEFAULT_SEED;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: verify [--check] [--seed S] [--list] [--pair KEY]...");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_mode = false;
    let mut list_mode = false;
    let mut seed = DEFAULT_SEED;
    let mut pairs: Vec<OraclePair> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check_mode = true,
            "--list" => list_mode = true,
            "--pair" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage_error("--pair needs an oracle-pair key"));
                match OraclePair::from_key(value) {
                    Some(p) => pairs.push(p),
                    None => usage_error(&format!(
                        "unknown oracle pair {value:?}; known keys: {}",
                        OraclePair::ALL.map(|p| p.key()).join(" ")
                    )),
                }
            }
            "--seed" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                match value.parse::<u64>() {
                    Ok(s) => seed = s,
                    _ => usage_error(&format!("invalid --seed value {value:?}")),
                }
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let mut corpus = generate_corpus(seed);
    if !pairs.is_empty() {
        // Filtering keeps each scenario's corpus id (and therefore its RNG
        // streams), so filtered report lines match the full run's exactly.
        corpus.scenarios.retain(|s| pairs.contains(&s.spec.pair()));
        if corpus.scenarios.is_empty() {
            usage_error("--pair selection matches no scenarios");
        }
    }
    if list_mode {
        for s in &corpus.scenarios {
            println!("#{:<3} {:<24} {}", s.id, s.spec.pair().key(), s.label);
        }
        let distinct: std::collections::BTreeSet<&str> = corpus
            .scenarios
            .iter()
            .map(|s| s.spec.pair().key())
            .collect();
        println!(
            "[{} scenarios across {} oracle pairs]",
            corpus.scenarios.len(),
            distinct.len()
        );
        return;
    }

    let budget = if check_mode {
        Budget::check()
    } else {
        Budget::full()
    };
    let start = std::time::Instant::now();
    let reports = run_corpus(&corpus, &budget);
    let wall = start.elapsed();

    // Report lines + summary + machine-readable corpus trailer, rendered by
    // the same function the ss-conform subsystem replays across thread
    // counts (`ss_verify::run::render_check_report`).
    print!("{}", render_check_report(&corpus, &reports));
    let (passed, total) = summarize(&reports);
    if !check_mode {
        // Wall-clock is informational and varies run to run; keep it out of
        // the deterministic --check output that conform pins.
        println!("[corpus finished in {wall:.1?}]");
    }
    if passed != total {
        eprintln!("verify FAILED: {} oracle checks diverged", total - passed);
        std::process::exit(1);
    }
}
