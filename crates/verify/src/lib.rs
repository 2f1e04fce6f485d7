//! # ss-verify — analytic-oracle cross-validation
//!
//! The workspace contains two kinds of machinery for the same quantities:
//! Monte-Carlo simulators (`ss-queueing::mg1`, `ss-bandits::simulate`) and
//! exact solvers (Pollaczek–Khinchine and Cobham formulas, conservation
//! laws, value iteration on joint bandit MDPs, the simplex LP).  This crate
//! pits them against each other, in the simulation-vs-theory spirit of the
//! source survey: a generated corpus of diverse scenarios (service
//! families x load levels x priority structures x class/project counts) is
//! fanned out over the `ss_sim::pool`, and every scenario yields a
//! tolerance-checked [`oracle::Verdict`] whose Monte-Carlo slack comes from
//! confidence intervals over seeded replications.
//!
//! Oracle pairs (see [`oracle::OraclePair`]):
//!
//! | simulated / computed            | exact oracle                                   |
//! |---------------------------------|------------------------------------------------|
//! | FIFO M/G/1 mean wait            | Pollaczek–Khinchine                            |
//! | nonpreemptive priority cost     | Cobham                                         |
//! | preemptive priority cost        | classical preemptive-resume formulas           |
//! | `Σ ρ_j W_j` under priority sim  | conservation-law constant                      |
//! | Gittins-rule roll-outs          | value iteration on the joint MDP               |
//! | primal simplex objective        | explicit dual's objective (strong duality)     |
//! | achievable-region LP optimum    | exact Cobham cost of the cµ order              |
//! | Klimov-network sim (index order)| Cobham (no feedback) / chain-workload constant |
//! | Whittle-priority restless sim   | exact joint-chain policy value + DP/LP gates   |
//! | SEPT/LEPT/WSEPT list schedules  | exact subset-DP flowtime/makespan recursions   |
//! | fabric M/M/c central-queue wait | Erlang-C mean-wait formula                     |
//!
//! The `verify` binary mirrors the `experiments` harness conventions
//! (`--list`); `--check` runs the corpus on a fast budget and prints
//! wall-clock-free report lines, which the `verify-check` conform target
//! byte-compares across pool sizes 1/2/4.
//!
//! ```
//! use ss_sim::rng::RngStreams;
//! use ss_verify::corpus::generate_corpus;
//! use ss_verify::oracle::OraclePair;
//! use ss_verify::run::run_scenario;
//! use ss_verify::scenario::Budget;
//!
//! let corpus = generate_corpus(ss_verify::DEFAULT_SEED);
//! let lp = corpus.scenarios.iter().find(|s| s.spec.pair() == OraclePair::LpPrimalVsDual).unwrap();
//! let report = run_scenario(lp, &Budget::check(), &RngStreams::new(corpus.seed));
//! assert!(report.verdict.pass);
//! ```

pub mod corpus;
pub mod oracle;
pub mod run;
pub mod scenario;

pub use corpus::{generate_corpus, Corpus, CorpusStats};
pub use oracle::{OraclePair, Tolerance, Verdict};
pub use run::{
    format_report_line, render_check_report, run_corpus, run_scenario, summarize, ScenarioReport,
};
pub use scenario::{Budget, QueueMode, Scenario, Spec};

/// Master seed of the committed corpus (CI and the tier-1 test run it).
pub const DEFAULT_SEED: u64 = 0xC0DE_5EED;
