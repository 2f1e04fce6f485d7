//! The conformance targets, each declared once as a [`Target`] variant.
//!
//! A variant knows its key, its description, its committed fixture
//! (`fixtures/conform/<key>.txt`), how to render its artifact, and the
//! structural expectations that artifact must meet.  Every target runs as
//! one replica per pool size in [`REPLICA_THREADS`].
//!
//! Each renderer produces, **in process**, exactly the deterministic text
//! the corresponding check binary prints (shared rendering functions in the
//! owning crates guarantee this), on whatever lane count the harness scoped
//! for the replica.  Running in process keeps the conformance matrix one
//! compile + one process instead of 3×5 `cargo run` invocations, and makes
//! the replica pool size exact rather than inherited through an env var.
//!
//! A panic inside a target is converted into a render error so one broken
//! target cannot take down the whole conformance run.

use ss_bench::conformance::{
    harness_subset_report, replication_values_report, sweep_values_report,
};
use ss_fabric::scenarios as fabric_scenarios;
use ss_verify::run::render_check_report;
use ss_verify::scenario::Budget as VerifyBudget;
use ss_verify::{generate_corpus, run_corpus, summarize, CorpusStats};

/// Pool sizes of every target's replicas: the `SS_THREADS` matrix.
pub const REPLICA_THREADS: [usize; 3] = [1, 2, 4];

/// Directory of the committed golden fixtures, relative to the repo root.
pub const FIXTURE_DIR: &str = "fixtures/conform";

/// Oracle pairs that must each have a `PASS` line in `verify-check`.  They
/// are spelled out rather than read from `OraclePair::ALL`, so a pair that
/// vanishes from the code still fails.
pub const EXPECT_PAIRS: [&str; 12] = [
    "fifo-vs-pk",
    "nonpreemptive-vs-cobham",
    "preemptive-vs-formula",
    "conservation-identity",
    "gittins-vs-dp",
    "lp-primal-vs-dual",
    "achievable-lp-vs-cmu",
    "klimov-vs-exact",
    "whittle-vs-dp",
    "sept-lept-vs-dp",
    "fabric-vs-erlangc",
    "fabric-vs-mmck",
];

/// The corpus shape the `verify-check` trailer must declare: one pair per
/// entry of [`EXPECT_PAIRS`], 66 scenarios and seed `0xC0DE5EED`.  The
/// corpus is append-only: raise the scenario count deliberately, never
/// lower it.
pub const EXPECT_TRAILER: CorpusStats = CorpusStats {
    pairs: EXPECT_PAIRS.len(),
    scenarios: 66,
    seed: 0xC0DE_5EED,
};

/// Footer `fabric-check` must carry (4205862637 == 0xFAB05EED, the fabric
/// suite's default master seed).
const FABRIC_FOOTER: &str = "scenarios simulated (seed 4205862637)";

/// Replications the `replications-check` workload runs.
const REPLICATIONS: usize = 200;

/// Experiments in the `experiments-subset` artifact, each of which must
/// appear as an `== <id> ` header.
const EXPERIMENT_IDS: [&str; 6] = ["E3", "E5", "E6", "E9", "E13", "E22"];

/// One artifact-producing conformance target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `verify --check`: the oracle cross-validation corpus report.
    VerifyCheck,
    /// `fabric --check`: the service-fabric scenario-suite report.
    FabricCheck,
    /// The `parallel_replications` workload's per-replication values.
    ReplicationsCheck,
    /// The turnpike / heavy-traffic / asymptotic sweep values.
    SweepsCheck,
    /// An `experiments` harness subset (wall-clock lines stripped).
    ExperimentsSubset,
}

impl Target {
    /// Every target, in run order.
    pub const ALL: [Target; 5] = [
        Target::VerifyCheck,
        Target::FabricCheck,
        Target::ReplicationsCheck,
        Target::SweepsCheck,
        Target::ExperimentsSubset,
    ];

    /// The `--target` selector and report label.
    pub fn key(self) -> &'static str {
        match self {
            Target::VerifyCheck => "verify-check",
            Target::FabricCheck => "fabric-check",
            Target::ReplicationsCheck => "replications-check",
            Target::SweepsCheck => "sweeps-check",
            Target::ExperimentsSubset => "experiments-subset",
        }
    }

    /// The target with this key, if any.
    pub fn from_key(key: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.key() == key)
    }

    /// Human description for `--list`.
    pub fn description(self) -> &'static str {
        match self {
            Target::VerifyCheck => {
                "Oracle cross-validation corpus under the fast check budget (verify --check)"
            }
            Target::FabricCheck => {
                "Service-fabric DES scenario suite under the fast check budget (fabric --check)"
            }
            Target::ReplicationsCheck => {
                "Per-replication mean bit patterns from the parallel_replications workload"
            }
            Target::SweepsCheck => "Parameter-sweep value bit patterns from the sweeps workload",
            Target::ExperimentsSubset => {
                "Experiments harness CI subset (wall-clock lines stripped), across threads"
            }
        }
    }

    /// Render the canonical artifact on the lane count the harness scoped
    /// for a replica.  Renderers must not scope another lane count around
    /// their parallel fan-outs: the replica's count is the behaviour under
    /// test.
    pub fn render(self) -> Result<String, String> {
        let run = std::panic::catch_unwind(|| match self {
            Target::VerifyCheck => {
                let corpus = generate_corpus(ss_verify::DEFAULT_SEED);
                let reports = run_corpus(&corpus, &VerifyBudget::check());
                let (passed, total) = summarize(&reports);
                let report = render_check_report(&corpus, &reports);
                if passed != total {
                    // A FAIL line is deterministic and would byte-diff clean
                    // across replicas; correctness failures must fail the
                    // target, not hide inside a "conforming" artifact.
                    return Err(format!(
                        "{} oracle checks FAILED (report follows)\n{report}",
                        total - passed
                    ));
                }
                Ok(report)
            }
            Target::FabricCheck => {
                let seed = fabric_scenarios::DEFAULT_SEED;
                let results = fabric_scenarios::run_suite(seed, &fabric_scenarios::Budget::check());
                Ok(fabric_scenarios::render_suite_report(seed, &results))
            }
            Target::ReplicationsCheck => Ok(replication_values_report(REPLICATIONS)),
            Target::SweepsCheck => Ok(sweep_values_report()),
            Target::ExperimentsSubset => harness_subset_report(&EXPERIMENT_IDS.map(String::from)),
        });
        match run {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(format!("target panicked: {msg}"))
            }
        }
    }

    /// The structural expectations `artifact` violates (empty when it
    /// meets them all).
    pub fn check(self, artifact: &str) -> Vec<String> {
        let needles: Vec<String> = match self {
            Target::VerifyCheck => return check_corpus(artifact),
            Target::FabricCheck => vec![FABRIC_FOOTER.to_string()],
            Target::ReplicationsCheck => vec!["summary:".to_string()],
            Target::SweepsCheck => vec!["sweep ".to_string()],
            Target::ExperimentsSubset => EXPERIMENT_IDS.map(|id| format!("== {id} ")).into(),
        };
        needles
            .iter()
            .filter(|needle| !artifact.contains(needle.as_str()))
            .map(|needle| format!("artifact does not contain {needle:?}"))
            .collect()
    }
}

/// Repo-relative path of the committed golden fixture of the target keyed
/// `key`.
pub fn fixture_path(key: &str) -> String {
    format!("{FIXTURE_DIR}/{key}.txt")
}

/// `verify-check`'s expectations: a `PASS` line per oracle pair, and a
/// machine-readable trailer declaring [`EXPECT_TRAILER`].
fn check_corpus(artifact: &str) -> Vec<String> {
    let mut failures: Vec<String> = EXPECT_PAIRS
        .iter()
        .filter(|pair| !artifact.contains(&format!("PASS {pair}")))
        .map(|pair| {
            format!(
                "oracle pair {pair:?} has no PASS line — the corpus shrank or the pair regressed"
            )
        })
        .collect();
    match CorpusStats::parse(artifact) {
        None => failures.push(
            "artifact carries no machine-readable corpus trailer (expected `corpus-trailer: ...`)"
                .to_string(),
        ),
        Some(stats) if stats != EXPECT_TRAILER => failures.push(format!(
            "`{}` differs from the expected `{}` — grow the corpus append-only and update \
             EXPECT_TRAILER in targets.rs deliberately",
            stats.trailer(),
            EXPECT_TRAILER.trailer()
        )),
        Some(_) => {}
    }
    failures
}
