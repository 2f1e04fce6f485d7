//! Scenario vocabulary: what one cross-validation instance consists of.
//!
//! A [`Scenario`] is one parameterized instance of one oracle pair: a
//! multiclass queue with a service-distribution mix, load level and priority
//! structure; a small multi-armed bandit; or a linear program together with
//! its hand-constructed dual.  Scenarios are *data* — generation lives in
//! [`crate::corpus`], execution in [`crate::run`] — so the corpus can be
//! listed, sliced and fanned out over the pool without re-deriving anything.

use crate::oracle::OraclePair;
use ss_bandits::project::BanditProject;
use ss_bandits::restless::RestlessProject;
use ss_batch::parallel::ParallelMetric;
use ss_core::instance::BatchInstance;
use ss_core::job::JobClass;
use ss_lp::LinearProgram;
use ss_queueing::klimov::KlimovNetwork;

/// Queueing sub-mode: which discipline is simulated and which formula
/// serves as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// FIFO vs Pollaczek–Khinchine.
    Fifo,
    /// Nonpreemptive static priority vs Cobham.
    Nonpreemptive,
    /// Preemptive-resume static priority vs the classical formulas.
    Preemptive,
    /// Nonpreemptive priority sim, checked against the conservation-law
    /// constant `Σ_j ρ_j W_j = ρ W0 / (1 - ρ)` instead of per-class waits.
    Conservation,
}

/// The oracle pair a queueing sub-mode exercises.
pub fn pair_for_mode(mode: QueueMode) -> OraclePair {
    match mode {
        QueueMode::Fifo => OraclePair::FifoVsPollaczekKhinchine,
        QueueMode::Nonpreemptive => OraclePair::NonpreemptiveVsCobham,
        QueueMode::Preemptive => OraclePair::PreemptiveVsFormula,
        QueueMode::Conservation => OraclePair::ConservationIdentity,
    }
}

/// The model underlying one scenario.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A multiclass M/G/1 queue simulated against an exact formula.
    Queue {
        /// Job classes (arrival rates, service distributions, holding costs).
        classes: Vec<JobClass>,
        /// Static priority order, highest first (ignored by [`QueueMode::Fifo`]).
        order: Vec<usize>,
        /// Which discipline/oracle combination to run.
        mode: QueueMode,
    },
    /// A small multi-armed bandit: Gittins-rule roll-outs vs the exact DP.
    Bandit {
        /// The projects (arms).
        projects: Vec<BanditProject>,
        /// Discount factor in `[0, 1)`.
        discount: f64,
    },
    /// A primal LP and its explicitly constructed dual (strong duality).
    LpDuality {
        /// The primal minimisation problem.
        primal: LinearProgram,
        /// Its dual maximisation problem.
        dual: LinearProgram,
    },
    /// The achievable-region polymatroid LP of a multiclass M/G/1 queue,
    /// whose optimum must equal the exact Cobham cost of the cµ order.
    AchievableLp {
        /// Job classes defining the polymatroid.
        classes: Vec<JobClass>,
    },
    /// A Klimov feedback network simulated under a static priority order:
    /// feedback-free networks check the holding-cost rate against Cobham,
    /// feedback networks check the full-chain workload against the exact
    /// conservation constant (`ss_queueing::klimov_sim`).
    Klimov {
        /// The network (arrivals, services, costs, Bernoulli routing).
        network: KlimovNetwork,
        /// Static priority order (the Klimov index order at generation).
        order: Vec<usize>,
        /// Whether the routing matrix has any feedback (chooses the oracle).
        feedback: bool,
    },
    /// A restless bandit run under the Whittle priority rule, checked
    /// against the exact joint-chain policy value with DP-optimum and
    /// relaxation-bound sandwich gates.
    Restless {
        /// The projects.
        projects: Vec<RestlessProject>,
        /// Projects activated per period.
        m: usize,
    },
    /// The service-fabric simulator configured as a single central-queue
    /// FIFO M/M/c tier, whose tier-0 mean wait must match the Erlang-C
    /// formula `W_q = C(c, λ/µ) / (cµ - λ)`.
    Fabric {
        /// Number of parallel servers `c`.
        servers: usize,
        /// Poisson arrival rate `λ`.
        lambda: f64,
        /// Per-server exponential service rate `µ`.
        mu: f64,
    },
    /// The service-fabric simulator with a *bounded* central FIFO queue,
    /// whose tier-0 drop fraction must match the M/M/c/K blocking
    /// probability (PASTA: the fraction of arrivals finding the system
    /// full equals the stationary probability of state `K`).
    FabricFinite {
        /// Number of parallel servers `c`.
        servers: usize,
        /// Waiting-room slots beyond the servers (total capacity
        /// `K = servers + queue_cap`).
        queue_cap: usize,
        /// Poisson arrival rate `λ`.
        lambda: f64,
        /// Per-server exponential service rate `µ`.
        mu: f64,
    },
    /// Exponential jobs list-scheduled on identical parallel machines:
    /// `ss_batch::parallel::simulate_list_schedule` realisations checked
    /// against the exact subset DP `ss_batch::exact_exp::list_policy_value`
    /// of the same list and objective.
    ListSchedule {
        /// The jobs: every processing time exponential, weights all 1
        /// unless the objective is the weighted flowtime.
        instance: BatchInstance,
        /// Number of identical machines.
        machines: usize,
        /// The static list (SEPT, LEPT or WSEPT from `ss_batch::policies`)
        /// evaluated on both sides of the pair.
        order: Vec<usize>,
        /// Which statistic is compared.
        metric: ParallelMetric,
    },
}

impl Spec {
    /// The oracle pair this spec exercises.  Derived, not stored, so a
    /// scenario's spec and its reported pair can never disagree.
    pub fn pair(&self) -> OraclePair {
        match self {
            Spec::Queue { mode, .. } => pair_for_mode(*mode),
            Spec::Bandit { .. } => OraclePair::GittinsRolloutVsDp,
            Spec::LpDuality { .. } => OraclePair::LpPrimalVsDual,
            Spec::AchievableLp { .. } => OraclePair::AchievableLpVsCmu,
            Spec::Klimov { .. } => OraclePair::KlimovVsExact,
            Spec::Restless { .. } => OraclePair::WhittleVsDp,
            Spec::Fabric { .. } => OraclePair::FabricVsErlangC,
            Spec::FabricFinite { .. } => OraclePair::FabricVsMmck,
            Spec::ListSchedule { .. } => OraclePair::SeptLeptVsDp,
        }
    }
}

/// One cross-validation instance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Corpus index; doubles as the scenario's RNG stream id.
    pub id: usize,
    /// Deterministic human-readable description (families, load, sizes).
    pub label: String,
    /// The model to run (its oracle pair is [`Spec::pair`]).
    pub spec: Spec,
}

/// Simulation effort of one corpus run.
///
/// `check()` is the fast slice used by the tier-1 integration test and the
/// CI determinism gate; `full()` is the thorough profile behind the plain
/// `verify` binary run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Independent replications per queueing scenario.
    pub queue_replications: usize,
    /// Simulated horizon per queueing replication.
    pub horizon: f64,
    /// Warm-up period excluded from time averages.
    pub warmup: f64,
    /// Monte-Carlo roll-outs per bandit scenario.
    pub bandit_replications: usize,
    /// Independent replications per restless-bandit scenario.
    pub restless_replications: usize,
    /// Periods simulated per restless replication.
    pub restless_horizon: usize,
    /// Schedule realisations per list-schedule scenario.
    pub list_replications: usize,
}

impl Budget {
    /// Fast corpus slice: seconds of total work, used by CI and tier-1 tests.
    pub fn check() -> Self {
        Self {
            queue_replications: 6,
            horizon: 8_000.0,
            warmup: 800.0,
            bandit_replications: 300,
            restless_replications: 4,
            restless_horizon: 4_000,
            list_replications: 1_500,
        }
    }

    /// Thorough profile for the default `verify` binary run.
    pub fn full() -> Self {
        Self {
            queue_replications: 12,
            horizon: 24_000.0,
            warmup: 2_000.0,
            bandit_replications: 1_000,
            restless_replications: 8,
            restless_horizon: 12_000,
            list_replications: 6_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_ordered() {
        let check = Budget::check();
        let full = Budget::full();
        assert!(check.queue_replications < full.queue_replications);
        assert!(check.horizon < full.horizon);
        assert!(check.bandit_replications < full.bandit_replications);
        assert!(check.restless_replications < full.restless_replications);
        assert!(check.restless_horizon < full.restless_horizon);
        assert!(check.list_replications < full.list_replications);
        assert!(check.warmup < check.horizon);
        assert!(full.warmup < full.horizon);
    }
}
