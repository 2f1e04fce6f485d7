//! Scenario execution: one verdict per scenario, fanned out over the pool.
//!
//! ## Stream-id allocation
//!
//! Replication `rep` of scenario `id` draws from
//! `RngStreams::substream(id, rep)` — disjoint across scenarios, across
//! replications, and from the corpus-generation family
//! ([`crate::corpus::GENERATION_STREAM`]).  Because every replication owns
//! its stream and [`ss_sim::pool::parallel_indexed`] collects results in
//! index order, a corpus run is bit-for-bit identical for any thread count.

use crate::corpus::Corpus;
use crate::oracle::{check, OraclePair, Tolerance, Verdict};
use crate::scenario::{pair_for_mode, BatchMetric, Budget, QueueMode, Scenario, Spec};
use rand::Rng;
use ss_bandits::exact::MultiArmedBandit;
use ss_bandits::restless::{
    simulate_restless, whittle_indices, whittle_relaxation_bound, RestlessPolicy, RestlessProject,
};
use ss_bandits::restless_exact::{restless_optimal_gain, whittle_policy_gain};
use ss_bandits::simulate::{rollout_discounted, GittinsRule};
use ss_batch::exact_exp::{
    exp_batch_instance, list_policy_flowtime, list_policy_makespan, ExpParallelInstance,
};
use ss_batch::parallel::simulate_list_schedule;
use ss_core::job::JobClass;
use ss_fabric::{
    run_fabric, ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig, LbPolicy, RetryPolicy,
    TierConfig,
};
use ss_lp::LinearProgram;
use ss_queueing::achievable_region::region_lp;
use ss_queueing::cmu::cmu_order;
use ss_queueing::cobham::{
    mg1_nonpreemptive_priority, mg1_preemptive_priority, pollaczek_khinchine_wait,
};
use ss_queueing::conservation::conserved_work;
use ss_queueing::klimov::KlimovNetwork;
use ss_queueing::klimov_sim::{exact_mean_workload, simulate_klimov_policy};
use ss_queueing::mg1::{simulate_mg1, Discipline, Mg1Config, Mg1Result};
use ss_sim::pool;
use ss_sim::rng::RngStreams;
use ss_sim::stats::OnlineStats;

/// Result of running one scenario against its oracle.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Corpus index of the scenario.
    pub id: usize,
    /// The scenario's label (copied so reports are self-contained).
    pub label: String,
    /// The oracle pair exercised.
    pub pair: OraclePair,
    /// The tolerance-checked comparison outcome.
    pub verdict: Verdict,
}

/// Confidence level of the CI term in the tolerance gate.
const CONFIDENCE: f64 = 0.99;

/// Per-pair relative tolerances of the Monte-Carlo oracle pairs (the CI
/// half-width is added on top; exact pairs use [`Tolerance::exact`]).
fn tolerance_for(pair: OraclePair) -> Tolerance {
    match pair {
        OraclePair::FifoVsPollaczekKhinchine => Tolerance::monte_carlo(0.10),
        OraclePair::NonpreemptiveVsCobham => Tolerance::monte_carlo(0.10),
        OraclePair::PreemptiveVsFormula => Tolerance::monte_carlo(0.10),
        OraclePair::ConservationIdentity => Tolerance::monte_carlo(0.08),
        OraclePair::GittinsRolloutVsDp => Tolerance::monte_carlo(0.05),
        OraclePair::KlimovVsExact => Tolerance::monte_carlo(0.10),
        OraclePair::WhittleVsDp => Tolerance::monte_carlo(0.06),
        OraclePair::SeptLeptVsDp => Tolerance::monte_carlo(0.05),
        OraclePair::FabricVsErlangC => Tolerance::monte_carlo(0.10),
        OraclePair::FabricVsMmck => Tolerance::monte_carlo(0.10),
        OraclePair::LpPrimalVsDual | OraclePair::AchievableLpVsCmu => Tolerance::exact(),
    }
}

/// Completion-weighted mean wait across classes (the FIFO scalar: under
/// FIFO every class sees the same Pollaczek–Khinchine wait).
fn pooled_wait(res: &Mg1Result) -> f64 {
    let total: u64 = res.completed.iter().sum();
    if total == 0 {
        return 0.0;
    }
    res.mean_wait
        .iter()
        .zip(&res.completed)
        .map(|(w, &n)| w * n as f64)
        .sum::<f64>()
        / total as f64
}

fn run_queue(
    scenario_id: usize,
    classes: &[JobClass],
    order: &[usize],
    mode: QueueMode,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let discipline = match mode {
        QueueMode::Fifo => Discipline::Fifo,
        QueueMode::Preemptive => Discipline::PreemptivePriority(order.to_vec()),
        QueueMode::Nonpreemptive | QueueMode::Conservation => {
            Discipline::NonpreemptivePriority(order.to_vec())
        }
    };
    let config = Mg1Config {
        classes: classes.to_vec(),
        discipline,
        horizon: budget.horizon,
        warmup: budget.warmup,
    };
    let values: Vec<f64> = (0..budget.queue_replications)
        .map(|rep| {
            let mut rng = streams.substream(scenario_id as u64, rep as u64);
            let res = simulate_mg1(&config, &mut rng);
            match mode {
                QueueMode::Fifo => pooled_wait(&res),
                QueueMode::Nonpreemptive | QueueMode::Preemptive => res.holding_cost_rate,
                QueueMode::Conservation => classes
                    .iter()
                    .enumerate()
                    .map(|(j, c)| c.load() * res.mean_wait[j])
                    .sum(),
            }
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    let exact = match mode {
        QueueMode::Fifo => pollaczek_khinchine_wait(classes),
        QueueMode::Nonpreemptive => mg1_nonpreemptive_priority(classes, order).holding_cost_rate,
        QueueMode::Preemptive => mg1_preemptive_priority(classes, order).holding_cost_rate,
        QueueMode::Conservation => conserved_work(classes),
    };
    let pair = pair_for_mode(mode);
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(pair),
    )
}

fn run_bandit(
    scenario_id: usize,
    projects: &[ss_bandits::project::BanditProject],
    discount: f64,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let mab = MultiArmedBandit::new(projects.to_vec(), discount);
    let init = vec![0usize; mab.projects.len()];
    // The DP side of the pair: value iteration on the joint MDP.  The
    // Gittins policy value must coincide with it (index-rule optimality);
    // a disagreement here is an exact-vs-exact failure that no Monte-Carlo
    // slack should mask, so it is folded in as a hard error on `exact`.
    let exact = mab.optimal_value(&init);
    let policy_value = mab.gittins_policy_value(&init);
    // Same threshold the returned verdict would apply, so the gate fires
    // exactly when the exact-vs-exact check would fail.
    let exact_tol = Tolerance::exact();
    if (exact - policy_value).abs() > exact_tol.allowed(exact, 0.0) {
        return check(policy_value, exact, 0.0, exact_tol);
    }
    let policy = GittinsRule::new(&mab);
    let values: Vec<f64> = (0..budget.bandit_replications)
        .map(|rep| {
            let mut rng = streams.substream(scenario_id as u64, rep as u64);
            rollout_discounted(&mab, &policy, &init, &mut rng)
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::GittinsRolloutVsDp),
    )
}

fn run_lp_duality(primal: &LinearProgram, dual: &LinearProgram) -> Verdict {
    let p = primal
        .solve()
        .expect("corpus primal LPs are feasible and bounded by construction");
    let d = dual
        .solve()
        .expect("corpus dual LPs are feasible and bounded by construction");
    check(
        p.objective,
        d.objective,
        0.0,
        tolerance_for(OraclePair::LpPrimalVsDual),
    )
}

/// The achievable-region oracle pair: the production polymatroid LP
/// (`ss_queueing::achievable_region::region_lp`, variables `z_j = ρ_j W_j`,
/// subset bounds from the conservation laws) must attain exactly the
/// holding-cost rate of the cµ priority order evaluated by Cobham's
/// formulas — the LP account of cµ optimality, exercised through the same
/// code path experiment E17 uses.
fn run_achievable_lp(classes: &[JobClass]) -> Verdict {
    let lp = region_lp(classes);
    let order = cmu_order(classes);
    let exact = mg1_nonpreemptive_priority(classes, &order).holding_cost_rate;
    check(
        lp.holding_cost_rate,
        exact,
        0.0,
        tolerance_for(OraclePair::AchievableLpVsCmu),
    )
}

/// The Klimov pair: simulate the network under its Klimov index order;
/// feedback-free networks are an ordinary multiclass M/G/1, so the
/// holding-cost rate is checked two-sided against Cobham; feedback
/// networks check the (priority-invariant) full-chain workload against the
/// exact chain-moment conservation constant.
fn run_klimov(
    scenario_id: usize,
    network: &KlimovNetwork,
    order: &[usize],
    feedback: bool,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let values: Vec<f64> = (0..budget.queue_replications)
        .map(|rep| {
            let mut rng = streams.substream(scenario_id as u64, rep as u64);
            let res =
                simulate_klimov_policy(network, order, budget.horizon, budget.warmup, &mut rng);
            if feedback {
                res.mean_workload
            } else {
                res.holding_cost_rate
            }
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    let exact = if feedback {
        exact_mean_workload(network)
    } else {
        let classes: Vec<JobClass> = (0..network.num_classes())
            .map(|i| {
                JobClass::new(
                    i,
                    network.arrival_rates[i],
                    network.services[i].clone(),
                    network.holding_costs[i],
                )
            })
            .collect();
        mg1_nonpreemptive_priority(&classes, order).holding_cost_rate
    };
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::KlimovVsExact),
    )
}

/// The Whittle pair: the exact side is the joint-chain evaluation of the
/// very policy being simulated; before simulating, the exact sandwich
/// `policy value <= DP optimum <= relaxation bound` is enforced as a hard
/// exact-vs-exact gate (no Monte-Carlo slack may mask a violation).
fn run_restless(
    scenario_id: usize,
    projects: &[RestlessProject],
    m: usize,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let indices: Vec<Vec<f64>> = projects.iter().map(whittle_indices).collect();
    let exact = whittle_policy_gain(projects, m, &indices);
    let optimal = restless_optimal_gain(projects, m);
    let bound = whittle_relaxation_bound(projects, m);
    // The solvers converge to ~1e-9; the gates allow only solver noise.
    let gate = Tolerance {
        rel: 1e-6,
        abs: 1e-5,
    };
    if exact > optimal + gate.allowed(optimal, 0.0) {
        return check(exact, optimal, 0.0, gate);
    }
    if optimal > bound + gate.allowed(bound, 0.0) {
        return check(optimal, bound, 0.0, gate);
    }
    let policy = RestlessPolicy::WhittleIndex(indices);
    let values: Vec<f64> = (0..budget.restless_replications)
        .map(|rep| {
            let mut rng = streams.substream(scenario_id as u64, rep as u64);
            simulate_restless(projects, m, &policy, budget.restless_horizon, &mut rng)
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::WhittleVsDp),
    )
}

/// One tier of `servers` exponential servers behind a central FIFO queue
/// with `queue_capacity` waiting places, fed by one Poisson class: no hops,
/// failures, retries or resilience, so the tier is exactly an M/M/c (or,
/// bounded, an M/M/c/K) system.
fn single_tier_fifo(
    servers: usize,
    queue_capacity: Option<usize>,
    lambda: f64,
    mu: f64,
    budget: &Budget,
) -> FabricConfig {
    FabricConfig {
        name: "single-tier-fifo".into(),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: lambda },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers,
            queue_capacity,
            service: vec![ss_distributions::dyn_dist(
                ss_distributions::Exponential::with_mean(1.0 / mu),
            )],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: None,
            breaker: None,
            slowdown: None,
        }],
        retry: RetryPolicy::none(),
        warmup: budget.warmup,
        horizon: budget.horizon,
        deadlines: None,
        shedder: None,
        sla_window: None,
    }
}

/// The fabric pair: the service-fabric DES configured as exactly the model
/// Erlang-C solves — one tier, one class, Poisson arrivals, exponential
/// servers behind a central FIFO queue, no hops, failures or retries —
/// must reproduce the closed-form M/M/c mean queueing delay.  Exercises
/// the whole fabric machinery (calendar, central queue, discipline
/// selection, warmup-clipped accounting) through the public `run_fabric`
/// entry point.
fn run_fabric_erlang(
    scenario_id: usize,
    servers: usize,
    lambda: f64,
    mu: f64,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let config = single_tier_fifo(servers, None, lambda, mu, budget);
    let values: Vec<f64> = (0..budget.queue_replications)
        .map(|rep| {
            let seed = streams
                .substream(scenario_id as u64, rep as u64)
                .gen::<u64>();
            run_fabric(&config, seed).tiers[0].mean_wait
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    let exact = ss_queueing::parallel_servers::mmc_mean_wait(servers, lambda, mu);
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::FabricVsErlangC),
    )
}

/// The finite-buffer fabric pair: the same single-tier central-queue
/// configuration as [`run_fabric_erlang`], but with a bounded waiting room
/// (`queue_capacity = Some(queue_cap)`), making the tier exactly an
/// M/M/c/K system with `K = servers + queue_cap`.  By PASTA, the fraction
/// of arrivals dropped at the full tier is the stationary blocking
/// probability `p_K`, which the exact side computes from the truncated
/// birth–death distribution (`ss_queueing::parallel_servers`).  Unlike the
/// Erlang-C pair this one is meaningful in overload (`λ > cµ`), where the
/// committed corpus deliberately places one scenario.
fn run_fabric_mmck(
    scenario_id: usize,
    servers: usize,
    queue_cap: usize,
    lambda: f64,
    mu: f64,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let config = single_tier_fifo(servers, Some(queue_cap), lambda, mu, budget);
    let values: Vec<f64> = (0..budget.queue_replications)
        .map(|rep| {
            let seed = streams
                .substream(scenario_id as u64, rep as u64)
                .gen::<u64>();
            let tier = &run_fabric(&config, seed).tiers[0];
            let offered = tier.served + tier.dropped;
            if offered == 0 {
                0.0
            } else {
                tier.dropped as f64 / offered as f64
            }
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    let exact = ss_queueing::parallel_servers::mmck_blocking_probability(
        servers,
        servers + queue_cap,
        lambda,
        mu,
    );
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::FabricVsMmck),
    )
}

/// The SEPT/LEPT pair: Monte-Carlo list-schedule realisations vs the exact
/// subset-DP value of the same list on the same machines.
#[allow(clippy::too_many_arguments)]
fn run_list_schedule(
    scenario_id: usize,
    rates: &[f64],
    weights: &[f64],
    machines: usize,
    order: &[usize],
    metric: BatchMetric,
    budget: &Budget,
    streams: &RngStreams,
) -> Verdict {
    let instance = ExpParallelInstance::weighted(rates.to_vec(), weights.to_vec());
    let batch = exp_batch_instance(&instance);
    let exact = match metric {
        BatchMetric::Flowtime | BatchMetric::WeightedFlowtime => {
            list_policy_flowtime(&instance, order, machines)
        }
        BatchMetric::Makespan => list_policy_makespan(&instance, order, machines),
    };
    let values: Vec<f64> = (0..budget.list_replications)
        .map(|rep| {
            let mut rng = streams.substream(scenario_id as u64, rep as u64);
            let out = simulate_list_schedule(&batch, order, machines, &mut rng);
            match metric {
                BatchMetric::Flowtime => out.total_flowtime,
                BatchMetric::WeightedFlowtime => out.weighted_flowtime,
                BatchMetric::Makespan => out.makespan,
            }
        })
        .collect();
    let stats = OnlineStats::from_slice(&values);
    check(
        stats.mean(),
        exact,
        stats.ci_half_width_t(CONFIDENCE),
        tolerance_for(OraclePair::SeptLeptVsDp),
    )
}

/// Run one scenario against its oracle.
pub fn run_scenario(s: &Scenario, budget: &Budget, streams: &RngStreams) -> ScenarioReport {
    let verdict = match &s.spec {
        Spec::Queue {
            classes,
            order,
            mode,
        } => run_queue(s.id, classes, order, *mode, budget, streams),
        Spec::Bandit { projects, discount } => {
            run_bandit(s.id, projects, *discount, budget, streams)
        }
        Spec::LpDuality { primal, dual } => run_lp_duality(primal, dual),
        Spec::AchievableLp { classes } => run_achievable_lp(classes),
        Spec::Klimov {
            network,
            order,
            feedback,
        } => run_klimov(s.id, network, order, *feedback, budget, streams),
        Spec::Restless { projects, m } => run_restless(s.id, projects, *m, budget, streams),
        Spec::Fabric {
            servers,
            lambda,
            mu,
        } => run_fabric_erlang(s.id, *servers, *lambda, *mu, budget, streams),
        Spec::FabricFinite {
            servers,
            queue_cap,
            lambda,
            mu,
        } => run_fabric_mmck(s.id, *servers, *queue_cap, *lambda, *mu, budget, streams),
        Spec::ListSchedule {
            rates,
            weights,
            machines,
            order,
            metric,
        } => run_list_schedule(
            s.id, rates, weights, *machines, order, *metric, budget, streams,
        ),
    };
    ScenarioReport {
        id: s.id,
        label: s.label.clone(),
        pair: s.spec.pair(),
        verdict,
    }
}

/// Run the whole corpus, fanned out over the current pool (scenario `i` is
/// index `i`; results come back in corpus order regardless of thread count).
/// Replication streams are derived from the seed the corpus was generated
/// with, so scenarios and streams can never be mismatched.
pub fn run_corpus(corpus: &Corpus, budget: &Budget) -> Vec<ScenarioReport> {
    let streams = RngStreams::new(corpus.seed);
    pool::parallel_indexed(corpus.scenarios.len(), |i| {
        run_scenario(&corpus.scenarios[i], budget, &streams)
    })
}

/// Deterministic single-line rendering of one report (no wall-clock, so CI
/// can diff runs across thread counts byte-for-byte).
pub fn format_report_line(r: &ScenarioReport) -> String {
    format!(
        "#{:<3} {} {:<24} {:<52} sim={:.6} exact={:.6} err={:.3e} ci={:.3e} allow={:.3e}",
        r.id,
        if r.verdict.pass { "PASS" } else { "FAIL" },
        r.pair.key(),
        r.label,
        r.verdict.simulated,
        r.verdict.exact,
        r.verdict.abs_error,
        r.verdict.ci_half_width,
        r.verdict.allowed,
    )
}

/// Summary counts: `(passed, total)`.
pub fn summarize(reports: &[ScenarioReport]) -> (usize, usize) {
    (
        reports.iter().filter(|r| r.verdict.pass).count(),
        reports.len(),
    )
}

/// The full deterministic check report: one line per scenario, the summary
/// line, and the machine-readable [`CorpusStats`](crate::corpus::CorpusStats)
/// trailer.  This is byte-for-byte what `verify --check` prints (the full-
/// budget run appends a wall-clock line on top) and what the `ss-conform`
/// subsystem replays across thread counts, so the binary and the
/// conformance harness can never drift apart.
pub fn render_check_report(corpus: &Corpus, reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format_report_line(r));
        out.push('\n');
    }
    let (passed, total) = summarize(reports);
    out.push_str(&format!(
        "verify: {passed}/{total} oracle checks passed (seed {})\n",
        corpus.seed
    ));
    out.push_str(&corpus.stats().trailer());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate_corpus;

    #[test]
    fn lp_scenarios_have_zero_duality_gap() {
        let corpus = generate_corpus(11);
        let streams = RngStreams::new(corpus.seed);
        let budget = Budget::check();
        for s in corpus
            .scenarios
            .iter()
            .filter(|s| s.spec.pair() == OraclePair::LpPrimalVsDual)
        {
            let r = run_scenario(s, &budget, &streams);
            assert!(r.verdict.pass, "{}", format_report_line(&r));
            assert!(r.verdict.abs_error < 1e-6);
        }
    }

    #[test]
    fn achievable_lp_matches_cmu_cost() {
        let corpus = generate_corpus(11);
        let streams = RngStreams::new(corpus.seed);
        let budget = Budget::check();
        for s in corpus
            .scenarios
            .iter()
            .filter(|s| s.spec.pair() == OraclePair::AchievableLpVsCmu)
        {
            let r = run_scenario(s, &budget, &streams);
            assert!(r.verdict.pass, "{}", format_report_line(&r));
        }
    }

    #[test]
    fn report_lines_have_no_wall_clock() {
        let corpus = generate_corpus(5);
        let streams = RngStreams::new(corpus.seed);
        let budget = Budget::check();
        let s = corpus
            .scenarios
            .iter()
            .find(|s| s.spec.pair() == OraclePair::LpPrimalVsDual)
            .unwrap();
        let line = format_report_line(&run_scenario(s, &budget, &streams));
        assert!(line.contains("PASS") || line.contains("FAIL"));
        assert!(!line.contains("ms") && !line.contains("wall"));
    }
}
