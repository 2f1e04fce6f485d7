//! Branching bandit processes (Weiss 1988).
//!
//! A branching bandit generalises both the batch-scheduling models of §1 and
//! Klimov's feedback queue of §3: a single server works on a population of
//! jobs of `N` classes; completing a class-`i` job takes a random service
//! time `S_i` and *spawns* a random vector of new jobs (its offspring), after
//! which the server picks the next job.  Holding costs accrue at rate `c_j`
//! per class-`j` job present.  When the expected-offspring matrix is
//! subcritical the population eventually dies out and the objective is the
//! expected total holding cost until extinction.
//!
//! Weiss showed that the optimal nonpreemptive policy is again a
//! **priority-index rule**, with indices of exactly the conservation-law
//! form implemented by [`ss_core::adaptive_greedy`](fn@ss_core::adaptive_greedy):
//! the work measure `T_j(S)` is the expected length of the sub-busy period
//! a class-`j` job generates while only classes in `S` are served, and the
//! exit cost `E_j(S)` is the expected holding-cost rate of the
//! first-generation descendants that fall outside `S`.  Two sanity limits
//! anchor the implementation:
//!
//! * with **no offspring** the model is the static single-machine batch
//!   problem and the index reduces to the WSEPT/Smith index `c_i / E[S_i]`
//!   (experiment E1);
//! * with offspring restricted to at most one child the model is Klimov's
//!   queue without external arrivals and the index reduces to Klimov's.
//!
//! The module also contains an extinction-time simulator used by experiment
//! E18 to compare the index order against every other static priority order
//! on small instances.

use crate::branching::offspring::OffspringDist;
use rand::Rng;
use ss_core::adaptive_greedy::{adaptive_greedy, AdaptiveGreedyResult, TransferWorkMeasure};
use ss_core::linalg::solve_dense;
use ss_distributions::DynDist;

pub mod offspring {
    //! Offspring distributions: finitely supported distributions over
    //! vectors of per-class child counts.

    use rand::Rng;

    /// A finitely supported distribution over offspring vectors.
    #[derive(Debug, Clone)]
    pub struct OffspringDist {
        outcomes: Vec<(Vec<usize>, f64)>,
    }

    impl OffspringDist {
        /// Create a distribution from `(offspring vector, probability)`
        /// pairs; probabilities must sum to one and every vector must have
        /// the same length.
        pub fn new(outcomes: Vec<(Vec<usize>, f64)>) -> Self {
            assert!(
                !outcomes.is_empty(),
                "offspring distribution needs at least one outcome"
            );
            let n = outcomes[0].0.len();
            assert!(
                outcomes.iter().all(|(v, _)| v.len() == n),
                "inconsistent vector lengths"
            );
            let total: f64 = outcomes.iter().map(|(_, p)| *p).sum();
            assert!(
                (total - 1.0).abs() < 1e-8,
                "offspring probabilities sum to {total}"
            );
            assert!(outcomes.iter().all(|(_, p)| *p >= -1e-12));
            Self { outcomes }
        }

        /// The distribution producing no offspring at all (absorbing class).
        pub fn none(num_classes: usize) -> Self {
            Self::new(vec![(vec![0; num_classes], 1.0)])
        }

        /// A Bernoulli "feedback" offspring: with probability `p` one child
        /// of class `child`, otherwise nothing (Klimov-style routing).
        pub fn feedback(num_classes: usize, child: usize, p: f64) -> Self {
            assert!(child < num_classes && (0.0..=1.0).contains(&p));
            let mut with_child = vec![0; num_classes];
            with_child[child] = 1;
            if p >= 1.0 {
                Self::new(vec![(with_child, 1.0)])
            } else if p <= 0.0 {
                Self::none(num_classes)
            } else {
                Self::new(vec![(with_child, p), (vec![0; num_classes], 1.0 - p)])
            }
        }

        /// Number of classes the vectors are indexed by.
        pub fn num_classes(&self) -> usize {
            self.outcomes[0].0.len()
        }

        /// Expected number of class-`j` children.
        pub fn mean_children(&self, j: usize) -> f64 {
            self.outcomes.iter().map(|(v, p)| v[j] as f64 * p).sum()
        }

        /// The supported outcomes.
        pub fn outcomes(&self) -> &[(Vec<usize>, f64)] {
            &self.outcomes
        }

        /// Sample one offspring vector.
        pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &[usize] {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            for (v, p) in &self.outcomes {
                acc += p;
                if u <= acc {
                    return v;
                }
            }
            &self.outcomes.last().unwrap().0
        }
    }
}

/// A branching bandit: per-class service-time distributions, holding-cost
/// rates and offspring distributions.
#[derive(Debug, Clone)]
pub struct BranchingBandit {
    services: Vec<DynDist>,
    holding_costs: Vec<f64>,
    offspring: Vec<OffspringDist>,
}

impl BranchingBandit {
    /// Create a branching bandit, validating dimensions and subcriticality
    /// (the expected-offspring matrix must have all its sub-busy periods
    /// finite, i.e. `I − M` must be invertible with a nonnegative inverse).
    pub fn new(
        services: Vec<DynDist>,
        holding_costs: Vec<f64>,
        offspring: Vec<OffspringDist>,
    ) -> Self {
        let n = services.len();
        assert!(n > 0);
        assert_eq!(holding_costs.len(), n);
        assert_eq!(offspring.len(), n);
        assert!(holding_costs.iter().all(|c| c.is_finite() && *c >= 0.0));
        assert!(offspring.iter().all(|o| o.num_classes() == n));
        let bandit = Self {
            services,
            holding_costs,
            offspring,
        };
        // Subcriticality check: the expected total progeny of every class
        // must be finite and nonnegative.
        let total = bandit.expected_total_progeny();
        assert!(
            total.iter().flatten().all(|x| x.is_finite() && *x >= -1e-9),
            "offspring matrix is not subcritical: expected progeny {total:?}"
        );
        bandit
    }

    /// Number of job classes.
    pub fn num_classes(&self) -> usize {
        self.services.len()
    }

    /// Holding-cost rates.
    pub fn holding_costs(&self) -> &[f64] {
        &self.holding_costs
    }

    /// Mean service time of class `i`.
    pub fn mean_service(&self, i: usize) -> f64 {
        self.services[i].mean()
    }

    /// Expected-offspring matrix `M[i][j] = E[#class-j children of a class-i job]`.
    pub fn mean_offspring_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.num_classes();
        (0..n)
            .map(|i| (0..n).map(|j| self.offspring[i].mean_children(j)).collect())
            .collect()
    }

    /// Expected total progeny matrix `(I − M)^{-1}`: entry `(i, j)` is the
    /// expected total number of class-`j` jobs ever created by one class-`i`
    /// job (itself included when `i = j`).
    pub fn expected_total_progeny(&self) -> Vec<Vec<f64>> {
        let n = self.num_classes();
        let m = self.mean_offspring_matrix();
        let mut result = vec![vec![0.0; n]; n];
        for start in 0..n {
            // Row `start` of N = (I − M)^{-1} solves N_row (I − M) = e_start,
            // i.e. the transposed system (I − M)^T N_row^T = e_start.
            let mut at = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    at[i][j] = (if i == j { 1.0 } else { 0.0 }) - m[j][i];
                }
            }
            let mut b = vec![0.0; n];
            b[start] = 1.0;
            result[start] = solve_dense(at, b);
        }
        result
    }

    /// Expected total work (server busy time) generated by one class-`i`
    /// job, descendants included: `(I − M)^{-1} β` evaluated at `i`.
    pub fn expected_total_work(&self, class: usize) -> f64 {
        let progeny = self.expected_total_progeny();
        progeny[class]
            .iter()
            .enumerate()
            .map(|(j, &count)| count * self.mean_service(j))
            .sum()
    }

    /// The branching-bandit priority indices, computed with the generic
    /// adaptive-greedy algorithm and this model's sub-busy-period work
    /// measure.
    pub fn indices(&self) -> AdaptiveGreedyResult {
        let oracle = TransferWorkMeasure::new(
            (0..self.num_classes())
                .map(|i| self.mean_service(i))
                .collect(),
            self.mean_offspring_matrix(),
            self.holding_costs.clone(),
        );
        adaptive_greedy(&self.holding_costs, &oracle)
    }

    /// The priority order induced by [`BranchingBandit::indices`]
    /// (highest index first).
    pub fn index_order(&self) -> Vec<usize> {
        self.indices().order
    }
}

/// Result of one extinction-time simulation run.
#[derive(Debug, Clone)]
pub struct BranchingSimResult {
    /// Total holding cost `∫ Σ_j c_j N_j(t) dt` accumulated until extinction.
    pub total_holding_cost: f64,
    /// Time at which the population died out.
    pub extinction_time: f64,
    /// Total number of services performed.
    pub services: u64,
}

/// Simulate the branching bandit from the initial population
/// `initial[j]` (number of class-`j` jobs present at time zero) under a
/// static nonpreemptive priority order until extinction.
///
/// `max_services` guards against (numerically) near-critical instances; the
/// simulation stops and panics if the population has not died out after that
/// many services.
pub fn simulate_branching<R: Rng>(
    bandit: &BranchingBandit,
    initial: &[usize],
    priority_order: &[usize],
    max_services: u64,
    rng: &mut R,
) -> BranchingSimResult {
    let n = bandit.num_classes();
    assert_eq!(initial.len(), n);
    assert_eq!(priority_order.len(), n);
    let mut rank = vec![0usize; n];
    for (pos, &c) in priority_order.iter().enumerate() {
        rank[c] = pos;
    }

    let mut counts: Vec<u64> = initial.iter().map(|&x| x as u64).collect();
    let mut clock = 0.0;
    let mut total_cost = 0.0;
    let mut services = 0u64;

    loop {
        let next_class = (0..n).filter(|&c| counts[c] > 0).min_by_key(|&c| rank[c]);
        let Some(class) = next_class else { break };
        assert!(
            services < max_services,
            "population did not die out after {max_services} services; \
             is the offspring matrix (numerically) critical?"
        );
        let service = bandit.services[class].sample(rng);
        // Holding cost accrued during this service by everything present.
        let present_cost_rate: f64 = (0..n)
            .map(|j| bandit.holding_costs[j] * counts[j] as f64)
            .sum();
        total_cost += present_cost_rate * service;
        clock += service;
        services += 1;
        counts[class] -= 1;
        let children = bandit.offspring[class].sample(rng);
        for (j, &k) in children.iter().enumerate() {
            counts[j] += k as u64;
        }
    }

    BranchingSimResult {
        total_holding_cost: total_cost,
        extinction_time: clock,
        services,
    }
}

/// Estimate the expected total holding cost of a priority order by
/// independent replications; returns `(mean, 95% CI half-width)`.
pub fn estimate_order_cost<R: Rng>(
    bandit: &BranchingBandit,
    initial: &[usize],
    priority_order: &[usize],
    replications: usize,
    rng: &mut R,
) -> (f64, f64) {
    assert!(replications > 1);
    let mut stats = ss_sim::stats::OnlineStats::new();
    for _ in 0..replications {
        let res = simulate_branching(bandit, initial, priority_order, 10_000_000, rng);
        stats.push(res.total_holding_cost);
    }
    (stats.mean(), stats.ci_half_width(0.95))
}

/// Parallel counterpart of [`estimate_order_cost`]: replications fan out
/// over the workspace thread pool, each drawing from its own RNG stream
/// derived from `seed`, so the estimate is reproducible for any thread
/// count.  (The draws differ from the serial variant, which threads one RNG
/// through all replications — both are unbiased estimates of the same
/// expectation.)
pub fn estimate_order_cost_parallel(
    bandit: &BranchingBandit,
    initial: &[usize],
    priority_order: &[usize],
    replications: usize,
    seed: u64,
) -> (f64, f64) {
    assert!(replications > 1);
    let summary = ss_sim::replication::run_replications_parallel(replications, seed, |_i, rng| {
        simulate_branching(bandit, initial, priority_order, 10_000_000, rng).total_holding_cost
    });
    (summary.mean, summary.ci95)
}

#[cfg(test)]
mod tests {
    use super::offspring::OffspringDist;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Erlang, Exponential};

    /// Three classes, no offspring: the static batch problem.
    fn batch_bandit() -> BranchingBandit {
        BranchingBandit::new(
            vec![
                dyn_dist(Exponential::with_mean(2.0)),
                dyn_dist(Erlang::with_mean(2, 0.5)),
                dyn_dist(Deterministic::new(1.5)),
            ],
            vec![1.0, 3.0, 2.0],
            vec![OffspringDist::none(3); 3],
        )
    }

    /// Three classes with Klimov-style single-child feedback.
    fn feedback_bandit() -> BranchingBandit {
        BranchingBandit::new(
            vec![
                dyn_dist(Exponential::with_mean(0.8)),
                dyn_dist(Exponential::with_mean(0.6)),
                dyn_dist(Exponential::with_mean(1.2)),
            ],
            vec![1.0, 2.0, 4.0],
            vec![
                OffspringDist::feedback(3, 1, 0.6),
                OffspringDist::feedback(3, 2, 0.3),
                OffspringDist::none(3),
            ],
        )
    }

    /// A genuinely branching instance: class 0 spawns up to two children.
    fn branching_bandit() -> BranchingBandit {
        BranchingBandit::new(
            vec![
                dyn_dist(Exponential::with_mean(1.0)),
                dyn_dist(Exponential::with_mean(0.5)),
                dyn_dist(Exponential::with_mean(1.5)),
            ],
            vec![2.0, 1.0, 3.0],
            vec![
                OffspringDist::new(vec![
                    (vec![0, 1, 1], 0.3),
                    (vec![0, 1, 0], 0.3),
                    (vec![0, 0, 0], 0.4),
                ]),
                OffspringDist::feedback(3, 2, 0.4),
                OffspringDist::none(3),
            ],
        )
    }

    #[test]
    fn no_offspring_reduces_to_wsept() {
        let bandit = batch_bandit();
        let result = bandit.indices();
        let expected = [1.0 / 2.0, 3.0 / 0.5, 2.0 / 1.5];
        for (i, &e) in expected.iter().enumerate() {
            assert!(
                (result.indices[i] - e).abs() < 1e-12,
                "class {i}: {} vs WSEPT {e}",
                result.indices[i]
            );
        }
        assert_eq!(result.order, vec![1, 2, 0]);
        assert!(result.rates_non_increasing(1e-12));
    }

    #[test]
    fn feedback_offspring_reproduce_klimov_indices() {
        // The feedback bandit has the same per-class dynamics as the Klimov
        // network used in ss-queueing (without external arrivals); the index
        // values must match Klimov's continuation-set recursion, which for
        // this routing chain can be checked against hand-computed values for
        // the top class: class 2 has no feedback, so its index is c/ES.
        let bandit = feedback_bandit();
        let result = bandit.indices();
        assert!(
            (result.indices[2] - 4.0 / 1.2).abs() < 1e-9,
            "{:?}",
            result.indices
        );
        // Class 2 has the largest ratio and is assigned first.
        assert_eq!(result.order[0], 2);
        assert!(result.rates_non_increasing(1e-9));
    }

    #[test]
    fn expected_total_work_accounts_for_descendants() {
        let bandit = feedback_bandit();
        // A class-0 job: service 0.8, then with prob 0.6 a class-1 child
        // (service 0.6, then with prob 0.3 a class-2 child of service 1.2).
        let expected = 0.8 + 0.6 * (0.6 + 0.3 * 1.2);
        assert!((bandit.expected_total_work(0) - expected).abs() < 1e-9);
        // A class-2 job has no descendants.
        assert!((bandit.expected_total_work(2) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn simulated_batch_cost_matches_the_closed_form() {
        // With no offspring and one job per class the expected total holding
        // cost of a list is Σ_i w_i Σ_{j precedes or equals i} E[P_j].
        let bandit = batch_bandit();
        let order = vec![1usize, 2, 0];
        let means = [2.0, 0.5, 1.5];
        let weights = [1.0, 3.0, 2.0];
        let mut acc = 0.0;
        let mut closed_form = 0.0;
        for &j in &order {
            acc += means[j];
            closed_form += weights[j] * acc;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let (mean, ci) = estimate_order_cost(&bandit, &[1, 1, 1], &order, 20_000, &mut rng);
        assert!(
            (mean - closed_form).abs() < 4.0 * ci.max(0.05),
            "simulated {mean} ± {ci} vs closed form {closed_form}"
        );
    }

    #[test]
    fn parallel_estimate_agrees_with_closed_form_and_is_reproducible() {
        let bandit = batch_bandit();
        let order = vec![1usize, 2, 0];
        let means = [2.0, 0.5, 1.5];
        let weights = [1.0, 3.0, 2.0];
        let mut acc = 0.0;
        let mut closed_form = 0.0;
        for &j in &order {
            acc += means[j];
            closed_form += weights[j] * acc;
        }
        let (mean, ci) = estimate_order_cost_parallel(&bandit, &[1, 1, 1], &order, 20_000, 42);
        assert!(
            (mean - closed_form).abs() < 4.0 * ci.max(0.05),
            "simulated {mean} ± {ci} vs closed form {closed_form}"
        );
        // Bit-for-bit reproducible, independently of the thread count.
        for threads in [1usize, 4] {
            let (m2, c2) = ss_sim::pool::with_threads(threads, || {
                estimate_order_cost_parallel(&bandit, &[1, 1, 1], &order, 20_000, 42)
            });
            assert_eq!(mean.to_bits(), m2.to_bits());
            assert_eq!(ci.to_bits(), c2.to_bits());
        }
    }

    #[test]
    fn index_order_is_best_among_all_static_orders() {
        let bandit = branching_bandit();
        let initial = [2usize, 2, 1];
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let mut costs = Vec::new();
        for (i, order) in orders.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(900 + i as u64);
            let (mean, _) = estimate_order_cost(&bandit, &initial, order, 8_000, &mut rng);
            costs.push(mean);
        }
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let index_order = bandit.index_order();
        let pos = orders
            .iter()
            .position(|o| *o == index_order)
            .expect("index order is a permutation");
        assert!(
            costs[pos] <= best * 1.03,
            "index order {index_order:?} cost {} vs best {best} (all: {costs:?})",
            costs[pos]
        );
    }

    #[test]
    fn extinction_is_reached_and_costs_are_positive() {
        let bandit = branching_bandit();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let res = simulate_branching(&bandit, &[3, 0, 1], &[0, 1, 2], 1_000_000, &mut rng);
        assert!(res.total_holding_cost > 0.0);
        assert!(res.extinction_time > 0.0);
        assert!(res.services >= 4);
    }

    #[test]
    fn empty_initial_population_costs_nothing() {
        let bandit = batch_bandit();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let res = simulate_branching(&bandit, &[0, 0, 0], &[0, 1, 2], 1_000, &mut rng);
        assert_eq!(res.services, 0);
        assert_eq!(res.total_holding_cost, 0.0);
        assert_eq!(res.extinction_time, 0.0);
    }

    #[test]
    fn zero_holding_costs_cost_nothing_and_index_to_zero() {
        let bandit = BranchingBandit::new(
            vec![
                dyn_dist(Exponential::with_mean(1.0)),
                dyn_dist(Exponential::with_mean(0.5)),
            ],
            vec![0.0, 0.0],
            vec![OffspringDist::feedback(2, 1, 0.5), OffspringDist::none(2)],
        );
        let result = bandit.indices();
        assert!(result.indices.iter().all(|&x| x.abs() < 1e-12));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sim = simulate_branching(&bandit, &[3, 1], &[0, 1], 100_000, &mut rng);
        assert_eq!(sim.total_holding_cost, 0.0);
        assert!(sim.extinction_time > 0.0);
    }

    #[test]
    fn progeny_matrix_of_a_feedback_chain_is_geometric() {
        // Class 0 spawns a class-0 child with probability 0.5: its expected
        // total class-0 progeny (itself included) is 1 / (1 - 0.5) = 2.
        let bandit = BranchingBandit::new(
            vec![dyn_dist(Exponential::with_mean(1.0))],
            vec![1.0],
            vec![OffspringDist::new(vec![(vec![1], 0.5), (vec![0], 0.5)])],
        );
        let progeny = bandit.expected_total_progeny();
        assert!((progeny[0][0] - 2.0).abs() < 1e-12);
        assert!((bandit.expected_total_work(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn supercritical_offspring_is_rejected() {
        // Every class-0 completion spawns two class-0 children: the
        // population explodes and (I − M) is singular / negative.
        let _ = BranchingBandit::new(
            vec![dyn_dist(Exponential::new(1.0))],
            vec![1.0],
            vec![OffspringDist::new(vec![(vec![2], 1.0)])],
        );
    }

    #[test]
    #[should_panic]
    fn offspring_probabilities_must_sum_to_one() {
        let _ = OffspringDist::new(vec![(vec![0, 1], 0.5), (vec![0, 0], 0.4)]);
    }
}
