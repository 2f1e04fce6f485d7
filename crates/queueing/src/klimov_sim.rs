//! Klimov-network policy simulator with exact workload accounting.
//!
//! [`crate::klimov`] carries the index algorithm, and queue lengths alone
//! are simulated on its one-station network
//! ([`crate::network::simulate_network`]); this module is the
//! *oracle-grade* simulation path used by `ss-verify`'s `klimov-vs-exact`
//! pair.  The key difference is that every external arrival pre-samples its
//! whole **itinerary** — the sequence of (class, service time) visits its
//! Bernoulli feedback chain will traverse — which makes the *full-chain
//! workload* process exactly observable:
//!
//! * with full-chain accounting, the workload `V(t)` (total remaining
//!   service of everything in system, all future feedback visits included)
//!   is precisely the virtual workload of an M/G/1 queue whose arrivals
//!   are the pooled external Poisson streams and whose service times are
//!   the per-arrival chain totals `B_i`;
//! * `V(t)` is invariant to the (non-idling, nonpreemptive) priority order,
//!   and its stationary mean has the closed form
//!   `E[V] = Σ_i α_i E[B_i²] / (2 (1 − ρ))`, with the chain moments
//!   `E[B_i]`, `E[B_i²]` solvable from the routing matrix
//!   ([`exact_mean_workload`]) — an exact two-sided oracle that exercises
//!   arrival generation, service sampling, feedback routing and the event
//!   loop all at once;
//! * per-class queue lengths and the weighted holding-cost rate are tracked
//!   exactly as in the network simulator, so feedback-free networks can
//!   additionally be checked against Cobham's formulas under the Klimov
//!   (= cµ) priority order.
//!
//! Pre-sampling the itinerary does not change the law of anything observed:
//! services are i.i.d. given the class and routing draws are independent,
//! so resolving them at arrival time instead of at completion time is a
//! coupling, not a model change.

use crate::klimov::KlimovNetwork;
use crate::population::{holding_cost_rate, ranks, Arrivals, Population};
use rand::{Rng, RngCore};
use ss_core::linalg::solve_dense;
use std::collections::VecDeque;

/// Result of one itinerary-presampling simulation run.
#[derive(Debug, Clone)]
pub struct KlimovPolicyResult {
    /// Time-average number in system per (current-visit) class.
    pub mean_number: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
    /// Time-average full-chain workload `E[V]` (see the module docs).
    pub mean_workload: f64,
    /// Completed visits per class (after warm-up).
    pub visits_completed: Vec<u64>,
}

/// One job in flight: the remaining visits of its pre-sampled itinerary
/// (front = the visit currently queued or in service).
type Itinerary = VecDeque<(usize, f64)>;

fn sample_route(row: &[f64], rng: &mut dyn RngCore) -> Option<usize> {
    let u: f64 = rng.gen::<f64>();
    let mut acc = 0.0;
    for (j, &p) in row.iter().enumerate() {
        acc += p;
        if p > 0.0 && u <= acc {
            return Some(j);
        }
    }
    None // remainder: the customer leaves the system
}

/// Pre-sample the full visit chain of an external class-`entry` arrival.
fn sample_itinerary(
    network: &KlimovNetwork,
    entry: usize,
    rng: &mut dyn RngCore,
) -> (Itinerary, f64) {
    let mut visits = Itinerary::new();
    let mut total = 0.0;
    let mut class = entry;
    loop {
        assert!(
            visits.len() < 1_000_000,
            "feedback chain failed to terminate (spectral radius >= 1?)"
        );
        let service = network.services[class].sample(rng);
        visits.push_back((class, service));
        total += service;
        match sample_route(&network.routing[class], rng) {
            Some(next) => class = next,
            None => break,
        }
    }
    (visits, total)
}

/// Simulate the network under a static nonpreemptive priority order
/// (`priority_order[0]` served first), with itinerary pre-sampling and
/// full-chain workload tracking.
pub fn simulate_klimov_policy(
    network: &KlimovNetwork,
    priority_order: &[usize],
    horizon: f64,
    warmup: f64,
    rng: &mut dyn RngCore,
) -> KlimovPolicyResult {
    let n = network.num_classes();
    assert_eq!(priority_order.len(), n);
    assert!(horizon > warmup && warmup >= 0.0);
    let rank = ranks(priority_order);

    let mut queues: Vec<VecDeque<Itinerary>> = vec![VecDeque::new(); n];
    let mut arrivals = Arrivals::new(network.arrival_rates.iter().copied(), rng);
    let mut population = Population::new(n, warmup);
    // The job in service: its class and the visits left after this one.
    let mut in_service: Option<(usize, Itinerary)> = None;
    let mut completion = f64::INFINITY;
    // Work not currently draining: remaining itinerary services of every
    // job that is not the in-service visit.  The in-service visit's
    // remaining work is always exactly `completion - t`, so the workload
    // V(t) = work_pending + (completion - t) carries no float drift.
    let mut work_pending = 0.0f64;
    let mut work_area = 0.0f64; // integral of V over [warmup, horizon]
    let mut prev_t = 0.0f64;
    let mut visits_completed = vec![0u64; n];

    let workload_at = |t: f64, pending: f64, serving: bool, completion: f64| -> f64 {
        pending + if serving { completion - t } else { 0.0 }
    };

    loop {
        let (arr_class, arr_time) = arrivals.earliest();
        let t = arr_time.min(completion);
        let clock = t.min(horizon);
        // Integrate the (piecewise-linear) workload over [prev_t, clock],
        // clipped to start at the warm-up boundary.
        let serving = in_service.is_some();
        let a = prev_t.max(warmup);
        if clock > a {
            let w_start = workload_at(a, work_pending, serving, completion);
            let w_end = workload_at(clock, work_pending, serving, completion);
            work_area += 0.5 * (w_start + w_end) * (clock - a);
        }
        if t > horizon {
            break;
        }
        prev_t = t;
        population.advance(t);

        if arr_time <= completion {
            // External arrival: pre-sample the full itinerary.
            let (itinerary, chain_work) = sample_itinerary(network, arr_class, rng);
            work_pending += chain_work;
            population.add(arr_class, t);
            queues[arr_class].push_back(itinerary);
            arrivals.renew(arr_class, t, rng);
        } else {
            // Service completion; the itinerary dictates the routing.
            let (class, mut rest) = in_service.take().expect("completion without service");
            population.remove(class, t);
            if t >= warmup {
                visits_completed[class] += 1;
            }
            if let Some(&(next_class, _)) = rest.front() {
                population.add(next_class, t);
                queues[next_class].push_back(std::mem::take(&mut rest));
            }
            completion = f64::INFINITY;
        }

        // Start a new service if the server is idle.
        if in_service.is_none() {
            let next_class = (0..n)
                .filter(|&c| !queues[c].is_empty())
                .min_by_key(|&c| rank[c]);
            if let Some(c) = next_class {
                let mut itinerary = queues[c].pop_front().unwrap();
                let (class, service) = itinerary.pop_front().expect("queued job without visits");
                // Release-mode check: a queue/itinerary mismatch would
                // serve the wrong class and silently skew every statistic.
                assert_eq!(class, c, "queued visit class must match its queue");
                work_pending -= service;
                completion = t + service;
                in_service = Some((c, itinerary));
            }
        }
    }

    let mean_number = population.mean_number(horizon);
    let holding_cost_rate = holding_cost_rate(network.holding_costs.iter().copied(), &mean_number);
    KlimovPolicyResult {
        mean_number,
        holding_cost_rate,
        mean_workload: work_area / (horizon - warmup),
        visits_completed,
    }
}

/// First and second moments of the per-arrival chain totals `B_i` (total
/// service a class-`i` external arrival accumulates over its whole feedback
/// chain): `(E[B], E[B²])` per entry class, from
/// `(I - P) m1 = β` and `(I - P) m2 = E[S²] + 2 β ∘ (P m1)`.
pub fn chain_work_moments(network: &KlimovNetwork) -> (Vec<f64>, Vec<f64>) {
    let n = network.num_classes();
    let beta: Vec<f64> = network.services.iter().map(|s| s.mean()).collect();
    let s2: Vec<f64> = network.services.iter().map(|s| s.second_moment()).collect();
    let i_minus_p: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| (if i == j { 1.0 } else { 0.0 }) - network.routing[i][j])
                .collect()
        })
        .collect();
    let m1 = solve_dense(i_minus_p.clone(), beta.clone());
    let p_m1: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| network.routing[i][j] * m1[j]).sum())
        .collect();
    let rhs2: Vec<f64> = (0..n).map(|i| s2[i] + 2.0 * beta[i] * p_m1[i]).collect();
    let m2 = solve_dense(i_minus_p, rhs2);
    (m1, m2)
}

/// Exact stationary mean of the full-chain workload
/// `E[V] = Σ_i α_i E[B_i²] / (2 (1 − ρ))` — the Pollaczek–Khinchine
/// workload of the chain-aggregated M/G/1 queue, invariant to the
/// (non-idling) priority order.  Requires `ρ < 1`.
pub fn exact_mean_workload(network: &KlimovNetwork) -> f64 {
    let rho = network.total_load();
    assert!(rho < 1.0, "unstable network: rho = {rho}");
    let (_, m2) = chain_work_moments(network);
    let numerator: f64 = network
        .arrival_rates
        .iter()
        .zip(&m2)
        .map(|(a, b2)| a * b2)
        .sum();
    numerator / (2.0 * (1.0 - rho))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klimov::{klimov_order, KlimovNetwork};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Erlang, Exponential};
    use ss_sim::replication::run_replications_parallel;

    /// Mean workload over `replications` independent runs from `seed`.
    fn mean_workload(
        net: &KlimovNetwork,
        order: &[usize],
        horizon: f64,
        warmup: f64,
        replications: usize,
        seed: u64,
    ) -> f64 {
        run_replications_parallel(replications, seed, |_, rng| {
            simulate_klimov_policy(net, order, horizon, warmup, rng).mean_workload
        })
        .mean
    }

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
        KlimovNetwork::new(
            vec![0.25, 0.1, 0.05],
            vec![
                dyn_dist(Exponential::with_mean(0.8)),
                dyn_dist(Exponential::with_mean(0.6)),
                dyn_dist(Erlang::with_mean(2, 1.2)),
            ],
            vec![1.0, 2.0, 4.0],
            vec![
                vec![0.1, 0.5, 0.0],
                vec![0.0, 0.0, 0.3],
                vec![0.2, 0.0, 0.0],
            ],
        )
    }

    #[test]
    fn chain_moments_reduce_to_service_moments_without_feedback() {
        let net = no_feedback_network();
        let (m1, m2) = chain_work_moments(&net);
        for (i, s) in net.services.iter().enumerate() {
            assert!((m1[i] - s.mean()).abs() < 1e-12);
            assert!((m2[i] - s.second_moment()).abs() < 1e-12);
        }
        // And the workload formula collapses to multiclass M/G/1 P-K.
        let by_hand: f64 = net
            .arrival_rates
            .iter()
            .zip(&net.services)
            .map(|(a, s)| a * s.second_moment())
            .sum::<f64>()
            / (2.0 * (1.0 - net.total_load()));
        assert!((exact_mean_workload(&net) - by_hand).abs() < 1e-12);
    }

    #[test]
    fn chain_moments_match_hand_computation_with_feedback() {
        // Single class, geometric feedback p: B = sum of G ~ Geom visits.
        // E[B] = beta / (1 - p); E[B^2] = (E[S^2] + 2 p E[S] E[B]) / (1 - p).
        let p = 0.4;
        let net = KlimovNetwork::new(
            vec![0.2],
            vec![dyn_dist(Exponential::with_mean(1.0))],
            vec![1.0],
            vec![vec![p]],
        );
        let (m1, m2) = chain_work_moments(&net);
        let b1 = 1.0 / (1.0 - p);
        let b2 = (2.0 + 2.0 * p * b1) / (1.0 - p);
        assert!((m1[0] - b1).abs() < 1e-12, "{} vs {b1}", m1[0]);
        assert!((m2[0] - b2).abs() < 1e-12, "{} vs {b2}", m2[0]);
    }

    #[test]
    fn simulated_workload_matches_the_exact_formula_with_feedback() {
        let net = feedback_network();
        let order = klimov_order(&net);
        let exact = exact_mean_workload(&net);
        let sim = mean_workload(&net, &order, 60_000.0, 2_000.0, 4, 11);
        assert!(
            (sim - exact).abs() / exact < 0.08,
            "simulated workload {sim} vs exact {exact}"
        );
    }

    #[test]
    fn workload_is_priority_order_invariant_in_expectation() {
        let net = feedback_network();
        let wa = mean_workload(&net, &[0, 1, 2], 40_000.0, 1_000.0, 3, 5);
        let wb = mean_workload(&net, &[2, 1, 0], 40_000.0, 1_000.0, 3, 5);
        assert!(
            (wa - wb).abs() / wa < 0.1,
            "workload should not depend on the order: {wa} vs {wb}"
        );
    }

    #[test]
    fn no_feedback_holding_cost_matches_cobham() {
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
        // One run as long as four 80 000-unit replications together.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let result = simulate_klimov_policy(&net, &order, 320_000.0, 2_000.0, &mut rng);
        for i in 0..3 {
            let sim = result.mean_number[i];
            assert!(
                (sim - exact.number_in_system[i]).abs() / exact.number_in_system[i] < 0.1,
                "class {i}: sim {sim} vs exact {}",
                exact.number_in_system[i]
            );
        }
    }

    #[test]
    fn completed_visit_rates_track_effective_arrival_rates() {
        // The per-class completed-visit rate must converge to the effective
        // arrival rate gamma (external + feedback) — an exact identity that
        // exercises the routing chain end to end.
        let net = feedback_network();
        let order = klimov_order(&net);
        let gamma = net.as_network().effective_rates();
        // One run as long as two 120 000-unit replications together.
        let horizon = 240_000.0;
        let warmup = 2_000.0;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let result = simulate_klimov_policy(&net, &order, horizon, warmup, &mut rng);
        for i in 0..net.num_classes() {
            let rate = result.visits_completed[i] as f64 / (horizon - warmup);
            assert!(
                (rate - gamma[i]).abs() / gamma[i] < 0.05,
                "class {i}: visit rate {rate} vs gamma {}",
                gamma[i]
            );
        }
    }
}
