//! Exact dynamic programming for exponential jobs on identical parallel
//! machines.
//!
//! With exponential processing times the system is Markov on the set of
//! remaining jobs: whichever subset `A` of (at most `m`) jobs is in service,
//! the next completion arrives after an `Exp(Λ)` time with
//! `Λ = Σ_{j∈A} λ_j`, and it is job `j` with probability `λ_j / Λ`
//! (memorylessness means no attained-service bookkeeping is needed).  This
//! yields closed recursions over the `2^n` subsets for the expected total
//! flowtime, weighted flowtime or makespan ([`ParallelMetric`]) of
//!
//! * any *priority list* policy ([`list_policy_value`]),
//! * the optimal non-idling Markov policy, minimising over the choice of
//!   served subset at every state ([`optimal_value`]).
//!
//! The instance is a [`BatchInstance`] whose every job is exponential: the
//! DP reads each job's rate from
//! [`ServiceDistribution::exponential_rate`](ss_distributions::ServiceDistribution::exponential_rate)
//! and its weight from [`Job::weight`](ss_core::job::Job::weight), and the
//! SEPT, LEPT and WSEPT lists come from [`crate::policies`].
//!
//! These are the ground truths for experiments E3 and E4: they verify that
//! SEPT attains the optimal flowtime (Glazebrook 1979) and LEPT the optimal
//! makespan (Bruno–Downey–Frederickson 1981) for exponential jobs, and they
//! quantify how much worse the opposite rule is.

use crate::parallel::ParallelMetric;
use ss_core::exhaustive::k_subsets;
use ss_core::instance::BatchInstance;

/// Which jobs a priority list serves in state `mask`: the first
/// `min(m, |mask|)` list entries that are still present.
fn served_by_list(mask: u32, order: &[usize], machines: usize) -> Vec<usize> {
    let mut served = Vec::with_capacity(machines);
    for &j in order {
        if mask & (1 << j) != 0 {
            served.push(j);
            if served.len() == machines {
                break;
            }
        }
    }
    served
}

/// The recursion behind both values below.  In state `R` (the set of
/// uncompleted jobs, a bit mask) with served set `A` and
/// `Λ = Σ_{j∈A} λ_j`, the next completion comes after `E[Δ] = 1/Λ` and is
/// job `j` with probability `λ_j/Λ`, so
/// `V(R) = h(R)/Λ + Σ_{j∈A} (λ_j/Λ) V(R \ {j})`, where `h(R)` is the
/// rate paid until then: for the flowtimes every uncompleted job pays its
/// holding cost (1, or its weight), for the makespan the rate is 1.  `A` is
/// the priority list's served set, or (`list = None`) the
/// `min(m, |R|)`-subset that minimises `V(R)`.
fn subset_dp(
    instance: &BatchInstance,
    list: Option<&[usize]>,
    machines: usize,
    objective: ParallelMetric,
) -> f64 {
    let n = instance.len();
    assert!(n <= 20, "exact DP limited to 20 jobs (2^n states)");
    assert!(machines >= 1, "the exact DP needs at least one machine");
    if let Some(order) = list {
        assert_eq!(order.len(), n);
    }
    let jobs = instance.jobs();
    let rates: Vec<f64> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            job.dist.exponential_rate().unwrap_or_else(|| {
                panic!("job {i} is not exponential, so the exact DP has no rate for it")
            })
        })
        .collect();
    let full: u32 = (1u32 << n) - 1;
    let mut value = vec![0.0f64; (full as usize) + 1];
    // Any mask's successors (mask without one bit) are numerically
    // smaller, so a plain ascending loop is a valid topological order.
    for mask in 1..=full {
        let present = (0..n).filter(|&i| mask & (1 << i) != 0);
        let rate = match objective {
            ParallelMetric::TotalFlowtime => present.clone().count() as f64,
            ParallelMetric::WeightedFlowtime => present.clone().map(|i| jobs[i].weight).sum(),
            ParallelMetric::Makespan => 1.0,
        };
        let v = |served: &[usize]| {
            let lambda_total: f64 = served.iter().map(|&j| rates[j]).sum();
            let mut v = rate / lambda_total;
            for &j in served {
                v += rates[j] / lambda_total * value[(mask & !(1 << j)) as usize];
            }
            v
        };
        let best = match list {
            Some(order) => v(&served_by_list(mask, order, machines)),
            None => {
                let present: Vec<usize> = present.collect();
                k_subsets(&present, present.len().min(machines))
                    .iter()
                    .fold(f64::INFINITY, |best, served| best.min(v(served)))
            }
        };
        value[mask as usize] = best;
    }
    value[full as usize]
}

/// Expected `objective` of the priority-list policy `order` on `machines`
/// identical machines.
pub fn list_policy_value(
    instance: &BatchInstance,
    order: &[usize],
    machines: usize,
    objective: ParallelMetric,
) -> f64 {
    subset_dp(instance, Some(order), machines, objective)
}

/// Optimal expected `objective` over all non-idling Markov policies (the
/// DP minimises over the served subset in every state).
pub fn optimal_value(instance: &BatchInstance, machines: usize, objective: ParallelMetric) -> f64 {
    subset_dp(instance, None, machines, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{lept_order, sept_order};
    use ss_distributions::{dyn_dist, Exponential, TwoPoint};
    use ParallelMetric::{Makespan, TotalFlowtime, WeightedFlowtime};

    /// Exponential jobs with these rates and weights.
    fn exponential(rates: &[f64], weights: &[f64]) -> BatchInstance {
        let mut builder = BatchInstance::builder();
        for (&rate, &weight) in rates.iter().zip(weights) {
            builder = builder.job(weight, dyn_dist(Exponential::new(rate)));
        }
        builder.build()
    }

    fn unweighted(rates: &[f64]) -> BatchInstance {
        exponential(rates, &vec![1.0; rates.len()])
    }

    #[test]
    fn single_machine_single_job() {
        let inst = unweighted(&[2.0]);
        assert!((list_policy_value(&inst, &[0], 1, TotalFlowtime) - 0.5).abs() < 1e-12);
        assert!((list_policy_value(&inst, &[0], 1, Makespan) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_machine_flowtime_matches_closed_form() {
        // One machine: E[C_first] = 1/l_first, E[C_second] = 1/l_first +
        // 1/l_second.
        let inst = unweighted(&[1.0, 0.5]);
        let v = list_policy_value(&inst, &[0, 1], 1, TotalFlowtime);
        assert!((v - (1.0 + 1.0 + 2.0)).abs() < 1e-12);
        let v2 = list_policy_value(&inst, &[1, 0], 1, TotalFlowtime);
        assert!((v2 - (2.0 + 2.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn two_machine_makespan_two_jobs() {
        // Both jobs start immediately; makespan = E[max(X1, X2)] =
        // 1/l1 + 1/l2 - 1/(l1+l2).
        let inst = unweighted(&[1.0, 2.0]);
        let v = list_policy_value(&inst, &[0, 1], 2, Makespan);
        let expected = 1.0 + 0.5 - 1.0 / 3.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn sept_is_optimal_for_flowtime() {
        // E3: SEPT equals the optimal non-idling Markov policy value.
        let inst = unweighted(&[0.4, 2.5, 1.0, 3.0, 0.7, 1.8]);
        for machines in [2usize, 3] {
            let sept = list_policy_value(&inst, &sept_order(&inst), machines, TotalFlowtime);
            let opt = optimal_value(&inst, machines, TotalFlowtime);
            assert!(
                (sept - opt).abs() < 1e-9,
                "m={machines}: SEPT {sept} vs optimal {opt}"
            );
            let lept = list_policy_value(&inst, &lept_order(&inst), machines, TotalFlowtime);
            assert!(lept >= opt - 1e-9);
            assert!(lept > opt + 1e-6, "LEPT should be strictly worse here");
        }
    }

    #[test]
    fn lept_is_optimal_for_makespan() {
        // E4: LEPT equals the optimal non-idling Markov policy value.
        let inst = unweighted(&[0.4, 2.5, 1.0, 3.0, 0.7, 1.8]);
        for machines in [2usize, 3] {
            let lept = list_policy_value(&inst, &lept_order(&inst), machines, Makespan);
            let opt = optimal_value(&inst, machines, Makespan);
            assert!(
                (lept - opt).abs() < 1e-9,
                "m={machines}: LEPT {lept} vs optimal {opt}"
            );
            let sept = list_policy_value(&inst, &sept_order(&inst), machines, Makespan);
            assert!(sept >= opt - 1e-9);
        }
    }

    #[test]
    fn weighted_flowtime_single_machine_is_wsept() {
        // On one machine the optimal DP value must equal the WSEPT closed form.
        let inst = exponential(&[1.0, 0.5, 2.0], &[1.0, 3.0, 2.0]);
        // WSEPT order: index w*lambda = [1.0, 1.5, 4.0] -> order [2, 1, 0].
        let wsept = list_policy_value(&inst, &[2, 1, 0], 1, WeightedFlowtime);
        let opt = optimal_value(&inst, 1, WeightedFlowtime);
        assert!((wsept - opt).abs() < 1e-9, "WSEPT {wsept} vs opt {opt}");
    }

    #[test]
    fn total_flowtime_ignores_the_weights() {
        let weighted = exponential(&[1.0, 0.5, 2.0], &[1.0, 3.0, 2.0]);
        let plain = unweighted(&[1.0, 0.5, 2.0]);
        for machines in [1usize, 2] {
            assert_eq!(
                list_policy_value(&weighted, &[2, 1, 0], machines, TotalFlowtime).to_bits(),
                list_policy_value(&plain, &[2, 1, 0], machines, WeightedFlowtime).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn list_policy_rejects_zero_machines() {
        list_policy_value(&unweighted(&[1.0, 2.0, 0.5]), &[0, 1, 2], 0, TotalFlowtime);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn optimum_rejects_zero_machines() {
        optimal_value(&unweighted(&[1.0, 2.0, 0.5]), 0, Makespan);
    }

    #[test]
    #[should_panic(expected = "job 1 is not exponential")]
    fn a_job_without_a_rate_is_rejected() {
        let inst = BatchInstance::builder()
            .unweighted_job(dyn_dist(Exponential::new(1.0)))
            .unweighted_job(dyn_dist(TwoPoint::new(0.5, 1.0, 2.0)))
            .build();
        optimal_value(&inst, 2, TotalFlowtime);
    }

    #[test]
    fn monte_carlo_agrees_with_exact_dp() {
        use rand::SeedableRng;
        let inst = unweighted(&[1.0, 2.0, 0.5, 1.5]);
        let order = sept_order(&inst);
        let exact = list_policy_value(&inst, &order, 2, TotalFlowtime);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        let reps = 60_000;
        let mc: f64 = (0..reps)
            .map(|_| {
                crate::parallel::simulate_list_schedule(&inst, &order, 2, &mut rng).total_flowtime
            })
            .sum::<f64>()
            / reps as f64;
        assert!(
            (mc - exact).abs() / exact < 0.02,
            "MC {mc} vs exact {exact}"
        );
    }
}
