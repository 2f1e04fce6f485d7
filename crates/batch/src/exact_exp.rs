//! Exact dynamic programming for exponential jobs on identical parallel
//! machines.
//!
//! With exponential processing times the system is Markov on the set of
//! remaining jobs: whichever subset `A` of (at most `m`) jobs is in service,
//! the next completion arrives after an `Exp(Λ)` time with
//! `Λ = Σ_{j∈A} λ_j`, and it is job `j` with probability `λ_j / Λ`
//! (memorylessness means no attained-service bookkeeping is needed).  This
//! yields closed recursions over the `2^n` subsets for
//!
//! * the expected total (or weighted) flowtime of any *priority list*
//!   policy,
//! * the expected makespan of any priority list policy,
//! * the optimal value over **all** non-idling Markov policies (minimising
//!   over the choice of served subset at every state).
//!
//! These are the ground truths for experiments E3 and E4: they verify that
//! SEPT attains the optimal flowtime (Glazebrook 1979) and LEPT the optimal
//! makespan (Bruno–Downey–Frederickson 1981) for exponential jobs, and they
//! quantify how much worse the opposite rule is.

use ss_core::exhaustive::k_subsets;

/// An instance of exponential jobs described by their completion rates and
/// (optional) holding-cost weights.
#[derive(Debug, Clone)]
pub struct ExpParallelInstance {
    /// Completion rate `λ_i` of each job (mean processing time `1/λ_i`).
    pub rates: Vec<f64>,
    /// Holding-cost weight of each job (use 1.0 for unweighted flowtime).
    pub weights: Vec<f64>,
}

impl ExpParallelInstance {
    /// Create an unweighted instance from rates.
    pub fn unweighted(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty() && rates.iter().all(|&r| r > 0.0));
        let n = rates.len();
        Self {
            rates,
            weights: vec![1.0; n],
        }
    }

    /// Create a weighted instance.
    pub fn weighted(rates: Vec<f64>, weights: Vec<f64>) -> Self {
        assert_eq!(rates.len(), weights.len());
        assert!(!rates.is_empty() && rates.iter().all(|&r| r > 0.0));
        assert!(weights.iter().all(|&w| w >= 0.0));
        Self { rates, weights }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True if there are no jobs (never after construction).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    fn check_size(&self) {
        assert!(self.len() <= 20, "exact DP limited to 20 jobs (2^n states)");
    }
}

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

/// The recursion behind all four values below.  In state `R` (the set of
/// uncompleted jobs, a bit mask) with served set `A` and
/// `Λ = Σ_{j∈A} λ_j`, the next completion comes after `E[Δ] = 1/Λ` and is
/// job `j` with probability `λ_j/Λ`, so
/// `V(R) = h(R)/Λ + Σ_{j∈A} (λ_j/Λ) V(R \ {j})`, where `h(R)` is the
/// rate paid until then: the weight of `R` for the flowtime (every
/// uncompleted job accrues holding cost), 1 for the makespan.  `A` is the
/// priority list's served set, or (`list = None`) the `min(m, |R|)`-subset
/// that minimises `V(R)`.
fn subset_dp(
    instance: &ExpParallelInstance,
    list: Option<&[usize]>,
    machines: usize,
    flowtime: bool,
) -> f64 {
    instance.check_size();
    let n = instance.len();
    if let Some(order) = list {
        assert_eq!(order.len(), n);
    }
    let full: u32 = (1u32 << n) - 1;
    let mut value = vec![0.0f64; (full as usize) + 1];
    // Any mask's successors (mask without one bit) are numerically
    // smaller, so a plain ascending loop is a valid topological order.
    for mask in 1..=full {
        let present = (0..n).filter(|&i| mask & (1 << i) != 0);
        let rate = if flowtime {
            present.clone().map(|i| instance.weights[i]).sum()
        } else {
            1.0
        };
        let v = |served: &[usize]| {
            let lambda_total: f64 = served.iter().map(|&j| instance.rates[j]).sum();
            let mut v = rate / lambda_total;
            for &j in served {
                v += instance.rates[j] / lambda_total * value[(mask & !(1 << j)) as usize];
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

/// Expected *weighted flowtime* of the priority-list policy `order` on
/// `machines` identical machines.
pub fn list_policy_flowtime(
    instance: &ExpParallelInstance,
    order: &[usize],
    machines: usize,
) -> f64 {
    subset_dp(instance, Some(order), machines, true)
}

/// Expected makespan of the priority-list policy `order`.
pub fn list_policy_makespan(
    instance: &ExpParallelInstance,
    order: &[usize],
    machines: usize,
) -> f64 {
    subset_dp(instance, Some(order), machines, false)
}

/// Optimal expected weighted flowtime over all non-idling Markov policies
/// (the DP minimises over the served subset in every state).
pub fn optimal_flowtime(instance: &ExpParallelInstance, machines: usize) -> f64 {
    subset_dp(instance, None, machines, true)
}

/// Optimal expected makespan over all non-idling Markov policies.
pub fn optimal_makespan(instance: &ExpParallelInstance, machines: usize) -> f64 {
    subset_dp(instance, None, machines, false)
}

/// The [`ss_core::instance::BatchInstance`] with the same exponential jobs
/// (rates and weights) as this exact instance — the bridge for driving the
/// [`crate::parallel`] Monte-Carlo list-schedule simulator against the DP
/// oracles above ([`list_policy_flowtime`], [`list_policy_makespan`]).
pub fn exp_batch_instance(instance: &ExpParallelInstance) -> ss_core::instance::BatchInstance {
    let mut builder = ss_core::instance::BatchInstance::builder();
    for (&rate, &weight) in instance.rates.iter().zip(&instance.weights) {
        builder = builder.job(
            weight,
            ss_distributions::dyn_dist(ss_distributions::Exponential::new(rate)),
        );
    }
    builder.build()
}

/// SEPT order for an exponential instance (largest rate = shortest mean first).
pub fn sept_order_exp(instance: &ExpParallelInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by(|&a, &b| instance.rates[b].partial_cmp(&instance.rates[a]).unwrap());
    order
}

/// LEPT order for an exponential instance (smallest rate first).
pub fn lept_order_exp(instance: &ExpParallelInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by(|&a, &b| instance.rates[a].partial_cmp(&instance.rates[b]).unwrap());
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_machine_single_job() {
        let inst = ExpParallelInstance::unweighted(vec![2.0]);
        assert!((list_policy_flowtime(&inst, &[0], 1) - 0.5).abs() < 1e-12);
        assert!((list_policy_makespan(&inst, &[0], 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_machine_flowtime_matches_closed_form() {
        // One machine: E[sum C] for order [0,1] = 1/l0 * 2? No:
        // E[C_first] = 1/l_first, E[C_second] = 1/l_first + 1/l_second.
        let inst = ExpParallelInstance::unweighted(vec![1.0, 0.5]);
        let v = list_policy_flowtime(&inst, &[0, 1], 1);
        assert!((v - (1.0 + 1.0 + 2.0)).abs() < 1e-12);
        let v2 = list_policy_flowtime(&inst, &[1, 0], 1);
        assert!((v2 - (2.0 + 2.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn two_machine_makespan_two_jobs() {
        // Both jobs start immediately; makespan = E[max(X1, X2)] =
        // 1/l1 + 1/l2 - 1/(l1+l2).
        let inst = ExpParallelInstance::unweighted(vec![1.0, 2.0]);
        let v = list_policy_makespan(&inst, &[0, 1], 2);
        let expected = 1.0 + 0.5 - 1.0 / 3.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn sept_is_optimal_for_flowtime() {
        // E3: SEPT equals the optimal non-idling Markov policy value.
        let inst = ExpParallelInstance::unweighted(vec![0.4, 2.5, 1.0, 3.0, 0.7, 1.8]);
        for machines in [2usize, 3] {
            let sept = list_policy_flowtime(&inst, &sept_order_exp(&inst), machines);
            let opt = optimal_flowtime(&inst, machines);
            assert!(
                (sept - opt).abs() < 1e-9,
                "m={machines}: SEPT {sept} vs optimal {opt}"
            );
            let lept = list_policy_flowtime(&inst, &lept_order_exp(&inst), machines);
            assert!(lept >= opt - 1e-9);
            assert!(lept > opt + 1e-6, "LEPT should be strictly worse here");
        }
    }

    #[test]
    fn lept_is_optimal_for_makespan() {
        // E4: LEPT equals the optimal non-idling Markov policy value.
        let inst = ExpParallelInstance::unweighted(vec![0.4, 2.5, 1.0, 3.0, 0.7, 1.8]);
        for machines in [2usize, 3] {
            let lept = list_policy_makespan(&inst, &lept_order_exp(&inst), machines);
            let opt = optimal_makespan(&inst, machines);
            assert!(
                (lept - opt).abs() < 1e-9,
                "m={machines}: LEPT {lept} vs optimal {opt}"
            );
            let sept = list_policy_makespan(&inst, &sept_order_exp(&inst), machines);
            assert!(sept >= opt - 1e-9);
        }
    }

    #[test]
    fn weighted_flowtime_single_machine_is_wsept() {
        // On one machine the optimal DP value must equal the WSEPT closed form.
        let inst = ExpParallelInstance::weighted(vec![1.0, 0.5, 2.0], vec![1.0, 3.0, 2.0]);
        // WSEPT order: index w*lambda = [1.0, 1.5, 4.0] -> order [2, 1, 0].
        let wsept = list_policy_flowtime(&inst, &[2, 1, 0], 1);
        let opt = optimal_flowtime(&inst, 1);
        assert!((wsept - opt).abs() < 1e-9, "WSEPT {wsept} vs opt {opt}");
    }

    #[test]
    fn monte_carlo_agrees_with_exact_dp() {
        use rand::SeedableRng;
        use ss_distributions::{dyn_dist, Exponential};
        let rates = [1.0, 2.0, 0.5, 1.5];
        let inst = ExpParallelInstance::unweighted(rates.to_vec());
        let order = sept_order_exp(&inst);
        let exact = list_policy_flowtime(&inst, &order, 2);

        let mut builder = ss_core::instance::BatchInstance::builder();
        for &r in &rates {
            builder = builder.unweighted_job(dyn_dist(Exponential::new(r)));
        }
        let batch = builder.build();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        let reps = 60_000;
        let mc: f64 = (0..reps)
            .map(|_| {
                crate::parallel::simulate_list_schedule(&batch, &order, 2, &mut rng).total_flowtime
            })
            .sum::<f64>()
            / reps as f64;
        assert!(
            (mc - exact).abs() / exact < 0.02,
            "MC {mc} vs exact {exact}"
        );
    }
}
