//! The achievable-region method for the multiclass M/G/1 queue and the
//! Klimov network (Coffman–Mitrani 1980, Federgruen–Groenevelt 1988,
//! Shanthikumar–Yao 1992, Bertsimas–Niño-Mora 1996).
//!
//! Instead of searching the policy space, the achievable-region method
//! characterises the set of *performance vectors* any admissible policy can
//! produce and optimises the cost function over that set directly:
//!
//! * for the multiclass M/G/1 queue the vector `x_j = ρ_j W_j` ranges over
//!   a **polymatroid base**: every subset `S` of classes satisfies
//!   `Σ_{j∈S} x_j ≥ b(S)` and the full set holds with equality (the
//!   work-conservation law), where `b(S)` is attained by giving `S`
//!   absolute priority;
//! * the **vertices** of that polytope are exactly the static priority
//!   rules ([`vertex_performance`] reproduces Cobham's waiting times from
//!   nested `b(·)` differences alone);
//! * minimising the holding-cost rate is therefore a **linear program**
//!   ([`region_lp`]) whose optimum is attained at the cµ vertex — the
//!   achievable-region proof of the cµ-rule the survey describes;
//! * with Bernoulli feedback the region becomes an *extended* polymatroid
//!   and the optimising vertex is produced by the adaptive-greedy index
//!   algorithm; [`klimov_via_adaptive_greedy`] plugs the Klimov network's
//!   restricted busy periods, a [`TransferWorkMeasure`] over the routing
//!   matrix, into
//!   [`ss_core::adaptive_greedy`](fn@ss_core::adaptive_greedy), recovering
//!   Klimov's indices from the conservation-law framework.
//!
//! Experiment E17 uses this module to show that the region LP, the
//! adaptive-greedy indices and the exhaustive search over priority orders
//! all agree.

use crate::cobham::total_load;
use crate::conservation::{conserved_work, subset_lower_bound};
use crate::klimov::KlimovNetwork;
use ss_core::adaptive_greedy::{adaptive_greedy, AdaptiveGreedyResult, TransferWorkMeasure};
use ss_core::job::JobClass;
use ss_lp::{LinearProgram, Relation};

/// The polymatroid vertex induced by a static priority order: the vector
/// `x_j = ρ_j W_j` computed from nested set-function differences
/// `x_{π_k} = b({π_0..π_k}) − b({π_0..π_{k-1}})` (highest priority first).
///
/// By the conservation-law structure this equals the Cobham value
/// `ρ_j W_j(π)` for every class — the "vertices are priority rules" half of
/// the achievable-region argument.
pub fn vertex_performance(classes: &[JobClass], priority_order: &[usize]) -> Vec<f64> {
    let n = classes.len();
    assert_eq!(priority_order.len(), n);
    assert!(total_load(classes) < 1.0, "unstable load");
    let mut x = vec![0.0; n];
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut prev_b = 0.0;
    for &j in priority_order {
        prefix.push(j);
        let b = subset_lower_bound(classes, &prefix);
        x[j] = b - prev_b;
        prev_b = b;
    }
    x
}

/// Result of optimising the holding-cost rate over the achievable region.
#[derive(Debug, Clone)]
pub struct RegionLpResult {
    /// Optimal steady-state holding-cost rate `Σ_j c_j E[L_j]`.
    pub holding_cost_rate: f64,
    /// Optimal performance vector `x_j = ρ_j W_j`.
    pub x: Vec<f64>,
    /// The per-class mean waits `W_j = x_j / ρ_j` implied by the optimum.
    pub waits: Vec<f64>,
}

/// Minimise the holding-cost rate over the achievable region of the
/// nonpreemptive multiclass M/G/1 queue by linear programming.
///
/// Variables are `x_j = ρ_j W_j`; the constraints are the `2^N − 2` proper
/// subset lower bounds plus the full-set conservation identity, and the
/// objective is `Σ_j (c_j µ_j) x_j` (the holding-cost rate minus the
/// policy-independent in-service term, which is added back to the reported
/// value).  Limited to `N ≤ 12` classes because the constraint count grows
/// as `2^N`.
pub fn region_lp(classes: &[JobClass]) -> RegionLpResult {
    let n = classes.len();
    assert!(
        (1..=12).contains(&n),
        "region LP limited to 1..=12 classes, got {n}"
    );
    assert!(total_load(classes) < 1.0, "unstable load");

    let objective: Vec<f64> = classes.iter().map(|c| c.cmu_index()).collect();
    let mut lp = LinearProgram::minimize(objective);

    for mask in 1u32..(1u32 << n) {
        let subset: Vec<usize> = (0..n).filter(|&j| mask & (1 << j) != 0).collect();
        let mut row = vec![0.0; n];
        for &j in &subset {
            row[j] = 1.0;
        }
        if subset.len() == n {
            lp.add_constraint(row, Relation::Eq, conserved_work(classes));
        } else {
            lp.add_constraint(row, Relation::Ge, subset_lower_bound(classes, &subset));
        }
    }

    let sol = lp.solve().expect("achievable-region LP must be feasible");
    let x = sol.x[..n].to_vec();
    let waits: Vec<f64> = classes
        .iter()
        .enumerate()
        .map(|(j, c)| if c.load() > 0.0 { x[j] / c.load() } else { 0.0 })
        .collect();
    // Add back the policy-independent in-service cost Σ_j c_j ρ_j.
    let in_service: f64 = classes.iter().map(|c| c.holding_cost * c.load()).sum();
    RegionLpResult {
        holding_cost_rate: sol.objective + in_service,
        x,
        waits,
    }
}

/// The cµ-rule derived through the conservation-law framework: run the
/// adaptive-greedy algorithm with the trivial (no-feedback) work measure.
/// The produced indices are exactly `c_j µ_j`.
pub fn cmu_via_adaptive_greedy(classes: &[JobClass]) -> AdaptiveGreedyResult {
    let oracle = TransferWorkMeasure::isolated(classes.iter().map(|c| c.mean_service()).collect());
    let costs: Vec<f64> = classes.iter().map(|c| c.holding_cost).collect();
    adaptive_greedy(&costs, &oracle)
}

/// The Klimov network's work measure: `T_j(S)` is the expected service time
/// a class-`j` customer accumulates while its class stays inside `S`
/// (its restricted busy period), and `E_j(S)` is the expected holding-cost
/// rate of the first class it becomes outside `S` (zero if it leaves).
fn klimov_work_measure(network: &KlimovNetwork) -> TransferWorkMeasure {
    TransferWorkMeasure::new(
        network.services.iter().map(|s| s.mean()).collect(),
        network.routing.clone(),
        network.holding_costs.clone(),
    )
}

/// Klimov's indices recomputed through the generic adaptive-greedy
/// algorithm (rather than the dedicated implementation in
/// [`crate::klimov::klimov_indices`]); the two must agree.
pub fn klimov_via_adaptive_greedy(network: &KlimovNetwork) -> AdaptiveGreedyResult {
    adaptive_greedy(&network.holding_costs, &klimov_work_measure(network))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmu::cmu_order;
    use crate::cobham::{best_nonpreemptive_order, mg1_nonpreemptive_priority};
    use crate::klimov::{klimov_indices, klimov_order};
    use ss_core::adaptive_greedy::WorkMeasure;
    use ss_distributions::{dyn_dist, Erlang, Exponential, HyperExponential};

    fn classes_3() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.20, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.25, dyn_dist(Erlang::with_mean(3, 0.8)), 3.0),
            JobClass::new(
                2,
                0.10,
                dyn_dist(HyperExponential::with_mean_scv(1.5, 4.0)),
                2.0,
            ),
        ]
    }

    fn feedback_network() -> KlimovNetwork {
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
    fn vertex_performance_matches_cobham_for_every_order() {
        let classes = classes_3();
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for order in orders {
            let vertex = vertex_performance(&classes, &order);
            let exact = mg1_nonpreemptive_priority(&classes, &order);
            for j in 0..classes.len() {
                let expected = classes[j].load() * exact.wait[j];
                assert!(
                    (vertex[j] - expected).abs() < 1e-9,
                    "order {order:?}, class {j}: vertex {} vs Cobham {expected}",
                    vertex[j]
                );
            }
        }
    }

    #[test]
    fn region_lp_optimum_equals_cmu_rule_cost() {
        let classes = classes_3();
        let lp = region_lp(&classes);
        let cmu = cmu_order(&classes);
        let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
        let (_, best_cost) = best_nonpreemptive_order(&classes);
        assert!(
            (lp.holding_cost_rate - cmu_cost).abs() < 1e-6,
            "LP {} vs cmu {}",
            lp.holding_cost_rate,
            cmu_cost
        );
        assert!(
            (lp.holding_cost_rate - best_cost).abs() < 1e-6,
            "LP {} vs exhaustive best {}",
            lp.holding_cost_rate,
            best_cost
        );
    }

    #[test]
    fn region_lp_waits_match_the_cmu_vertex() {
        let classes = classes_3();
        let lp = region_lp(&classes);
        let cmu = cmu_order(&classes);
        let exact = mg1_nonpreemptive_priority(&classes, &cmu);
        for j in 0..classes.len() {
            assert!(
                (lp.waits[j] - exact.wait[j]).abs() < 1e-6,
                "class {j}: LP wait {} vs Cobham {}",
                lp.waits[j],
                exact.wait[j]
            );
        }
    }

    #[test]
    fn region_lp_single_class_is_pollaczek_khinchine() {
        let classes = vec![JobClass::new(
            0,
            0.5,
            dyn_dist(Exponential::with_mean(1.0)),
            2.0,
        )];
        let lp = region_lp(&classes);
        let pk = crate::cobham::pollaczek_khinchine_wait(&classes);
        assert!((lp.waits[0] - pk).abs() < 1e-9);
    }

    #[test]
    fn adaptive_greedy_reduces_to_cmu_without_feedback() {
        let classes = classes_3();
        let result = cmu_via_adaptive_greedy(&classes);
        for (j, c) in classes.iter().enumerate() {
            assert!(
                (result.indices[j] - c.cmu_index()).abs() < 1e-12,
                "class {j}: {} vs {}",
                result.indices[j],
                c.cmu_index()
            );
        }
        assert_eq!(result.order, cmu_order(&classes));
        assert!(result.rates_non_increasing(1e-9));
    }

    #[test]
    fn adaptive_greedy_reproduces_klimov_indices() {
        let net = feedback_network();
        let generic = klimov_via_adaptive_greedy(&net);
        let dedicated = klimov_indices(&net);
        for j in 0..net.num_classes() {
            assert!(
                (generic.indices[j] - dedicated[j]).abs() < 1e-9,
                "class {j}: adaptive greedy {} vs Klimov {}",
                generic.indices[j],
                dedicated[j]
            );
        }
        assert_eq!(generic.order, klimov_order(&net));
        assert!(generic.rates_non_increasing(1e-9));
    }

    #[test]
    fn klimov_work_measure_without_feedback_is_mean_service() {
        let net = KlimovNetwork::new(
            vec![0.2, 0.3],
            vec![
                dyn_dist(Exponential::with_mean(1.5)),
                dyn_dist(Exponential::with_mean(0.5)),
            ],
            vec![1.0, 2.0],
            vec![vec![0.0; 2]; 2],
        );
        let oracle = klimov_work_measure(&net);
        assert!((oracle.work(0, &[true, false]) - 1.5).abs() < 1e-12);
        assert!((oracle.work(1, &[true, true]) - 0.5).abs() < 1e-12);
        assert!((oracle.exit_cost(0, &[true, false]) - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn region_lp_rejects_unstable_instances() {
        let classes = vec![JobClass::new(
            0,
            2.0,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        )];
        let _ = region_lp(&classes);
    }
}
