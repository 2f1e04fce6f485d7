//! Conservation laws and the achievable performance region
//! (Coffman–Mitrani 1980, Federgruen–Groenevelt 1988, Shanthikumar–Yao 1992,
//! Bertsimas–Niño-Mora 1996).
//!
//! For the multiclass M/G/1 queue under *any* nonpreemptive work-conserving
//! discipline the weighted waiting times satisfy the work-conservation
//! identity
//!
//! ```text
//! Σ_j ρ_j W_j  =  ρ W0 / (1 - ρ)          (a constant)
//! ```
//!
//! and, more generally, the vector `(ρ_1 W_1, …, ρ_N W_N)` ranges over a
//! polymatroid whose vertices are exactly the static priority rules.  The
//! cµ-rule is therefore the solution of a linear program over that
//! polytope — the "achievable region" account of its optimality that the
//! survey describes.  This module exposes the identity, the per-subset
//! lower bounds defining the polymatroid, and helpers used by the tests and
//! the experiment harness to verify both numerically.

use crate::cobham::{mean_residual_work, mg1_nonpreemptive_priority, total_load};
use ss_core::job::JobClass;

/// The conserved quantity `Σ_j ρ_j W_j` implied by work conservation.
pub fn conserved_work(classes: &[JobClass]) -> f64 {
    let rho = total_load(classes);
    assert!(rho < 1.0, "unstable load {rho}");
    rho * mean_residual_work(classes) / (1.0 - rho)
}

/// Evaluate `Σ_j ρ_j W_j` for a particular static priority order using the
/// exact Cobham waiting times; by the conservation law this should not
/// depend on the order.
pub fn weighted_wait_sum(classes: &[JobClass], priority_order: &[usize]) -> f64 {
    let means = mg1_nonpreemptive_priority(classes, priority_order);
    classes
        .iter()
        .enumerate()
        .map(|(j, c)| c.load() * means.wait[j])
        .sum()
}

/// The polymatroid lower bound for a subset `s` of classes: any
/// nonpreemptive work-conserving discipline satisfies
/// `Σ_{j∈s} ρ_j W_j >= b(s)`, where `b(s)` is the smallest achievable value
/// — attained by giving the classes of `s` absolute (highest) priority so
/// that their waits are as small as work conservation permits.
/// Returns `b(s)`.
pub fn subset_lower_bound(classes: &[JobClass], subset: &[usize]) -> f64 {
    let in_subset = |j: usize| subset.contains(&j);
    // Priority order: the subset classes first, everything else after.
    let mut order: Vec<usize> = subset.to_vec();
    order.extend((0..classes.len()).filter(|&j| !in_subset(j)));
    let means = mg1_nonpreemptive_priority(classes, &order);
    subset
        .iter()
        .map(|&j| classes[j].load() * means.wait[j])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmu::cmu_order;
    use ss_distributions::{dyn_dist, Erlang, Exponential, HyperExponential};

    /// Check that a vector of per-class mean waits is (approximately) inside
    /// the achievable region: every subset lower bound holds and the full-set
    /// identity holds with equality.  Intended for small numbers of classes.
    fn is_achievable(classes: &[JobClass], waits: &[f64], tolerance: f64) -> bool {
        assert_eq!(waits.len(), classes.len());
        let n = classes.len();
        assert!(n <= 12);
        // Full-set equality.
        let total: f64 = classes
            .iter()
            .enumerate()
            .map(|(j, c)| c.load() * waits[j])
            .sum();
        if (total - conserved_work(classes)).abs() > tolerance * conserved_work(classes).max(1.0) {
            return false;
        }
        // Subset inequalities.
        for mask in 1u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|&j| mask & (1 << j) != 0).collect();
            if subset.len() == n {
                continue;
            }
            let lhs: f64 = subset.iter().map(|&j| classes[j].load() * waits[j]).sum();
            let rhs = subset_lower_bound(classes, &subset);
            if lhs < rhs - tolerance * rhs.abs().max(1.0) {
                return false;
            }
        }
        true
    }

    fn classes_3() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.2, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.25, dyn_dist(Erlang::with_mean(3, 0.8)), 3.0),
            JobClass::new(
                2,
                0.1,
                dyn_dist(HyperExponential::with_mean_scv(1.5, 4.0)),
                2.0,
            ),
        ]
    }

    #[test]
    fn conservation_identity_holds_for_every_priority_order() {
        let classes = classes_3();
        let target = conserved_work(&classes);
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for order in orders {
            let s = weighted_wait_sum(&classes, &order);
            assert!(
                (s - target).abs() / target < 1e-9,
                "order {order:?}: {s} vs conserved {target}"
            );
        }
    }

    #[test]
    fn priority_orders_lie_in_the_achievable_region() {
        let classes = classes_3();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let waits = mg1_nonpreemptive_priority(&classes, &order).wait;
            assert!(
                is_achievable(&classes, &waits, 1e-6),
                "order {order:?} must be achievable"
            );
        }
    }

    #[test]
    fn subset_bounds_are_tight_for_matching_priority() {
        // Giving a subset top priority attains its own bound; any other
        // order can only increase the subset's weighted waits.
        let classes = classes_3();
        let subset = vec![0usize, 2];
        let bound = subset_lower_bound(&classes, &subset);
        let order = vec![0usize, 2, 1];
        let waits = mg1_nonpreemptive_priority(&classes, &order).wait;
        let value: f64 = subset.iter().map(|&j| classes[j].load() * waits[j]).sum();
        assert!((value - bound).abs() / bound < 1e-9);
        let worst_order = vec![1usize, 0, 2];
        let worst = mg1_nonpreemptive_priority(&classes, &worst_order).wait;
        let worst_value: f64 = subset.iter().map(|&j| classes[j].load() * worst[j]).sum();
        assert!(worst_value >= bound - 1e-12);
    }

    #[test]
    fn infeasible_vector_is_rejected() {
        let classes = classes_3();
        // Uniformly tiny waits violate the conservation identity.
        let waits = vec![0.01; 3];
        assert!(!is_achievable(&classes, &waits, 1e-6));
    }

    #[test]
    fn cmu_vertex_minimises_cost_over_sampled_vertices() {
        // LP-over-polymatroid view: every vertex is a priority order; the
        // cµ vertex has the smallest holding cost.
        let classes = classes_3();
        let cmu = cmu_order(&classes);
        let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for order in orders {
            let cost = mg1_nonpreemptive_priority(&classes, &order).holding_cost_rate;
            assert!(cmu_cost <= cost + 1e-9);
        }
    }
}
