//! Numeric checks of stochastic orderings between distributions.
//!
//! The strongest SEPT result quoted in the survey (Weber–Varaiya–Walrand
//! 1986) only requires the job processing times to be **stochastically
//! ordered**.  These helpers verify, on a grid, whether two distributions
//! are comparable in the usual stochastic order (`<=st`), the hazard-rate
//! order (`<=hr`) and the likelihood-ratio order (`<=lr`).  The tier-1
//! property suite (`tests/property_based.rs`) uses them to check the chain
//! "`<=lr` implies `<=hr` implies `<=st`" and that sorted exponentials form
//! a stochastically ordered chain.

use crate::traits::ServiceDistribution;

/// Outcome of a pairwise ordering check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderCheck {
    /// `a` precedes `b` in the checked order (a is stochastically smaller).
    ABeforeB,
    /// `b` precedes `a`.
    BBeforeA,
    /// The two are numerically indistinguishable on the grid.
    Equal,
    /// Not comparable in this order.
    Incomparable,
}

fn grid(horizon: f64, points: usize) -> impl Iterator<Item = f64> {
    (1..=points).map(move |i| horizon * i as f64 / points as f64)
}

fn compare_pointwise<F>(f: F, horizon: f64, points: usize, tol: f64) -> OrderCheck
where
    F: Fn(f64) -> (f64, f64),
{
    let mut a_le_b = true; // first component <= second everywhere
    let mut b_le_a = true;
    for x in grid(horizon, points) {
        let (fa, fb) = f(x);
        if fa > fb + tol {
            a_le_b = false;
        }
        if fb > fa + tol {
            b_le_a = false;
        }
    }
    match (a_le_b, b_le_a) {
        (true, true) => OrderCheck::Equal,
        (true, false) => OrderCheck::ABeforeB,
        (false, true) => OrderCheck::BBeforeA,
        (false, false) => OrderCheck::Incomparable,
    }
}

/// Usual stochastic order: `A <=st B` iff `S_A(x) <= S_B(x)` for all x.
pub fn stochastic_order(
    a: &dyn ServiceDistribution,
    b: &dyn ServiceDistribution,
    horizon: f64,
    points: usize,
) -> OrderCheck {
    compare_pointwise(|x| (a.sf(x), b.sf(x)), horizon, points, 1e-9)
}

/// Hazard-rate order: `A <=hr B` iff `h_A(x) >= h_B(x)` for all x
/// (the smaller variable has the *larger* hazard).
pub fn hazard_rate_order(
    a: &dyn ServiceDistribution,
    b: &dyn ServiceDistribution,
    horizon: f64,
    points: usize,
) -> OrderCheck {
    // Note the swap: larger hazard everywhere means stochastically smaller.
    compare_pointwise(
        |x| {
            let ha = a.hazard(x);
            let hb = b.hazard(x);
            let ha = if ha.is_finite() { ha } else { 1e12 };
            let hb = if hb.is_finite() { hb } else { 1e12 };
            (hb, ha)
        },
        horizon,
        points,
        1e-9,
    )
}

/// Likelihood-ratio order: `A <=lr B` iff the density ratio
/// `f_B(x) / f_A(x)` is nondecreasing in x (checked on the grid, skipping
/// points where either density vanishes).
pub fn likelihood_ratio_order(
    a: &dyn ServiceDistribution,
    b: &dyn ServiceDistribution,
    horizon: f64,
    points: usize,
) -> OrderCheck {
    let mut ratios_ab: Vec<f64> = Vec::new();
    for x in grid(horizon, points) {
        let fa = a.pdf(x);
        let fb = b.pdf(x);
        if fa > 1e-12 && fb > 1e-12 {
            ratios_ab.push(fb / fa);
        }
    }
    if ratios_ab.len() < 3 {
        return OrderCheck::Incomparable;
    }
    let tol = 1e-9;
    let nondecreasing = ratios_ab
        .windows(2)
        .all(|w| w[1] >= w[0] - tol * w[0].abs().max(1.0));
    let nonincreasing = ratios_ab
        .windows(2)
        .all(|w| w[1] <= w[0] + tol * w[0].abs().max(1.0));
    match (nondecreasing, nonincreasing) {
        (true, true) => OrderCheck::Equal,
        (true, false) => OrderCheck::ABeforeB,
        (false, true) => OrderCheck::BBeforeA,
        (false, false) => OrderCheck::Incomparable,
    }
}

/// True if the slice of distributions forms a chain in the usual stochastic
/// order when taken in the given order (each element `<=st` the next).
pub fn is_stochastically_ordered_chain(
    dists: &[&dyn ServiceDistribution],
    horizon: f64,
    points: usize,
) -> bool {
    dists.windows(2).all(|w| {
        matches!(
            stochastic_order(w[0], w[1], horizon, points),
            OrderCheck::ABeforeB | OrderCheck::Equal
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deterministic, Exponential, Uniform};

    #[test]
    fn exponentials_are_st_ordered_by_rate() {
        let fast = Exponential::new(4.0); // mean 0.25
        let slow = Exponential::new(1.0); // mean 1.0
        assert_eq!(
            stochastic_order(&fast, &slow, 10.0, 200),
            OrderCheck::ABeforeB
        );
        assert_eq!(
            stochastic_order(&slow, &fast, 10.0, 200),
            OrderCheck::BBeforeA
        );
        assert_eq!(
            hazard_rate_order(&fast, &slow, 10.0, 200),
            OrderCheck::ABeforeB
        );
        assert_eq!(
            likelihood_ratio_order(&fast, &slow, 10.0, 200),
            OrderCheck::ABeforeB
        );
    }

    #[test]
    fn identical_distributions_are_equal() {
        let a = Exponential::new(2.0);
        let b = Exponential::new(2.0);
        assert_eq!(stochastic_order(&a, &b, 5.0, 100), OrderCheck::Equal);
    }

    #[test]
    fn crossing_survival_functions_are_incomparable() {
        // Det(1) vs U[0,2]: S_det is 1 before 1 then 0; S_unif crosses it.
        let d = Deterministic::new(1.0);
        let u = Uniform::new(0.0, 2.0);
        assert_eq!(stochastic_order(&d, &u, 2.0, 400), OrderCheck::Incomparable);
    }

    #[test]
    fn chain_detection() {
        let a = Exponential::new(3.0);
        let b = Exponential::new(2.0);
        let c = Exponential::new(1.0);
        let chain: Vec<&dyn ServiceDistribution> = vec![&a, &b, &c];
        assert!(is_stochastically_ordered_chain(&chain, 10.0, 100));
        let broken: Vec<&dyn ServiceDistribution> = vec![&b, &a, &c];
        assert!(!is_stochastically_ordered_chain(&broken, 10.0, 100));
    }
}
