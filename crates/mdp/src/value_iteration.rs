//! Discounted value iteration.

use crate::mdp::Mdp;

/// Options controlling the value-iteration loop.
#[derive(Debug, Clone, Copy)]
pub struct ValueIterationOptions {
    /// Discount factor in `[0, 1)`.
    pub discount: f64,
    /// Convergence threshold on the sup-norm of successive value functions.
    pub tolerance: f64,
    /// Hard cap on sweeps.
    pub max_iterations: usize,
}

impl Default for ValueIterationOptions {
    fn default() -> Self {
        Self {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
        }
    }
}

/// Result of discounted value iteration.
#[derive(Debug, Clone)]
pub struct DiscountedSolution {
    /// Optimal value function (up to the stated tolerance).
    pub values: Vec<f64>,
    /// A greedy (optimal) deterministic policy.
    pub policy: Vec<usize>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Final sup-norm change.
    pub residual: f64,
}

/// Solve a discounted reward-maximisation MDP by value iteration.
pub fn value_iteration(mdp: &Mdp, opts: &ValueIterationOptions) -> DiscountedSolution {
    let beta = opts.discount;
    assert!((0.0..1.0).contains(&beta), "discount must be in [0,1)");
    let n = mdp.num_states();
    let mut values = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < opts.max_iterations {
        residual = 0.0f64;
        for s in 0..n {
            next[s] = mdp.best_action(s, |a| mdp.q_value(s, a, &values, beta)).1;
            residual = residual.max((next[s] - values[s]).abs());
        }
        std::mem::swap(&mut values, &mut next);
        iterations += 1;
        // Standard stopping rule guaranteeing an eps-optimal value function.
        if residual < opts.tolerance * (1.0 - beta) / (2.0 * beta.max(1e-12)) || residual == 0.0 {
            break;
        }
    }
    // Greedy policy extraction.
    let policy = (0..n)
        .map(|s| mdp.best_action(s, |a| mdp.q_value(s, a, &values, beta)).0)
        .collect();
    DiscountedSolution {
        values,
        policy,
        iterations,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;

    #[test]
    fn single_state_geometric_series() {
        let mut b = MdpBuilder::new(1);
        b.add_action(0, 1.0, vec![(0, 1.0)]);
        let m = b.build();
        let sol = value_iteration(
            &m,
            &ValueIterationOptions {
                discount: 0.9,
                ..Default::default()
            },
        );
        assert!(
            (sol.values[0] - 10.0).abs() < 1e-6,
            "value {}",
            sol.values[0]
        );
    }

    #[test]
    fn chooses_better_action() {
        // State 0: action 0 gives reward 0 and stays; action 1 gives 1 and stays.
        let mut b = MdpBuilder::new(1);
        b.add_action(0, 0.0, vec![(0, 1.0)]);
        b.add_action(0, 1.0, vec![(0, 1.0)]);
        let m = b.build();
        let sol = value_iteration(
            &m,
            &ValueIterationOptions {
                discount: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(sol.policy[0], 1);
        assert!((sol.values[0] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn deferred_reward_tradeoff() {
        // State 0: "cash in" -> reward 5, go to absorbing 2 (no reward);
        //          "wait"    -> reward 0, go to state 1.
        // State 1: reward 10, go to absorbing 2.
        // State 2: absorbing, reward 0.
        // With beta = 0.9 waiting is better (0 + 0.9*10 = 9 > 5).
        // With beta = 0.4 cashing in is better (5 > 4).
        let build = || {
            let mut b = MdpBuilder::new(3);
            b.add_action(0, 5.0, vec![(2, 1.0)]);
            b.add_action(0, 0.0, vec![(1, 1.0)]);
            b.add_action(1, 10.0, vec![(2, 1.0)]);
            b.add_action(2, 0.0, vec![(2, 1.0)]);
            b.build()
        };
        let patient = value_iteration(
            &build(),
            &ValueIterationOptions {
                discount: 0.9,
                ..Default::default()
            },
        );
        assert_eq!(patient.policy[0], 1);
        let impatient = value_iteration(
            &build(),
            &ValueIterationOptions {
                discount: 0.4,
                ..Default::default()
            },
        );
        assert_eq!(impatient.policy[0], 0);
    }

    #[test]
    fn matches_exact_policy_evaluation() {
        // Random-ish 4-state MDP: check VI optimal value >= value of any
        // fixed policy and equals the value of its own greedy policy.
        let mut b = MdpBuilder::new(4);
        for s in 0..4 {
            b.add_action(s, s as f64, vec![((s + 1) % 4, 0.7), (s, 0.3)]);
            b.add_action(s, 0.5, vec![((s + 2) % 4, 1.0)]);
        }
        let m = b.build();
        let opts = ValueIterationOptions {
            discount: 0.8,
            tolerance: 1e-12,
            ..Default::default()
        };
        let sol = value_iteration(&m, &opts);
        let v_greedy = m.evaluate_policy_discounted(&sol.policy, 0.8);
        for s in 0..4 {
            assert!((sol.values[s] - v_greedy[s]).abs() < 1e-6);
        }
        // Any other stationary policy is weakly worse.
        for alt in [[0usize, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]] {
            let v_alt = m.evaluate_policy_discounted(&alt, 0.8);
            for s in 0..4 {
                assert!(v_alt[s] <= sol.values[s] + 1e-6);
            }
        }
    }
}
