//! Optimal stopping problems (the "retirement" formulation).
//!
//! Whittle's retirement interpretation of the Gittins index defines the
//! index of state `i` as the retirement reward `M` that makes the decision
//! maker indifferent between retiring immediately and continuing optimally.
//! The calibration algorithm in `ss-bandits` solves a sequence of these
//! stopping problems by bisection on `M`.

/// A discounted optimal stopping problem over an underlying Markov reward
/// process: at each state you may *stop* (collect `stop_reward[s]` once and
/// end) or *continue* (collect the continuation reward and move according to
/// the chain).
#[derive(Debug, Clone)]
pub struct StoppingProblem {
    /// Continuation rewards per state.
    pub continue_reward: Vec<f64>,
    /// Transition rows of the underlying chain (each sums to 1).
    pub transitions: Vec<Vec<(usize, f64)>>,
    /// One-off reward collected upon stopping in each state.
    pub stop_reward: Vec<f64>,
    /// Discount factor in `[0, 1)`.
    pub discount: f64,
}

/// Solution of a stopping problem.
#[derive(Debug, Clone)]
pub struct StoppingSolution {
    /// Optimal value per state.
    pub values: Vec<f64>,
    /// `true` where stopping is optimal.
    pub stop: Vec<bool>,
    /// Sweeps of value iteration used.
    pub iterations: usize,
}

/// Solve the stopping problem by value iteration on the equivalent
/// two-action MDP.
pub fn optimal_stopping(problem: &StoppingProblem) -> StoppingSolution {
    let n = problem.continue_reward.len();
    assert_eq!(problem.transitions.len(), n);
    assert_eq!(problem.stop_reward.len(), n);
    let beta = problem.discount;
    assert!((0.0..1.0).contains(&beta));

    let mut values: Vec<f64> = problem.stop_reward.clone();
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    loop {
        let mut residual = 0.0f64;
        for s in 0..n {
            let cont: f64 = problem.continue_reward[s]
                + beta
                    * problem.transitions[s]
                        .iter()
                        .map(|&(j, p)| p * values[j])
                        .sum::<f64>();
            let v = cont.max(problem.stop_reward[s]);
            residual = residual.max((v - values[s]).abs());
            next[s] = v;
        }
        std::mem::swap(&mut values, &mut next);
        iterations += 1;
        if residual < 1e-12 || iterations > 200_000 {
            break;
        }
    }
    let stop = (0..n)
        .map(|s| {
            let cont: f64 = problem.continue_reward[s]
                + beta
                    * problem.transitions[s]
                        .iter()
                        .map(|&(j, p)| p * values[j])
                        .sum::<f64>();
            problem.stop_reward[s] >= cont - 1e-12
        })
        .collect();
    StoppingSolution {
        values,
        stop,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::Mdp;
    use crate::value_iteration::{value_iteration, ValueIterationOptions};

    /// Build the equivalent two-action MDP (action 0 = continue, action 1 =
    /// stop into an absorbing zero-reward state appended at index `n`).
    fn stopping_as_mdp(problem: &StoppingProblem) -> Mdp {
        let n = problem.continue_reward.len();
        let mut b = crate::mdp::MdpBuilder::new(n + 1);
        for s in 0..n {
            b.add_action(
                s,
                problem.continue_reward[s],
                problem.transitions[s].clone(),
            );
            b.add_action(s, problem.stop_reward[s], vec![(n, 1.0)]);
        }
        b.add_action(n, 0.0, vec![(n, 1.0)]);
        b.build()
    }

    fn simple_problem(stop_at: f64) -> StoppingProblem {
        // Two states; continuing in state 0 pays 1 and moves to state 1,
        // continuing in state 1 pays 0 and stays.  Stopping pays `stop_at`.
        StoppingProblem {
            continue_reward: vec![1.0, 0.0],
            transitions: vec![vec![(1, 1.0)], vec![(1, 1.0)]],
            stop_reward: vec![stop_at, stop_at],
            discount: 0.9,
        }
    }

    #[test]
    fn stops_when_retirement_is_generous() {
        let sol = optimal_stopping(&simple_problem(100.0));
        assert!(sol.stop.iter().all(|&s| s));
        assert!((sol.values[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn continues_then_stops_when_moderate() {
        // Continuing once from state 0 yields 1 + 0.9 * stop; with stop = 2
        // that's 2.8 > 2, so continue in 0 but stop in 1.
        let sol = optimal_stopping(&simple_problem(2.0));
        assert!(!sol.stop[0]);
        assert!(sol.stop[1]);
        assert!((sol.values[0] - 2.8).abs() < 1e-9);
        assert!((sol.values[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matches_generic_mdp_solver() {
        let p = simple_problem(1.5);
        let sol = optimal_stopping(&p);
        let mdp = stopping_as_mdp(&p);
        let vi = value_iteration(
            &mdp,
            &ValueIterationOptions {
                discount: 0.9,
                tolerance: 1e-12,
                max_iterations: 200_000,
            },
        );
        for s in 0..2 {
            assert!((sol.values[s] - vi.values[s]).abs() < 1e-7);
        }
    }
}
