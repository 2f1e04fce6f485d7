//! Average-reward (long-run) MDPs via relative value iteration.
//!
//! The Whittle index for restless bandits is defined through a family of
//! *average-reward* single-project subsidy problems (Whittle 1988); this
//! module provides the unichain relative value iteration used to solve them
//! and to evaluate time-average performance of fixed policies.

use crate::mdp::Mdp;

/// Result of relative value iteration.
#[derive(Debug, Clone)]
pub struct AverageSolution {
    /// Optimal long-run average reward (gain).
    pub gain: f64,
    /// Relative value (bias) function, normalised so `h[reference] = 0`.
    pub bias: Vec<f64>,
    /// An optimal stationary deterministic policy.
    pub policy: Vec<usize>,
    /// Sweeps performed.
    pub iterations: usize,
}

/// Relative value iteration for unichain average-reward MDPs
/// (reward-maximisation).
///
/// Uses the standard span-based stopping rule; the reference state is 0.
pub fn relative_value_iteration(
    mdp: &Mdp,
    tolerance: f64,
    max_iterations: usize,
) -> AverageSolution {
    let n = mdp.num_states();
    let mut h = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    let mut gain = 0.0;
    // Aperiodicity transformation: mix each action's transition with a
    // self-loop of weight (1 - tau) to guarantee convergence on periodic
    // chains without changing the optimal policy or gain.
    let tau = 0.9;
    let q = move |h: &[f64], s: usize, a: usize| {
        mdp.reward(s, a) + tau * mdp.expected_next_value(s, a, h) + (1.0 - tau) * h[s]
    };
    while iterations < max_iterations {
        for s in 0..n {
            next[s] = mdp.best_action(s, |a| q(&h, s, a)).1;
        }
        let diffs: Vec<f64> = (0..n).map(|s| next[s] - h[s]).collect();
        let max_d = diffs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min_d = diffs.iter().cloned().fold(f64::INFINITY, f64::min);
        gain = 0.5 * (max_d + min_d);
        let offset = next[0];
        for s in 0..n {
            h[s] = next[s] - offset;
        }
        iterations += 1;
        if (max_d - min_d) < tolerance {
            break;
        }
    }
    // Greedy policy w.r.t. the bias.
    let policy = (0..n)
        .map(|s| mdp.best_action(s, |a| q(&h, s, a)).0)
        .collect();
    AverageSolution {
        gain,
        bias: h,
        policy,
        iterations,
    }
}

/// Long-run average reward of a fixed stationary deterministic policy,
/// computed from the stationary distribution of the induced chain.
pub fn average_reward_of_policy(mdp: &Mdp, policy: &[usize]) -> f64 {
    use crate::chain::MarkovChain;
    let n = mdp.num_states();
    let mut rows = Vec::with_capacity(n);
    for s in 0..n {
        let mut row = vec![0.0; n];
        for t in mdp.transitions(s, policy[s]) {
            row[t.next] += t.prob;
        }
        rows.push(row);
    }
    let chain = MarkovChain::new(rows);
    let pi = chain.stationary_distribution();
    (0..n).map(|s| pi[s] * mdp.reward(s, policy[s])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;

    #[test]
    fn two_state_alternating_chain() {
        // Single action per state, deterministic cycle 0 -> 1 -> 0 with
        // rewards 1 and 3: gain = 2.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, 1.0, vec![(1, 1.0)]);
        b.add_action(1, 3.0, vec![(0, 1.0)]);
        let m = b.build();
        let sol = relative_value_iteration(&m, 1e-10, 100_000);
        assert!((sol.gain - 2.0).abs() < 1e-6, "gain {}", sol.gain);
        assert!((average_reward_of_policy(&m, &sol.policy) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn picks_action_maximising_average() {
        // State 0 has two actions: stay with reward 1, or move to state 1
        // (reward 0) where the reward is 5 but it must come back through 0.
        // Cycle via 1: average (0 + 5)/2 = 2.5 > 1, so moving is optimal.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, 1.0, vec![(0, 1.0)]);
        b.add_action(0, 0.0, vec![(1, 1.0)]);
        b.add_action(1, 5.0, vec![(0, 1.0)]);
        let m = b.build();
        let sol = relative_value_iteration(&m, 1e-10, 100_000);
        assert_eq!(sol.policy[0], 1);
        assert!((sol.gain - 2.5).abs() < 1e-6);
    }

    #[test]
    fn stochastic_chain_gain() {
        // Single action: from 0 go to 1 w.p. 0.5 / stay w.p. 0.5, reward 1;
        // from 1 always go to 0, reward 0.
        // Stationary distribution: pi0 = 2/3, pi1 = 1/3, gain = 2/3.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, 1.0, vec![(0, 0.5), (1, 0.5)]);
        b.add_action(1, 0.0, vec![(0, 1.0)]);
        let m = b.build();
        let sol = relative_value_iteration(&m, 1e-11, 200_000);
        assert!((sol.gain - 2.0 / 3.0).abs() < 1e-6, "gain {}", sol.gain);
    }
}
