//! Finite MDP representation.

use ss_core::linalg::solve_dense;

/// A single transition `(next_state, probability)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Destination state index.
    pub next: usize,
    /// Transition probability.
    pub prob: f64,
}

/// A finite Markov decision process with reward maximisation semantics.
///
/// * `num_states` states indexed `0..num_states`;
/// * each state has one or more actions;
/// * each action has an immediate expected reward and a transition list
///   whose probabilities sum to one (enforced by [`MdpBuilder`]).
///
/// Cost-minimisation problems are expressed by negating rewards.
#[derive(Debug, Clone)]
pub struct Mdp {
    pub(crate) num_states: usize,
    /// `actions[s]` = list of (reward, transitions) for state `s`.
    pub(crate) actions: Vec<Vec<(f64, Vec<Transition>)>>,
}

impl Mdp {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions available in state `s`.
    pub fn num_actions(&self, s: usize) -> usize {
        self.actions[s].len()
    }

    /// Immediate expected reward of `(s, a)`.
    pub fn reward(&self, s: usize, a: usize) -> f64 {
        self.actions[s][a].0
    }

    /// Transition list of `(s, a)`.
    pub fn transitions(&self, s: usize, a: usize) -> &[Transition] {
        &self.actions[s][a].1
    }

    /// Expected value of `values` after taking action `a` in state `s`.
    pub fn expected_next_value(&self, s: usize, a: usize, values: &[f64]) -> f64 {
        self.transitions(s, a)
            .iter()
            .map(|t| t.prob * values[t.next])
            .sum()
    }

    /// One-step Bellman backup for `(s, a)` with discount `beta`.
    pub fn q_value(&self, s: usize, a: usize, values: &[f64], beta: f64) -> f64 {
        self.reward(s, a) + beta * self.expected_next_value(s, a, values)
    }

    /// The action maximising `q` in state `s` and its value; the
    /// lowest-numbered action wins ties.  Inlined, so that the solvers'
    /// sweeps keep the loop over actions in their own code.
    #[inline]
    pub(crate) fn best_action(&self, s: usize, q: impl Fn(usize) -> f64) -> (usize, f64) {
        let mut best_a = 0;
        let mut best = f64::NEG_INFINITY;
        for a in 0..self.num_actions(s) {
            let value = q(a);
            if value > best {
                best = value;
                best_a = a;
            }
        }
        (best_a, best)
    }

    /// Evaluate a stationary deterministic policy exactly (discounted) by
    /// solving `(I - beta P_pi) v = r_pi` with Gaussian elimination.
    pub fn evaluate_policy_discounted(&self, policy: &[usize], beta: f64) -> Vec<f64> {
        assert_eq!(policy.len(), self.num_states);
        assert!((0.0..1.0).contains(&beta), "discount must be in [0,1)");
        let n = self.num_states;
        // Build dense system A v = b with A = I - beta P, b = r.
        let mut a = vec![vec![0.0; n]; n];
        let mut b = vec![0.0; n];
        for s in 0..n {
            let act = policy[s];
            a[s][s] = 1.0;
            for t in self.transitions(s, act) {
                a[s][t.next] -= beta * t.prob;
            }
            b[s] = self.reward(s, act);
        }
        solve_dense(a, b)
    }
}

/// Incremental builder validating transition probabilities.
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    num_states: usize,
    actions: Vec<Vec<(f64, Vec<Transition>)>>,
}

impl MdpBuilder {
    /// Start building an MDP with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        assert!(num_states > 0, "MDP needs at least one state");
        Self {
            num_states,
            actions: vec![Vec::new(); num_states],
        }
    }

    /// Add an action to state `s` with immediate reward `reward` and the
    /// given transition distribution (probabilities must sum to 1).
    pub fn add_action(
        &mut self,
        s: usize,
        reward: f64,
        transitions: Vec<(usize, f64)>,
    ) -> &mut Self {
        assert!(s < self.num_states, "state {s} out of range");
        assert!(
            !transitions.is_empty(),
            "action must have at least one transition"
        );
        let total: f64 = transitions.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-8,
            "transition probabilities must sum to 1 (got {total})"
        );
        for &(next, p) in &transitions {
            assert!(next < self.num_states, "next state {next} out of range");
            assert!(p >= -1e-12, "probabilities must be nonnegative");
        }
        let list = transitions
            .into_iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(next, prob)| Transition { next, prob })
            .collect();
        self.actions[s].push((reward, list));
        self
    }

    /// Finalise. Panics if some state has no action.
    pub fn build(self) -> Mdp {
        for (s, acts) in self.actions.iter().enumerate() {
            assert!(!acts.is_empty(), "state {s} has no actions");
        }
        Mdp {
            num_states: self.num_states,
            actions: self.actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_mdp() -> Mdp {
        // State 0: action 0 stays (reward 1), action 1 moves to 1 (reward 0).
        // State 1: single action stays (reward 2).
        let mut b = MdpBuilder::new(2);
        b.add_action(0, 1.0, vec![(0, 1.0)]);
        b.add_action(0, 0.0, vec![(1, 1.0)]);
        b.add_action(1, 2.0, vec![(1, 1.0)]);
        b.build()
    }

    #[test]
    fn builder_and_accessors() {
        let m = two_state_mdp();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_actions(0), 2);
        assert_eq!(m.num_actions(1), 1);
        assert_eq!(m.reward(0, 0), 1.0);
        assert_eq!(m.transitions(0, 1)[0].next, 1);
    }

    #[test]
    fn policy_evaluation_geometric_series() {
        let m = two_state_mdp();
        let beta = 0.5;
        // Policy: stay in 0 forever -> value = 1 / (1 - 0.5) = 2.
        let v = m.evaluate_policy_discounted(&[0, 0], beta);
        assert!((v[0] - 2.0).abs() < 1e-10);
        // Value of state 1 under its only action: 2 / 0.5 = 4.
        assert!((v[1] - 4.0).abs() < 1e-10);
        // Policy: jump to 1 -> value = 0 + 0.5 * 4 = 2.
        let v2 = m.evaluate_policy_discounted(&[1, 0], beta);
        assert!((v2[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn q_values() {
        let m = two_state_mdp();
        let v = vec![10.0, 20.0];
        assert!((m.q_value(0, 0, &v, 0.9) - (1.0 + 9.0)).abs() < 1e-12);
        assert!((m.q_value(0, 1, &v, 0.9) - 18.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn bad_probabilities_rejected() {
        let mut b = MdpBuilder::new(1);
        b.add_action(0, 0.0, vec![(0, 0.5)]);
    }
}
