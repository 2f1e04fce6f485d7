//! Finite-state Markov reward projects (bandit arms).

/// A single bandit project: engaging it in state `i` earns reward
/// `rewards[i]` and moves the state according to `transitions[i]`;
/// un-engaged projects stay frozen (the classical model).
#[derive(Debug, Clone)]
pub struct BanditProject {
    rewards: Vec<f64>,
    transitions: Vec<Vec<(usize, f64)>>,
}

impl BanditProject {
    /// Create a project from per-state rewards and transition rows (each
    /// row's probabilities must sum to one).
    pub fn new(rewards: Vec<f64>, transitions: Vec<Vec<(usize, f64)>>) -> Self {
        let k = rewards.len();
        assert!(k > 0, "project needs at least one state");
        assert_eq!(transitions.len(), k, "one transition row per state");
        for (i, row) in transitions.iter().enumerate() {
            assert!(!row.is_empty(), "state {i} has no transitions");
            let total: f64 = row.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-8, "row {i} sums to {total}");
            for &(j, p) in row {
                assert!(j < k, "transition target out of range");
                assert!(p >= -1e-12, "negative probability");
            }
        }
        Self {
            rewards,
            transitions,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rewards.len()
    }

    /// Reward earned when engaged in state `i`.
    pub fn reward(&self, i: usize) -> f64 {
        self.rewards[i]
    }

    /// All rewards.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Transition row of state `i` (used when the project is engaged).
    pub fn transitions(&self, i: usize) -> &[(usize, f64)] {
        &self.transitions[i]
    }

    /// Sample the next state when engaged in state `i`.
    pub fn sample_next<R: rand::Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for &(j, p) in &self.transitions[i] {
            acc += p;
            if u <= acc {
                return j;
            }
        }
        self.transitions[i].last().unwrap().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_state() -> BanditProject {
        BanditProject::new(
            vec![1.0, 0.2],
            vec![vec![(0, 0.4), (1, 0.6)], vec![(1, 1.0)]],
        )
    }

    #[test]
    fn accessors() {
        let p = two_state();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.reward(0), 1.0);
        assert_eq!(p.transitions(1), &[(1, 1.0)]);
    }

    #[test]
    fn sampling_respects_probabilities() {
        let p = two_state();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 100_000;
        let stays = (0..n).filter(|_| p.sample_next(0, &mut rng) == 0).count();
        let frac = stays as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_rows() {
        let _ = BanditProject::new(vec![1.0], vec![vec![(0, 0.5)]]);
    }
}
