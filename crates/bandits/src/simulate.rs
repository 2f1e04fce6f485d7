//! Monte-Carlo roll-outs of the Gittins index rule.
//!
//! The exact joint-state DP in [`crate::exact`] only scales to a handful of
//! projects; the roll-out here evaluates the Gittins rule by simulation,
//! an independent check of the exact values on small bandits (the
//! `gittins-vs-dp` oracle pair of `ss-verify`).

use crate::exact::MultiArmedBandit;
use crate::gittins::gittins_indices_vwb;
use rand::Rng;

/// The Gittins index rule (indices precomputed per project).
pub struct GittinsRule {
    indices: Vec<Vec<f64>>,
}

impl GittinsRule {
    /// Precompute the indices of every project of `mab`.
    pub fn new(mab: &MultiArmedBandit) -> Self {
        let indices = mab
            .projects
            .iter()
            .map(|p| gittins_indices_vwb(p, mab.discount))
            .collect();
        Self { indices }
    }

    /// Engage the project whose current state has the largest index
    /// (ties to the lowest project number).
    pub fn choose(&self, states: &[usize]) -> usize {
        let mut best = 0usize;
        let mut best_val = f64::NEG_INFINITY;
        for (a, &s) in states.iter().enumerate() {
            let v = self.indices[a][s];
            if v > best_val {
                best_val = v;
                best = a;
            }
        }
        best
    }
}

/// Simulate one discounted roll-out of the Gittins rule from
/// `initial_states`, truncating the horizon once `discount^t` falls below
/// `1e-12`.
pub fn rollout_discounted<R: Rng + ?Sized>(
    mab: &MultiArmedBandit,
    policy: &GittinsRule,
    initial_states: &[usize],
    rng: &mut R,
) -> f64 {
    let mut states = initial_states.to_vec();
    let beta = mab.discount;
    let horizon = ((1e-12f64).ln() / beta.ln()).ceil() as usize;
    let mut total = 0.0;
    let mut discount_factor = 1.0;
    for _ in 0..horizon {
        let a = policy.choose(&states);
        let s = states[a];
        total += discount_factor * mab.projects[a].reward(s);
        states[a] = mab.projects[a].sample_next(s, rng);
        discount_factor *= beta;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::random_project;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rollout_matches_exact_policy_evaluation() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mab = MultiArmedBandit::new(
            vec![random_project(3, &mut rng), random_project(3, &mut rng)],
            0.85,
        );
        let init = vec![0usize, 0];
        let exact = mab.gittins_policy_value(&init);
        let policy = GittinsRule::new(&mab);
        let reps = 4000;
        let est = (0..reps)
            .map(|_| rollout_discounted(&mab, &policy, &init, &mut rng))
            .sum::<f64>()
            / reps as f64;
        assert!(
            (est - exact).abs() / exact.abs().max(1e-9) < 0.05,
            "simulated {est} vs exact {exact}"
        );
    }
}
