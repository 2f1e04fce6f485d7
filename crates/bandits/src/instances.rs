//! Instance generators for bandit experiments.

use crate::project::BanditProject;
use crate::restless::RestlessProject;
use rand::Rng;

/// A random `k`-state project: rewards uniform on `[0, 1]`, each transition
/// row a normalised vector of uniform weights (dense, so every state is
/// reachable and the chain is irreducible with probability one).
pub fn random_project<R: Rng + ?Sized>(k: usize, rng: &mut R) -> BanditProject {
    assert!(k >= 1);
    let rewards: Vec<f64> = (0..k).map(|_| rng.gen::<f64>()).collect();
    let transitions: Vec<Vec<(usize, f64)>> = (0..k)
        .map(|_| {
            let weights: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() + 1e-3).collect();
            let total: f64 = weights.iter().sum();
            weights
                .iter()
                .enumerate()
                .map(|(j, w)| (j, w / total))
                .collect()
        })
        .collect();
    BanditProject::new(rewards, transitions)
}

/// A "deteriorating machine" project with `k` wear levels: engaging the
/// project in level `i` yields reward `1 - i/(k-1)` and wears the machine
/// one level deeper with probability `wear_prob` (the last level is
/// absorbing).  Deteriorating rewards make the Gittins index monotone,
/// which several tests exploit.
#[cfg(test)]
pub(crate) fn deteriorating_project(k: usize, wear_prob: f64) -> BanditProject {
    assert!(k >= 2 && (0.0..=1.0).contains(&wear_prob));
    let rewards: Vec<f64> = (0..k).map(|i| 1.0 - i as f64 / (k - 1) as f64).collect();
    let transitions: Vec<Vec<(usize, f64)>> = (0..k)
        .map(|i| {
            if i + 1 < k {
                vec![(i, 1.0 - wear_prob), (i + 1, wear_prob)]
            } else {
                vec![(i, 1.0)]
            }
        })
        .collect();
    BanditProject::new(rewards, transitions)
}

/// A restless "machine maintenance" project with `k` deterioration levels.
///
/// * **Passive** (run the machine unattended): produces reward
///   `1 - i/(k-1)` in level `i` and deteriorates one level with probability
///   `decay` (last level absorbing while passive).
/// * **Active** (send the repair crew): costs `repair_cost` (reward
///   `-repair_cost`) and resets the machine to level 0 with probability
///   `repair_success`, otherwise leaves the level unchanged.
///
/// This is the canonical restless-bandit example: passive projects keep
/// evolving, so the Gittins theorem does not apply and the Whittle index is
/// the natural heuristic (experiment E10).
pub fn maintenance_project(
    k: usize,
    decay: f64,
    repair_cost: f64,
    repair_success: f64,
) -> RestlessProject {
    assert!(k >= 2);
    assert!((0.0..=1.0).contains(&decay) && (0.0..=1.0).contains(&repair_success));
    let production = |i: usize| 1.0 - i as f64 / (k - 1) as f64;

    let passive_rewards: Vec<f64> = (0..k).map(production).collect();
    let passive_transitions: Vec<Vec<(usize, f64)>> = (0..k)
        .map(|i| {
            if i + 1 < k {
                vec![(i, 1.0 - decay), (i + 1, decay)]
            } else {
                vec![(i, 1.0)]
            }
        })
        .collect();

    let active_rewards: Vec<f64> = (0..k).map(|_| -repair_cost).collect();
    let active_transitions: Vec<Vec<(usize, f64)>> = (0..k)
        .map(|i| {
            if i == 0 {
                vec![(0, 1.0)]
            } else {
                vec![(0, repair_success), (i, 1.0 - repair_success)]
            }
        })
        .collect();

    RestlessProject::new(
        active_rewards,
        active_transitions,
        passive_rewards,
        passive_transitions,
    )
}

/// A Bayesian Bernoulli-sampling project — the "sequential design of
/// experiments" application that motivated Gittins and Jones (1974).
///
/// The project is an arm with unknown success probability carrying a
/// Beta(`alpha0`, `beta0`) prior.  Its state is the posterior `(s, f)`
/// (observed successes and failures); engaging the arm pulls it once, earns
/// the posterior-mean reward `(s + alpha0) / (s + f + alpha0 + beta0)` in
/// expectation, and moves to `(s+1, f)` or `(s, f+1)` accordingly.  States
/// with `s + f >= depth` are truncated to an absorbing state paying the
/// posterior mean forever (the standard finite-state truncation used to
/// tabulate Bernoulli Gittins indices).
///
/// State indexing: `(s, f)` with `s + f < depth` maps to
/// `(s + f) * (s + f + 1) / 2 + f`; use [`bernoulli_state_index`] to locate
/// a posterior.
pub fn bernoulli_sampling_project(depth: usize, alpha0: f64, beta0: f64) -> BanditProject {
    assert!(depth >= 1 && alpha0 > 0.0 && beta0 > 0.0);
    // Interior states: all (s, f) with s + f < depth, then one absorbing
    // state per boundary posterior (s, f) with s + f == depth.
    let interior: usize = (0..depth).map(|n| n + 1).sum();
    let boundary = depth + 1;
    let total = interior + boundary;
    let interior_index = |s: usize, f: usize| -> usize {
        let n = s + f;
        n * (n + 1) / 2 + f
    };
    let boundary_index = |f: usize| -> usize { interior + f };
    let posterior_mean =
        |s: usize, f: usize| (s as f64 + alpha0) / ((s + f) as f64 + alpha0 + beta0);

    let mut rewards = vec![0.0; total];
    let mut transitions: Vec<Vec<(usize, f64)>> = vec![Vec::new(); total];
    for n in 0..depth {
        for f in 0..=n {
            let s = n - f;
            let idx = interior_index(s, f);
            let p = posterior_mean(s, f);
            rewards[idx] = p;
            let succ = if n + 1 < depth {
                interior_index(s + 1, f)
            } else {
                boundary_index(f)
            };
            let fail = if n + 1 < depth {
                interior_index(s, f + 1)
            } else {
                boundary_index(f + 1)
            };
            transitions[idx] = vec![(succ, p), (fail, 1.0 - p)];
        }
    }
    for f in 0..=depth {
        let s = depth - f;
        let idx = boundary_index(f);
        rewards[idx] = posterior_mean(s, f);
        transitions[idx] = vec![(idx, 1.0)];
    }
    BanditProject::new(rewards, transitions)
}

/// Index of the posterior `(successes, failures)` in the state space of
/// [`bernoulli_sampling_project`] (requires `successes + failures < depth`).
pub fn bernoulli_state_index(successes: usize, failures: usize, depth: usize) -> usize {
    assert!(
        successes + failures < depth,
        "posterior lies beyond the truncation depth"
    );
    let n = successes + failures;
    n * (n + 1) / 2 + failures
}

/// A random restless project with `k` states (uniform rewards in `[0,1]`
/// for both actions, dense random transition rows).
pub fn random_restless_project<R: Rng + ?Sized>(k: usize, rng: &mut R) -> RestlessProject {
    let row = |rng: &mut R| -> Vec<(usize, f64)> {
        let weights: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() + 1e-3).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .enumerate()
            .map(|(j, w)| (j, w / total))
            .collect()
    };
    let active_rewards: Vec<f64> = (0..k).map(|_| rng.gen::<f64>()).collect();
    let passive_rewards: Vec<f64> = (0..k).map(|_| 0.5 * rng.gen::<f64>()).collect();
    let active_transitions: Vec<Vec<(usize, f64)>> = (0..k).map(|_| row(rng)).collect();
    let passive_transitions: Vec<Vec<(usize, f64)>> = (0..k).map(|_| row(rng)).collect();
    RestlessProject::new(
        active_rewards,
        active_transitions,
        passive_rewards,
        passive_transitions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_project_is_well_formed() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = random_project(5, &mut rng);
        assert_eq!(p.num_states(), 5);
        for i in 0..5 {
            let total: f64 = p.transitions(i).iter().map(|(_, q)| q).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deteriorating_project_rewards_decrease() {
        let p = deteriorating_project(4, 0.3);
        let r = p.rewards();
        for w in r.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(p.transitions(3), &[(3, 1.0)]);
    }

    #[test]
    fn maintenance_project_shapes() {
        let p = maintenance_project(5, 0.4, 0.3, 0.9);
        assert_eq!(p.num_states(), 5);
        // Active in a worn state mostly resets to 0.
        let active = p.active_transitions(4);
        assert!(active
            .iter()
            .any(|&(j, q)| j == 0 && (q - 0.9).abs() < 1e-12));
        // Passive production falls with wear.
        assert!(p.passive_reward(0) > p.passive_reward(4));
    }

    #[test]
    fn bernoulli_project_shapes_and_rewards() {
        let depth = 4;
        let p = bernoulli_sampling_project(depth, 1.0, 1.0);
        // Interior states 1+2+3+4 = 10 plus 5 boundary states.
        assert_eq!(p.num_states(), 15);
        // Fresh arm with a uniform prior has posterior mean 1/2.
        let root = bernoulli_state_index(0, 0, depth);
        assert!((p.reward(root) - 0.5).abs() < 1e-12);
        // Two successes, no failures: mean 3/4.
        let idx = bernoulli_state_index(2, 0, depth);
        assert!((p.reward(idx) - 0.75).abs() < 1e-12);
        // Transition probabilities equal the posterior mean.
        let t = p.transitions(root);
        assert!((t[0].1 - 0.5).abs() < 1e-12 && (t[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gittins_index_of_bernoulli_arm_shows_exploration_bonus() {
        use crate::gittins::gittins_indices_vwb;
        let depth = 8;
        let p = bernoulli_sampling_project(depth, 1.0, 1.0);
        let idx = gittins_indices_vwb(&p, 0.9);
        // The index always dominates the myopic posterior mean...
        let fresh = bernoulli_state_index(0, 0, depth);
        assert!(idx[fresh] >= p.reward(fresh) - 1e-9);
        assert!(
            idx[fresh] > 0.5 + 1e-3,
            "a fresh arm carries an exploration bonus"
        );
        // ...and, at equal posterior mean, the less-sampled arm has the
        // larger index: (1 success, 1 failure) vs (3 successes, 3 failures).
        let lightly_sampled = bernoulli_state_index(1, 1, depth);
        let heavily_sampled = bernoulli_state_index(3, 3, depth);
        assert!((p.reward(lightly_sampled) - p.reward(heavily_sampled)).abs() < 1e-12);
        assert!(
            idx[lightly_sampled] > idx[heavily_sampled] + 1e-4,
            "exploration bonus should favour the uncertain arm: {} vs {}",
            idx[lightly_sampled],
            idx[heavily_sampled]
        );
    }

    #[test]
    fn random_restless_project_is_well_formed() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = random_restless_project(4, &mut rng);
        for i in 0..4 {
            let a: f64 = p.active_transitions(i).iter().map(|(_, q)| q).sum();
            let b: f64 = p.passive_transitions(i).iter().map(|(_, q)| q).sum();
            assert!((a - 1.0).abs() < 1e-9 && (b - 1.0).abs() < 1e-9);
        }
    }
}
