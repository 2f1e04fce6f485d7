//! Exact joint-state analysis of small restless-bandit instances.
//!
//! [`crate::restless`] treats the `N`-project restless bandit through its
//! single-project subsidy problems (Whittle indices, LP relaxation bounds)
//! and by Monte-Carlo simulation.  This module is the exact counterpart on
//! instances small enough to enumerate the joint state space:
//!
//! * [`whittle_policy_gain`] — the *exact* long-run average reward of the
//!   Whittle priority rule, computed from the stationary distribution of
//!   the Markov chain the (deterministic) rule induces on the joint state
//!   space.  This is the analytic oracle the `ss-verify` pair
//!   `whittle-vs-dp` checks [`crate::restless::simulate_restless`] against.
//! * [`restless_optimal_gain`] — the optimal long-run average reward over
//!   *all* policies activating exactly `m` projects per period, by relative
//!   value iteration on the joint MDP whose actions are the `m`-subsets.
//!   Sandwich: `whittle_policy_gain <= restless_optimal_gain <=`
//!   [`crate::restless::whittle_relaxation_bound`].
//!
//! Both functions assume the induced chains are unichain — guaranteed for
//! the dense random projects generated by
//! [`crate::instances::random_restless_project`], and documented as a
//! requirement otherwise.

use crate::restless::RestlessProject;
use ss_core::exhaustive::k_subsets;
use ss_core::linalg::solve_dense;
use ss_mdp::average::relative_value_iteration;
use ss_mdp::mdp::MdpBuilder;

/// Joint state count (product of the per-project state counts), guarded
/// against blow-up: [`whittle_policy_gain`] runs a *dense* O(n²)-memory /
/// O(n³)-time stationary solve on the joint chain, so the guard is sized
/// for that path (512 states ≈ 2 MB and ~1e8 flops), not for the sparse
/// value-iteration path that could stomach more.
fn joint_state_count(projects: &[RestlessProject]) -> usize {
    let count: usize = projects.iter().map(|p| p.num_states()).product();
    assert!(
        count <= 512,
        "joint state space ({count} states) too large for the dense exact analysis"
    );
    count
}

/// Decode a joint index into per-project states (mixed radix, last project
/// fastest — matching `ss_bandits::exact::MultiArmedBandit`).
fn decode(projects: &[RestlessProject], mut idx: usize) -> Vec<usize> {
    let mut states = vec![0usize; projects.len()];
    for (pos, p) in projects.iter().enumerate().rev() {
        states[pos] = idx % p.num_states();
        idx /= p.num_states();
    }
    states
}

/// The projects the Whittle priority rule activates in the given joint
/// state: the `m` largest current indices, ties broken by the lowest
/// project number — *exactly* the scoring rule of
/// [`crate::restless::simulate_restless`] under
/// [`crate::restless::RestlessPolicy::WhittleIndex`], so the exact chain
/// and the simulated chain follow the same policy.
pub fn whittle_active_set(states: &[usize], indices: &[Vec<f64>], m: usize) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = states
        .iter()
        .enumerate()
        .map(|(p, &s)| (indices[p][s], p))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut active: Vec<usize> = scored.iter().take(m).map(|&(_, p)| p).collect();
    active.sort_unstable();
    active
}

/// Joint transition row of a fixed activation subset: the product of the
/// chosen per-project rows, as `(joint_next, prob)` pairs.
fn joint_row(
    projects: &[RestlessProject],
    states: &[usize],
    active: &[usize],
) -> Vec<(usize, f64)> {
    let mut row: Vec<(usize, f64)> = vec![(0, 1.0)];
    for (p, project) in projects.iter().enumerate() {
        let part = if active.contains(&p) {
            project.active_transitions(states[p])
        } else {
            project.passive_transitions(states[p])
        };
        let radix = project.num_states();
        let mut next = Vec::with_capacity(row.len() * part.len());
        for &(prefix, prob) in &row {
            for &(s, q) in part {
                if q > 0.0 {
                    next.push((prefix * radix + s, prob * q));
                }
            }
        }
        row = next;
    }
    row
}

/// One-period reward of a fixed activation subset in the given joint state.
fn subset_reward(projects: &[RestlessProject], states: &[usize], active: &[usize]) -> f64 {
    projects
        .iter()
        .enumerate()
        .map(|(p, project)| {
            if active.contains(&p) {
                project.active_reward(states[p])
            } else {
                project.passive_reward(states[p])
            }
        })
        .sum()
}

/// Exact long-run average reward per period of the Whittle priority rule
/// (activate the `m` projects with the largest current indices, ties to the
/// lowest project number) on the joint chain it induces.
///
/// `indices[p][s]` is project `p`'s index in state `s` — pass
/// [`crate::restless::whittle_indices`] output, or any other priority
/// table.  The induced chain must be unichain (irreducible on its recurrent
/// class); the stationary distribution is found by a dense linear solve.
pub fn whittle_policy_gain(projects: &[RestlessProject], m: usize, indices: &[Vec<f64>]) -> f64 {
    assert!(m >= 1 && m <= projects.len());
    assert_eq!(indices.len(), projects.len());
    let n = joint_state_count(projects);
    // Build the induced transition matrix and per-state rewards.
    let mut rewards = vec![0.0; n];
    let mut transitions: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    for joint in 0..n {
        let states = decode(projects, joint);
        let active = whittle_active_set(&states, indices, m);
        rewards[joint] = subset_reward(projects, &states, &active);
        transitions.push(joint_row(projects, &states, &active));
    }
    // Stationary distribution: pi (P - I) = 0 with sum(pi) = 1; the last
    // balance equation is replaced by the normalisation (the balance system
    // has rank n-1 for a unichain transition matrix).
    let mut a = vec![vec![0.0; n]; n];
    let mut b = vec![0.0; n];
    for (s, row) in transitions.iter().enumerate() {
        for &(next, p) in row {
            if next < n - 1 {
                a[next][s] += p;
            }
        }
        if s < n - 1 {
            a[s][s] -= 1.0;
        }
        a[n - 1][s] = 1.0;
    }
    b[n - 1] = 1.0;
    let pi = solve_dense(a, b);
    pi.iter().zip(&rewards).map(|(p, r)| p * r).sum()
}

/// Optimal long-run average reward per period over all policies that
/// activate exactly `m` of the `N` projects each period, by relative value
/// iteration on the joint MDP (one action per `m`-subset).  Requires the
/// joint MDP to be unichain under every stationary policy (dense projects).
pub fn restless_optimal_gain(projects: &[RestlessProject], m: usize) -> f64 {
    assert!(m >= 1 && m <= projects.len());
    let n = joint_state_count(projects);
    let subsets = k_subsets(&(0..projects.len()).collect::<Vec<_>>(), m);
    let mut builder = MdpBuilder::new(n);
    for joint in 0..n {
        let states = decode(projects, joint);
        for subset in &subsets {
            builder.add_action(
                joint,
                subset_reward(projects, &states, subset),
                joint_row(projects, &states, subset),
            );
        }
    }
    let mdp = builder.build();
    relative_value_iteration(&mdp, 1e-10, 200_000).gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::random_restless_project;
    use crate::restless::{
        simulate_restless, whittle_indices, whittle_relaxation_bound, RestlessPolicy,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_projects(n: usize, states: usize, seed: u64) -> Vec<RestlessProject> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| random_restless_project(states, &mut rng))
            .collect()
    }

    #[test]
    fn active_set_matches_simulator_tie_breaking() {
        // Equal indices: the lowest project numbers win, exactly as in
        // simulate_restless's selection.
        let indices = vec![vec![1.0], vec![1.0], vec![1.0]];
        assert_eq!(whittle_active_set(&[0, 0, 0], &indices, 2), vec![0, 1]);
        let indices = vec![vec![0.0], vec![2.0], vec![1.0]];
        assert_eq!(whittle_active_set(&[0, 0, 0], &indices, 2), vec![1, 2]);
    }

    #[test]
    fn sandwich_policy_gain_optimal_gain_relaxation_bound() {
        for seed in [3u64, 7, 11] {
            let projects = random_projects(3, 3, seed);
            let indices: Vec<Vec<f64>> = projects.iter().map(whittle_indices).collect();
            let policy_gain = whittle_policy_gain(&projects, 1, &indices);
            let optimal = restless_optimal_gain(&projects, 1);
            let bound = whittle_relaxation_bound(&projects, 1);
            assert!(
                policy_gain <= optimal + 1e-7,
                "seed {seed}: Whittle policy {policy_gain} beats the DP optimum {optimal}"
            );
            assert!(
                optimal <= bound + 1e-6,
                "seed {seed}: DP optimum {optimal} beats the relaxation bound {bound}"
            );
        }
    }

    #[test]
    fn simulation_converges_to_the_exact_policy_gain() {
        let projects = random_projects(2, 3, 5);
        let indices: Vec<Vec<f64>> = projects.iter().map(whittle_indices).collect();
        let exact = whittle_policy_gain(&projects, 1, &indices);
        let policy = RestlessPolicy::WhittleIndex(indices);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let sim = simulate_restless(&projects, 1, &policy, 200_000, &mut rng);
        assert!(
            (sim - exact).abs() / exact.abs().max(1e-9) < 0.02,
            "simulated {sim} vs exact {exact}"
        );
    }

    #[test]
    fn single_project_always_active_gain_is_the_chain_average() {
        // One project, m = 1: the rule always engages it, so the gain is the
        // stationary average of the active rewards.
        let p = RestlessProject::new(
            vec![1.0, 3.0],
            vec![vec![(1, 1.0)], vec![(0, 1.0)]],
            vec![0.0, 0.0],
            vec![vec![(0, 1.0)], vec![(1, 1.0)]],
        );
        let indices = vec![vec![0.0, 0.0]];
        let gain = whittle_policy_gain(std::slice::from_ref(&p), 1, &indices);
        assert!((gain - 2.0).abs() < 1e-9, "gain {gain}");
        let opt = restless_optimal_gain(std::slice::from_ref(&p), 1);
        assert!((opt - 2.0).abs() < 1e-7, "optimal {opt}");
    }
}
