//! Restless bandits: Whittle's relaxation and index heuristic
//! (Whittle 1988, Weber–Weiss 1990, Bertsimas–Niño-Mora 2000).
//!
//! Unlike the classical model, *passive* projects keep changing state, and
//! `m >= 1` of the `N` projects must be engaged at every epoch; the Gittins
//! theorem no longer applies and the problem is PSPACE-hard in general.
//! The survey describes the now-standard toolkit; this module implements
//! it for the time-average criterion:
//!
//! * **Subsidy problems and indexability** — for a passivity subsidy `λ`,
//!   each project becomes a two-action average-reward MDP
//!   ([`subsidy_policy`]); the project is *indexable* if the set of states
//!   where passivity is optimal grows monotonically with `λ`
//!   ([`is_indexable`]).
//! * **Whittle index** ([`whittle_indices`]) — the subsidy that makes the
//!   two actions equally attractive in a given state, found by bisection.
//! * **LP relaxation bound** ([`whittle_relaxation_bound`],
//!   [`relaxation_bound_identical`]) — relax "exactly `m` active each
//!   period" to "`m` active on average"; the resulting LP over state-action
//!   frequencies upper-bounds every admissible policy and is solved with
//!   `ss-lp`.
//! * **Index policies and simulation** ([`simulate_restless`]) — the
//!   Whittle rule (activate the `m` projects with the largest current
//!   indices), the myopic rule and a random baseline, evaluated by long-run
//!   simulation.
//! * **Weber–Weiss asymptotics** ([`asymptotic_sweep`]) — `N → ∞` with
//!   `m/N` fixed: the per-project reward of the Whittle rule approaches the
//!   relaxation bound, reproducing the asymptotic-optimality shape quoted
//!   in the survey (experiment E10).

use rand::Rng;
use ss_lp::{LinearProgram, Relation};
use ss_mdp::average::relative_value_iteration;
use ss_mdp::mdp::MdpBuilder;

/// A restless project: separate reward vectors and transition kernels for
/// the active and passive actions.
#[derive(Debug, Clone)]
pub struct RestlessProject {
    active_rewards: Vec<f64>,
    active_transitions: Vec<Vec<(usize, f64)>>,
    passive_rewards: Vec<f64>,
    passive_transitions: Vec<Vec<(usize, f64)>>,
}

impl RestlessProject {
    /// Create a restless project; rows must be probability distributions.
    ///
    /// Rows are validated (entries `>= -1e-12`, sums within `1e-8` of 1) and
    /// then *normalised*: tiny negative entries are clamped to 0 and every
    /// row is rescaled to sum to 1, so [`Self::sample_next`] never has to
    /// cope with rows carrying slightly less than unit mass.
    pub fn new(
        active_rewards: Vec<f64>,
        active_transitions: Vec<Vec<(usize, f64)>>,
        passive_rewards: Vec<f64>,
        passive_transitions: Vec<Vec<(usize, f64)>>,
    ) -> Self {
        let k = active_rewards.len();
        assert!(k > 0);
        assert_eq!(passive_rewards.len(), k);
        assert_eq!(active_transitions.len(), k);
        assert_eq!(passive_transitions.len(), k);
        let normalize = |rows: Vec<Vec<(usize, f64)>>| -> Vec<Vec<(usize, f64)>> {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| {
                    assert!(row.iter().all(|&(j, p)| j < k && p >= -1e-12));
                    let row: Vec<(usize, f64)> =
                        row.into_iter().map(|(j, p)| (j, p.max(0.0))).collect();
                    let total: f64 = row.iter().map(|(_, p)| p).sum();
                    assert!((total - 1.0).abs() < 1e-8, "row {i} sums to {total}");
                    row.into_iter().map(|(j, p)| (j, p / total)).collect()
                })
                .collect()
        };
        Self {
            active_rewards,
            active_transitions: normalize(active_transitions),
            passive_rewards,
            passive_transitions: normalize(passive_transitions),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.active_rewards.len()
    }

    /// Reward of the active action in state `i`.
    pub fn active_reward(&self, i: usize) -> f64 {
        self.active_rewards[i]
    }

    /// Reward of the passive action in state `i`.
    pub fn passive_reward(&self, i: usize) -> f64 {
        self.passive_rewards[i]
    }

    /// Active transition row.
    pub fn active_transitions(&self, i: usize) -> &[(usize, f64)] {
        &self.active_transitions[i]
    }

    /// Passive transition row.
    pub fn passive_transitions(&self, i: usize) -> &[(usize, f64)] {
        &self.passive_transitions[i]
    }

    /// Sample the next state given the current state and chosen action.
    ///
    /// The uniform draw is rescaled by the row's floating-point mass
    /// (re-summing a constructor-normalised row can still land one ulp away
    /// from 1), so the CDF walk always terminates on a positive-probability
    /// entry — it cannot fall through past the end of the row or land on a
    /// zero-probability state.
    pub fn sample_next<R: Rng + ?Sized>(&self, i: usize, active: bool, rng: &mut R) -> usize {
        let row = if active {
            &self.active_transitions[i]
        } else {
            &self.passive_transitions[i]
        };
        let total: f64 = row.iter().map(|&(_, p)| p).sum();
        let u: f64 = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        for &(j, p) in row {
            acc += p;
            if p > 0.0 && u <= acc {
                return j;
            }
        }
        // Unreachable in exact arithmetic (`u < total` and `acc` reaches
        // `total` on the last positive entry); kept as a defensive
        // renormalised fallback that can never pick a zero-mass state.
        row.iter()
            .rev()
            .find(|&&(_, p)| p > 0.0)
            .expect("transition row must carry positive mass")
            .0
    }

    /// Bounds within which every Whittle index must lie (reward spread).
    fn subsidy_bounds(&self) -> (f64, f64) {
        let max_a = self
            .active_rewards
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min_a = self
            .active_rewards
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max_p = self
            .passive_rewards
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min_p = self
            .passive_rewards
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let spread = (max_a - min_p).abs().max((max_p - min_a).abs()).max(1.0);
        (-4.0 * spread, 4.0 * spread)
    }
}

/// Span tolerance and sweep budget of the relative value iterations behind
/// [`subsidy_policy`].
const RVI_TOLERANCE: f64 = 1e-10;
const RVI_MAX_SWEEPS: usize = 200_000;

/// [`subsidy_policy`] plus whether the value iteration actually converged.
/// At very large `|subsidy|` the bias of a transient state needs on the
/// order of `|subsidy| / gain-gap` sweeps to propagate, so a timed-out
/// solve can report a spurious policy — callers that expand the subsidy
/// bounds must not trust an unconverged solve.
fn subsidy_policy_checked(project: &RestlessProject, subsidy: f64) -> (Vec<bool>, bool) {
    let k = project.num_states();
    let mut builder = MdpBuilder::new(k);
    for i in 0..k {
        // Action 0: active.
        builder.add_action(
            i,
            project.active_reward(i),
            project.active_transitions(i).to_vec(),
        );
        // Action 1: passive (+ subsidy).
        builder.add_action(
            i,
            project.passive_reward(i) + subsidy,
            project.passive_transitions(i).to_vec(),
        );
    }
    let mdp = builder.build();
    let sol = relative_value_iteration(&mdp, RVI_TOLERANCE, RVI_MAX_SWEEPS);
    let passive = sol.policy.iter().map(|&a| a == 1).collect();
    (passive, sol.iterations < RVI_MAX_SWEEPS)
}

/// Solve the subsidy-`λ` single-project average-reward problem; returns the
/// optimal action per state (`true` = passive).
pub fn subsidy_policy(project: &RestlessProject, subsidy: f64) -> Vec<bool> {
    subsidy_policy_checked(project, subsidy).0
}

/// Outcome of expanding the initial subsidy bounds: the widest interval
/// whose endpoint subsidy problems were solved to convergence, together
/// with the optimal passivity pattern observed at each endpoint.
struct SubsidyBracket {
    lo: f64,
    hi: f64,
    passive_at_lo: Vec<bool>,
    passive_at_hi: Vec<bool>,
}

/// Expand the initial subsidy bounds until the subsidy-problem policy is
/// all-active at the lower end and all-passive at the upper end (the Whittle
/// indices of every state then lie inside the returned interval) — or until
/// the endpoint solves stop converging or the doubling budget runs out,
/// whichever comes first.  A state that is still active at the converged
/// upper endpoint (or still passive at the converged lower endpoint) has no
/// crossing inside the bracket: [`whittle_indices`] saturates it to a
/// sentinel instead of bisecting.
fn subsidy_bracket(project: &RestlessProject) -> SubsidyBracket {
    let expand = |start: f64, grow: fn(f64) -> f64, done: fn(&[bool]) -> bool| {
        let mut bound = start;
        let mut best: Option<(f64, Vec<bool>)> = None;
        let mut fallback: Option<(f64, Vec<bool>)> = None;
        for _ in 0..60 {
            let (policy, converged) = subsidy_policy_checked(project, bound);
            if fallback.is_none() {
                // Remembered so an all-unconverged expansion still returns
                // the initial bound's (best-effort) policy without
                // re-solving it.
                fallback = Some((bound, policy.clone()));
            }
            if !converged {
                // Larger magnitudes only get harder for the value
                // iteration; keep the widest converged endpoint.
                break;
            }
            let finished = done(&policy);
            best = Some((bound, policy));
            if finished {
                break;
            }
            bound = grow(bound);
        }
        best.or(fallback)
            .expect("expansion evaluates at least one bound")
    };
    let (lo0, hi0) = project.subsidy_bounds();
    let (hi, passive_at_hi) = expand(hi0, |b| b * 2.0 + 1.0, |p| p.iter().all(|&x| x));
    let (lo, passive_at_lo) = expand(lo0, |b| b * 2.0 - 1.0, |p| p.iter().all(|&x| !x));
    SubsidyBracket {
        lo,
        hi,
        passive_at_lo,
        passive_at_hi,
    }
}

/// Expand the initial subsidy bounds until the subsidy-problem policy is
/// all-active at the lower end and all-passive at the upper end (the Whittle
/// indices of every state then lie inside the returned interval; see
/// [`subsidy_bracket`] for the convergence-capped expansion rule).
fn expanded_subsidy_bounds(project: &RestlessProject) -> (f64, f64) {
    let bracket = subsidy_bracket(project);
    (bracket.lo, bracket.hi)
}

/// Check indexability numerically: the passive set must grow monotonically
/// (by inclusion) along an increasing grid of `grid_points` subsidies.
pub fn is_indexable(project: &RestlessProject, grid_points: usize) -> bool {
    assert!(grid_points >= 3);
    let (lo, hi) = expanded_subsidy_bounds(project);
    let mut previous: Option<Vec<bool>> = None;
    for g in 0..grid_points {
        let lambda = lo + (hi - lo) * g as f64 / (grid_points - 1) as f64;
        let passive = subsidy_policy(project, lambda);
        if let Some(prev) = &previous {
            for i in 0..passive.len() {
                if prev[i] && !passive[i] {
                    return false;
                }
            }
        }
        previous = Some(passive);
    }
    true
}

/// Whittle indices of every state (the subsidy at which the state switches
/// from active to passive), found by bisection.  For indexable projects the
/// result is the Whittle index; for non-indexable projects it is still a
/// well-defined heuristic index (the smallest subsidy making passivity
/// optimal at that state).
///
/// **Sentinels.**  A state with no active/passive crossing inside the
/// expanded subsidy interval has no finite index there, and bisection would
/// silently converge to the interval endpoint — a meaningless number that
/// can exceed every real index by orders of magnitude.  Such states are
/// detected up front and saturated to a documented sentinel instead:
/// [`f64::INFINITY`] for a state that is still active at the upper bound
/// (activity is dominant: the state outranks every finite index), and
/// [`f64::NEG_INFINITY`] for a state that is already passive at the lower
/// bound (passivity is dominant: the state ranks below every finite index).
/// Both sentinels order correctly under the [`RestlessPolicy::WhittleIndex`]
/// priority rule.
pub fn whittle_indices(project: &RestlessProject) -> Vec<f64> {
    let k = project.num_states();
    let bracket = subsidy_bracket(project);
    let (lo0, hi0) = (bracket.lo, bracket.hi);
    (0..k)
        .map(|state| {
            if !bracket.passive_at_hi[state] {
                // No crossing below hi0: never passive (non-indexable corner).
                return f64::INFINITY;
            }
            if bracket.passive_at_lo[state] {
                // No crossing above lo0: never active.
                return f64::NEG_INFINITY;
            }
            let mut lo = lo0;
            let mut hi = hi0;
            // Invariant target: passive at `state` for subsidy >= index.
            for _ in 0..50 {
                let mid = 0.5 * (lo + hi);
                let passive = subsidy_policy(project, mid);
                if passive[state] {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            0.5 * (lo + hi)
        })
        .collect()
}

/// The Whittle LP relaxation bound on the long-run average reward of `N`
/// (possibly heterogeneous) projects with exactly `m` active per period.
///
/// Variables are state-action occupation frequencies `x^n_{i,a}`; the
/// coupling constraint requires the *average* number of active projects to
/// equal `m`.  The optimal value upper-bounds every admissible policy.
pub fn whittle_relaxation_bound(projects: &[RestlessProject], m: usize) -> f64 {
    assert!(!projects.is_empty() && m >= 1 && m <= projects.len());
    // Variable layout: for project n with k_n states, active vars then
    // passive vars: x[n][i][a], flattened.
    let mut var_offset = Vec::with_capacity(projects.len());
    let mut total_vars = 0usize;
    for p in projects {
        var_offset.push(total_vars);
        total_vars += 2 * p.num_states();
    }
    let idx = |n: usize, i: usize, active: bool, projects: &[RestlessProject]| -> usize {
        var_offset[n]
            + if active {
                i
            } else {
                projects[n].num_states() + i
            }
    };

    // Objective: maximise total expected reward rate.
    let mut objective = vec![0.0; total_vars];
    for (n, p) in projects.iter().enumerate() {
        for i in 0..p.num_states() {
            objective[idx(n, i, true, projects)] = p.active_reward(i);
            objective[idx(n, i, false, projects)] = p.passive_reward(i);
        }
    }
    let mut lp = LinearProgram::maximize(objective);

    for (n, p) in projects.iter().enumerate() {
        let k = p.num_states();
        // Normalisation: sum of frequencies = 1.
        let mut row = vec![0.0; total_vars];
        for i in 0..k {
            row[idx(n, i, true, projects)] = 1.0;
            row[idx(n, i, false, projects)] = 1.0;
        }
        lp.add_constraint(row, Relation::Eq, 1.0);
        // Balance: outflow of state j equals inflow.
        for j in 0..k {
            let mut row = vec![0.0; total_vars];
            row[idx(n, j, true, projects)] += 1.0;
            row[idx(n, j, false, projects)] += 1.0;
            for i in 0..k {
                for &(next, prob) in p.active_transitions(i) {
                    if next == j {
                        row[idx(n, i, true, projects)] -= prob;
                    }
                }
                for &(next, prob) in p.passive_transitions(i) {
                    if next == j {
                        row[idx(n, i, false, projects)] -= prob;
                    }
                }
            }
            lp.add_constraint(row, Relation::Eq, 0.0);
        }
    }
    // Coupling: average number of active projects = m.
    let mut row = vec![0.0; total_vars];
    for (n, p) in projects.iter().enumerate() {
        for i in 0..p.num_states() {
            row[idx(n, i, true, projects)] = 1.0;
        }
    }
    lp.add_constraint(row, Relation::Eq, m as f64);

    lp.solve()
        .expect("relaxation LP must be feasible")
        .objective
}

/// Relaxation bound per project for `N` identical copies of `project` with
/// an active fraction `alpha = m / N`: solved on a single copy with the
/// coupling constraint `Σ_i x_{i,active} = alpha`, so the `N`-project bound
/// is `N` times the returned value.
pub fn relaxation_bound_identical(project: &RestlessProject, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha));
    let k = project.num_states();
    let idx = |i: usize, active: bool| -> usize {
        if active {
            i
        } else {
            k + i
        }
    };
    let mut objective = vec![0.0; 2 * k];
    for i in 0..k {
        objective[idx(i, true)] = project.active_reward(i);
        objective[idx(i, false)] = project.passive_reward(i);
    }
    let mut lp = LinearProgram::maximize(objective);
    let mut norm = vec![0.0; 2 * k];
    for i in 0..k {
        norm[idx(i, true)] = 1.0;
        norm[idx(i, false)] = 1.0;
    }
    lp.add_constraint(norm, Relation::Eq, 1.0);
    for j in 0..k {
        let mut row = vec![0.0; 2 * k];
        row[idx(j, true)] += 1.0;
        row[idx(j, false)] += 1.0;
        for i in 0..k {
            for &(next, prob) in project.active_transitions(i) {
                if next == j {
                    row[idx(i, true)] -= prob;
                }
            }
            for &(next, prob) in project.passive_transitions(i) {
                if next == j {
                    row[idx(i, false)] -= prob;
                }
            }
        }
        lp.add_constraint(row, Relation::Eq, 0.0);
    }
    let mut coupling = vec![0.0; 2 * k];
    for i in 0..k {
        coupling[idx(i, true)] = 1.0;
    }
    lp.add_constraint(coupling, Relation::Eq, alpha);
    lp.solve()
        .expect("identical-project relaxation LP must be feasible")
        .objective
}

/// How the simulator chooses which `m` projects to activate each period.
#[derive(Debug, Clone)]
pub enum RestlessPolicy {
    /// Activate the `m` projects whose current state has the largest
    /// Whittle index (indices supplied per project, per state).
    WhittleIndex(Vec<Vec<f64>>),
    /// Activate the `m` projects with the largest immediate reward
    /// advantage `R_active(i) - R_passive(i)`.
    Myopic,
    /// Activate `m` projects chosen uniformly at random.
    Random,
}

/// Simulate `horizon` periods of an `N`-project restless bandit activating
/// exactly `m` projects per period; returns the average reward per period.
pub fn simulate_restless<R: Rng + ?Sized>(
    projects: &[RestlessProject],
    m: usize,
    policy: &RestlessPolicy,
    horizon: usize,
    rng: &mut R,
) -> f64 {
    assert!(m >= 1 && m <= projects.len() && horizon > 0);
    let n = projects.len();
    let mut states: Vec<usize> = vec![0; n];
    let mut scored: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut is_active = vec![false; n];
    let mut total = 0.0;
    for _ in 0..horizon {
        // Score every project, in project order (the `Random` draws).
        scored.clear();
        scored.extend((0..n).map(|p| {
            let s = states[p];
            let score = match policy {
                RestlessPolicy::WhittleIndex(indices) => indices[p][s],
                RestlessPolicy::Myopic => {
                    projects[p].active_reward(s) - projects[p].passive_reward(s)
                }
                RestlessPolicy::Random => rng.gen::<f64>(),
            };
            (score, p)
        }));
        // Score descending, then project id, orders distinct ids totally,
        // so the set of the m first does not depend on how the selection
        // reaches it.
        scored.select_nth_unstable_by(m - 1, |a, b| {
            b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
        });
        is_active.fill(false);
        for &(_, p) in &scored[..m] {
            is_active[p] = true;
        }
        for p in 0..n {
            let s = states[p];
            if is_active[p] {
                total += projects[p].active_reward(s);
            } else {
                total += projects[p].passive_reward(s);
            }
            states[p] = projects[p].sample_next(s, is_active[p], rng);
        }
    }
    total / horizon as f64
}

/// One point of the Weber–Weiss asymptotic sweep.
#[derive(Debug, Clone)]
pub struct AsymptoticPoint {
    /// Number of projects.
    pub n_projects: usize,
    /// Number activated per period.
    pub m_active: usize,
    /// Per-project average reward of the Whittle index policy.
    pub whittle_per_project: f64,
    /// Per-project relaxation bound.
    pub bound_per_project: f64,
    /// `(bound - whittle) / bound`.
    pub relative_gap: f64,
}

/// Sweep `N` (with `m = round(alpha N)`) for identical copies of `project`,
/// measuring the Whittle policy against the relaxation bound (E10).
///
/// The Whittle indices and the relaxation bound are computed once; the sweep
/// points are then simulated in parallel on the workspace thread pool, each
/// drawing from its own [`ss_sim::RngStreams`] stream keyed by the point
/// index, so the output is bit-for-bit identical for any thread count.
pub fn asymptotic_sweep(
    project: &RestlessProject,
    alpha: f64,
    project_counts: &[usize],
    horizon: usize,
    seed: u64,
) -> Vec<AsymptoticPoint> {
    let indices = whittle_indices(project);
    let bound = relaxation_bound_identical(project, alpha);
    let streams = ss_sim::RngStreams::new(seed);
    ss_sim::pool::parallel_indexed(project_counts.len(), |point| {
        let n = project_counts[point];
        let m = ((alpha * n as f64).round() as usize).clamp(1, n);
        let projects: Vec<RestlessProject> = (0..n).map(|_| project.clone()).collect();
        let policy = RestlessPolicy::WhittleIndex(vec![indices.clone(); n]);
        let mut rng = streams.stream(point as u64);
        let avg = simulate_restless(&projects, m, &policy, horizon, &mut rng);
        let per_project = avg / n as f64;
        AsymptoticPoint {
            n_projects: n,
            m_active: m,
            whittle_per_project: per_project,
            bound_per_project: bound,
            relative_gap: (bound - per_project) / bound.abs().max(1e-12),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::maintenance_project;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn maint() -> RestlessProject {
        maintenance_project(5, 0.35, 0.4, 0.95)
    }

    #[test]
    fn extreme_subsidies_pin_the_policy() {
        let p = maint();
        let all_passive = subsidy_policy(&p, 1e5);
        assert!(
            all_passive.iter().all(|&x| x),
            "huge subsidy must make every state passive"
        );
        let all_active = subsidy_policy(&p, -1e5);
        assert!(
            all_active.iter().all(|&x| !x),
            "hugely negative subsidy must make every state active"
        );
        // The expanded bounds bracket both regimes.
        let (lo, hi) = expanded_subsidy_bounds(&p);
        assert!(subsidy_policy(&p, hi).iter().all(|&x| x));
        assert!(subsidy_policy(&p, lo).iter().all(|&x| !x));
    }

    #[test]
    fn maintenance_project_is_indexable_and_indices_increase_with_wear() {
        let p = maint();
        assert!(is_indexable(&p, 25));
        let idx = whittle_indices(&p);
        // The more worn the machine, the more valuable a repair visit is, so
        // the Whittle index should (weakly) increase with the wear level,
        // except possibly at level 0 where repairing is pointless.
        for w in idx.windows(2).skip(1) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "indices should increase with wear: {idx:?}"
            );
        }
        assert!(
            idx[4] > idx[1],
            "badly worn machines deserve repair priority: {idx:?}"
        );
    }

    #[test]
    fn relaxation_bound_upper_bounds_simulation() {
        let p = maint();
        let n = 12;
        let m = 4;
        let projects: Vec<RestlessProject> = (0..n).map(|_| p.clone()).collect();
        let bound = whittle_relaxation_bound(&projects, m);
        let bound_identical = n as f64 * relaxation_bound_identical(&p, m as f64 / n as f64);
        assert!(
            (bound - bound_identical).abs() < 1e-6,
            "{bound} vs {bound_identical}"
        );

        let indices = whittle_indices(&p);
        let policy = RestlessPolicy::WhittleIndex(vec![indices; n]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let avg = simulate_restless(&projects, m, &policy, 30_000, &mut rng);
        assert!(
            avg <= bound + 0.05 * bound.abs() + 0.05,
            "simulated reward {avg} cannot exceed the relaxation bound {bound}"
        );
    }

    #[test]
    fn whittle_beats_myopic_and_random_on_maintenance() {
        let p = maint();
        let n = 10;
        let m = 3;
        let projects: Vec<RestlessProject> = (0..n).map(|_| p.clone()).collect();
        let indices = whittle_indices(&p);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let whittle = simulate_restless(
            &projects,
            m,
            &RestlessPolicy::WhittleIndex(vec![indices; n]),
            20_000,
            &mut rng,
        );
        let myopic = simulate_restless(&projects, m, &RestlessPolicy::Myopic, 20_000, &mut rng);
        let random = simulate_restless(&projects, m, &RestlessPolicy::Random, 20_000, &mut rng);
        assert!(whittle > myopic, "Whittle {whittle} vs myopic {myopic}");
        assert!(whittle > random, "Whittle {whittle} vs random {random}");
    }

    #[test]
    fn asymptotic_gap_shrinks() {
        // E10 shape: the per-project gap to the relaxation bound shrinks as
        // N grows with the activation fraction fixed.
        let p = maint();
        let points = asymptotic_sweep(&p, 0.3, &[5, 60], 30_000, 77);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].relative_gap < points[0].relative_gap,
            "gap should shrink with N: {:?}",
            points
        );
        assert!(
            points[1].relative_gap < 0.1,
            "large-N gap should be small: {:?}",
            points[1]
        );
    }

    #[test]
    fn asymptotic_sweep_is_thread_count_invariant() {
        let p = maint();
        let run = |threads: usize| {
            ss_sim::pool::with_threads(threads, || {
                asymptotic_sweep(&p, 0.3, &[5, 10, 20], 5_000, 42)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.n_projects, b.n_projects);
            assert_eq!(a.m_active, b.m_active);
            assert_eq!(
                a.whittle_per_project.to_bits(),
                b.whittle_per_project.to_bits()
            );
            assert_eq!(a.bound_per_project.to_bits(), b.bound_per_project.to_bits());
            assert_eq!(a.relative_gap.to_bits(), b.relative_gap.to_bits());
        }
    }

    /// An `RngCore` whose `f64` draws are the largest representable value
    /// below 1 — the worst case for a CDF walk over a transition row.
    struct MaxRng;
    impl rand::RngCore for MaxRng {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0xFF);
        }
    }

    #[test]
    fn sample_next_never_lands_on_zero_mass_states() {
        // Regression: a row whose probabilities sum to slightly under 1
        // (within the constructor's 1e-8 tolerance) and whose last entry has
        // zero mass.  The pre-fix CDF walk fell through on a near-1 uniform
        // draw and silently returned `row.last()` — the zero-probability
        // state 1.  Post-fix the constructor renormalises the row and the
        // walk skips zero-mass entries, so state 0 must always be drawn.
        let p = RestlessProject::new(
            vec![0.0, 0.0],
            vec![vec![(0, 1.0 - 1e-9), (1, 0.0)], vec![(1, 1.0)]],
            vec![0.0, 0.0],
            vec![vec![(0, 1.0)], vec![(1, 1.0)]],
        );
        let mut rng = MaxRng;
        for _ in 0..4 {
            assert_eq!(
                p.sample_next(0, true, &mut rng),
                0,
                "a zero-probability state must never be sampled"
            );
        }
        // And across ordinary seeded draws the zero-mass state never shows.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        assert!((0..10_000).all(|_| p.sample_next(0, true, &mut rng) == 0));
    }

    #[test]
    fn constructor_clamps_tiny_negative_probabilities() {
        // Entries down to -1e-12 pass validation; they must be clamped to 0
        // so the sampler can never emit the (negative-mass) state.
        let p = RestlessProject::new(
            vec![0.0, 0.0],
            vec![vec![(0, 1.0 + 1e-13), (1, -1e-13)], vec![(1, 1.0)]],
            vec![0.0, 0.0],
            vec![vec![(0, 1.0)], vec![(1, 1.0)]],
        );
        assert!(p.active_transitions(0).iter().all(|&(_, q)| q >= 0.0));
        let total: f64 = p.active_transitions(0).iter().map(|&(_, q)| q).sum();
        assert!((total - 1.0).abs() < 1e-15, "row renormalised: {total}");
        let mut rng = MaxRng;
        assert_eq!(p.sample_next(0, true, &mut rng), 0);
    }

    /// A project whose state 0 is *never* passive: activity moves to the
    /// productive state 1 while passivity loops in place, so at every
    /// subsidy λ the active action at 0 reaches gain `λ + 1` against the
    /// passive gain `λ` — the no-crossing corner of the bisection.
    fn dominant_active_project() -> RestlessProject {
        RestlessProject::new(
            vec![0.0, 0.5],
            vec![vec![(1, 1.0)], vec![(1, 1.0)]],
            vec![0.0, 1.0],
            vec![vec![(0, 1.0)], vec![(1, 1.0)]],
        )
    }

    #[test]
    fn whittle_index_saturates_when_a_state_never_turns_passive() {
        // Regression: pre-fix, bisection on the never-passive state 0
        // converged onto the (hugely expanded) upper subsidy bound and
        // reported a finite garbage index of order 1e18.  Post-fix the
        // no-crossing case is detected up front and saturated to the
        // documented +INFINITY sentinel; the ordinary state 1 keeps a
        // finite index (its crossing is at λ = r_active - r_passive = -0.5).
        let p = dominant_active_project();
        let idx = whittle_indices(&p);
        assert!(
            idx[0].is_infinite() && idx[0] > 0.0,
            "never-passive state must saturate to +inf, got {}",
            idx[0]
        );
        assert!(
            idx[1].is_finite() && (idx[1] - (-0.5)).abs() < 1e-6,
            "state 1 index should be ~-0.5, got {}",
            idx[1]
        );
        // The sentinel orders correctly under the Whittle priority rule:
        // state 0 outranks every finite index.
        assert!(idx[0] > idx[1]);
        // The passive set still grows monotonically here ({} -> {1}), so the
        // project is indexable even though state 0 has no finite index.
        assert!(is_indexable(&p, 15));
    }
}
