//! Preemptive single-machine scheduling (Sevcik 1974).
//!
//! When preemption is allowed, the optimal policy for `E[Σ w_i C_i]` is a
//! priority-index rule whose index depends on the *attained service* of each
//! job: the Gittins-type index
//!
//! ```text
//! G_i(a) = w_i * sup_{s > 0}  P(P_i <= a + s | P_i > a)
//!                             -----------------------------
//!                             E[ min(P_i - a, s) | P_i > a ]
//! ```
//!
//! For exponential processing times the index is constant (`w_i λ_i`, i.e.
//! WSEPT) and preemption brings no benefit; for decreasing-hazard-rate jobs
//! the index falls as service accrues, so the optimal policy abandons jobs
//! that fail to finish quickly — the source of the strict improvement over
//! WSEPT measured in experiment E2.
//!
//! The index is computed numerically on a quantum grid; the scheduler is a
//! discrete-review simulator with a configurable review period, reading
//! each job's index from a [`GittinsIndexTable`] keyed by the quanta of
//! service the job has received.

use rand::RngCore;
use ss_core::instance::BatchInstance;
use ss_distributions::ServiceDistribution;

/// Trapezoid steps over the first quantum. Every later step at quantum `t`
/// is at most `t / STEPS`.
const STEPS: usize = 32;

/// Numerically evaluate the Gittins/Sevcik index of a job with weight
/// `weight`, processing-time distribution `dist` and attained service `a`.
///
/// The supremum over the stopping quantum `s` is taken over the geometric
/// grid `s_0 = min_quantum`, `s_{g+1} = s_g · ratio` of `grid_points` points
/// spanning `[min_quantum, horizon]`, and over running to completion:
///
/// * **Along the grid**, one running trapezoid integrates the conditional
///   survival `S(a + t) / S(a)`: 32 equal steps over the first quantum
///   `[0, s_0]`, then `k = max(1, ⌈32 (ratio − 1)⌉)` equal steps over each
///   interval `[s_{g−1}, s_g]`, the last of them ending exactly at `s_g`.
///   So a step at quantum `t` is at most `max(t, s_0) / 32`. At each grid
///   point the ratio is the completion probability `1 − S(a + s_g) / S(a)`
///   over the integral so far. `k` is 1 on the fabric's grid
///   `(1e-3, 60, 400)`, 12 on [`PreemptiveConfig::default`]'s and 24 on
///   E2's; it grows with `ratio − 1`, so a coarse grid costs more. All
///   `1 + 32 + (grid_points − 1)·k` survival values come from one
///   [`ServiceDistribution::sf_batch`] call and the one `sf(a)`.
/// * **Running to completion** has the ratio `S(a) / E[(S − a)⁺]`, with
///   `E[(S − a)⁺] = E[S] − ∫_0^a S`: `1 / E[S]` at `a = 0`. For `a > 0` the
///   integral is a right-endpoint sum over steps of at most
///   `max(t, s_0) / 32`. For a nonincreasing `S` that sum never exceeds
///   the integral, so this ratio never exceeds its exact value: a
///   trapezoid there reads the Erlang-10 (mean 1) at `a = 2` 22% high.
///
/// The index exceeds the exact one, `G`, by at most a factor
/// `1 / (1 − (1 + s_0 G) / 64)`, since each trapezoid step errs by at most
/// half its width times the fall of `S` across it. For an
/// increasing-hazard law the supremum is at run to completion, so at
/// `a = 0` the index reads at least `1 / E[S]`, the exact value. For a
/// decreasing-hazard law the supremum is at `s → 0`, the hazard `h(a)`,
/// and the index reads at least `h(a + s_0)`, up to the first quantum's
/// trapezoid. A job whose support lies beyond the horizon reads
/// `1 / E[S − a | S > a]`. Where the hazard is infinite, as for a Weibull
/// of shape below 1 at `a = 0`, the index is the first quantum's ratio,
/// finite on any grid: 31.8 for `Weibull(0.5, 1)` on the fabric's grid.
///
/// # Panics
///
/// If `min_quantum` is not positive, `horizon` is not finite or not above
/// `min_quantum`, `grid_points` is below 2, or `attained` is not finite
/// and nonnegative: each of these returns a meaningless index otherwise.
/// Also if the step count overflows a `usize`, as it does when
/// `horizon / min_quantum` overflows: the steps would never reach the
/// horizon.
pub fn gittins_service_index(
    dist: &dyn ServiceDistribution,
    weight: f64,
    attained: f64,
    min_quantum: f64,
    horizon: f64,
    grid_points: usize,
) -> f64 {
    assert!(
        min_quantum > 0.0,
        "gittins_service_index: min_quantum must be positive, got {min_quantum}"
    );
    assert!(
        horizon.is_finite() && horizon > min_quantum,
        "gittins_service_index: horizon must be finite and above min_quantum {min_quantum}, got {horizon}"
    );
    assert!(
        grid_points >= 2,
        "gittins_service_index: grid_points must be at least 2, got {grid_points}"
    );
    assert!(
        attained.is_finite() && attained >= 0.0,
        "gittins_service_index: attained must be finite and nonnegative, got {attained}"
    );
    let sa = dist.sf(attained);
    if sa <= 1e-12 {
        // The job is (numerically) sure to be complete; give it top priority
        // so the simulator finishes it off.
        return f64::INFINITY;
    }
    let ratio = (horizon / min_quantum).powf(1.0 / (grid_points - 1) as f64);
    let k = (STEPS as f64 * (ratio - 1.0)).ceil().max(1.0) as usize;
    let steps = (grid_points - 1)
        .checked_mul(k)
        .and_then(|n| n.checked_add(STEPS))
        .unwrap_or_else(|| {
            panic!("gittins_service_index: a grid of ratio {ratio} needs more steps than a usize counts")
        });
    let quanta: Vec<f64> = quanta(min_quantum, ratio, k).take(steps).collect();
    let xs: Vec<f64> = quanta.iter().map(|t| attained + t).collect();
    let mut survival = vec![0.0; xs.len()];
    dist.sf_batch(&xs, &mut survival);
    let mut best = 0.0f64;
    let mut integral = 0.0;
    let (mut t_prev, mut s_prev) = (0.0, 1.0); // S(a + 0)/S(a)
    for (step, (&t, &sf)) in (1..).zip(quanta.iter().zip(&survival)) {
        let s = sf / sa;
        integral += 0.5 * (s_prev + s) * (t - t_prev);
        (t_prev, s_prev) = (t, s);
        // Step STEPS ends at s_0, and every k-th step after it at a grid
        // point.
        if step >= STEPS && (step - STEPS).is_multiple_of(k) && integral > 1e-12 {
            best = best.max((1.0 - s) / integral);
        }
    }
    // E[S − a | S > a], the integral of running to completion.
    let residual = (dist.mean() - survival_below(dist, attained, min_quantum)) / sa;
    if residual > 1e-12 {
        best = best.max(1.0 / residual);
    }
    weight * best
}

/// The trapezoid's nodes: `STEPS` equal steps over `[0, s_0]`, then `k`
/// equal steps over each interval `[s_{g−1}, s_g]` of the grid
/// `s_g = s_{g−1} · ratio`, the last ending exactly at `s_g`. Unbounded.
fn quanta(min_quantum: f64, ratio: f64, k: usize) -> impl Iterator<Item = f64> {
    let first = (1..=STEPS).map(move |j| min_quantum * j as f64 / STEPS as f64);
    let grid = std::iter::successors(Some(min_quantum), move |s| Some(s * ratio));
    first.chain(grid.flat_map(move |s| {
        let next = s * ratio;
        (1..=k).map(move |i| {
            if i == k {
                next
            } else {
                s + (next - s) * i as f64 / k as f64
            }
        })
    }))
}

/// `∫_0^a S`, from below for a nonincreasing `S`: the right-endpoint sum
/// over `STEPS` equal steps up to `s_0` and then the nodes
/// `s_0 (1 + 1 / STEPS)^n`, so a step at `t` is at most `max(t, s_0) / STEPS`
/// as along the grid. The last step is cut at `a`. No work at `a = 0`.
fn survival_below(dist: &dyn ServiceDistribution, attained: f64, min_quantum: f64) -> f64 {
    if attained == 0.0 {
        return 0.0;
    }
    let growth = 1.0 + 1.0 / STEPS as f64;
    let nodes: Vec<f64> = (1..=STEPS)
        .map(|j| min_quantum * j as f64 / STEPS as f64)
        .chain((1..).map(|n| min_quantum * growth.powi(n)))
        .take_while(|&t| t < attained)
        .chain([attained])
        .collect();
    let mut survival = vec![0.0; nodes.len()];
    dist.sf_batch(&nodes, &mut survival);
    let mut t_prev = 0.0;
    let mut sum = 0.0;
    for (&t, &s) in nodes.iter().zip(&survival) {
        sum += s * (t - t_prev);
        t_prev = t;
    }
    sum
}

/// Outcome of one simulated preemptive schedule.
#[derive(Debug, Clone, Copy)]
pub struct PreemptiveOutcome {
    /// Realised weighted flowtime `Σ w_i C_i`.
    pub weighted_flowtime: f64,
    /// Realised makespan.
    pub makespan: f64,
    /// Number of preemptions that occurred.
    pub preemptions: usize,
}

/// Configuration of the discrete-review preemptive scheduler.
#[derive(Debug, Clone, Copy)]
pub struct PreemptiveConfig {
    /// Review period (service quantum between scheduling decisions).
    pub review_period: f64,
    /// Quantum grid lower bound for the index computation.
    pub min_quantum: f64,
    /// Quantum grid upper bound (roughly the largest plausible residual).
    pub index_horizon: f64,
    /// Number of grid points for the index supremum.
    pub grid_points: usize,
}

impl Default for PreemptiveConfig {
    fn default() -> Self {
        Self {
            review_period: 0.05,
            min_quantum: 0.05,
            index_horizon: 50.0,
            grid_points: 24,
        }
    }
}

/// The Gittins indices of one instance's jobs under one configuration,
/// keyed by (job, quanta of service received).
///
/// A job's attained service after `m` quanta is the same `m`-fold sum of
/// `review_period` in every review epoch and every replication, and so is
/// its index. Each entry is computed on first use and served from then on.
/// The table borrows the instance and copies the configuration it is built
/// from, so it cannot serve another pair.
#[derive(Debug)]
pub struct GittinsIndexTable<'a> {
    instance: &'a BatchInstance,
    config: PreemptiveConfig,
    /// `attained[m]`: the service after `m` quanta, summed one quantum at a
    /// time as service accrues.
    attained: Vec<f64>,
    /// `indices[job][m]`: the job's index after `m` quanta.
    indices: Vec<Vec<f64>>,
}

impl<'a> GittinsIndexTable<'a> {
    /// An empty table for `instance` under `config`.
    ///
    /// # Panics
    ///
    /// If `config.review_period` is not positive and finite: service would
    /// never accrue, and the simulation would never end. If the index grid
    /// is one [`gittins_service_index`] rejects: `min_quantum` not
    /// positive, `index_horizon` not finite or not above `min_quantum`, or
    /// `grid_points` below 2. So a bad configuration fails here, not at
    /// the first index a simulation looks up.
    pub fn new(instance: &'a BatchInstance, config: &PreemptiveConfig) -> Self {
        assert!(
            config.review_period > 0.0 && config.review_period.is_finite(),
            "PreemptiveConfig::review_period must be positive and finite, got {}",
            config.review_period
        );
        assert!(
            config.min_quantum > 0.0,
            "PreemptiveConfig::min_quantum must be positive, got {}",
            config.min_quantum
        );
        assert!(
            config.index_horizon.is_finite() && config.index_horizon > config.min_quantum,
            "PreemptiveConfig::index_horizon must be finite and above min_quantum {}, got {}",
            config.min_quantum,
            config.index_horizon
        );
        assert!(
            config.grid_points >= 2,
            "PreemptiveConfig::grid_points must be at least 2, got {}",
            config.grid_points
        );
        Self {
            instance,
            config: *config,
            attained: vec![0.0],
            indices: vec![Vec::new(); instance.len()],
        }
    }

    /// The attained service after `quanta` quanta.
    fn attained(&mut self, quanta: usize) -> f64 {
        while self.attained.len() <= quanta {
            let last = self.attained[self.attained.len() - 1];
            self.attained.push(last + self.config.review_period);
        }
        self.attained[quanta]
    }

    /// The index of `job` after `quanta` quanta of service.
    fn index(&mut self, job: usize, quanta: usize) -> f64 {
        while self.indices[job].len() <= quanta {
            let attained = self.attained(self.indices[job].len());
            let j = &self.instance.jobs()[job];
            let index = gittins_service_index(
                j.dist.as_ref(),
                j.weight,
                attained,
                self.config.min_quantum,
                self.config.index_horizon,
                self.config.grid_points,
            );
            self.indices[job].push(index);
        }
        self.indices[job][quanta]
    }
}

/// Simulate one realisation of the Gittins-index preemptive policy on a
/// single machine, for the instance and configuration of `table`.
///
/// Processing times are sampled up front (the scheduler never sees them);
/// at each review epoch the job with the largest current index receives the
/// next quantum of service. Replications of one pair may share one table.
pub fn simulate_gittins_preemptive(
    table: &mut GittinsIndexTable<'_>,
    rng: &mut dyn RngCore,
) -> PreemptiveOutcome {
    let jobs = table.instance.jobs();
    let review_period = table.config.review_period;
    let n = jobs.len();
    let true_sizes: Vec<f64> = jobs.iter().map(|j| j.dist.sample(rng)).collect();
    let mut quanta = vec![0usize; n];
    let mut done = vec![false; n];
    let mut completion = vec![0.0f64; n];
    let mut remaining = n;
    let mut clock = 0.0;
    let mut last_served: Option<usize> = None;
    let mut preemptions = 0;

    while remaining > 0 {
        // Pick the job with the highest index.
        let mut best_job = None;
        let mut best_index = f64::NEG_INFINITY;
        for i in 0..n {
            if done[i] {
                continue;
            }
            let idx = table.index(i, quanta[i]);
            if idx > best_index {
                best_index = idx;
                best_job = Some(i);
            }
        }
        let i = best_job.expect("remaining > 0 implies an unfinished job exists");
        if let Some(prev) = last_served {
            if prev != i && !done[prev] {
                preemptions += 1;
            }
        }
        last_served = Some(i);

        let needed = true_sizes[i] - table.attained(quanta[i]);
        if needed <= review_period {
            clock += needed.max(0.0);
            done[i] = true;
            completion[i] = clock;
            remaining -= 1;
        } else {
            clock += review_period;
            quanta[i] += 1;
        }
    }

    let weighted_flowtime = (0..n).map(|i| jobs[i].weight * completion[i]).sum();
    let makespan = completion.iter().cloned().fold(0.0, f64::max);
    PreemptiveOutcome {
        weighted_flowtime,
        makespan,
        preemptions,
    }
}

/// Simulate one realisation of the *nonpreemptive* WSEPT list on the same
/// sampled processing times, for paired comparisons (common random numbers
/// are achieved by the caller reusing the RNG stream).
pub fn simulate_wsept_nonpreemptive(instance: &BatchInstance, rng: &mut dyn RngCore) -> f64 {
    let order = crate::policies::wsept_order(instance);
    crate::parallel::simulate_list_schedule(instance, &order, 1, rng).weighted_flowtime
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Erlang, Exponential, HyperExponential};

    /// The reference simulator: every unfinished job's index recomputed at
    /// every review epoch from its attained service, which grows by one
    /// `review_period` per quantum.
    fn simulate_recomputing_every_index(
        instance: &BatchInstance,
        config: &PreemptiveConfig,
        rng: &mut dyn RngCore,
    ) -> PreemptiveOutcome {
        let jobs = instance.jobs();
        let n = jobs.len();
        let true_sizes: Vec<f64> = jobs.iter().map(|j| j.dist.sample(rng)).collect();
        let mut attained = vec![0.0f64; n];
        let mut done = vec![false; n];
        let mut completion = vec![0.0f64; n];
        let mut remaining = n;
        let mut clock = 0.0;
        let mut last_served: Option<usize> = None;
        let mut preemptions = 0;
        while remaining > 0 {
            let mut best_job = None;
            let mut best_index = f64::NEG_INFINITY;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let idx = gittins_service_index(
                    jobs[i].dist.as_ref(),
                    jobs[i].weight,
                    attained[i],
                    config.min_quantum,
                    config.index_horizon,
                    config.grid_points,
                );
                if idx > best_index {
                    best_index = idx;
                    best_job = Some(i);
                }
            }
            let i = best_job.unwrap();
            if let Some(prev) = last_served {
                if prev != i && !done[prev] {
                    preemptions += 1;
                }
            }
            last_served = Some(i);
            let needed = true_sizes[i] - attained[i];
            if needed <= config.review_period {
                clock += needed.max(0.0);
                attained[i] = true_sizes[i];
                done[i] = true;
                completion[i] = clock;
                remaining -= 1;
            } else {
                clock += config.review_period;
                attained[i] += config.review_period;
            }
        }
        PreemptiveOutcome {
            weighted_flowtime: (0..n).map(|i| jobs[i].weight * completion[i]).sum(),
            makespan: completion.iter().cloned().fold(0.0, f64::max),
            preemptions,
        }
    }

    /// One table shared across 50 seeds serves the bits of recomputing
    /// every index at every epoch: E2's two laws and configuration, and an
    /// Erlang instance with unequal weights.
    #[test]
    fn shared_table_matches_recomputing_every_index() {
        let e2 = PreemptiveConfig {
            review_period: 0.1,
            min_quantum: 0.1,
            index_horizon: 40.0,
            grid_points: 12,
        };
        let identical = |scv: f64| {
            (0..4)
                .fold(BatchInstance::builder(), |b, _| {
                    b.job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, scv)))
                })
                .build()
        };
        let erlang = BatchInstance::builder()
            .job(1.0, dyn_dist(Erlang::new(2, 2.0)))
            .job(2.5, dyn_dist(Erlang::new(4, 2.0)))
            .job(0.7, dyn_dist(Erlang::new(3, 5.0)))
            .build();
        let erlang_config = PreemptiveConfig {
            review_period: 0.15,
            min_quantum: 0.05,
            index_horizon: 12.0,
            grid_points: 10,
        };
        for (inst, config) in [
            (identical(1.01), e2),
            (identical(8.0), e2),
            (erlang, erlang_config),
        ] {
            let mut table = GittinsIndexTable::new(&inst, &config);
            for seed in 0..50 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut twin = ChaCha8Rng::seed_from_u64(seed);
                let got = simulate_gittins_preemptive(&mut table, &mut rng);
                let want = simulate_recomputing_every_index(&inst, &config, &mut twin);
                assert_eq!(
                    got.weighted_flowtime.to_bits(),
                    want.weighted_flowtime.to_bits(),
                    "seed {seed}"
                );
                assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());
                assert_eq!(got.preemptions, want.preemptions);
            }
        }
    }

    fn table_with(config: PreemptiveConfig) {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::new(1.0)))
            .build();
        GittinsIndexTable::new(&inst, &config);
    }

    fn table_with_review_period(review_period: f64) {
        table_with(PreemptiveConfig {
            review_period,
            ..PreemptiveConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "review_period must be positive and finite")]
    fn zero_review_period_is_rejected() {
        table_with_review_period(0.0);
    }

    #[test]
    #[should_panic(expected = "review_period must be positive and finite")]
    fn negative_review_period_is_rejected() {
        table_with_review_period(-0.1);
    }

    #[test]
    #[should_panic(expected = "review_period must be positive and finite")]
    fn nan_review_period_is_rejected() {
        table_with_review_period(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "PreemptiveConfig::min_quantum must be positive, got 0")]
    fn zero_min_quantum_is_rejected_by_the_table() {
        table_with(PreemptiveConfig {
            min_quantum: 0.0,
            ..PreemptiveConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "PreemptiveConfig::index_horizon must be finite and above")]
    fn infinite_index_horizon_is_rejected_by_the_table() {
        table_with(PreemptiveConfig {
            index_horizon: f64::INFINITY,
            ..PreemptiveConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "PreemptiveConfig::grid_points must be at least 2, got 1")]
    fn one_grid_point_is_rejected_by_the_table() {
        table_with(PreemptiveConfig {
            grid_points: 1,
            ..PreemptiveConfig::default()
        });
    }

    /// The Erlang-4's index on the fabric's grid at `attained`, with
    /// `horizon` in place of the grid's 60.
    fn erlang_index(attained: f64, horizon: f64) -> f64 {
        gittins_service_index(&Erlang::new(4, 4.0), 1.0, attained, 1e-3, horizon, 400)
    }

    /// An infinite horizon made every grid point past the first infinite,
    /// so the index was the first point's ratio alone (1.06e-8 against
    /// 1.0315 for the Erlang-4).
    #[test]
    #[should_panic(expected = "horizon must be finite and above min_quantum 0.001, got inf")]
    fn infinite_horizon_is_rejected() {
        erlang_index(0.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and above min_quantum 0.001, got 0.001")]
    fn horizon_at_min_quantum_is_rejected() {
        erlang_index(0.0, 1e-3);
    }

    #[test]
    #[should_panic(expected = "min_quantum must be positive, got NaN")]
    fn nan_min_quantum_is_rejected() {
        gittins_service_index(&Erlang::new(4, 4.0), 1.0, 0.0, f64::NAN, 60.0, 400);
    }

    #[test]
    #[should_panic(expected = "grid_points must be at least 2, got 1")]
    fn one_grid_point_is_rejected() {
        gittins_service_index(&Erlang::new(4, 4.0), 1.0, 0.0, 1e-3, 60.0, 1);
    }

    /// A ratio `horizon / min_quantum` of `+∞` makes every step past the
    /// first quantum infinite.
    #[test]
    #[should_panic(expected = "a grid of ratio inf needs more steps than a usize counts")]
    fn an_overflowing_grid_ratio_is_rejected() {
        gittins_service_index(&Erlang::new(4, 4.0), 1.0, 0.0, 1e-300, 1e10, 2);
    }

    /// A NaN attained service gave the index +∞, top priority.
    #[test]
    #[should_panic(expected = "attained must be finite and nonnegative, got NaN")]
    fn nan_attained_is_rejected() {
        erlang_index(f64::NAN, 60.0);
    }

    /// A negative attained service gave the Erlang-4 the index 0.17.
    #[test]
    #[should_panic(expected = "attained must be finite and nonnegative, got -5")]
    fn negative_attained_is_rejected() {
        erlang_index(-5.0, 60.0);
    }

    #[test]
    fn exponential_index_is_w_lambda() {
        let d = Exponential::new(2.0);
        for a in [0.0, 0.7, 3.0] {
            let g = gittins_service_index(&d, 1.5, a, 0.01, 20.0, 32);
            assert!((g - 3.0).abs() < 0.05, "index {g} at attained {a}");
        }
    }

    #[test]
    fn dhr_index_decreases_with_attained_service() {
        let d = HyperExponential::with_mean_scv(1.0, 8.0);
        let g0 = gittins_service_index(&d, 1.0, 0.0, 0.01, 40.0, 40);
        let g2 = gittins_service_index(&d, 1.0, 2.0, 0.01, 40.0, 40);
        assert!(g0 > g2, "DHR index should fall: {g0} -> {g2}");
    }

    #[test]
    fn deterministic_jobs_schedule_without_preemption_waste() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Deterministic::new(1.0)))
            .job(1.0, dyn_dist(Deterministic::new(2.0)))
            .build();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut table = GittinsIndexTable::new(&inst, &PreemptiveConfig::default());
        let out = simulate_gittins_preemptive(&mut table, &mut rng);
        // Makespan is the total work regardless of policy.
        assert!((out.makespan - 3.0).abs() < 1e-9);
        // The short job should finish first: 1*1 + 1*3 = 4.
        assert!((out.weighted_flowtime - 4.0).abs() < 1e-6);
    }

    #[test]
    fn preemptive_matches_wsept_for_exponential_jobs() {
        // Memorylessness makes preemption worthless: the two estimates agree
        // within Monte-Carlo noise (E2, exponential row).
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::with_mean(1.0)))
            .job(2.0, dyn_dist(Exponential::with_mean(0.5)))
            .job(1.0, dyn_dist(Exponential::with_mean(2.0)))
            .build();
        let reps = 1500;
        let config = PreemptiveConfig {
            review_period: 0.2,
            min_quantum: 0.2,
            index_horizon: 20.0,
            grid_points: 8,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut table = GittinsIndexTable::new(&inst, &config);
        let mut pre = 0.0;
        let mut non = 0.0;
        for _ in 0..reps {
            pre += simulate_gittins_preemptive(&mut table, &mut rng).weighted_flowtime;
            non += simulate_wsept_nonpreemptive(&inst, &mut rng);
        }
        pre /= reps as f64;
        non /= reps as f64;
        let rel = (pre - non).abs() / non;
        assert!(
            rel < 0.08,
            "preemptive {pre} vs WSEPT {non} (rel diff {rel})"
        );
    }

    #[test]
    fn preemption_helps_for_dhr_jobs() {
        // Strongly DHR jobs: abandoning a job that failed to finish quickly
        // is valuable, so the Gittins preemptive policy beats WSEPT.
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .build();
        let reps = 1500;
        let config = PreemptiveConfig {
            review_period: 0.25,
            min_quantum: 0.25,
            index_horizon: 30.0,
            grid_points: 8,
        };
        let mut rng_a = ChaCha8Rng::seed_from_u64(21);
        let mut rng_b = ChaCha8Rng::seed_from_u64(21);
        let mut table = GittinsIndexTable::new(&inst, &config);
        let mut pre = 0.0;
        let mut non = 0.0;
        for _ in 0..reps {
            pre += simulate_gittins_preemptive(&mut table, &mut rng_a).weighted_flowtime;
            non += simulate_wsept_nonpreemptive(&inst, &mut rng_b);
        }
        pre /= reps as f64;
        non /= reps as f64;
        assert!(
            pre < non * 0.97,
            "expected a clear preemption gain: preemptive {pre} vs WSEPT {non}"
        );
    }
}
