//! Threshold (switching-curve) policies for queues with setup (changeover)
//! times, motivated by the heavy-traffic / diffusion analysis of Reiman and
//! Wein (1998).
//!
//! The survey lists changeover times as one of the model features that break
//! the plain cµ-rule, and diffusion approximations as one of the approaches
//! used to design good heuristics for such models.  Reiman and Wein analyse a
//! two-class M/G/1 queue with setups in the heavy-traffic limit and obtain a
//! policy of *switching-curve* type: the expensive (high-cµ) class is served
//! exhaustively, while service of the cheap class is **interrupted** — paying
//! a changeover — only once the expensive backlog has grown past a threshold
//! that balances the capacity lost to the setup against the holding cost of
//! keeping expensive work waiting.
//!
//! This module provides
//!
//! * [`simulate_setup_policy`] — an event-driven simulator of a multiclass
//!   M/G/1 queue with class switchover times under the switch-every-job rule,
//!   exhaustive polling, or an interrupt-[`SetupPolicy::Threshold`] policy;
//! * [`sqrt_rule_thresholds`] — an economic-lot-sizing (square-root)
//!   approximation to the diffusion thresholds;
//! * [`threshold_sweep`] — a utility used by experiment E20 to compare the
//!   square-root thresholds with the empirically best threshold.
//!
//! The three disciplines interpolate: a threshold of one interrupts for every
//! waiting higher-priority job (the cµ-every-job extreme), an infinite
//! threshold never interrupts (exhaustive polling), and the square-root
//! threshold sits in between, which is where the cost optimum lies once
//! holding costs are asymmetric and setups are non-negligible.
//!
//! **Substitution note (recorded in DESIGN.md):** the original paper solves a
//! Brownian control problem and obtains the exact diffusion switching curve;
//! this module replaces that step with a closed-form square-root (EOQ-style)
//! threshold that captures the same qualitative behaviour — the threshold
//! grows like the square root of the setup time, and the resulting policy
//! dominates both the switch-every-job and the never-interrupt extremes —
//! which is the shape the survey cites the work for.

use crate::cobham::total_load;
use crate::sampling::sample_exp;
use rand::RngCore;
use ss_core::job::JobClass;
use ss_distributions::DynDist;
use ss_sim::stats::TimeWeighted;
use std::collections::VecDeque;

/// The scheduling policy the setup-aware simulator runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupPolicy {
    /// Switch to the highest-cµ nonempty class after every completion
    /// (the myopic rule; pays a setup on almost every switch).
    CmuEveryJob,
    /// Serve the configured class exhaustively, then switch to the
    /// highest-cµ nonempty class (never interrupt a nonempty queue).
    Exhaustive,
    /// Serve the configured class exhaustively **unless** a class with a
    /// strictly higher cµ index has accumulated at least its threshold of
    /// waiting jobs, in which case the server pays a changeover and moves to
    /// it.  `thresholds[j]` is the backlog of class `j` that justifies
    /// interrupting a lower-priority run (values below one behave like one;
    /// infinite values reproduce [`SetupPolicy::Exhaustive`]).  When the
    /// configured queue empties the server behaves exactly like the
    /// exhaustive rule (it never idles while work is present).
    Threshold {
        /// Per-class interruption thresholds (in number of waiting jobs).
        thresholds: Vec<f64>,
    },
}

/// Result of one setup-policy simulation run.
#[derive(Debug, Clone)]
pub struct SetupSimResult {
    /// Time-average number in system per class.
    pub mean_number: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
    /// Setups performed after warm-up.
    pub setups: u64,
    /// Fraction of (post warm-up) time spent performing setups.
    pub setup_time_fraction: f64,
}

/// Simulate a multiclass M/G/1 queue with switchover times under `policy`.
///
/// `setup[j]` is the distribution of the changeover time incurred when the
/// server reconfigures *to* class `j`.
pub fn simulate_setup_policy(
    classes: &[JobClass],
    setup: &[DynDist],
    policy: &SetupPolicy,
    horizon: f64,
    warmup: f64,
    rng: &mut dyn RngCore,
) -> SetupSimResult {
    let n = classes.len();
    assert_eq!(setup.len(), n);
    assert!(horizon > warmup);
    if let SetupPolicy::Threshold { thresholds } = policy {
        assert_eq!(thresholds.len(), n, "one threshold per class");
        assert!(thresholds.iter().all(|t| *t >= 0.0 && !t.is_nan()));
    }
    // cµ ranking (lower rank = higher priority) used both to pick targets
    // and to decide which classes may interrupt which.
    let order = crate::cmu::cmu_order(classes);
    let mut rank = vec![0usize; n];
    for (pos, &c) in order.iter().enumerate() {
        rank[c] = pos;
    }

    let mut queues: Vec<VecDeque<f64>> = vec![VecDeque::new(); n];
    let mut next_arrival: Vec<f64> = classes
        .iter()
        .map(|c| {
            if c.arrival_rate > 0.0 {
                sample_exp(rng, c.arrival_rate)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut counts = vec![0usize; n];
    let mut trackers: Vec<TimeWeighted> = (0..n).map(|_| TimeWeighted::new(0.0, 0.0)).collect();
    let mut warmup_done = false;
    let mut setups = 0u64;
    let mut setup_time = 0.0;

    let mut configured: Option<usize> = None;
    // (completion_time, class, is_setup)
    let mut busy: Option<(f64, usize, bool)> = None;
    let mut clock;

    loop {
        let (arr_class, arr_time) = next_arrival
            .iter()
            .cloned()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let busy_time = busy.map(|(t, _, _)| t).unwrap_or(f64::INFINITY);
        let t = arr_time.min(busy_time);
        if t > horizon {
            break;
        }
        clock = t;
        if !warmup_done && clock >= warmup {
            for tr in &mut trackers {
                tr.update(clock, tr.current());
                tr.reset(clock);
            }
            warmup_done = true;
        }

        if arr_time <= busy_time {
            counts[arr_class] += 1;
            trackers[arr_class].update(clock, counts[arr_class] as f64);
            queues[arr_class].push_back(clock);
            next_arrival[arr_class] = clock + sample_exp(rng, classes[arr_class].arrival_rate);
        } else {
            let (_, class, was_setup) = busy.take().unwrap();
            if was_setup {
                configured = Some(class);
            } else {
                counts[class] -= 1;
                trackers[class].update(clock, counts[class] as f64);
            }
        }

        if busy.is_none() {
            // Pick the class the server should work towards next.
            let highest_nonempty = (0..n)
                .filter(|&c| !queues[c].is_empty())
                .min_by_key(|&c| rank[c]);
            let target = match policy {
                SetupPolicy::CmuEveryJob => highest_nonempty,
                SetupPolicy::Exhaustive => match configured {
                    Some(c) if !queues[c].is_empty() => Some(c),
                    _ => highest_nonempty,
                },
                SetupPolicy::Threshold { thresholds } => match configured {
                    Some(c) if !queues[c].is_empty() => {
                        // Interrupt the current run only for a strictly
                        // higher-priority class whose backlog has reached its
                        // threshold (at least one job always required).
                        let interrupter = (0..n)
                            .filter(|&j| {
                                rank[j] < rank[c]
                                    && queues[j].len() as f64 >= thresholds[j].max(1.0)
                            })
                            .min_by_key(|&j| rank[j]);
                        Some(interrupter.unwrap_or(c))
                    }
                    _ => highest_nonempty,
                },
            };
            if let Some(target) = target {
                if configured == Some(target) {
                    queues[target].pop_front();
                    let service = classes[target].service.sample(rng);
                    busy = Some((clock + service, target, false));
                } else {
                    let s = setup[target].sample(rng);
                    if clock >= warmup {
                        setups += 1;
                        setup_time += s;
                    }
                    busy = Some((clock + s, target, true));
                }
            }
        }
    }

    let measured = horizon - warmup;
    let mean_number: Vec<f64> = trackers.iter().map(|tr| tr.time_average(horizon)).collect();
    let holding_cost_rate = classes
        .iter()
        .enumerate()
        .map(|(c, cl)| cl.holding_cost * mean_number[c])
        .sum();
    SetupSimResult {
        mean_number,
        holding_cost_rate,
        setups,
        setup_time_fraction: if measured > 0.0 {
            setup_time / measured
        } else {
            0.0
        },
    }
}

/// Square-root (economic-lot-sizing) approximation to the diffusion
/// interruption thresholds, with a stability floor.
///
/// Interrupting a lower-priority run for class `j` every time its backlog
/// reaches `q` jobs costs roughly two changeovers per `q` arrivals, so two
/// effects set the threshold:
///
/// * **capacity floor** — the changeover load `2 s_j λ_j / q` must fit in
///   the spare capacity `1 − ρ`, giving `q ≳ 2 s_j λ_j / (1 − ρ)`;
/// * **lot-sizing balance** — beyond that, the marginal holding-cost saving
///   of serving `q` expensive jobs earlier (`c_j q`) is weighed against the
///   amortised system-wide cost of an extra changeover
///   (`s_j λ_j Σ_k c_k λ_k / ((1 − ρ) q)`), whose balance point is the
///   square-root term `sqrt(s_j λ_j Σ_k c_k λ_k / (c_j (1 − ρ)))`.
///
/// The returned threshold is the sum of the two terms; it grows like the
/// setup time for the capacity part and like its square root for the balance
/// part — the scaling the heavy-traffic analysis predicts.  The threshold of
/// the class with the highest cµ index governs when lower-priority runs are
/// interrupted; thresholds of the lowest-priority class are never consulted
/// by the policy but are reported for completeness.
pub fn sqrt_rule_thresholds(classes: &[JobClass], mean_setup: &[f64]) -> Vec<f64> {
    let n = classes.len();
    assert_eq!(mean_setup.len(), n);
    assert!(mean_setup.iter().all(|s| s.is_finite() && *s >= 0.0));
    let rho = total_load(classes);
    assert!(rho < 1.0, "unstable even without setups (rho = {rho})");
    let slack = 1.0 - rho;
    let cost_rate: f64 = classes
        .iter()
        .map(|c| c.holding_cost * c.arrival_rate)
        .sum();
    classes
        .iter()
        .zip(mean_setup)
        .map(|(c, &s)| {
            if s == 0.0 || c.holding_cost == 0.0 || c.arrival_rate == 0.0 {
                0.0
            } else {
                let capacity_floor = 2.0 * s * c.arrival_rate / slack;
                let balance = (s * c.arrival_rate * cost_rate / (c.holding_cost * slack)).sqrt();
                capacity_floor + balance
            }
        })
        .collect()
}

/// One point of a threshold sweep.
#[derive(Debug, Clone)]
pub struct ThresholdSweepPoint {
    /// Scaling factor applied to the base thresholds.
    pub scale: f64,
    /// The thresholds actually simulated.
    pub thresholds: Vec<f64>,
    /// Simulated holding-cost rate.
    pub holding_cost_rate: f64,
    /// Simulated setups per unit time.
    pub setups_per_time: f64,
}

/// Simulate the threshold policy with the base thresholds scaled by each of
/// `scales`, returning one point per scale (experiment E20 sweeps the scale
/// to locate the empirically best threshold and compare it with the
/// square-root rule at scale 1).
///
/// The scales are simulated in parallel on the workspace thread pool; each
/// scale re-seeds its own RNG from `seed` (common random numbers across
/// scales), so the points are identical to a serial sweep for any thread
/// count.
pub fn threshold_sweep(
    classes: &[JobClass],
    setup: &[DynDist],
    base_thresholds: &[f64],
    scales: &[f64],
    horizon: f64,
    warmup: f64,
    seed: u64,
) -> Vec<ThresholdSweepPoint> {
    use rand::SeedableRng;
    ss_sim::pool::parallel_indexed(scales.len(), |point| {
        let scale = scales[point];
        let thresholds: Vec<f64> = base_thresholds.iter().map(|t| t * scale).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let res = simulate_setup_policy(
            classes,
            setup,
            &SetupPolicy::Threshold {
                thresholds: thresholds.clone(),
            },
            horizon,
            warmup,
            &mut rng,
        );
        ThresholdSweepPoint {
            scale,
            thresholds,
            holding_cost_rate: res.holding_cost_rate,
            setups_per_time: res.setups as f64 / (horizon - warmup),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polling::{simulate_polling, PollingDiscipline};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Exponential};

    /// A cheap high-volume class 0 and an expensive class 1 (cµ order: 1, 0).
    fn classes_2() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.40, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.25, dyn_dist(Exponential::with_mean(0.8)), 8.0),
        ]
    }

    fn setups(v: f64) -> Vec<DynDist> {
        vec![
            dyn_dist(Deterministic::new(v)),
            dyn_dist(Deterministic::new(v)),
        ]
    }

    #[test]
    fn infinite_threshold_matches_exhaustive_polling() {
        let classes = classes_2();
        let setup = setups(0.25);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let threshold = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Threshold {
                thresholds: vec![f64::INFINITY, f64::INFINITY],
            },
            60_000.0,
            2_000.0,
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let exhaustive = simulate_polling(
            &classes,
            &setup,
            PollingDiscipline::Exhaustive,
            60_000.0,
            2_000.0,
            &mut rng,
        );
        let rel = (threshold.holding_cost_rate - exhaustive.holding_cost_rate).abs()
            / exhaustive.holding_cost_rate;
        assert!(
            rel < 1e-9,
            "never-interrupt policy {} should equal exhaustive polling {}",
            threshold.holding_cost_rate,
            exhaustive.holding_cost_rate
        );
    }

    #[test]
    fn exhaustive_variant_matches_polling_module() {
        let classes = classes_2();
        let setup = setups(0.4);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let here = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Exhaustive,
            50_000.0,
            2_000.0,
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let polling = simulate_polling(
            &classes,
            &setup,
            PollingDiscipline::Exhaustive,
            50_000.0,
            2_000.0,
            &mut rng,
        );
        let rel =
            (here.holding_cost_rate - polling.holding_cost_rate).abs() / polling.holding_cost_rate;
        assert!(
            rel < 1e-9,
            "{} vs {}",
            here.holding_cost_rate,
            polling.holding_cost_rate
        );
    }

    #[test]
    fn smaller_thresholds_interrupt_more_often() {
        let classes = classes_2();
        let setup = setups(0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let eager = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Threshold {
                thresholds: vec![1.0, 1.0],
            },
            40_000.0,
            1_000.0,
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let patient = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Threshold {
                thresholds: vec![8.0, 8.0],
            },
            40_000.0,
            1_000.0,
            &mut rng,
        );
        assert!(
            eager.setups > patient.setups,
            "{} !> {}",
            eager.setups,
            patient.setups
        );
        assert!(eager.setup_time_fraction > patient.setup_time_fraction);
    }

    #[test]
    fn sqrt_rule_scales_between_sqrt_and_linear_in_the_setup() {
        let classes = classes_2();
        let small = sqrt_rule_thresholds(&classes, &[0.04, 0.04]);
        let large = sqrt_rule_thresholds(&classes, &[1.0, 1.0]);
        // A 25x larger setup raises the threshold by more than sqrt(25) = 5
        // (because of the linear capacity floor) but less than 25x.
        for j in 0..2 {
            let ratio = large[j] / small[j];
            assert!(
                ratio > 5.0 && ratio < 25.0,
                "class {j}: threshold ratio {ratio} outside the (sqrt, linear) range"
            );
        }
    }

    #[test]
    fn zero_setup_gives_zero_thresholds() {
        let classes = classes_2();
        let thresholds = sqrt_rule_thresholds(&classes, &[0.0, 0.0]);
        assert!(thresholds.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn sqrt_rule_beats_both_extremes_with_asymmetric_costs() {
        // E20 shape: with an expensive class and a non-negligible setup, the
        // interrupt-threshold policy beats never interrupting (exhaustive
        // lets expensive work pile up) and switching on every job (which
        // wastes capacity on changeovers).
        let classes = vec![
            JobClass::new(0, 0.50, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.15, dyn_dist(Exponential::with_mean(0.8)), 6.0),
        ];
        let setup_time = 1.0;
        let setup = setups(setup_time);
        let thresholds = sqrt_rule_thresholds(&classes, &[setup_time, setup_time]);
        let run = |policy: &SetupPolicy, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_setup_policy(&classes, &setup, policy, 120_000.0, 4_000.0, &mut rng)
        };
        let threshold = run(&SetupPolicy::Threshold { thresholds }, 21);
        let exhaustive = run(&SetupPolicy::Exhaustive, 21);
        let myopic = run(&SetupPolicy::CmuEveryJob, 21);
        assert!(
            threshold.holding_cost_rate < exhaustive.holding_cost_rate,
            "threshold {} should beat exhaustive {}",
            threshold.holding_cost_rate,
            exhaustive.holding_cost_rate
        );
        assert!(
            threshold.holding_cost_rate < myopic.holding_cost_rate,
            "threshold {} should beat cmu-every-job {}",
            threshold.holding_cost_rate,
            myopic.holding_cost_rate
        );
    }

    #[test]
    fn threshold_sweep_is_thread_count_invariant() {
        let classes = classes_2();
        let setup = setups(0.25);
        let base = sqrt_rule_thresholds(&classes, &[0.25, 0.25]);
        let run = |threads: usize| {
            ss_sim::pool::with_threads(threads, || {
                threshold_sweep(
                    &classes,
                    &setup,
                    &base,
                    &[0.5, 1.0, 2.0],
                    20_000.0,
                    1_000.0,
                    42,
                )
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.holding_cost_rate.to_bits(), b.holding_cost_rate.to_bits());
            assert_eq!(a.setups_per_time.to_bits(), b.setups_per_time.to_bits());
        }
    }

    #[test]
    fn threshold_sweep_returns_one_point_per_scale() {
        let classes = classes_2();
        let setup = setups(0.3);
        let base = sqrt_rule_thresholds(&classes, &[0.3, 0.3]);
        let points = threshold_sweep(
            &classes,
            &setup,
            &base,
            &[0.5, 1.0, 4.0],
            20_000.0,
            1_000.0,
            42,
        );
        assert_eq!(points.len(), 3);
        assert!(points
            .iter()
            .all(|p| p.holding_cost_rate.is_finite() && p.holding_cost_rate > 0.0));
        assert!(points[0].setups_per_time >= points[2].setups_per_time);
    }

    #[test]
    #[should_panic]
    fn threshold_length_mismatch_is_rejected() {
        let classes = classes_2();
        let setup = setups(0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Threshold {
                thresholds: vec![1.0],
            },
            1_000.0,
            10.0,
            &mut rng,
        );
    }
}
