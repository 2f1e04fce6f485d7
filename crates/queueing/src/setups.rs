//! Changeover (setup) times: polling disciplines (Levy–Sidi 1990) and
//! threshold (switching-curve) policies motivated by the heavy-traffic /
//! diffusion analysis of Reiman and Wein (1998).
//!
//! The survey lists changeover times as one of the model features that break
//! the plain cµ-rule, and diffusion approximations as one of the approaches
//! used to design good heuristics for such models.  When switching the
//! server from one job class to another incurs a setup time, the cµ-rule
//! (which may switch very often) loses its optimality; polling disciplines
//! that serve a queue exhaustively, or up to a gate, before switching
//! amortise the setups.  Experiment E16 sweeps the setup time and shows the
//! crossover between three of them:
//!
//! * [`SetupPolicy::CmuEveryJob`]: after every service completion the server
//!   moves to the nonempty class with the largest cµ index, paying a setup
//!   whenever that class differs from the one just served;
//! * [`SetupPolicy::Exhaustive`]: the server stays on its current class
//!   until that queue empties, then switches (with a setup) to the nonempty
//!   class with the largest cµ index;
//! * [`SetupPolicy::Gated`]: each visit serves only the customers waiting
//!   when it began, the classical alternative to exhaustive service.
//!
//! Reiman and Wein analyse a two-class M/G/1 queue with setups in the
//! heavy-traffic limit and obtain a policy of *switching-curve* type: the
//! expensive (high-cµ) class is served exhaustively, while service of the
//! cheap class is **interrupted** — paying a changeover — only once the
//! expensive backlog has grown past a threshold that balances the capacity
//! lost to the setup against the holding cost of keeping expensive work
//! waiting.
//!
//! This module provides
//!
//! * [`simulate_setup_policy`] — an event-driven simulator of a multiclass
//!   M/G/1 queue with class switchover times under any [`SetupPolicy`];
//! * [`sqrt_rule_thresholds`] — an economic-lot-sizing (square-root)
//!   approximation to the diffusion thresholds;
//! * [`threshold_sweep`] — a utility used by experiment E20 to compare the
//!   square-root thresholds with the empirically best threshold.
//!
//! The threshold policies interpolate: a threshold of one interrupts for
//! every waiting higher-priority job (the cµ-every-job extreme), an infinite
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
use crate::population::{holding_cost_rate, ranks, Arrivals, Population};
use rand::RngCore;
use ss_core::job::JobClass;
use ss_distributions::DynDist;

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
    /// Gated service: when a setup to a class ends, a gate closes behind
    /// the customers already waiting there; the server serves exactly
    /// those, then switches to the highest-cµ nonempty class.  Customers
    /// arriving during the visit wait for the next one.  A revisit without
    /// a changeover (the class is the highest-cµ nonempty one again) closes
    /// a new gate on the customers then waiting.
    Gated,
}

/// Result of one setup-policy simulation run.
#[derive(Debug, Clone)]
pub struct SetupSimResult {
    /// Time-average number in system per class.
    pub mean_number: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
    /// Setups started after warm-up.
    pub setups: u64,
    /// Fraction of the measured window `(warmup, horizon]` spent performing
    /// setups; a setup that straddles either end counts only its overlap.
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
    let rank = ranks(&crate::cmu::cmu_order(classes));

    // Customers waiting per class.
    let mut waiting = vec![0usize; n];
    let mut arrivals = Arrivals::new(classes.iter().map(|c| c.arrival_rate), rng);
    let mut population = Population::new(n, warmup);
    let mut setups = 0u64;
    let mut setup_time = 0.0;

    let mut configured: Option<usize> = None;
    // (completion_time, class, is_setup)
    let mut busy: Option<(f64, usize, bool)> = None;
    // How many of the configured class's customers are still behind the
    // gate (0 = close a new gate at the next service).  Tracked under every
    // policy; only `Gated` reads it.
    let mut gate_remaining: usize = 0;

    loop {
        let (arr_class, arr_time) = arrivals.earliest();
        let busy_time = busy.map(|(t, _, _)| t).unwrap_or(f64::INFINITY);
        let clock = arr_time.min(busy_time);
        if clock > horizon {
            break;
        }
        population.advance(clock);

        if arr_time <= busy_time {
            population.add(arr_class, clock);
            waiting[arr_class] += 1;
            arrivals.renew(arr_class, clock, rng);
        } else {
            let (_, class, was_setup) = busy.take().unwrap();
            if was_setup {
                configured = Some(class);
                gate_remaining = waiting[class];
            } else {
                population.remove(class, clock);
            }
        }

        if busy.is_none() {
            // Pick the class the server should work towards next.
            let highest_nonempty = (0..n).filter(|&c| waiting[c] > 0).min_by_key(|&c| rank[c]);
            let target = match policy {
                SetupPolicy::CmuEveryJob => highest_nonempty,
                SetupPolicy::Exhaustive => match configured {
                    Some(c) if waiting[c] > 0 => Some(c),
                    _ => highest_nonempty,
                },
                SetupPolicy::Threshold { thresholds } => match configured {
                    Some(c) if waiting[c] > 0 => {
                        // Interrupt the current run only for a strictly
                        // higher-priority class whose backlog has reached its
                        // threshold (at least one job always required).
                        let interrupter = (0..n)
                            .filter(|&j| {
                                rank[j] < rank[c] && waiting[j] as f64 >= thresholds[j].max(1.0)
                            })
                            .min_by_key(|&j| rank[j]);
                        Some(interrupter.unwrap_or(c))
                    }
                    _ => highest_nonempty,
                },
                SetupPolicy::Gated => match configured {
                    Some(c) if gate_remaining > 0 && waiting[c] > 0 => Some(c),
                    _ => highest_nonempty,
                },
            };
            if let Some(target) = target {
                if configured == Some(target) {
                    if gate_remaining == 0 {
                        gate_remaining = waiting[target];
                    }
                    waiting[target] -= 1;
                    gate_remaining -= 1;
                    let service = classes[target].service.sample(rng);
                    busy = Some((clock + service, target, false));
                } else {
                    let s = setup[target].sample(rng);
                    if clock >= warmup {
                        setups += 1;
                    }
                    setup_time += ((clock + s).min(horizon) - clock.max(warmup)).max(0.0);
                    busy = Some((clock + s, target, true));
                }
            }
        }
    }

    let measured = horizon - warmup;
    let mean_number = population.mean_number(horizon);
    let holding_cost_rate = holding_cost_rate(classes.iter().map(|c| c.holding_cost), &mean_number);
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

    /// The two-class system the polling-discipline tests share (cµ order:
    /// 1, 0).
    fn polling_classes() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.35, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.3, dyn_dist(Exponential::with_mean(0.8)), 2.0),
        ]
    }

    fn run_polling(policy: &SetupPolicy, setup_time: f64, seed: u64) -> SetupSimResult {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_setup_policy(
            &polling_classes(),
            &setups(setup_time),
            policy,
            80_000.0,
            2_000.0,
            &mut rng,
        )
    }

    #[test]
    fn infinite_threshold_matches_exhaustive_polling() {
        // A threshold no backlog reaches never interrupts, so the run is
        // exhaustive polling draw for draw.
        let classes = classes_2();
        let setup = setups(0.25);
        let run = |policy: &SetupPolicy| {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            simulate_setup_policy(&classes, &setup, policy, 60_000.0, 2_000.0, &mut rng)
        };
        let threshold = run(&SetupPolicy::Threshold {
            thresholds: vec![f64::INFINITY, f64::INFINITY],
        });
        let exhaustive = run(&SetupPolicy::Exhaustive);
        let bits = |r: &SetupSimResult| {
            let mut v: Vec<u64> = r.mean_number.iter().map(|x| x.to_bits()).collect();
            v.push(r.holding_cost_rate.to_bits());
            v.push(r.setup_time_fraction.to_bits());
            v.push(r.setups);
            v
        };
        assert_eq!(bits(&threshold), bits(&exhaustive));
    }

    #[test]
    fn zero_setup_cmu_matches_plain_priority_queue() {
        // With zero setup times the cµ-every-job rule is the plain
        // nonpreemptive cµ priority queue; check against Cobham.
        let classes = polling_classes();
        let order = crate::cmu::cmu_order(&classes);
        let exact = crate::cobham::mg1_nonpreemptive_priority(&classes, &order);
        let res = run_polling(&SetupPolicy::CmuEveryJob, 0.0, 1);
        assert!(
            (res.holding_cost_rate - exact.holding_cost_rate).abs() / exact.holding_cost_rate < 0.1,
            "sim {} vs exact {}",
            res.holding_cost_rate,
            exact.holding_cost_rate
        );
    }

    #[test]
    fn zero_setup_cmu_is_no_worse_than_exhaustive() {
        let cmu = run_polling(&SetupPolicy::CmuEveryJob, 0.0, 2);
        let exhaustive = run_polling(&SetupPolicy::Exhaustive, 0.0, 2);
        assert!(cmu.holding_cost_rate <= exhaustive.holding_cost_rate * 1.05);
    }

    #[test]
    fn large_setups_favour_exhaustive_service() {
        // E16: with substantial changeover times the frequent switching of
        // the cµ rule eats so much capacity that the queue blows up, while
        // exhaustive service amortises the setups over whole busy periods
        // and stays stable with a far lower holding cost.
        let classes = vec![
            JobClass::new(0, 0.45, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.35, dyn_dist(Exponential::with_mean(0.8)), 2.0),
        ];
        let setup = setups(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cmu = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::CmuEveryJob,
            60_000.0,
            2_000.0,
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let exhaustive = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Exhaustive,
            60_000.0,
            2_000.0,
            &mut rng,
        );
        assert!(
            exhaustive.holding_cost_rate < cmu.holding_cost_rate,
            "exhaustive {} should beat cmu-with-setups {}",
            exhaustive.holding_cost_rate,
            cmu.holding_cost_rate
        );
        assert!(exhaustive.setups < cmu.setups);
    }

    #[test]
    fn setup_count_increases_with_switching_discipline() {
        let cmu = run_polling(&SetupPolicy::CmuEveryJob, 0.1, 4);
        let exhaustive = run_polling(&SetupPolicy::Exhaustive, 0.1, 4);
        assert!(cmu.setups >= exhaustive.setups);
    }

    #[test]
    fn gated_service_is_stable_and_switches_at_least_as_often_as_exhaustive() {
        // Gated visits end after the gated batch even if new work arrived,
        // so the server changes over at least as often as under exhaustive
        // service, and (for this symmetric-cost regime) pays for it with a
        // holding cost at least as large.
        let gated = run_polling(&SetupPolicy::Gated, 0.4, 8);
        let exhaustive = run_polling(&SetupPolicy::Exhaustive, 0.4, 8);
        assert!(gated.holding_cost_rate.is_finite() && gated.holding_cost_rate > 0.0);
        assert!(gated.setups >= exhaustive.setups);
        assert!(gated.holding_cost_rate >= exhaustive.holding_cost_rate * 0.95);
    }

    #[test]
    fn gated_with_zero_setup_stays_close_to_exhaustive() {
        // With no changeover cost the difference between gated and
        // exhaustive service is only the order in which recent arrivals are
        // picked up; the holding-cost rates must be within a few percent.
        let gated = run_polling(&SetupPolicy::Gated, 0.0, 9);
        let exhaustive = run_polling(&SetupPolicy::Exhaustive, 0.0, 9);
        let rel = (gated.holding_cost_rate - exhaustive.holding_cost_rate).abs()
            / exhaustive.holding_cost_rate;
        assert!(
            rel < 0.1,
            "gated {} vs exhaustive {}",
            gated.holding_cost_rate,
            exhaustive.holding_cost_rate
        );
    }

    /// One class and a 100-unit setup over a 10-unit horizon: the first
    /// arrival starts a setup that outlasts the run.
    fn one_long_setup(warmup: f64) -> SetupSimResult {
        let classes = vec![JobClass::new(
            0,
            1.0,
            dyn_dist(Exponential::with_mean(0.5)),
            1.0,
        )];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        simulate_setup_policy(
            &classes,
            &setups(100.0)[..1],
            &SetupPolicy::Exhaustive,
            10.0,
            warmup,
            &mut rng,
        )
    }

    #[test]
    fn a_setup_running_past_the_horizon_counts_only_its_overlap() {
        let res = one_long_setup(0.0);
        assert_eq!(res.setups, 1);
        assert!(
            res.setup_time_fraction > 0.0 && res.setup_time_fraction <= 1.0,
            "setup fraction {}",
            res.setup_time_fraction
        );
    }

    #[test]
    fn a_setup_started_in_the_warmup_counts_its_overlap_with_the_window() {
        // The setup starts before the warm-up ends and covers the whole
        // measured window (5, 10].
        let res = one_long_setup(5.0);
        assert_eq!(res.setups, 0);
        assert_eq!(res.setup_time_fraction, 1.0);
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
