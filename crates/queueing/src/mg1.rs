//! Event-driven simulator for the multiclass M/G/1 queue.
//!
//! Supports FIFO, nonpreemptive static priority and preemptive-resume
//! static priority disciplines; reports time-average queue lengths per
//! class (with warm-up deletion), mean waiting times of completed jobs and
//! the steady-state holding-cost rate.  Experiment E11 calibrates this
//! simulator against the exact Cobham / Pollaczek–Khinchine formulas of
//! [`crate::cobham`] and then uses it for the disciplines the formulas do
//! not cover.

use crate::population::{holding_cost_rate, ranks, Arrivals, Population};
use rand::RngCore;
use ss_core::job::JobClass;
use std::collections::VecDeque;

/// Service discipline of the single server.
#[derive(Debug, Clone)]
pub enum Discipline {
    /// First-in-first-out across all classes.
    Fifo,
    /// Nonpreemptive static priority; the vector lists class indices from
    /// highest to lowest priority.
    NonpreemptivePriority(Vec<usize>),
    /// Preemptive-resume static priority (same encoding).
    PreemptivePriority(Vec<usize>),
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct Mg1Config {
    /// The job classes (arrival rates, service distributions, holding costs).
    pub classes: Vec<JobClass>,
    /// Service discipline.
    pub discipline: Discipline,
    /// Simulated time horizon.
    pub horizon: f64,
    /// Warm-up period excluded from the time averages.
    pub warmup: f64,
}

/// Steady-state estimates from one simulation run.
#[derive(Debug, Clone)]
pub struct Mg1Result {
    /// Time-average number in system per class.
    pub mean_number: Vec<f64>,
    /// Mean waiting time (excluding service) of completed jobs per class.
    pub mean_wait: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
    /// Number of completed jobs per class (after warm-up).
    pub completed: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Customer {
    class: usize,
    arrival_time: f64,
    total_service: f64,
    remaining_service: f64,
}

/// Simulate one run of the multiclass M/G/1 queue.
pub fn simulate_mg1(config: &Mg1Config, rng: &mut dyn RngCore) -> Mg1Result {
    let n_classes = config.classes.len();
    assert!(n_classes > 0);
    assert!(config.horizon > config.warmup && config.warmup >= 0.0);

    // Priority rank per class (lower = served first); FIFO ignores it.
    let rank: Vec<usize> = match &config.discipline {
        Discipline::Fifo => vec![0; n_classes],
        Discipline::NonpreemptivePriority(order) | Discipline::PreemptivePriority(order) => {
            assert_eq!(order.len(), n_classes);
            ranks(order)
        }
    };
    let preemptive = matches!(config.discipline, Discipline::PreemptivePriority(_));
    let fifo = matches!(config.discipline, Discipline::Fifo);

    // Per-class waiting queues (FIFO uses a single global queue keyed by arrival order).
    let mut queues: Vec<VecDeque<Customer>> = vec![VecDeque::new(); n_classes];
    let mut fifo_queue: VecDeque<Customer> = VecDeque::new();

    let mut arrivals = Arrivals::new(config.classes.iter().map(|c| c.arrival_rate), rng);
    let mut in_service: Option<Customer> = None;
    let mut service_completion = f64::INFINITY;
    let mut population = Population::new(n_classes, config.warmup);

    let mut wait_sum = vec![0.0; n_classes];
    let mut completed = vec![0u64; n_classes];

    loop {
        // Next event: earliest arrival or the service completion.
        let (min_class, min_arrival) = arrivals.earliest();
        let clock = min_arrival.min(service_completion);
        if clock > config.horizon {
            break;
        }
        population.advance(clock);

        if min_arrival <= service_completion {
            // Arrival of class `min_class`.
            let class = min_class;
            let service = config.classes[class].service.sample(rng);
            let customer = Customer {
                class,
                arrival_time: clock,
                total_service: service,
                remaining_service: service,
            };
            population.add(class, clock);
            arrivals.renew(class, clock, rng);

            let mut enqueue = Some(customer);
            if in_service.is_none() {
                // Idle server: start immediately.
                let c = enqueue.take().unwrap();
                service_completion = clock + c.remaining_service;
                in_service = Some(c);
            } else if preemptive {
                let current = in_service.as_ref().unwrap();
                if rank[class] < rank[current.class] {
                    // Preempt: requeue the interrupted job with its residual.
                    let mut interrupted = in_service.take().unwrap();
                    interrupted.remaining_service = service_completion - clock;
                    queues[interrupted.class].push_front(interrupted);
                    let c = enqueue.take().unwrap();
                    service_completion = clock + c.remaining_service;
                    in_service = Some(c);
                }
            }
            if let Some(c) = enqueue {
                if fifo {
                    fifo_queue.push_back(c);
                } else {
                    queues[class].push_back(c);
                }
            }
        } else {
            // Service completion.
            let done = in_service
                .take()
                .expect("completion without a job in service");
            let class = done.class;
            population.remove(class, clock);
            if clock >= config.warmup {
                completed[class] += 1;
                wait_sum[class] += (clock - done.arrival_time) - done.total_service;
            }
            // Start the next job, if any.
            let next = if fifo {
                fifo_queue.pop_front()
            } else {
                // Highest-priority nonempty class queue.
                (0..n_classes)
                    .filter(|&c| !queues[c].is_empty())
                    .min_by_key(|&c| rank[c])
                    .and_then(|c| queues[c].pop_front())
            };
            service_completion = next
                .as_ref()
                .map_or(f64::INFINITY, |c| clock + c.remaining_service);
            in_service = next;
        }
    }

    let mean_number = population.mean_number(config.horizon);
    let mean_wait: Vec<f64> = (0..n_classes)
        .map(|c| {
            if completed[c] > 0 {
                wait_sum[c] / completed[c] as f64
            } else {
                0.0
            }
        })
        .collect();
    let holding_cost_rate =
        holding_cost_rate(config.classes.iter().map(|c| c.holding_cost), &mean_number);
    Mg1Result {
        mean_number,
        mean_wait,
        holding_cost_rate,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmu::cmu_order;
    use crate::cobham::{
        mg1_nonpreemptive_priority, mg1_preemptive_priority, pollaczek_khinchine_wait,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Erlang, Exponential};

    fn classes_2() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.3, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.25, dyn_dist(Erlang::with_mean(2, 1.2)), 4.0),
        ]
    }

    fn run(classes: Vec<JobClass>, discipline: Discipline, seed: u64) -> Mg1Result {
        let config = Mg1Config {
            classes,
            discipline,
            horizon: 60_000.0,
            warmup: 2_000.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_mg1(&config, &mut rng)
    }

    #[test]
    fn fifo_matches_pollaczek_khinchine() {
        let classes = classes_2();
        let expected_wait = pollaczek_khinchine_wait(&classes);
        let res = run(classes, Discipline::Fifo, 1);
        for (c, w) in res.mean_wait.iter().enumerate() {
            assert!(
                (w - expected_wait).abs() / expected_wait < 0.08,
                "class {c}: simulated wait {w} vs PK {expected_wait}"
            );
        }
    }

    #[test]
    fn nonpreemptive_priority_matches_cobham() {
        let classes = classes_2();
        let order = vec![1usize, 0];
        let exact = mg1_nonpreemptive_priority(&classes, &order);
        let res = run(classes, Discipline::NonpreemptivePriority(order), 2);
        for c in 0..2 {
            assert!(
                (res.mean_wait[c] - exact.wait[c]).abs() / exact.wait[c] < 0.1,
                "class {c}: simulated {} vs Cobham {}",
                res.mean_wait[c],
                exact.wait[c]
            );
            assert!(
                (res.mean_number[c] - exact.number_in_system[c]).abs() / exact.number_in_system[c]
                    < 0.1,
                "class {c}: simulated L {} vs exact {}",
                res.mean_number[c],
                exact.number_in_system[c]
            );
        }
    }

    #[test]
    fn preemptive_priority_matches_formulas() {
        let classes = classes_2();
        let order = vec![1usize, 0];
        let exact = mg1_preemptive_priority(&classes, &order);
        let res = run(classes, Discipline::PreemptivePriority(order), 3);
        for c in 0..2 {
            assert!(
                (res.mean_number[c] - exact.number_in_system[c]).abs() / exact.number_in_system[c]
                    < 0.1,
                "class {c}: simulated L {} vs exact {}",
                res.mean_number[c],
                exact.number_in_system[c]
            );
        }
    }

    #[test]
    fn cmu_priority_beats_fifo_and_reverse_priority() {
        // E11 in miniature: the cµ order has the lowest simulated holding
        // cost rate among {cmu, reverse cmu, FIFO}.
        let classes = classes_2();
        let cmu = cmu_order(&classes);
        let mut reverse = cmu.clone();
        reverse.reverse();
        let res_cmu = run(classes.clone(), Discipline::NonpreemptivePriority(cmu), 4);
        let res_rev = run(
            classes.clone(),
            Discipline::NonpreemptivePriority(reverse),
            4,
        );
        let res_fifo = run(classes, Discipline::Fifo, 4);
        assert!(res_cmu.holding_cost_rate < res_rev.holding_cost_rate);
        assert!(res_cmu.holding_cost_rate < res_fifo.holding_cost_rate);
    }

    #[test]
    fn little_law_consistency() {
        // lambda * (W + E[S]) should match the time-average number in system.
        let classes = classes_2();
        let res = run(classes.clone(), Discipline::Fifo, 5);
        for (c, cl) in classes.iter().enumerate() {
            let little = cl.arrival_rate * (res.mean_wait[c] + cl.mean_service());
            assert!(
                (little - res.mean_number[c]).abs() / res.mean_number[c] < 0.1,
                "class {c}: Little {little} vs tracked {}",
                res.mean_number[c]
            );
        }
    }

    #[test]
    fn empty_arrival_class_is_harmless() {
        let classes = vec![
            JobClass::new(0, 0.5, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.0, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        ];
        let res = run(classes, Discipline::Fifo, 6);
        assert_eq!(res.completed[1], 0);
        assert!(res.mean_number[1].abs() < 1e-9);
    }

    /// The one job arrives at about 22.5 and is still in service over the
    /// whole measured window (50, 100], in which nothing happens.
    #[test]
    fn a_window_without_events_averages_over_the_window_alone() {
        let config = Mg1Config {
            classes: vec![JobClass::new(
                0,
                0.01,
                dyn_dist(Deterministic::new(1000.0)),
                1.0,
            )],
            discipline: Discipline::Fifo,
            horizon: 100.0,
            warmup: 50.0,
        };
        let res = simulate_mg1(&config, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(res.mean_number, vec![1.0]);
        assert_eq!(res.holding_cost_rate, 1.0);
    }
}
