//! Open multiclass queueing networks with multiple single-server stations.
//!
//! The general substrate behind the Klimov (E12), stability (E14) and fluid
//! (E15) experiments: each class is served at a fixed station, has its own
//! service-time distribution and holding cost, receives external Poisson
//! arrivals, and routes deterministically or probabilistically to another
//! class (or leaves) after service.  Every station runs a nonpreemptive
//! static priority discipline over the classes it serves.  A Klimov
//! network is the one-station case
//! ([`crate::klimov::KlimovNetwork::as_network`]).

use crate::population::{earliest, holding_cost_rate, Arrivals, Population};
use rand::RngCore;
use ss_distributions::DynDist;

/// A class of a multiclass network.
#[derive(Clone)]
pub struct NetworkClass {
    /// Station (server) that processes this class.
    pub station: usize,
    /// External Poisson arrival rate (0 for purely internal classes).
    pub arrival_rate: f64,
    /// Service-time distribution.
    pub service: DynDist,
    /// Holding-cost rate.
    pub holding_cost: f64,
    /// Routing row: `(next_class, probability)`; the unassigned mass leaves
    /// the system.
    pub routing: Vec<(usize, f64)>,
}

impl std::fmt::Debug for NetworkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkClass")
            .field("station", &self.station)
            .field("arrival_rate", &self.arrival_rate)
            .field("holding_cost", &self.holding_cost)
            .field("routing", &self.routing)
            .finish()
    }
}

/// An open multiclass network.
#[derive(Debug, Clone)]
pub struct MultiClassNetwork {
    /// The classes.
    pub classes: Vec<NetworkClass>,
    /// Number of stations.
    pub num_stations: usize,
}

impl MultiClassNetwork {
    /// Create a network, validating stations and routing rows.
    pub fn new(classes: Vec<NetworkClass>) -> Self {
        assert!(!classes.is_empty());
        let num_stations = classes.iter().map(|c| c.station).max().unwrap() + 1;
        for (k, c) in classes.iter().enumerate() {
            let total: f64 = c.routing.iter().map(|(_, p)| p).sum();
            assert!(total <= 1.0 + 1e-9, "class {k} routing mass {total} > 1");
            assert!(c
                .routing
                .iter()
                .all(|&(j, p)| j < classes.len() && p >= -1e-12));
            assert!(c.arrival_rate >= 0.0 && c.holding_cost >= 0.0);
        }
        Self {
            classes,
            num_stations,
        }
    }

    /// Effective arrival rate per class (external + internal), solving the
    /// traffic equations.
    pub fn effective_rates(&self) -> Vec<f64> {
        let n = self.classes.len();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 1.0;
        }
        for (i, c) in self.classes.iter().enumerate() {
            for &(j, p) in &c.routing {
                a[j][i] -= p;
            }
        }
        let b: Vec<f64> = self.classes.iter().map(|c| c.arrival_rate).collect();
        ss_core::linalg::solve_dense(a, b)
    }

    /// Nominal load per station `ρ_s = Σ_{k at s} γ_k E[S_k]`.
    pub fn station_loads(&self) -> Vec<f64> {
        let gamma = self.effective_rates();
        let mut loads = vec![0.0; self.num_stations];
        for (k, c) in self.classes.iter().enumerate() {
            loads[c.station] += gamma[k] * c.service.mean();
        }
        loads
    }
}

/// Result of one network simulation run.
#[derive(Debug, Clone)]
pub struct NetworkSimResult {
    /// Time-average number in system per class (after warm-up).
    pub mean_number: Vec<f64>,
    /// Time-average holding-cost rate.
    pub holding_cost_rate: f64,
    /// Sampled trajectory of the *total* number in system
    /// (`trajectory[i]` is the total at time `sample_times[i]`); empty
    /// when the run was asked for none.
    pub trajectory: Vec<f64>,
    /// Sampling instants of the trajectory; empty when it has none.
    pub sample_times: Vec<f64>,
    /// Total number in system at the end of the run.
    pub final_total: usize,
}

/// Simulate the network under per-station nonpreemptive priority orders.
///
/// `station_priority[s]` lists the classes of station `s` from highest to
/// lowest priority (classes of other stations are ignored); classes absent
/// from the list get lowest priority in index order.
///
/// `num_samples = Some(n)` records the total number in system at `n ≥ 2`
/// evenly spaced instants from 0 to `horizon`; `None` records no
/// trajectory. Recording draws no randomness, so it changes no other field.
pub fn simulate_network(
    network: &MultiClassNetwork,
    station_priority: &[Vec<usize>],
    horizon: f64,
    warmup: f64,
    num_samples: Option<usize>,
    rng: &mut dyn RngCore,
) -> NetworkSimResult {
    use rand::Rng;
    let n = network.classes.len();
    let s_count = network.num_stations;
    assert_eq!(station_priority.len(), s_count);
    assert!(horizon > warmup);
    assert!(
        num_samples.is_none_or(|k| k >= 2),
        "a trajectory needs at least 2 samples"
    );
    // Without a trajectory both sampling loops below stop at once.
    let num_samples = num_samples.unwrap_or(0);

    // Per-class priority rank within its station; unlisted classes rank
    // below every listed one, in index order.
    let mut rank: Vec<usize> = (0..n).map(|k| 1000 + k).collect();
    for (s, order) in station_priority.iter().enumerate() {
        for (pos, &k) in order.iter().enumerate() {
            assert_eq!(
                network.classes[k].station, s,
                "class {k} is not served at station {s}"
            );
            rank[k] = pos;
        }
    }

    // Customers waiting per class.
    let mut waiting = vec![0usize; n];
    let mut arrivals = Arrivals::new(network.classes.iter().map(|c| c.arrival_rate), rng);
    // Per-station in-service class and completion time.
    let mut in_service: Vec<Option<usize>> = vec![None; s_count];
    let mut completion: Vec<f64> = vec![f64::INFINITY; s_count];
    let mut population = Population::new(n, warmup);

    let sample_dt = horizon / num_samples.saturating_sub(1).max(1) as f64;
    let mut next_sample = 0.0;
    let mut sample_times = Vec::with_capacity(num_samples);
    let mut trajectory = Vec::with_capacity(num_samples);

    loop {
        let (arr_class, arr_time) = arrivals.earliest();
        let (comp_station, comp_time) = earliest(&completion);
        let clock = arr_time.min(comp_time);
        if clock > horizon {
            break;
        }
        // Record trajectory samples that fall before the next event.
        while next_sample <= clock && sample_times.len() < num_samples {
            sample_times.push(next_sample);
            trajectory.push(population.total() as f64);
            next_sample += sample_dt;
        }
        population.advance(clock);

        if arr_time <= comp_time {
            population.add(arr_class, clock);
            waiting[arr_class] += 1;
            arrivals.renew(arr_class, clock, rng);
        } else {
            let class = in_service[comp_station]
                .take()
                .expect("completion without service");
            completion[comp_station] = f64::INFINITY;
            population.remove(class, clock);
            // Route.
            let u: f64 = rng.gen::<f64>();
            let mut acc = 0.0;
            for &(j, p) in &network.classes[class].routing {
                acc += p;
                if u <= acc {
                    population.add(j, clock);
                    waiting[j] += 1;
                    break;
                }
            }
        }

        // Start service at every idle station with waiting work.
        for s in 0..s_count {
            if in_service[s].is_some() {
                continue;
            }
            let next_class = (0..n)
                .filter(|&k| network.classes[k].station == s && waiting[k] > 0)
                .min_by_key(|&k| rank[k]);
            if let Some(k) = next_class {
                waiting[k] -= 1;
                let service = network.classes[k].service.sample(rng);
                in_service[s] = Some(k);
                completion[s] = clock + service;
            }
        }
    }
    while sample_times.len() < num_samples {
        sample_times.push(next_sample);
        trajectory.push(population.total() as f64);
        next_sample += sample_dt;
    }

    let mean_number = population.mean_number(horizon);
    let holding_cost_rate =
        holding_cost_rate(network.classes.iter().map(|c| c.holding_cost), &mean_number);
    NetworkSimResult {
        mean_number,
        holding_cost_rate,
        trajectory,
        sample_times,
        final_total: population.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Exponential};

    /// A two-class tandem line: class 0 at station 0 feeds class 1 at
    /// station 1, both exponential.
    fn tandem() -> MultiClassNetwork {
        MultiClassNetwork::new(vec![
            NetworkClass {
                station: 0,
                arrival_rate: 0.5,
                service: dyn_dist(Exponential::with_mean(1.0)),
                holding_cost: 1.0,
                routing: vec![(1, 1.0)],
            },
            NetworkClass {
                station: 1,
                arrival_rate: 0.0,
                service: dyn_dist(Exponential::with_mean(1.2)),
                holding_cost: 1.0,
                routing: vec![],
            },
        ])
    }

    #[test]
    fn traffic_equations_for_tandem() {
        let net = tandem();
        let gamma = net.effective_rates();
        assert!((gamma[0] - 0.5).abs() < 1e-12);
        assert!((gamma[1] - 0.5).abs() < 1e-12);
        let loads = net.station_loads();
        assert!((loads[0] - 0.5).abs() < 1e-12);
        assert!((loads[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tandem_matches_jackson_product_form() {
        // Both stations behave as independent M/M/1 queues (Jackson):
        // L0 = 0.5/0.5 = 1, L1 = 0.6/0.4 = 1.5.
        let net = tandem();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let res = simulate_network(
            &net,
            &[vec![0], vec![1]],
            120_000.0,
            4_000.0,
            Some(50),
            &mut rng,
        );
        assert!(
            (res.mean_number[0] - 1.0).abs() < 0.12,
            "L0 = {}",
            res.mean_number[0]
        );
        assert!(
            (res.mean_number[1] - 1.5).abs() < 0.2,
            "L1 = {}",
            res.mean_number[1]
        );
    }

    #[test]
    fn trajectory_is_sampled_on_schedule() {
        let net = tandem();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let res = simulate_network(&net, &[vec![0], vec![1]], 1_000.0, 0.0, Some(11), &mut rng);
        assert_eq!(res.sample_times.len(), 11);
        assert_eq!(res.trajectory.len(), 11);
        assert!((res.sample_times[10] - 1000.0).abs() < 101.0);
    }

    /// `None` records no trajectory and leaves every other field's bits
    /// as a run that records one.
    #[test]
    fn a_run_without_a_trajectory_records_none_and_changes_nothing_else() {
        let net = tandem();
        let run = |samples| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            simulate_network(&net, &[vec![0], vec![1]], 1_000.0, 100.0, samples, &mut rng)
        };
        let (with, without) = (run(Some(11)), run(None));
        assert!(without.trajectory.is_empty() && without.sample_times.is_empty());
        assert_eq!(with.final_total, without.final_total);
        assert_eq!(
            with.holding_cost_rate.to_bits(),
            without.holding_cost_rate.to_bits()
        );
        for (a, b) in with.mean_number.iter().zip(&without.mean_number) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn priority_list_must_match_station() {
        let net = tandem();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Class 1 does not live at station 0.
        let _ = simulate_network(&net, &[vec![1], vec![0]], 100.0, 0.0, Some(5), &mut rng);
    }
}
