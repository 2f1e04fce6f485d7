//! The stability problem for multiclass networks (experiment E14).
//!
//! The survey highlights that for multi-station multiclass networks "in
//! general it is not known what conditions on model parameters ensure that
//! a given policy is stable", citing Bramson's FIFO instability example.
//! The canonical parameterisation exhibiting the phenomenon is the
//! Lu–Kumar (and Rybko–Stolyar) network: two stations, four classes routed
//! `1 → 2 → 3 → 4`, classes 1 and 4 at station A, classes 2 and 3 at
//! station B.  When both stations give priority to the *later* classes
//! (4 over 1, 2 over 3) the two priority classes form a "virtual station":
//! if `ρ_virtual = λ (E[S_2] + E[S_4]) > 1` the network is unstable even
//! though each physical station satisfies `ρ < 1`.
//!
//! This module builds the parameterised network and runs the two policies
//! ("bad" priority vs. first-class-first priority) side by side so the
//! experiment harness can print the diverging vs. stable queue-length
//! trajectories.

use crate::network::{simulate_network, MultiClassNetwork, NetworkClass, NetworkSimResult};
use rand::RngCore;
use ss_distributions::{dyn_dist, Exponential};

/// Parameters of the Lu–Kumar network.
#[derive(Debug, Clone, Copy)]
pub struct LuKumarParams {
    /// External arrival rate to class 1.
    pub arrival_rate: f64,
    /// Mean service times of classes 1..=4.
    pub mean_service: [f64; 4],
}

impl Default for LuKumarParams {
    fn default() -> Self {
        // The classic destabilising choice: station loads are 0.7 each but
        // the virtual station load is 1.2 > 1.
        Self {
            arrival_rate: 1.0,
            mean_service: [0.1, 0.6, 0.1, 0.6],
        }
    }
}

impl LuKumarParams {
    /// Per-station nominal loads `(rho_A, rho_B)`.
    pub fn station_loads(&self) -> (f64, f64) {
        let l = self.arrival_rate;
        (
            l * (self.mean_service[0] + self.mean_service[3]),
            l * (self.mean_service[1] + self.mean_service[2]),
        )
    }

    /// The "virtual station" load `λ (E[S_2] + E[S_4])` that governs the
    /// instability of the bad priority policy.
    pub fn virtual_station_load(&self) -> f64 {
        self.arrival_rate * (self.mean_service[1] + self.mean_service[3])
    }

    /// Build the four-class network (exponential services).
    pub fn build(&self) -> MultiClassNetwork {
        let mk = |station: usize, arrival: f64, mean: f64, route: Vec<(usize, f64)>| NetworkClass {
            station,
            arrival_rate: arrival,
            service: dyn_dist(Exponential::with_mean(mean)),
            holding_cost: 1.0,
            routing: route,
        };
        MultiClassNetwork::new(vec![
            mk(0, self.arrival_rate, self.mean_service[0], vec![(1, 1.0)]),
            mk(1, 0.0, self.mean_service[1], vec![(2, 1.0)]),
            mk(1, 0.0, self.mean_service[2], vec![(3, 1.0)]),
            mk(0, 0.0, self.mean_service[3], vec![]),
        ])
    }

    /// The destabilising priority assignment: station A prefers class 4
    /// (index 3), station B prefers class 2 (index 1).
    pub fn bad_priority(&self) -> Vec<Vec<usize>> {
        vec![vec![3, 0], vec![1, 2]]
    }

    /// A stabilising priority assignment (first-buffer-first-served).
    pub fn good_priority(&self) -> Vec<Vec<usize>> {
        vec![vec![0, 3], vec![2, 1]]
    }
}

/// Outcome of the stability experiment for one policy.
#[derive(Debug, Clone)]
pub struct StabilityRun {
    /// Policy label.
    pub label: String,
    /// Queue-length trajectory samples.
    pub result: NetworkSimResult,
    /// Least-squares growth rate of the total queue length per unit time
    /// (positive and large for an unstable run).
    pub growth_rate: f64,
}

fn growth_rate(times: &[f64], totals: &[f64]) -> f64 {
    // Simple least-squares slope.
    let n = times.len() as f64;
    let mean_t = times.iter().sum::<f64>() / n;
    let mean_x = totals.iter().sum::<f64>() / n;
    let num: f64 = times
        .iter()
        .zip(totals)
        .map(|(t, x)| (t - mean_t) * (x - mean_x))
        .sum();
    let den: f64 = times.iter().map(|t| (t - mean_t) * (t - mean_t)).sum();
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run the Lu–Kumar stability experiment for one priority assignment.
pub fn run_lu_kumar(
    params: &LuKumarParams,
    priority: &[Vec<usize>],
    label: &str,
    horizon: f64,
    rng: &mut dyn RngCore,
) -> StabilityRun {
    let network = params.build();
    let result = simulate_network(&network, priority, horizon, 0.0, Some(200), rng);
    let growth = growth_rate(&result.sample_times, &result.trajectory);
    StabilityRun {
        label: label.to_string(),
        result,
        growth_rate: growth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_parameters_satisfy_the_instability_conditions() {
        let p = LuKumarParams::default();
        let (rho_a, rho_b) = p.station_loads();
        assert!(rho_a < 1.0 && rho_b < 1.0, "both stations nominally stable");
        assert!(p.virtual_station_load() > 1.0, "virtual station overloaded");
        let net = p.build();
        let loads = net.station_loads();
        assert!((loads[0] - rho_a).abs() < 1e-9);
        assert!((loads[1] - rho_b).abs() < 1e-9);
    }

    #[test]
    fn bad_priority_diverges_good_priority_does_not() {
        // E14: under the bad priority rule the total queue grows roughly
        // linearly; under the good rule it stays bounded.
        let p = LuKumarParams::default();
        let horizon = 8_000.0;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let bad = run_lu_kumar(&p, &p.bad_priority(), "bad priority", horizon, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let good = run_lu_kumar(&p, &p.good_priority(), "good priority", horizon, &mut rng);
        assert!(
            bad.growth_rate > 10.0 * good.growth_rate.max(1e-6),
            "bad {} vs good {}",
            bad.growth_rate,
            good.growth_rate
        );
        assert!(
            bad.result.final_total > 20 * good.result.final_total.max(1),
            "bad final {} vs good final {}",
            bad.result.final_total,
            good.result.final_total
        );
        assert!(
            good.growth_rate.abs() < 0.05,
            "good policy should not drift: {}",
            good.growth_rate
        );
    }

    #[test]
    fn lighter_load_is_stable_even_under_bad_priority() {
        // With the virtual-station load below 1 the bad priority rule is
        // stable too.
        let p = LuKumarParams {
            arrival_rate: 1.0,
            mean_service: [0.1, 0.35, 0.1, 0.35],
        };
        assert!(p.virtual_station_load() < 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let run = run_lu_kumar(
            &p,
            &p.bad_priority(),
            "bad priority, light",
            8_000.0,
            &mut rng,
        );
        assert!(run.growth_rate.abs() < 0.05, "growth {}", run.growth_rate);
        assert!(run.result.final_total < 200);
    }
}
