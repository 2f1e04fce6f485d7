//! Multiclass M/M/m parallel servers with the cµ/Klimov index used as a
//! heuristic (Glazebrook–Niño-Mora 2001).
//!
//! With more than one server the cµ-rule is no longer exactly optimal, but
//! the survey quotes the achievable-region analysis showing that the index
//! heuristic comes with a relaxation lower bound whose gap closes in heavy
//! traffic.  This module provides:
//!
//! * an event-driven simulator of the multiclass M/M/m queue under a
//!   nonpreemptive static priority order;
//! * a **valid lower bound**: any policy for `m` unit-rate servers can be
//!   emulated, preemptively and with the same completion times, on a single
//!   server that works `m` times faster, and on that fast server the
//!   preemptive cµ-rule is optimal for exponential service times; its exact
//!   value comes from the preemptive-priority formulas of
//!   [`crate::cobham`];
//! * a heavy-traffic sweep (experiment E13) reporting the ratio of the
//!   simulated index-policy cost to the bound as the load approaches one.

use crate::cmu::cmu_order;
use crate::cobham::mg1_preemptive_priority;
use crate::population::{holding_cost_rate, ranks, Arrivals, Population};
use rand::RngCore;
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, Exponential};

/// Result of one M/M/m simulation run.
#[derive(Debug, Clone)]
pub struct MmmResult {
    /// Time-average number in system per class.
    pub mean_number: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
}

/// Simulate a multiclass M/M/m queue (exponential services) under a
/// nonpreemptive static priority order.
pub fn simulate_mmm_priority(
    classes: &[JobClass],
    servers: usize,
    priority_order: &[usize],
    horizon: f64,
    warmup: f64,
    rng: &mut dyn RngCore,
) -> MmmResult {
    let n = classes.len();
    assert!(servers >= 1);
    assert_eq!(priority_order.len(), n);
    assert!(horizon > warmup);
    let rank = ranks(priority_order);

    // Customers waiting per class.
    let mut waiting = vec![0usize; n];
    let mut arrivals = Arrivals::new(classes.iter().map(|c| c.arrival_rate), rng);
    // Busy servers: completion times + class.
    let mut busy: Vec<(f64, usize)> = Vec::with_capacity(servers);
    let mut population = Population::new(n, warmup);

    loop {
        let (arr_class, arr_time) = arrivals.earliest();
        let next_completion = busy.iter().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
        let clock = arr_time.min(next_completion);
        if clock > horizon {
            break;
        }
        population.advance(clock);

        if arr_time <= next_completion {
            population.add(arr_class, clock);
            waiting[arr_class] += 1;
            arrivals.renew(arr_class, clock, rng);
        } else {
            // Remove the completing server.
            let pos = busy
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let (_, class) = busy.swap_remove(pos);
            population.remove(class, clock);
        }

        // Assign free servers to the highest-priority waiting customers.
        while busy.len() < servers {
            let next_class = (0..n).filter(|&c| waiting[c] > 0).min_by_key(|&c| rank[c]);
            let Some(c) = next_class else { break };
            waiting[c] -= 1;
            let service = classes[c].service.sample(rng);
            busy.push((clock + service, c));
        }
    }

    let mean_number = population.mean_number(horizon);
    let holding_cost_rate = holding_cost_rate(classes.iter().map(|c| c.holding_cost), &mean_number);
    MmmResult {
        mean_number,
        holding_cost_rate,
    }
}

/// The Erlang-C delay probability of an M/M/c queue: `P(wait > 0)` for
/// Poisson arrivals at rate `lambda`, `c` servers each of rate `mu`.
/// Computed through the Erlang-B recursion `B_k = a B_{k-1} / (k + a
/// B_{k-1})` (numerically stable for any offered load `a = λ/µ`), then
/// converted via `C = B_c / (1 - ρ (1 - B_c))`.
pub fn erlang_c(servers: usize, lambda: f64, mu: f64) -> f64 {
    assert!(servers >= 1 && lambda > 0.0 && mu > 0.0);
    let rho = lambda / (servers as f64 * mu);
    assert!(rho < 1.0, "Erlang C needs a stable queue (rho = {rho})");
    let a = lambda / mu;
    let mut b = 1.0; // Erlang-B with 0 servers
    for k in 1..=servers {
        b = a * b / (k as f64 + a * b);
    }
    b / (1.0 - rho * (1.0 - b))
}

/// Exact mean queueing delay (time in queue, excluding service) of the
/// FIFO M/M/c queue: `W_q = C(c, λ/µ) / (c µ - λ)`.
pub fn mmc_mean_wait(servers: usize, lambda: f64, mu: f64) -> f64 {
    erlang_c(servers, lambda, mu) / (servers as f64 * mu - lambda)
}

/// Stationary distribution `p_0..p_K` of the M/M/c/K queue (`capacity`
/// = `K` = the maximum number *in system*, waiting plus in service, so
/// `capacity >= servers`).  Finite birth–death chain, so no stability
/// condition: any offered load is fine, including overload.
///
/// Unnormalised terms accumulate relative to `p_0 = 1` via
/// `t_{n+1} = t_n · a / (n+1)` for `n < c` and `t_{n+1} = t_n · ρ` above,
/// with `a = λ/µ` and `ρ = a/c` — numerically stable for the moderate
/// buffer sizes finite-queue models use.
fn mmck_distribution(servers: usize, capacity: usize, lambda: f64, mu: f64) -> Vec<f64> {
    assert!(servers >= 1 && lambda > 0.0 && mu > 0.0);
    assert!(
        capacity >= servers,
        "system capacity K = {capacity} must admit the {servers} servers"
    );
    let a = lambda / mu;
    let rho = a / servers as f64;
    let mut terms = Vec::with_capacity(capacity + 1);
    let mut t = 1.0;
    terms.push(t);
    for n in 0..capacity {
        t *= if n < servers { a / (n + 1) as f64 } else { rho };
        terms.push(t);
    }
    let norm: f64 = terms.iter().sum();
    terms.iter_mut().for_each(|p| *p /= norm);
    terms
}

/// Blocking probability `p_K` of the M/M/c/K queue: by PASTA, the
/// fraction of Poisson arrivals that find the system full and are lost.
/// `capacity` counts requests *in system* (waiting + in service).  At
/// `capacity == servers` this is exactly the Erlang-B loss formula.
pub fn mmck_blocking_probability(servers: usize, capacity: usize, lambda: f64, mu: f64) -> f64 {
    *mmck_distribution(servers, capacity, lambda, mu)
        .last()
        .expect("the distribution is nonempty")
}

/// Exact mean queueing delay (time in queue, excluding service) of an
/// *accepted* request in the M/M/c/K queue: `W_q = L_q / λ (1 − p_K)` by
/// Little's law on the effective arrival rate.
pub fn mmck_mean_wait(servers: usize, capacity: usize, lambda: f64, mu: f64) -> f64 {
    let p = mmck_distribution(servers, capacity, lambda, mu);
    let lq: f64 = p
        .iter()
        .enumerate()
        .skip(servers + 1)
        .map(|(n, pn)| (n - servers) as f64 * pn)
        .sum();
    let lambda_eff = lambda * (1.0 - p[capacity]);
    if lambda_eff > 0.0 {
        lq / lambda_eff
    } else {
        0.0
    }
}

/// The fast-single-server lower bound on the holding-cost rate of *any*
/// policy for `m` parallel unit-rate servers: the preemptive cµ optimum of
/// the M/G/1 queue whose service times are the originals divided by `m`.
pub fn fast_server_lower_bound(classes: &[JobClass], servers: usize) -> f64 {
    let scaled: Vec<JobClass> = classes
        .iter()
        .map(|c| {
            JobClass::new(
                c.id,
                c.arrival_rate,
                dyn_dist(Exponential::with_mean(c.mean_service() / servers as f64)),
                c.holding_cost,
            )
        })
        .collect();
    let order = cmu_order(&scaled);
    mg1_preemptive_priority(&scaled, &order).holding_cost_rate
}

/// One point of the heavy-traffic sweep of experiment E13.
#[derive(Debug, Clone)]
pub struct HeavyTrafficPoint {
    /// System load `ρ = Σ λ_j E[S_j] / m`.
    pub rho: f64,
    /// Simulated holding-cost rate of the cµ priority rule.
    pub cmu_cost: f64,
    /// Fast-single-server lower bound.
    pub lower_bound: f64,
    /// `cmu_cost / lower_bound`.
    pub ratio: f64,
}

/// Sweep the load by scaling all arrival rates: for each factor, simulate
/// the cµ rule on `servers` servers and compare with the lower bound.
///
/// The sweep points are simulated in parallel on the workspace thread pool;
/// each point draws from its own [`ss_sim::RngStreams`] stream keyed by the
/// point index, so the output is bit-for-bit identical for any thread count.
pub fn heavy_traffic_sweep(
    base_classes: &[JobClass],
    servers: usize,
    load_factors: &[f64],
    horizon: f64,
    warmup: f64,
    seed: u64,
) -> Vec<HeavyTrafficPoint> {
    let streams = ss_sim::RngStreams::new(seed);
    ss_sim::pool::parallel_indexed(load_factors.len(), |point| {
        let factor = load_factors[point];
        let classes: Vec<JobClass> = base_classes
            .iter()
            .map(|c| {
                JobClass::new(
                    c.id,
                    c.arrival_rate * factor,
                    c.service.clone(),
                    c.holding_cost,
                )
            })
            .collect();
        let rho: f64 = classes.iter().map(|c| c.load()).sum::<f64>() / servers as f64;
        assert!(rho < 1.0, "sweep point is unstable (rho = {rho})");
        let order = cmu_order(&classes);
        let mut rng = streams.stream(point as u64);
        let sim = simulate_mmm_priority(&classes, servers, &order, horizon, warmup, &mut rng);
        let lb = fast_server_lower_bound(&classes, servers);
        HeavyTrafficPoint {
            rho,
            cmu_cost: sim.holding_cost_rate,
            lower_bound: lb,
            ratio: sim.holding_cost_rate / lb,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base_classes() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.5, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.4, dyn_dist(Exponential::with_mean(0.6)), 3.0),
        ]
    }

    #[test]
    fn single_server_single_class_matches_mm1() {
        let classes = vec![JobClass::new(
            0,
            0.6,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        )];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let res = simulate_mmm_priority(&classes, 1, &[0], 80_000.0, 2_000.0, &mut rng);
        // M/M/1: L = rho / (1 - rho) = 1.5.
        assert!(
            (res.mean_number[0] - 1.5).abs() < 0.15,
            "L = {}",
            res.mean_number[0]
        );
    }

    #[test]
    fn two_server_erlang_c_sanity() {
        // M/M/2 with rho = 0.75 per-server: L = Lq + rho*2 where Lq from Erlang C.
        let classes = vec![JobClass::new(
            0,
            1.5,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        )];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let res = simulate_mmm_priority(&classes, 2, &[0], 80_000.0, 2_000.0, &mut rng);
        // L = Lq + a from Little's law, Lq = lambda * Wq.
        let expected = 1.5 * mmc_mean_wait(2, 1.5, 1.0) + 1.5;
        assert!(
            (res.mean_number[0] - expected).abs() / expected < 0.08,
            "L = {} vs Erlang-C {expected}",
            res.mean_number[0]
        );
    }

    #[test]
    fn erlang_c_matches_hand_computed_values() {
        // m=2, a=1.5: the classic textbook value P(wait) = 9/14 = 0.642857.
        assert!((erlang_c(2, 1.5, 1.0) - 9.0 / 14.0).abs() < 1e-12);
        // c=1 reduces to M/M/1: P(wait) = rho, Wq = rho / (mu - lambda).
        assert!((erlang_c(1, 0.6, 1.0) - 0.6).abs() < 1e-12);
        assert!((mmc_mean_wait(1, 0.6, 1.0) - 0.6 / 0.4).abs() < 1e-12);
        // Rate scaling: speeding everything up by x scales Wq by 1/x.
        let w = mmc_mean_wait(3, 2.4, 1.0);
        assert!((mmc_mean_wait(3, 4.8, 2.0) - w / 2.0).abs() < 1e-12);
    }

    #[test]
    fn mmck_reduces_to_the_known_closed_forms() {
        // K = c is Erlang B; cross-check against the B recursion that
        // erlang_c() uses internally (c=2, a=1.5): B_2 = 0.310344827...
        let a: f64 = 1.5;
        let mut b = 1.0;
        for k in 1..=2 {
            b = a * b / (k as f64 + a * b);
        }
        assert!((mmck_blocking_probability(2, 2, 1.5, 1.0) - b).abs() < 1e-12);
        // c=1 is M/M/1/K: p_K = (1-rho) rho^K / (1 - rho^{K+1}).
        let rho: f64 = 0.9;
        let k = 5;
        let exact = (1.0 - rho) * rho.powi(k) / (1.0 - rho.powi(k + 1));
        assert!((mmck_blocking_probability(1, k as usize, 0.9, 1.0) - exact).abs() < 1e-12);
        // rho = 1 on a single server: the distribution is uniform, so
        // p_K = 1 / (K + 1).
        assert!((mmck_blocking_probability(1, 4, 1.0, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mmck_converges_to_erlang_c_as_the_buffer_grows() {
        // Large K: blocking vanishes and W_q approaches the M/M/c value.
        let w_inf = mmc_mean_wait(3, 2.4, 1.0);
        let w_k = mmck_mean_wait(3, 400, 2.4, 1.0);
        assert!(mmck_blocking_probability(3, 400, 2.4, 1.0) < 1e-12);
        assert!((w_k - w_inf).abs() < 1e-9, "W_q {w_k} vs Erlang-C {w_inf}");
    }

    #[test]
    fn mmck_handles_overload() {
        // rho > 1 is fine on a finite buffer; most arrivals are blocked
        // and the blocking probability approaches 1 - 1/rho (from above:
        // the sub-c terms only subtract mass) as K grows.
        let p = mmck_blocking_probability(2, 10, 4.0, 1.0);
        assert!(p > 0.5 && p < 0.51, "p_K = {p}");
        let p_deep = mmck_blocking_probability(2, 200, 4.0, 1.0);
        assert!(
            (p_deep - 0.5).abs() < 1e-9,
            "deep-buffer overload: {p_deep}"
        );
    }

    #[test]
    fn lower_bound_is_below_simulated_cmu() {
        let classes = base_classes();
        let lb = fast_server_lower_bound(&classes, 2);
        let order = cmu_order(&classes);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sim = simulate_mmm_priority(&classes, 2, &order, 60_000.0, 2_000.0, &mut rng);
        assert!(
            lb <= sim.holding_cost_rate * 1.02,
            "LB {lb} vs sim {}",
            sim.holding_cost_rate
        );
    }

    #[test]
    fn cmu_beats_reverse_priority_on_two_servers() {
        let classes = base_classes();
        let order = cmu_order(&classes);
        let mut reverse = order.clone();
        reverse.reverse();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = simulate_mmm_priority(&classes, 2, &order, 60_000.0, 2_000.0, &mut rng);
        let b = simulate_mmm_priority(&classes, 2, &reverse, 60_000.0, 2_000.0, &mut rng);
        assert!(a.holding_cost_rate < b.holding_cost_rate);
    }

    #[test]
    fn heavy_traffic_ratio_approaches_one() {
        // E13 shape: the ratio sim / bound falls toward 1 as rho -> 1.
        let classes = base_classes(); // load 0.74 on 2 servers at factor 1... scale below
        let points = heavy_traffic_sweep(&classes, 2, &[1.0, 2.4], 120_000.0, 4_000.0, 5);
        assert_eq!(points.len(), 2);
        assert!(points[0].rho < points[1].rho && points[1].rho < 1.0);
        assert!(points[0].ratio >= 1.0 - 0.05);
        assert!(
            points[1].ratio < points[0].ratio,
            "ratio should fall towards 1 in heavy traffic: {:?}",
            points
        );
    }

    #[test]
    fn heavy_traffic_sweep_is_thread_count_invariant() {
        let classes = base_classes();
        let run = |threads: usize| {
            ss_sim::pool::with_threads(threads, || {
                heavy_traffic_sweep(&classes, 2, &[1.0, 1.6, 2.0], 30_000.0, 1_000.0, 42)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.rho.to_bits(), b.rho.to_bits());
            assert_eq!(a.cmu_cost.to_bits(), b.cmu_cost.to_bits());
            assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        }
    }
}
