//! A manufacturing workstation processing several part types — the
//! motivating example from the survey's introduction.
//!
//! ```text
//! cargo run --release --example manufacturing_workstation
//! ```
//!
//! Part types arrive at random (Poisson), their processing times are random
//! with different variability per type, and each waiting part ties up
//! capital at a type-specific rate.  The example compares scheduling
//! policies for the workstation in steady state:
//!
//! * FIFO (no prioritisation),
//! * the cµ-rule (optimal for linear holding costs),
//! * the reverse of the cµ-rule (a deliberately bad rule, to show the spread),
//! * and, when parts need rework (feedback), the Klimov index policy.

use rand_chacha::ChaCha8Rng;
use stochastic_scheduling::core::job::JobClass;
use stochastic_scheduling::distributions::{
    dyn_dist, Deterministic, Erlang, Exponential, HyperExponential,
};
use stochastic_scheduling::queueing::cmu::cmu_order;
use stochastic_scheduling::queueing::cobham::mg1_nonpreemptive_priority;
use stochastic_scheduling::queueing::klimov::{klimov_indices, klimov_order, KlimovNetwork};
use stochastic_scheduling::queueing::mg1::{simulate_mg1, Discipline, Mg1Config};
use stochastic_scheduling::queueing::network::simulate_network;

fn seeded(seed: u64) -> ChaCha8Rng {
    use rand::SeedableRng;
    ChaCha8Rng::seed_from_u64(seed)
}

fn main() {
    // Three part types: castings (slow, steady), brackets (fast, low value),
    // precision housings (very variable, expensive to keep waiting).
    let classes = vec![
        JobClass::new(0, 0.25, dyn_dist(Erlang::with_mean(4, 1.2)), 1.0),
        JobClass::new(1, 0.50, dyn_dist(Deterministic::new(0.4)), 0.5),
        JobClass::new(
            2,
            0.10,
            dyn_dist(HyperExponential::with_mean_scv(2.0, 6.0)),
            5.0,
        ),
    ];
    let load: f64 = classes.iter().map(|c| c.load()).sum();
    println!("workstation load rho = {load:.3}\n");

    let cmu = cmu_order(&classes);
    let mut reverse = cmu.clone();
    reverse.reverse();
    println!("cmu priority order (highest first): {cmu:?}");

    // Exact values where the formulas apply, simulation for FIFO.
    let exact_cmu = mg1_nonpreemptive_priority(&classes, &cmu);
    let exact_rev = mg1_nonpreemptive_priority(&classes, &reverse);
    let sim = |discipline: Discipline, seed: u64| {
        let config = Mg1Config {
            classes: classes.clone(),
            discipline,
            horizon: 400_000.0,
            warmup: 10_000.0,
        };
        simulate_mg1(&config, &mut seeded(seed))
    };
    let fifo = sim(Discipline::Fifo, 1);
    let sim_cmu = sim(Discipline::NonpreemptivePriority(cmu.clone()), 2);

    println!("\nsteady-state holding-cost rate (capital tied up per hour):");
    println!(
        "  cmu rule      : {:.4}  (exact Cobham)",
        exact_cmu.holding_cost_rate
    );
    println!(
        "  cmu rule      : {:.4}  (simulation)",
        sim_cmu.holding_cost_rate
    );
    println!(
        "  FIFO          : {:.4}  (simulation)",
        fifo.holding_cost_rate
    );
    println!(
        "  reverse cmu   : {:.4}  (exact Cobham)",
        exact_rev.holding_cost_rate
    );
    println!(
        "\nthe cmu rule saves {:.1}% of the FIFO holding cost\n",
        (1.0 - exact_cmu.holding_cost_rate / fifo.holding_cost_rate) * 100.0
    );

    // Rework loop: 20% of precision housings fail inspection and return as
    // rework jobs (a fourth class) — the Klimov model.
    println!("== with a rework loop (Klimov's model) ==\n");
    let network = KlimovNetwork::new(
        vec![0.25, 0.50, 0.10, 0.0],
        vec![
            dyn_dist(Erlang::with_mean(4, 1.2)),
            dyn_dist(Deterministic::new(0.4)),
            dyn_dist(HyperExponential::with_mean_scv(2.0, 6.0)),
            dyn_dist(Exponential::with_mean(1.5)),
        ],
        vec![1.0, 0.5, 5.0, 5.0],
        vec![
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.2], // housings go to rework with prob 0.2
            vec![0.0, 0.0, 0.0, 0.0],
        ],
    );
    println!("total load with rework: {:.3}", network.total_load());
    println!(
        "Klimov indices: {:?}",
        klimov_indices(&network)
            .iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    let order = klimov_order(&network);
    println!("Klimov priority order: {order:?}");
    // A Klimov network is a one-station queueing network; simulate each
    // order on it, with the trajectory (unused here) at its two-point minimum.
    let station = network.as_network();
    let sim = |order: Vec<usize>| {
        simulate_network(&station, &[order], 400_000.0, 10_000.0, 2, &mut seeded(3))
    };
    let res = sim(order);
    println!(
        "holding-cost rate under the Klimov policy : {:.4}",
        res.holding_cost_rate
    );
    let naive = sim(vec![0, 1, 2, 3]);
    println!(
        "holding-cost rate under a naive order     : {:.4}",
        naive.holding_cost_rate
    );
}
