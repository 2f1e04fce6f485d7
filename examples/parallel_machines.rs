//! Scheduling a batch of stochastic jobs on parallel machines: SEPT vs LEPT
//! and the choice of objective (experiments E3/E4 as a worked example).
//!
//! ```text
//! cargo run --release --example parallel_machines
//! ```
//!
//! A compute cluster must run a batch of jobs whose durations are random
//! but with known means.  If you care about average turnaround (flowtime),
//! run the *short* jobs first (SEPT); if you care about finishing the whole
//! batch early (makespan), start the *long* jobs first (LEPT).  For
//! exponential durations both statements are exactly optimal; the example
//! verifies this with the exact dynamic program and then checks a
//! high-variability workload by simulation.

use stochastic_scheduling::batch::exact_exp::{list_policy_value, optimal_value};
use stochastic_scheduling::batch::parallel::{evaluate_list_policy, ParallelMetric};
use stochastic_scheduling::batch::policies::{lept_order, sept_order};
use stochastic_scheduling::core::instance::BatchInstance;
use stochastic_scheduling::distributions::{dyn_dist, Exponential, HyperExponential};

fn main() {
    // --- exact analysis for exponential jobs ---------------------------
    let mean_minutes = [12.0, 3.0, 8.0, 25.0, 5.0, 18.0, 9.0, 2.0];
    let mut builder = BatchInstance::builder();
    for &m in &mean_minutes {
        builder = builder.unweighted_job(dyn_dist(Exponential::new(1.0 / m)));
    }
    let instance = builder.build();
    let machines = 3;

    println!("batch of {} exponential jobs on {machines} machines (means in minutes: {mean_minutes:?})\n", mean_minutes.len());

    let sept = sept_order(&instance);
    let lept = lept_order(&instance);
    for (heading, objective, attained_by) in [
        (
            "total flowtime  E[sum C]   (average turnaround)",
            ParallelMetric::TotalFlowtime,
            "SEPT attains it — Weber 1982",
        ),
        (
            "makespan  E[max C]   (time until the whole batch is done)",
            ParallelMetric::Makespan,
            "LEPT attains it — Bruno/Downey/Frederickson 1981",
        ),
    ] {
        println!("objective: {heading}");
        for (name, list) in [("SEPT", &sept), ("LEPT", &lept)] {
            let value = list_policy_value(&instance, list, machines, objective);
            println!("  {name}    : {value:.2}");
        }
        let optimum = optimal_value(&instance, machines, objective);
        println!("  optimal : {optimum:.2}   ({attained_by})\n");
    }

    // --- a high-variability workload, by simulation ---------------------
    println!(
        "same means but heavy-tailed (hyperexponential, scv = 6) durations, 20000 replications:"
    );
    let mut builder = BatchInstance::builder();
    for &m in &mean_minutes {
        builder = builder.unweighted_job(dyn_dist(HyperExponential::with_mean_scv(m, 6.0)));
    }
    let inst = builder.build();
    let sept = sept_order(&inst);
    let lept = lept_order(&inst);
    let reps = 20_000;
    let flow_sept = evaluate_list_policy(
        &inst,
        &sept,
        machines,
        ParallelMetric::TotalFlowtime,
        reps,
        1,
    );
    let flow_lept = evaluate_list_policy(
        &inst,
        &lept,
        machines,
        ParallelMetric::TotalFlowtime,
        reps,
        1,
    );
    let mk_sept = evaluate_list_policy(&inst, &sept, machines, ParallelMetric::Makespan, reps, 2);
    let mk_lept = evaluate_list_policy(&inst, &lept, machines, ParallelMetric::Makespan, reps, 2);
    println!(
        "  flowtime: SEPT {:.1} ± {:.1}   LEPT {:.1} ± {:.1}",
        flow_sept.mean, flow_sept.ci95, flow_lept.mean, flow_lept.ci95
    );
    println!(
        "  makespan: SEPT {:.1} ± {:.1}   LEPT {:.1} ± {:.1}",
        mk_sept.mean, mk_sept.ci95, mk_lept.mean, mk_lept.ci95
    );
    println!("\nthe qualitative ranking survives outside the exponential assumptions, with a smaller margin for the makespan objective.");
}
