//! The experiment harness: one function per experiment of `DESIGN.md`.
//!
//! Every function is deterministic (fixed seeds from [`crate::workloads`])
//! and returns the markdown table(s) recorded in `EXPERIMENTS.md`.  The
//! `experiments` binary prints them to stdout.

use crate::workloads;
use ss_bandits::branching::estimate_order_cost_parallel;
use ss_bandits::exact::MultiArmedBandit;
use ss_bandits::gittins::{
    gittins_indices_calibration, gittins_indices_restart, gittins_indices_vwb,
};
use ss_bandits::mpi::marginal_productivity_indices;
use ss_bandits::restless::{
    asymptotic_sweep, relaxation_bound_identical, simulate_restless, whittle_indices,
    RestlessPolicy,
};
use ss_bandits::switching::SwitchingBandit;
use ss_batch::exact_exp::{
    lept_order_exp, list_policy_flowtime, list_policy_makespan, optimal_flowtime, optimal_makespan,
    sept_order_exp, ExpParallelInstance,
};
use ss_batch::policies::{lept_order, random_order, sept_order, weight_only_order, wsept_order};
use ss_batch::preemptive::{
    simulate_gittins_preemptive, simulate_wsept_nonpreemptive, GittinsIndexTable, PreemptiveConfig,
};
use ss_batch::single_machine::{exhaustive_optimal_order, expected_weighted_flowtime};
use ss_batch::turnpike::turnpike_sweep;
use ss_batch::two_point_exact::{
    best_static_list, exact_list_performance, lept_list, sept_list, TwoPointInstance,
};
use ss_core::instance::{InstanceFamily, InstanceGenerator};
use ss_core::result::ComparisonTable;
use ss_distributions::{dyn_dist, HyperExponential, TwoPoint};
use ss_queueing::achievable_region::{
    cmu_via_adaptive_greedy, klimov_via_adaptive_greedy, region_lp, vertex_performance,
};
use ss_queueing::cmu::cmu_order;
use ss_queueing::cobham::{best_nonpreemptive_order, mg1_nonpreemptive_priority};
use ss_queueing::conservation::{conserved_work, weighted_wait_sum};
use ss_queueing::fluid::{integrate_priority_fluid, FluidNetwork};
use ss_queueing::klimov::klimov_order;
use ss_queueing::mg1::{simulate_mg1, Discipline, Mg1Config};
use ss_queueing::network::simulate_network;
use ss_queueing::parallel_servers::heavy_traffic_sweep;
use ss_queueing::setups::{
    simulate_setup_policy, sqrt_rule_thresholds, threshold_sweep, SetupPolicy,
};
use ss_queueing::stability::{run_lu_kumar, LuKumarParams};

/// Identifier + human description of one experiment.
pub struct Experiment {
    /// Identifier such as `"E1"`.
    pub id: &'static str,
    /// One-line description (shows up in the binary's `--list` output).
    pub description: &'static str,
    /// Run the experiment and return its markdown report.
    pub run: fn() -> String,
}

impl Experiment {
    /// Whether this experiment's *report* contains wall-clock measurements
    /// of its own pool sweeps, so it must not share the machine with
    /// concurrently running neighbours (the values would still be
    /// bit-identical — only the reported timings would be distorted).
    pub fn timing_sensitive(&self) -> bool {
        self.id == "E21"
    }
}

/// One experiment's captured report plus the wall-clock it took to produce.
pub struct ExperimentReport {
    /// Identifier such as `"E1"`.
    pub id: &'static str,
    /// One-line description (copied from the [`Experiment`]).
    pub description: &'static str,
    /// The markdown report the experiment returned, or a `PANICKED: ...`
    /// line when it did not finish (see [`ExperimentReport::panicked`]).
    pub report: String,
    /// Wall-clock of this experiment's `run()` call.
    pub wall: std::time::Duration,
    /// Whether `run()` panicked.  The panic is captured per experiment so a
    /// single failure cannot discard the other buffered reports; callers
    /// that need a hard failure (the binary, the conformance report) check
    /// this and exit nonzero after printing everything that did finish.
    pub panicked: bool,
}

/// Run `selected` experiments on the current pool lanes and return the
/// reports in the order they were selected (E-id order when the caller
/// preserves it), each with its wall-clock.
///
/// The experiments fan out with one [`ss_sim::pool::parallel_indexed`], so
/// on one lane they run sequentially on the calling thread and on more
/// lanes each experiment's own parallel calls run serially on its lane
/// (the nested-call rule): concurrency moves to the coarsest grain.
/// Either way every experiment draws from its own fixed-seed
/// [`ss_sim::RngStreams`]-derived generators, so the *reports* are
/// byte-for-byte identical for any lane count — only the wall-clocks
/// change — with one exception: timing-sensitive experiments (E21) embed
/// their own measured wall-clock tables in the report body, which vary run
/// to run by construction.  They always run alone, after the concurrent
/// batch, and byte-identity consumers (the `experiments-subset`
/// conformance target) exclude them.
pub fn run_experiments(selected: &[&Experiment]) -> Vec<ExperimentReport> {
    let timed = |e: &Experiment| {
        let start = std::time::Instant::now();
        // Capture a panic instead of unwinding through the harness: one
        // failing experiment must not discard the buffered reports of the
        // experiments that finished.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(e.run));
        let wall = start.elapsed();
        let (report, panicked) = match outcome {
            Ok(report) => (report, false),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                (format!("PANICKED: {msg}\n"), true)
            }
        };
        ExperimentReport {
            id: e.id,
            description: e.description,
            report,
            wall,
            panicked,
        }
    };
    let (concurrent, exclusive): (Vec<usize>, Vec<usize>) =
        (0..selected.len()).partition(|&i| !selected[i].timing_sensitive());
    let batch =
        ss_sim::pool::parallel_indexed(concurrent.len(), |i| timed(selected[concurrent[i]]));
    let mut slots: Vec<Option<ExperimentReport>> = (0..selected.len()).map(|_| None).collect();
    for (&slot, report) in concurrent.iter().zip(batch) {
        slots[slot] = Some(report);
    }
    // Timing-sensitive experiments get the machine to themselves, outside
    // any fan-out, so they can scope and measure their own lane counts.
    for &i in &exclusive {
        slots[i] = Some(timed(selected[i]));
    }
    slots
        .into_iter()
        .map(|r| r.expect("every selected experiment ran"))
        .collect()
}

/// Assemble the `EXPERIMENTS.md` document from captured reports
/// (`experiments --markdown` pipes this straight into the file).
pub fn markdown_document(reports: &[ExperimentReport]) -> String {
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out = String::from(
        "# EXPERIMENTS — measured results of E1–E22\n\nGenerated with:\n\n```\ncargo run --release -p ss-bench --bin experiments -- --markdown > EXPERIMENTS.md\n```\n\n",
    );
    out.push_str(&format!(
        "Every experiment is deterministic: fixed master seeds live in\n\
         `crates/bench/src/workloads.rs`, every replication and every sweep point\n\
         draws from its own ChaCha8 stream keyed by `(master seed, stream id)`\n\
         (`ss_sim::RngStreams`), and the parallel engine collects results in\n\
         index order, so these tables are bit-for-bit reproducible for any\n\
         `SS_THREADS` setting.  Wall-clock\n\
         lines are from the generating host ({host} logical CPU(s) for this\n\
         revision — see E21 for the serial-vs-parallel trajectory).\n\n\
         Per-experiment descriptions and the claims under test are catalogued in\n\
         `DESIGN.md`; `cargo run --release -p ss-bench --bin experiments -- --list`\n\
         prints the id/description index.\n\n",
    ));
    for r in reports {
        out.push_str(&format!("## {} — {}\n\n", r.id, r.description));
        out.push_str(r.report.trim_end());
        out.push_str(&format!("\n\n*({} wall-clock: {:.1?})*\n\n", r.id, r.wall));
    }
    while out.ends_with('\n') {
        out.pop();
    }
    out.push('\n');
    out
}

/// All experiments in id order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            description: "WSEPT optimality on a single machine (Rothkopf)",
            run: e1_wsept_single_machine,
        },
        Experiment {
            id: "E2",
            description: "Preemptive Gittins/Sevcik index vs WSEPT (Sevcik)",
            run: e2_preemptive_gittins,
        },
        Experiment {
            id: "E3",
            description: "SEPT optimal for flowtime on parallel machines (exponential)",
            run: e3_sept_parallel_flowtime,
        },
        Experiment {
            id: "E4",
            description: "LEPT optimal for makespan on parallel machines (exponential)",
            run: e4_lept_parallel_makespan,
        },
        Experiment {
            id: "E5",
            description: "Two-point jobs on two machines: index rules suboptimal (CHW)",
            run: e5_two_point_counterexample,
        },
        Experiment {
            id: "E6",
            description: "WSEPT turnpike asymptotics on parallel machines (Weiss)",
            run: e6_turnpike,
        },
        Experiment {
            id: "E7",
            description: "Gittins rule equals the exact DP optimum (Gittins-Jones)",
            run: e7_gittins_optimality,
        },
        Experiment {
            id: "E8",
            description: "Three Gittins algorithms agree (VWB / restart / calibration)",
            run: e8_gittins_agreement,
        },
        Experiment {
            id: "E9",
            description: "Switching costs break Gittins; hysteresis recovers (Asawa-Teneketzis)",
            run: e9_switching_costs,
        },
        Experiment {
            id: "E10",
            description:
                "Whittle index for restless bandits: bound + asymptotics (Whittle, Weber-Weiss)",
            run: e10_restless_whittle,
        },
        Experiment {
            id: "E11",
            description: "cmu rule in the multiclass M/G/1 (Cox-Smith) + conservation law",
            run: e11_cmu_mg1,
        },
        Experiment {
            id: "E12",
            description: "Klimov network: index policy vs all priority orders",
            run: e12_klimov,
        },
        Experiment {
            id: "E13",
            description: "Parallel servers: cmu heuristic vs relaxation bound in heavy traffic",
            run: e13_parallel_servers,
        },
        Experiment {
            id: "E14",
            description: "Lu-Kumar instability of a priority policy below nominal capacity",
            run: e14_stability,
        },
        Experiment {
            id: "E15",
            description: "Fluid approximation of the Lu-Kumar network",
            run: e15_fluid,
        },
        Experiment {
            id: "E16",
            description: "Setup times: cmu-with-setups vs exhaustive polling",
            run: e16_polling,
        },
        Experiment {
            id: "E17",
            description: "Achievable-region LP and adaptive-greedy indices (cmu / Klimov)",
            run: e17_achievable_region,
        },
        Experiment {
            id: "E18",
            description: "Branching bandits: index policy vs all static orders (Weiss)",
            run: e18_branching,
        },
        Experiment {
            id: "E19",
            description: "Marginal productivity indices vs Whittle bisection (PCL)",
            run: e19_mpi,
        },
        Experiment {
            id: "E20",
            description: "Setup thresholds: square-root rule vs sweep (Reiman-Wein)",
            run: e20_setup_thresholds,
        },
        Experiment {
            id: "E21",
            description: "Parallel replication engine: thread sweep, wall-clock and bit-identity",
            run: e21_parallel_replications,
        },
        Experiment {
            id: "E22",
            description: "Metastable retry storm: collapse unprotected, recovery with resilience",
            run: e22_metastable_retry_storm,
        },
    ]
}

/// The experiments `ids` name, matched case-insensitively, in E-id order
/// and each once.  An id that names no experiment is an error, and the
/// error names every such id.
pub fn select_experiments<'a>(
    experiments: &'a [Experiment],
    ids: &[String],
) -> Result<Vec<&'a Experiment>, String> {
    let names = |id: &String, e: &Experiment| id.eq_ignore_ascii_case(e.id);
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !experiments.iter().any(|e| names(id, e)))
        .collect();
    if !unknown.is_empty() {
        return Err(format!("unknown experiment id(s) {unknown:?}"));
    }
    Ok(experiments
        .iter()
        .filter(|e| ids.iter().any(|id| names(id, e)))
        .collect())
}

// ---------------------------------------------------------------- E1 ----

fn e1_wsept_single_machine() -> String {
    let mut out = String::new();
    // Small instances: exact optimality check over all permutations.
    let mut optimal_matches = 0;
    let trials = 20;
    for t in 0..trials {
        let inst = workloads::batch_instance(8, InstanceFamily::Mixed, 100 + t);
        let (_, best) = exhaustive_optimal_order(&inst);
        let wsept = expected_weighted_flowtime(&inst, &wsept_order(&inst));
        if (wsept - best).abs() < 1e-9 {
            optimal_matches += 1;
        }
    }
    out.push_str(&format!(
        "WSEPT equals the exhaustive optimum on {optimal_matches}/{trials} random 8-job instances.\n\n"
    ));

    // A representative large instance: heuristic comparison.
    let inst = workloads::batch_instance(200, InstanceFamily::Mixed, 7);
    let mut table = ComparisonTable::new(
        "E1: single machine, n = 200 mixed-distribution jobs, exact E[sum w C]",
        "E[sum w C]",
    );
    let mut rng = workloads::rng_for(77);
    table.add(
        "WSEPT (optimal)",
        expected_weighted_flowtime(&inst, &wsept_order(&inst)),
        None,
        "Rothkopf 1966",
    );
    table.add(
        "SEPT (ignores weights)",
        expected_weighted_flowtime(&inst, &sept_order(&inst)),
        None,
        "",
    );
    table.add(
        "weight-only",
        expected_weighted_flowtime(&inst, &weight_only_order(&inst)),
        None,
        "",
    );
    table.add(
        "LEPT",
        expected_weighted_flowtime(&inst, &lept_order(&inst)),
        None,
        "",
    );
    table.add(
        "random",
        expected_weighted_flowtime(&inst, &random_order(&inst, &mut rng)),
        None,
        "",
    );
    out.push_str(&table.to_markdown());
    out
}

// ---------------------------------------------------------------- E2 ----

fn e2_preemptive_gittins() -> String {
    let mut out = String::new();
    for (label, scv) in [
        ("exponential (scv = 1)", 1.0001f64),
        ("hyperexponential (scv = 8)", 8.0f64),
    ] {
        let mut builder = ss_core::instance::BatchInstance::builder();
        for _ in 0..4 {
            builder = builder.job(
                1.0,
                dyn_dist(HyperExponential::with_mean_scv(1.0, scv.max(1.01))),
            );
        }
        let inst = builder.build();
        let config = PreemptiveConfig {
            review_period: 0.1,
            min_quantum: 0.1,
            index_horizon: 40.0,
            grid_points: 12,
        };
        let reps = 4000;
        let mut rng = workloads::rng_for(200);
        let mut table = GittinsIndexTable::new(&inst, &config);
        let mut pre = 0.0;
        let mut non = 0.0;
        for _ in 0..reps {
            pre += simulate_gittins_preemptive(&mut table, &mut rng).weighted_flowtime;
            non += simulate_wsept_nonpreemptive(&inst, &mut rng);
        }
        pre /= reps as f64;
        non /= reps as f64;
        let mut table = ComparisonTable::new(
            format!("E2: preemptive vs nonpreemptive, 4 identical jobs, {label}"),
            "E[sum w C]",
        );
        table.add(
            "Gittins/Sevcik preemptive",
            pre,
            None,
            "optimal (Sevcik 1974)",
        );
        table.add(
            "WSEPT nonpreemptive",
            non,
            None,
            "optimal among nonpreemptive",
        );
        table.add(
            "preemption gain",
            (non - pre) / non * 100.0,
            None,
            "percent",
        );
        out.push_str(&table.to_markdown());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- E3/E4 --

fn exp_instance_for_parallel() -> ExpParallelInstance {
    ExpParallelInstance::unweighted(vec![0.4, 2.5, 1.0, 3.0, 0.7, 1.8, 1.3, 0.9])
}

fn e3_sept_parallel_flowtime() -> String {
    let inst = exp_instance_for_parallel();
    let mut out = String::new();
    for machines in [2usize, 3] {
        let mut table = ComparisonTable::new(
            format!("E3: E[sum C], 8 exponential jobs, m = {machines} (exact DP)"),
            "E[sum C]",
        );
        table.add(
            "optimal (non-idling DP)",
            optimal_flowtime(&inst, machines),
            None,
            "exact",
        );
        table.add(
            "SEPT",
            list_policy_flowtime(&inst, &sept_order_exp(&inst), machines),
            None,
            "optimal (Weber)",
        );
        table.add(
            "LEPT",
            list_policy_flowtime(&inst, &lept_order_exp(&inst), machines),
            None,
            "",
        );
        table.add(
            "index order 0..n",
            list_policy_flowtime(&inst, &(0..inst.len()).collect::<Vec<_>>(), machines),
            None,
            "arbitrary",
        );
        out.push_str(&table.to_markdown());
        out.push('\n');
    }
    out
}

fn e4_lept_parallel_makespan() -> String {
    let inst = exp_instance_for_parallel();
    let mut out = String::new();
    for machines in [2usize, 3] {
        let mut table = ComparisonTable::new(
            format!("E4: E[makespan], 8 exponential jobs, m = {machines} (exact DP)"),
            "E[max C]",
        );
        table.add(
            "optimal (non-idling DP)",
            optimal_makespan(&inst, machines),
            None,
            "exact",
        );
        table.add(
            "LEPT",
            list_policy_makespan(&inst, &lept_order_exp(&inst), machines),
            None,
            "optimal (Bruno et al.)",
        );
        table.add(
            "SEPT",
            list_policy_makespan(&inst, &sept_order_exp(&inst), machines),
            None,
            "",
        );
        out.push_str(&table.to_markdown());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- E5 ----

fn e5_two_point_counterexample() -> String {
    let inst = TwoPointInstance::unweighted(vec![
        TwoPoint::new(0.9, 0.1, 6.0),
        TwoPoint::new(0.5, 1.0, 2.0),
        TwoPoint::new(0.2, 0.5, 1.4),
        TwoPoint::new(0.8, 0.3, 7.0),
        TwoPoint::new(0.6, 0.8, 2.2),
        TwoPoint::new(0.7, 0.4, 3.5),
    ]);
    let machines = 2;
    let (best_order, best_mk) = best_static_list(&inst, machines, 2);
    let (_, _, sept_mk) = exact_list_performance(&inst, &sept_list(&inst), machines);
    let (_, _, lept_mk) = exact_list_performance(&inst, &lept_list(&inst), machines);
    let mut table = ComparisonTable::new(
        "E5: two-point jobs on 2 machines, exact E[makespan] over all 2^n realisations",
        "E[max C]",
    );
    table.add(
        format!("best static list {best_order:?}"),
        best_mk,
        None,
        "exhaustive over 6! lists",
    );
    table.add("LEPT list", lept_mk, None, "index rule");
    table.add("SEPT list", sept_mk, None, "index rule");
    let mut out = table.to_markdown();
    out.push_str(&format!(
        "\nLEPT excess over the best list: {:.2}% — the index rules are not optimal outside their assumptions (Coffman–Hofri–Weiss).\n",
        (lept_mk / best_mk - 1.0) * 100.0
    ));
    out
}

// ---------------------------------------------------------------- E6 ----

fn e6_turnpike() -> String {
    let gen = InstanceGenerator::with_family(InstanceFamily::Exponential);
    let points = turnpike_sweep(
        &gen,
        &[10, 20, 40, 80, 160, 320, 640],
        4,
        400,
        workloads::MASTER_SEED,
    );
    let mut out = String::from(
        "### E6: WSEPT on m = 4 machines vs speed-m relaxation bound (exponential jobs)\n\n| n | WSEPT (sim) | lower bound | additive gap | relative gap |\n|---|---|---|---|---|\n",
    );
    for p in &points {
        out.push_str(&format!(
            "| {} | {:.2} ± {:.2} | {:.2} | {:.2} | {:.4} |\n",
            p.n, p.wsept_value, p.wsept_ci95, p.lower_bound, p.additive_gap, p.relative_gap
        ));
    }
    out.push_str(
        "\nThe relative gap falls with n, up to Monte-Carlo noise in its small tail (Weiss's turnpike shape).\n",
    );
    out
}

// ---------------------------------------------------------------- E7 ----

fn e7_gittins_optimality() -> String {
    let mut out = String::from(
        "### E7: Gittins rule vs exact DP optimum (discounted MAB, beta = 0.9)\n\n| instance | optimal value | Gittins value | myopic value | Gittins gap |\n|---|---|---|---|---|\n",
    );
    for t in 0..6u64 {
        let projects = vec![
            workloads::bandit_project(3 + (t % 3) as usize, 300 + t),
            workloads::bandit_project(4, 400 + t),
            workloads::bandit_project(3, 500 + t),
        ];
        let mab = MultiArmedBandit::new(projects, 0.9);
        let init = vec![0usize; 3];
        let opt = mab.optimal_value(&init);
        let git = mab.gittins_policy_value(&init);
        let myopic = mab.myopic_policy_value(&init);
        out.push_str(&format!(
            "| #{t} | {opt:.6} | {git:.6} | {myopic:.6} | {:.2e} |\n",
            (opt - git).abs()
        ));
    }
    out.push_str("\nThe Gittins gap is at numerical precision in every instance; myopic is strictly worse whenever exploration matters.\n");
    out
}

// ---------------------------------------------------------------- E8 ----

fn e8_gittins_agreement() -> String {
    let mut out = String::from(
        "### E8: agreement of the three Gittins index algorithms (beta = 0.9)\n\n| states | max |VWB - restart| | max |VWB - calibration| |\n|---|---|---|\n",
    );
    for &k in &[5usize, 10, 20, 40] {
        let p = workloads::bandit_project(k, 800 + k as u64);
        let vwb = gittins_indices_vwb(&p, 0.9);
        let restart = gittins_indices_restart(&p, 0.9);
        let calib = gittins_indices_calibration(&p, 0.9);
        let d1 = vwb
            .iter()
            .zip(&restart)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let d2 = vwb
            .iter()
            .zip(&calib)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        out.push_str(&format!("| {k} | {d1:.2e} | {d2:.2e} |\n"));
    }
    out.push_str("\nAll three computations coincide to solver tolerance.\n");
    out
}

// ---------------------------------------------------------------- E9 ----

fn e9_switching_costs() -> String {
    use ss_bandits::project::BanditProject;
    let alternating = || BanditProject::new(vec![1.0, 0.3], vec![vec![(1, 1.0)], vec![(0, 1.0)]]);
    let mab = MultiArmedBandit::new(vec![alternating(), alternating()], 0.9);
    let mut out = String::from(
        "### E9: switching costs (two alternating projects, beta = 0.9)\n\n| switch cost | optimal | Gittins (ignores cost) | hysteresis index | Gittins gap % | hysteresis gap % |\n|---|---|---|---|---|---|\n",
    );
    for &cost in &[0.0, 0.5, 1.0, 2.0, 5.0] {
        let sb = SwitchingBandit::new(mab.clone(), cost);
        let init = [0usize, 0];
        let opt = sb.optimal_value(&init);
        let git = sb.gittins_value(&init);
        let hyst = sb.amortised_hysteresis_value(&init);
        out.push_str(&format!(
            "| {cost} | {opt:.3} | {git:.3} | {hyst:.3} | {:.1} | {:.1} |\n",
            (opt - git) / opt.abs().max(1e-9) * 100.0,
            (opt - hyst) / opt.abs().max(1e-9) * 100.0
        ));
    }
    out.push_str("\nThe plain Gittins rule degrades rapidly with the switching cost; the amortised hysteresis index recovers most of the gap (Asawa–Teneketzis).\n");
    out
}

// ---------------------------------------------------------------- E10 ---

fn e10_restless_whittle() -> String {
    let project = workloads::maintenance_restless();
    let indices = whittle_indices(&project);
    let mut out = format!(
        "### E10: restless bandits (machine maintenance, 5 wear levels)\n\nWhittle indices per wear level: {:?}\n\n",
        indices.iter().map(|x| (x * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );

    // Policy comparison at N = 20, m = 6.
    let n = 20;
    let m = 6;
    let projects: Vec<_> = (0..n).map(|_| project.clone()).collect();
    let mut rng = workloads::rng_for(1000);
    let horizon = 40_000;
    let whittle = simulate_restless(
        &projects,
        m,
        &RestlessPolicy::WhittleIndex(vec![indices.clone(); n]),
        horizon,
        &mut rng,
    );
    let myopic = simulate_restless(&projects, m, &RestlessPolicy::Myopic, horizon, &mut rng);
    let random = simulate_restless(&projects, m, &RestlessPolicy::Random, horizon, &mut rng);
    let bound = n as f64 * relaxation_bound_identical(&project, m as f64 / n as f64);
    let mut table = ComparisonTable::new(
        "E10a: N = 20 machines, m = 6 repair crews, average reward/period",
        "avg reward",
    );
    table.add("Whittle LP relaxation (upper bound)", bound, None, "ss-lp");
    table.add("Whittle index policy", whittle, None, "");
    table.add("myopic", myopic, None, "");
    table.add("random", random, None, "");
    out.push_str(&table.to_markdown());

    // Weber–Weiss asymptotics (per-point RNG streams, fanned over the pool).
    let points = asymptotic_sweep(
        &project,
        0.3,
        &[5, 10, 20, 40, 80, 160],
        40_000,
        workloads::seed_for(1001),
    );
    out.push_str("\n| N | m | Whittle per project | bound per project | relative gap |\n|---|---|---|---|---|\n");
    for p in &points {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.4} | {:.4} |\n",
            p.n_projects, p.m_active, p.whittle_per_project, p.bound_per_project, p.relative_gap
        ));
    }
    out.push_str("\nThe per-project gap to the relaxation bound shrinks as N grows with m/N fixed (Weber–Weiss asymptotic optimality).\n");
    out
}

// ---------------------------------------------------------------- E11 ---

fn e11_cmu_mg1() -> String {
    let mut out = String::new();
    let classes = workloads::mg1_three_classes(1.0);
    // Exact comparison over all priority orders + FIFO + simulation check.
    let (best_order, best_cost) = best_nonpreemptive_order(&classes);
    let cmu = cmu_order(&classes);
    let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
    let mut table = ComparisonTable::new(
        "E11a: 3-class M/G/1 at rho = 0.63, steady-state holding cost rate (exact Cobham)",
        "sum c_j E[L_j]",
    );
    table.add(
        format!("cmu order {cmu:?}"),
        cmu_cost,
        None,
        "optimal (Cox-Smith)",
    );
    table.add(
        format!("exhaustive best {best_order:?}"),
        best_cost,
        None,
        "exact",
    );
    let reverse: Vec<usize> = cmu.iter().rev().cloned().collect();
    table.add(
        "reverse cmu",
        mg1_nonpreemptive_priority(&classes, &reverse).holding_cost_rate,
        None,
        "",
    );
    // FIFO via simulation.
    let mut rng = workloads::rng_for(1100);
    let fifo = simulate_mg1(
        &Mg1Config {
            classes: classes.clone(),
            discipline: Discipline::Fifo,
            horizon: 200_000.0,
            warmup: 5_000.0,
        },
        &mut rng,
    );
    table.add("FIFO (simulated)", fifo.holding_cost_rate, None, "");
    // Simulated cmu as a calibration row.
    let mut rng = workloads::rng_for(1101);
    let sim_cmu = simulate_mg1(
        &Mg1Config {
            classes: classes.clone(),
            discipline: Discipline::NonpreemptivePriority(cmu.clone()),
            horizon: 200_000.0,
            warmup: 5_000.0,
        },
        &mut rng,
    );
    table.add(
        "cmu (simulated)",
        sim_cmu.holding_cost_rate,
        None,
        "simulator calibration",
    );
    out.push_str(&table.to_markdown());

    // Conservation law check + load sweep.
    out.push_str("\nConservation law: sum_j rho_j W_j per priority order (must be constant):\n\n| order | sum rho_j W_j |\n|---|---|\n");
    for order in [[0usize, 1, 2], [1, 2, 0], [2, 1, 0]] {
        out.push_str(&format!(
            "| {:?} | {:.6} |\n",
            order,
            weighted_wait_sum(&classes, &order)
        ));
    }
    out.push_str(&format!("| (theory) | {:.6} |\n", conserved_work(&classes)));

    out.push_str(
        "\n| rho | cmu cost (exact) | FIFO-like worst order cost | ratio |\n|---|---|---|---|\n",
    );
    for &scale in &[0.6, 1.0, 1.3, 1.45] {
        let classes = workloads::mg1_three_classes(scale);
        let rho: f64 = classes.iter().map(|c| c.load()).sum();
        let cmu = cmu_order(&classes);
        let cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
        let reverse: Vec<usize> = cmu.iter().rev().cloned().collect();
        let worst = mg1_nonpreemptive_priority(&classes, &reverse).holding_cost_rate;
        out.push_str(&format!(
            "| {rho:.3} | {cost:.3} | {worst:.3} | {:.3} |\n",
            worst / cost
        ));
    }
    out.push_str("\nThe advantage of the cmu rule grows with the load.\n");
    out
}

// ---------------------------------------------------------------- E12 ---

fn e12_klimov() -> String {
    let net = workloads::klimov_three_class();
    let orders: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    let klimov = klimov_order(&net);
    let network = net.as_network();
    let mut table = ComparisonTable::new(
        "E12: M/G/1 with Bernoulli feedback — simulated holding cost per static priority order",
        "sum c_j E[L_j]",
    );
    for (i, order) in orders.iter().enumerate() {
        let mut rng = workloads::rng_for(1200 + i as u64);
        let priority = std::slice::from_ref(order);
        let res = simulate_network(&network, priority, 300_000.0, 10_000.0, None, &mut rng);
        let label = if *order == klimov {
            format!("{order:?} (Klimov order)")
        } else {
            format!("{order:?}")
        };
        table.add(label, res.holding_cost_rate, None, "");
    }
    let mut out = table.to_markdown();
    out.push_str(&format!(
        "\nKlimov's algorithm selects {klimov:?}; it attains the minimum simulated cost (within CI) as predicted by Klimov (1974).\n"
    ));
    out
}

// ---------------------------------------------------------------- E13 ---

fn e13_parallel_servers() -> String {
    let base = workloads::mmm_two_classes();
    // Per-point RNG streams, fanned over the pool.
    let points = heavy_traffic_sweep(
        &base,
        2,
        &[1.0, 1.6, 2.0, 2.3, 2.5],
        300_000.0,
        10_000.0,
        workloads::seed_for(1300),
    );
    let mut out = String::from(
        "### E13: 2-class M/M/2 under the cmu rule vs fast-single-server bound\n\n| rho | cmu cost (sim) | lower bound | ratio |\n|---|---|---|---|\n",
    );
    for p in &points {
        out.push_str(&format!(
            "| {:.3} | {:.3} | {:.3} | {:.3} |\n",
            p.rho, p.cmu_cost, p.lower_bound, p.ratio
        ));
    }
    out.push_str("\nThe ratio to the relaxation bound falls towards 1 as rho -> 1: the index heuristic is asymptotically optimal in heavy traffic (Glazebrook–Niño-Mora).\n");
    out
}

// ---------------------------------------------------------------- E14 ---

fn e14_stability() -> String {
    let params = LuKumarParams::default();
    let (rho_a, rho_b) = params.station_loads();
    let mut out = format!(
        "### E14: Lu–Kumar network, station loads rho_A = {rho_a:.2}, rho_B = {rho_b:.2}, virtual-station load = {:.2}\n\n",
        params.virtual_station_load()
    );
    let horizon = 20_000.0;
    let mut rng = workloads::rng_for(1400);
    let bad = run_lu_kumar(
        &params,
        &params.bad_priority(),
        "priority to classes 2 & 4",
        horizon,
        &mut rng,
    );
    let mut rng = workloads::rng_for(1400);
    let good = run_lu_kumar(
        &params,
        &params.good_priority(),
        "priority to classes 1 & 3",
        horizon,
        &mut rng,
    );
    out.push_str("| policy | growth rate (jobs/time) | final total in system |\n|---|---|---|\n");
    for run in [&bad, &good] {
        out.push_str(&format!(
            "| {} | {:.4} | {} |\n",
            run.label, run.growth_rate, run.result.final_total
        ));
    }
    out.push_str("\nTrajectory samples (total jobs in system):\n\n| time | bad priority | good priority |\n|---|---|---|\n");
    let step = bad.result.sample_times.len() / 10;
    for i in (0..bad.result.sample_times.len()).step_by(step.max(1)) {
        out.push_str(&format!(
            "| {:.0} | {:.0} | {:.0} |\n",
            bad.result.sample_times[i], bad.result.trajectory[i], good.result.trajectory[i]
        ));
    }
    out.push_str("\nBoth stations are nominally under-loaded, yet the bad priority rule diverges — the stability problem the survey highlights.\n");
    out
}

// ---------------------------------------------------------------- E15 ---

fn e15_fluid() -> String {
    let params = LuKumarParams::default();
    let net = FluidNetwork::from_network(&params.build());
    let x0 = [1.0, 0.0, 0.0, 0.0];
    let bad = integrate_priority_fluid(&net, &params.bad_priority(), &x0, 200.0, 0.002, 11);
    let good = integrate_priority_fluid(&net, &params.good_priority(), &x0, 200.0, 0.002, 11);
    let mut out = String::from(
        "### E15: fluid model of the Lu–Kumar network (initial fluid 1 in buffer 1)\n\n| time | total fluid (bad priority) | total fluid (good priority) |\n|---|---|---|\n",
    );
    for i in 0..bad.times.len() {
        let b: f64 = bad.levels[i].iter().sum();
        let g: f64 = good.levels[i].iter().sum();
        out.push_str(&format!("| {:.0} | {:.3} | {:.3} |\n", bad.times[i], b, g));
    }
    out.push_str(&format!(
        "\nIntegrated holding cost over [0, 200]: bad = {:.1}, good = {:.1}.  The fluid model reproduces the instability of the bad priority rule and the stability of the good one, as the fluid-approximation literature (Chen–Yao, Atkins–Chen) predicts.\n",
        bad.total_cost, good.total_cost
    ));
    out
}

// ---------------------------------------------------------------- E16 ---

fn e16_polling() -> String {
    let classes = workloads::setup_two_classes();
    let mut out = String::from(
        "### E16: 2-class M/M/1 with class switchover times\n\n| setup time | cmu-with-setups cost | exhaustive polling cost | gated polling cost | cmu setups | exhaustive setups | gated setups |\n|---|---|---|---|---|---|---|\n",
    );
    for &setup_time in &[0.0, 0.1, 0.3, 0.6, 1.0] {
        let setups: Vec<_> = (0..2)
            .map(|_| dyn_dist(ss_distributions::Deterministic::new(setup_time)))
            .collect();
        let run = |policy: SetupPolicy| {
            let mut rng = workloads::rng_for(1600);
            simulate_setup_policy(&classes, &setups, &policy, 150_000.0, 5_000.0, &mut rng)
        };
        let cmu = run(SetupPolicy::CmuEveryJob);
        let exhaustive = run(SetupPolicy::Exhaustive);
        let gated = run(SetupPolicy::Gated);
        out.push_str(&format!(
            "| {setup_time} | {:.3} | {:.3} | {:.3} | {} | {} | {} |\n",
            cmu.holding_cost_rate,
            exhaustive.holding_cost_rate,
            gated.holding_cost_rate,
            cmu.setups,
            exhaustive.setups,
            gated.setups
        ));
    }
    out.push_str("\nWith no setups the cmu rule wins (Cox–Smith); as changeovers grow the exhaustive (polling) discipline overtakes it, with gated service close behind — the regime studied by Levy–Sidi and Reiman–Wein.\n");
    out
}

// ---------------------------------------------------------------- E17 ---

fn e17_achievable_region() -> String {
    let mut out = String::new();
    let classes = workloads::mg1_three_classes(1.0);

    // (a) Vertices of the performance polytope are exactly the priority
    // rules: compare the nested-difference vertex with Cobham for every
    // order and report the worst discrepancy.
    let orders: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    let mut worst = 0.0f64;
    for order in &orders {
        let vertex = vertex_performance(&classes, order);
        let exact = mg1_nonpreemptive_priority(&classes, order);
        for j in 0..classes.len() {
            worst = worst.max((vertex[j] - classes[j].load() * exact.wait[j]).abs());
        }
    }
    out.push_str(&format!(
        "Polymatroid vertices vs Cobham waiting times over all {} priority orders: \
         largest absolute discrepancy in rho_j W_j = {worst:.2e}.\n\n",
        orders.len()
    ));

    // (b) The region LP attains the cmu-rule cost.
    let lp = region_lp(&classes);
    let cmu = cmu_order(&classes);
    let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
    let fifo_wait = ss_queueing::cobham::pollaczek_khinchine_wait(&classes);
    let fifo_cost: f64 = classes
        .iter()
        .map(|c| c.holding_cost * c.arrival_rate * (fifo_wait + c.mean_service()))
        .sum();
    let (_, best_cost) = ss_queueing::cobham::best_nonpreemptive_order(&classes);
    let mut table = ComparisonTable::new(
        "E17: 3-class M/G/1 — achievable-region LP vs policies",
        "holding-cost rate",
    );
    table.add(
        "achievable-region LP optimum",
        lp.holding_cost_rate,
        None,
        "2^N-constraint LP over rho_j W_j",
    );
    table.add(
        "cmu rule (Cobham exact)",
        cmu_cost,
        None,
        "optimal (Cox-Smith)",
    );
    table.add("exhaustive best priority order", best_cost, None, "exact");
    table.add("FIFO", fifo_cost, None, "Pollaczek-Khinchine");
    out.push_str(&table.to_markdown());

    // (c) Adaptive greedy recovers the cmu and Klimov indices.
    let ag = cmu_via_adaptive_greedy(&classes);
    out.push_str("\n| class | adaptive-greedy index | c_j mu_j |\n|---|---|---|\n");
    for (j, c) in classes.iter().enumerate() {
        out.push_str(&format!(
            "| {j} | {:.4} | {:.4} |\n",
            ag.indices[j],
            c.cmu_index()
        ));
    }
    let network = workloads::klimov_three_class();
    let ag_klimov = klimov_via_adaptive_greedy(&network);
    let dedicated = ss_queueing::klimov::klimov_indices(&network);
    out.push_str("\n| class | adaptive-greedy index (feedback) | Klimov index |\n|---|---|---|\n");
    for j in 0..network.num_classes() {
        out.push_str(&format!(
            "| {j} | {:.4} | {:.4} |\n",
            ag_klimov.indices[j], dedicated[j]
        ));
    }
    out.push_str(&format!(
        "\nMarginal rates non-increasing (conservation-law certificate): cmu {}, Klimov {}.\n",
        ag.rates_non_increasing(1e-9),
        ag_klimov.rates_non_increasing(1e-9)
    ));
    out
}

// ---------------------------------------------------------------- E18 ---

fn e18_branching() -> String {
    let bandit = workloads::branching_three_class();
    let initial = [2usize, 2, 1];
    let indices = bandit.indices();
    let mut out =
        String::from("### E18: branching bandit (3 classes, initial population [2, 2, 1])\n\n");
    out.push_str("| class | index | mean service | holding cost | expected total work per job |\n|---|---|---|---|---|\n");
    for j in 0..bandit.num_classes() {
        out.push_str(&format!(
            "| {j} | {:.4} | {:.2} | {:.1} | {:.3} |\n",
            indices.indices[j],
            bandit.mean_service(j),
            bandit.holding_costs()[j],
            bandit.expected_total_work(j)
        ));
    }
    out.push('\n');

    let orders: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    let index_order = indices.order.clone();
    let mut table = ComparisonTable::new(
        "E18: expected total holding cost until extinction (20 000 replications per order)",
        "E[total holding cost]",
    );
    for (i, order) in orders.iter().enumerate() {
        let (mean, ci) =
            estimate_order_cost_parallel(&bandit, &initial, order, 20_000, 1800 + i as u64);
        let note = if *order == index_order {
            "branching-bandit index order (Weiss)"
        } else {
            ""
        };
        table.add(format!("priority {:?}", order), mean, Some(ci), note);
    }
    out.push_str(&table.to_markdown());
    out.push_str("\nThe index order attains the smallest simulated cost, as Weiss's branching-bandit theorem predicts.\n");
    out
}

// ---------------------------------------------------------------- E19 ---

fn e19_mpi() -> String {
    let project = workloads::maintenance_restless();
    let mpi = marginal_productivity_indices(&project, 1e-9);
    let whittle = whittle_indices(&project);
    let mut out = String::from(
        "### E19: machine-maintenance restless project — marginal productivity indices vs Whittle bisection\n\n| wear level | MPI (adaptive greedy) | Whittle index (bisection) | abs diff |\n|---|---|---|---|\n",
    );
    for i in 0..project.num_states() {
        out.push_str(&format!(
            "| {i} | {:.6} | {:.6} | {:.2e} |\n",
            mpi.indices[i],
            whittle[i],
            (mpi.indices[i] - whittle[i]).abs()
        ));
    }
    out.push_str(&format!(
        "\nPCL-indexability certificate: marginal work all positive = {}, marginal rates non-increasing = {}, overall = {}.\n",
        mpi.marginal_work.iter().all(|&w| w > 0.0),
        mpi.marginal_rates.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        mpi.pcl_indexable
    ));
    out.push_str(
        "\nThe adaptive-greedy MPI run solves K+  (K-1)+ ... stationary systems instead of a bisection per state, and agrees with the Whittle index to the reported precision — the polyhedral (partial-conservation-law) computation the survey cites.\n",
    );
    out
}

// ---------------------------------------------------------------- E20 ---

fn e20_setup_thresholds() -> String {
    let classes = workloads::setup_two_classes_asymmetric();
    let mut out = String::from(
        "### E20: 2-class M/M/1 with setups (load 0.62, holding costs 1 vs 6) — interrupt thresholds vs alternatives\n\n| setup time | cmu-every-job | exhaustive (never interrupt) | sqrt-rule interrupt threshold | thresholds used |\n|---|---|---|---|---|\n",
    );
    for &setup_time in &[0.1, 0.3, 0.6, 1.0] {
        let setup: Vec<_> = (0..2)
            .map(|_| dyn_dist(ss_distributions::Deterministic::new(setup_time)))
            .collect();
        let thresholds = sqrt_rule_thresholds(&classes, &[setup_time, setup_time]);
        let mut rng = workloads::rng_for(2000);
        let myopic = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::CmuEveryJob,
            150_000.0,
            5_000.0,
            &mut rng,
        );
        let mut rng = workloads::rng_for(2000);
        let exhaustive = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Exhaustive,
            150_000.0,
            5_000.0,
            &mut rng,
        );
        let mut rng = workloads::rng_for(2000);
        let threshold = simulate_setup_policy(
            &classes,
            &setup,
            &SetupPolicy::Threshold {
                thresholds: thresholds.clone(),
            },
            150_000.0,
            5_000.0,
            &mut rng,
        );
        out.push_str(&format!(
            "| {setup_time} | {:.3} | {:.3} | {:.3} | [{:.2}, {:.2}] |\n",
            myopic.holding_cost_rate,
            exhaustive.holding_cost_rate,
            threshold.holding_cost_rate,
            thresholds[0],
            thresholds[1]
        ));
    }

    // Threshold sweep at a fixed setup time: the square-root rule (scale 1)
    // should sit near the empirically best scale, with both the eager
    // (small-scale) and the patient (large-scale) extremes doing worse.
    let setup_time = 1.0;
    let setup: Vec<_> = (0..2)
        .map(|_| dyn_dist(ss_distributions::Deterministic::new(setup_time)))
        .collect();
    let base = sqrt_rule_thresholds(&classes, &[setup_time, setup_time]);
    let scales = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let points = threshold_sweep(&classes, &setup, &base, &scales, 150_000.0, 5_000.0, 2025);
    out.push_str(&format!(
        "\nThreshold sweep at setup time {setup_time} (base interrupt thresholds [{:.2}, {:.2}]):\n\n",
        base[0], base[1]
    ));
    out.push_str("| threshold scale | holding-cost rate | setups per unit time |\n|---|---|---|\n");
    for p in &points {
        out.push_str(&format!(
            "| {:.2} | {:.3} | {:.4} |\n",
            p.scale, p.holding_cost_rate, p.setups_per_time
        ));
    }
    out.push_str(
        "\nThe square-root interrupt threshold (scale 1) is within noise of the best scale in the sweep, and dominates both the switch-every-job extreme (tiny thresholds waste capacity on changeovers) and the never-interrupt extreme (huge thresholds let expensive work pile up) — the qualitative content of the Reiman-Wein heavy-traffic analysis.\n",
    );
    out
}

// ---------------------------------------------------------------- E21 ---

/// The shared E21 workload: one list-schedule Monte-Carlo evaluation, sized
/// so one replication (200 sampled jobs through the machine calendar) is
/// heavy enough to dwarf the cost of starting the pool's lanes.
pub(crate) fn parallel_replication_workload(replications: usize) -> ss_sim::ReplicationSummary {
    use ss_batch::parallel::{evaluate_list_policy, ParallelMetric};
    let inst = workloads::batch_instance(200, InstanceFamily::Mixed, 2100);
    let order: Vec<usize> = (0..inst.len()).collect();
    evaluate_list_policy(
        &inst,
        &order,
        4,
        ParallelMetric::TotalFlowtime,
        replications,
        workloads::MASTER_SEED,
    )
}

fn e21_parallel_replications() -> String {
    use std::time::Instant;
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let reps = 500;
    let mut out = format!(
        "### E21: parallel replication engine — 200-job list-schedule simulation, {reps} replications per run (host: {host} logical CPU(s))\n\n"
    );
    let time_with_threads = |threads: usize| {
        // Each run starts its own lanes inside the timer: at most 7 helper
        // spawns of tens of µs each, against 2.5-3 ms of work per run on a
        // 2-vCPU host.  Best of 3 to damp scheduler noise.
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let start = Instant::now();
            let summary =
                ss_sim::pool::with_threads(threads, || parallel_replication_workload(reps));
            best = best.min(start.elapsed().as_secs_f64());
            last = Some(summary);
        }
        (best, last.expect("three runs completed"))
    };
    let (serial_secs, serial) = time_with_threads(1);
    out.push_str("| threads | wall-clock (best of 3) | speedup vs 1 thread | values bit-identical to serial |\n|---|---|---|---|\n");
    for &threads in &[1usize, 2, 4, 8] {
        let (secs, summary) = time_with_threads(threads);
        let identical = summary.values == serial.values;
        out.push_str(&format!(
            "| {threads} | {:.1} ms | {:.2}x | {identical} |\n",
            secs * 1e3,
            serial_secs / secs
        ));
    }
    out.push_str(&format!(
        "\nDeterminism is the contract — the pool only changes the schedule, never the \
         values — so the summary (mean {:.4} ± {:.4}) is the same for every row.  Wall-clock \
         speedup tracks the host's core count; this table is the recorded trajectory \
         (`cargo run --release -p ss-bench --bin experiments -- E21`).\n",
        serial.mean, serial.ci95
    ));
    out
}

// ---------------------------------------------------------------- E22 ---

/// The overload-resilience experiment: the same arrival sample drives two
/// arms of the fabric's retry-storm scenario.  One transient slowdown epoch
/// (service rate cut to 25% for ~120 time units) tips the unprotected arm
/// into the *metastable* bad equilibrium — completions land past their
/// deadline, wasting full service times, and every timeout re-arms a retry,
/// so the effective load stays far above capacity long after the slowdown
/// ends.  The protected arm adds queue reneging, a front-tier token-bucket
/// shedder and a per-tier circuit breaker; the same trigger produces a dip
/// and a recovery.  The SLA sliding windows make the contrast quantitative.
fn e22_metastable_retry_storm() -> String {
    use ss_fabric::scenarios::{aggregate, retry_storm_config, Budget, DEFAULT_SEED};
    use ss_fabric::sim::{replication_seed, run_fabric};
    use ss_sim::rng::RngStreams;

    let budget = Budget::full();
    let streams = RngStreams::new(DEFAULT_SEED);
    // Scenario id 7 = the retry-storm slot of the committed fabric suite,
    // so the protected arm here replays exactly what `fabric` reports.
    let run_arm = |protected: bool| {
        let cfg = retry_storm_config(protected, &budget);
        let reports: Vec<_> = (0..budget.replications)
            .map(|rep| run_fabric(&cfg, replication_seed(&streams, 7, rep)))
            .collect();
        aggregate(&reports)
    };
    let unprotected = run_arm(false);
    let protected = run_arm(true);

    let mut out = format!(
        "### E22: metastable retry storm — M/M/4 front tier (rho 0.85), deadline 6.0, \
         up to 4 retries, one slowdown epoch to 25% service rate; {} replications of \
         horizon {}\n\n",
        budget.replications, budget.horizon
    );
    out.push_str(
        "| SLA window | unprotected goodput | unprotected P99 RTT | protected goodput | protected P99 RTT | shed | fast-failed |\n|---|---|---|---|---|---|---|\n",
    );
    for (u, p) in unprotected.windows.iter().zip(&protected.windows) {
        out.push_str(&format!(
            "| [{:.0}, {:.0}) | {:.4} | {:.2} | {:.4} | {:.2} | {} | {} |\n",
            u.start,
            u.end,
            u.goodput(),
            u.rtt.quantile(0.99),
            p.goodput(),
            p.rtt.quantile(0.99),
            p.shed,
            p.fast_failed,
        ));
    }
    let last_u = unprotected.windows.last().expect("windows configured");
    let last_p = protected.windows.last().expect("windows configured");
    out.push_str(&format!(
        "\nBoth arms face the identical arrival sample ({} offered requests).  The \
         unprotected arm completes {} of them in-deadline and ends at {:.1}% final-window \
         goodput — the collapse outlives its trigger, the signature of metastability.  The \
         protected arm completes {} ({:.1}% final-window goodput, final-window P99 RTT \
         {:.2} vs deadline 6.0), shedding {} requests and fast-failing {} at the breaker \
         along the way.  The committed gate for these numbers is \
         `crates/fabric/tests/resilience.rs`.\n",
        unprotected.arrivals,
        unprotected.completed,
        100.0 * last_u.goodput(),
        protected.completed,
        100.0 * last_p.goodput(),
        last_p.rtt.quantile(0.99),
        protected.shed,
        protected.tiers[0].fast_failed,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete_and_unique() {
        let experiments = all_experiments();
        assert_eq!(experiments.len(), 22);
        let ids: std::collections::HashSet<&str> = experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 22);
    }

    #[test]
    fn selection_names_every_unknown_id_and_keeps_e_id_order() {
        let experiments = all_experiments();
        let ids = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = select_experiments(&experiments, &ids(&["E3", "E99", "x"]))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("\"E99\"") && err.contains("\"x\""), "{err}");
        assert!(!err.contains("\"E3\""), "{err}");
        let picked = select_experiments(&experiments, &ids(&["e3", "E3"])).unwrap();
        assert_eq!(picked.iter().map(|e| e.id).collect::<Vec<_>>(), ["E3"]);
        let picked = select_experiments(&experiments, &ids(&["E12", "e2"])).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.id).collect::<Vec<_>>(),
            ["E2", "E12"]
        );
    }

    #[test]
    fn parallel_replication_experiment_is_bit_identical() {
        let report = e21_parallel_replications();
        assert!(report.contains("bit-identical"));
        assert!(
            !report.contains("| false |"),
            "parallel diverged from serial:\n{report}"
        );
    }

    #[test]
    fn retry_storm_experiment_contrasts_the_two_arms() {
        let report = e22_metastable_retry_storm();
        assert!(report.contains("| SLA window |"));
        assert!(report.contains("metastability"));
        // The final table row must show the contrast the experiment exists
        // for: near-zero goodput on the left, near-one on the right.
        let last_row = report
            .lines()
            .rfind(|l| l.starts_with("| ["))
            .expect("windowed rows present");
        let cells: Vec<&str> = last_row.split('|').map(str::trim).collect();
        let unprotected: f64 = cells[2].parse().unwrap();
        let protected: f64 = cells[4].parse().unwrap();
        assert!(unprotected < 0.5, "unprotected arm recovered: {last_row}");
        assert!(protected > 0.9, "protected arm collapsed: {last_row}");
    }

    #[test]
    fn small_experiments_produce_tables() {
        // Run a couple of the cheap exact experiments end to end.
        let e3 = e3_sept_parallel_flowtime();
        assert!(e3.contains("SEPT"));
        let e9 = e9_switching_costs();
        assert!(e9.contains("hysteresis"));
    }

    #[test]
    fn harness_reports_are_identical_across_lanes() {
        // The concurrent harness only changes scheduling, never content:
        // a cheap subset (two exact experiments plus the E6 sweep) must
        // produce byte-identical reports on 1 lane and on 4.
        let all = all_experiments();
        let subset: Vec<&Experiment> = all
            .iter()
            .filter(|e| matches!(e.id, "E3" | "E5" | "E6" | "E9"))
            .collect();
        let serial = ss_sim::pool::with_threads(1, || run_experiments(&subset));
        let parallel = ss_sim::pool::with_threads(4, || run_experiments(&subset));
        assert_eq!(serial.len(), 4);
        assert_eq!(parallel.len(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.id, b.id, "report order must be the selection order");
            assert_eq!(a.report, b.report, "{} diverged across lanes", a.id);
        }
    }

    #[test]
    fn panicking_experiment_is_captured_not_propagated() {
        fn boom() -> String {
            panic!("deliberate test panic")
        }
        fn fine() -> String {
            "completed fine\n".to_string()
        }
        let bad = Experiment {
            id: "EX",
            description: "always panics",
            run: boom,
        };
        let good = Experiment {
            id: "EY",
            description: "always completes",
            run: fine,
        };
        for lanes in [1usize, 4] {
            let reports = ss_sim::pool::with_threads(lanes, || run_experiments(&[&bad, &good]));
            assert_eq!(reports.len(), 2, "lanes={lanes}");
            assert!(reports[0].panicked);
            assert!(reports[0].report.contains("deliberate test panic"));
            assert!(!reports[1].panicked);
            assert_eq!(reports[1].report, "completed fine\n");
        }
    }

    #[test]
    fn achievable_region_experiment_reports_agreement() {
        let report = e17_achievable_region();
        assert!(report.contains("achievable-region LP optimum"));
        assert!(report.contains("Klimov index"));
        assert!(report.contains("cmu true, Klimov true"));
    }

    #[test]
    fn mpi_experiment_certifies_indexability() {
        let report = e19_mpi();
        assert!(report.contains("overall = true"));
        assert!(report.contains("Whittle index"));
    }
}
