//! The two fabric workloads: which scenarios, how each cell is seeded, one
//! timed round (cell fan-out, `aggregate`, `render_suite_report`), and the
//! identities every cell must satisfy on any seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ss_core::discipline::Discipline;
use ss_fabric::{
    aggregate, render_suite_report, replication_seed, run_fabric_with, scenario_list, Budget,
    FabricConfig, FabricReport,
};
use ss_sim::pool::parallel_indexed;
use ss_sim::rng::RngStreams;

use crate::trace::{since, within, Trace};
use crate::{Results, RoundOutcome};

/// Multi-class cµ/Gittins/Whittle tables, per-server JSQ/round-robin
/// queues, MMPP arrivals and two-tier hops: the index layer's workload.
pub const INDEXED: [&str; 5] = [
    "two-tier-rtt",
    "cmu-priority",
    "gittins-mixed-scv",
    "whittle-mmpp-bursty",
    "bounded-backpressure",
];

/// One class, FIFO, no tabulation; central queue, weighted LB, failure
/// timers, retries, deadlines, breaker, shedder and SLA windows: the
/// calendar-, timer- and resilience-heavy workload that bypasses the index
/// layer.
pub const FAULTS: [&str; 3] = [
    "mm3-fifo-baseline",
    "failures-retries",
    "retry-storm-recovery",
];

/// A workload's scenarios with their prebuilt disciplines, at one budget.
pub struct Suite {
    /// `(position in scenario_list, config)`; the position keys the cell
    /// seeds, so every cell is exactly a cell `run_suite` would run.
    pub scenarios: Vec<(u64, FabricConfig)>,
    pub disciplines: Vec<Vec<Arc<dyn Discipline>>>,
    /// Replications per scenario in one round: the budget's, so every
    /// round renders exactly the blocks the `fabric` binary prints for
    /// these scenarios at that budget.
    pub reps: usize,
}

/// The workload's cold set-up: scenario construction plus
/// `build_disciplines` for every selected scenario.
pub fn setup(names: &[&str], budget: &Budget, mut trace: Option<&mut Trace>) -> Suite {
    let all = scenario_list(budget);
    let scenarios: Vec<(u64, FabricConfig)> = names
        .iter()
        .map(|name| {
            let pos = all
                .iter()
                .position(|c| c.name == *name)
                .unwrap_or_else(|| panic!("no fabric scenario named {name}"));
            (pos as u64, all[pos].clone())
        })
        .collect();
    let disciplines = scenarios
        .iter()
        .map(|(_, cfg)| {
            within(
                trace.as_deref_mut(),
                "build_disciplines",
                &cfg.name,
                None,
                || cfg.build_disciplines(),
            )
        })
        .collect();
    Suite {
        scenarios,
        disciplines,
        reps: budget.replications as usize,
    }
}

/// Every scenario of the committed suite, in suite order (the self-test).
pub fn all_names(budget: &Budget) -> Vec<String> {
    scenario_list(budget).into_iter().map(|c| c.name).collect()
}

struct Cell {
    report: Option<FabricReport>,
    start_ns: u64,
    end_ns: u64,
}

/// One round: every `(scenario, rep)` cell on the current pool, then
/// `aggregate` per scenario and `render_suite_report`.  With a trace, the
/// round, each cell, each `aggregate` and the render get a span.
pub fn round(suite: &Suite, seed: u64, mut trace: Option<&mut Trace>) -> RoundOutcome {
    let reps = suite.reps;
    let epoch = trace.as_ref().map(|t| t.epoch());
    let root = trace
        .as_deref_mut()
        .map(|t| t.open("round", "fabric", None));
    let t0 = Instant::now();

    let streams = RngStreams::new(seed);
    let mut cells = parallel_indexed(suite.scenarios.len() * reps, |i| {
        let (k, rep) = (i / reps, i % reps);
        let (pos, cfg) = &suite.scenarios[k];
        let start_ns = epoch.map_or(0, since);
        let report = catch_unwind(AssertUnwindSafe(|| {
            run_fabric_with(
                cfg,
                &suite.disciplines[k],
                replication_seed(&streams, *pos, rep as u64),
            )
        }))
        .ok();
        let end_ns = epoch.map_or(0, since);
        Cell {
            report,
            start_ns,
            end_ns,
        }
    });
    // A scenario with a panicked cell is left out of the report, so its
    // lines go missing and the line check flags it.
    let per_scenario: Vec<Option<Vec<FabricReport>>> = cells
        .chunks_mut(reps)
        .map(|chunk| chunk.iter_mut().map(|c| c.report.take()).collect())
        .collect();
    let mut results = Vec::with_capacity(suite.scenarios.len());
    for ((_, cfg), reports) in suite.scenarios.iter().zip(&per_scenario) {
        if let Some(reports) = reports {
            let report = within(trace.as_deref_mut(), "aggregate", &cfg.name, root, || {
                aggregate(reports)
            });
            results.push((cfg.name.clone(), report));
        }
    }
    let text = within(
        trace.as_deref_mut(),
        "render_suite_report",
        "fabric",
        root,
        || render_suite_report(seed, &results),
    );
    let wall_ns = since(t0);

    if let (Some(t), Some(root)) = (trace, root) {
        t.close(root);
        for (i, c) in cells.iter().enumerate() {
            let name = &suite.scenarios[i / reps].1.name;
            t.record("run_fabric_with", name, Some(root), c.start_ns, c.end_ns);
        }
    }

    // Per-cell outcome: a panic, or a broken identity in the cell's own
    // report or in its scenario's aggregate.
    let mut op_errors = Vec::with_capacity(cells.len());
    for ((_, cfg), reports) in suite.scenarios.iter().zip(&per_scenario) {
        let Some(reports) = reports else {
            let err = format!("{}: a cell of the scenario panicked", cfg.name);
            op_errors.extend(std::iter::repeat_n(Some(err), reps));
            continue;
        };
        let agg = results.iter().find(|(n, _)| *n == cfg.name).map(|(_, r)| r);
        let agg_error = agg.and_then(|a| identities(cfg, a).err());
        for r in reports {
            op_errors.push(identities(cfg, r).err().or_else(|| agg_error.clone()));
        }
    }
    let names: Vec<&str> = suite
        .scenarios
        .iter()
        .map(|(_, c)| c.name.as_str())
        .collect();
    let line_ops = text
        .lines()
        .map(|line| {
            names
                .iter()
                .position(|n| line.starts_with(&format!("{n}  ")))
                .map(|k| k * reps..(k + 1) * reps)
        })
        .collect();
    RoundOutcome {
        wall_ns,
        root,
        text,
        op_errors,
        round_error: None,
        line_ops,
        results: Results::Fabric(results),
    }
}

/// Accounting identities that hold for every report on every seed.
///
/// The SLA windows tile the post-warmup span, so their counters must sum
/// to the run totals; utilisation is a fraction of server-time.  Completed
/// may exceed offered (trips born before warmup finish after it), so that
/// is deliberately not asserted.
fn identities(cfg: &FabricConfig, r: &FabricReport) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{}: {what}", cfg.name));
    if r.events == 0 {
        return fail("no events simulated");
    }
    if r.tiers.len() != cfg.tiers.len() {
        return fail("tier count differs from the config");
    }
    for (t, tier) in r.tiers.iter().enumerate() {
        if !(0.0..=1.0).contains(&tier.utilization) {
            return fail(&format!(
                "tier{t} utilisation {} outside [0, 1]",
                tier.utilization
            ));
        }
    }
    if r.windows.is_empty() {
        return Ok(());
    }
    let sum = |f: fn(&ss_fabric::SlaWindowReport) -> u64| r.windows.iter().map(f).sum::<u64>();
    let fast_failed: u64 = r.tiers.iter().map(|t| t.fast_failed).sum();
    let checks = [
        ("offered", sum(|w| w.arrivals), r.arrivals),
        ("completed", sum(|w| w.completed), r.completed),
        ("shed", sum(|w| w.shed), r.shed),
        ("timedout", sum(|w| w.timed_out), r.timed_out),
        ("fastfail", sum(|w| w.fast_failed), fast_failed),
        ("rtt samples", sum(|w| w.rtt.count()), r.rtt.count()),
    ];
    for (what, windows, total) in checks {
        if windows != total {
            return fail(&format!(
                "SLA windows sum {what} to {windows}, run total {total}"
            ));
        }
    }
    Ok(())
}
