//! Sweep workloads for the `sweeps-check` conformance target
//! ([`crate::conformance::sweep_values_report`]).
//!
//! Each workload runs one of the pool-parallelised Monte-Carlo sweeps
//! (turnpike / heavy-traffic / Weber–Weiss asymptotics) at a fixed,
//! representative configuration and returns the flat vector of every `f64`
//! the sweep produced — the fingerprint the serial-vs-parallel bit-identity
//! gate compares.  The configurations deliberately mirror the E6 / E13 /
//! E10 experiment settings (same workload builders, same derived seeds).

use crate::workloads;
use ss_bandits::restless::asymptotic_sweep;
use ss_batch::turnpike::turnpike_sweep;
use ss_core::instance::{InstanceFamily, InstanceGenerator};
use ss_queueing::parallel_servers::heavy_traffic_sweep;

/// One named sweep workload: `run()` executes the sweep on the current pool
/// and returns its outputs flattened to `f64`s in point order.
pub struct SweepWorkload {
    /// Short name used in the `sweep NAME:` header of the artifact.
    pub name: &'static str,
    /// Execute the sweep and flatten its outputs.
    pub run: fn() -> Vec<f64>,
}

/// The three pool-parallelised sweeps, in the order they were converted.
pub fn sweep_workloads() -> Vec<SweepWorkload> {
    vec![
        SweepWorkload {
            name: "turnpike",
            run: turnpike_workload,
        },
        SweepWorkload {
            name: "heavy_traffic",
            run: heavy_traffic_workload,
        },
        SweepWorkload {
            name: "asymptotic",
            run: asymptotic_workload,
        },
    ]
}

/// The E6 turnpike sweep (one fewer point and doubled replications versus
/// the experiment, so each point is chunky enough to time).
fn turnpike_workload() -> Vec<f64> {
    let generator = InstanceGenerator::with_family(InstanceFamily::Exponential);
    let points = turnpike_sweep(
        &generator,
        &[10, 20, 40, 80, 160, 320],
        4,
        800,
        workloads::MASTER_SEED,
    );
    points
        .iter()
        .flat_map(|p| {
            [
                p.wsept_value,
                p.wsept_ci95,
                p.lower_bound,
                p.additive_gap,
                p.relative_gap,
            ]
        })
        .collect()
}

/// The E13 heavy-traffic sweep at a reduced horizon.
fn heavy_traffic_workload() -> Vec<f64> {
    let base = workloads::mmm_two_classes();
    let points = heavy_traffic_sweep(
        &base,
        2,
        &[1.0, 1.6, 2.0, 2.3],
        120_000.0,
        4_000.0,
        workloads::seed_for(1300),
    );
    points
        .iter()
        .flat_map(|p| [p.rho, p.cmu_cost, p.lower_bound, p.ratio])
        .collect()
}

/// The E10 Weber–Weiss asymptotic sweep at a reduced horizon.
fn asymptotic_workload() -> Vec<f64> {
    let project = workloads::maintenance_restless();
    let points = asymptotic_sweep(
        &project,
        0.3,
        &[5, 10, 20, 40, 80],
        20_000,
        workloads::seed_for(1001),
    );
    points
        .iter()
        .flat_map(|p| {
            [
                p.n_projects as f64,
                p.m_active as f64,
                p.whittle_per_project,
                p.bound_per_project,
                p.relative_gap,
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_produces_finite_values() {
        for w in sweep_workloads() {
            let values = (w.run)();
            assert!(!values.is_empty(), "{} produced no output", w.name);
            assert!(
                values.iter().all(|v| v.is_finite()),
                "{} produced non-finite values",
                w.name
            );
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let workloads = sweep_workloads();
        let names: std::collections::HashSet<&str> = workloads.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), workloads.len());
    }
}
