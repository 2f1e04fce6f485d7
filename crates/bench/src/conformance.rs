//! Canonical artifact renderers for the `ss-conform` subsystem.
//!
//! These renderers turn the E21 replication workload and the three sweep
//! workloads into deterministic text artifacts — every `f64` printed with
//! its raw bit pattern plus a human-readable mantissa — so the conformance
//! harness can byte-diff them across replicas, localize the first
//! divergent byte, and pin them as golden fixtures.  A last-ulp drift
//! that `{:.6}` formatting would round away is a full hex digit here.

use crate::experiments::{
    all_experiments, parallel_replication_workload, run_experiments, select_experiments,
};
use crate::sweeps::sweep_workloads;

/// Append `label: <bits> <value>` for one value.
fn push_value_line(out: &mut String, index: usize, v: f64) {
    out.push_str(&format!("  {index:04}: {:016x} {v:.17e}\n", v.to_bits()));
}

/// The replication-engine artifact: per-replication values of the E21
/// list-schedule workload (the one E21 times) on the current pool,
/// bit-exact.
pub fn replication_values_report(replications: usize) -> String {
    let summary = parallel_replication_workload(replications);
    let mut out = format!("workload: parallel_replications n={replications}\n");
    for (i, &v) in summary.values.iter().enumerate() {
        push_value_line(&mut out, i, v);
    }
    out.push_str(&format!(
        "summary: mean={:016x} std_dev={:016x} ci95={:016x}\n",
        summary.mean.to_bits(),
        summary.std_dev.to_bits(),
        summary.ci95.to_bits()
    ));
    out
}

/// The sweep-engine artifact: every `f64` the turnpike / heavy-traffic /
/// asymptotic sweeps produce on the current pool, bit-exact, in point order.
pub fn sweep_values_report() -> String {
    let mut out = String::new();
    for w in sweep_workloads() {
        let values = (w.run)();
        out.push_str(&format!("sweep {}: {} values\n", w.name, values.len()));
        for (i, &v) in values.iter().enumerate() {
            push_value_line(&mut out, i, v);
        }
    }
    out
}

/// The experiment-harness artifact: the report bodies of the experiments
/// [`select_experiments`] picks for `ids` (E-id order, each once), with
/// every `[`-prefixed wall-clock line stripped — exactly the text CI's old
/// `grep -v '^\['` diff compared across `SS_THREADS`/`--jobs` values.
///
/// Timing-sensitive experiments (E21 embeds its own measured thread-sweep
/// wall-clocks in the report body) are rejected: their reports vary run to
/// run by construction and can never be conformance artifacts.  A panicking
/// or unknown experiment is an error, not an artifact — a `PANICKED:` line
/// is deterministic and would byte-diff clean across replicas.
pub fn harness_subset_report(ids: &[String], jobs: usize) -> Result<String, String> {
    let experiments = all_experiments();
    let selected = select_experiments(&experiments, ids)?;
    if let Some(e) = selected.iter().find(|e| e.timing_sensitive()) {
        return Err(format!(
            "experiment {} is timing-sensitive (its report embeds wall-clocks) \
             and cannot be a conformance artifact",
            e.id
        ));
    }
    let reports = run_experiments(&selected, jobs);
    let mut out = String::new();
    for r in &reports {
        if r.panicked {
            return Err(format!("experiment {} panicked: {}", r.id, r.report.trim()));
        }
        out.push_str(&format!("== {} {}\n", r.id, r.description));
        for line in r.report.lines() {
            if !line.starts_with('[') {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_subset_rejects_unknown_and_timing_sensitive_ids() {
        let err = harness_subset_report(&["E999".to_string()], 1).unwrap_err();
        assert!(err.contains("unknown experiment id"), "{err}");
        let err = harness_subset_report(&["E21".to_string()], 1).unwrap_err();
        assert!(err.contains("timing-sensitive"), "{err}");
    }

    #[test]
    fn value_lines_are_bit_exact() {
        let mut out = String::new();
        push_value_line(&mut out, 3, -0.0);
        // -0.0 and 0.0 differ in the rendered artifact even though `==`
        // would call them equal — the whole point of printing raw bits.
        assert_eq!(out, "  0003: 8000000000000000 -0.00000000000000000e0\n");
        let mut plus = String::new();
        push_value_line(&mut plus, 3, 0.0);
        assert_ne!(out, plus);
    }
}
