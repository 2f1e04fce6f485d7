//! The accounting identities of fabric reports.
//!
//! A replication counts each outcome once, in the span of the run where it
//! happens, so the SLA windows must add up to the run totals; and each
//! rejection (drop, fast-fail, shed, timeout) ends in exactly one retry or
//! one loss.  The simulator asserts the second identity per span in release
//! builds; this test checks both on the report of every check-budget cell,
//! unprotected retry storm included, at the suite's seed and a held-out one.

use ss_fabric::{
    replication_seed, retry_storm_config, run_fabric_with, scenario_list, Budget, FabricReport,
    SlaWindowReport, DEFAULT_SEED,
};
use ss_sim::rng::RngStreams;

/// The held-out seed perfbench checks beside `DEFAULT_SEED`.
const HELD_OUT_SEED: u64 = 2_718_281_828;

fn check_identities(cell: &str, r: &FabricReport) {
    let dropped: u64 = r.tiers.iter().map(|t| t.dropped).sum();
    let fast_failed: u64 = r.tiers.iter().map(|t| t.fast_failed).sum();
    assert_eq!(
        r.retries + r.lost,
        dropped + fast_failed + r.shed + r.timed_out,
        "{cell}: retries + lost must equal rejections"
    );
    if r.windows.is_empty() {
        return;
    }
    let sum = |f: fn(&SlaWindowReport) -> u64| r.windows.iter().map(f).sum::<u64>();
    let sums = [
        ("offered", sum(|w| w.arrivals), r.arrivals),
        ("completed", sum(|w| w.completed), r.completed),
        ("shed", sum(|w| w.shed), r.shed),
        ("timed out", sum(|w| w.timed_out), r.timed_out),
        ("dropped", sum(|w| w.dropped), dropped),
        ("fast-failed", sum(|w| w.fast_failed), fast_failed),
        ("rtt samples", sum(|w| w.rtt.count()), r.rtt.count()),
    ];
    for (what, windows, total) in sums {
        assert_eq!(
            windows, total,
            "{cell}: SLA windows sum {what} to {windows}, run total {total}"
        );
    }
}

#[test]
fn windows_add_up_to_the_totals_and_every_rejection_retries_or_is_lost() {
    let budget = Budget::check();
    let mut scenarios = scenario_list(&budget);
    scenarios.push(retry_storm_config(false, &budget));
    let mut windowed = 0;
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let streams = RngStreams::new(seed);
        for (s, cfg) in scenarios.iter().enumerate() {
            let disciplines = cfg.build_disciplines();
            for rep in 0..budget.replications {
                let cell_seed = replication_seed(&streams, s as u64, rep);
                let r = run_fabric_with(cfg, &disciplines, cell_seed);
                check_identities(&format!("{} seed {seed} rep {rep}", cfg.name), &r);
                windowed += u64::from(!r.windows.is_empty());
            }
        }
    }
    // Both retry-storm arms keep SLA windows, so the window sums were
    // checked on real windows, not vacuously.
    assert_eq!(windowed, 2 * 2 * budget.replications);
}
