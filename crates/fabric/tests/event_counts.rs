//! Golden pin on the number of events every check-budget replication
//! processes.
//!
//! Neither the conformance fixture nor any rendered report prints
//! `FabricReport::events`, yet it is the numerator of every events/s
//! figure.  A calendar that dropped an event, or popped a stale one it
//! should not have, could move that figure without changing a single
//! checked byte; this test pins the count of every `(scenario, rep)` cell
//! of `scenario_list(&Budget::check())` at `DEFAULT_SEED`, seeded exactly
//! as `run_suite` seeds it.

use ss_fabric::{replication_seed, run_fabric, scenario_list, Budget, DEFAULT_SEED};
use ss_sim::rng::RngStreams;

/// `(scenario, [rep 0, rep 1])` event counts, in suite order.
const EXPECTED: [(&str, [u64; 2]); 8] = [
    ("mm3-fifo-baseline", [5059, 4997]),
    ("two-tier-rtt", [7068, 6736]),
    ("cmu-priority", [3845, 3864]),
    ("gittins-mixed-scv", [2895, 3062]),
    ("whittle-mmpp-bursty", [2968, 3209]),
    ("failures-retries", [3759, 3313]),
    ("bounded-backpressure", [4351, 4576]),
    ("retry-storm-recovery", [8210, 7748]),
];

#[test]
fn check_budget_event_counts_are_pinned() {
    let budget = Budget::check();
    let streams = RngStreams::new(DEFAULT_SEED);
    let scenarios = scenario_list(&budget);
    assert_eq!(budget.replications, 2);
    assert_eq!(scenarios.len(), EXPECTED.len());

    let mut got = Vec::new();
    for (s, cfg) in scenarios.iter().enumerate() {
        let events: Vec<u64> = (0..budget.replications)
            .map(|rep| run_fabric(cfg, replication_seed(&streams, s as u64, rep)).events)
            .collect();
        got.push((cfg.name.clone(), events));
    }
    let expected: Vec<(String, Vec<u64>)> = EXPECTED
        .iter()
        .map(|(name, events)| (name.to_string(), events.to_vec()))
        .collect();
    assert_eq!(got, expected);
}
