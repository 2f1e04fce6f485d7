//! Fast smoke test of the crate's headline computation: the generic
//! adaptive-greedy index algorithm reduced to isolated jobs, where the
//! indices must be exactly the cµ ratios `c_j / E[S_j]`.

use ss_core::adaptive_greedy::{adaptive_greedy, TransferWorkMeasure};

#[test]
fn adaptive_greedy_smoke() {
    let costs = [3.0, 1.0, 4.0, 1.5];
    let means = [1.0, 0.5, 2.0, 0.25];
    let oracle = TransferWorkMeasure::isolated(means.to_vec());
    let result = adaptive_greedy(&costs, &oracle);
    for j in 0..costs.len() {
        let expected = costs[j] / means[j];
        assert!(
            (result.indices[j] - expected).abs() < 1e-12,
            "class {j}: index {} vs cmu {expected}",
            result.indices[j]
        );
    }
    assert!(result.rates_non_increasing(1e-9));
}
