//! The "serve highest index first" primitive of every priority-index rule.

/// Return the indices of `values` sorted by decreasing value (ties broken by
/// original position, i.e. a stable ordering).  This is the "serve highest
/// index first" primitive shared by every priority-index rule in the
/// workspace.  Infinite values order as usual; a NaN panics, even in a
/// slice of one value, which is never compared.
pub fn argsort_decreasing(values: &[f64]) -> Vec<usize> {
    assert!(
        !values.iter().any(|v| v.is_nan()),
        "priority index cannot be NaN"
    );
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("NaN rejected above")
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_is_decreasing_and_stable() {
        let values = [1.0, 3.0, 2.0, 3.0];
        let order = argsort_decreasing(&values);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn infinities_order_at_the_ends() {
        let values = [0.0, f64::NEG_INFINITY, f64::INFINITY, 1.0, f64::INFINITY];
        assert_eq!(argsort_decreasing(&values), vec![2, 4, 3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "priority index cannot be NaN")]
    fn nan_is_rejected_even_alone() {
        argsort_decreasing(&[f64::NAN]);
    }
}
