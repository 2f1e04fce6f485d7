//! Small sample-moment helpers used throughout the test suites.

/// Sample mean and (population) variance of a slice.
pub fn sample_stats(xs: &[f64]) -> (f64, f64) {
    assert!(
        !xs.is_empty(),
        "cannot compute statistics of an empty sample"
    );
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Empirical squared coefficient of variation.
pub fn sample_scv(xs: &[f64]) -> f64 {
    let (m, v) = sample_stats(xs);
    if m == 0.0 {
        0.0
    } else {
        v / (m * m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_simple_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let (m, v) = sample_stats(&xs);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((v - 1.25).abs() < 1e-12);
        assert!((sample_scv(&xs) - 1.25 / 6.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        let _ = sample_stats(&[]);
    }
}
