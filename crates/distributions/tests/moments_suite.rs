//! Unit suite for every distribution family: published closed-form
//! mean/variance vs the trait implementations, and Monte-Carlo sample
//! moments (via `moments::sample_stats`) converging to them under seeded
//! `RngStreams`.

use ss_distributions::moments::{sample_scv, sample_stats};
use ss_distributions::{
    dyn_dist, Deterministic, DynDist, Erlang, Exponential, HyperExponential, LogNormal,
    ServiceDistribution, TwoPoint, Uniform, Weibull,
};
use ss_sim::rng::RngStreams;

/// Every family with its closed-form (mean, variance), where one is known
/// independently of the implementation.
fn catalog() -> Vec<(DynDist, f64, f64, &'static str)> {
    vec![
        // Exponential(rate 0.5): mean 2, var 4.
        (dyn_dist(Exponential::new(0.5)), 2.0, 4.0, "Exponential"),
        // Erlang(k=3, rate 2): mean k/λ = 1.5, var k/λ² = 0.75.
        (dyn_dist(Erlang::new(3, 2.0)), 1.5, 0.75, "Erlang"),
        // Deterministic(1.7): var 0.
        (dyn_dist(Deterministic::new(1.7)), 1.7, 0.0, "Deterministic"),
        // Uniform(1, 4): mean 2.5, var (b-a)²/12 = 0.75.
        (dyn_dist(Uniform::new(1.0, 4.0)), 2.5, 0.75, "Uniform"),
        // TwoPoint(p=0.3 at 1, 0.7 at 5): mean 3.8, var 0.3*2.8² + 0.7*1.2².
        (
            dyn_dist(TwoPoint::new(0.3, 1.0, 5.0)),
            3.8,
            0.3 * 2.8f64.powi(2) + 0.7 * 1.2f64.powi(2),
            "TwoPoint",
        ),
        // Weibull(shape 2, scale 2): mean λΓ(1.5) = √π, var λ²(Γ(2)-Γ(1.5)²).
        (
            dyn_dist(Weibull::new(2.0, 2.0)),
            std::f64::consts::PI.sqrt(),
            4.0 * (1.0 - std::f64::consts::PI / 4.0),
            "Weibull",
        ),
        // LogNormal(mu 0, sigma 0.5): mean e^{σ²/2}, var (e^{σ²}-1)e^{σ²}.
        (
            dyn_dist(LogNormal::new(0.0, 0.5)),
            (0.125f64).exp(),
            ((0.25f64).exp() - 1.0) * (0.25f64).exp(),
            "LogNormal",
        ),
        // HyperExponential via (mean, scv): the constructor's contract.
        (
            dyn_dist(HyperExponential::with_mean_scv(2.0, 3.0)),
            2.0,
            3.0 * 4.0,
            "HyperExponential",
        ),
    ]
}

#[test]
fn trait_moments_match_closed_forms() {
    for (d, mean, var, name) in catalog() {
        assert!(
            (d.mean() - mean).abs() < 1e-9,
            "{name}: mean() {} vs closed form {mean}",
            d.mean()
        );
        assert!(
            (d.variance() - var).abs() < 1e-9,
            "{name}: variance() {} vs closed form {var}",
            d.variance()
        );
        // The default-method identities must be consistent with them.
        assert!(
            (d.second_moment() - (var + mean * mean)).abs() < 1e-9,
            "{name}"
        );
        assert!((d.scv() - var / (mean * mean)).abs() < 1e-9, "{name}");
    }
}

#[test]
fn sample_moments_converge_to_trait_moments() {
    let streams = RngStreams::new(0xD157);
    let n = 200_000usize;
    for (stream_id, (d, _, _, name)) in catalog().into_iter().enumerate() {
        let mut rng = streams.stream(stream_id as u64);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x >= 0.0), "{name}: negative sample");
        let (m, v) = sample_stats(&xs);
        // 6-sigma envelope on the sample mean (generous: the seed is fixed,
        // so this is really pinning correct sampling, not luck).
        let se = (d.variance() / n as f64).sqrt();
        assert!(
            // The 1e-9 floor covers zero-variance families, where the only
            // error is float accumulation over the 200k-term sum.
            (m - d.mean()).abs() <= 6.0 * se + 1e-9,
            "{name}: sample mean {m} vs {} (se {se})",
            d.mean()
        );
        let var_tol = 0.05 * d.variance() + 1e-9;
        assert!(
            (v - d.variance()).abs() <= var_tol,
            "{name}: sample var {v} vs {}",
            d.variance()
        );
        if d.mean() > 0.0 {
            assert!(
                (sample_scv(&xs) - d.scv()).abs() <= 0.06 * d.scv() + 1e-9,
                "{name}: sample scv"
            );
        }
    }
}

#[test]
fn sample_mean_error_shrinks_with_sample_size() {
    // Convergence check: the 6-sigma envelope tightens as N grows, and the
    // observed error stays inside it at every N (law of large numbers made
    // executable).  Seeded streams make this deterministic.
    let streams = RngStreams::new(0xC0117);
    for (stream_id, dist) in [
        dyn_dist(Exponential::with_mean(2.0)),
        dyn_dist(Weibull::new(1.5, 1.0)),
        dyn_dist(HyperExponential::with_mean_scv(1.0, 4.0)),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = streams.stream(stream_id as u64);
        for n in [1_000usize, 10_000, 100_000] {
            let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
            let (m, _) = sample_stats(&xs);
            let envelope = 6.0 * (dist.variance() / n as f64).sqrt();
            assert!(
                (m - dist.mean()).abs() <= envelope,
                "{}: n={n}: |{m} - {}| > {envelope}",
                dist.describe(),
                dist.mean()
            );
        }
    }
}

#[test]
fn seeded_streams_make_sampling_reproducible() {
    let d = Erlang::new(2, 1.5);
    let a: Vec<f64> = {
        let mut rng = RngStreams::new(42).stream(7);
        (0..100).map(|_| d.sample(&mut rng)).collect()
    };
    let b: Vec<f64> = {
        let mut rng = RngStreams::new(42).stream(7);
        (0..100).map(|_| d.sample(&mut rng)).collect()
    };
    assert_eq!(a, b);
}

#[test]
fn cdf_is_consistent_with_sample_quantiles() {
    // P(X <= median estimate) should be near the empirical fraction; a
    // coarse distribution-function sanity check across families.
    let streams = RngStreams::new(0xCDF);
    for (stream_id, (d, _, _, name)) in catalog().into_iter().enumerate() {
        let mut rng = streams.stream(stream_id as u64);
        let n = 50_000usize;
        let x0 = d.mean(); // probe point
        let below = (0..n).filter(|_| d.sample(&mut rng) <= x0).count();
        let frac = below as f64 / n as f64;
        let cdf = d.cdf(x0);
        assert!(
            (frac - cdf).abs() < 0.02,
            "{name}: empirical P(X<=mean) {frac} vs cdf {cdf}"
        );
    }
}
