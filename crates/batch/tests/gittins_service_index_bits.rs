//! Golden pin on the exact bits of the Gittins service index.
//!
//! The fabric's Gittins discipline and E2's preemptive scheduler serve
//! `gittins_service_index` as computed, yet every gate that reads them
//! prints either an order or a rounded value, so a last-bit drift in the
//! index (a reassociated trapezoid sum, a reordered supremum, a lost sign
//! of zero) could pass them all.  The digest test folds the index's bits
//! over one law of every family, at three attained services, on the
//! fabric's grid and on `PreemptiveConfig::default()`'s grid.  The
//! randomized test compares the index with the plain loop over every grid
//! point and every abscissa, written out below as the reference.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_batch::preemptive::{gittins_service_index, PreemptiveConfig};
use ss_distributions::{
    dyn_dist, Deterministic, DynDist, Erlang, Exponential, HyperExponential, LogNormal,
    ServiceDistribution, TwoPoint, Uniform, Weibull,
};

/// The fabric discipline's grid: `(min_quantum, horizon, grid_points)`.
const FABRIC_GRID: (f64, f64, usize) = (1e-3, 60.0, 400);

/// One law of every family, the last of which cannot complete inside
/// either grid.
fn laws() -> Vec<DynDist> {
    vec![
        dyn_dist(Exponential::with_mean(1.0)),
        dyn_dist(HyperExponential::with_mean_scv(1.0, 2.0)),
        dyn_dist(HyperExponential::with_mean_scv(1.0, 4.0)),
        dyn_dist(Erlang::with_mean(2, 1.0)),
        dyn_dist(Erlang::with_mean(4, 1.0)),
        dyn_dist(Erlang::with_mean(10, 1.0)),
        dyn_dist(LogNormal::new(0.0, 1.0)),
        dyn_dist(Weibull::new(0.5, 1.0)),
        dyn_dist(Weibull::new(2.0, 1.0)),
        dyn_dist(Uniform::new(0.0, 2.0)),
        dyn_dist(Deterministic::new(1.0)),
        dyn_dist(TwoPoint::new(0.5, 1.0, 2.0)),
        dyn_dist(Deterministic::new(100.0)),
    ]
}

fn grids() -> [(f64, f64, usize); 2] {
    let d = PreemptiveConfig::default();
    [FABRIC_GRID, (d.min_quantum, d.index_horizon, d.grid_points)]
}

/// FNV-1a over the little-endian bytes of every index, in law, grid,
/// attained-service order.
fn index_digest() -> (u64, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut values = 0;
    for law in laws() {
        for (min_quantum, horizon, grid_points) in grids() {
            for attained in [0.0, 0.5, 2.0] {
                let index = gittins_service_index(
                    law.as_ref(),
                    1.0,
                    attained,
                    min_quantum,
                    horizon,
                    grid_points,
                );
                for byte in index.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
                values += 1;
            }
        }
    }
    (hash, values)
}

#[test]
fn index_bits_match_the_recorded_digest() {
    let (digest, values) = index_digest();
    assert_eq!(
        (digest, values),
        (0x9710_f421_f5fa_2e5e, 78),
        "Gittins service index bits drifted: digest {digest:#018x} over {values} values"
    );
}

/// A job that cannot finish inside the grid has no quantum worth serving:
/// every grid point's completion probability is +0, and so is the index,
/// with its sign.
#[test]
fn a_job_that_cannot_finish_inside_the_grid_has_index_plus_zero() {
    let law = Deterministic::new(100.0);
    for (min_quantum, horizon, grid_points) in grids() {
        for attained in [0.0, 0.5, 2.0] {
            let index =
                gittins_service_index(&law, 1.0, attained, min_quantum, horizon, grid_points);
            assert_eq!(index.to_bits(), 0.0f64.to_bits(), "attained {attained}");
        }
    }
}

/// The reference: every grid point's trapezoid over all 32 abscissae
/// through `sf` one at a time, summed in abscissa order, and the supremum
/// taken in ascending grid order.
fn plain_loop_index(
    dist: &dyn ServiceDistribution,
    weight: f64,
    attained: f64,
    min_quantum: f64,
    horizon: f64,
    grid_points: usize,
) -> f64 {
    let sa = dist.sf(attained);
    if sa <= 1e-12 {
        return f64::INFINITY;
    }
    let ratio = (horizon / min_quantum).powf(1.0 / (grid_points - 1) as f64);
    let mut best = 0.0f64;
    let mut s = min_quantum;
    for _ in 0..grid_points {
        let p_complete = dist.completion_rate(attained, s);
        let h = s / 32.0;
        let mut integral = 0.0;
        let mut prev = 1.0;
        for k in 1..=32 {
            let cur = dist.sf(attained + k as f64 * h) / sa;
            integral += 0.5 * (prev + cur) * h;
            prev = cur;
        }
        if integral > 1e-12 {
            best = best.max(p_complete / integral);
        }
        s *= ratio;
    }
    weight * best
}

/// A law drawn from one of the eight families, its parameters at random.
fn random_law(rng: &mut ChaCha8Rng) -> DynDist {
    let mean = rng.gen_range(0.05..5.0);
    match rng.gen_range(0..8u32) {
        0 => dyn_dist(Exponential::with_mean(mean)),
        1 => dyn_dist(HyperExponential::with_mean_scv(
            mean,
            rng.gen_range(1.05..20.0),
        )),
        2 => dyn_dist(Erlang::with_mean(rng.gen_range(1..=16u32), mean)),
        3 => dyn_dist(LogNormal::new(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(0.1..2.0),
        )),
        4 => dyn_dist(Weibull::new(rng.gen_range(0.3..4.0), mean)),
        5 => {
            let low = rng.gen_range(0.0..mean);
            dyn_dist(Uniform::new(low, low + mean))
        }
        6 => dyn_dist(Deterministic::new(mean)),
        _ => dyn_dist(TwoPoint::new(
            rng.gen_range(0.05..0.95),
            mean,
            mean + rng.gen_range(0.1..10.0),
        )),
    }
}

/// Random laws, weights, attained services and grids give the reference
/// loop's bits, including the laws a grid cannot see finish and the
/// attained services past a law's support (index +∞).
#[test]
fn index_matches_the_plain_loop_on_random_inputs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e71_c1c4);
    for case in 0..400 {
        let law = random_law(&mut rng);
        let weight = rng.gen_range(0.1..5.0);
        let attained = if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(0.0..3.0 * law.mean())
        };
        let min_quantum = 10f64.powf(rng.gen_range(-4.0..0.0));
        let horizon = min_quantum * 10f64.powf(rng.gen_range(0.01..5.0));
        let grid_points = rng.gen_range(2..=120usize);
        let got = gittins_service_index(
            law.as_ref(),
            weight,
            attained,
            min_quantum,
            horizon,
            grid_points,
        );
        let want = plain_loop_index(
            law.as_ref(),
            weight,
            attained,
            min_quantum,
            horizon,
            grid_points,
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "case {case}: {} weight {weight} attained {attained} grid ({min_quantum}, {horizon}, {grid_points}): {got} vs {want}",
            law.describe()
        );
    }
}
