//! Pins on the Gittins service index: its bits, its closed forms, and a
//! fine-step reference.
//!
//! The fabric's Gittins discipline and E2's preemptive scheduler serve
//! `gittins_service_index` as computed, yet every gate that reads them
//! prints either an order or a rounded value, so a last-bit drift in the
//! index (a reassociated trapezoid sum, a reordered supremum, a lost sign
//! of zero) could pass them all.  The digest test folds the index's bits
//! over one law of every family, at three attained services, on the
//! fabric's grid and on `PreemptiveConfig::default()`'s grid.
//!
//! The digest only says that the index moved, not that it is right.  The
//! closed-form test checks the same laws and grids against the exact index
//! (Aalto, Ayesta and Righter, "On the Gittins index in the M/G/1 queue",
//! *Queueing Systems* 63, 2009), and the randomized test checks random laws
//! and grids against a reference with steps eight times finer.  Both hold
//! the index to the trapezoid's bound, which follows from the grid alone:
//! every step at quantum `t` is at most `max(t, s_0) / 32`, and on a
//! nonincreasing survival function `S` a step errs by at most half its
//! width times the fall of `S` across it.  Summed up to a grid point whose
//! exact ratio is `r`, that is `(1 + s_0 r) / 64` of the integral at most.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_batch::preemptive::{gittins_service_index, PreemptiveConfig};
use ss_distributions::special::reg_lower_gamma;
use ss_distributions::{
    dyn_dist, Deterministic, DynDist, Erlang, Exponential, HyperExponential, LogNormal,
    ServiceDistribution, TwoPoint, Uniform, Weibull,
};

/// The fabric discipline's grid: `(min_quantum, horizon, grid_points)`.
const FABRIC_GRID: (f64, f64, usize) = (1e-3, 60.0, 400);

/// Relative slack for rounding on top of the derived bounds.
const ROUNDING: f64 = 1e-9;

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
        (0xe2f4_a5c8_2a2e_0a5c, 78),
        "Gittins service index bits drifted: digest {digest:#018x} over {values} values"
    );
}

/// The most a computed ratio can exceed the exact ratio `r` of its grid
/// point, whose trapezoid runs from a first quantum `s0`: `+∞` once the
/// bound allows any integral.
fn overshoot(r: f64, s0: f64) -> f64 {
    let room = 1.0 - (1.0 + s0 * r) / 64.0;
    if room > 0.0 {
        r / room
    } else {
        f64::INFINITY
    }
}

/// The least a computed ratio can read for the exact ratio `r`.
fn undershoot(r: f64, s0: f64) -> f64 {
    r / (1.0 + (1.0 + s0 * r) / 64.0)
}

/// Where a law's exact index comes from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Decreasing hazard: the supremum is at the shortest quantum, so
    /// `G(a) = h(a)`.
    Decreasing,
    /// Increasing hazard: the supremum is at run to completion, so
    /// `G(a) = S(a) / ∫_a^∞ S`.
    Increasing,
    /// A step survival function, worked by hand.
    Steps,
}

/// `S(a) / ∫_a^∞ S` for the Erlang-`k` of mean 1: with `λ = k`, both are
/// `e^{−λa}` times a finite sum, `Σ_{m<k} (λa)^m / m!` and
/// `Σ_{m<k} (k − m) (λa)^m / m! / λ`.
fn erlang_index(k: u32, a: f64) -> f64 {
    let lambda = f64::from(k);
    let (mut term, mut survival, mut residual) = (1.0, 0.0, 0.0);
    for m in 0..k {
        if m > 0 {
            term *= lambda * a / f64::from(m);
        }
        survival += term;
        residual += f64::from(k - m) * term;
    }
    lambda * survival / residual
}

/// A law's exact index `G(a)` at weight 1.
type ExactIndex = Box<dyn Fn(f64) -> f64>;

/// The digest's laws with a closed form, each with its shape, the
/// attained services checked and its exact index.  Weibull 0.5 has
/// `h(0) = +∞`, so it is checked at `a > 0` only; at `a ≥ 2` the uniform,
/// deterministic 1 and two-point laws are complete (`+∞`).
fn closed_forms() -> Vec<(DynDist, Shape, &'static [f64], ExactIndex)> {
    let all: &[f64] = &[0.0, 0.5, 2.0];
    let hazard = |law: DynDist| -> ExactIndex { Box::new(move |a| law.hazard(a)) };
    let exponential = dyn_dist(Exponential::with_mean(1.0));
    let h2 = dyn_dist(HyperExponential::with_mean_scv(1.0, 2.0));
    let h4 = dyn_dist(HyperExponential::with_mean_scv(1.0, 4.0));
    let weibull = dyn_dist(Weibull::new(0.5, 1.0));
    let complete_from = |end: f64, index: fn(f64) -> f64| -> ExactIndex {
        Box::new(move |a| if a >= end { f64::INFINITY } else { index(a) })
    };
    vec![
        (
            exponential.clone(),
            Shape::Decreasing,
            all,
            hazard(exponential),
        ),
        (h2.clone(), Shape::Decreasing, all, hazard(h2)),
        (h4.clone(), Shape::Decreasing, all, hazard(h4)),
        (
            weibull.clone(),
            Shape::Decreasing,
            &[0.5, 2.0],
            hazard(weibull),
        ),
        (
            dyn_dist(Erlang::with_mean(2, 1.0)),
            Shape::Increasing,
            all,
            Box::new(|a| erlang_index(2, a)),
        ),
        (
            dyn_dist(Erlang::with_mean(4, 1.0)),
            Shape::Increasing,
            all,
            Box::new(|a| erlang_index(4, a)),
        ),
        (
            dyn_dist(Erlang::with_mean(10, 1.0)),
            Shape::Increasing,
            all,
            Box::new(|a| erlang_index(10, a)),
        ),
        (
            // S(a) = e^{−a²} and ∫_a^∞ S = (√π / 2) Q(1/2, a²).
            dyn_dist(Weibull::new(2.0, 1.0)),
            Shape::Increasing,
            all,
            Box::new(|a| {
                (-a * a).exp()
                    / (0.5 * std::f64::consts::PI.sqrt() * (1.0 - reg_lower_gamma(0.5, a * a)))
            }),
        ),
        (
            // S(a) = 1 − a/2 and ∫_a^2 S = (2 − a)² / 4.
            dyn_dist(Uniform::new(0.0, 2.0)),
            Shape::Increasing,
            all,
            complete_from(2.0, |a| 2.0 / (2.0 - a)),
        ),
        (
            dyn_dist(Deterministic::new(1.0)),
            Shape::Steps,
            all,
            complete_from(1.0, |a| 1.0 / (1.0 - a)),
        ),
        (
            // At a = 0 a quantum of 1 finishes half the jobs for a cost of
            // 1, and running to completion all of them for 1.5: 2/3 wins.
            // At a = 0.5 both a quantum of 0.5 and completion give 1.
            dyn_dist(TwoPoint::new(0.5, 1.0, 2.0)),
            Shape::Steps,
            all,
            complete_from(2.0, |a| if a < 0.5 { 2.0 / 3.0 } else { 1.0 }),
        ),
        (
            dyn_dist(Deterministic::new(100.0)),
            Shape::Steps,
            all,
            Box::new(|a| 1.0 / (100.0 - a)),
        ),
    ]
}

/// Every closed form holds within bounds derived from the grid.
///
/// * No index exceeds the exact `G` by more than the trapezoid's bound,
///   [`overshoot`]: the run-to-completion ratio never exceeds its exact
///   value, since `∫_0^a S` is a right-endpoint sum.
/// * A decreasing hazard's supremum is at `s → 0`, and the first quantum's
///   exact ratio is an average of `h` over `[a, a + s_0]`, so at least
///   `h(a + s_0)`.  Its trapezoid has steps of `s_0 / 32`.
/// * Where `S(a) = 1` the run-to-completion ratio is exact: `1 / E[S]` at
///   `a = 0`, and for the step laws `∫_0^a S = a`.  Elsewhere the
///   increasing laws' support ends well inside the horizon, so the grid's
///   last point reads the exact ratio `p(H) / E[S − a | S > a]` within the
///   bound; `p(H/2)` is less than `p(H)`.  For the step laws the bound is
///   half a step per jump.
#[test]
fn index_matches_its_closed_forms() {
    for (law, shape, attained, exact) in closed_forms() {
        for (s0, horizon, grid_points) in grids() {
            for &a in attained {
                let g = exact(a);
                let served = gittins_service_index(law.as_ref(), 1.0, a, s0, horizon, grid_points);
                let case = format!(
                    "{} at {a} on ({s0}, {horizon}, {grid_points})",
                    law.describe()
                );
                if g.is_infinite() {
                    assert_eq!(served, f64::INFINITY, "{case}: a completed job");
                    continue;
                }
                let lower = match shape {
                    Shape::Decreasing => {
                        let h = law.hazard(a + s0);
                        h / (1.0 + s0 * h / 64.0)
                    }
                    Shape::Increasing | Shape::Steps if law.sf(a) == 1.0 => g,
                    Shape::Increasing | Shape::Steps => {
                        let p = 1.0 - law.sf(a + horizon / 2.0) / law.sf(a);
                        p * undershoot(g, s0)
                    }
                };
                let upper = overshoot(g, s0);
                assert!(
                    served >= lower * (1.0 - ROUNDING) && served <= upper * (1.0 + ROUNDING),
                    "{case}: {served} outside [{lower}, {upper}] around the exact {g}"
                );
            }
        }
    }
}

/// A job that cannot finish inside the grid reads its run-to-completion
/// index `1 / (100 − a)`: no grid point sees a completion, and `S = 1` on
/// `[0, a]` makes `∫_0^a S = a` exact.
#[test]
fn a_job_that_cannot_finish_inside_the_grid_reads_its_residual_index() {
    let law = Deterministic::new(100.0);
    for (min_quantum, horizon, grid_points) in grids() {
        for attained in [0.0, 0.5, 2.0] {
            let index =
                gittins_service_index(&law, 1.0, attained, min_quantum, horizon, grid_points);
            let exact = 1.0 / (100.0 - attained);
            assert!(
                (index / exact - 1.0).abs() < 1e-12,
                "attained {attained}: {index} against {exact}"
            );
        }
    }
}

/// Reference steps per first quantum; a later step at `t` is at most
/// `t / FINE`.
const FINE: usize = 256;

/// The band the index must lie in, at weight 1, from brackets of the exact
/// ratios: for a nonincreasing `S` the right-endpoint sum of a step is
/// below its integral and the left-endpoint sum above it, whatever the
/// step.  The steps are eight times finer than the index's, geometric
/// inside each grid interval, so the brackets are narrow.  The grid points
/// are built as the index builds them.
fn reference_band(
    law: &dyn ServiceDistribution,
    attained: f64,
    min_quantum: f64,
    horizon: f64,
    grid_points: usize,
) -> (f64, f64) {
    let sa = law.sf(attained);
    if sa <= 1e-12 {
        return (f64::INFINITY, f64::INFINITY);
    }
    let ratio = (horizon / min_quantum).powf(1.0 / (grid_points - 1) as f64);
    let grid = std::iter::successors(Some(min_quantum), |s| Some(s * ratio)).take(grid_points);
    let (mut lower, mut upper) = (0.0f64, 0.0f64);
    // Right- and left-endpoint sums of S(a + t)/S(a) over [0, t].
    let (mut below, mut above) = (0.0, 0.0);
    let (mut t_prev, mut s_prev) = (0.0, 1.0);
    for s in grid {
        let steps = if t_prev == 0.0 {
            FINE
        } else {
            ((FINE as f64 * (s / t_prev).ln()).ceil() as usize).max(1)
        };
        let from = t_prev;
        for i in 1..=steps {
            let t = if i == steps {
                s
            } else if from == 0.0 {
                s * i as f64 / steps as f64
            } else {
                from * (s / from).powf(i as f64 / steps as f64)
            };
            let cur = law.sf(attained + t) / sa;
            below += cur * (t - t_prev);
            above += s_prev * (t - t_prev);
            (t_prev, s_prev) = (t, cur);
        }
        let p = 1.0 - s_prev;
        lower = lower.max(undershoot(p / above, min_quantum));
        upper = upper.max(if below > 0.0 {
            overshoot(p / below, min_quantum)
        } else {
            f64::INFINITY
        });
    }
    // Running to completion: exact at a = 0, and otherwise at most S(a)
    // over E[S] less the left-endpoint sum of S over [0, a].
    if attained == 0.0 {
        lower = lower.max(sa / law.mean());
        upper = upper.max(sa / law.mean());
    } else {
        let n = 4096;
        let above: f64 = (0..n)
            .map(|i| law.sf(attained * i as f64 / n as f64) * attained / n as f64)
            .sum();
        let residual = law.mean() - above;
        upper = upper.max(if residual > 0.0 {
            sa / residual
        } else {
            f64::INFINITY
        });
    }
    (lower, upper)
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

/// Random laws, weights, attained services and grids keep the index
/// within the trapezoid's bound of the fine reference, including the laws
/// a grid cannot see finish and the attained services past a law's
/// support (index +∞).
#[test]
fn index_is_within_the_quadrature_bound_of_a_fine_reference_on_random_inputs() {
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
        let (lower, upper) =
            reference_band(law.as_ref(), attained, min_quantum, horizon, grid_points);
        assert!(
            got >= weight * lower * (1.0 - ROUNDING) && got <= weight * upper * (1.0 + ROUNDING),
            "case {case}: {} weight {weight} attained {attained} grid ({min_quantum}, {horizon}, {grid_points}): {got} outside [{}, {}]",
            law.describe(),
            weight * lower,
            weight * upper
        );
    }
}
