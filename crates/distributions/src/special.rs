//! Minimal special-function toolkit (no external dependencies).
//!
//! Only the functions needed by the distribution families in this crate are
//! provided: `ln Γ` (Lanczos), the regularised lower incomplete gamma
//! function (series / continued fraction), `erf`, and the standard normal
//! CDF.  Accuracies are more than sufficient for the simulation and index
//! computations in this workspace (absolute error well below 1e-10 over the
//! ranges exercised).

/// Natural log of the Gamma function, Lanczos approximation (g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients from Numerical Recipes / Lanczos (g=7).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Gamma function.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`:
/// the one-lane instance of the lane kernel that Erlang's batched survival
/// function runs four lanes wide.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    let [p] = reg_lower_gamma_lanes(a, ln_gamma(a), [x]);
    p
}

/// `P(a, x)` at `L` abscissae of one shape `a`, given `ln_gamma_a =
/// ln_gamma(a)`.
///
/// Each lane takes the series when `0 < x < a + 1` and Lentz's continued
/// fraction for the upper function `Q = 1 − P` otherwise (NaN and +∞
/// included); `x <= 0` gives 0. A lane that has converged keeps its state
/// while the others iterate, and every lane stops at its branch's cap (500
/// series terms, 499 fraction terms). So each lane runs the same
/// operations on the same operands as a one-lane call and returns the same
/// bits: the lanes only interleave independent division chains, which the
/// core overlaps.
pub(crate) fn reg_lower_gamma_lanes<const L: usize>(
    a: f64,
    ln_gamma_a: f64,
    xs: [f64; L],
) -> [f64; L] {
    assert!(a > 0.0, "shape parameter must be positive");
    let series = xs.map(|x| x > 0.0 && x < a + 1.0);
    let mut done = xs.map(|x| x <= 0.0);
    // Series state: sum, term, n. Continued-fraction state: b, c, d, h.
    let [mut sum, mut term, mut n] = [[0.0; L]; 3];
    let [mut b, mut c, mut d, mut h] = [[0.0; L]; 4];
    for l in 0..L {
        if done[l] {
            continue;
        }
        if series[l] {
            sum[l] = 1.0 / a;
            term[l] = sum[l];
            n[l] = a;
        } else {
            b[l] = xs[l] + 1.0 - a;
            c[l] = 1.0 / 1e-300;
            d[l] = 1.0 / b[l];
            h[l] = d[l];
        }
    }
    for iteration in 0..500 {
        let mut all_done = true;
        for l in 0..L {
            if done[l] {
                continue;
            }
            if series[l] {
                n[l] += 1.0;
                term[l] *= xs[l] / n[l];
                sum[l] += term[l];
                done[l] = term[l].abs() < sum[l].abs() * 1e-15;
                all_done &= done[l];
                continue;
            }
            // The continued fraction's terms run i = 1..500.
            let i = iteration + 1;
            if i == 500 {
                continue;
            }
            let an = -(i as f64) * (i as f64 - a);
            b[l] += 2.0;
            d[l] = an * d[l] + b[l];
            if d[l].abs() < 1e-300 {
                d[l] = 1e-300;
            }
            c[l] = b[l] + an / c[l];
            if c[l].abs() < 1e-300 {
                c[l] = 1e-300;
            }
            d[l] = 1.0 / d[l];
            let delta = d[l] * c[l];
            h[l] *= delta;
            done[l] = (delta - 1.0).abs() < 1e-15;
            all_done &= done[l];
        }
        if all_done {
            break;
        }
    }
    std::array::from_fn(|l| {
        let x = xs[l];
        if x <= 0.0 {
            0.0
        } else if series[l] {
            (sum[l].ln() + a * x.ln() - x - ln_gamma_a).exp()
        } else {
            let q = (a * x.ln() - x - ln_gamma_a).exp() * h[l];
            (1.0 - q).clamp(0.0, 1.0)
        }
    })
}

/// Error function, Abramowitz & Stegun 7.1.26 with sign handling.
///
/// Maximum absolute error ~1.5e-7, which is ample for the log-normal CDF
/// used only in simulation sanity checks.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (Acklam's rational approximation).
///
/// Used by the statistics module consumers to build confidence intervals
/// for arbitrary levels; absolute error below 1.2e-9.
pub fn std_normal_inv_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.02425;
    let p_high = 1.0 - p_low;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= p_high {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_at_integers_is_factorial() {
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let g = gamma(n as f64 + 1.0);
            assert!((g - f).abs() / f < 1e-10, "Gamma({}) = {}", n + 1, g);
        }
    }

    #[test]
    fn gamma_half() {
        let g = gamma(0.5);
        assert!((g - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn reg_lower_gamma_matches_erlang_cdf() {
        // For integer shape k, P(k, x) = 1 - sum_{n<k} e^-x x^n / n!.
        for k in 1..=6u32 {
            for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0, 10.0] {
                let mut tail = 0.0;
                let mut term = (-x).exp();
                for n in 0..k {
                    if n > 0 {
                        term *= x / n as f64;
                    }
                    tail += term;
                }
                let exact = 1.0 - tail;
                let got = reg_lower_gamma(k as f64, x);
                assert!((got - exact).abs() < 1e-9, "P({k},{x}): {got} vs {exact}");
            }
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0] {
            let s = std_normal_cdf(x) + std_normal_cdf(-x);
            assert!((s - 1.0).abs() < 1e-10);
        }
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-8);
    }

    #[test]
    fn inv_cdf_round_trips() {
        for &p in &[0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.99] {
            let x = std_normal_inv_cdf(p);
            let back = std_normal_cdf(x);
            assert!((back - p).abs() < 5e-6, "p={p}, x={x}, back={back}");
        }
        assert!((std_normal_inv_cdf(0.975) - 1.959_964).abs() < 1e-4);
    }
    /// Folds a value's bits into an FNV-1a hash, every NaN as `f64::NAN`:
    /// NaN payloads are not part of the arithmetic.
    fn fold(hash: &mut u64, v: f64) {
        for byte in canonical_bits(v).to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn canonical_bits(v: f64) -> u64 {
        if v.is_nan() { f64::NAN } else { v }.to_bits()
    }

    /// `reg_lower_gamma`'s bits over shapes 1..=16, against a digest
    /// recorded from the scalar implementation that preceded the lane
    /// kernel. The abscissae straddle the switch from the series to the
    /// continued fraction at `a + 1` (one ulp either side), cover the edges
    /// (negative, ±0, subnormal, tiny, large, +∞, NaN) and spread across
    /// both branches.
    #[test]
    fn reg_lower_gamma_bits_match_the_recorded_digest() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut values = 0;
        for shape in 1..=16u32 {
            let a = f64::from(shape);
            let switch = a + 1.0;
            let edges = [
                switch,
                switch.next_up(),
                switch.next_down(),
                -1.0,
                0.0,
                -0.0,
                f64::from_bits(1),
                1e-300,
                1e3,
                f64::INFINITY,
                f64::NAN,
            ];
            let spread = (1..=64).map(|i| f64::from(i) * 0.37);
            for x in edges.into_iter().chain(spread) {
                fold(&mut hash, reg_lower_gamma(a, x));
                values += 1;
            }
        }
        assert_eq!(
            (hash, values),
            (0x1d00_02c5_9bcd_1c90, 16 * 75),
            "reg_lower_gamma bits drifted: digest {hash:#018x}"
        );
    }

    /// Four lanes return each lane's one-lane bits, over 10^5 seeded
    /// quadruples that mix the two branches, converge at different
    /// iterations and include the edges (NaN, ±∞, 0, negative, subnormal).
    #[test]
    fn four_lanes_equal_one_lane_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1a4e5);
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -2.5,
            f64::from_bits(1),
            1e-300,
            1e3,
        ];
        let mut branches = [0usize; 2];
        for _ in 0..100_000 {
            let a = if rng.gen::<bool>() {
                f64::from(rng.gen_range(1u32..=24))
            } else {
                rng.gen_range(0.05..30.0)
            };
            let xs: [f64; 4] = std::array::from_fn(|_| match rng.gen_range(0..8u32) {
                0 => edges[rng.gen_range(0..edges.len())],
                1 => {
                    let switch = a + 1.0;
                    [switch, switch.next_up(), switch.next_down()][rng.gen_range(0..3usize)]
                }
                2 => rng.gen_range(0.0..200.0),
                _ => rng.gen_range(0.0..3.0 * a + 3.0),
            });
            let lanes = reg_lower_gamma_lanes(a, ln_gamma(a), xs);
            for (x, p) in xs.into_iter().zip(lanes) {
                let one = reg_lower_gamma(a, x);
                assert_eq!(
                    canonical_bits(p),
                    canonical_bits(one),
                    "P({a}, {x}) in lanes {xs:?}: {p} vs {one}"
                );
                if x > 0.0 {
                    branches[usize::from(x < a + 1.0)] += 1;
                }
            }
        }
        assert!(branches.iter().all(|&n| n > 100_000), "{branches:?}");
    }
}
