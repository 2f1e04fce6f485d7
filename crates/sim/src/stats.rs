//! Output-analysis statistics: online moments, confidence intervals,
//! time-weighted averages and the deterministic quantile sketch.

use std::sync::LazyLock;

use ss_distributions::special::std_normal_inv_cdf;

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate a whole sample at once (convenience for oracle checks
    /// and tests that already hold their observations in a slice).
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of a normal-approximation confidence interval at the given
    /// level (e.g. `0.95`).
    pub fn ci_half_width(&self, level: f64) -> f64 {
        assert!(level > 0.0 && level < 1.0);
        if self.n < 2 {
            return f64::INFINITY;
        }
        let z = std_normal_inv_cdf(0.5 + level / 2.0);
        z * self.std_error()
    }

    /// Half-width of a **Student-t** confidence interval at the given level.
    ///
    /// For small replication counts the normal quantile of
    /// [`OnlineStats::ci_half_width`] under-covers (e.g. true coverage
    /// ~96% for a nominal 99% interval at n = 6).  This variant uses the
    /// exact closed-form t quantiles at 1 and 2 degrees of freedom (where
    /// a `1/dof` expansion diverges badly) and the Peiser / Cornish–Fisher
    /// expansion above that — a few percent low at dof 3, well under 1%
    /// for dof >= 4, converging to the normal quantile as `n` grows.  The
    /// oracle cross-validation gate (ss-verify) uses it for its
    /// few-replication CI slack.
    pub fn ci_half_width_t(&self, level: f64) -> f64 {
        assert!(level > 0.0 && level < 1.0);
        if self.n < 2 {
            return f64::INFINITY;
        }
        let t = match self.n - 1 {
            // dof 1 (Cauchy): Q(p) = tan(pi (p - 1/2)) = tan(pi level / 2).
            1 => (std::f64::consts::PI * level / 2.0).tan(),
            // dof 2: Q(p) = (2p - 1) sqrt(2 / (1 - (2p - 1)^2)).
            2 => level * (2.0 / (1.0 - level * level)).sqrt(),
            _ => {
                let dof = (self.n - 1) as f64;
                let z = std_normal_inv_cdf(0.5 + level / 2.0);
                let (z3, z5, z7) = (z.powi(3), z.powi(5), z.powi(7));
                z + (z3 + z) / (4.0 * dof)
                    + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * dof * dof)
                    + (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * dof.powi(3))
            }
        };
        t * self.std_error()
    }
}

/// Deterministic fixed-bucket quantile sketch for latency tails.
///
/// Values are counted into geometrically spaced buckets spanning
/// `[floor, cap]`; a quantile query returns the **upper edge** of the
/// bucket where the cumulative count crosses the rank.  Two properties
/// matter for the service-fabric harness:
///
/// * the answer depends only on the multiset of recorded values — not on
///   insertion order, thread schedule or allocation state — so P50/P95/P99
///   lines diff byte-for-byte across `SS_THREADS`;
/// * the relative error is bounded by the bucket growth factor
///   (`growth - 1`, e.g. 2% at 512 buckets over four decades), which is
///   a resolution statement the report can carry, unlike a sampled
///   reservoir's run-dependent noise.
///
/// Values at or below `floor` land in the first bucket; values beyond
/// `cap` land in a dedicated overflow bucket, whose quantile is reported
/// as the exact observed maximum.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    floor: f64,
    inv_log_growth: f64,
    /// `log2(floor)`, the origin of [`QuantileSketch::fast_bucket`].
    log2_floor: f64,
    /// `inv_log_growth · ln 2 = 1 / log2(growth)`: buckets per doubling.
    inv_log2_growth: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

/// `log2(1 + j/256)` for `j` in `0..=256`: the knots of the
/// piecewise-linear `log2` in [`QuantileSketch::fast_bucket`].  Built once
/// per process, since one replication can create thousands of sketches.
static LOG2_KNOTS: LazyLock<[f64; 257]> =
    LazyLock::new(|| std::array::from_fn(|j| (1.0 + j as f64 / 256.0).log2()));

/// Half-width, in buckets, of the band around each bucket edge inside
/// which [`QuantileSketch::fast_bucket`] defers to the `ln` formula.
const EDGE_MARGIN: f64 = 1.0 / 256.0;

/// The most buckets per doubling of `x` at which
/// [`QuantileSketch::fast_bucket`] answers at all.  Its interpolation
/// error, `(1/256)²/8 · 1/ln 2 = 2.75e-6` in log2 units, times this is
/// 1.4e-3 bucket: inside [`EDGE_MARGIN`] with room for the ~1e-9 bucket
/// of rounding in either path.
const FAST_MAX_BUCKETS_PER_DOUBLING: f64 = 512.0;

impl QuantileSketch {
    /// Sketch spanning `[floor, cap]` with `buckets` geometric buckets
    /// (plus an overflow bucket).  `floor` must be positive, `cap` larger
    /// than `floor`, and the growth factor `(cap/floor)^(1/buckets)`
    /// finite and larger than 1 in `f64`, or every quantile would be
    /// wrong.
    pub fn new(floor: f64, cap: f64, buckets: usize) -> Self {
        assert!(floor > 0.0 && cap > floor && buckets >= 1);
        let growth = (cap / floor).powf(1.0 / buckets as f64);
        assert!(
            growth.is_finite() && growth > 1.0,
            "sketch geometry floor = {floor:e}, cap = {cap:e}, buckets = {buckets} \
             has growth factor {growth}; it must be finite and > 1"
        );
        let inv_log_growth = 1.0 / growth.ln();
        Self {
            floor,
            inv_log_growth,
            log2_floor: floor.log2(),
            inv_log2_growth: inv_log_growth * std::f64::consts::LN_2,
            counts: vec![0; buckets + 1],
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation (must be finite and nonnegative).
    ///
    /// The bin mapping is **total** over that domain: `0.0`, `-0.0`
    /// (which passes `x >= 0.0`), and every value at or below `floor`
    /// land in bucket 0 without ever reaching the logarithm, so no
    /// sub-floor value can produce a NaN ratio or an out-of-range bucket;
    /// values beyond the cap saturate into the overflow bucket.  Mean and
    /// max stay exact regardless of bucketing.
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "sketch value must be finite, got {x}"
        );
        let overflow = self.counts.len() - 1;
        let idx = if x <= self.floor {
            0
        } else {
            self.fast_bucket(x)
                .unwrap_or_else(|| self.exact_bucket(x))
                .min(overflow)
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
        self.max = self.max.max(x);
    }

    /// The bucket of `x > floor`, before the overflow clamp: bucket `b`
    /// covers `(floor·g^b, floor·g^(b+1)]`, and ceil of the log ratio
    /// minus one floors exactly onto the covering bucket.  This is the
    /// reference that [`QuantileSketch::fast_bucket`] must reproduce.
    fn exact_bucket(&self, x: f64) -> usize {
        (((x / self.floor).ln() * self.inv_log_growth).ceil() as usize).saturating_sub(1)
    }

    /// [`QuantileSketch::exact_bucket`] without `ln`, division or `ceil`,
    /// or `None` where it cannot vouch for the same answer.
    ///
    /// `log2(x)` is the exponent plus a linear interpolation of
    /// [`LOG2_KNOTS`] at the mantissa (its top 8 bits pick the knot, the
    /// other 44 the position between knots), which is within 2.75e-6 of
    /// the true value.  Scaled to buckets that is at most 1.4e-3 bucket
    /// (see [`FAST_MAX_BUCKETS_PER_DOUBLING`]), and the `ln` formula is
    /// within ~1e-9 bucket of the exact ratio, so wherever the scaled
    /// value lies more than [`EDGE_MARGIN`] from an integer both round to
    /// the same bucket.  Nearer an edge, for a subnormal `x`, or at a
    /// geometry finer than the bound allows, it answers `None`.
    fn fast_bucket(&self, x: f64) -> Option<usize> {
        const MANTISSA_BITS: u32 = 52;
        const FINE_BITS: u32 = MANTISSA_BITS - 8;
        const FINE_SCALE: f64 = 1.0 / (1u64 << FINE_BITS) as f64;
        if self.inv_log2_growth > FAST_MAX_BUCKETS_PER_DOUBLING {
            return None;
        }
        let bits = x.to_bits();
        // `x > floor > 0`, so the sign bit is clear and this is the
        // biased exponent; zero means subnormal (no implicit leading 1).
        let biased = bits >> MANTISSA_BITS;
        if biased == 0 {
            return None;
        }
        let knot = (bits >> FINE_BITS) as usize & 0xff;
        let fine = (bits & ((1 << FINE_BITS) - 1)) as f64 * FINE_SCALE;
        let (lo, hi) = (LOG2_KNOTS[knot], LOG2_KNOTS[knot + 1]);
        let log2_x = (biased as f64 - 1023.0) + (lo + (hi - lo) * fine);
        let scaled = (log2_x - self.log2_floor) * self.inv_log2_growth;
        // `as` truncates toward zero, so for a nonnegative value this is
        // the floor, and a negative value leaves a remainder in (-1, 0]
        // that the margin test rejects.  (`i64` rather than `usize`: the
        // unsigned conversions take several instructions each on x86-64.)
        let whole = scaled as i64;
        let rem = scaled - whole as f64;
        (rem > EDGE_MARGIN && rem < 1.0 - EDGE_MARGIN).then_some(whole as usize)
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded observations (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded observation (exact).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper edge of the bucket
    /// containing the rank-`ceil(q·n)` observation; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0);
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        let overflow = self.counts.len() - 1;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == overflow {
                    // Overflow bucket: the cap understates the tail, so
                    // report the exact observed maximum instead.
                    self.max
                } else {
                    self.floor * ((b + 1) as f64 / self.inv_log_growth).exp()
                };
            }
        }
        self.max
    }

    /// Merge another sketch (must share the same geometry).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.counts.len(), other.counts.len());
        assert_eq!(self.floor.to_bits(), other.floor.to_bits());
        assert_eq!(
            self.inv_log_growth.to_bits(),
            other.inv_log_growth.to_bits()
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant process (queue lengths,
/// number-in-system, busy servers).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: f64,
    last_value: f64,
    area: f64,
    start_time: f64,
    max_value: f64,
}

impl TimeWeighted {
    /// Start observing at `time` with initial value `value`.
    pub fn new(time: f64, value: f64) -> Self {
        Self {
            last_time: time,
            last_value: value,
            area: 0.0,
            start_time: time,
            max_value: value,
        }
    }

    /// Record that the process changed to `value` at `time`.
    pub fn update(&mut self, time: f64, value: f64) {
        assert!(
            time + 1e-12 >= self.last_time,
            "time went backwards: {} -> {}",
            self.last_time,
            time
        );
        self.area += self.last_value * (time - self.last_time).max(0.0);
        self.last_time = time;
        self.last_value = value;
        self.max_value = self.max_value.max(value);
    }

    /// Time-average of the process over `[start, time]`, closing the last
    /// segment at `time`.
    pub fn time_average(&self, time: f64) -> f64 {
        let span = time - self.start_time;
        if span <= 0.0 {
            return self.last_value;
        }
        (self.area + self.last_value * (time - self.last_time).max(0.0)) / span
    }

    /// Accumulated area under the curve up to the last update.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Largest value observed.
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// Current value of the process.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Discard history and restart the integration at `time` keeping the
    /// current value (used to delete a warm-up period).
    pub fn reset(&mut self, time: f64) {
        self.area = 0.0;
        self.start_time = time;
        self.last_time = time;
        self.max_value = self.last_value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n-1 denominator: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn from_slice_equals_pushes() {
        let xs = [1.0, 2.5, -3.0, 4.25];
        let s = OnlineStats::from_slice(&xs);
        let mut t = OnlineStats::new();
        for &x in &xs {
            t.push(x);
        }
        assert_eq!(s.count(), t.count());
        assert_eq!(s.mean().to_bits(), t.mean().to_bits());
        assert_eq!(s.variance().to_bits(), t.variance().to_bits());
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 5.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..40] {
            a.push(x);
        }
        for &x in &xs[40..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        let mut x = 0.37f64;
        for i in 0..10_000 {
            x = (x * 997.3).fract();
            if i < 100 {
                small.push(x);
            }
            large.push(x);
        }
        assert!(large.ci_half_width(0.95) < small.ci_half_width(0.95));
    }

    #[test]
    fn t_interval_matches_tabulated_quantiles() {
        // Normalising the half-width by the computed standard error leaves
        // exactly the t quantile, whatever the sample's spread — any
        // nondegenerate sample works, so use alternating +/-1.
        let quantile = |n: usize, level: f64| {
            let mut s = OnlineStats::new();
            for i in 0..n {
                s.push(if i % 2 == 0 { 1.0 } else { -1.0 });
            }
            s.ci_half_width_t(level) / s.std_error()
        };
        // Tabulated Student-t critical values.
        assert!((quantile(2, 0.99) - 63.657).abs() < 0.01); // dof 1, exact
        assert!((quantile(3, 0.99) - 9.925).abs() < 0.01); // dof 2, exact
        assert!((quantile(4, 0.99) - 5.841).abs() < 0.25); // dof 3, ~3% low
        assert!((quantile(6, 0.99) - 4.032).abs() < 0.05); // dof 5
        assert!((quantile(11, 0.95) - 2.228).abs() < 0.01); // dof 10
        assert!((quantile(31, 0.95) - 2.042).abs() < 0.005); // dof 30
                                                             // Large n: converges to the normal quantile.
        assert!((quantile(10_001, 0.95) - 1.960).abs() < 0.001);
        // Always at least as wide as the normal interval.
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            s.push(x);
        }
        assert!(s.ci_half_width_t(0.99) > s.ci_half_width(0.99));
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.update(1.0, 2.0); // value 0 on [0,1)
        tw.update(3.0, 1.0); // value 2 on [1,3)
                             // value 1 on [3,5]
        let avg = tw.time_average(5.0);
        // (0*1 + 2*2 + 1*2) / 5 = 6/5
        assert!((avg - 1.2).abs() < 1e-12);
        assert_eq!(tw.max_value(), 2.0);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_reset_discards_warmup() {
        let mut tw = TimeWeighted::new(0.0, 10.0);
        tw.update(5.0, 1.0);
        tw.reset(5.0);
        tw.update(10.0, 1.0);
        let avg = tw.time_average(10.0);
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sketch_quantiles_bound_true_quantiles() {
        let mut s = QuantileSketch::new(0.01, 100.0, 400);
        // 1..=1000 scaled: true p50 = 5.0, p99 = 9.9 (of 0.01..=10.0).
        for i in 1..=1000 {
            s.record(i as f64 * 0.01);
        }
        assert_eq!(s.count(), 1000);
        let growth = (100.0f64 / 0.01).powf(1.0 / 400.0);
        for &(q, truth) in &[(0.5, 5.0), (0.95, 9.5), (0.99, 9.9)] {
            let est = s.quantile(q);
            assert!(
                est >= truth * 0.999 && est <= truth * growth * 1.001,
                "q={q}: est {est} vs truth {truth}"
            );
        }
        assert!((s.mean() - 5.005).abs() < 1e-9);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn sketch_is_insertion_order_invariant() {
        let xs: Vec<f64> = (0..500)
            .map(|i| 0.002 + (i as f64 * 0.7919).fract() * 8.0)
            .collect();
        let mut fwd = QuantileSketch::new(1e-3, 10.0, 512);
        let mut rev = QuantileSketch::new(1e-3, 10.0, 512);
        for &x in &xs {
            fwd.record(x);
        }
        for &x in xs.iter().rev() {
            rev.record(x);
        }
        for &q in &[0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(fwd.quantile(q).to_bits(), rev.quantile(q).to_bits());
        }
    }

    #[test]
    fn sketch_merge_equals_single_sketch() {
        let xs: Vec<f64> = (0..300).map(|i| 0.01 + i as f64 * 0.03).collect();
        let mut whole = QuantileSketch::new(1e-3, 10.0, 512);
        let mut a = QuantileSketch::new(1e-3, 10.0, 512);
        let mut b = QuantileSketch::new(1e-3, 10.0, 512);
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for &q in &[0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn sketch_overflow_reports_observed_max() {
        let mut s = QuantileSketch::new(0.1, 1.0, 8);
        s.record(0.5);
        s.record(250.0);
        assert_eq!(s.quantile(1.0), 250.0);
        assert!(s.quantile(0.5) <= 1.0);
    }

    #[test]
    fn empty_sketch_is_zero() {
        let s = QuantileSketch::new(1e-3, 10.0, 512);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    /// The bin mapping is total at the bottom of the domain: zero,
    /// negative zero, subnormals, and exactly-at-floor samples all land
    /// in bucket 0 (they never reach the log), and the exact-moment
    /// accumulators remain exact.
    #[test]
    fn sketch_zero_subnormal_and_at_floor_samples_land_in_bucket_zero() {
        let floor = 1e-3;
        let samples = [0.0, -0.0, f64::MIN_POSITIVE, 1e-310, floor];
        let mut s = QuantileSketch::new(floor, 10.0, 512);
        for &x in &samples {
            s.record(x);
        }
        assert_eq!(s.count(), samples.len() as u64);
        // All five sit in the first bucket, so every quantile reports its
        // upper edge: floor · growth.
        let growth = (10.0f64 / floor).powf(1.0 / 512.0);
        for q in [0.01, 0.5, 1.0] {
            assert!(
                (s.quantile(q) - floor * growth).abs() < 1e-12,
                "q{q} left bucket 0"
            );
        }
        // Mean and max are exact, not bucketed: the subnormals and zeros
        // contribute their true values.
        let sum: f64 = samples.iter().sum();
        assert_eq!(s.mean().to_bits(), (sum / 5.0).to_bits());
        assert_eq!(s.max().to_bits(), floor.to_bits());
    }

    /// Just-above-floor samples stay adjacent to the floor bucket rather
    /// than underflowing the `saturating_sub`: the mapping is monotone
    /// across the floor boundary.
    #[test]
    fn sketch_mapping_is_monotone_across_the_floor_boundary() {
        let floor = 1e-3;
        let mut below = QuantileSketch::new(floor, 10.0, 512);
        let mut above = QuantileSketch::new(floor, 10.0, 512);
        below.record(floor);
        above.record(floor * (1.0 + 1e-12));
        assert!(above.quantile(1.0) >= below.quantile(1.0));
    }

    /// An infinite cap makes the growth factor infinite.
    #[test]
    #[should_panic(expected = "cap = inf, buckets = 10 has growth factor inf")]
    fn sketch_rejects_an_infinite_growth_factor() {
        QuantileSketch::new(1e-3, f64::INFINITY, 10);
    }

    /// `cap / floor` overflows to infinity before the root is taken.
    #[test]
    #[should_panic(expected = "cap = 1e0, buckets = 64 has growth factor inf")]
    fn sketch_rejects_a_cap_floor_ratio_that_overflows() {
        QuantileSketch::new(f64::MIN_POSITIVE / 4.0, 1.0, 64);
    }

    /// The growth factor rounds to exactly 1, so every bucket edge is
    /// `floor` and every sample above it overflows.
    #[test]
    #[should_panic(expected = "buckets = 1048576 has growth factor 1;")]
    fn sketch_rejects_a_growth_factor_that_rounds_to_one() {
        QuantileSketch::new(1.0, 1.0 + 1e-12, 1 << 20);
    }

    /// Every `x > floor` of `xs` at which `fast_bucket` answers must get
    /// `exact_bucket`'s bucket after the overflow clamp.  Returns how many
    /// of them were above the floor and how many of those it answered.
    fn check_fast_bucket(s: &QuantileSketch, xs: impl IntoIterator<Item = f64>) -> (usize, usize) {
        let overflow = s.counts.len() - 1;
        let (mut above, mut answered) = (0, 0);
        for x in xs.into_iter().filter(|&x| x > s.floor) {
            above += 1;
            if let Some(fast) = s.fast_bucket(x) {
                answered += 1;
                assert_eq!(
                    fast.min(overflow),
                    s.exact_bucket(x).min(overflow),
                    "x = {x:e} ({:#x}) at floor {:e}",
                    x.to_bits(),
                    s.floor
                );
            }
        }
        (above, answered)
    }

    /// Every finite double within 256 ULPs of `x`, which must be
    /// positive.
    fn ulp_neighbourhood(x: f64) -> impl Iterator<Item = f64> {
        let bits = x.to_bits();
        (bits.saturating_sub(256)..=bits + 256)
            .map(f64::from_bits)
            .filter(|x| x.is_finite())
    }

    /// `(floor, cap, buckets)` of the fabric's RTT sketch, the
    /// four-decade geometry of the tests above, a geometry whose floor is
    /// subnormal, and one at 500 buckets per doubling, where the fast
    /// path's error is near its bound.
    const GEOMETRIES: [(f64, f64, usize); 4] = [
        (1e-3, 1e3, 1024),
        (1e-3, 10.0, 512),
        // 2^-1060 (a subnormal, 14 binades below the normals) to 2^-1000.
        (f64::from_bits(1 << 14), f64::from_bits(23 << 52), 64),
        (1.0, 2.0, 500),
    ];

    /// `n` values log-uniform over `[floor, cap]` from a fixed seed.
    fn log_uniform(floor: f64, cap: f64, n: usize) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED_B0C7);
        let (lo, hi) = (floor.ln(), cap.ln());
        (0..n)
            .map(|_| (lo + (hi - lo) * rng.gen::<f64>()).exp())
            .collect()
    }

    /// The fast path reproduces the `ln` formula around every bucket edge
    /// (each computed three ways, since each rounds differently), around
    /// the floor and the cap, at `f64::MAX` and at subnormals, and on
    /// log-uniform values, where it must also answer at least 98% of the
    /// normal ones: a change that always fell back would keep the buckets
    /// and lose the speed.
    #[test]
    fn fast_bucket_matches_the_ln_formula() {
        for (floor, cap, buckets) in GEOMETRIES {
            let s = QuantileSketch::new(floor, cap, buckets);
            let growth = (cap / floor).powf(1.0 / buckets as f64);
            let edges = (0..=buckets as i32).flat_map(|k| {
                let steps = k as f64 / s.inv_log_growth;
                [
                    floor * growth.powi(k),
                    floor * steps.exp(),
                    (floor.ln() + steps).exp(),
                ]
            });
            check_fast_bucket(&s, edges.flat_map(ulp_neighbourhood));
            // The largest subnormals sit just below `f64::MIN_POSITIVE`.
            let specials = [floor, cap, f64::MAX, f64::MIN_POSITIVE];
            check_fast_bucket(&s, specials.into_iter().flat_map(ulp_neighbourhood));
            for x in (0..52).map(|b| f64::from_bits(1 << b)) {
                if x > floor {
                    assert_eq!(s.fast_bucket(x), None, "subnormal {x:e}");
                }
            }
            // Subnormals always fall back (checked above), so the rate
            // counts normals only.
            let values = log_uniform(floor, cap, 100_000).into_iter();
            let (above, answered) = check_fast_bucket(&s, values.filter(|x| x.is_normal()));
            assert!(
                answered as f64 >= 0.98 * above as f64,
                "floor {floor:e}: fast path answered {answered} of {above}"
            );
        }
    }

    /// Above 512 buckets per doubling the interpolation error could cross
    /// the margin, so the fast path must stand down and `record` use the
    /// formula alone.
    #[test]
    fn fast_bucket_stands_down_at_fine_geometries() {
        let s = QuantileSketch::new(1.0, 2.0, 4096);
        let (above, answered) = check_fast_bucket(&s, log_uniform(1.0, 2.0, 10_000));
        assert_eq!((above, answered), (10_000, 0));
    }
}
