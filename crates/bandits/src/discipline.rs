//! Whittle-index adapter onto the common fabric [`Discipline`] trait.
//!
//! Each job class is modelled as a restless project whose state is its
//! queue length, truncated at `max_queue`: "active" means the server works
//! on the class (departures at rate µ), "passive" means it does not;
//! arrivals (rate λ) happen either way.  The index of a state is the
//! passivity subsidy making active and passive equally attractive there —
//! Whittle's index, in its original **discounted** formulation.
//!
//! **Why discounted, not average.**  Under the average criterion this
//! project degenerates on a truncated chain: a passive state cannot hold
//! the queue down, so an interior threshold merely shifts the whole
//! recurrent set upward, every interior threshold is dominated, and the
//! subsidy problem block-switches from "always serve" straight to "never
//! serve" — the per-state indices collapse to nearly identical values
//! determined by the truncation boundary (gain comparisons are blind to
//! transients).  Discounting weighs exactly the transient passage that
//! distinguishes the states, so the discounted index is finite, strictly
//! increasing in the backlog for convex costs, and truncation-robust.
//!
//! **Why a convex holding cost.**  With cost linear in the queue length
//! the Whittle rule carries (almost) no backlog information — it is the cµ
//! rule in disguise.  The adapter prices backlog by the discrete-convex
//! holding cost `C(s) = c · s(s+1)/2`, whose marginal is `c · s`, so the
//! index behaves like "cµ scaled by backlog": genuinely dynamic where cµ
//! and Gittins-at-zero are static.
//!
//! **Computation.**  Optimal subsidy-problem policies here are thresholds
//! (serve iff the queue length is at least `T`).  For a fixed threshold
//! the discounted cost-to-go `u_T` and discounted idle-time `w_T` each
//! solve a tridiagonal linear system (the chain is birth–death plus
//! self-loops), and the value under subsidy `w` is `−u_T + w·w_T`, affine
//! in `w`.  The index of state `s` is the fair charge at which thresholds
//! `s` and `s+1` exchange optimality, evaluated where they disagree:
//!
//! ```text
//! W(s) = (u_{T=s+1}(s) − u_{T=s}(s)) / (w_{T=s+1}(s) − w_{T=s}(s))
//! ```
//!
//! One Thomas elimination per threshold solves both systems, whose matrix
//! is the same, and gives the whole table in `O(n²)` — no value
//! iteration, no bisection.  Thresholds are solved in increasing order,
//! and rows below `T − 1` are the same for `T − 1` and `T`, so each
//! elimination resumes where its predecessor's rows start to differ.  All
//! classes share one uniformization
//! clock (`Λ = max_j (λ_j + µ_j)`) and one per-slot discount
//! [`WHITTLE_DISCOUNT`], so the indices are comparable across classes.

use ss_core::discipline::Discipline;
use ss_core::job::JobClass;

/// Per-slot discount factor of the subsidy problems (slots tick at the
/// shared uniformization rate): the effective lookahead is
/// `1/(1−β) = 100` slots, long against the queue dynamics but far from
/// the degenerate average-criterion limit.
pub const WHITTLE_DISCOUNT: f64 = 0.99;

/// The Whittle rule as a fabric discipline: per-class birth–death restless
/// projects in the queue length, served highest-index-first.
#[derive(Debug, Clone)]
pub struct WhittleQueueDiscipline {
    max_queue: usize,
    /// `tables[class][queue_len]`, queue lengths clamped at `max_queue`.
    tables: Vec<Vec<f64>>,
}

impl WhittleQueueDiscipline {
    /// Build index tables for the given classes, truncating each class's
    /// queue-length chain at `max_queue` (states `0..=max_queue`).
    pub fn new(classes: &[JobClass], max_queue: usize) -> Self {
        assert!(!classes.is_empty(), "need >= 1 class");
        assert!(max_queue >= 2, "truncation below 2 states is degenerate");
        let clock = classes
            .iter()
            .map(|c| c.arrival_rate + c.service_rate())
            .fold(0.0, f64::max);
        assert!(clock > 0.0, "classes must have positive rates");
        let tables = classes
            .iter()
            .map(|c| {
                let mut table = discounted_whittle_table(
                    c.arrival_rate / clock,
                    c.service_rate() / clock,
                    c.holding_cost,
                    max_queue,
                    WHITTLE_DISCOUNT,
                );
                // The empty state never competes for service: pin it to the
                // bottom so an empty class can never outrank a backed-up one.
                table[0] = f64::NEG_INFINITY;
                table
            })
            .collect();
        Self { max_queue, tables }
    }

    /// The full index table of one class, by queue length `0..=max_queue`.
    pub fn table(&self, class: usize) -> &[f64] {
        &self.tables[class]
    }
}

impl Discipline for WhittleQueueDiscipline {
    fn name(&self) -> &str {
        "whittle"
    }

    fn class_index(&self, class: usize, waiting: usize) -> f64 {
        self.tables[class][waiting.min(self.max_queue)]
    }
}

/// The threshold systems `(I − β P_T) v = r` of one project, where `P_T`
/// is the threshold-`T` policy's transition matrix on states `0..=n`:
/// active states (`s ≥ T`) step down with probability `d`, every state
/// below `n` steps up with probability `a`, and the rest self-loops.  The
/// matrix is strictly diagonally dominant (row sums of `βP` are `β < 1`),
/// so the Thomas elimination is stable and never divides by zero.
///
/// One elimination serves both right-hand sides, the holding cost (giving
/// the discounted cost-to-go `u_T`) and the idle indicator `1{s < T}`
/// (giving the discounted idle time `w_T`): its pivots depend on the
/// matrix alone.  Rows `s < min(T, T')` are the same for thresholds `T`
/// and `T'`, right-hand sides included, so the forward pass keeps the rows
/// of the previous threshold below that and recomputes the rest.  Every
/// value has the bits of a separate solve per right-hand side.
struct ThresholdSolver {
    a: f64,
    d: f64,
    n: usize,
    beta: f64,
    cost: Vec<f64>,
    /// The threshold of the last elimination: rows below the smaller of
    /// it and the next threshold carry over. It starts at 0, so the first
    /// solve eliminates every row.
    eliminated: usize,
    c_star: Vec<f64>,
    u_star: Vec<f64>,
    w_star: Vec<f64>,
}

impl ThresholdSolver {
    fn new(a: f64, d: f64, holding_cost: f64, n: usize, beta: f64) -> Self {
        let k = n + 1;
        Self {
            a,
            d,
            n,
            beta,
            cost: (0..k)
                .map(|s| holding_cost * (s * (s + 1)) as f64 / 2.0)
                .collect(),
            eliminated: 0,
            c_star: vec![0.0; k],
            u_star: vec![0.0; k],
            w_star: vec![0.0; k],
        }
    }

    /// Write threshold `t`'s cost-to-go to `u` and idle-time-to-go to `w`.
    fn solve(&mut self, t: usize, u: &mut [f64], w: &mut [f64]) {
        let (a, d, n, beta) = (self.a, self.d, self.n, self.beta);
        let k = n + 1;
        // Release-mode check: a mis-sized output would leave stale rows.
        assert!(u.len() == k && w.len() == k, "outputs must have n + 1 rows");
        // Forward elimination from the first row that differs.
        for s in self.eliminated.min(t)..k {
            let p_down = if s >= t && s > 0 { d } else { 0.0 };
            let p_up = if s < n { a } else { 0.0 };
            let p_self = 1.0 - p_down - p_up;
            let sub = -beta * p_down; // multiplies v[s-1] in row s
            let sup = -beta * p_up; // multiplies v[s+1] in row s
            let diag = 1.0 - beta * p_self;
            let idle = f64::from(u8::from(s < t));
            if s == 0 {
                self.c_star[0] = sup / diag;
                self.u_star[0] = self.cost[0] / diag;
                self.w_star[0] = idle / diag;
            } else {
                let m = diag - sub * self.c_star[s - 1];
                self.c_star[s] = sup / m;
                self.u_star[s] = (self.cost[s] - sub * self.u_star[s - 1]) / m;
                self.w_star[s] = (idle - sub * self.w_star[s - 1]) / m;
            }
        }
        self.eliminated = t;
        // Back substitution.
        u[k - 1] = self.u_star[k - 1];
        w[k - 1] = self.w_star[k - 1];
        for s in (0..k - 1).rev() {
            u[s] = self.u_star[s] - self.c_star[s] * u[s + 1];
            w[s] = self.w_star[s] - self.c_star[s] * w[s + 1];
        }
    }
}

/// Discounted Whittle indices of the truncated birth–death service-control
/// project (`a` = per-slot arrival probability, `d` = per-slot service
/// probability, holding cost `c · s(s+1)/2` per slot) for states `0..=n`.
/// State 0 gets index 0 — callers that never serve empty classes overwrite
/// it.  The table is ironed to be nondecreasing, a no-op for this convex
/// cost away from floating-point dust.
///
/// Every entry past state 0 is a finite, nondecreasing index: the
/// fair-charge denominator `dw` is checked `> 0` and the entries are
/// checked non-NaN with release-mode asserts, so a degenerate chain can
/// never leak a NaN or an accidental ±∞ into a discipline table.  (The
/// only infinity a table carries is the *deliberate* `-∞` pinned onto the
/// empty state by [`WhittleQueueDiscipline::new`].)
pub fn discounted_whittle_table(
    a: f64,
    d: f64,
    holding_cost: f64,
    n: usize,
    beta: f64,
) -> Vec<f64> {
    assert!(
        a > 0.0 && d > 0.0 && a + d <= 1.0 + 1e-12,
        "need a uniformized chain"
    );
    assert!(holding_cost > 0.0 && (0.0..1.0).contains(&beta));
    let k = n + 1;
    // Discounted cost-to-go / idle-time-to-go of thresholds s and s + 1,
    // for t = 1..=n+1 (t = n+1 never serves).
    let mut solver = ThresholdSolver::new(a, d, holding_cost, n, beta);
    let (mut lower_u, mut lower_w) = (vec![0.0; k], vec![0.0; k]);
    let (mut upper_u, mut upper_w) = (vec![0.0; k], vec![0.0; k]);
    let mut table = vec![0.0];
    let mut running_max = f64::NEG_INFINITY;
    solver.solve(1, &mut lower_u, &mut lower_w);
    for s in 1..=n {
        solver.solve(s + 1, &mut upper_u, &mut upper_w);
        let du = upper_u[s] - lower_u[s];
        let dw = upper_w[s] - lower_w[s];
        assert!(dw > 0.0, "raising the threshold idles state {s} more");
        let index = du / dw;
        assert!(!index.is_nan(), "NaN Whittle index at state {s}");
        running_max = running_max.max(index);
        table.push(running_max);
        std::mem::swap(&mut lower_u, &mut upper_u);
        std::mem::swap(&mut lower_w, &mut upper_w);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_distributions::{dyn_dist, Exponential};

    fn class(id: usize, lambda: f64, mean_service: f64, cost: f64) -> JobClass {
        JobClass::new(
            id,
            lambda,
            dyn_dist(Exponential::with_mean(mean_service)),
            cost,
        )
    }

    /// One right-hand side's Thomas solve of threshold `t`'s system, with
    /// the matrix stored: the reference the shared elimination must match
    /// bit for bit.
    fn solve_threshold_system(
        a: f64,
        d: f64,
        t: usize,
        n: usize,
        beta: f64,
        r: &[f64],
    ) -> Vec<f64> {
        let k = n + 1;
        assert_eq!(r.len(), k, "reward vector length must be n + 1");
        let mut diag = vec![0.0; k];
        let mut sub = vec![0.0; k]; // sub[s] multiplies v[s-1] in row s
        let mut sup = vec![0.0; k]; // sup[s] multiplies v[s+1] in row s
        for s in 0..k {
            let p_down = if s >= t && s > 0 { d } else { 0.0 };
            let p_up = if s < n { a } else { 0.0 };
            let p_self = 1.0 - p_down - p_up;
            sub[s] = -beta * p_down;
            sup[s] = -beta * p_up;
            diag[s] = 1.0 - beta * p_self;
        }
        let mut c_star = vec![0.0; k];
        let mut d_star = vec![0.0; k];
        c_star[0] = sup[0] / diag[0];
        d_star[0] = r[0] / diag[0];
        for s in 1..k {
            let m = diag[s] - sub[s] * c_star[s - 1];
            c_star[s] = sup[s] / m;
            d_star[s] = (r[s] - sub[s] * d_star[s - 1]) / m;
        }
        let mut v = vec![0.0; k];
        v[k - 1] = d_star[k - 1];
        for s in (0..k - 1).rev() {
            v[s] = d_star[s] - c_star[s] * v[s + 1];
        }
        v
    }

    /// The shared elimination returns the bits of one solve per
    /// right-hand side at every threshold of n = 40: in the table's
    /// increasing order, where each elimination resumes on its
    /// predecessor's rows, and in an order that jumps both ways.
    #[test]
    fn shared_elimination_equals_two_single_solves() {
        let (a, d, c, n, beta) = (0.31, 0.52, 1.7, 40, WHITTLE_DISCOUNT);
        let mut solver = ThresholdSolver::new(a, d, c, n, beta);
        let (mut u, mut w) = (vec![0.0; n + 1], vec![0.0; n + 1]);
        let increasing = 0..=n + 1;
        let jumping = (0..=n + 1).rev().chain([7, 30, 2, 2, 41, 0, 19]);
        for t in increasing.chain(jumping) {
            solver.solve(t, &mut u, &mut w);
            let idle: Vec<f64> = (0..=n).map(|s| f64::from(u8::from(s < t))).collect();
            let want_u = solve_threshold_system(a, d, t, n, beta, &solver.cost);
            let want_w = solve_threshold_system(a, d, t, n, beta, &idle);
            for s in 0..=n {
                assert_eq!(
                    u[s].to_bits(),
                    want_u[s].to_bits(),
                    "u, threshold {t}, state {s}"
                );
                assert_eq!(
                    w[s].to_bits(),
                    want_w[s].to_bits(),
                    "w, threshold {t}, state {s}"
                );
            }
        }
    }

    /// Fixed-point policy evaluation (v ← r + βPv) as an oracle for the
    /// Thomas solve.
    fn iterate_threshold_system(
        a: f64,
        d: f64,
        t: usize,
        n: usize,
        beta: f64,
        r: &[f64],
    ) -> Vec<f64> {
        let k = n + 1;
        let mut v = vec![0.0; k];
        for _ in 0..200_000 {
            let mut next = vec![0.0; k];
            let mut delta = 0.0f64;
            for s in 0..k {
                let p_down = if s >= t && s > 0 { d } else { 0.0 };
                let p_up = if s < n { a } else { 0.0 };
                let p_self = 1.0 - p_down - p_up;
                let mut x = r[s] + beta * p_self * v[s];
                if s > 0 {
                    x += beta * p_down * v[s - 1];
                }
                if s < n {
                    x += beta * p_up * v[s + 1];
                }
                next[s] = x;
                delta = delta.max((x - v[s]).abs());
            }
            v = next;
            if delta < 1e-13 {
                break;
            }
        }
        v
    }

    #[test]
    fn thomas_solve_matches_fixed_point_iteration() {
        let (a, d, n, beta) = (0.3, 0.6, 8, 0.97);
        let cost: Vec<f64> = (0..=n).map(|s| (s * (s + 1)) as f64 / 2.0).collect();
        for t in [1, 4, n + 1] {
            let direct = solve_threshold_system(a, d, t, n, beta, &cost);
            let iterated = iterate_threshold_system(a, d, t, n, beta, &cost);
            for s in 0..=n {
                assert!(
                    (direct[s] - iterated[s]).abs() < 1e-8,
                    "threshold {t}, state {s}: {} vs {}",
                    direct[s],
                    iterated[s]
                );
            }
        }
    }

    #[test]
    fn index_increases_with_queue_length() {
        let d = WhittleQueueDiscipline::new(&[class(0, 0.4, 1.0, 1.0)], 25);
        let t = d.table(0);
        // Strictly increasing in the bulk; the last few states may plateau
        // because the truncation clips arrivals there (and the table is
        // ironed), but must never decrease.
        for w in 1..t.len() - 1 {
            let strict = w + 1 < t.len() - 8;
            assert!(
                if strict {
                    t[w + 1] > t[w]
                } else {
                    t[w + 1] >= t[w]
                },
                "whittle index not increasing at queue length {w}: {} then {}",
                t[w],
                t[w + 1]
            );
        }
    }

    #[test]
    fn index_scales_linearly_in_the_holding_cost() {
        let t1 = discounted_whittle_table(0.25, 0.5, 1.0, 10, 0.99);
        let t3 = discounted_whittle_table(0.25, 0.5, 3.0, 10, 0.99);
        for s in 1..=10 {
            assert!(
                (t3[s] - 3.0 * t1[s]).abs() < 1e-9 * t3[s].abs(),
                "state {s}: {} vs 3x{}",
                t3[s],
                t1[s]
            );
        }
    }

    /// Both classes share one `(a, d)` chain, so only the holding cost
    /// separates them.
    #[test]
    fn costlier_class_outranks_cheaper_at_equal_backlog() {
        for (cost, max_queue) in [(4.0, 10), (5.0, 8)] {
            let classes = [class(0, 0.3, 1.0, 1.0), class(1, 0.3, 1.0, cost)];
            let d = WhittleQueueDiscipline::new(&classes, max_queue);
            for w in 1..=6 {
                assert!(
                    d.class_index(1, w) > d.class_index(0, w),
                    "cheap class outranked costly one (cost {cost}) at backlog {w}"
                );
            }
        }
    }

    #[test]
    fn empty_class_never_competes() {
        let d = WhittleQueueDiscipline::new(&[class(0, 0.3, 1.0, 1.0)], 8);
        assert_eq!(d.class_index(0, 0), f64::NEG_INFINITY);
        assert!(d.class_index(0, 1) > d.class_index(0, 0));
    }

    #[test]
    fn queue_lengths_beyond_truncation_clamp() {
        let d = WhittleQueueDiscipline::new(&[class(0, 0.3, 1.0, 1.0)], 6);
        assert_eq!(
            d.class_index(0, 6).to_bits(),
            d.class_index(0, 600).to_bits()
        );
        assert_eq!(d.name(), "whittle");
    }

    /// Saturation-audit pin: at and beyond the truncation boundary the
    /// clamped region returns exactly the boundary index (no garbage read,
    /// no sentinel); the only infinity in a table is the deliberate `-∞`
    /// on the empty state.
    #[test]
    fn tabulated_indices_are_finite_and_sentinel_free() {
        let classes = [class(0, 0.3, 1.0, 1.0), class(1, 0.5, 0.5, 4.0)];
        let d = WhittleQueueDiscipline::new(&classes, 12);
        for (j, _) in classes.iter().enumerate() {
            assert_eq!(d.class_index(j, 0), f64::NEG_INFINITY);
            for w in 1..=12 {
                assert!(
                    d.class_index(j, w).is_finite(),
                    "class {j} backlog {w} leaked a non-finite index"
                );
            }
            let boundary = d.class_index(j, 12).to_bits();
            for w in [13usize, 40, 1_000, usize::MAX] {
                assert_eq!(
                    d.class_index(j, w).to_bits(),
                    boundary,
                    "class {j} backlog {w} did not clamp to the boundary index"
                );
            }
        }
    }
}
