//! The adaptive-greedy index algorithm of the conservation-law /
//! (extended) polymatroid framework (Klimov 1974, Bertsimas–Niño-Mora 1996).
//!
//! The survey's unifying observation is that the good policies across all
//! three model families are **priority-index rules**, and that for a large
//! class of models the indices can be produced by one algorithm: at each
//! step, among the classes not yet assigned a priority, pick the one with
//! the largest *marginal productivity rate* with respect to the set of
//! classes already assigned.  The marginal rate of a candidate class `j`
//! against a continuation set `S ∋ j` is
//!
//! ```text
//!            c_j − E_j(S)
//! ν_j(S)  =  ------------
//!               T_j(S)
//! ```
//!
//! where `T_j(S)` is the expected amount of *work* a class-`j` job keeps
//! the server occupied with classes inside `S` (its sub-busy period
//! restricted to `S`), and `E_j(S)` is the expected cost rate of the first
//! class it turns into *outside* `S` (zero if it leaves the system).  The
//! algorithm assigns priorities from the top down; the produced indices
//! solve the performance-region linear program whenever the model satisfies
//! generalised conservation laws.
//!
//! Instantiations used elsewhere in the workspace:
//!
//! | Model | `T_j(S)` | `E_j(S)` | Recovered rule |
//! |---|---|---|---|
//! | Multiclass M/G/1, no feedback | `E[S_j]` | `0` | cµ-rule |
//! | Klimov network (Bernoulli feedback) | restricted busy period from the routing matrix | cost rate at first exit from `S` | Klimov's indices |
//! | Branching bandits (Weiss 1988) | restricted busy period from the expected-offspring matrix | cost rate of first offspring outside `S` | branching-bandit index |
//!
//! All three differ only in the matrix of jobs a served job turns into, so
//! one [`TransferWorkMeasure`] serves them; the algorithm itself takes any
//! [`WorkMeasure`].

use crate::index::argsort_decreasing;
use crate::linalg::solve_dense;

/// Work/exit-cost oracle of one scheduling model, evaluated against a
/// continuation set of classes.
///
/// `continuation[k]` is `true` when class `k` belongs to the continuation
/// set `S`; implementations may assume the candidate class itself is always
/// a member of `S`.
pub trait WorkMeasure {
    /// Number of job classes in the model.
    fn num_classes(&self) -> usize;

    /// Expected work `T_j(S) > 0`: the time a class-`j` job keeps the
    /// server busy with classes inside `S` (including its own service).
    fn work(&self, class: usize, continuation: &[bool]) -> f64;

    /// Expected exit cost rate `E_j(S) >= 0`: the holding-cost rate of the
    /// first class the job turns into outside `S` (zero when it leaves the
    /// system instead).
    fn exit_cost(&self, class: usize, continuation: &[bool]) -> f64;
}

/// Output of [`adaptive_greedy`].
#[derive(Debug, Clone)]
pub struct AdaptiveGreedyResult {
    /// Priority index per class (higher = served earlier).
    pub indices: Vec<f64>,
    /// Classes sorted by decreasing index (ties broken by class id), i.e.
    /// the priority order the indices induce.
    pub order: Vec<usize>,
    /// The sequence of marginal rates in the order the algorithm assigned
    /// them (non-increasing exactly when the model satisfies the
    /// conservation-law structure on the nested sets the run visited).
    pub assignment_rates: Vec<f64>,
}

impl AdaptiveGreedyResult {
    /// Whether the marginal rates were non-increasing along the run — the
    /// numerical footprint of the generalised-conservation-law structure.
    pub fn rates_non_increasing(&self, tolerance: f64) -> bool {
        self.assignment_rates
            .windows(2)
            .all(|w| w[1] <= w[0] + tolerance)
    }
}

/// Run the adaptive-greedy index algorithm for the model described by
/// `oracle` with holding-cost rates `costs`.
///
/// # Panics
///
/// Panics if `costs.len()` differs from `oracle.num_classes()`, if any cost
/// is negative/non-finite, or if the oracle reports a non-positive work
/// measure (which would make the marginal rate meaningless).
pub fn adaptive_greedy(costs: &[f64], oracle: &dyn WorkMeasure) -> AdaptiveGreedyResult {
    let n = oracle.num_classes();
    assert_eq!(
        costs.len(),
        n,
        "cost vector length must match the number of classes"
    );
    assert!(n > 0, "need at least one class");
    assert!(
        costs.iter().all(|c| c.is_finite() && *c >= 0.0),
        "holding costs must be finite and nonnegative"
    );

    let mut indices = vec![f64::NAN; n];
    let mut assigned = vec![false; n];
    let mut assignment_rates = Vec::with_capacity(n);

    for _step in 0..n {
        let mut best_class = usize::MAX;
        let mut best_rate = f64::NEG_INFINITY;
        for j in 0..n {
            if assigned[j] {
                continue;
            }
            // Continuation set: everything already assigned plus the candidate.
            let mut continuation = assigned.clone();
            continuation[j] = true;
            let work = oracle.work(j, &continuation);
            assert!(
                work.is_finite() && work > 0.0,
                "work measure of class {j} must be positive, got {work}"
            );
            let exit = oracle.exit_cost(j, &continuation);
            assert!(
                exit.is_finite(),
                "exit cost of class {j} must be finite, got {exit}"
            );
            let rate = (costs[j] - exit) / work;
            if rate > best_rate {
                best_rate = rate;
                best_class = j;
            }
        }
        indices[best_class] = best_rate;
        assigned[best_class] = true;
        assignment_rates.push(best_rate);
    }

    let order = argsort_decreasing(&indices);
    AdaptiveGreedyResult {
        indices,
        order,
        assignment_rates,
    }
}

/// The restricted-busy-period work measure of the cµ, Klimov and
/// branching-bandit models.
///
/// Serving a class-`i` job occupies the server for `mean_work[i]` in
/// expectation and then turns it into `transfer[i][k]` class-`k` jobs in
/// expectation: zero for isolated jobs (the cµ-rule), routing
/// probabilities for a Klimov network, expected offspring for a branching
/// bandit.  Against a continuation set `S`, both `T_i(S)` and `E_i(S)`
/// solve `v_i = r_i + Σ_{k∈S} transfer[i][k] v_k` over `i ∈ S`, with
/// `r_i = mean_work[i]` for the work and
/// `r_i = Σ_{k∉S} transfer[i][k] costs[k]` for the exit cost.
#[derive(Debug, Clone)]
pub struct TransferWorkMeasure {
    mean_work: Vec<f64>,
    transfer: Vec<Vec<f64>>,
    costs: Vec<f64>,
}

impl TransferWorkMeasure {
    /// Create the measure from the mean service time per class, the
    /// expected number `transfer[i][k]` of class-`k` jobs a served class-`i`
    /// job becomes, and the holding-cost rate per class.
    ///
    /// # Panics
    ///
    /// Panics unless `transfer` is square and `costs` has one entry per
    /// class.
    pub fn new(mean_work: Vec<f64>, transfer: Vec<Vec<f64>>, costs: Vec<f64>) -> Self {
        let n = mean_work.len();
        assert!(
            transfer.len() == n && transfer.iter().all(|row| row.len() == n),
            "transfer matrix must be {n} x {n}"
        );
        assert_eq!(costs.len(), n, "need one holding cost per class");
        Self {
            mean_work,
            transfer,
            costs,
        }
    }

    /// Jobs that leave after one service, so the adaptive greedy reduces
    /// to the cµ-rule.
    pub fn isolated(mean_work: Vec<f64>) -> Self {
        let n = mean_work.len();
        Self::new(mean_work, vec![vec![0.0; n]; n], vec![0.0; n])
    }

    /// Component `class` of the solution of `v_i = r(i) + Σ_{k∈S}
    /// transfer[i][k] v_k` over the members `i` of `S = continuation`.
    fn restricted(&self, class: usize, continuation: &[bool], r: impl Fn(usize) -> f64) -> f64 {
        assert!(
            continuation[class],
            "candidate must belong to its continuation set"
        );
        let members: Vec<usize> = (0..self.num_classes())
            .filter(|&k| continuation[k])
            .collect();
        let m = members.len();
        let mut a = vec![vec![0.0; m]; m];
        let mut b = vec![0.0; m];
        for (row, &i) in members.iter().enumerate() {
            a[row][row] = 1.0;
            for (col, &k) in members.iter().enumerate() {
                a[row][col] -= self.transfer[i][k];
            }
            b[row] = r(i);
        }
        let pos = members.iter().position(|&i| i == class);
        solve_dense(a, b)[pos.expect("the candidate is a member, asserted above")]
    }
}

impl WorkMeasure for TransferWorkMeasure {
    fn num_classes(&self) -> usize {
        self.mean_work.len()
    }

    fn work(&self, class: usize, continuation: &[bool]) -> f64 {
        self.restricted(class, continuation, |i| self.mean_work[i])
    }

    fn exit_cost(&self, class: usize, continuation: &[bool]) -> f64 {
        self.restricted(class, continuation, |i| {
            (0..self.num_classes())
                .filter(|&k| !continuation[k])
                .map(|k| self.transfer[i][k] * self.costs[k])
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_jobs_recover_the_cmu_rule() {
        // Three classes with mean services 1.0, 0.5, 2.0 and costs 1, 3, 2:
        // cµ indices 1, 6, 1 -> order [1, 0-or-2, ...] with ties by id.
        let oracle = TransferWorkMeasure::isolated(vec![1.0, 0.5, 2.0]);
        let result = adaptive_greedy(&[1.0, 3.0, 2.0], &oracle);
        assert!((result.indices[0] - 1.0).abs() < 1e-12);
        assert!((result.indices[1] - 6.0).abs() < 1e-12);
        assert!((result.indices[2] - 1.0).abs() < 1e-12);
        assert_eq!(result.order[0], 1);
        assert!(result.rates_non_increasing(1e-12));
    }

    #[test]
    fn single_class_index_is_cost_over_work() {
        let oracle = TransferWorkMeasure::isolated(vec![0.25]);
        let result = adaptive_greedy(&[2.0], &oracle);
        assert!((result.indices[0] - 8.0).abs() < 1e-12);
        assert_eq!(result.order, vec![0]);
        assert_eq!(result.assignment_rates.len(), 1);
    }

    #[test]
    fn zero_cost_classes_sink_to_the_bottom() {
        let oracle = TransferWorkMeasure::isolated(vec![1.0, 1.0, 1.0]);
        let result = adaptive_greedy(&[0.0, 5.0, 1.0], &oracle);
        assert_eq!(result.order, vec![1, 2, 0]);
        assert!((result.indices[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn cost_length_mismatch_panics() {
        let oracle = TransferWorkMeasure::isolated(vec![1.0, 2.0]);
        let _ = adaptive_greedy(&[1.0], &oracle);
    }

    #[test]
    #[should_panic]
    fn negative_costs_are_rejected() {
        let oracle = TransferWorkMeasure::isolated(vec![1.0]);
        let _ = adaptive_greedy(&[-1.0], &oracle);
    }

    #[test]
    #[should_panic(expected = "transfer matrix must be 2 x 2")]
    fn ragged_transfer_matrices_are_rejected() {
        let _ =
            TransferWorkMeasure::new(vec![1.0, 2.0], vec![vec![0.0; 2], vec![0.0]], vec![0.0; 2]);
    }

    /// A contrived oracle whose work measure shrinks as the continuation
    /// set grows; the marginal rates then need not be monotone, and the
    /// diagnostic should say so.
    struct ShrinkingWork;

    impl WorkMeasure for ShrinkingWork {
        fn num_classes(&self) -> usize {
            2
        }

        fn work(&self, class: usize, continuation: &[bool]) -> f64 {
            let size = continuation.iter().filter(|&&b| b).count();
            if class == 0 {
                1.0
            } else {
                // Class 1 looks very expensive alone but cheap once class 0
                // is in the continuation set.
                if size == 1 {
                    10.0
                } else {
                    0.1
                }
            }
        }

        fn exit_cost(&self, _class: usize, _continuation: &[bool]) -> f64 {
            0.0
        }
    }

    #[test]
    fn non_conservation_law_models_are_flagged_by_the_diagnostic() {
        let result = adaptive_greedy(&[1.0, 1.0], &ShrinkingWork);
        // Class 0 has rate 1 alone; class 1 has rate 0.1 alone, but once
        // class 0 is assigned the rate of class 1 jumps to 10: the
        // assignment-rate sequence increases, so the diagnostic must fail.
        assert!((result.assignment_rates[0] - 1.0).abs() < 1e-12);
        assert!((result.assignment_rates[1] - 10.0).abs() < 1e-12);
        assert!(!result.rates_non_increasing(1e-9));
    }

    /// Two classes whose rates tie alone; once the other class is in the
    /// continuation set, class 1's work halves and class 0's quarters. So
    /// the class picked first at the tie decides both indices.
    struct TiedWork;

    impl WorkMeasure for TiedWork {
        fn num_classes(&self) -> usize {
            2
        }

        fn work(&self, class: usize, continuation: &[bool]) -> f64 {
            match (class, continuation.iter().filter(|&&b| b).count()) {
                (_, 1) => 1.0,
                (0, _) => 0.25,
                _ => 0.5,
            }
        }

        fn exit_cost(&self, _class: usize, _continuation: &[bool]) -> f64 {
            0.0
        }
    }

    /// A tie goes to the lowest class: class 0 takes the first rate, 1, and
    /// class 1 then rates 1 / 0.5. Picking class 1 first would give the
    /// indices `[4, 1]` and the order `[0, 1]`.
    #[test]
    fn a_tie_goes_to_the_lowest_class() {
        let result = adaptive_greedy(&[1.0, 1.0], &TiedWork);
        assert_eq!(result.indices, vec![1.0, 2.0]);
        assert_eq!(result.assignment_rates, vec![1.0, 2.0]);
        assert_eq!(result.order, vec![1, 0]);
    }
}
