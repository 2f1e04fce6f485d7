//! Markov chains: the stationary distribution of an irreducible chain, by
//! dense Gaussian elimination, which is ample for the instance sizes in
//! this workspace.  The marginal-productivity-index algorithm and
//! [`crate::average::average_reward_of_policy`] evaluate fixed policies
//! with it.

use ss_core::linalg::solve_dense;

/// A finite discrete-time Markov chain given by a dense transition matrix.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    p: Vec<Vec<f64>>,
}

impl MarkovChain {
    /// Create from a row-stochastic matrix (rows must sum to 1 within 1e-8).
    pub fn new(p: Vec<Vec<f64>>) -> Self {
        let n = p.len();
        assert!(n > 0, "chain needs at least one state");
        for (i, row) in p.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "row {i} sums to {s}, expected 1");
            assert!(
                row.iter().all(|&x| x >= -1e-12),
                "negative probability in row {i}"
            );
        }
        Self { p }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.p.len()
    }

    /// Stationary distribution of an irreducible chain, solved from
    /// `pi P = pi`, `sum pi = 1` by replacing one balance equation with the
    /// normalisation constraint.
    pub fn stationary_distribution(&self) -> Vec<f64> {
        let n = self.p.len();
        // Build (P^T - I) with the last row replaced by all-ones = 1.
        let mut a = vec![vec![0.0; n]; n];
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = self.p[j][i] - if i == j { 1.0 } else { 0.0 };
            }
        }
        for j in 0..n {
            a[n - 1][j] = 1.0;
        }
        b[n - 1] = 1.0;
        let pi = solve_dense(a, b);
        pi.into_iter().map(|x| x.max(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_of_two_state_chain() {
        // P = [[0.9, 0.1], [0.5, 0.5]] -> pi = (5/6, 1/6).
        let c = MarkovChain::new(vec![vec![0.9, 0.1], vec![0.5, 0.5]]);
        let pi = c.stationary_distribution();
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-10);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-10);
    }

    #[test]
    fn stationary_of_uniform_cycle() {
        let c = MarkovChain::new(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ]);
        let pi = c.stationary_distribution();
        for &p in &pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-10);
        }
    }
}
