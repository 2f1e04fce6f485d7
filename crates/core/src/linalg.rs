//! Small dense linear algebra shared across the workspace.
//!
//! The index algorithms (`ss-bandits::gittins`, the adaptive greedy's
//! work measure, `ss-queueing::klimov`), the traffic-equation solvers, the
//! exact joint-chain analyses and `ss-mdp`'s policy evaluation all need the
//! same primitive: solve a small dense system by Gaussian elimination with
//! partial pivoting.  One shared copy means a pivoting or tolerance fix
//! lands everywhere at once.

/// Solve the dense linear system `A x = b` by Gaussian elimination with
/// partial pivoting; panics on (numerically) singular systems.  Intended
/// for the workspace's small systems (at most a few hundred unknowns).
pub fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        assert!(a[piv][col].abs() > 1e-12, "singular linear system");
        a.swap(col, piv);
        b.swap(col, piv);
        for r in col + 1..n {
            let f = a[r][col] / a[col][col];
            if f != 0.0 {
                for c in col..n {
                    a[r][c] -= f * a[col][c];
                }
                b[r] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            acc -= a[r][c] * x[c];
        }
        x[r] = acc / a[r][r];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_small_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1, 3].
        let x = solve_dense(vec![vec![2.0, 1.0], vec![1.0, 3.0]], vec![5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_a_zero_leading_entry() {
        // [0 1; 1 0] x = [2; 7] -> x = [7, 2].
        let x = solve_dense(vec![vec![0.0, 1.0], vec![1.0, 0.0]], vec![2.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_singular_systems() {
        let _ = solve_dense(vec![vec![1.0, 2.0], vec![2.0, 4.0]], vec![1.0, 2.0]);
    }
}
