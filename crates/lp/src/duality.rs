//! Standard-form LP duality helpers.
//!
//! For the standard-form primal
//!
//! ```text
//! min c·x   s.t.   A x >= b,  x >= 0
//! ```
//!
//! the dual is
//!
//! ```text
//! max b·y   s.t.   Aᵀ y <= c,  y >= 0
//! ```
//!
//! and strong duality makes the pair an exact cross-check of the solver:
//! whenever both are feasible their optima coincide.  The oracle
//! cross-validation corpus (ss-verify) and the simplex test suite build
//! their primal/dual pairs through these constructors so the transposition
//! convention lives in exactly one place.

use crate::model::{LinearProgram, Relation};

fn validate(a: &[Vec<f64>], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), b.len(), "one RHS entry per constraint row");
    assert!(!c.is_empty(), "need at least one variable");
    for row in a {
        assert_eq!(row.len(), c.len(), "row arity must match the objective");
    }
}

/// The standard-form primal `min c·x  s.t.  A x >= b, x >= 0`.
pub fn standard_primal(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> LinearProgram {
    validate(a, b, c);
    let mut primal = LinearProgram::minimize(c.to_vec());
    for (row, &rhs) in a.iter().zip(b) {
        primal.add_constraint(row.clone(), Relation::Ge, rhs);
    }
    primal
}

/// The dual of [`standard_primal`]: `max b·y  s.t.  Aᵀ y <= c, y >= 0`.
pub fn standard_dual(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> LinearProgram {
    validate(a, b, c);
    let mut dual = LinearProgram::maximize(b.to_vec());
    for (j, &cj) in c.iter().enumerate() {
        let col: Vec<f64> = a.iter().map(|row| row[j]).collect();
        dual.add_constraint(col, Relation::Le, cj);
    }
    dual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diet_problem_pair_is_tight() {
        let a = vec![vec![60.0, 60.0], vec![12.0, 6.0], vec![10.0, 30.0]];
        let b = vec![300.0, 36.0, 90.0];
        let c = vec![0.12, 0.15];
        let p = standard_primal(&a, &b, &c).solve().unwrap();
        let d = standard_dual(&a, &b, &c).solve().unwrap();
        assert!((p.objective - 0.66).abs() < 1e-8);
        assert!((p.objective - d.objective).abs() < 1e-7);
    }

    #[test]
    fn dual_has_one_variable_per_primal_row() {
        let a = vec![vec![1.0, 2.0, 3.0]];
        let b = vec![1.0];
        let c = vec![1.0, 1.0, 1.0];
        assert_eq!(standard_dual(&a, &b, &c).num_vars(), 1);
        assert_eq!(standard_dual(&a, &b, &c).constraints.len(), 3);
        assert_eq!(standard_primal(&a, &b, &c).num_vars(), 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_arity_is_rejected() {
        let _ = standard_primal(&[vec![1.0]], &[1.0, 2.0], &[1.0]);
    }
}
