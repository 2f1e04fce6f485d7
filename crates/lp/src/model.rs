//! LP model builder.

use crate::simplex;
use crate::solution::{LpError, LpSolution};

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a · x <= b`
    Le,
    /// `a · x = b`
    Eq,
    /// `a · x >= b`
    Ge,
}

/// A single linear constraint `coeffs · x  rel  rhs`.
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub coeffs: Vec<f64>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program `min c · x  s.t.  A x {<=,=,>=} b,  x >= 0`.
///
/// All variables are nonnegative; maximisation problems are expressed by
/// negating the objective (see [`LinearProgram::maximize`]).
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) maximize: bool,
}

impl LinearProgram {
    /// A minimisation problem with the given objective coefficients.
    pub fn minimize(objective: Vec<f64>) -> Self {
        assert!(
            !objective.is_empty(),
            "objective must have at least one variable"
        );
        Self {
            objective,
            constraints: Vec::new(),
            maximize: false,
        }
    }

    /// A maximisation problem with the given objective coefficients.
    ///
    /// Internally solved as `min -c·x`; the reported objective value is
    /// converted back to the maximisation value.
    pub fn maximize(objective: Vec<f64>) -> Self {
        assert!(
            !objective.is_empty(),
            "objective must have at least one variable"
        );
        Self {
            objective,
            constraints: Vec::new(),
            maximize: true,
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Add the constraint `coeffs · x  rel  rhs`.
    ///
    /// `coeffs` must have exactly [`LinearProgram::num_vars`] entries.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint arity must match the number of variables"
        );
        assert!(
            coeffs.iter().all(|c| c.is_finite()) && rhs.is_finite(),
            "coefficients must be finite"
        );
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        self
    }

    /// Solve with the two-phase simplex method.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let mut sol = simplex::solve(self)?;
        if self.maximize {
            sol.objective = -sol.objective;
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0, 3.0]);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Eq, 1.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0], Relation::Le, 0.5);
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.constraints.len(), 2);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0);
    }

    #[test]
    fn maximize_flips_sign() {
        // max 2x s.t. x <= 3  -> x = 3, objective 6
        let mut lp = LinearProgram::maximize(vec![2.0]);
        lp.add_constraint(vec![1.0], Relation::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-9);
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
    }
}
