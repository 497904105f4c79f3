//! An exact-rational simplex solver for small linear programs.
//!
//! This is the stand-in for PIP in the original tool. The linear programs IOLB
//! solves are tiny (one variable per DFG-path, a handful of constraints from
//! the subgroup lattice), so a dense two-phase simplex over exact rationals is
//! both fast and free of numerical issues. Bland's rule is used to guarantee
//! termination.

use crate::matrix::Matrix;
use crate::rational::Rational;
use std::fmt;

/// Sense of a linear constraint `a·x (op) b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// A single linear constraint `coeffs · x (op) rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearConstraint {
    /// Coefficients of the decision variables.
    pub coeffs: Vec<Rational>,
    /// Constraint sense.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: Rational,
}

impl LinearConstraint {
    /// Builds a `≤` constraint.
    pub fn le(coeffs: Vec<Rational>, rhs: Rational) -> Self {
        LinearConstraint {
            coeffs,
            op: ConstraintOp::Le,
            rhs,
        }
    }

    /// Builds a `≥` constraint.
    pub fn ge(coeffs: Vec<Rational>, rhs: Rational) -> Self {
        LinearConstraint {
            coeffs,
            op: ConstraintOp::Ge,
            rhs,
        }
    }

    /// Builds an `=` constraint.
    pub fn eq(coeffs: Vec<Rational>, rhs: Rational) -> Self {
        LinearConstraint {
            coeffs,
            op: ConstraintOp::Eq,
            rhs,
        }
    }
}

/// Outcome of a linear program.
#[derive(Clone, Debug, PartialEq)]
pub enum LpResult {
    /// An optimal solution was found: the optimal objective value and a point
    /// attaining it.
    Optimal {
        /// Optimal objective value.
        value: Rational,
        /// A point attaining the optimum.
        point: Vec<Rational>,
    },
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpResult {
    /// Returns the optimal point, if any.
    pub fn point(&self) -> Option<&[Rational]> {
        match self {
            LpResult::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// Returns the optimal value, if any.
    pub fn value(&self) -> Option<Rational> {
        match self {
            LpResult::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

impl fmt::Display for LpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpResult::Optimal { value, .. } => write!(f, "optimal({})", value),
            LpResult::Infeasible => write!(f, "infeasible"),
            LpResult::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A linear program over non-negative decision variables.
///
/// Variables are implicitly constrained to `x ≥ 0`, which matches every use in
/// IOLB (the Brascamp–Lieb exponents `s_j` are non-negative).
///
/// # Examples
///
/// ```
/// use iolb_math::{LinearProgram, LinearConstraint, Rational};
/// // minimize s1 + s2  s.t.  s1 >= 1, s2 >= 1
/// let mut lp = LinearProgram::minimize(vec![Rational::ONE, Rational::ONE]);
/// lp.add_constraint(LinearConstraint::ge(vec![Rational::ONE, Rational::ZERO], Rational::ONE));
/// lp.add_constraint(LinearConstraint::ge(vec![Rational::ZERO, Rational::ONE], Rational::ONE));
/// let sol = lp.solve();
/// assert_eq!(sol.value(), Some(Rational::from_int(2)));
/// ```
#[derive(Clone, Debug)]
pub struct LinearProgram {
    objective: Vec<Rational>,
    minimize: bool,
    constraints: Vec<LinearConstraint>,
}

impl LinearProgram {
    /// Creates a minimization problem with the given objective coefficients.
    pub fn minimize(objective: Vec<Rational>) -> Self {
        LinearProgram {
            objective,
            minimize: true,
            constraints: Vec::new(),
        }
    }

    /// Creates a maximization problem with the given objective coefficients.
    pub fn maximize(objective: Vec<Rational>) -> Self {
        LinearProgram {
            objective,
            minimize: false,
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient vector length differs from the number of
    /// variables.
    pub fn add_constraint(&mut self, c: LinearConstraint) -> &mut Self {
        assert_eq!(c.coeffs.len(), self.num_vars(), "constraint arity mismatch");
        self.constraints.push(c);
        self
    }

    /// Solves the linear program with a two-phase exact simplex.
    pub fn solve(&self) -> LpResult {
        // Convert to standard form: maximize c·x subject to A·x = b, x >= 0.
        // Each <= gets a slack, each >= gets a surplus; artificial variables
        // are added for phase 1 where needed.
        let n = self.num_vars();
        let m = self.constraints.len();

        // Count slack variables.
        let mut num_slack = 0;
        for c in &self.constraints {
            if c.op != ConstraintOp::Eq {
                num_slack += 1;
            }
        }
        let total_structural = n + num_slack;

        // Build A (m x total_structural) and b, ensuring b >= 0.
        let mut a = Matrix::zeros(m, total_structural);
        let mut b = vec![Rational::ZERO; m];
        let mut slack_idx = 0;
        for (i, c) in self.constraints.iter().enumerate() {
            let mut row: Vec<Rational> = c.coeffs.clone();
            row.resize(total_structural, Rational::ZERO);
            let mut rhs = c.rhs;
            match c.op {
                ConstraintOp::Le => {
                    row[n + slack_idx] = Rational::ONE;
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    row[n + slack_idx] = -Rational::ONE;
                    slack_idx += 1;
                }
                ConstraintOp::Eq => {}
            }
            if rhs.is_negative() {
                for x in row.iter_mut() {
                    *x = -*x;
                }
                rhs = -rhs;
            }
            for (j, v) in row.into_iter().enumerate() {
                a[(i, j)] = v;
            }
            b[i] = rhs;
        }

        // Phase 1: add artificial variables and minimize their sum.
        let total = total_structural + m;
        let mut tableau = Matrix::zeros(m + 1, total + 1);
        for i in 0..m {
            for j in 0..total_structural {
                tableau[(i, j)] = a[(i, j)];
            }
            tableau[(i, total_structural + i)] = Rational::ONE;
            tableau[(i, total)] = b[i];
        }
        // Phase-1 objective row: minimize sum of artificials == maximize -sum.
        let mut basis: Vec<usize> = (total_structural..total).collect();
        for j in 0..total {
            let mut s = Rational::ZERO;
            for i in 0..m {
                if j < total_structural {
                    s += tableau[(i, j)];
                }
            }
            // Reduced cost for phase 1 (objective = sum of artificial = sum of rows).
            tableau[(m, j)] = if j < total_structural {
                -s
            } else {
                Rational::ZERO
            };
        }
        let rhs_sum: Rational = (0..m).map(|i| tableau[(i, total)]).sum();
        tableau[(m, total)] = -rhs_sum;

        if !Self::run_simplex(&mut tableau, &mut basis, m, total) {
            // Phase 1 is always bounded; unbounded here cannot happen.
            return LpResult::Infeasible;
        }
        if !tableau[(m, total)].is_zero() {
            return LpResult::Infeasible;
        }

        // Drive artificial variables out of the basis where possible.
        for i in 0..m {
            if basis[i] >= total_structural {
                let mut pivot_col = None;
                for j in 0..total_structural {
                    if !tableau[(i, j)].is_zero() {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(j) = pivot_col {
                    Self::pivot(&mut tableau, i, j, m, total);
                    basis[i] = j;
                }
            }
        }

        // Phase 2: rebuild the objective row for the real objective.
        // Work with maximization internally.
        let obj_sign = if self.minimize {
            -Rational::ONE
        } else {
            Rational::ONE
        };
        for j in 0..=total {
            tableau[(m, j)] = Rational::ZERO;
        }
        for j in 0..n {
            tableau[(m, j)] = -(obj_sign * self.objective[j]);
        }
        // Make the objective row consistent with the current basis.
        for i in 0..m {
            let bj = basis[i];
            if !tableau[(m, bj)].is_zero() {
                let f = tableau[(m, bj)];
                for j in 0..=total {
                    let sub = f * tableau[(i, j)];
                    tableau[(m, j)] -= sub;
                }
            }
        }
        // Forbid artificial columns from re-entering: mark with very positive
        // reduced cost by zeroing them (they are non-basic and will never have
        // a negative reduced cost if we just skip them in pivot selection).
        if !Self::run_simplex_restricted(&mut tableau, &mut basis, m, total, total_structural) {
            return LpResult::Unbounded;
        }

        let mut point = vec![Rational::ZERO; n];
        for i in 0..m {
            if basis[i] < n {
                point[basis[i]] = tableau[(i, total)];
            }
        }
        let max_value = tableau[(m, total)];
        let value = if self.minimize { -max_value } else { max_value };
        LpResult::Optimal { value, point }
    }

    /// Runs simplex iterations allowing all columns. Returns false if unbounded.
    fn run_simplex(tableau: &mut Matrix, basis: &mut [usize], m: usize, total: usize) -> bool {
        Self::run_simplex_restricted(tableau, basis, m, total, total)
    }

    /// Runs simplex iterations considering only the first `allowed` columns as
    /// entering candidates (used to exclude artificial variables in phase 2).
    /// Uses Bland's rule. Returns false if the problem is unbounded.
    fn run_simplex_restricted(
        tableau: &mut Matrix,
        basis: &mut [usize],
        m: usize,
        total: usize,
        allowed: usize,
    ) -> bool {
        // Bland's rule provably never revisits a basis, so iterations are
        // finite; this generous cap (far above any pivot count a non-cycling
        // run of these tableau sizes can reach) turns a cycling regression
        // into a loud assertion instead of a hung engine.
        let pivot_cap = 1024 + 16 * (m + 1) * (total + 1);
        let mut pivots = 0usize;
        loop {
            // Bland's rule: smallest index with negative reduced cost.
            let mut entering = None;
            for j in 0..allowed {
                if tableau[(m, j)].is_negative() {
                    entering = Some(j);
                    break;
                }
            }
            let Some(e) = entering else {
                return true;
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = Rational::ZERO;
            for i in 0..m {
                if tableau[(i, e)].is_positive() {
                    let ratio = tableau[(i, total)] / tableau[(i, e)];
                    let better = match leaving {
                        None => true,
                        Some(l) => {
                            ratio < best_ratio || (ratio == best_ratio && basis[i] < basis[l])
                        }
                    };
                    if better {
                        leaving = Some(i);
                        best_ratio = ratio;
                    }
                }
            }
            let Some(l) = leaving else {
                return false;
            };
            pivots += 1;
            assert!(
                pivots <= pivot_cap,
                "simplex exceeded {pivot_cap} pivots on a {m}x{total} tableau; \
                 Bland's rule should make cycling impossible"
            );
            Self::pivot(tableau, l, e, m, total);
            basis[l] = e;
        }
    }

    fn pivot(tableau: &mut Matrix, row: usize, col: usize, m: usize, total: usize) {
        let inv = tableau[(row, col)].recip();
        for j in 0..=total {
            tableau[(row, j)] *= inv;
        }
        for i in 0..=m {
            if i != row && !tableau[(i, col)].is_zero() {
                let f = tableau[(i, col)];
                for j in 0..=total {
                    let sub = f * tableau[(row, j)];
                    tableau[(i, j)] -= sub;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn r(n: i128) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn minimize_sum_with_lower_bounds() {
        // The Example-1 LP from the paper: minimize s1+s2 s.t. s1>=1, s2>=1.
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(1), r(0)], r(1)));
        lp.add_constraint(LinearConstraint::ge(vec![r(0), r(1)], r(1)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(r(2)));
        assert_eq!(sol.point().unwrap(), &[r(1), r(1)]);
    }

    #[test]
    fn matmul_exponent_lp() {
        // Orthogonal projections along 3 basis vectors:
        // minimize s1+s2+s3 s.t. s2+s3>=1, s1+s3>=1, s1+s2>=1.
        let mut lp = LinearProgram::minimize(vec![r(1), r(1), r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(0), r(1), r(1)], r(1)));
        lp.add_constraint(LinearConstraint::ge(vec![r(1), r(0), r(1)], r(1)));
        lp.add_constraint(LinearConstraint::ge(vec![r(1), r(1), r(0)], r(1)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(rat(3, 2)));
    }

    #[test]
    fn maximization_with_upper_bounds() {
        // maximize x + y s.t. x + 2y <= 4, 3x + y <= 6 -> optimum at (8/5, 6/5).
        let mut lp = LinearProgram::maximize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::le(vec![r(1), r(2)], r(4)));
        lp.add_constraint(LinearConstraint::le(vec![r(3), r(1)], r(6)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(rat(14, 5)));
    }

    #[test]
    fn infeasible_program() {
        let mut lp = LinearProgram::minimize(vec![r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(1)], r(5)));
        lp.add_constraint(LinearConstraint::le(vec![r(1)], r(2)));
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn unbounded_program() {
        let mut lp = LinearProgram::maximize(vec![r(1), r(0)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(1), r(0)], r(1)));
        assert_eq!(lp.solve(), LpResult::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + y = 3, x - y = 1 -> (2, 1), value 3.
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::eq(vec![r(1), r(1)], r(3)));
        lp.add_constraint(LinearConstraint::eq(vec![r(1), r(-1)], r(1)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(r(3)));
        assert_eq!(sol.point().unwrap(), &[r(2), r(1)]);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A degenerate LP with redundant constraints; Bland's rule must still
        // terminate.
        let mut lp = LinearProgram::maximize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::le(vec![r(1), r(0)], r(1)));
        lp.add_constraint(LinearConstraint::le(vec![r(1), r(0)], r(1)));
        lp.add_constraint(LinearConstraint::le(vec![r(0), r(1)], r(1)));
        lp.add_constraint(LinearConstraint::le(vec![r(1), r(1)], r(2)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(r(2)));
    }

    #[test]
    fn negative_rhs_handled() {
        // x >= -2 is trivially satisfied for x >= 0; minimize x gives 0.
        let mut lp = LinearProgram::minimize(vec![r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(1)], r(-2)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(r(0)));
    }

    #[test]
    fn beales_cycling_example_terminates_under_pivot_cap() {
        // Beale's classic degenerate LP cycles forever under Dantzig's rule;
        // Bland's rule must terminate under the anti-cycling cap (the solver
        // asserts the cap, so a cycling regression panics here).
        let mut lp = LinearProgram::maximize(vec![rat(3, 4), r(-150), rat(1, 50), r(-6)]);
        lp.add_constraint(LinearConstraint::le(
            vec![rat(1, 4), r(-60), rat(-1, 25), r(9)],
            r(0),
        ));
        lp.add_constraint(LinearConstraint::le(
            vec![rat(1, 2), r(-90), rat(-1, 50), r(3)],
            r(0),
        ));
        lp.add_constraint(LinearConstraint::le(vec![r(0), r(0), r(1), r(0)], r(1)));
        assert_eq!(lp.solve().value(), Some(rat(1, 20)));
    }

    #[test]
    fn restricted_phase_one_infeasible_equalities() {
        // Infeasibility only detectable through phase 1 on equalities: the
        // artificial variables cannot all be driven to zero.
        let mut lp = LinearProgram::minimize(vec![r(0), r(0)]);
        lp.add_constraint(LinearConstraint::eq(vec![r(1), r(1)], r(2)));
        lp.add_constraint(LinearConstraint::eq(vec![r(1), r(1)], r(3)));
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn overflow_adjacent_coefficients_solve_exactly() {
        // Coefficients near 2^60 — the polyhedral engine's COEFF_CAP — must be
        // handled exactly, with no silent wrap-around in the pivot arithmetic.
        let big = 1i128 << 60;
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(big), r(0)], r(big)));
        lp.add_constraint(LinearConstraint::ge(vec![r(0), r(big)], r(2 * big)));
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(r(3)));
        assert_eq!(sol.point().unwrap(), &[r(1), r(2)]);
    }

    #[test]
    fn genuine_overflow_is_reported_not_wrapped() {
        use crate::rational::RationalOverflow;
        // Products of coefficients this large cannot be represented in i128;
        // the checked rational layer must surface RationalOverflow instead of
        // silently wrapping into a wrong (but "optimal"-looking) verdict.
        let huge = i128::MAX / 2;
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_constraint(LinearConstraint::ge(vec![r(huge), rat(1, huge)], r(1)));
        lp.add_constraint(LinearConstraint::ge(vec![rat(1, huge), r(huge)], r(huge)));
        lp.add_constraint(LinearConstraint::le(vec![r(huge - 1), r(3)], r(huge)));
        let outcome = RationalOverflow::catch(|| lp.solve());
        // Either the solver navigates the tableau without overflowing (fine)
        // or it reports the overflow — wrapping is the only wrong answer, and
        // the checked ops make it impossible.
        if let Ok(sol) = outcome {
            assert!(matches!(
                sol,
                LpResult::Optimal { .. } | LpResult::Infeasible | LpResult::Unbounded
            ));
        }
    }

    #[test]
    fn jacobi_like_lp_with_many_paths() {
        // 4 paths in a 2-D space where each pair of kernels covers the space:
        // constraints sum_{j != i} s_j >= 1 for 4 vars -> optimum 4/3.
        let mut lp = LinearProgram::minimize(vec![r(1); 4]);
        for i in 0..4 {
            let mut c = vec![r(1); 4];
            c[i] = r(0);
            lp.add_constraint(LinearConstraint::ge(c, r(1)));
        }
        let sol = lp.solve();
        assert_eq!(sol.value(), Some(rat(4, 3)));
    }
}
