//! # iolb-math
//!
//! Exact mathematical substrate for the IOLB reproduction: rational
//! arithmetic, small dense rational linear algebra, linear subspaces with the
//! subgroup-lattice closure of Lemma 3.12, an exact-rational simplex solver
//! (the stand-in for PIP), and the convex exponent optimiser of Sec. 5.3 (the
//! stand-in for IPOPT).
//!
//! Everything operates on exact [`Rational`] values so that rank computations,
//! feasibility checks and LP optima — on which the *validity* of the derived
//! I/O lower bounds rests — are never subject to floating-point error.
//!
//! ## Example
//!
//! ```
//! use iolb_math::{ExponentProblem, Rational};
//!
//! // The Brascamp–Lieb exponent problem for matrix multiplication:
//! // three orthogonal projections, each kernel seen by the other two.
//! let mut problem = ExponentProblem::new(3);
//! problem.add_rank_constraint(vec![0, 1, 1], 1);
//! problem.add_rank_constraint(vec![1, 0, 1], 1);
//! problem.add_rank_constraint(vec![1, 1, 0], 1);
//! let sol = problem.solve().unwrap();
//! assert_eq!(sol.sigma, Rational::new(3, 2));
//! ```

#![warn(missing_docs)]

pub mod convex;
pub mod lattice;
pub mod matrix;
pub mod rational;
pub mod simplex;
pub mod subspace;

pub use convex::{ExponentProblem, ExponentSolution};
pub use lattice::{Closed, ClosureCapExceeded, Lattice};
pub use matrix::Matrix;
pub use rational::{gcd, lcm, rat, Rational, RationalOverflow};
pub use simplex::{ConstraintOp, LinearConstraint, LinearProgram, LpResult};
pub use subspace::Subspace;
