//! Symbolic cardinality of parametric integer sets (the barvinok substitute).
//!
//! The driver needs `|D_S|`, `|Sources(V)|` and input-array sizes as symbolic
//! polynomials in the program parameters. Rather than implementing full
//! Barvinok counting, cardinalities are computed by iterated interval
//! summation: dimensions are eliminated innermost-first, each contributing a
//! factor `(upper − lower + 1)` that is summed in closed form with
//! Faulhaber's formulas over the remaining dimensions.
//!
//! This procedure is **exact** for the class of domains produced by affine
//! loop nests in which every dimension has (after entailment-based pruning) a
//! single effective lower and upper bound with unit coefficient — which
//! covers every PolyBench kernel. Domains outside the class yield `None` and
//! callers fall back to conservative handling.
//!
//! The entry points take the engine session explicitly
//! ([`card_basic_in`], [`card_in`]).

use crate::affine::{Constraint, ConstraintKind, LinExpr};
use crate::basic_set::BasicSet;
use crate::engine::EngineCtx;
use crate::fm;
use crate::set::Set;
use iolb_symbol::{sum_over, Poly};

/// Parameter context: constraints on the parameters only (e.g. `N ≥ 2`),
/// used when deciding which of several candidate bounds dominates.
#[derive(Clone, Debug, Default)]
pub struct Context {
    constraints: Vec<Constraint>,
}

impl Context {
    /// The empty context (no assumptions on parameters).
    pub fn empty() -> Self {
        Context {
            constraints: Vec::new(),
        }
    }

    /// Adds the assumption `param ≥ value`.
    pub fn assume_ge(mut self, param: &str, value: i128) -> Self {
        self.constraints.push(Constraint::ge0(
            LinExpr::param(0, param).sub(&LinExpr::constant(0, value)),
        ));
        self
    }

    /// Adds the assumption `param ≤ value`.
    pub fn assume_le(mut self, param: &str, value: i128) -> Self {
        self.constraints.push(Constraint::ge0(
            LinExpr::constant(0, value).sub(&LinExpr::param(0, param)),
        ));
        self
    }

    /// Adds an arbitrary parameter-only assumption (a constraint of arity 0).
    ///
    /// # Panics
    ///
    /// Panics if the constraint mentions positional variables.
    pub fn assume(mut self, c: Constraint) -> Self {
        assert_eq!(
            c.expr.num_vars(),
            0,
            "context constraints must be parameter-only"
        );
        self.constraints.push(c);
        self
    }

    /// The raw parameter constraints (0-variable arity).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn remapped(&self, nvars: usize) -> Vec<Constraint> {
        self.constraints
            .iter()
            .map(|c| Constraint {
                expr: c.expr.remap_vars(nvars, &[]),
                kind: c.kind,
            })
            .collect()
    }
}

/// Internal name given to dimension `i` while it is still symbolic during the
/// recursion.
fn dim_param(i: usize) -> String {
    format!("__d{i}")
}

/// Converts an affine expression over the first `ndims` variables (plus
/// parameters) to a [`Poly`] in which variable `i` is the parameter `__d{i}`.
fn linexpr_to_poly(engine: &EngineCtx, e: &LinExpr, ndims: usize) -> Poly {
    let mut p = Poly::constant(iolb_math::Rational::from_int(e.constant));
    for i in 0..ndims {
        let c = e.var_coeff(i);
        if c != 0 {
            p = p + Poly::param(&dim_param(i)).scale(iolb_math::Rational::from_int(c));
        }
    }
    for (name, c) in e.param_terms_by_name_in(engine) {
        if c != 0 {
            p = p + Poly::param(&name).scale(iolb_math::Rational::from_int(c));
        }
    }
    p
}

/// Symbolic cardinality of a basic set, computed in the given engine
/// session. Returns `None` if the domain falls outside the exactly-countable
/// class.
///
/// The set must have been built in `engine`'s session (every sub-query runs
/// against `engine` explicitly, so cache entries and counters land there).
pub fn card_basic_in(engine: &EngineCtx, set: &BasicSet, ctx: &Context) -> Option<Poly> {
    engine.counters().bump_count_call();
    // One budget checkpoint per top-level cardinality query: the only place
    // the (shard-summing, hence not hot-loop-safe) cache-entry limit is
    // enforced. Deadline/step limits also fire inside fm via the per-
    // elimination checkpoints.
    engine.checkpoint_cache();
    engine.query_cache().count(
        engine.counters(),
        set.constraints(),
        set.dim(),
        ctx.constraints(),
        || {
            if !fm::is_feasible_in(engine, set.constraints(), set.dim()) {
                return Some(Poly::zero());
            }
            let d = set.dim();
            let mut constraints = set.constraints().to_vec();
            constraints.extend(ctx.remapped(d));
            count_rec(engine, constraints, d, Poly::one())
        },
    )
}

fn count_rec(
    engine: &EngineCtx,
    constraints: Vec<Constraint>,
    ndims: usize,
    weight: Poly,
) -> Option<Poly> {
    if ndims == 0 {
        // All dimensions eliminated; remaining constraints only restrict
        // parameters. If they are infeasible the set was empty (handled by
        // the caller), so the weight is the answer.
        return Some(weight);
    }
    let idx = ndims - 1;
    let nvars = ndims;

    // Case 1: an equality pins the innermost dimension.
    if let Some(eq) = constraints
        .iter()
        .find(|c| c.kind == ConstraintKind::Equality && c.expr.var_coeff(idx) != 0)
        .cloned()
    {
        let coeff = eq.expr.var_coeff(idx);
        if coeff.abs() != 1 {
            return None;
        }
        // x_idx = rest where rest = -(eq - coeff·x_idx)/coeff.
        let mut rest = eq.expr.clone();
        rest.var_coeffs[idx] = 0;
        let rest = rest.scale(-coeff.signum());
        let repl_poly = linexpr_to_poly(engine, &rest, ndims);
        let new_weight = weight.substitute(&dim_param(idx), &repl_poly);
        let reduced = fm::eliminate_var_in(engine, &constraints, idx);
        return count_rec(engine, reduced, ndims - 1, new_weight);
    }

    // Case 2: inequality bounds. First drop bound constraints on the
    // innermost dimension that are redundant (implied by the rest of the
    // system, including the parameter context) — FM projection and domain
    // intersections routinely introduce such redundant bounds.
    let constraints = drop_redundant_bounds(engine, constraints, idx, nvars);
    let mut lowers: Vec<LinExpr> = Vec::new();
    let mut uppers: Vec<LinExpr> = Vec::new();
    for c in &constraints {
        if c.kind != ConstraintKind::Inequality {
            continue;
        }
        let a = c.expr.var_coeff(idx);
        if a == 0 {
            continue;
        }
        if a.abs() != 1 {
            return None;
        }
        let mut rest = c.expr.clone();
        rest.var_coeffs[idx] = 0;
        if a > 0 {
            // x + rest >= 0  =>  x >= -rest.
            lowers.push(rest.scale(-1));
        } else {
            // -x + rest >= 0  =>  x <= rest.
            uppers.push(rest);
        }
    }
    if lowers.is_empty() || uppers.is_empty() {
        // Unbounded dimension: infinite cardinality for generic parameters.
        return None;
    }
    let lower = dominant_bound(engine, &lowers, &constraints, nvars, true)?;
    let upper = dominant_bound(engine, &uppers, &constraints, nvars, false)?;

    let lower_poly = linexpr_to_poly(engine, &lower, ndims);
    let upper_poly = linexpr_to_poly(engine, &upper, ndims);
    // Σ_{x = lower}^{upper} weight(x).
    let summed = if weight
        .degree_in(&dim_param(idx))
        .is_none_or(|e| e.is_zero())
    {
        // Constant in x: weight · (upper - lower + 1).
        weight * (upper_poly - lower_poly + Poly::one())
    } else {
        sum_over(&weight, &dim_param(idx), &lower_poly, &upper_poly)
    };
    let reduced = fm::eliminate_var_in(engine, &constraints, idx);
    count_rec(engine, reduced, ndims - 1, summed)
}

/// Removes inequality constraints bounding dimension `idx` that are implied
/// by the remaining constraints, using the cached entailment oracle
/// [`fm::implies_in`]. Constraints are removed one at a time (each check runs
/// against the already-reduced system) so that one of two equivalent bounds
/// always survives. A constraint found non-removable can never *become*
/// removable after later removals (implication by a subset is stronger than
/// by a superset), so this single forward scan removes exactly the
/// constraints a restart-on-removal loop would, with a linear instead of
/// quadratic number of entailment queries.
fn drop_redundant_bounds(
    engine: &EngineCtx,
    constraints: Vec<Constraint>,
    idx: usize,
    nvars: usize,
) -> Vec<Constraint> {
    let mut current = constraints;
    let mut i = 0;
    while i < current.len() {
        let c = &current[i];
        if c.kind != ConstraintKind::Inequality || c.expr.var_coeff(idx) == 0 {
            i += 1;
            continue;
        }
        let mut rest: Vec<Constraint> = current.clone();
        rest.remove(i);
        if fm::implies_in(engine, &rest, nvars, c) {
            // Re-examine index i: the next constraint shifted into this slot.
            current = rest;
        } else {
            i += 1;
        }
    }
    current
}

/// Picks the dominating bound among candidates: the greatest lower bound or
/// the least upper bound, decided by entailment over the full constraint
/// system. Returns `None` when no single candidate dominates all others.
fn dominant_bound(
    engine: &EngineCtx,
    candidates: &[LinExpr],
    constraints: &[Constraint],
    nvars: usize,
    want_greatest: bool,
) -> Option<LinExpr> {
    if candidates.len() == 1 {
        return Some(candidates[0].clone());
    }
    'outer: for (i, cand) in candidates.iter().enumerate() {
        for (j, other) in candidates.iter().enumerate() {
            if i == j {
                continue;
            }
            // want_greatest: cand >= other must be entailed.
            // want_least:    cand <= other must be entailed.
            let diff = if want_greatest {
                cand.sub(other)
            } else {
                other.sub(cand)
            };
            let target = Constraint::ge0(diff);
            if !fm::implies_in(engine, constraints, nvars, &target) {
                continue 'outer;
            }
        }
        return Some(cand.clone());
    }
    None
}

/// Symbolic cardinality of a union set: disjuncts are first made pairwise
/// disjoint, then their cardinalities are summed.
///
/// The disjointing step runs set algebra through the **ambient** session, so
/// call this inside `engine`'s scope (the `Analyzer` and the object layer do
/// so by construction); the per-part counting then charges `engine`
/// explicitly. A mismatch is caught in debug builds.
pub fn card_in(engine: &EngineCtx, set: &Set, ctx: &Context) -> Option<Poly> {
    debug_assert_eq!(
        EngineCtx::with_current(|current| current.id()),
        engine.id(),
        "card_in requires the explicit engine to be the ambient session          (enter it with EngineCtx::scope)"
    );
    let disjoint = set.make_disjoint();
    let mut total = Poly::zero();
    for part in disjoint.parts() {
        total = total + card_basic_in(engine, part, ctx)?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use std::collections::BTreeMap;

    /// The ambient session (tests build their sets ambiently, so querying
    /// the same session keeps ids consistent).
    fn engine() -> std::sync::Arc<EngineCtx> {
        EngineCtx::current()
    }

    fn eval(p: &Poly, pairs: &[(&str, i128)]) -> i128 {
        let env: BTreeMap<String, i128> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let r = p.eval_exact(&env).unwrap();
        assert!(r.is_integer(), "cardinality must be integral, got {r}");
        r.numer()
    }

    fn ctx() -> Context {
        Context::empty().assume_ge("N", 2).assume_ge("M", 2)
    }

    #[test]
    fn rectangle() {
        // { S[t, i] : 0 <= t < M, 0 <= i < N } has M·N points.
        let s = BasicSet::universe(Space::new("S", &["t", "i"]))
            .ge0_var(0)
            .lt_param(0, "M")
            .ge0_var(1)
            .lt_param(1, "N");
        let c = card_basic_in(&engine(), &s, &ctx()).unwrap();
        assert_eq!(c.to_string(), "M*N");
        assert_eq!(eval(&c, &[("M", 6), ("N", 7)]), 42);
        assert_eq!(s.enumerate(&[("M", 6), ("N", 7)], 10).len(), 42);
    }

    #[test]
    fn triangle() {
        // { S[i, j] : 0 <= i < N, 0 <= j <= i } has N(N+1)/2 points.
        let s = BasicSet::universe(Space::new("S", &["i", "j"]))
            .ge0_var(0)
            .lt_param(0, "N")
            .ge0_var(1)
            .le_var(1, 0);
        let c = card_basic_in(&engine(), &s, &ctx()).unwrap();
        assert_eq!(eval(&c, &[("N", 10)]), 55);
        assert_eq!(eval(&c, &[("N", 1)]), 1);
    }

    #[test]
    fn cholesky_update_domain() {
        // { S3[k, i, j] : 0 <= k < N, k+1 <= i < N, k+1 <= j <= i }
        // has N(N-1)(N+1)/6 points (sum over k of T(N-1-k)).
        let space = Space::new("S3", &["k", "i", "j"]);
        let n = 3;
        let s = BasicSet::universe(space)
            .ge0_var(0)
            .lt_param(0, "N")
            .constrain(Constraint::ge0(
                LinExpr::var(n, 1)
                    .sub(&LinExpr::var(n, 0))
                    .sub(&LinExpr::constant(n, 1)),
            ))
            .lt_param(1, "N")
            .constrain(Constraint::ge0(
                LinExpr::var(n, 2)
                    .sub(&LinExpr::var(n, 0))
                    .sub(&LinExpr::constant(n, 1)),
            ))
            .le_var(2, 1);
        let c = card_basic_in(&engine(), &s, &ctx()).unwrap();
        // N = 5: sum_{k=0}^{4} T(4-k) = 10 + 6 + 3 + 1 + 0 = 20 = 5*4*6/6.
        assert_eq!(eval(&c, &[("N", 5)]), 20);
        assert_eq!(eval(&c, &[("N", 10)]), 165);
    }

    #[test]
    fn equality_constrained_slice() {
        // { S[t, i] : t = Omega, 0 <= i < N } has N points.
        let s = BasicSet::universe(Space::new("S", &["t", "i"]))
            .fix_dim_to_param(0, "Omega")
            .ge0_var(1)
            .lt_param(1, "N");
        let c = card_basic_in(&engine(), &s, &ctx()).unwrap();
        assert_eq!(c.to_string(), "N");
    }

    #[test]
    fn empty_set_counts_zero() {
        let s = BasicSet::universe(Space::new("S", &["i"]))
            .ge_const(0, 5)
            .constrain(Constraint::ge0(
                LinExpr::constant(1, 2).sub(&LinExpr::var(1, 0)),
            ));
        assert_eq!(card_basic_in(&engine(), &s, &ctx()).unwrap(), Poly::zero());
    }

    #[test]
    fn multiple_lower_bounds_resolved_by_context() {
        // { S[i, j] : 0 <= i < N, 0 <= j < N, j >= i } — for j the bounds
        // are j >= 0 and j >= i; with i >= 0 the dominant one is j >= i.
        let n = 2;
        let s = BasicSet::universe(Space::new("S", &["i", "j"]))
            .ge0_var(0)
            .lt_param(0, "N")
            .ge0_var(1)
            .lt_param(1, "N")
            .constrain(Constraint::ge0(LinExpr::var(n, 1).sub(&LinExpr::var(n, 0))));
        let c = card_basic_in(&engine(), &s, &ctx()).unwrap();
        assert_eq!(eval(&c, &[("N", 4)]), 10);
    }

    #[test]
    fn union_cardinality_deduplicates_overlap() {
        // [0, N) ∪ [2, N+3): for N = 5 -> {0..4} ∪ {2..7} = 8 points.
        let a = BasicSet::universe(Space::new("S", &["i"]))
            .ge0_var(0)
            .lt_param(0, "N");
        let arity = 1;
        let b = BasicSet::universe(Space::new("S", &["i"]))
            .ge_const(0, 2)
            .constrain(Constraint::ge0(
                LinExpr::param(arity, "N")
                    .add(&LinExpr::constant(arity, 2))
                    .sub(&LinExpr::var(arity, 0)),
            ));
        let u = a.to_set().union(&b.to_set());
        let c = card_in(&engine(), &u, &ctx()).unwrap();
        assert_eq!(eval(&c, &[("N", 5)]), 8);
        assert_eq!(u.enumerate(&[("N", 5)], 20).len(), 8);
    }

    #[test]
    fn jacobi_style_trapezoid() {
        // { S[t, i] : 0 <= t < T, t+1 <= i < N - t } — counts Σ_t (N - 2t - 1).
        let n = 2;
        let s = BasicSet::universe(Space::new("S", &["t", "i"]))
            .ge0_var(0)
            .lt_param(0, "T")
            .constrain(Constraint::ge0(
                LinExpr::var(n, 1)
                    .sub(&LinExpr::var(n, 0))
                    .sub(&LinExpr::constant(n, 1)),
            ))
            .constrain(Constraint::ge0(
                LinExpr::param(n, "N")
                    .sub(&LinExpr::var(n, 0))
                    .sub(&LinExpr::var(n, 1))
                    .sub(&LinExpr::constant(n, 1)),
            ));
        // Without knowing how T compares to N the count is genuinely
        // piecewise, so the exact counter declines.
        let weak = Context::empty().assume_ge("N", 20).assume_ge("T", 2);
        assert!(card_basic_in(&engine(), &s, &weak).is_none());
        // With the steady-state assumption 2T + 2 <= N the trapezoid count is
        // a single polynomial: Σ_{t=0}^{T-1} (N - 2t - 1).
        let context = Context::empty().assume_ge("T", 2).assume(Constraint::ge0(
            LinExpr::param(0, "N")
                .sub(&LinExpr::param(0, "T").scale(2))
                .sub(&LinExpr::constant(0, 2)),
        ));
        let c = card_basic_in(&engine(), &s, &context).unwrap();
        // N = 10, T = 3: t=0 -> i in [1,9] (9 pts); t=1 -> [2,8] (7); t=2 -> [3,7] (5).
        assert_eq!(eval(&c, &[("N", 10), ("T", 3)]), 21);
        assert_eq!(s.enumerate(&[("N", 10), ("T", 3)], 15).len(), 21);
    }

    fn var(n: usize, i: usize) -> LinExpr {
        LinExpr::var(n, i)
    }
    fn cst(n: usize, c: i128) -> LinExpr {
        LinExpr::constant(n, c)
    }

    /// The restart-on-removal formulation of [`drop_redundant_bounds`], kept
    /// as the reference for the single forward scan.
    fn restart_loop_reference(
        engine: &EngineCtx,
        constraints: Vec<Constraint>,
        idx: usize,
        nvars: usize,
    ) -> Vec<Constraint> {
        let mut current = constraints;
        loop {
            let mut removed = false;
            for i in 0..current.len() {
                let c = &current[i];
                if c.kind != ConstraintKind::Inequality || c.expr.var_coeff(idx) == 0 {
                    continue;
                }
                let mut rest: Vec<Constraint> = current.clone();
                rest.remove(i);
                if fm::implies_in(engine, &rest, nvars, c) {
                    current = rest;
                    removed = true;
                    break;
                }
            }
            if !removed {
                return current;
            }
        }
    }

    #[test]
    fn single_pass_matches_restart_loop() {
        let e = engine();
        // Bounds on x with several redundant shadows: x >= 0 (twice, once
        // scaled), x >= -3 (implied), x <= N, x <= N + 5 (implied), plus an
        // unrelated equality and a y bound that must survive.
        let n = |k: i128| LinExpr::param(2, "N").add(&cst(2, k));
        let sys = vec![
            Constraint::ge0(var(2, 0)),
            Constraint::ge0(var(2, 0).scale(2).add(&cst(2, 1))),
            Constraint::ge0(var(2, 0).add(&cst(2, 3))),
            Constraint::ge0(n(0).sub(&var(2, 0))),
            Constraint::ge0(n(5).sub(&var(2, 0))),
            Constraint::ge0(var(2, 1)),
            Constraint::eq(var(2, 1).sub(&cst(2, 4))),
        ];
        let fast = drop_redundant_bounds(&e, sys.clone(), 0, 2);
        let reference = restart_loop_reference(&e, sys, 0, 2);
        assert_eq!(fast, reference);
        // The implied shadows are gone. Note the integer-style entailment:
        // 2x + 1 >= 0 implies x >= 0 (x <= -1 contradicts x >= -1/2), so
        // x >= 0 is itself dropped and the scaled bound survives.
        assert!(fast.contains(&Constraint::ge0(var(2, 0).scale(2).add(&cst(2, 1)))));
        assert!(fast.contains(&Constraint::ge0(n(0).sub(&var(2, 0)))));
        assert!(!fast.contains(&Constraint::ge0(var(2, 0))));
        assert!(!fast.contains(&Constraint::ge0(var(2, 0).add(&cst(2, 3)))));
    }

    #[test]
    fn equivalent_bounds_keep_exactly_one() {
        let e = engine();
        // Two syntactically different but equivalent lower bounds: the
        // one-at-a-time discipline must keep exactly one of them.
        let sys = vec![
            Constraint::ge0(var(1, 0).sub(&cst(1, 2))),
            Constraint::ge0(var(1, 0).scale(3).sub(&cst(1, 6))),
            Constraint::ge0(cst(1, 9).sub(&var(1, 0))),
        ];
        let fast = drop_redundant_bounds(&e, sys.clone(), 0, 1);
        let reference = restart_loop_reference(&e, sys, 0, 1);
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), 2, "one of the two equivalent bounds dropped");
    }
}
