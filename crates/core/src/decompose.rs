//! CDAG decomposition and bound combination (Sec. 4).
//!
//! Lemma 4.2 allows lower bounds for sub-CDAGs to be *summed* provided their
//! may-spill sets are pairwise disjoint. Two mechanisms use it:
//!
//! * **bounded combination** (`combine_sub_bounds`, the role of Algorithm 1):
//!   a finite collection of candidate bounds from different statements /
//!   path combinations is combined greedily, keeping a candidate only when
//!   its may-spill set does not interfere with the ones already accepted;
//! * **loop parametrization** (`sum_over_parameter`, Sec. 4.3): a bound
//!   derived for one symbolic slice `Ω` of an outer loop is summed over all
//!   slice values, after checking that the per-slice may-spill sets are
//!   disjoint for distinct values of `Ω`.

use crate::bound::{Instance, LowerBound};
use iolb_poly::{count, BasicSet, Constraint, Context, LinExpr, UnionSet};
use iolb_symbol::{sum_over, Expr, Poly};

/// Greedily combines candidate bounds whose may-spill sets are pairwise
/// disjoint. This simplifies the paper's Algorithm 1: a candidate that
/// interferes with an accepted one is dropped, not re-derived on the DFG
/// with the accepted may-spill sets removed. Dropping preserves validity and
/// only costs tightness; ROADMAP item 9 tracks the full Algorithm 1.
///
/// Candidates are considered in decreasing order of their value at the given
/// parameter instance — the instance only drives this heuristic ordering, the
/// returned expression is valid for every parameter value.
pub fn combine_sub_bounds(bounds: &[LowerBound], instance: &Instance) -> (Expr, Vec<usize>) {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| {
        bounds[b]
            .evaluate(instance)
            .partial_cmp(&bounds[a].evaluate(instance))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut used_spill = UnionSet::empty();
    let mut total = Expr::zero();
    let mut accepted = Vec::new();
    for idx in order {
        let b = &bounds[idx];
        if b.is_trivial() || b.evaluate(instance) <= 0.0 {
            continue;
        }
        if used_spill.intersects(&b.may_spill) {
            continue;
        }
        total = total + b.expr.clone().max_with_zero();
        used_spill = used_spill.union(&b.may_spill);
        accepted.push(idx);
    }
    (total, accepted)
}

/// Checks whether the may-spill set of a parametrized bound is disjoint for
/// distinct values of the slicing parameter `omega` (the `Q.interf(Ω) ∩
/// Q.interf(Ω′) = ∅` premise of `combine_paramQ` in Algorithm 6).
///
/// The check renames `Ω` to a fresh `Ω'` in one copy, adds the constraint
/// `Ω' ≥ Ω + 1`, and tests the intersection for emptiness — parameters are
/// handled existentially, so a `true` answer holds for every pair of distinct
/// slice values.
pub fn slices_are_disjoint(may_spill: &UnionSet, omega: &str) -> bool {
    let omega2 = format!("{omega}__next");
    let shifted = may_spill.rename_param(omega, &omega2);
    let gap = Constraint::ge0(
        LinExpr::param(0, &omega2)
            .sub(&LinExpr::param(0, omega))
            .sub(&LinExpr::constant(0, 1)),
    );
    let original = may_spill.constrain_params(&gap);
    let shifted = shifted.constrain_params(&gap);
    !original.intersects(&shifted)
}

/// Sums a per-slice bound over all values of the slicing parameter `omega`
/// (Sec. 4.3). The range of `omega` is derived from the given statement
/// domain dimension, with `hi_offset` added to the upper end (wavefront
/// bounds pass `-1` because the last slice has no successor slice). Returns
/// `None` when the per-slice expression is not a polynomial in `omega` with
/// non-negative integer exponents, or when the dimension's symbolic bounds
/// cannot be extracted.
pub fn sum_over_parameter(
    per_slice: &LowerBound,
    omega: &str,
    statement_domain: &BasicSet,
    dim: usize,
    hi_offset: i128,
    ctx: &Context,
) -> Option<LowerBound> {
    if !slices_are_disjoint(&per_slice.may_spill, omega) {
        return None;
    }
    let (lo, hi) = dim_bounds(statement_domain, dim, ctx)?;
    let hi = hi + Poly::int(hi_offset);
    // Guard the per-slice expression at zero before summing (a negative
    // per-slice value would otherwise subtract from the total).
    let guarded = per_slice.expr.clone().max_with_zero();
    // Summation requires a single polynomial; resolve the max by keeping the
    // non-negative arm only when it is non-negative over the whole range is
    // not checkable symbolically, so we sum the raw polynomial and guard the
    // total instead (still a valid lower bound: Σ max(0, q) ≥ max(0, Σ q)).
    let poly = match &per_slice.expr {
        Expr::Poly(p) => p.clone(),
        Expr::Max(_) => return None,
    };
    let _ = guarded;
    let summed = sum_over(&poly, omega, &lo, &hi);
    let mut notes = per_slice.notes.clone();
    notes.push(format!(
        "summed over {omega} ∈ [{lo}, {hi}] (loop parametrization, Sec. 4.3)"
    ));
    Some(LowerBound {
        expr: Expr::from_poly(summed).max_with_zero(),
        may_spill: union_over_parameter(&per_slice.may_spill, omega, &lo, &hi, statement_domain),
        technique: per_slice.technique,
        statement: per_slice.statement.clone(),
        notes,
    })
}

/// The union of the per-slice may-spill sets over all slice values: obtained
/// by replacing the equality `dim = Ω` with the range constraints of the
/// loop. We approximate it by dropping the `Ω` parameter (existentially
/// projecting it), which yields a superset — the conservative direction for
/// subsequent disjointness tests.
fn union_over_parameter(
    may_spill: &UnionSet,
    omega: &str,
    lo: &Poly,
    hi: &Poly,
    statement_domain: &BasicSet,
) -> UnionSet {
    let _ = (lo, hi);
    let mut out = UnionSet::empty();
    for (_, set) in may_spill.iter() {
        // Project the Ω parameter out of every disjunct by treating it as an
        // extra existential variable.
        let mut pieces = Vec::new();
        for p in set.parts() {
            pieces.push(project_param(p, omega));
        }
        if let Some(first) = pieces.first() {
            let space = first.space().clone();
            out.add_set(iolb_poly::Set::from_basic_sets(space, pieces));
        }
    }
    // Always include the statement's own domain (every slice is inside it).
    out.add_set(statement_domain.to_set());
    out
}

/// Eliminates a parameter from a basic set by treating it as an extra
/// variable and projecting it away.
fn project_param(set: &BasicSet, param: &str) -> BasicSet {
    let n = set.dim();
    let mut constraints = Vec::new();
    for c in set.constraints() {
        let coef = c.expr.param_coeff(param);
        let mut e = c.expr.remap_vars(n + 1, &(0..n).collect::<Vec<_>>());
        if coef != 0 {
            e.var_coeffs[n] = coef;
            e.clear_param(param);
        }
        constraints.push(Constraint {
            expr: e,
            kind: c.kind,
        });
    }
    let projected =
        iolb_poly::EngineCtx::with_current(|e| iolb_poly::fm::eliminate_var_in(e, &constraints, n));
    BasicSet::from_constraints(set.space().clone(), projected)
}

/// Extracts the symbolic lower and upper bound of a statement-domain
/// dimension (used to derive the summation range of `Ω`).
pub fn dim_bounds(domain: &BasicSet, dim: usize, ctx: &Context) -> Option<(Poly, Poly)> {
    // Project away every other dimension and read off the bounds.
    let mut reduced = domain.clone();
    // Eliminate from the innermost dimension to keep indices stable.
    for idx in (0..domain.dim()).rev() {
        if idx != dim {
            reduced = reduced.project_out(idx);
        }
    }
    // After projection the set has a single dimension (index 0).
    let mut sys = reduced.constraints().to_vec();
    for c in ctx.constraints() {
        sys.push(Constraint {
            expr: c.expr.remap_vars(1, &[]),
            kind: c.kind,
        });
    }
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    for c in &sys {
        let a = c.expr.var_coeff(0);
        if a == 0 {
            continue;
        }
        if a.abs() != 1 {
            return None;
        }
        let mut rest = c.expr.clone();
        rest.var_coeffs[0] = 0;
        match c.kind {
            iolb_poly::ConstraintKind::Equality => return None,
            iolb_poly::ConstraintKind::Inequality => {
                if a > 0 {
                    lowers.push(rest.scale(-1));
                } else {
                    uppers.push(rest);
                }
            }
        }
    }
    if lowers.len() != 1 || uppers.len() != 1 {
        return None;
    }
    Some((linexpr_to_poly(&lowers[0]), linexpr_to_poly(&uppers[0])))
}

fn linexpr_to_poly(e: &LinExpr) -> Poly {
    let mut p = Poly::constant(iolb_math::Rational::from_int(e.constant));
    for (name, c) in e.param_terms_by_name() {
        p = p + Poly::param(&name).scale(iolb_math::Rational::from_int(c));
    }
    p
}

/// Total input-data size of a DFG (the compulsory-miss term added by the
/// driver, `input_size(G)` in Algorithm 6).
pub fn input_size(dfg: &iolb_dfg::Dfg, ctx: &Context) -> Poly {
    dfg.input_size(ctx).unwrap_or_else(|| {
        // Fall back to counting each input array individually, skipping the
        // ones outside the countable class (conservative: under-counting the
        // compulsory misses keeps the bound valid).
        let engine = iolb_poly::EngineCtx::current();
        let mut total = Poly::zero();
        for node in dfg.inputs() {
            if let Some(c) = count::card_basic_in(&engine, &node.domain, ctx) {
                total = total + c;
            }
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::Technique;
    use iolb_poly::parse_set;

    fn ctx() -> Context {
        Context::empty().assume_ge("N", 4).assume_ge("M", 4)
    }

    fn bound_with_spill(expr: Poly, spill_sets: &[&str]) -> LowerBound {
        let mut ms = UnionSet::empty();
        for s in spill_sets {
            ms.add_set(parse_set(s).unwrap().to_set());
        }
        LowerBound {
            expr: Expr::from_poly(expr),
            may_spill: ms,
            technique: Technique::Partition,
            statement: "S".to_string(),
            notes: vec![],
        }
    }

    #[test]
    fn disjoint_bounds_are_summed() {
        // Example 3 (Fig. 4): two sub-CDAGs with disjoint may-spill sets, each
        // contributing N²/(2S); the combination is their sum.
        let b1 = bound_with_spill(
            Poly::param("N") * Poly::param("N"),
            &["[N] -> { S[k, i] : 0 <= k < N and 0 <= i <= k }"],
        );
        let b2 = bound_with_spill(
            Poly::param("N") * Poly::param("N"),
            &["[N] -> { S[k, i] : 0 <= k < N and k < i < N }"],
        );
        let instance = Instance::from_pairs(&[("N", 100), ("S", 16)]);
        let (total, accepted) = combine_sub_bounds(&[b1, b2], &instance);
        assert_eq!(accepted.len(), 2);
        let v = total.eval_params(&[("N", 10), ("S", 4)]).unwrap();
        assert_eq!(v, 200.0);
    }

    #[test]
    fn interfering_bounds_keep_only_the_best() {
        let b1 = bound_with_spill(
            Poly::param("N") * Poly::param("N"),
            &["[N] -> { S[k, i] : 0 <= k < N and 0 <= i < N }"],
        );
        let b2 = bound_with_spill(
            Poly::param("N"),
            &["[N] -> { S[k, i] : 0 <= k < N and 0 <= i <= k }"],
        );
        let instance = Instance::from_pairs(&[("N", 100), ("S", 16)]);
        let (total, accepted) = combine_sub_bounds(&[b1, b2], &instance);
        assert_eq!(accepted, vec![0]);
        let v = total.eval_params(&[("N", 10), ("S", 4)]).unwrap();
        assert_eq!(v, 100.0);
    }

    #[test]
    fn negative_candidates_are_skipped() {
        let b = bound_with_spill(
            Poly::param("N") - Poly::param("S"),
            &["[N] -> { S[i] : 0 <= i < N }"],
        );
        let instance = Instance::from_pairs(&[("N", 10), ("S", 100)]);
        let (total, accepted) = combine_sub_bounds(&[b], &instance);
        assert!(accepted.is_empty());
        assert!(total.is_zero());
    }

    #[test]
    fn slice_disjointness() {
        // A may-spill set pinned to the slice t = Ω is disjoint across slices.
        let sliced = UnionSet::from_set(
            parse_set("[N, Omega] -> { S[t, i] : t = Omega and 0 <= i < N }")
                .unwrap()
                .to_set(),
        );
        assert!(slices_are_disjoint(&sliced, "Omega"));
        // One that spans [Ω, Ω+1] is not.
        let wide = UnionSet::from_set(
            parse_set("[N, Omega] -> { S[t, i] : Omega <= t <= Omega + 1 and 0 <= i < N }")
                .unwrap()
                .to_set(),
        );
        assert!(!slices_are_disjoint(&wide, "Omega"));
    }

    #[test]
    fn summation_over_outer_loop() {
        // Per-slice bound N − S with slices Ω = 1 .. M−1 (Example 2): the
        // total is (M−1)(N−S).
        let per_slice = LowerBound {
            expr: Expr::from_poly(Poly::param("N") - Poly::param("S")),
            may_spill: UnionSet::from_set(
                parse_set("[M, N, Omega] -> { S2[t, i] : t = Omega and 0 <= i < N }")
                    .unwrap()
                    .to_set(),
            ),
            technique: Technique::Wavefront,
            statement: "S2".to_string(),
            notes: vec![],
        };
        let domain = parse_set("[M, N] -> { S2[t, i] : 1 <= t < M and 0 <= i < N }").unwrap();
        let summed = sum_over_parameter(&per_slice, "Omega", &domain, 0, 0, &ctx()).unwrap();
        let v = summed
            .expr
            .eval_params(&[("M", 6), ("N", 100), ("S", 16)])
            .unwrap();
        assert_eq!(v, 5.0 * 84.0);
        // With a -1 offset the last slice is dropped: (M-2)(N-S).
        let shifted = sum_over_parameter(
            &LowerBound {
                expr: Expr::from_poly(Poly::param("N") - Poly::param("S")),
                may_spill: UnionSet::from_set(
                    parse_set("[M, N, Omega] -> { S2[t, i] : t = Omega and 0 <= i < N }")
                        .unwrap()
                        .to_set(),
                ),
                technique: Technique::Wavefront,
                statement: "S2".to_string(),
                notes: vec![],
            },
            "Omega",
            &domain,
            0,
            -1,
            &ctx(),
        )
        .unwrap();
        let v2 = shifted
            .expr
            .eval_params(&[("M", 6), ("N", 100), ("S", 16)])
            .unwrap();
        assert_eq!(v2, 4.0 * 84.0);
    }

    #[test]
    fn dim_bounds_extraction() {
        let d = parse_set("[M, N] -> { S[t, i] : 1 <= t < M and 0 <= i < N }").unwrap();
        let (lo, hi) = dim_bounds(&d, 0, &ctx()).unwrap();
        assert_eq!(lo.to_string(), "1");
        assert_eq!(hi.to_string(), "M - 1");
        let (lo_i, hi_i) = dim_bounds(&d, 1, &ctx()).unwrap();
        assert_eq!(lo_i.to_string(), "0");
        assert_eq!(hi_i.to_string(), "N - 1");
    }

    #[test]
    fn input_size_sums_arrays() {
        let g = iolb_dfg::Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .input("B", "[M, N] -> { B[i, j] : 0 <= i < M and 0 <= j < N }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("A", "S", "[N] -> { A[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap();
        let size = input_size(&g, &ctx());
        assert_eq!(size.to_string(), "M*N + N");
    }
}
