//! Fourier–Motzkin elimination over integer affine constraint systems.
//!
//! This module provides the low-level machinery shared by sets and maps:
//! variable elimination (projection), rational feasibility testing, and
//! entailment checks. Parameters are handled by temporarily treating them as
//! extra existential variables, which makes every check *conservative* in the
//! direction IOLB needs:
//!
//! * emptiness is only reported when the system is infeasible for **every**
//!   parameter value (so path-independence claims are never optimistic), and
//! * entailment is only reported when it holds for **every** parameter value
//!   admitted by the context.
//!
//! Rational (rather than integer-exact) projection can over-approximate an
//! integer set. All IOLB uses of projection are either feasibility checks
//! (safe direction, see above) or eliminations of variables with unit
//! coefficients, for which Fourier–Motzkin is exact on the integers.
//!
//! Every query-level entry point takes the engine session explicitly (the
//! `_in` functions); the session supplies the query cache, the operation
//! counters and the parameter interner.

use crate::affine::{Constraint, ConstraintKind, LinExpr};
use crate::engine::EngineCtx;
use iolb_math::gcd;
use std::collections::BTreeSet;

/// Normalises a constraint in place: divides by the gcd of its coefficients
/// when that division is exact (a pure rescaling with identical rational
/// points). A constraint whose constant the gcd does not divide is left
/// unsimplified: flooring it would *tighten* the constraint over the
/// integers, making the elimination cascade's verdict depend on which
/// syntactic shadows of a bound happen to be present. Keeping normalisation
/// exact makes the whole kernel decide rational feasibility, for which
/// Fourier–Motzkin is complete (the differential fuzz oracle checks it
/// against an exact simplex).
pub(crate) fn normalize_mut(c: &mut Constraint) {
    let mut g: i128 = 0;
    for &x in &c.expr.var_coeffs {
        g = gcd(g, x);
    }
    for &(_, x) in &c.expr.param_coeffs {
        g = gcd(g, x);
    }
    if g <= 1 || c.expr.constant % g != 0 {
        return;
    }
    let constant = c.expr.constant / g;
    for x in c.expr.var_coeffs.iter_mut() {
        *x /= g;
    }
    for (_, x) in c.expr.param_coeffs.iter_mut() {
        *x /= g;
    }
    c.expr.constant = constant;
}

/// Normalised copy of a constraint (see [`normalize_mut`]).
#[cfg(test)]
pub(crate) fn normalize(c: &Constraint) -> Constraint {
    let mut out = c.clone();
    normalize_mut(&mut out);
    out
}

/// Coefficient magnitude beyond which a constraint is dropped to prevent
/// `i128` overflow in further eliminations. Dropping an inequality only
/// *relaxes* the system, which is the conservative direction for every use in
/// IOLB (emptiness, entailment and counting all fail safe).
const COEFF_CAP: i128 = 1 << 60;

/// Removes duplicate and trivially-true constraints, and drops constraints
/// whose coefficients have grown past [`COEFF_CAP`]. Deduplication is
/// structural (constraints are normalised in place first) via 128-bit
/// fingerprints, so identical constraints produced by different projection
/// rounds collapse instead of feeding the quadratic Fourier–Motzkin blowup.
///
/// Polls the session budget periodically: on blowup-prone systems a single
/// prune pass can already be long, and the deadline/cancel checkpoints must
/// fire inside it, not only between eliminations.
pub(crate) fn prune(engine: &EngineCtx, constraints: Vec<Constraint>) -> Vec<Constraint> {
    let mut seen = crate::fxhash::FingerprintSet::with_capacity_and_hasher(
        constraints.len(),
        Default::default(),
    );
    let mut out = Vec::with_capacity(constraints.len());
    for (i, mut c) in constraints.into_iter().enumerate() {
        if i % 1024 == 1023 {
            engine.checkpoint_poll();
        }
        normalize_mut(&mut c);
        if c.is_trivially_true() {
            continue;
        }
        let too_large = c.expr.var_coeffs.iter().any(|x| x.abs() > COEFF_CAP)
            || c.expr
                .param_coeffs
                .iter()
                .any(|&(_, x)| x.abs() > COEFF_CAP)
            || c.expr.constant.abs() > COEFF_CAP;
        if too_large && c.kind == ConstraintKind::Inequality {
            continue;
        }
        if seen.insert(crate::fxhash::fingerprint(&c)) {
            out.push(c);
        }
    }
    out
}

/// Eliminates variable `idx` from a constraint system over `nvars` positional
/// variables, returning a system over `nvars - 1` variables (the variable's
/// column is removed).
pub fn eliminate_var_in(
    engine: &EngineCtx,
    constraints: &[Constraint],
    idx: usize,
) -> Vec<Constraint> {
    eliminate_var_owned_in(engine, constraints.to_vec(), idx)
}

/// Owned variant of [`eliminate_var_in`]: consumes the system and reuses its
/// allocations for every constraint the variable does not occur in.
///
/// Projections are memoized per session: the candidate sweeps of a stencil
/// kernel re-project near-identical systems over and over, and the
/// projection cache (keyed on the exact input system and eliminated index)
/// answers the repeats without redoing the cross-product. A cache hit
/// performs no elimination — `FM_ELIMINATIONS` counts only the misses, and
/// no fm-step is charged to the budget — but the deadline poll and the
/// constraint-count checkpoint still observe the result.
pub fn eliminate_var_owned_in(
    engine: &EngineCtx,
    constraints: Vec<Constraint>,
    idx: usize,
) -> Vec<Constraint> {
    let out = engine
        .query_cache()
        .projection(engine.counters(), constraints, idx, |sys| {
            eliminate_var_compute(engine, sys, idx)
        });
    engine.checkpoint_poll();
    engine.checkpoint_constraints(out.len());
    out
}

/// The uncached projection kernel behind [`eliminate_var_owned_in`].
fn eliminate_var_compute(
    engine: &EngineCtx,
    constraints: Vec<Constraint>,
    idx: usize,
) -> Vec<Constraint> {
    engine.counters().bump_fm_elimination();
    engine.checkpoint_fm_step();
    // First try to use an equality to substitute the variable away.
    let eq_pos = constraints
        .iter()
        .position(|c| c.kind == ConstraintKind::Equality && c.expr.var_coeffs[idx] != 0);
    if let Some(ep) = eq_pos {
        let eq = constraints[ep].clone();
        let c_coeff = eq.expr.var_coeffs[idx];
        let mut out = Vec::with_capacity(constraints.len() - 1);
        for (i, mut c) in constraints.into_iter().enumerate() {
            if i == ep {
                continue;
            }
            let a = c.expr.var_coeffs[idx];
            if a == 0 {
                c.expr.var_coeffs.remove(idx);
                out.push(c);
                continue;
            }
            // Scale the constraint by |c_coeff| (positive, preserves
            // inequality direction) and cancel with the equality.
            let k = -a * c_coeff.signum();
            out.push(Constraint {
                expr: LinExpr::combine_drop(&c.expr, c_coeff.abs(), &eq.expr, k, idx),
                kind: c.kind,
            });
        }
        let out = prune(engine, out);
        engine.checkpoint_constraints(out.len());
        return out;
    }

    // Pure Fourier–Motzkin on inequalities.
    let mut lowers = Vec::new(); // coefficient > 0
    let mut uppers = Vec::new(); // coefficient < 0
    let mut out = Vec::new();
    for mut c in constraints {
        let a = c.expr.var_coeffs[idx];
        debug_assert!(
            c.kind == ConstraintKind::Inequality || a == 0,
            "equalities with the variable handled above"
        );
        if c.kind == ConstraintKind::Inequality && a > 0 {
            lowers.push(c);
        } else if c.kind == ConstraintKind::Inequality && a < 0 {
            uppers.push(c);
        } else {
            c.expr.var_coeffs.remove(idx);
            out.push(c);
        }
    }
    out.reserve(lowers.len() * uppers.len());
    for lo in &lowers {
        // One poll per cross-product row: a single elimination of a dense
        // system multiplies lowers × uppers, so deadline/cancel must be
        // observable mid-elimination, not only between steps.
        engine.checkpoint_poll();
        let a = lo.expr.var_coeffs[idx];
        for up in &uppers {
            let b = up.expr.var_coeffs[idx]; // negative
            out.push(Constraint {
                expr: LinExpr::combine_drop(&lo.expr, -b, &up.expr, a, idx),
                kind: ConstraintKind::Inequality,
            });
        }
    }
    let out = prune(engine, out);
    engine.checkpoint_constraints(out.len());
    out
}

/// Eliminates several variables (indices into the current system, highest
/// first to keep indices stable).
pub fn eliminate_vars_in(
    engine: &EngineCtx,
    constraints: &[Constraint],
    mut idxs: Vec<usize>,
) -> Vec<Constraint> {
    idxs.sort_unstable();
    idxs.dedup();
    let mut cur = constraints.to_vec();
    for &idx in idxs.iter().rev() {
        cur = eliminate_var_owned_in(engine, cur, idx);
    }
    cur
}

/// Collects every parameter name appearing in the constraints, sorted by
/// name.
pub fn collect_params_in(engine: &EngineCtx, constraints: &[Constraint]) -> Vec<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    for c in constraints {
        for &(id, _) in &c.expr.param_coeffs {
            out.insert(engine.resolve(id).to_string());
        }
    }
    out.into_iter().collect()
}

/// Converts parameters into extra trailing positional variables so that
/// feasibility can be decided purely over positional variables. Accepts the
/// system as a list of parts so callers can append hypotheses (e.g. a negated
/// entailment target) without materialising a combined vector.
fn parametrize_parts(
    engine: &EngineCtx,
    parts: &[&[Constraint]],
    nvars: usize,
) -> (Vec<Constraint>, usize) {
    let mut ids: Vec<crate::interner::ParamId> = Vec::new();
    for part in parts {
        for c in *part {
            for &(id, _) in &c.expr.param_coeffs {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
    }
    engine.sort_ids_by_name(&mut ids);
    let total = nvars + ids.len();
    let out = parts
        .iter()
        .flat_map(|part| part.iter())
        .map(|c| {
            let mut e = LinExpr::zero(total);
            for (i, &v) in c.expr.var_coeffs.iter().enumerate() {
                e.var_coeffs[i] = v;
            }
            for (j, &p) in ids.iter().enumerate() {
                e.var_coeffs[nvars + j] = c.expr.param_coeff_id(p);
            }
            e.constant = c.expr.constant;
            Constraint {
                expr: e,
                kind: c.kind,
            }
        })
        .collect();
    (out, total)
}

/// Rational feasibility of a constraint system over `nvars` positional
/// variables, with parameters treated existentially.
///
/// Returns `false` only when the system has no rational solution for any
/// parameter values (and hence certainly no integer solution).
pub fn is_feasible_in(engine: &EngineCtx, constraints: &[Constraint], nvars: usize) -> bool {
    engine.counters().bump_feasibility_check();
    engine
        .query_cache()
        .feasibility(engine.counters(), constraints, nvars, || {
            feasible_raw(engine, &[constraints], nvars)
        })
}

/// The uncached feasibility kernel over a system given in parts.
fn feasible_raw(engine: &EngineCtx, parts: &[&[Constraint]], nvars: usize) -> bool {
    let (cur, total) = parametrize_parts(engine, parts, nvars);
    let cur = prune(engine, cur);
    feasible_rec(engine, cur, total)
}

/// The recursive feasibility kernel over a fully parametrized system.
///
/// Every intermediate `(system, remaining-vars)` state is memoized in the
/// session's feasibility cache (under the same key a top-level query of that
/// exact system would use), so sibling queries that differ only in a few
/// constraints converge onto shared elimination chains instead of redoing
/// the whole cascade — the dominant cost of a stencil candidate sweep, where
/// tens of thousands of near-identical systems funnel into a much smaller
/// set of post-elimination states. Each level consults the cache (bumping
/// `FEASIBILITY_CHECKS`, so the hit rate stays a true fraction) and picks
/// its elimination variable greedily via [`pick_elimination_var`].
fn feasible_rec(engine: &EngineCtx, cur: Vec<Constraint>, total: usize) -> bool {
    if cur.iter().any(|c| c.is_trivially_false()) {
        return false;
    }
    if cur.is_empty() || total == 0 {
        // No constraints left (every remaining variable is free), or only
        // non-contradictory variable-free constraints remain.
        return true;
    }
    engine.counters().bump_feasibility_check();
    engine
        .query_cache()
        .feasibility_owned(engine.counters(), cur, total, |cur| {
            let idx = pick_elimination_var(engine, &cur, total);
            let next = eliminate_var_owned_in(engine, cur, idx);
            feasible_rec(engine, next, total - 1)
        })
}

/// Greedy eliminate-variable ordering: picks the variable whose elimination
/// is estimated to leave the smallest system, instead of the fixed
/// highest-index-first order. A variable pinned by an equality substitutes
/// away at cost `m − 1`; a pure-inequality variable with `p` lower and `n`
/// upper bounds leaves `m − p − n + p·n` constraints. Ties break toward the
/// highest index (the historical default), and a non-default pick bumps
/// `GREEDY_REORDERS`.
fn pick_elimination_var(engine: &EngineCtx, cur: &[Constraint], total: usize) -> usize {
    let mut best = total - 1;
    let mut best_score = elimination_score(cur, best);
    for idx in (0..total - 1).rev() {
        let score = elimination_score(cur, idx);
        if score < best_score {
            best = idx;
            best_score = score;
        }
    }
    if best != total - 1 {
        engine.counters().bump_greedy_reorder();
    }
    best
}

/// Estimated constraint count after eliminating `idx` (see
/// [`pick_elimination_var`]).
fn elimination_score(cur: &[Constraint], idx: usize) -> usize {
    let mut pos = 0usize;
    let mut neg = 0usize;
    for c in cur {
        let a = c.expr.var_coeffs[idx];
        if a == 0 {
            continue;
        }
        if c.kind == ConstraintKind::Equality {
            return cur.len() - 1;
        }
        if a > 0 {
            pos += 1;
        } else {
            neg += 1;
        }
    }
    cur.len() - pos - neg + pos * neg
}

/// Checks whether `constraints ⊨ target` (every rational point of the system
/// satisfies the target constraint), parameters universally quantified.
///
/// Sound but not complete: a `true` answer is always correct.
pub fn implies_in(
    engine: &EngineCtx,
    constraints: &[Constraint],
    nvars: usize,
    target: &Constraint,
) -> bool {
    engine.counters().bump_entailment_check();
    engine
        .query_cache()
        .entailment(engine.counters(), constraints, nvars, target, || {
            match target.kind {
                ConstraintKind::Inequality => {
                    // constraints ∧ (target < 0) infeasible, i.e. target <= -1.
                    // Calls the raw kernel: the entailment cache above already
                    // keys this exact query, so a second (feasibility-keyed)
                    // lookup of the augmented system would only add
                    // fingerprint overhead.
                    let mut neg = target.expr.scale(-1);
                    neg.constant -= 1;
                    !feasible_raw(
                        engine,
                        &[constraints, std::slice::from_ref(&Constraint::ge0(neg))],
                        nvars,
                    )
                }
                ConstraintKind::Equality => {
                    let ge = Constraint::ge0(target.expr.clone());
                    let le = Constraint::ge0(target.expr.scale(-1));
                    implies_in(engine, constraints, nvars, &ge)
                        && implies_in(engine, constraints, nvars, &le)
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn var(n: usize, i: usize) -> LinExpr {
        LinExpr::var(n, i)
    }
    fn cst(n: usize, c: i128) -> LinExpr {
        LinExpr::constant(n, c)
    }

    /// Runs a test body inside a fresh session (so parameter construction
    /// and the queries agree on one interner).
    fn in_session(f: impl FnOnce(&Arc<EngineCtx>)) {
        let engine = EngineCtx::new();
        engine.clone().scope(|| f(&engine));
    }

    fn par(n: usize, p: &str) -> LinExpr {
        LinExpr::param(n, p)
    }

    #[test]
    fn feasible_box() {
        in_session(|e| {
            // 0 <= x < N (with N symbolic) is feasible.
            let cs = vec![
                Constraint::ge0(var(1, 0)),
                Constraint::ge0(par(1, "N").sub(&var(1, 0)).sub(&cst(1, 1))),
            ];
            assert!(is_feasible_in(e, &cs, 1));
            assert!(e.stats().FEASIBILITY_CHECKS >= 1);
        });
    }

    #[test]
    fn infeasible_contradiction() {
        in_session(|e| {
            // x >= 5 and x <= 2.
            let cs = vec![
                Constraint::ge0(var(1, 0).sub(&cst(1, 5))),
                Constraint::ge0(cst(1, 2).sub(&var(1, 0))),
            ];
            assert!(!is_feasible_in(e, &cs, 1));
        });
    }

    #[test]
    fn infeasible_with_params() {
        in_session(|e| {
            // x >= N and x <= N - 1 is infeasible for every N.
            let cs = vec![
                Constraint::ge0(var(1, 0).sub(&par(1, "N"))),
                Constraint::ge0(par(1, "N").sub(&cst(1, 1)).sub(&var(1, 0))),
            ];
            assert!(!is_feasible_in(e, &cs, 1));
        });
    }

    #[test]
    fn elimination_projects_rectangle() {
        in_session(|e| {
            // {(x, y) : 0 <= x <= 3, x <= y <= x + 2}; eliminating y gives 0 <= x <= 3.
            let cs = vec![
                Constraint::ge0(var(2, 0)),
                Constraint::ge0(cst(2, 3).sub(&var(2, 0))),
                Constraint::ge0(var(2, 1).sub(&var(2, 0))),
                Constraint::ge0(var(2, 0).add(&cst(2, 2)).sub(&var(2, 1))),
            ];
            let projected = eliminate_var_in(e, &cs, 1);
            assert!(is_feasible_in(e, &projected, 1));
            // x = 5 violates the projection.
            let mut with_point = projected.clone();
            with_point.push(Constraint::eq(var(1, 0).sub(&cst(1, 5))));
            assert!(!is_feasible_in(e, &with_point, 1));
            // x = 2 satisfies it.
            let mut ok = projected;
            ok.push(Constraint::eq(var(1, 0).sub(&cst(1, 2))));
            assert!(is_feasible_in(e, &ok, 1));
        });
    }

    #[test]
    fn elimination_uses_equalities() {
        in_session(|e| {
            // {(x, y) : y = x + 1, 0 <= y <= 4} projected on x gives -1 <= x <= 3.
            let cs = vec![
                Constraint::eq(var(2, 1).sub(&var(2, 0)).sub(&cst(2, 1))),
                Constraint::ge0(var(2, 1)),
                Constraint::ge0(cst(2, 4).sub(&var(2, 1))),
            ];
            let projected = eliminate_var_in(e, &cs, 1);
            let mut lo = projected.clone();
            lo.push(Constraint::eq(var(1, 0).add(&cst(1, 1))));
            assert!(is_feasible_in(e, &lo, 1)); // x = -1 allowed
            let mut hi = projected.clone();
            hi.push(Constraint::eq(var(1, 0).sub(&cst(1, 4))));
            assert!(!is_feasible_in(e, &hi, 1)); // x = 4 excluded
        });
    }

    #[test]
    fn implication_with_context() {
        in_session(|e| {
            // In {0 <= i < N, N >= 10}, the constraint i <= N + 5 is implied.
            let cs = vec![
                Constraint::ge0(var(1, 0)),
                Constraint::ge0(par(1, "N").sub(&var(1, 0)).sub(&cst(1, 1))),
                Constraint::ge0(par(1, "N").sub(&cst(1, 10))),
            ];
            let target = Constraint::ge0(par(1, "N").add(&cst(1, 5)).sub(&var(1, 0)));
            assert!(implies_in(e, &cs, 1, &target));
            // But i >= 1 is not implied (i = 0 is allowed).
            let not_implied = Constraint::ge0(var(1, 0).sub(&cst(1, 1)));
            assert!(!implies_in(e, &cs, 1, &not_implied));
        });
    }

    #[test]
    fn implication_of_equality() {
        in_session(|e| {
            // {x = 3} implies x = 3 and not x = 4.
            let cs = vec![Constraint::eq(var(1, 0).sub(&cst(1, 3)))];
            assert!(implies_in(
                e,
                &cs,
                1,
                &Constraint::eq(var(1, 0).sub(&cst(1, 3)))
            ));
            assert!(!implies_in(
                e,
                &cs,
                1,
                &Constraint::eq(var(1, 0).sub(&cst(1, 4)))
            ));
        });
    }

    #[test]
    fn normalization_divides_gcd() {
        // 4x - 8 >= 0 rescales exactly to x - 2 >= 0.
        let c = Constraint::ge0(var(1, 0).scale(4).sub(&cst(1, 8)));
        let n = normalize(&c);
        assert_eq!(n.expr.var_coeffs, vec![1]);
        assert_eq!(n.expr.constant, -2);
        // 4x - 6 >= 0 is left alone: dividing would floor the constant and
        // tighten the rational points (x >= 3/2 is not x >= 2).
        let c = Constraint::ge0(var(1, 0).scale(4).sub(&cst(1, 6)));
        assert_eq!(normalize(&c), c);
    }

    #[test]
    fn eliminate_vars_multi() {
        in_session(|e| {
            // {(x, y, z) : x = y, y = z, 0 <= z <= 2} projected to x.
            let cs = vec![
                Constraint::eq(var(3, 0).sub(&var(3, 1))),
                Constraint::eq(var(3, 1).sub(&var(3, 2))),
                Constraint::ge0(var(3, 2)),
                Constraint::ge0(cst(3, 2).sub(&var(3, 2))),
            ];
            let projected = eliminate_vars_in(e, &cs, vec![1, 2]);
            let mut ok = projected.clone();
            ok.push(Constraint::eq(var(1, 0).sub(&cst(1, 2))));
            assert!(is_feasible_in(e, &ok, 1));
            let mut bad = projected;
            bad.push(Constraint::eq(var(1, 0).sub(&cst(1, 3))));
            assert!(!is_feasible_in(e, &bad, 1));
        });
    }
}
