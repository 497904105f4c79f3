//! Differential fuzz oracle for the exact Fourier–Motzkin core.
//!
//! Three seeded corpora of 256 random affine systems each are answered twice:
//! by the engine (`fm::is_feasible_in`, `fm::implies_in`) and by an
//! independent reference, the exact-rational two-phase simplex of
//! `iolb-math`. The engine decides *rational* feasibility with parameters
//! treated as free existential variables, so the reference builds one LP per
//! query over free columns — positional variables first, then the
//! parameters — each split as `x = x⁺ − x⁻` because LP variables are
//! non-negative:
//!
//! * feasibility: the system's rows, zero objective; infeasible iff the
//!   simplex reports `Infeasible`;
//! * entailment of `e ≥ 0`: the system plus the integer-style negation
//!   `−e − 1 ≥ 0` is infeasible; an equality target `e = 0` needs both
//!   halves, `e ≥ 0` and `−e ≥ 0`.
//!
//! The reference reads the session-independent *specs* (plain coefficient
//! tuples) directly; the engine side materializes them inside its session.
//! The generator is the same deterministic xorshift used by
//! `interned_semantics.rs` (no external crates in this container).

use iolb_math::{LinearConstraint, LinearProgram, LpResult, Rational};
use iolb_poly::{fm, Constraint, EngineCtx, LinExpr};

/// Deterministic xorshift generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() % (hi - lo + 1) as u64) as i128
    }
}

const PARAMS: [&str; 3] = ["N", "M", "S"];
const ROUNDS: usize = 256;

/// A session-independent constraint description: variable coefficients, one
/// optional parameter term, a constant, and the equality flag.
#[derive(Clone, Debug, PartialEq)]
struct ConstraintSpec {
    var_coeffs: Vec<i128>,
    param: Option<(usize, i128)>,
    constant: i128,
    equality: bool,
}

impl ConstraintSpec {
    fn random(rng: &mut Rng, nvars: usize) -> ConstraintSpec {
        ConstraintSpec {
            var_coeffs: (0..nvars).map(|_| rng.range(-4, 4)).collect(),
            // Parameters appear in roughly half the constraints so both the
            // purely existential and the parametric column layouts get
            // exercised.
            param: (rng.range(0, 1) == 1).then(|| {
                (
                    rng.range(0, PARAMS.len() as i128 - 1) as usize,
                    rng.range(-3, 3),
                )
            }),
            constant: rng.range(-8, 8),
            equality: rng.range(0, 5) == 0,
        }
    }

    /// Materializes the spec in the *current* session (parameter interning
    /// is session-scoped).
    fn build(&self) -> Constraint {
        let nvars = self.var_coeffs.len();
        let mut e = LinExpr::zero(nvars);
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            e = e.add(&LinExpr::var(nvars, i).scale(c));
        }
        if let Some((p, c)) = self.param {
            e = e.add(&LinExpr::param(nvars, PARAMS[p]).scale(c));
        }
        e = e.add(&LinExpr::constant(nvars, self.constant));
        if self.equality {
            Constraint::eq(e)
        } else {
            Constraint::ge0(e)
        }
    }

    /// `−e ≥ 0` for the spec's expression `e`.
    fn flipped(&self) -> ConstraintSpec {
        ConstraintSpec {
            var_coeffs: self.var_coeffs.iter().map(|a| -a).collect(),
            param: self.param.map(|(p, c)| (p, -c)),
            constant: -self.constant,
            equality: false,
        }
    }

    /// `−e − 1 ≥ 0`: the integer-style negation of the inequality `e ≥ 0`.
    fn negated(&self) -> ConstraintSpec {
        let mut negation = self.flipped();
        negation.constant -= 1;
        negation
    }

    /// `e ≥ 0` for the spec's expression `e`, whatever its kind.
    fn as_inequality(&self) -> ConstraintSpec {
        ConstraintSpec {
            equality: false,
            ..self.clone()
        }
    }

    /// The row `a·x ≥ −k` (or `= −k`) over the split free columns.
    fn lp_row(&self) -> LinearConstraint {
        let nvars = self.var_coeffs.len();
        let ncols = nvars + PARAMS.len();
        let mut coeffs = vec![Rational::ZERO; 2 * ncols];
        let mut set = |col: usize, a: i128| {
            coeffs[col] = Rational::from_int(a);
            coeffs[ncols + col] = Rational::from_int(-a);
        };
        for (i, &a) in self.var_coeffs.iter().enumerate() {
            set(i, a);
        }
        if let Some((p, a)) = self.param {
            set(nvars + p, a);
        }
        let rhs = Rational::from_int(-self.constant);
        if self.equality {
            LinearConstraint::eq(coeffs, rhs)
        } else {
            LinearConstraint::ge(coeffs, rhs)
        }
    }
}

/// The reference: exact-simplex rational feasibility of a system over
/// `nvars` variables and the free parameters.
fn simplex_feasible(rows: &[ConstraintSpec], nvars: usize) -> bool {
    let width = 2 * (nvars + PARAMS.len());
    let mut lp = LinearProgram::minimize(vec![Rational::ZERO; width]);
    for row in rows {
        lp.add_constraint(row.lp_row());
    }
    lp.solve() != LpResult::Infeasible
}

/// The reference entailment: every rational point of `sys` satisfies
/// `target`, for every parameter value.
fn simplex_implies(sys: &[ConstraintSpec], nvars: usize, target: &ConstraintSpec) -> bool {
    let holds = |ge: &ConstraintSpec| {
        let mut rows = sys.to_vec();
        rows.push(ge.negated());
        !simplex_feasible(&rows, nvars)
    };
    let ge = target.as_inequality();
    holds(&ge) && (!target.equality || holds(&ge.flipped()))
}

/// A random system of 2–8 constraints, mostly inequalities with the
/// occasional equality (equalities drive the substitution path of the
/// elimination kernel and the equality row shape of the LP).
fn random_system(rng: &mut Rng, nvars: usize) -> Vec<ConstraintSpec> {
    let n = rng.range(2, 8) as usize;
    (0..n).map(|_| ConstraintSpec::random(rng, nvars)).collect()
}

/// One query round: a system over `nvars` variables and a target.
struct Round {
    nvars: usize,
    sys: Vec<ConstraintSpec>,
    target: ConstraintSpec,
}

/// Answers every round with the engine (one session for the corpus, so the
/// query cache is exercised too) and with the simplex reference, asserts
/// that they agree, and that the corpus is two-sided: both feasibility
/// verdicts occur, and on feasible systems both entailment verdicts occur.
fn check_corpus(name: &str, rounds: &[Round]) {
    let engine = EngineCtx::new();
    let mut feasible = 0usize;
    let mut entailed_and_feasible = 0usize;
    for (round, r) in rounds.iter().enumerate() {
        let (f, i) = engine.scope(|| {
            let built: Vec<Constraint> = r.sys.iter().map(ConstraintSpec::build).collect();
            let e = EngineCtx::current();
            (
                fm::is_feasible_in(&e, &built, r.nvars),
                fm::implies_in(&e, &built, r.nvars, &r.target.build()),
            )
        });
        assert_eq!(
            f,
            simplex_feasible(&r.sys, r.nvars),
            "{name} round {round}: feasibility disagrees with the simplex on {:?}",
            r.sys
        );
        assert_eq!(
            i,
            simplex_implies(&r.sys, r.nvars, &r.target),
            "{name} round {round}: entailment disagrees with the simplex on {:?} ⊨ {:?}",
            r.sys,
            r.target
        );
        feasible += f as usize;
        entailed_and_feasible += (f && i) as usize;
    }
    assert!(
        feasible > 0 && feasible < rounds.len(),
        "{name}: one-sided feasibility ({feasible}/{})",
        rounds.len()
    );
    assert!(
        entailed_and_feasible > 0 && entailed_and_feasible < feasible,
        "{name}: one-sided entailment on feasible systems \
         ({entailed_and_feasible}/{feasible})"
    );
}

#[test]
fn feasibility_and_entailment_agree_with_the_simplex() {
    let mut rng = Rng(0xD1FF_FEA5);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| {
            let nvars = rng.range(1, 4) as usize;
            let sys = random_system(&mut rng, nvars);
            let target = ConstraintSpec::random(&mut rng, nvars).as_inequality();
            Round { nvars, sys, target }
        })
        .collect();
    check_corpus("open systems", &rounds);
}

#[test]
fn box_bounded_systems_agree_with_the_simplex() {
    let mut rng = Rng(0xCA4D_C0DE);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| {
            let nvars = rng.range(1, 3) as usize;
            let mut sys = random_system(&mut rng, nvars);
            // Bound every variable into a box, so a larger share of the
            // feasible systems is bounded and entails its targets.
            for i in 0..nvars {
                let mut lo = vec![0; nvars];
                lo[i] = 1;
                sys.push(ConstraintSpec {
                    var_coeffs: lo.clone(),
                    param: None,
                    constant: 0,
                    equality: false,
                });
                let mut hi = lo;
                hi[i] = -1;
                sys.push(ConstraintSpec {
                    var_coeffs: hi,
                    param: None,
                    constant: rng.range(1, 6),
                    equality: false,
                });
            }
            let target = ConstraintSpec::random(&mut rng, nvars).as_inequality();
            Round { nvars, sys, target }
        })
        .collect();
    check_corpus("box-bounded systems", &rounds);
}

#[test]
fn equality_targets_check_both_halves_against_the_simplex() {
    let mut rng = Rng(0xB0D5_5EED);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| {
            let nvars = rng.range(1, 3) as usize;
            let sys = random_system(&mut rng, nvars);
            // `e = 0` for one of the system's own constraints `e`: implied
            // outright when `e` is an equality of the system, and only half
            // implied (`e ≥ 0`) when it is an inequality the rest does not
            // pin from above.
            let pick = rng.range(0, sys.len() as i128 - 1) as usize;
            let target = ConstraintSpec {
                equality: true,
                ..sys[pick].clone()
            };
            Round { nvars, sys, target }
        })
        .collect();
    check_corpus("equality targets", &rounds);
}
