//! The main IOLB procedure (`program_Q`, Algorithm 6).
//!
//! For every loop-parametrization depth and every statement, the driver
//! gathers chain/broadcast paths on a shrinking working copy of the DFG,
//! maintains the kernel subgroup lattice, derives K-partition and wavefront
//! bounds, sums parametrized bounds over their slicing parameter, and finally
//! combines the non-interfering candidates (Lemma 4.2) on top of the
//! compulsory-miss term `input_size(G)`.

use crate::bound::{Instance, LowerBound};
use crate::decompose::{combine_sub_bounds, dim_bounds, input_size, sum_over_parameter};
use crate::partition::{partition_bound, PartitionInput};
use crate::wavefront::{wavefront_bound, WavefrontInput};
use iolb_dfg::{genpaths, Dfg, DfgPath, GenPathsOptions};
use iolb_math::Lattice;
use iolb_poly::{count, Context, EngineInterrupt, UnionSet};
use iolb_symbol::Expr;

/// Most subspaces a statement's kernel lattice may hold. A handful of reuse
/// directions is enough for a tight exponent, and very large lattices make
/// the exact-rational LP blow up (the analogue of the paper's
/// projection-count time-out). The cap is also the closure's only
/// termination guard: lattices generated by subspaces need not be finite.
const LATTICE_MAX_MEMBERS: usize = 24;

/// Configuration of the analysis.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Name of the fast-memory capacity parameter.
    pub cache_param: String,
    /// Parameter instances used for the combination heuristics (Sec. 7.2).
    pub instances: Vec<Instance>,
    /// Parameter context (assumptions such as `N ≥ 2`) for symbolic counting.
    pub ctx: Context,
    /// Path-generation budget.
    pub genpaths: GenPathsOptions,
    /// Maximum loop-parametrization depth explored (0 = only the global,
    /// unparametrized analysis; 1 also slices the outermost loop, …).
    pub max_parametrization_depth: usize,
    /// Fraction `γ` of the statement domain a path must cover to be kept
    /// (Algorithm 6, line 12), as a pair (numerator, denominator).
    pub gamma: (u64, u64),
    /// Maximum number of path-combination rounds per statement (how many
    /// disjoint sub-CDAGs of the same statement may be discovered, e.g. the
    /// two triangles of floyd-warshall / Example 3).
    pub max_rounds_per_statement: usize,
    /// Fan the per-statement / per-depth candidate derivations out over OS
    /// threads. Candidates are re-assembled in the deterministic serial
    /// order before the Lemma-4.2 combination step, so the result is
    /// byte-identical to a serial run.
    pub parallel: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            cache_param: "S".to_string(),
            instances: vec![Instance::from_pairs(&[("S", 512)])],
            ctx: Context::empty(),
            genpaths: GenPathsOptions::default(),
            max_parametrization_depth: 1,
            gamma: (1, 4),
            max_rounds_per_statement: 3,
            parallel: true,
        }
    }
}

impl AnalysisOptions {
    /// Creates options with a default instance where every listed parameter
    /// takes the given value and the cache parameter takes `cache_value`.
    pub fn with_default_instance(params: &[&str], value: i128, cache_value: i128) -> Self {
        AnalysisOptions::default().with_instance_defaults(params, value, cache_value)
    }

    /// Fills in the default context and heuristic instance on top of `self`:
    /// every listed parameter takes `value` (and is assumed `≥ 4`), and the
    /// options' **own** [`cache_param`](AnalysisOptions::cache_param) — not a
    /// hard-coded `"S"` — takes `cache_value`.
    pub fn with_instance_defaults(
        mut self,
        params: &[&str],
        value: i128,
        cache_value: i128,
    ) -> Self {
        let mut inst = Instance::new().set(&self.cache_param, cache_value);
        let mut ctx = Context::empty();
        for p in params {
            inst = inst.set(p, value);
            ctx = ctx.assume_ge(p, 4);
        }
        self.instances = vec![inst];
        self.ctx = ctx;
        self
    }
}

/// How far an interrupted analysis got before its budget tripped (see
/// [`analyze_interruptible`]): the sweep progress plus the limit that fired.
/// A degraded analysis still carries a *valid* (just possibly weaker) lower
/// bound — every candidate it kept was fully proven before the interrupt.
#[derive(Clone, Debug)]
pub struct Degradation {
    /// The budget limit that tripped first.
    pub interrupt: EngineInterrupt,
    /// Candidate-derivation jobs that ran to completion.
    pub sweep_completed: usize,
    /// Total candidate-derivation jobs in the sweep.
    pub sweep_total: usize,
}

/// The result of analysing a program.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The complete parametric lower bound `Q_low` on the number of loads.
    pub q_low: Expr,
    /// The compulsory-miss (input-size) term included in `q_low`.
    pub input_size: iolb_symbol::Poly,
    /// The candidate bounds that were accepted into the combination.
    pub accepted: Vec<LowerBound>,
    /// All candidate bounds that were derived (accepted or not).
    pub candidates: Vec<LowerBound>,
    /// Total operation count of the program (symbolic).
    pub total_ops: Option<iolb_symbol::Poly>,
    /// Name of the cache-capacity parameter.
    pub cache_param: String,
    /// `Some` when a budget interrupted the candidate sweep and `q_low` is
    /// the best bound proven *before* the interrupt (still valid, possibly
    /// weaker than an unbudgeted run's). `None` for a complete analysis.
    pub degradation: Option<Degradation>,
}

impl Analysis {
    /// The asymptotically dominant form `Q∞` of the bound.
    pub fn q_asymptotic(&self) -> iolb_symbol::Poly {
        iolb_symbol::asymptotic::simplify(&self.q_low, &self.cache_param)
    }

    /// Evaluates `Q_low` at a parameter instance.
    pub fn q_at(&self, instance: &Instance) -> Option<f64> {
        self.q_low.eval_f64(&instance.as_f64_env())
    }
}

/// Runs the full IOLB analysis on a DFG (Algorithm 6).
///
/// Equivalent to [`analyze_interruptible`] for unbudgeted sessions. When the
/// ambient session carries a budget and it trips before any valid bound
/// exists, the interrupt is re-raised (callers that want the typed error
/// should use [`analyze_interruptible`]).
pub fn analyze(dfg: &Dfg, options: &AnalysisOptions) -> Analysis {
    match analyze_interruptible(dfg, options) {
        Ok(analysis) => analysis,
        Err(interrupt) => interrupt.raise(),
    }
}

/// Runs the full IOLB analysis, degrading gracefully when the ambient
/// session's [budget](iolb_poly::Budget) trips.
///
/// The compulsory-miss term `input_size(G)` — itself a valid lower bound —
/// is computed **first**; interruption there is the hard-error case (no
/// valid bound exists yet). Once it is in hand, every later interrupt only
/// *degrades* the result: candidate-derivation jobs that trip are dropped
/// (each job's bounds are independent), and an interrupt during the
/// Lemma-4.2 combination falls back to the best single proven candidate by
/// pure arithmetic. The returned [`Analysis::degradation`] records the first
/// interrupt and the sweep progress.
pub fn analyze_interruptible(
    dfg: &Dfg,
    options: &AnalysisOptions,
) -> Result<Analysis, EngineInterrupt> {
    let ctx = &options.ctx;

    // The compulsory-miss term doubles as the minimal valid bound every
    // degraded outcome can fall back to, so it goes first.
    let (input, total_ops) = EngineInterrupt::catch(|| (input_size(dfg, ctx), dfg.total_ops(ctx)))?;

    let max_depth = dfg.statements().map(|s| s.domain.dim()).max().unwrap_or(0);

    // Candidate derivation is independent per (parametrization depth,
    // statement) pair — only the Lemma-4.2 combination below needs the whole
    // collection — so the jobs can fan out over threads. The job list and the
    // per-job candidate order are deterministic, and results are flattened in
    // job order, so parallel and serial runs produce identical candidates.
    // Each job catches its own interrupt *inside* the closure: thread-scope
    // panic propagation would lose the typed payload, and an interrupted job
    // must not discard its siblings' finished work.
    let mut jobs: Vec<(usize, String)> = Vec::new();
    for depth in 0..=options
        .max_parametrization_depth
        .min(max_depth.saturating_sub(1))
    {
        for stmt in dfg.statements() {
            if stmt.domain.dim() < depth + 1 {
                continue;
            }
            jobs.push((depth, stmt.name.clone()));
        }
    }
    type JobResult = Result<Vec<LowerBound>, EngineInterrupt>;
    let per_job: Vec<JobResult> = if options.parallel && jobs.len() > 1 {
        crate::par::parallel_map(&jobs, |(depth, name)| {
            EngineInterrupt::catch(|| derive_candidates(dfg, options, *depth, name))
        })
    } else {
        jobs.iter()
            .map(|(depth, name)| {
                EngineInterrupt::catch(|| derive_candidates(dfg, options, *depth, name))
            })
            .collect()
    };
    let sweep_total = per_job.len();
    let mut sweep_completed = 0;
    let mut first_interrupt: Option<EngineInterrupt> = None;
    let mut candidates: Vec<LowerBound> = Vec::new();
    for job in per_job {
        match job {
            Ok(bounds) => {
                sweep_completed += 1;
                candidates.extend(bounds);
            }
            Err(interrupt) => {
                if first_interrupt.is_none() {
                    first_interrupt = Some(interrupt);
                }
            }
        }
    }

    // --- Combine the candidates (Algorithm 1). ---
    // The combination itself issues engine queries (`may_spill`
    // intersections), so under an already-tripped budget it is caught too
    // and replaced by the best single proven candidate — any one candidate
    // plus the input term is still a valid bound (Lemma 4.2 with a
    // singleton selection).
    let combination = EngineInterrupt::catch(|| {
        let mut best_expr = Expr::zero();
        let mut best_accepted: Vec<usize> = Vec::new();
        let mut best_value = f64::NEG_INFINITY;
        for inst in instances_or_default(options) {
            let (expr, accepted) = combine_sub_bounds(&candidates, &inst);
            let value = expr.eval_f64(&inst.as_f64_env()).unwrap_or(0.0);
            if value > best_value {
                best_value = value;
                best_expr = expr;
                best_accepted = accepted;
            }
        }
        (best_expr, best_accepted)
    });
    let (best_expr, best_accepted) = match combination {
        Ok(best) => best,
        Err(interrupt) => {
            if first_interrupt.is_none() {
                first_interrupt = Some(interrupt);
            }
            best_single_candidate(&candidates, &instances_or_default(options))
        }
    };

    let q_low = Expr::from_poly(input.clone()) + best_expr.max_with_zero();

    Ok(Analysis {
        q_low,
        input_size: input,
        accepted: best_accepted
            .iter()
            .map(|&i| candidates[i].clone())
            .collect(),
        candidates,
        total_ops,
        cache_param: options.cache_param.clone(),
        degradation: first_interrupt.map(|interrupt| Degradation {
            interrupt,
            sweep_completed,
            sweep_total,
        }),
    })
}

/// Pure-arithmetic fallback for an interrupted combination: the single
/// non-trivial candidate with the highest instance value. Needs no engine
/// queries, so it cannot trip the budget again.
fn best_single_candidate(candidates: &[LowerBound], instances: &[Instance]) -> (Expr, Vec<usize>) {
    let mut best: Option<(f64, usize)> = None;
    for (i, candidate) in candidates.iter().enumerate() {
        if candidate.is_trivial() {
            continue;
        }
        for inst in instances {
            let value = candidate.evaluate(inst);
            if best.is_none_or(|(best_value, _)| value > best_value) {
                best = Some((value, i));
            }
        }
    }
    match best {
        Some((_, i)) => (candidates[i].expr.clone().max_with_zero(), vec![i]),
        None => (Expr::zero(), Vec::new()),
    }
}

/// Derives every candidate bound for one (parametrization depth, statement)
/// pair: the K-partition bounds of the shrinking-working-copy rounds and, for
/// parametrized depths, the wavefront bound.
fn derive_candidates(
    dfg: &Dfg,
    options: &AnalysisOptions,
    depth: usize,
    stmt_name: &str,
) -> Vec<LowerBound> {
    let ctx = &options.ctx;
    let engine = iolb_poly::EngineCtx::current();
    let mut candidates: Vec<LowerBound> = Vec::new();
    let Some(stmt) = dfg.node(stmt_name) else {
        return candidates;
    };

    // Parametrize the outermost `depth` dimensions (Sec. 4.3).
    let omegas: Vec<String> = (0..depth).map(|k| format!("Omega{k}")).collect();
    let mut parametrized_domain = stmt.domain.clone();
    for (k, om) in omegas.iter().enumerate() {
        parametrized_domain = parametrized_domain.fix_dim_to_param(k, om);
    }
    let parametrized_dfg = if depth == 0 {
        dfg.clone()
    } else {
        restrict_statement(dfg, &stmt.name, &parametrized_domain)
    };

    // --- K-partition bounds on a shrinking working copy. ---
    let mut working = parametrized_dfg.clone();
    for _round in 0..options.max_rounds_per_statement {
        let Some(node) = working.node(&stmt.name) else {
            break;
        };
        let mut ds = node.domain.clone();
        if ds.is_empty() {
            break;
        }
        let all_paths = genpaths(&working, &stmt.name, &ds, &options.genpaths);
        if all_paths.is_empty() {
            break;
        }
        // Incrementally add paths whose kernel changes the lattice and
        // whose domain keeps covering a γ-fraction of D_S.
        let dim = ds.dim();
        let mut lattice = Lattice::new(dim);
        let mut selected: Vec<DfgPath> = Vec::new();
        for p in &all_paths {
            let path_dom = p.relation.range();
            let candidate_ds = ds.intersect(&path_dom);
            if !covers_gamma_fraction(&candidate_ds, &stmt.domain, ctx, options) {
                continue;
            }
            match lattice.insert_closure(&p.kernel(), LATTICE_MAX_MEMBERS) {
                Ok(closed) => {
                    engine.record_lattice_insertion(closed.steps, false);
                    // A kernel already represented adds only an extra
                    // projection with an existing kernel, which rarely
                    // improves the interference coefficients: skip it.
                    if closed.added > 0 {
                        ds = candidate_ds;
                        selected.push(p.clone());
                    }
                }
                Err(refused) => {
                    // The closure would outgrow the cap: skip this path.
                    engine.record_lattice_insertion(refused.steps, true);
                }
            }
        }
        if selected.is_empty() {
            break;
        }
        let pin = PartitionInput {
            paths: &selected,
            domain: &ds,
            lattice: &lattice,
            ctx,
            cache_param: &options.cache_param,
        };
        let Some(bound) = partition_bound(&pin) else {
            break;
        };
        let spill = bound.may_spill.clone();
        candidates.push(finalize(bound, depth, &omegas, &stmt.domain, dfg, ctx));
        // Shrink the working DFG and try to find another combination
        // (this is what decomposes lu / floyd-warshall per statement).
        working = working.restrict_domains(&spill);
    }

    // --- Wavefront bound for parametrized depths. ---
    if depth >= 1 {
        // The wavefront needs the advanced dimension to remain free in
        // the DFG (the step relation crosses slices), so only the
        // dimensions *before* it are restricted; the slice domain
        // additionally pins the advanced dimension to its Ω.
        let mut outer_domain = stmt.domain.clone();
        for (k, om) in omegas.iter().enumerate().take(depth - 1) {
            outer_domain = outer_domain.fix_dim_to_param(k, om);
        }
        let wavefront_dfg = if depth >= 2 {
            restrict_statement(dfg, &stmt.name, &outer_domain)
        } else {
            dfg.clone()
        };
        let win = WavefrontInput {
            dfg: &wavefront_dfg,
            statement: &stmt.name,
            slice_domain: &parametrized_domain,
            advance_dim: depth - 1,
            ctx,
            cache_param: &options.cache_param,
        };
        if let Some(bound) = wavefront_bound(&win) {
            candidates.push(finalize(bound, depth, &omegas, &stmt.domain, dfg, ctx));
        }
    }
    candidates
}

fn instances_or_default(options: &AnalysisOptions) -> Vec<Instance> {
    if options.instances.is_empty() {
        vec![Instance::new().set(&options.cache_param, 512)]
    } else {
        options.instances.clone()
    }
}

/// Restricts a statement's domain in a copy of the DFG (used for the
/// loop-parametrized slices).
fn restrict_statement(dfg: &Dfg, statement: &str, new_domain: &iolb_poly::BasicSet) -> Dfg {
    // Remove everything outside the new domain.
    let outside = dfg
        .node(statement)
        .map(|n| n.domain.to_set().subtract(&new_domain.to_set()))
        .unwrap_or_else(|| new_domain.to_set());
    let mut removal = UnionSet::empty();
    removal.add_set(outside);
    dfg.restrict_domains(&removal)
}

/// Post-processes a per-slice bound: for parametrized depths, sums it over
/// the slicing parameters; attaches an instance-independent may-spill set.
fn finalize(
    bound: LowerBound,
    depth: usize,
    omegas: &[String],
    statement_domain: &iolb_poly::BasicSet,
    dfg: &Dfg,
    ctx: &Context,
) -> LowerBound {
    if depth == 0 {
        return bound;
    }
    let mut current = bound;
    // Wavefront bounds connect slice Ω to slice Ω + 1, so the innermost
    // summation stops one slice early.
    let innermost = omegas.len().saturating_sub(1);
    // Sum innermost parametrized dimension first.
    for (k, omega) in omegas.iter().enumerate().rev() {
        let hi_offset = if k == innermost && current.technique == crate::bound::Technique::Wavefront
        {
            -1
        } else {
            0
        };
        match sum_over_parameter(&current, omega, statement_domain, k, hi_offset, ctx) {
            Some(summed) => current = summed,
            None => {
                // Could not safely sum over the slices: fall back to a single
                // representative slice, instantiated at the loop's lower
                // bound, which is still a valid bound for the whole program.
                let lo = dim_bounds(statement_domain, k, ctx)
                    .map(|(lo, _)| lo)
                    .unwrap_or_else(iolb_symbol::Poly::zero);
                current = LowerBound {
                    expr: current.expr.substitute(omega, &lo),
                    may_spill: spill_of_whole_statement(dfg, &current.statement),
                    ..current
                };
            }
        }
    }
    current
}

fn spill_of_whole_statement(dfg: &Dfg, statement: &str) -> UnionSet {
    let mut ms = UnionSet::empty();
    if let Some(n) = dfg.node(statement) {
        ms.add_set(n.domain.to_set());
    }
    ms
}

/// Checks that a candidate domain still covers at least a γ-fraction of the
/// statement domain, evaluated on a representative instance (the heuristic of
/// Algorithm 6, line 12).
fn covers_gamma_fraction(
    candidate: &iolb_poly::BasicSet,
    full: &iolb_poly::BasicSet,
    ctx: &Context,
    options: &AnalysisOptions,
) -> bool {
    let (num, den) = options.gamma;
    let engine = iolb_poly::EngineCtx::current();
    let Some(cand_card) = count::card_basic_in(&engine, candidate, ctx) else {
        return !candidate.is_empty();
    };
    let Some(full_card) = count::card_basic_in(&engine, full, ctx) else {
        return !candidate.is_empty();
    };
    let env: std::collections::BTreeMap<String, f64> = full_card
        .params()
        .into_iter()
        .chain(cand_card.params())
        .map(|p| (p, 64.0))
        .collect();
    let c = cand_card.eval_f64(&env).unwrap_or(0.0);
    let f = full_card.eval_f64(&env).unwrap_or(1.0);
    c * den as f64 >= f * num as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm() -> Dfg {
        Dfg::builder()
            .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
            .input("Cin", "[Ni, Nj] -> { Cin[i, j] : 0 <= i < Ni and 0 <= j < Nj }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                2,
            )
            .edge(
                "A",
                "C",
                "[Ni, Nj, Nk] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            )
            .edge(
                "B",
                "C",
                "[Ni, Nj, Nk] -> { B[k, j] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            )
            .edge(
                "Cin",
                "C",
                "[Ni, Nj, Nk] -> { Cin[i, j] -> C[i2, j2, k] : i2 = i and j2 = j and k = 0 and 0 <= i < Ni and 0 <= j < Nj }",
            )
            .edge(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn gemm_analysis_matches_table1() {
        let g = gemm();
        let mut options = AnalysisOptions::with_default_instance(&["Ni", "Nj", "Nk"], 512, 1024);
        options.max_parametrization_depth = 0;
        let analysis = analyze(&g, &options);
        // Leading term of Q_low must be 2·Ni·Nj·Nk/√S (Table 2, gemm).
        let lead = analysis.q_asymptotic();
        assert_eq!(lead.to_string(), "2*Ni*Nj*Nk*S^(-1/2)");
        // OI_up = #ops / Q∞ = √S.
        let ops = analysis.total_ops.clone().unwrap();
        let oi = iolb_symbol::asymptotic::asymptotic_ratio(&ops, &analysis.q_low, "S").unwrap();
        assert_eq!(oi.to_string(), "S^(1/2)");
        // The bound includes the compulsory misses.
        assert_eq!(analysis.input_size.to_string(), "Ni*Nj + Ni*Nk + Nj*Nk");
    }

    #[test]
    fn budget_tripping_before_any_bound_is_a_hard_error() {
        use iolb_poly::{Budget, EngineCtx, EngineInterrupt};

        let engine = EngineCtx::new();
        // One FM step cannot even finish the compulsory-miss term, so no
        // valid bound exists and the interrupt surfaces as an error. The
        // DFG and options are built inside the scope (session binding).
        engine.install_budget(Budget::none().max_fm_steps(1));
        let result = engine.scope(|| {
            let g = gemm();
            let mut options =
                AnalysisOptions::with_default_instance(&["Ni", "Nj", "Nk"], 512, 1024);
            options.max_parametrization_depth = 0;
            options.parallel = false;
            analyze_interruptible(&g, &options)
        });
        assert_eq!(result.unwrap_err(), EngineInterrupt::FmSteps { limit: 1 });
    }

    #[test]
    fn budget_tripping_mid_sweep_degrades_but_keeps_the_input_term() {
        use iolb_poly::{Budget, EngineCtx};

        fn serial_gemm_options() -> AnalysisOptions {
            let mut options =
                AnalysisOptions::with_default_instance(&["Ni", "Nj", "Nk"], 512, 1024);
            options.max_parametrization_depth = 0;
            options.parallel = false;
            options
        }

        // Measure (in throwaway cold sessions) how many FM steps the
        // compulsory-miss term alone needs, and how many the full analysis
        // needs; a limit between the two trips mid-sweep deterministically.
        // Every session builds its own DFG and options (session binding).
        let probe = EngineCtx::new();
        let input_steps = probe.scope(|| {
            let _ = input_size(&gemm(), &serial_gemm_options().ctx);
            probe.stats().FM_ELIMINATIONS
        });
        let full = EngineCtx::new();
        let (full_steps, full_input, full_degradation) = full.scope(|| {
            let analysis = analyze(&gemm(), &serial_gemm_options());
            (
                full.stats().FM_ELIMINATIONS,
                analysis.input_size.to_string(),
                analysis.degradation,
            )
        });
        assert!(
            full_steps > input_steps + 1,
            "gemm's candidate sweep must dominate the step count"
        );
        assert!(full_degradation.is_none());
        let limit = input_steps + (full_steps - input_steps) / 2;

        let engine = EngineCtx::new();
        engine.install_budget(Budget::none().max_fm_steps(limit));
        let degraded = engine
            .scope(|| analyze_interruptible(&gemm(), &serial_gemm_options()))
            .expect("interrupt after the input term must degrade, not fail");
        let degradation = degraded.degradation.expect("budget tripped mid-sweep");
        assert_eq!(degradation.interrupt.code(), "fm_steps");
        assert!(degradation.sweep_total > 0);
        assert!(degradation.sweep_completed < degradation.sweep_total);
        // The degraded bound still carries the compulsory-miss term — a
        // valid (if weaker) lower bound.
        assert_eq!(degraded.input_size.to_string(), full_input);
    }

    #[test]
    fn streaming_kernel_gets_input_size_bound() {
        // A pure streaming kernel (no reuse): Q_low should be the input size.
        let g = Dfg::builder()
            .input("X", "[N] -> { X[i] : 0 <= i < N }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap();
        let options = AnalysisOptions::with_default_instance(&["N"], 1024, 128);
        let analysis = analyze(&g, &options);
        assert_eq!(analysis.q_asymptotic().to_string(), "N");
        let v = analysis
            .q_at(&Instance::from_pairs(&[("N", 1000), ("S", 128)]))
            .unwrap();
        assert!(v >= 1000.0);
    }
}
