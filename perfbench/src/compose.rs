//! The analysis as a composition of the layers' public calls, each wrapped
//! in a span: workload preparation (frontend + dataflow), preflight, the
//! driver, the trace walker and cache simulators, and report rendering.
//!
//! This mirrors what `Analyzer::analyze` / `analyze_with_tightness` do
//! inside one engine session, so the traced run can time every layer while
//! the untraced run keeps calling the `Analyzer` itself. Every traced
//! request is checked against the untraced path's `q_low` (and counters),
//! so a drift between the two shows as a failed check.

use crate::trace::Tracer;
use iolb_core::tightness::{generate_trace, simulate_lru, simulate_optimal};
use iolb_core::{
    analyze_interruptible, AnalysisOutcome, Analyzer, Instance, Report, TightnessOptions, Workload,
};
use iolb_poly::stats::Snapshot;
use iolb_poly::EngineCtx;
use std::sync::Arc;

/// The result-shaping knobs the benchmark uses, applied exactly as the
/// `Analyzer` builder applies them.
#[derive(Clone, Copy, Default)]
pub struct Knobs {
    pub depth: Option<usize>,
    pub cache_size: Option<i128>,
}

impl Knobs {
    pub fn analyzer(&self) -> Analyzer {
        let mut analyzer = Analyzer::new().parallel(false);
        if let Some(depth) = self.depth {
            analyzer = analyzer.max_parametrization_depth(depth);
        }
        if let Some(size) = self.cache_size {
            analyzer = analyzer.cache_size(size);
        }
        analyzer
    }
}

/// One simulated (instance, cache size) point.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub cache_words: usize,
    pub lru_misses: u64,
    pub opt_misses: u64,
    pub q_low: f64,
}

/// Trace-simulation settings of a request.
pub struct Simulation<'a> {
    pub instance: &'a Instance,
    pub cache_words: &'a [usize],
    pub max_trace: u64,
}

/// What a composed (traced) analysis produced.
pub struct Composed {
    pub report: Report,
    pub report_json: String,
    pub stats: Snapshot,
    pub cache_entries: usize,
    pub accesses: u64,
    pub points: Vec<Point>,
}

/// Runs one analysis as traced public calls in `engine` (a fresh session
/// for a cold request, a reused one for a warm request).
pub fn analyze(
    tracer: &mut Tracer,
    engine: &Arc<EngineCtx>,
    workload: &dyn Workload,
    knobs: Knobs,
    simulation: Option<&Simulation<'_>>,
) -> Result<Composed, String> {
    engine.scope(|| {
        let before = engine.stats();
        let prepared = tracer
            .span("frontend.prepare", || workload.prepare())
            .map_err(|e| e.to_string())?;
        let mut options = prepared
            .options
            .clone()
            .unwrap_or_else(|| Analyzer::default_options_for(&prepared.params));
        options.parallel = false;
        if let Some(depth) = knobs.depth {
            options.max_parametrization_depth = depth;
        }
        if let Some(size) = knobs.cache_size {
            let param = options.cache_param.clone();
            options.instances = options
                .instances
                .into_iter()
                .map(|inst| inst.set(&param, size))
                .collect();
        }
        tracer.span("preflight", || {
            iolb_core::preflight::preflight(
                &prepared.name,
                &prepared.dfg,
                &prepared.params,
                &options.ctx,
                options.max_parametrization_depth,
                prepared.source.as_ref(),
            )
        });
        let analysis = tracer
            .span("driver", || analyze_interruptible(&prepared.dfg, &options))
            .map_err(|e| format!("interrupted: {}", e.code()))?;
        let mut accesses = 0;
        let mut points = Vec::new();
        if let Some(sim) = simulation {
            let trace = tracer
                .span("tightness.walk", || {
                    generate_trace(&prepared.dfg, sim.instance, sim.max_trace)
                })
                .map_err(|e| e.message)?;
            if trace.truncated {
                return Err(format!("trace truncated at {} accesses", trace.trace.len()));
            }
            accesses = trace.trace.len() as u64;
            for &c in sim.cache_words {
                let lru = tracer.span("cachesim.lru", || simulate_lru(&trace.trace, c));
                let opt = tracer.span("cachesim.opt", || simulate_optimal(&trace.trace, c));
                let at = sim.instance.clone().set(&analysis.cache_param, c as i128);
                points.push(Point {
                    cache_words: c,
                    lru_misses: lru.misses,
                    opt_misses: opt.misses,
                    q_low: analysis.q_at(&at).unwrap_or(f64::NAN),
                });
            }
        }
        let (report, report_json) = tracer.span("report.render", || {
            let report = Report::new(&prepared.name, analysis, prepared.ops.clone());
            let json = report.to_json();
            (report, json)
        });
        Ok(Composed {
            report,
            report_json,
            stats: engine.stats().delta_since(&before),
            cache_entries: engine.cache_len(),
            accesses,
            points,
        })
    })
}

/// The post-phase OPT reference runs every analysed workload at this value
/// of every parameter: the smallest the analysis contexts admit (they
/// assume each parameter is at least 8), so the walk stays cheap.
pub const REFERENCE_PARAM: i128 = 8;

/// Fast-memory sizes (words) of the reference simulation: below the
/// working set of the small instance, so misses exceed the compulsory ones.
pub const REFERENCE_CACHE_WORDS: [usize; 2] = [64, 256];

/// Trace budget of the reference walk; the largest small instance (heat-3d)
/// walks about 6,000 accesses.
pub const REFERENCE_MAX_TRACE: u64 = 1_000_000;

pub fn reference_instance(params: &[String]) -> Instance {
    params
        .iter()
        .fold(Instance::new(), |inst, p| inst.set(p, REFERENCE_PARAM))
}

/// The untraced reference: `workload` analysed through
/// `Analyzer::analyze_with_tightness` at `instance`, simulated under LRU
/// and OPT.
pub fn reference(
    workload: &dyn Workload,
    instance: &Instance,
    knobs: Knobs,
) -> Result<(AnalysisOutcome, u64, Vec<Point>), String> {
    let options = TightnessOptions::default()
        .instance(instance.clone())
        .cache_sizes(&REFERENCE_CACHE_WORDS)
        .opt(true)
        .max_trace(REFERENCE_MAX_TRACE);
    let outcome = knobs
        .analyzer()
        .analyze_with_tightness(workload, &options)
        .map_err(|e| e.to_string())?;
    let (accesses, points) = points_of(&outcome)?;
    Ok((outcome, accesses, points))
}

/// The simulated points of an untraced `analyze_with_tightness` outcome,
/// or why they are unusable (a skipped or truncated instance).
pub fn points_of(outcome: &AnalysisOutcome) -> Result<(u64, Vec<Point>), String> {
    let report = outcome.tightness.as_ref().ok_or("no tightness report")?;
    let mut accesses = 0;
    let mut points = Vec::new();
    for inst in &report.instances {
        if let Some(why) = &inst.skipped {
            return Err(format!("instance skipped: {why}"));
        }
        accesses += inst.trace_len;
        for c in &inst.caches {
            points.push(Point {
                cache_words: c.cache_words,
                lru_misses: c.lru.misses,
                opt_misses: c.opt.ok_or("OPT was not simulated")?.misses,
                q_low: c.q_low.unwrap_or(f64::NAN),
            });
        }
    }
    Ok((accesses, points))
}

/// The output check shared by every simulated point: Q_low ≤ OPT ≤ LRU.
/// OPT (Belady) misses are the independent reference: a lower bound must
/// hold for every schedule under optimal replacement.
pub fn check_points(points: &[Point]) -> Result<(), String> {
    if points.is_empty() {
        return Err("no simulated point".into());
    }
    for p in points {
        if !(p.q_low <= p.opt_misses as f64 && p.opt_misses <= p.lru_misses) {
            return Err(format!(
                "at S={}: Q_low={} OPT={} LRU={} (needs Q_low <= OPT <= LRU)",
                p.cache_words, p.q_low, p.opt_misses, p.lru_misses
            ));
        }
    }
    Ok(())
}

/// Tightness ratios Q_low / OPT of a set of points.
pub fn tightness_ratios(points: &[Point]) -> impl Iterator<Item = f64> + '_ {
    points.iter().map(|p| p.q_low / p.opt_misses as f64)
}

/// max(r, 1/r) for r = our OI_up / the paper's OI_up, both at the LARGE
/// dataset with S = 32768 words, or `None` when the kernel has no OI_up.
pub fn paper_gap(kernel: &iolb_polybench::Kernel, report: &Report) -> Option<f64> {
    let instance = kernel.large_instance();
    let env = instance.as_f64_env();
    let pairs = instance.as_param_slice();
    let borrowed: Vec<(&str, i128)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let ours = report.oi.as_ref()?.oi_at(&borrowed)?;
    let paper = (kernel.paper_oi_up)(32_768.0, &env);
    let r = ours / paper;
    (r.is_finite() && r > 0.0).then(|| r.max(1.0 / r))
}
