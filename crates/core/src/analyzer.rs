//! The [`Analyzer`]: the builder-style, session-scoped entry point of the
//! analysis.
//!
//! Where [`crate::analyze`] is the bare Algorithm-6 kernel (DFG + options in,
//! [`Analysis`] out, engine state taken from the ambient session), the
//! `Analyzer` owns the whole lifecycle of one analysis request, the way a
//! long-running service needs it:
//!
//! 1. it creates (or [reuses](Analyzer::engine)) an engine **session**
//!    ([`EngineCtx`]) with configurable capacities, so concurrent requests
//!    share no cache or statistics;
//! 2. it prepares the [`Workload`] *inside* that session, so every
//!    polyhedral object is bound to it;
//! 3. it derives the [`AnalysisOptions`] — workload-tuned defaults when the
//!    workload carries them, sensible generic defaults otherwise — and
//!    applies the builder's overrides;
//! 4. it runs the driver and packages the result as an
//!    [`AnalysisOutcome`]: the [`Analysis`], the versioned [`Report`], the
//!    per-session engine statistics, and the session itself (keep it to run
//!    follow-up analyses cache-warm).
//!
//! ```
//! use iolb_core::Analyzer;
//! use iolb_dfg::Dfg;
//!
//! let outcome = Analyzer::new()
//!     .cache_capacity(1 << 16)
//!     .parallel(false)
//!     .analyze_with(|| {
//!         Dfg::builder()
//!             .input("X", "[N] -> { X[i] : 0 <= i < N }")
//!             .statement("S", "[N] -> { S[i] : 0 <= i < N }")
//!             .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
//!             .build()
//!             .unwrap()
//!     })
//!     .unwrap();
//! assert_eq!(outcome.analysis().q_asymptotic().to_string(), "N");
//! assert!(outcome.stats.FEASIBILITY_CHECKS > 0);
//! ```

use crate::bound::Instance;
use crate::driver::{analyze_interruptible, Analysis, AnalysisOptions};
use crate::report::Report;
use crate::result_cache::AnalysisFingerprint;
use crate::tightness::{TightnessOptions, TightnessReport};
use crate::workload::{PreparedWorkload, Workload, WorkloadError};
use iolb_poly::json::Json;
use iolb_poly::{stats::Snapshot, Budget, EngineConfig, EngineCtx, EngineInterrupt};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Domain tag separating analysis fingerprints from every other fingerprint
/// family derived from [`iolb_poly::fxhash`].
const ANALYSIS_FINGERPRINT_TAG: u64 = 0x1016_0cac_4e51_0150;

/// Why [`Analyzer::analyze`] failed to produce any valid bound.
#[derive(Clone, Debug)]
pub enum AnalyzeError {
    /// The workload could not be prepared (file I/O, front-end, lowering).
    Workload(WorkloadError),
    /// The session's [`Budget`] tripped before any valid bound was proven
    /// (during preparation or the compulsory-miss term). Interrupts *after*
    /// that point degrade the outcome instead — see
    /// [`Analysis::degradation`].
    Interrupted(EngineInterrupt),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Workload(e) => e.fmt(f),
            AnalyzeError::Interrupted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<WorkloadError> for AnalyzeError {
    fn from(e: WorkloadError) -> Self {
        AnalyzeError::Workload(e)
    }
}

/// Builder for one analysis request. See the [module docs](self).
#[derive(Clone, Default)]
pub struct Analyzer {
    engine: Option<Arc<EngineCtx>>,
    cache_capacity: Option<usize>,
    parallel: Option<bool>,
    depth: Option<usize>,
    cache_param: Option<String>,
    cache_size: Option<i128>,
    param_values: Vec<(String, i128)>,
    assumptions: Vec<(String, i128)>,
    assumptions_le: Vec<(String, i128)>,
    options_override: Option<AnalysisOptions>,
    deadline: Option<Duration>,
    budget: Option<Budget>,
}

impl Analyzer {
    /// A fresh analyzer with default settings (new session per call, tuned
    /// or derived options, parallel driver as the options dictate).
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Runs the analysis in an existing session instead of a fresh one
    /// (reuses its warm cache; required when the workload holds polyhedral
    /// objects built in that session). [`Analyzer::cache_capacity`] cannot
    /// apply retroactively and is ignored for a reused session.
    pub fn engine(mut self, engine: Arc<EngineCtx>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Total query-cache capacity (entries) for the session this analyzer
    /// creates. The projection store (whose entries are whole constraint
    /// systems) keeps its own default ceiling but never exceeds this budget,
    /// so a capacity of 0 disables memoization entirely. Ignored when
    /// [`Analyzer::engine`] supplies a session.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = Some(entries);
        self
    }

    /// Forces the parallel (or serial) driver, overriding the workload's
    /// tuned options.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// Maximum loop-parametrization depth, overriding the tuned options.
    pub fn max_parametrization_depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Renames the fast-memory capacity parameter (default `"S"`). The
    /// heuristic instances are re-keyed accordingly.
    pub fn cache_param(mut self, name: impl Into<String>) -> Self {
        self.cache_param = Some(name.into());
        self
    }

    /// Fast-memory capacity (in words) for the heuristic instances.
    pub fn cache_size(mut self, words: i128) -> Self {
        self.cache_size = Some(words);
        self
    }

    /// Sets a program-parameter value on the heuristic instances (Sec. 7.2).
    pub fn param(mut self, name: impl Into<String>, value: i128) -> Self {
        self.param_values.push((name.into(), value));
        self
    }

    /// Adds a context assumption `name ≥ value` for symbolic counting.
    pub fn assume_ge(mut self, name: impl Into<String>, value: i128) -> Self {
        self.assumptions.push((name.into(), value));
        self
    }

    /// Adds a context assumption `name ≤ value` for symbolic counting.
    /// Combined with [`Analyzer::assume_ge`] this can pin a parameter to a
    /// range — or make the context infeasible, which the preflight pass
    /// reports as a `contradictory-assumptions` error.
    pub fn assume_le(mut self, name: impl Into<String>, value: i128) -> Self {
        self.assumptions_le.push((name.into(), value));
        self
    }

    /// Replaces the derived options wholesale (advanced; the other builder
    /// knobs still apply on top). **Session binding applies** to the
    /// options' context constraints — build them in the session given to
    /// [`Analyzer::engine`], or prefer the plain-data knobs.
    pub fn options(mut self, options: AnalysisOptions) -> Self {
        self.options_override = Some(options);
        self
    }

    /// Wall-clock budget for the whole request (preparation + analysis),
    /// measured from the moment [`Analyzer::analyze`] is called. A tripped
    /// deadline degrades the outcome (see [`Analysis::degradation`]) or, if
    /// no valid bound exists yet, fails with
    /// [`AnalyzeError::Interrupted`]. Composes with [`Analyzer::budget`]
    /// (the deadline set here wins).
    pub fn deadline(mut self, within: Duration) -> Self {
        self.deadline = Some(within);
        self
    }

    /// Full per-request [`Budget`] (deadline, FM-step / constraint /
    /// cache-entry limits, external [`CancelToken`](iolb_poly::CancelToken)),
    /// installed on the session for the duration of the request and cleared
    /// afterwards.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The **analysis fingerprint** of this request: a 128-bit content
    /// address over everything that determines the serialized report —
    /// the workload's canonical key ([`Workload::cache_key`]), the
    /// result-shaping builder knobs (depth, cache parameter and size,
    /// params folded last-wins, assumptions as a sorted set), the report
    /// [`SCHEMA_VERSION`](crate::report::SCHEMA_VERSION) and the engine
    /// version. Equal fingerprints promise byte-identical reports.
    ///
    /// Deliberately **excluded**, because they cannot change the bytes of a
    /// cacheable report: `parallel` (the parallel driver is byte-equivalent
    /// to the serial one by construction — pinned by the engine-equivalence
    /// suite), the session query-cache knobs (memoization is
    /// result-invariant), and deadlines/budgets (degraded results are never
    /// cached, so a budgeted and an un-budgeted request may share an
    /// entry).
    ///
    /// `None` — the request is uncacheable — when the workload has no
    /// canonical key or when [`Analyzer::options`] replaced the derived
    /// options wholesale (explicit options carry session-bound context).
    pub fn fingerprint<W: Workload + ?Sized>(&self, workload: &W) -> Option<AnalysisFingerprint> {
        if self.options_override.is_some() {
            return None;
        }
        let key = workload.cache_key()?;
        let mut fp = iolb_poly::fxhash::Fingerprint::new(ANALYSIS_FINGERPRINT_TAG);
        fp.add(&crate::report::SCHEMA_VERSION);
        fp.add(&env!("CARGO_PKG_VERSION"));
        fp.add(&key);
        fp.add(&self.depth);
        fp.add(&self.cache_param);
        fp.add(&self.cache_size);
        // Canonicalize: repeated `.param()` calls fold last-wins (that is
        // how `resolve_options` applies them), and assumption order is
        // irrelevant (conjunction), so both hash as sorted collections.
        let params: std::collections::BTreeMap<&str, i128> = self
            .param_values
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        fp.add(&params);
        let assumptions: std::collections::BTreeSet<(&str, i128)> = self
            .assumptions
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        fp.add(&assumptions);
        let assumptions_le: std::collections::BTreeSet<(&str, i128)> = self
            .assumptions_le
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        fp.add(&assumptions_le);
        Some(AnalysisFingerprint::from_raw(fp.finish()))
    }

    /// Generic defaults for a user program over `params`: every parameter
    /// is assumed `≥ 8` and the heuristic instance sets it to 2000 (the
    /// order of magnitude of the PolyBench LARGE datasets, so non-trivial
    /// sub-bounds survive the Sec. 7.2 combination heuristics) with a
    /// 32768-word fast memory (256 kB of doubles).
    pub fn default_options_for(params: &[String]) -> AnalysisOptions {
        let mut options = AnalysisOptions {
            max_parametrization_depth: 0,
            ..AnalysisOptions::default()
        };
        let mut ctx = iolb_poly::Context::empty();
        let mut instance = Instance::new().set(&options.cache_param, 32_768);
        for p in params {
            ctx = ctx.assume_ge(p, 8);
            instance = instance.set(p, 2000);
        }
        options.ctx = ctx;
        options.instances = vec![instance];
        options
    }

    /// Analyses a workload: prepares it inside the session, resolves the
    /// options, runs the driver, and packages the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::Workload`] when [`Workload::prepare`] fails
    /// (file I/O, front-end, lowering, …), and [`AnalyzeError::Interrupted`]
    /// when a configured [budget](Analyzer::budget) /
    /// [deadline](Analyzer::deadline) trips before any valid bound exists.
    /// A budget tripping mid-analysis is **not** an error: the outcome is
    /// returned with [`Analysis::degradation`] set.
    pub fn analyze<W: Workload + ?Sized>(
        &self,
        workload: &W,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        self.analyze_inner(workload, None)
    }

    /// Like [`Analyzer::analyze`], but additionally runs the two-sided
    /// tightness pass (see [`crate::tightness`]): the workload's DFG is
    /// walked at each requested instance, the trace is simulated through the
    /// LRU (and optionally Belady) cache model, and the outcome carries a
    /// [`TightnessReport`] comparing measured misses against `Q_low`.
    ///
    /// Trace generation honours the request's
    /// [budget](Analyzer::budget)/[deadline](Analyzer::deadline) and the
    /// options' trace-length budget: an oversized instance degrades to a
    /// skipped report entry instead of hanging the request. The plain
    /// report's bytes stay unchanged.
    pub fn analyze_with_tightness<W: Workload + ?Sized>(
        &self,
        workload: &W,
        options: &TightnessOptions,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        self.analyze_inner(workload, Some(options))
    }

    /// Convenience wrapper: [`Analyzer::analyze_with_tightness`] with
    /// default options (one auto-derived small instance, the default cache
    /// size, LRU only).
    pub fn simulate<W: Workload + ?Sized>(
        &self,
        workload: &W,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        self.analyze_with_tightness(workload, &TightnessOptions::default())
    }

    fn analyze_inner<W: Workload + ?Sized>(
        &self,
        workload: &W,
        tightness_options: Option<&TightnessOptions>,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        let engine = match &self.engine {
            Some(engine) => engine.clone(),
            None => {
                let defaults = EngineConfig::default();
                let cache_capacity = self.cache_capacity.unwrap_or(defaults.cache_capacity);
                EngineCtx::with_config(EngineConfig {
                    cache_capacity,
                    // The user-facing budget bounds the projection store too:
                    // capacity 0 must disable memoization entirely.
                    projection_cache_capacity: defaults
                        .projection_cache_capacity
                        .min(cache_capacity),
                    ..defaults
                })
            }
        };
        // The request's budget lives on the session only while this call
        // runs (the relative deadline becomes absolute here, at admission).
        let mut budget = self.budget.clone().unwrap_or_default();
        if let Some(within) = self.deadline {
            budget = budget.deadline_in(within);
        }
        engine.install_budget(budget);
        let result = engine.clone().scope(|| {
            let stats_before = engine.stats();
            // Preparation runs engine queries too (parsing, DFG lowering),
            // so it can trip the budget — before any bound exists, hence
            // the hard-error path.
            let prepared = EngineInterrupt::catch(|| workload.prepare())
                .map_err(AnalyzeError::Interrupted)??;
            let options = self.resolve_options(&prepared);
            // The static preflight pass: microseconds of structural
            // profiling and diagnostics before the driver starts. It runs
            // engine queries (emptiness, translation detection), so it is
            // budget-aware like preparation.
            let preflight = EngineInterrupt::catch(|| {
                iolb_preflight::preflight(
                    &prepared.name,
                    &prepared.dfg,
                    &prepared.params,
                    &options.ctx,
                    options.max_parametrization_depth,
                    prepared.source.as_ref(),
                )
            })
            .map_err(AnalyzeError::Interrupted)?;
            let start = Instant::now();
            let analysis = analyze_interruptible(&prepared.dfg, &options)
                .map_err(AnalyzeError::Interrupted)?;
            let elapsed = start.elapsed();
            // The tightness pass runs inside the same budget scope: a
            // deadline tripping mid-walk degrades the affected instances to
            // skipped entries (handled inside `measure`), never the request.
            let tightness = tightness_options.map(|topts| {
                crate::tightness::measure(&prepared.dfg, &analysis, &prepared.params, topts)
            });
            let report = Report::new(&prepared.name, analysis, prepared.ops);
            Ok(AnalysisOutcome {
                report,
                preflight,
                stats: engine.stats().delta_since(&stats_before),
                cache_entries: engine.cache_len(),
                elapsed,
                tightness,
                engine: engine.clone(),
            })
        });
        engine.clear_budget();
        result
    }

    /// Runs **only** the static preflight pass: prepares the workload,
    /// resolves the options it would be analysed under, and returns the
    /// structural profile, diagnostics and predicted cost class — without
    /// touching the Fourier–Motzkin machinery. This is the `iolb check`
    /// path and the server's request classifier; it completes in
    /// microseconds for built-in kernels and small multiples of the
    /// compile time for source workloads.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::Workload`] when [`Workload::prepare`] fails
    /// (the diagnostics of a program that does not compile are its
    /// front-end errors).
    pub fn preflight<W: Workload + ?Sized>(
        &self,
        workload: &W,
    ) -> Result<iolb_preflight::PreflightReport, AnalyzeError> {
        let engine = match &self.engine {
            Some(engine) => engine.clone(),
            None => EngineCtx::new(),
        };
        engine.scope(|| {
            let prepared = workload.prepare()?;
            let options = self.resolve_options(&prepared);
            Ok(iolb_preflight::preflight(
                &prepared.name,
                &prepared.dfg,
                &prepared.params,
                &options.ctx,
                options.max_parametrization_depth,
                prepared.source.as_ref(),
            ))
        })
    }

    /// Analyses a DFG built **inside** the analysis session by `build` —
    /// the safe way to analyse hand-assembled DFGs without managing the
    /// session yourself.
    pub fn analyze_with(
        &self,
        build: impl FnOnce() -> iolb_dfg::Dfg,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        struct Builder<F>(std::cell::RefCell<Option<F>>);
        impl<F: FnOnce() -> iolb_dfg::Dfg> Workload for Builder<F> {
            fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
                let build = self
                    .0
                    .borrow_mut()
                    .take()
                    .ok_or_else(|| WorkloadError::new("DFG builder already consumed"))?;
                build().prepare()
            }
        }
        self.analyze(&Builder(std::cell::RefCell::new(Some(build))))
    }

    /// Applies defaults and builder overrides to produce the final options.
    fn resolve_options(&self, prepared: &PreparedWorkload) -> AnalysisOptions {
        let mut options = match (&self.options_override, &prepared.options) {
            (Some(explicit), _) => explicit.clone(),
            (None, Some(tuned)) => tuned.clone(),
            (None, None) => Analyzer::default_options_for(&prepared.params),
        };
        if let Some(depth) = self.depth {
            options.max_parametrization_depth = depth;
        }
        if let Some(parallel) = self.parallel {
            options.parallel = parallel;
        }
        if let Some(cache_param) = &self.cache_param {
            let old = options.cache_param.clone();
            options.instances = options
                .instances
                .into_iter()
                .map(|inst| inst.rename(&old, cache_param))
                .collect();
            options.cache_param = cache_param.clone();
        }
        if self.cache_size.is_some() || !self.param_values.is_empty() {
            options.instances = options
                .instances
                .into_iter()
                .map(|mut inst| {
                    if let Some(s) = self.cache_size {
                        inst = inst.set(&options.cache_param, s);
                    }
                    for (name, value) in &self.param_values {
                        inst = inst.set(name, *value);
                    }
                    inst
                })
                .collect();
        }
        for (name, value) in &self.assumptions {
            options.ctx = options.ctx.clone().assume_ge(name, *value);
        }
        for (name, value) in &self.assumptions_le {
            options.ctx = options.ctx.clone().assume_le(name, *value);
        }
        options
    }
}

/// Everything one analysis request produced: the analysis, the versioned
/// report, the per-session engine statistics, and the session itself.
pub struct AnalysisOutcome {
    /// The reviewable report (text via `Display`, versioned JSON via
    /// [`Report::json`]); owns the [`Analysis`].
    pub report: Report,
    /// The static preflight pass: structural profile, diagnostics and the
    /// predicted cost class (see [`iolb_preflight`]).
    pub preflight: iolb_preflight::PreflightReport,
    /// Engine-operation counters for **this request only**: a delta over
    /// the session's counters, so neither concurrent analyses in other
    /// sessions nor earlier runs in a reused session inflate these numbers.
    pub stats: Snapshot,
    /// Memoized query results resident in the session after the run.
    pub cache_entries: usize,
    /// Wall-clock time of the driver run (excludes workload preparation).
    pub elapsed: Duration,
    /// The two-sided locality report, when the request ran through
    /// [`Analyzer::analyze_with_tightness`] / [`Analyzer::simulate`]
    /// (`None` on the plain path, whose report bytes stay unchanged).
    pub tightness: Option<TightnessReport>,
    engine: Arc<EngineCtx>,
}

impl AnalysisOutcome {
    /// The underlying analysis (bounds, candidates, `Q_low`).
    pub fn analysis(&self) -> &Analysis {
        &self.report.analysis
    }

    /// The session the analysis ran in. Pass it to [`Analyzer::engine`] to
    /// run follow-up analyses against the warm cache, or drop the outcome
    /// to free all engine state.
    pub fn engine(&self) -> &Arc<EngineCtx> {
        &self.engine
    }

    /// The versioned JSON document for machine consumers: every
    /// [`Report::json`] field (including `schema_version`), then an
    /// `engine_stats` object with the per-session counters, cache hit rates,
    /// resident entry count and wall-clock, the `preflight` report, and the
    /// `tightness`, `degraded` and `budget` fields when present.
    pub fn json(&self) -> Json {
        let counters = self.stats.as_pairs().into_iter();
        let counters = counters.map(|(key, value)| (key.to_lowercase(), Json::from(value)));
        // A rate with no queries of its kind is `null`, never NaN (see
        // `Snapshot::hit_rates`).
        let rates = self.stats.hit_rates().into_iter();
        let rates = rates.map(|(key, rate)| (key.to_string(), Json::from(rate)));
        let engine_stats = Json::obj(counters.chain(rates).chain([
            ("cache_entries".into(), Json::from(self.cache_entries)),
            (
                "wall_clock_seconds".into(),
                Json::from(self.elapsed.as_secs_f64()),
            ),
        ]));
        let Json::Obj(mut fields) = self.report.json() else {
            unreachable!("a report is a JSON object")
        };
        fields.push(("engine_stats".into(), engine_stats));
        fields.push(("preflight".into(), self.preflight.json()));
        // The tightness block is only present on the simulate path, so plain
        // analysis reports (and their result-cache entries) keep their exact
        // bytes.
        if let Some(tightness) = &self.tightness {
            fields.push(("tightness".into(), tightness.json()));
        }
        // Degradation fields are only emitted when a budget tripped, so
        // un-budgeted reports stay byte-identical to earlier versions.
        if let Some(d) = &self.analysis().degradation {
            fields.push(("degraded".into(), Json::Bool(true)));
            fields.push((
                "budget".into(),
                Json::obj([
                    ("tripped", Json::from(d.interrupt.code())),
                    ("sweep_completed", Json::from(d.sweep_completed)),
                    ("sweep_total", Json::from(d.sweep_total)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// [`AnalysisOutcome::json`] as one compact line: the bytes `iolb
    /// analyze --json` prints and the daemon's result cache stores and
    /// serves.
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming_dfg() -> iolb_dfg::Dfg {
        iolb_dfg::Dfg::builder()
            .input("X", "[N] -> { X[i] : 0 <= i < N }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap()
    }

    /// The outcome's compact document, parsed back.
    fn parsed(outcome: &AnalysisOutcome) -> Json {
        let json = outcome.to_json();
        assert!(!json.contains('\n'), "one line: {json}");
        iolb_poly::json::parse(&json).unwrap()
    }

    /// The built-in gemm DFG as a session-rebuilding workload. (The `Kernel`
    /// type itself implements the *other* build of this crate in the
    /// dev-dependency cycle, so unit tests go through the DFG.)
    struct GemmDfg;
    impl Workload for GemmDfg {
        fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
            iolb_polybench::kernel_by_name("gemm")
                .unwrap()
                .dfg
                .prepare()
        }
    }

    #[test]
    fn builder_analyzes_and_reports_session_stats() {
        let outcome = Analyzer::new()
            .parallel(false)
            .analyze_with(streaming_dfg)
            .unwrap();
        assert_eq!(outcome.analysis().q_asymptotic().to_string(), "N");
        assert!(outcome.stats.FEASIBILITY_CHECKS > 0);
        assert_eq!(outcome.report.kernel, "program");
        let doc = parsed(&outcome);
        assert!(doc.get("engine_stats").is_some(), "{doc:?}");
        assert!(doc.get("schema_version").is_some(), "{doc:?}");
    }

    #[test]
    fn sessions_are_reusable_and_warm() {
        let first = Analyzer::new().analyze_with(streaming_dfg).unwrap();
        let engine = first.engine().clone();
        let second = Analyzer::new()
            .engine(engine.clone())
            .analyze_with(streaming_dfg)
            .unwrap();
        // Same session: the second run starts where the first left off and
        // answers repeated queries from the warm cache. (Not compared against
        // the first run's hit count: the memoized recursive kernel records
        // within-run hits on the cold run, while the warm run's top-level
        // hits short-circuit the recursion entirely.)
        assert!(second.stats.FEASIBILITY_CACHE_HITS > 0);
        assert_eq!(
            second.stats.FM_ELIMINATIONS, 0,
            "a fully warm run must not recompute any elimination"
        );
        assert_eq!(
            first.analysis().q_low.to_string(),
            second.analysis().q_low.to_string()
        );
    }

    #[test]
    fn zero_cache_capacity_runs_uncached_with_the_same_result() {
        let cached = Analyzer::new().analyze_with(streaming_dfg).unwrap();
        let uncached = Analyzer::new()
            .cache_capacity(0)
            .analyze_with(streaming_dfg)
            .unwrap();
        assert_eq!(uncached.cache_entries, 0);
        assert_eq!(uncached.stats.FEASIBILITY_CACHE_HITS, 0);
        assert_eq!(uncached.stats.PROJECTION_CACHE_HITS, 0);
        assert_eq!(
            cached.analysis().q_low.to_string(),
            uncached.analysis().q_low.to_string(),
            "cache configuration must never change the result"
        );
    }

    #[test]
    fn zero_query_hit_rates_serialise_as_null() {
        // Regression: a request whose session saw zero queries of some kind
        // (an idle session) must emit `null` hit rates — a 0/0 division
        // would put `NaN`, which is not valid JSON, in the report.
        let outcome = Analyzer::new()
            .parallel(false)
            .analyze_with(streaming_dfg)
            .unwrap();
        let idle = AnalysisOutcome {
            report: outcome.report.clone(),
            preflight: outcome.preflight.clone(),
            stats: Snapshot::default(),
            cache_entries: 0,
            elapsed: Duration::ZERO,
            tightness: None,
            engine: outcome.engine.clone(),
        };
        let json = idle.to_json();
        assert!(!json.contains("NaN"), "{json}");
        let stats = parsed(&idle).get("engine_stats").cloned().unwrap();
        assert_eq!(
            stats.get("feasibility_hit_rate"),
            Some(&Json::Null),
            "{json}"
        );
        assert_eq!(stats.get("count_hit_rate"), Some(&Json::Null), "{json}");
    }

    #[test]
    fn expired_deadline_is_a_typed_interrupt_error() {
        let result = Analyzer::new()
            .parallel(false)
            .deadline(Duration::ZERO)
            .analyze_with(streaming_dfg);
        match result {
            Err(AnalyzeError::Interrupted(interrupt)) => {
                assert_eq!(interrupt.code(), "deadline")
            }
            Err(other) => panic!("expected a deadline interrupt, got {other:?}"),
            Ok(_) => panic!("expected a deadline interrupt, got a result"),
        }
    }

    #[test]
    fn generous_budget_never_trips_and_changes_nothing() {
        let plain = Analyzer::new()
            .parallel(false)
            .analyze_with(streaming_dfg)
            .unwrap();
        let budgeted = Analyzer::new()
            .parallel(false)
            .deadline(Duration::from_secs(3600))
            .budget(
                iolb_poly::Budget::none()
                    .max_fm_steps(u64::MAX)
                    .cancel_token(iolb_poly::CancelToken::new()),
            )
            .analyze_with(streaming_dfg)
            .unwrap();
        assert_eq!(
            plain.analysis().q_low.to_string(),
            budgeted.analysis().q_low.to_string(),
            "a budget that never trips must not change the result"
        );
        assert!(budgeted.analysis().degradation.is_none());
        assert!(
            !budgeted.engine().budget_active(),
            "the request budget is cleared from the session afterwards"
        );
        assert_eq!(parsed(&budgeted).get("degraded"), None);
    }

    #[test]
    fn degraded_outcomes_serialise_budget_fields() {
        let outcome = Analyzer::new()
            .parallel(false)
            .analyze_with(streaming_dfg)
            .unwrap();
        let mut report = outcome.report.clone();
        report.analysis.degradation = Some(crate::driver::Degradation {
            interrupt: EngineInterrupt::Deadline,
            sweep_completed: 1,
            sweep_total: 3,
        });
        let degraded = AnalysisOutcome {
            report,
            preflight: outcome.preflight.clone(),
            stats: outcome.stats,
            cache_entries: outcome.cache_entries,
            elapsed: outcome.elapsed,
            tightness: None,
            engine: outcome.engine.clone(),
        };
        let doc = parsed(&degraded);
        assert_eq!(doc.get("degraded"), Some(&Json::Bool(true)), "{doc:?}");
        let budget = doc.get("budget").unwrap();
        assert_eq!(
            budget.get("tripped").and_then(Json::as_str),
            Some("deadline")
        );
        assert_eq!(budget.get("sweep_completed"), Some(&Json::Int(1)));
        assert_eq!(budget.get("sweep_total"), Some(&Json::Int(3)));
    }

    #[test]
    fn simulate_attaches_a_sound_tightness_report() {
        let outcome = Analyzer::new().parallel(false).simulate(&GemmDfg).unwrap();
        let tightness = outcome.tightness.as_ref().expect("simulate ran");
        assert_eq!(tightness.instances.len(), 1, "one auto-derived instance");
        let inst = &tightness.instances[0];
        assert!(inst.skipped.is_none(), "{:?}", inst.skipped);
        assert!(inst.trace_len > 0);
        let point = &inst.caches[0];
        assert!(point.lru.misses >= inst.distinct_addresses);
        let q_low = point.q_low.expect("q_low evaluates");
        assert!(
            q_low <= point.lru.misses as f64,
            "soundness: Q_low = {q_low} must not exceed measured misses {}",
            point.lru.misses
        );
        let ratio = point.tightness_lru().unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio = {ratio}");
        let doc = parsed(&outcome);
        let instances = doc.get("tightness").and_then(|t| t.get("instances"));
        let Some(Json::Arr(instances)) = instances else {
            panic!("no tightness instances in {doc:?}");
        };
        let Some(Json::Arr(caches)) = instances[0].get("caches") else {
            panic!("no cache points in {doc:?}");
        };
        assert!(caches[0].get("lru_misses").is_some(), "{doc:?}");
    }

    #[test]
    fn plain_analysis_reports_carry_no_tightness_block() {
        let outcome = Analyzer::new().parallel(false).analyze(&GemmDfg).unwrap();
        assert!(outcome.tightness.is_none());
        assert_eq!(parsed(&outcome).get("tightness"), None);
    }

    #[test]
    fn expired_deadline_degrades_tightness_to_skipped_entries() {
        // The analysis itself survives a mid-request trip (degradation), and
        // the tightness pass must mark its instances skipped rather than
        // erroring out — but with a zero deadline the request fails before
        // any bound exists, so drive the skip through an oversized instance
        // instead: the walk degrades, the analysis stands.
        let options = TightnessOptions::default()
            .instance(Instance::new().set("Ni", 1 << 30).set("Nj", 4).set("Nk", 4));
        let outcome = Analyzer::new()
            .parallel(false)
            .analyze_with_tightness(&GemmDfg, &options)
            .unwrap();
        let tightness = outcome.tightness.as_ref().unwrap();
        assert_eq!(tightness.instances.len(), 1);
        assert!(tightness.instances[0].skipped.is_some());
        assert!(tightness.instances[0].caches.is_empty());
        assert!(outcome.analysis().degradation.is_none());
        let doc = parsed(&outcome);
        let instances = doc.get("tightness").and_then(|t| t.get("instances"));
        let Some(Json::Arr(instances)) = instances else {
            panic!("no tightness instances in {doc:?}");
        };
        assert!(matches!(instances[0].get("skipped"), Some(Json::Str(_))));
    }

    #[test]
    fn cache_param_override_rekeys_instances() {
        let options = AnalysisOptions {
            cache_param: "Cap".to_string(),
            ..AnalysisOptions::default()
        }
        .with_instance_defaults(&["N"], 100, 64);
        // The satellite fix: the instance key follows cache_param.
        assert_eq!(options.instances[0].get("Cap"), Some(64));
        assert_eq!(options.instances[0].get("S"), None);

        // And the Analyzer's own override re-keys tuned instances.
        let outcome = Analyzer::new()
            .cache_param("Cap")
            .cache_size(128)
            .analyze_with(streaming_dfg)
            .unwrap();
        assert_eq!(outcome.analysis().cache_param, "Cap");
    }
}
