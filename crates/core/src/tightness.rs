//! Two-sided locality reports: the paper's Sec. 8.2 tightness study as a
//! first-class pipeline stage.
//!
//! The analysis half of the system derives a *parametric* data-movement lower
//! bound `Q_low`. This module supplies the other side: it generates a
//! word-granular address trace from **any** [`crate::Workload`]'s DFG at a
//! concrete parameter instance, simulates it through the LRU (and optionally
//! Belady/OPT) cache model of `iolb-cachesim`, and reports the measured miss
//! counts next to `Q_low` evaluated at the same instance. The ratio
//! `Q_low / misses` is the *tightness* of the bound: a sound engine keeps it
//! at most 1, and the closer to 1 the tighter the bound.
//!
//! ## Trace model
//!
//! The walk replays the canonical statement-major schedule: statements in
//! declaration order, each statement's domain points in ascending
//! lexicographic order. For every dynamic statement instance the walker
//! issues one read per incoming flow dependence (resolved through the edge
//! relation to the producer coordinate), then one write of the instance's own
//! value. Reads are ordered by a semantic edge signature so that two DFGs
//! describing the same program — e.g. a built-in kernel and its `.iolb` twin
//! — produce byte-identical traces regardless of edge declaration order.
//!
//! Addresses are assigned on first touch, sequentially, per memory *cell*.
//! A statement's value space collapses along its reduction dimension (the
//! direction of a unique single-offset self dependence, e.g. the `k` in
//! `C[i,j,k] = C[i,j,k-1] + ...`), reconstructing the in-place accumulation
//! of the original program; all other dimensions address distinct cells.
//! Collapsing along the dependence chain is schedule-valid, and any valid
//! schedule's traffic is lower-bounded by `Q_low`, so measured misses remain
//! an upper envelope for the bound (enforced by the soundness gate in
//! `tests/engine_equivalence.rs`).
//!
//! Huge instances degrade instead of hanging: the walker honours the
//! session's [`iolb_poly::budget`] checkpoints (deadline / cancellation) and
//! an explicit trace-length budget, marking the instance as skipped rather
//! than stalling a serve worker.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

use crate::bound::Instance;
use crate::driver::Analysis;
use crate::workload::dfg_params;
pub use iolb_cachesim::{simulate_lru, simulate_optimal, CacheStats};
use iolb_dfg::Dfg;
use iolb_math::Rational;
use iolb_poly::json::Json;
use iolb_poly::{AffineFunction, BasicMap, BasicSet, EngineCtx, EngineInterrupt};

/// Default value assigned to every program parameter when no instance is
/// supplied: small enough to simulate in milliseconds, large enough that
/// boundary effects do not dominate.
pub const DEFAULT_SIMULATION_PARAM: i128 = 16;

/// Default fast-memory capacity (in words) simulated when none is requested.
pub const DEFAULT_CACHE_WORDS: usize = 1024;

/// Default trace-length budget (number of word accesses) per instance.
pub const DEFAULT_MAX_TRACE: u64 = 4_000_000;

/// Largest coordinate magnitude the walker will scan per dimension; an
/// instance whose parameters exceed this degrades to a skipped entry.
const MAX_ENUM_BOUND: i128 = 1 << 20;

/// How the tightness pass is run: which instances, which cache sizes,
/// whether the (quadratic, hence opt-in) Belady simulation runs too, and the
/// trace-length budget.
#[derive(Clone, Debug)]
pub struct TightnessOptions {
    /// Concrete parameter instances to simulate. Empty means "derive one":
    /// every program parameter set to [`DEFAULT_SIMULATION_PARAM`].
    pub instances: Vec<Instance>,
    /// Fast-memory capacities (words) to simulate. Zero entries are ignored;
    /// empty falls back to [`DEFAULT_CACHE_WORDS`].
    pub cache_sizes: Vec<usize>,
    /// Also run the optimal-replacement (Belady) simulation.
    pub opt: bool,
    /// Trace-length budget per instance; a longer walk is marked skipped.
    pub max_trace: u64,
}

impl Default for TightnessOptions {
    fn default() -> Self {
        TightnessOptions {
            instances: Vec::new(),
            cache_sizes: vec![DEFAULT_CACHE_WORDS],
            opt: false,
            max_trace: DEFAULT_MAX_TRACE,
        }
    }
}

impl TightnessOptions {
    /// Adds one concrete instance to simulate.
    pub fn instance(mut self, instance: Instance) -> Self {
        self.instances.push(instance);
        self
    }

    /// Replaces the simulated cache-size list.
    pub fn cache_sizes(mut self, sizes: &[usize]) -> Self {
        self.cache_sizes = sizes.to_vec();
        self
    }

    /// Enables or disables the Belady (OPT) simulation.
    pub fn opt(mut self, opt: bool) -> Self {
        self.opt = opt;
        self
    }

    /// Sets the trace-length budget per instance.
    pub fn max_trace(mut self, max_trace: u64) -> Self {
        self.max_trace = max_trace;
        self
    }

    /// The cache sizes that will actually be simulated: positive entries,
    /// sorted and deduplicated, defaulting to [`DEFAULT_CACHE_WORDS`].
    pub fn effective_cache_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .cache_sizes
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.is_empty() {
            sizes.push(DEFAULT_CACHE_WORDS);
        }
        sizes
    }
}

/// Why a trace could not be generated for an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

fn trace_err(message: impl Into<String>) -> TraceError {
    TraceError {
        message: message.into(),
    }
}

/// The address trace of one DFG walk at one concrete instance.
#[derive(Clone, Debug)]
pub struct GeneratedTrace {
    /// Word-granular address trace (first-touch sequential addresses).
    pub trace: Vec<u64>,
    /// Number of distinct addresses touched.
    pub distinct_addresses: u64,
    /// Arithmetic operations performed by the walked statement instances.
    pub ops: f64,
    /// Dynamic statement instances walked.
    pub points: u64,
    /// True when the walk stopped at the trace-length budget (the trace is a
    /// prefix and must not be fed to the tightness comparison).
    pub truncated: bool,
}

/// Measured misses at one cache size, next to the evaluated bound.
#[derive(Clone, Debug)]
pub struct CachePoint {
    /// Simulated fast-memory capacity in words.
    pub cache_words: usize,
    /// LRU simulation result.
    pub lru: CacheStats,
    /// Belady (OPT) simulation result, when requested.
    pub opt: Option<CacheStats>,
    /// `Q_low` evaluated at the instance with the cache parameter set to
    /// `cache_words` (`None` if the bound does not evaluate numerically).
    pub q_low: Option<f64>,
}

impl CachePoint {
    /// Tightness against LRU misses: `Q_low / lru_misses` (≤ 1 for a sound
    /// bound; closer to 1 is tighter).
    pub fn tightness_lru(&self) -> Option<f64> {
        match (self.q_low, self.lru.misses) {
            (Some(q), m) if m > 0 => Some(q / m as f64),
            _ => None,
        }
    }

    /// Tightness against OPT misses, when the Belady simulation ran.
    pub fn tightness_opt(&self) -> Option<f64> {
        match (self.q_low, &self.opt) {
            (Some(q), Some(o)) if o.misses > 0 => Some(q / o.misses as f64),
            _ => None,
        }
    }
}

/// Simulation results for one concrete instance.
#[derive(Clone, Debug)]
pub struct InstanceTightness {
    /// The instance (program parameters only; the cache parameter varies per
    /// [`CachePoint`]).
    pub instance: Instance,
    /// Generated trace length (prefix length when skipped mid-walk).
    pub trace_len: u64,
    /// Distinct addresses touched by the (possibly partial) walk.
    pub distinct_addresses: u64,
    /// Arithmetic operations covered by the walk.
    pub ops: f64,
    /// `Some(reason)` when the instance degraded (trace budget, engine
    /// budget trip, missing parameter, oversized enumeration) — no cache
    /// points are reported for a skipped instance.
    pub skipped: Option<String>,
    /// One entry per simulated cache size.
    pub caches: Vec<CachePoint>,
}

/// The combined two-sided locality report: measured misses vs. `Q_low` per
/// instance per cache size.
#[derive(Clone, Debug)]
pub struct TightnessReport {
    /// Name of the cache-size parameter of the bound (usually `S`).
    pub cache_param: String,
    /// The trace-length budget the walks ran under.
    pub max_trace: u64,
    /// One entry per requested instance.
    pub instances: Vec<InstanceTightness>,
}

impl TightnessReport {
    /// Instances that produced a full trace and at least one cache point.
    pub fn simulated(&self) -> impl Iterator<Item = &InstanceTightness> {
        self.instances
            .iter()
            .filter(|i| i.skipped.is_none() && !i.caches.is_empty())
    }

    /// The smallest LRU tightness ratio across all simulated points —
    /// the report's one-number summary.
    pub fn min_tightness_lru(&self) -> Option<f64> {
        self.simulated()
            .flat_map(|i| i.caches.iter().filter_map(CachePoint::tightness_lru))
            .fold(None, |acc, t| {
                Some(acc.map_or(t, |a: f64| if t < a { t } else { a }))
            })
    }

    /// The report as the JSON object the analysis report carries under its
    /// `"tightness"` key. Missing and non-finite numbers are `null`.
    pub fn json(&self) -> Json {
        let cache_point = |cp: &CachePoint| {
            Json::obj([
                ("cache_words", Json::from(cp.cache_words)),
                ("lru_accesses", Json::from(cp.lru.accesses)),
                ("lru_misses", Json::from(cp.lru.misses)),
                ("opt_misses", Json::from(cp.opt.as_ref().map(|o| o.misses))),
                ("q_low", Json::from(cp.q_low)),
                ("tightness_lru", Json::from(cp.tightness_lru())),
                ("tightness_opt", Json::from(cp.tightness_opt())),
            ])
        };
        let instance = |inst: &InstanceTightness| {
            let params = inst
                .instance
                .pairs()
                .into_iter()
                .map(|(k, v)| (k, Json::from(v)));
            Json::obj([
                ("params", Json::obj(params)),
                ("trace_len", Json::from(inst.trace_len)),
                ("distinct_addresses", Json::from(inst.distinct_addresses)),
                ("ops", Json::from(inst.ops)),
                ("skipped", Json::from(inst.skipped.clone())),
                (
                    "caches",
                    Json::Arr(inst.caches.iter().map(cache_point).collect()),
                ),
            ])
        };
        Json::obj([
            ("cache_param", Json::from(self.cache_param.as_str())),
            ("max_trace", Json::from(self.max_trace)),
            (
                "instances",
                Json::Arr(self.instances.iter().map(instance).collect()),
            ),
        ])
    }

    /// One-line human summary, e.g. for CLI output.
    pub fn summary_line(&self) -> String {
        let simulated = self.simulated().count();
        let skipped = self.instances.len() - simulated;
        match self.min_tightness_lru() {
            Some(t) => format!(
                "tightness: {simulated} instance(s) simulated, {skipped} skipped, min Q_low/LRU-misses = {t:.4}"
            ),
            None => format!("tightness: {simulated} instance(s) simulated, {skipped} skipped"),
        }
    }
}

/// Achieved operational intensity of an externally generated reference trace
/// (the Figure-6 measurement path): LRU-simulate the trace and divide the
/// operation count by the measured misses.
pub fn achieved_oi(trace: &[u64], ops: f64, cache_words: usize) -> f64 {
    simulate_lru(trace, cache_words).operational_intensity(ops)
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// How one incoming dependence resolves a producer coordinate from a
/// consumer coordinate.
enum Resolver {
    /// The relation is reverse-functional: producer = f(consumer), guarded
    /// by relation membership.
    Function(AffineFunction),
    /// General fallback: enumerate the (almost always zero- or one-point)
    /// set of producers related to the consumer point.
    Search,
}

/// One incoming dependence of a statement, pre-resolved for the walk.
struct ReadPlan {
    src_idx: usize,
    relation: BasicMap,
    resolver: Resolver,
}

/// One statement of the walk: its domain and pre-resolved reads (the
/// per-node collapse masks live in the shared `keeps` table).
struct StatementPlan {
    node_idx: usize,
    dims: usize,
    domain: BasicSet,
    ops_per_instance: u64,
    reads: Vec<ReadPlan>,
}

/// A semantic signature for an edge's read side, independent of constraint
/// declaration order: identical programs produce identical signatures, which
/// keeps the read order (and hence first-touch addresses) byte-identical
/// between a built-in kernel and its `.iolb` twin.
fn read_signature(relation: &BasicMap) -> String {
    match relation.as_function_of_range() {
        Some(f) => {
            let mut s = String::from("fn:");
            for r in 0..f.constants.len() {
                if r > 0 {
                    s.push(';');
                }
                for c in 0..f.linear.num_cols() {
                    let _ = write!(s, "{},", f.linear[(r, c)]);
                }
                for (p, q) in &f.param_coeffs[r] {
                    let _ = write!(s, "{p}*{q},");
                }
                let _ = write!(s, "+{}", f.constants[r]);
            }
            s
        }
        None => format!("search:{relation}"),
    }
}

/// The per-node memory-cell collapse mask. A statement whose value space
/// carries a *unique* self dependence that is a pure translation along
/// exactly one dimension is a reduction: that dimension is dropped from the
/// cell key (the accumulation happens in place). Inputs and every other
/// shape keep all dimensions — which can only inflate the measured misses,
/// never deflate them below a valid schedule's traffic.
fn collapse_mask(dfg: &Dfg, name: &str, dims: usize) -> Vec<bool> {
    let self_edges: Vec<&iolb_dfg::DfgEdge> = dfg
        .edges()
        .iter()
        .filter(|e| e.src == name && e.dst == name)
        .collect();
    let mut keep = vec![true; dims];
    if let [only] = self_edges.as_slice() {
        if let Some(offsets) = only.relation.translation_offsets() {
            let nonzero: Vec<usize> = offsets
                .iter()
                .enumerate()
                .filter(|(_, &o)| o != 0)
                .map(|(d, _)| d)
                .collect();
            if let [d] = nonzero.as_slice() {
                keep[*d] = false;
            }
        }
    }
    keep
}

fn collapse(coords: &[i128], keep: &[bool]) -> Vec<i128> {
    coords
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&c, _)| c)
        .collect()
}

struct Walker<'a> {
    engine: std::sync::Arc<EngineCtx>,
    env: &'a BTreeMap<String, i128>,
    params: &'a [(&'a str, i128)],
    bound: i128,
    max_trace: u64,
    trace: Vec<u64>,
    addresses: HashMap<(usize, Vec<i128>), u64>,
    next_address: u64,
    ops: f64,
    points: u64,
    truncated: bool,
    work: u32,
}

impl Walker<'_> {
    /// Budget checkpoint, amortised over the hot loops.
    fn tick(&mut self) {
        self.work = self.work.wrapping_add(1);
        if self.work.is_multiple_of(1024) {
            self.engine.checkpoint_poll();
        }
    }

    /// Records one access to `(node, cell)`, assigning first-touch
    /// sequential addresses.
    fn touch(&mut self, node_idx: usize, cell: Vec<i128>) {
        if self.trace.len() as u64 >= self.max_trace {
            self.truncated = true;
            return;
        }
        let next = &mut self.next_address;
        let addr = *self.addresses.entry((node_idx, cell)).or_insert_with(|| {
            let a = *next;
            *next += 1;
            a
        });
        self.trace.push(addr);
    }

    /// Emits the accesses of one dynamic statement instance.
    fn visit_point(&mut self, st: &StatementPlan, keeps: &[Vec<bool>], point: &[i128]) {
        for read in &st.reads {
            match &read.resolver {
                Resolver::Function(f) => {
                    if let Some(src) = eval_affine(f, point, self.env) {
                        if read.relation.contains(&src, point, self.params) {
                            let cell = collapse(&src, &keeps[read.src_idx]);
                            self.touch(read.src_idx, cell);
                        }
                    }
                }
                Resolver::Search => {
                    let n_in = read.relation.n_in();
                    let mut src = vec![0i128; n_in];
                    self.search_sources(read, point, &mut src, 0, keeps);
                }
            }
            if self.truncated {
                return;
            }
        }
        self.touch(st.node_idx, collapse(point, &keeps[st.node_idx]));
        self.ops += st.ops_per_instance as f64;
        self.points += 1;
    }

    /// Fallback read resolution: enumerate producer coordinates related to
    /// the fixed consumer `point`, pruning constraints as soon as every
    /// producer dimension they mention is bound.
    fn search_sources(
        &mut self,
        read: &ReadPlan,
        point: &[i128],
        src: &mut Vec<i128>,
        depth: usize,
        keeps: &[Vec<bool>],
    ) {
        let n_in = src.len();
        if depth == n_in {
            let mut vars = src.clone();
            vars.extend_from_slice(point);
            if read
                .relation
                .constraints()
                .iter()
                .all(|c| c.holds(&vars, self.env))
            {
                let cell = collapse(src, &keeps[read.src_idx]);
                self.touch(read.src_idx, cell);
            }
            return;
        }
        for v in -self.bound..=self.bound {
            self.tick();
            if self.truncated {
                return;
            }
            src[depth] = v;
            let mut vars = src.clone();
            vars[depth + 1..n_in].fill(0);
            vars.extend_from_slice(point);
            let feasible = read.relation.constraints().iter().all(|c| {
                if c.expr.var_coeffs[depth + 1..n_in].iter().any(|&x| x != 0) {
                    true // mentions an unbound producer dimension: defer
                } else {
                    c.holds(&vars, self.env)
                }
            });
            if feasible {
                self.search_sources(read, point, src, depth + 1, keeps);
            }
        }
    }

    /// Enumerates a statement's domain in ascending lexicographic order,
    /// visiting each point; prunes a prefix as soon as some constraint over
    /// already-bound dimensions fails.
    fn enumerate_statement(
        &mut self,
        st: &StatementPlan,
        keeps: &[Vec<bool>],
        point: &mut Vec<i128>,
        depth: usize,
    ) {
        if self.truncated {
            return;
        }
        if depth == st.dims {
            self.visit_point(st, keeps, point);
            return;
        }
        for v in -self.bound..=self.bound {
            self.tick();
            if self.truncated {
                return;
            }
            point[depth] = v;
            point[depth + 1..].fill(0);
            let feasible = st.domain.constraints().iter().all(|c| {
                if c.expr.var_coeffs[depth + 1..].iter().any(|&x| x != 0) {
                    true
                } else {
                    c.holds(point, self.env)
                }
            });
            if feasible {
                self.enumerate_statement(st, keeps, point, depth + 1);
            }
        }
    }
}

/// Evaluates `producer = f(consumer)` in exact rationals; `None` when some
/// coordinate is fractional (no integer producer point).
fn eval_affine(
    f: &AffineFunction,
    point: &[i128],
    env: &BTreeMap<String, i128>,
) -> Option<Vec<i128>> {
    let mut out = Vec::with_capacity(f.constants.len());
    for r in 0..f.constants.len() {
        let mut acc = f.constants[r];
        for (c, &x) in point.iter().enumerate() {
            acc += f.linear[(r, c)] * Rational::new(x, 1);
        }
        for (p, q) in &f.param_coeffs[r] {
            let v = env.get(p)?;
            acc += *q * Rational::new(*v, 1);
        }
        if !acc.is_integer() {
            return None;
        }
        out.push(acc.floor());
    }
    Some(out)
}

/// Generates the canonical statement-major address trace of `dfg` at
/// `instance`. Honours the ambient session's budget checkpoints; a walk
/// longer than `max_trace` accesses returns with `truncated = true`.
pub fn generate_trace(
    dfg: &Dfg,
    instance: &Instance,
    max_trace: u64,
) -> Result<GeneratedTrace, TraceError> {
    let params = dfg_params(dfg);
    let mut env: BTreeMap<String, i128> = BTreeMap::new();
    for p in &params {
        match instance.get(p) {
            Some(v) => {
                env.insert(p.clone(), v);
            }
            None => {
                return Err(trace_err(format!(
                    "parameter `{p}` has no value in the simulation instance"
                )))
            }
        }
    }

    // Coordinates are bounded by affine combinations of the parameters and
    // the constraint constants; the sum of magnitudes (plus slack) bounds
    // every feasible coordinate the pruned scan can reach.
    let mut bound: i128 = env.values().map(|v| v.abs()).sum();
    for node in dfg.nodes() {
        for c in node.domain.constraints() {
            bound = bound.max(c.expr.constant.abs());
        }
    }
    bound += 2;
    if bound > MAX_ENUM_BOUND {
        return Err(trace_err(format!(
            "instance too large to enumerate directly (coordinate bound {bound} > {MAX_ENUM_BOUND}); \
             simulate at smaller parameter values"
        )));
    }

    let node_index: BTreeMap<&str, usize> = dfg
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), i))
        .collect();
    let keeps: Vec<Vec<bool>> = dfg
        .nodes()
        .iter()
        .map(|n| {
            if n.is_input {
                vec![true; n.domain.dim()]
            } else {
                collapse_mask(dfg, &n.name, n.domain.dim())
            }
        })
        .collect();

    let mut plans: Vec<StatementPlan> = Vec::new();
    for (idx, node) in dfg.nodes().iter().enumerate() {
        if node.is_input {
            continue;
        }
        let mut reads: Vec<(String, ReadPlan)> = Vec::new();
        for edge in dfg.edges().iter().filter(|e| e.dst == node.name) {
            let src_idx = *node_index
                .get(edge.src.as_str())
                .ok_or_else(|| trace_err(format!("edge from unknown node `{}`", edge.src)))?;
            let resolver = match edge.relation.as_function_of_range() {
                Some(f) => Resolver::Function(f),
                None => Resolver::Search,
            };
            let key = format!("{}\u{0}{}", edge.src, read_signature(&edge.relation));
            reads.push((
                key,
                ReadPlan {
                    src_idx,
                    relation: edge.relation.clone(),
                    resolver,
                },
            ));
        }
        reads.sort_by(|a, b| a.0.cmp(&b.0));
        plans.push(StatementPlan {
            node_idx: idx,
            dims: node.domain.dim(),
            domain: node.domain.clone(),
            ops_per_instance: node.ops_per_instance,
            reads: reads.into_iter().map(|(_, r)| r).collect(),
        });
    }

    let borrowed: Vec<(&str, i128)> = env.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    let mut walker = Walker {
        engine: EngineCtx::current(),
        env: &env,
        params: &borrowed,
        bound,
        max_trace,
        trace: Vec::new(),
        addresses: HashMap::new(),
        next_address: 0,
        ops: 0.0,
        points: 0,
        truncated: false,
        work: 0,
    };
    for st in &plans {
        let mut point = vec![0i128; st.dims];
        walker.enumerate_statement(st, &keeps, &mut point, 0);
        if walker.truncated {
            break;
        }
    }

    Ok(GeneratedTrace {
        distinct_addresses: walker.next_address,
        trace: walker.trace,
        ops: walker.ops,
        points: walker.points,
        truncated: walker.truncated,
    })
}

/// Runs the full tightness pass for a prepared workload's DFG against its
/// analysis: walk each requested instance, simulate each cache size, and
/// evaluate `Q_low` alongside. Engine-budget trips and oversized instances
/// degrade to `skipped` entries instead of failing the pass.
pub fn measure(
    dfg: &Dfg,
    analysis: &Analysis,
    params: &[String],
    options: &TightnessOptions,
) -> TightnessReport {
    let cache_sizes = options.effective_cache_sizes();
    let requested: Vec<Instance> = if options.instances.is_empty() {
        let mut inst = Instance::new();
        for p in params {
            inst = inst.set(p, DEFAULT_SIMULATION_PARAM);
        }
        vec![inst]
    } else {
        options.instances.clone()
    };

    let mut instances = Vec::with_capacity(requested.len());
    for instance in requested {
        let generated =
            EngineInterrupt::catch(|| generate_trace(dfg, &instance, options.max_trace));
        let entry = match generated {
            Err(interrupt) => InstanceTightness {
                instance,
                trace_len: 0,
                distinct_addresses: 0,
                ops: 0.0,
                skipped: Some(format!("engine budget tripped: {}", interrupt.code())),
                caches: Vec::new(),
            },
            Ok(Err(err)) => InstanceTightness {
                instance,
                trace_len: 0,
                distinct_addresses: 0,
                ops: 0.0,
                skipped: Some(err.message),
                caches: Vec::new(),
            },
            Ok(Ok(gt)) if gt.truncated => InstanceTightness {
                instance,
                trace_len: gt.trace.len() as u64,
                distinct_addresses: gt.distinct_addresses,
                ops: gt.ops,
                skipped: Some(format!(
                    "trace budget exceeded ({} accesses); raise max_trace or shrink the instance",
                    options.max_trace
                )),
                caches: Vec::new(),
            },
            Ok(Ok(gt)) => {
                let caches = cache_sizes
                    .iter()
                    .map(|&c| {
                        let at = instance.clone().set(&analysis.cache_param, c as i128);
                        CachePoint {
                            cache_words: c,
                            lru: simulate_lru(&gt.trace, c),
                            opt: options.opt.then(|| simulate_optimal(&gt.trace, c)),
                            q_low: analysis.q_at(&at),
                        }
                    })
                    .collect();
                InstanceTightness {
                    instance,
                    trace_len: gt.trace.len() as u64,
                    distinct_addresses: gt.distinct_addresses,
                    ops: gt.ops,
                    skipped: None,
                    caches,
                }
            }
        };
        instances.push(entry);
    }

    TightnessReport {
        cache_param: analysis.cache_param.clone(),
        max_trace: options.max_trace,
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_dfg() -> Dfg {
        iolb_polybench::kernel_by_name("gemm").unwrap().dfg
    }

    fn touch_oracle(
        addresses: &mut HashMap<(&'static str, Vec<i128>), u64>,
        next: &mut u64,
        trace: &mut Vec<u64>,
        name: &'static str,
        cell: Vec<i128>,
    ) {
        let addr = *addresses.entry((name, cell)).or_insert_with(|| {
            let a = *next;
            *next += 1;
            a
        });
        trace.push(addr);
    }

    /// The trace-generator pin: a hand-written replay of the documented walk
    /// semantics for gemm must reproduce the generated trace byte for byte —
    /// statement-major lex order, reads sorted by (src, signature) so the
    /// self-dependence read lands between B and Cin, first-touch addresses,
    /// and the reduction collapse of `C[i,j,k]` onto the cell `C[i,j]`.
    #[test]
    fn gemm_trace_matches_hand_written_oracle() {
        let (ni, nj, nk) = (3i128, 4i128, 5i128);
        let instance = Instance::new().set("Ni", ni).set("Nj", nj).set("Nk", nk);
        let generated = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();

        let mut addresses = HashMap::new();
        let mut next = 0u64;
        let mut expected = Vec::new();
        for i in 0..ni {
            for j in 0..nj {
                for k in 0..nk {
                    touch_oracle(&mut addresses, &mut next, &mut expected, "A", vec![i, k]);
                    touch_oracle(&mut addresses, &mut next, &mut expected, "B", vec![k, j]);
                    if k > 0 {
                        touch_oracle(&mut addresses, &mut next, &mut expected, "C", vec![i, j]);
                    } else {
                        touch_oracle(&mut addresses, &mut next, &mut expected, "Cin", vec![i, j]);
                    }
                    touch_oracle(&mut addresses, &mut next, &mut expected, "C", vec![i, j]);
                }
            }
        }

        assert_eq!(generated.trace, expected);
        assert_eq!(generated.distinct_addresses, next);
        assert_eq!(
            generated.distinct_addresses,
            (ni * nk + nk * nj + 2 * ni * nj) as u64
        );
        assert_eq!(generated.points, (ni * nj * nk) as u64);
        assert_eq!(generated.ops, (2 * ni * nj * nk) as f64);
        assert!(!generated.truncated);
    }

    #[test]
    fn trace_budget_truncates_instead_of_hanging() {
        let instance = Instance::new().set("Ni", 8).set("Nj", 8).set("Nk", 8);
        let generated = generate_trace(&gemm_dfg(), &instance, 10).unwrap();
        assert!(generated.truncated);
        assert_eq!(generated.trace.len(), 10);
    }

    #[test]
    fn missing_parameter_is_an_error_not_a_panic() {
        let instance = Instance::new().set("Ni", 4).set("Nj", 4);
        let err = generate_trace(&gemm_dfg(), &instance, 100).unwrap_err();
        assert!(err.message.contains("Nk"), "{}", err.message);
    }

    #[test]
    fn oversized_instances_degrade_to_an_error() {
        let instance = Instance::new().set("Ni", 1 << 30).set("Nj", 4).set("Nk", 4);
        let err = generate_trace(&gemm_dfg(), &instance, 100).unwrap_err();
        assert!(err.message.contains("too large"), "{}", err.message);
    }

    #[test]
    fn effective_cache_sizes_filters_sorts_dedups_and_defaults() {
        let opts = TightnessOptions::default().cache_sizes(&[8192, 0, 1024, 8192]);
        assert_eq!(opts.effective_cache_sizes(), vec![1024, 8192]);
        let empty = TightnessOptions::default().cache_sizes(&[0]);
        assert_eq!(empty.effective_cache_sizes(), vec![DEFAULT_CACHE_WORDS]);
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        let instance = Instance::new().set("Ni", 4).set("Nj", 4).set("Nk", 4);
        let a = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();
        let b = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();
        assert_eq!(a.trace, b.trace);
    }
}
