//! The analysis daemon: bounded queue, worker pool, session pool, drain.
//!
//! ```text
//!                    ┌──────────────────────── Server ───────────────────────┐
//! client line ──────▶│ handle_line: parse; control ops inline;               │
//!   (TCP conn /      │   resolve, classify, fingerprint, cache lookup        │
//!    stdio, tests)   │     │ hit: reply inline (queue_ms 0)                   │
//!                    │     ▼ miss                                             │
//!                    │   bounded lane ──▶ worker threads                      │
//!                    │   (backpressure:    │  claim (singleflight)            │
//!                    │    `overloaded`     │  checkout ───────────────────────┼──▶ SessionPool
//!                    │    when full)       │  Analyzer.run, publish              (warm EngineCtx,
//!                    │       ▲             ▼  checkin                           LRU, fingerprint-
//!                    │       └── reply channel ◀── response line              │  keyed)
//!                    └───────────────────────────────────────────────────────┘
//! ```
//!
//! The connection thread resolves each analysis request's workload (a
//! built-in kernel by name, without building its DFG), classifies and
//! fingerprints it, and probes the result cache. A hit is answered right
//! there, so it never queues and is never `overloaded`; only misses enter a
//! lane.
//!
//! Every analysis runs inside its own engine session drawn from the
//! [`SessionPool`], so concurrent requests share no interner, cache or
//! counters — the per-request `engine_stats` in the response are exact
//! deltas for that request alone. Timeouts are *cooperative cancellation*:
//! the client's timeout trips a [`CancelToken`] observed at the engine's
//! budget checkpoints, so the in-flight analysis stops at its next
//! checkpoint instead of running to completion, and queued requests whose
//! client already timed out are skipped without being analysed. Each
//! analysis also runs under a server-side deadline at 90% of its client's
//! timeout, so a budget-degraded result can still reach the client before
//! the client stops listening. Sessions whose analysis was interrupted
//! mid-query (cancelled, deadline, or an explicit `budget` limit) are
//! retired — dropped, never recycled back into the pool — because the
//! interrupt unwinds the engine mid-computation and a conservatively fresh
//! session is cheaper than auditing what the unwind left behind.
//!
//! Shutdown is a drain: after a `shutdown` request (or
//! [`Server::shutdown`]), new analyses are refused with `shutting_down`,
//! already-queued requests are still served, and the worker threads are
//! joined once the queue is empty.

use crate::protocol::{
    self, ok_response, overloaded_response, parse_request, AnalyzeRequest, CacheInfo, DegradedInfo,
    Request, ServiceTimings, SimulateRequest, WorkloadSpec, ERR_RESOURCE_LIMIT, ERR_SHUTTING_DOWN,
    ERR_TIMEOUT, ERR_UNKNOWN_KERNEL, ERR_WORKLOAD,
};
use iolb_core::pool::SessionPool;
use iolb_core::preflight::CostClass;
use iolb_core::result_cache::Claim;
use iolb_core::{
    AnalysisFingerprint, AnalyzeError, Analyzer, DiskTierConfig, Instance, ResultCache,
    ResultCacheConfig, TightnessOptions, Workload,
};
use iolb_frontend::{IolbFile, IolbSource};
use iolb_poly::json::Json;
use iolb_poly::stats::Snapshot;
use iolb_poly::{Budget, CancelToken, EngineConfig, EngineInterrupt};
use iolb_polybench::KernelName;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing analyses (default: the machine's available
    /// parallelism; [`Server::start`] clamps 0 to 1).
    pub workers: usize,
    /// Maximum queued (not yet executing) requests before new ones are
    /// refused with `overloaded` (default 64; [`Server::start`] clamps 0 to
    /// 1 — every request passes through the queue, so a zero-length queue
    /// would reject everything even with idle workers).
    pub queue_capacity: usize,
    /// Maximum idle warm sessions retained between requests (default 8).
    pub pool_capacity: usize,
    /// Timeout applied to requests that carry no `timeout_ms` of their own
    /// (default 120 000 ms).
    pub default_timeout_ms: u64,
    /// In-memory result-cache entries (default 2048). With `cache_dir`
    /// unset, 0 disables the result cache entirely: every request
    /// computes, as before PR 6.
    pub result_cache_entries: usize,
    /// Optional disk tier for the result cache: cached reports survive
    /// daemon restarts (`iolb serve --cache-dir`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Disk-tier byte bound (default 256 MiB; `iolb serve --cache-bytes`).
    pub cache_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            queue_capacity: 64,
            pool_capacity: 8,
            default_timeout_ms: 120_000,
            result_cache_entries: 2048,
            cache_dir: None,
            cache_bytes: 256 << 20,
        }
    }
}

/// The trace-simulation knobs of a `simulate` job, detached from the
/// analysis half so the queue/worker pipeline is shared with `analyze`.
struct SimulateSpec {
    instance: Vec<(String, i128)>,
    cache_sizes: Vec<usize>,
    opt: bool,
    max_trace: Option<u64>,
}

/// One queued analysis.
struct Job {
    request: AnalyzeRequest,
    /// The workload `request` names, resolved on the connection thread.
    workload: Box<dyn Workload + Send>,
    /// The request's result-shaping knobs ([`request_analyzer`]); the
    /// worker attaches the session and the budget.
    analyzer: Analyzer,
    /// The result-cache address, `None` when the request bypasses the
    /// cache (simulate jobs, a disabled cache, an uncacheable workload).
    fingerprint: Option<AnalysisFingerprint>,
    /// `Some` for `simulate` jobs: run the tightness pass after the
    /// analysis and attach the measured-locality report.
    simulate: Option<SimulateSpec>,
    reply: mpsc::Sender<String>,
    enqueued_at: Instant,
    /// Cancelled by the client when it stops waiting (timeout). A worker
    /// popping a cancelled job skips the analysis; a worker already
    /// executing it observes the token at the engine's budget checkpoints
    /// and stops at the next one.
    cancel: CancelToken,
    /// The preflight-predicted cost class that routed this job into its
    /// lane (and derives its default budget).
    class: CostClass,
}

/// Index of a cost class into the per-class metric arrays.
fn class_idx(class: CostClass) -> usize {
    match class {
        CostClass::Small => 0,
        CostClass::Large => 1,
    }
}

/// Log₂ service-time histogram: bucket `i` counts completions with
/// `service_ms` in `[2^i, 2^(i+1))` (bucket 0 also holds sub-millisecond
/// completions).
const HIST_BUCKETS: usize = 32;

fn hist_bucket(service_ms: f64) -> usize {
    let ms = service_ms.max(0.0) as u64;
    if ms <= 1 {
        0
    } else {
        (63 - ms.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// The `service_ms` upper bound of the bucket holding the `q`-quantile
/// completion, or 0 with no samples. Coarse (powers of two) but allocation-
/// free and lock-free — good enough for retry hints and stats.
fn hist_percentile(hist: &[AtomicU64; HIST_BUCKETS], q: f64) -> u64 {
    let counts: Vec<u64> = hist.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return 1u64 << (i + 1);
        }
    }
    1u64 << HIST_BUCKETS
}

#[derive(Default)]
struct Metrics {
    received: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    overloaded: AtomicU64,
    timeouts: AtomicU64,
    /// Jobs whose client abandoned them while still queued: skipped, never
    /// analysed.
    abandoned_skipped: AtomicU64,
    /// Jobs whose client abandoned them while a worker was executing: the
    /// worker finished (or was cancelled mid-flight) and found no one
    /// listening for the response.
    abandoned_completed: AtomicU64,
    /// Analyses stopped mid-flight by a tripped [`CancelToken`].
    cancelled_in_flight: AtomicU64,
    /// Successful responses marked `degraded` (a budget tripped mid-sweep
    /// but an already-proven bound was kept).
    degraded: AtomicU64,
    /// Analyses interrupted before any valid bound existed
    /// (`resource_limit` errors).
    resource_limited: AtomicU64,
    /// Sessions dropped instead of pooled because their analysis was
    /// interrupted mid-query.
    sessions_retired: AtomicU64,
    /// `simulate` requests received (also counted under `received`).
    simulate_requests: AtomicU64,
    /// `simulate` requests that completed with a tightness report attached.
    simulate_completed: AtomicU64,
    /// Per-class (small = 0, large = 1) total service time of completed
    /// requests in microseconds, plus the sample counts — the running means
    /// behind the `retry_after_ms` hints. Split by class so a heat-3d-class
    /// outlier never inflates the back-off hint handed to a cheap request.
    service_us: [AtomicU64; 2],
    service_samples: [AtomicU64; 2],
    /// Per-class log₂ service-time histograms (the `stats` p50/p99 source).
    service_hist: [[AtomicU64; HIST_BUCKETS]; 2],
    /// Per-class high-water marks of lane queue depth.
    queue_peak: [AtomicU64; 2],
    /// Engine operation counters summed over every analysis that completed
    /// (result-cache hits run no engine work and add nothing).
    engine: Mutex<Snapshot>,
}

impl Metrics {
    /// Records one completed request of `class` taking `service_ms`.
    fn record_service(&self, class: CostClass, service_ms: f64) {
        let i = class_idx(class);
        self.service_us[i].fetch_add((service_ms * 1e3) as u64, Ordering::Relaxed);
        self.service_samples[i].fetch_add(1, Ordering::Relaxed);
        self.service_hist[i][hist_bucket(service_ms)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The two class-routed job queues. Small jobs are never stuck behind a
/// large one: large-capable workers prefer the large lane and fall back to
/// small work, while the remaining workers serve the small lane only — so
/// a stencil request can never occupy every worker.
#[derive(Default)]
struct Lanes {
    small: VecDeque<Job>,
    large: VecDeque<Job>,
}

impl Lanes {
    fn lane_mut(&mut self, class: CostClass) -> &mut VecDeque<Job> {
        match class {
            CostClass::Small => &mut self.small,
            CostClass::Large => &mut self.large,
        }
    }
}

/// What a worker thread is allowed to serve.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Serves the large lane first, then falls back to small work
    /// (work-conserving). At least one worker is always large-capable.
    LargeCapable,
    /// Serves the small lane only, so cheap requests always have a worker
    /// no stencil can park.
    SmallOnly,
}

struct Inner {
    config: ServerConfig,
    pool: SessionPool,
    /// The content-addressed result cache, `None` when disabled
    /// (`result_cache_entries == 0` and no `cache_dir`).
    result_cache: Option<Arc<ResultCache>>,
    /// Both lanes live under **one** mutex (and one condvar): workers of
    /// either role wait on the same condvar, and the drain protocol's
    /// no-lost-wakeup argument needs a single lock covering every
    /// queue-state check.
    queue: Mutex<Lanes>,
    queue_cv: Condvar,
    draining: AtomicBool,
    metrics: Metrics,
    /// Memoized request classification, keyed by the workload's canonical
    /// cache key. Bounded (cleared at [`CLASS_MEMO_CAP`]); classification
    /// is cheap enough that a cold miss is fine.
    class_memo: Mutex<HashMap<String, CostClass>>,
}

/// Entries retained in the classification memo before it is reset.
const CLASS_MEMO_CAP: usize = 4096;

/// Default timeout ceiling for small-class requests that carry no
/// `timeout_ms` of their own: a predicted-cheap analysis that runs past
/// 30 s is a misprediction, and bounding it keeps the budget (the engine
/// deadline at 90% of the timeout) proportional to the predicted cost.
const SMALL_DEFAULT_TIMEOUT_MS: u64 = 30_000;

impl Inner {
    /// The effective timeout of a request: its own `timeout_ms`, or the
    /// class-derived default (large: the configured default; small: the
    /// configured default capped at [`SMALL_DEFAULT_TIMEOUT_MS`]).
    fn effective_timeout(&self, request: &AnalyzeRequest, class: CostClass) -> Duration {
        let default_ms = match class {
            CostClass::Large => self.config.default_timeout_ms,
            CostClass::Small => self.config.default_timeout_ms.min(SMALL_DEFAULT_TIMEOUT_MS),
        };
        Duration::from_millis(request.timeout_ms.unwrap_or(default_ms))
    }

    /// Back-off hint for overloaded clients: lane depth × the running mean
    /// service time of completed requests **of the same cost class** — a
    /// heat-3d-class outlier must not inflate the hint handed to a cheap
    /// request. Before any same-class request completes the mean is
    /// unknown; a class-scaled constant stands in so the hint is never
    /// zero.
    fn retry_after_ms(&self, class: CostClass, lane_depth: usize) -> u64 {
        let i = class_idx(class);
        let samples = self.metrics.service_samples[i].load(Ordering::Relaxed);
        let mean_ms = if samples == 0 {
            match class {
                CostClass::Small => 250.0,
                CostClass::Large => 5_000.0,
            }
        } else {
            self.metrics.service_us[i].load(Ordering::Relaxed) as f64 / samples as f64 / 1e3
        };
        (lane_depth.max(1) as f64 * mean_ms).ceil() as u64
    }

    /// Predicts the cost class of a request's workload by running the
    /// static preflight pass (microseconds for kernels, a compile for
    /// source programs) in a session of its own, memoized by the
    /// workload's canonical cache key. Unpreparable workloads classify as
    /// small — the worker surfaces the real error, and a misrouted failure
    /// costs nothing.
    fn classify(&self, workload: &dyn Workload) -> CostClass {
        let key = workload.cache_key();
        if let Some(key) = &key {
            if let Some(class) = self.class_memo.lock().unwrap().get(key) {
                return *class;
            }
        }
        let class = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Analyzer::new().preflight(workload)
        }))
        .ok()
        .and_then(|r| r.ok())
        .map(|report| report.cost_class())
        .unwrap_or(CostClass::Small);
        if let Some(key) = key {
            let mut memo = self.class_memo.lock().unwrap();
            if memo.len() >= CLASS_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, class);
        }
        class
    }

    /// The reply for a report served from the result cache: an inline hit
    /// on the connection thread (`queue_ms` 0), or a worker's `Hit` or
    /// `Coalesced` claim. Counts the request as completed. Cached entries
    /// are never degraded (degraded results are never stored), so the
    /// degraded marker is always absent; which tier served is visible in
    /// the stats counters.
    fn cached_reply(
        &self,
        id: &Json,
        report_json: &str,
        fingerprint: AnalysisFingerprint,
        class: CostClass,
        queue_ms: f64,
        service_ms: f64,
    ) -> String {
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        let timings = ServiceTimings {
            queue_ms,
            service_ms,
            // No driver ran for this request; `session_warm` refers to a
            // session it never used.
            analysis_ms: 0.0,
            session_warm: false,
            pool_sessions: self.pool.len(),
            cost_class: class.as_str(),
        };
        let cache_info = CacheInfo {
            cached: true,
            fingerprint: Some(fingerprint.to_hex()),
        };
        ok_response(id, report_json, &timings, None, &cache_info)
    }
}

/// The result-shaping knobs of a request: everything the fingerprint
/// covers. The session and the budget attach in [`execute`], since
/// neither participates in the fingerprint.
fn request_analyzer(request: &AnalyzeRequest) -> Analyzer {
    let mut analyzer = Analyzer::new().parallel(request.parallel);
    if let Some(depth) = request.depth {
        analyzer = analyzer.max_parametrization_depth(depth);
    } else if !matches!(request.workload, WorkloadSpec::Kernel(_)) {
        // User programs default to the global analysis, like `iolb analyze`
        // (built-in kernels keep their tuned depth).
        analyzer = analyzer.max_parametrization_depth(0);
    }
    if let Some(cache_param) = &request.cache_param {
        analyzer = analyzer.cache_param(cache_param.clone());
    }
    if let Some(cache_size) = request.cache_size {
        analyzer = analyzer.cache_size(cache_size);
    }
    for (name, value) in &request.params {
        analyzer = analyzer.param(name.clone(), *value);
    }
    analyzer
}

/// A running analysis daemon. See the [module docs](self) and
/// `docs/SERVING.md`.
///
/// The server is transport-agnostic: [`Server::handle_line`] maps one
/// request line to one response line and is what the TCP accept loop
/// ([`Server::serve_listener`]), the stdio loop ([`Server::serve_stdio`])
/// and in-process tests all call.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker threads and returns the ready server.
    pub fn start(config: ServerConfig) -> Server {
        // Degenerate capacities are clamped rather than honoured: zero
        // workers would serve nothing, and a zero-length queue would bounce
        // every request with `overloaded` (admission always passes through
        // the queue, even with idle workers).
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let result_cache = if config.result_cache_entries == 0 && config.cache_dir.is_none() {
            None
        } else {
            let cache_config = ResultCacheConfig {
                memory_entries: config.result_cache_entries,
                disk: config.cache_dir.clone().map(|dir| DiskTierConfig {
                    dir,
                    max_bytes: config.cache_bytes,
                }),
                ..ResultCacheConfig::default()
            };
            match ResultCache::new(cache_config) {
                Ok(cache) => Some(cache),
                Err(e) => {
                    // An unusable cache directory degrades to memory-only
                    // serving rather than refusing to start: the cache is
                    // an accelerator, not a dependency.
                    eprintln!("warning: result-cache disk tier disabled: {e}");
                    Some(
                        ResultCache::new(ResultCacheConfig {
                            memory_entries: config.result_cache_entries,
                            ..ResultCacheConfig::default()
                        })
                        .expect("memory-only cache cannot fail"),
                    )
                }
            }
        };
        let inner = Arc::new(Inner {
            pool: SessionPool::new(config.pool_capacity),
            result_cache,
            queue: Mutex::new(Lanes::default()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            metrics: Metrics::default(),
            class_memo: Mutex::new(HashMap::new()),
            config,
        });
        // A lone worker must serve both lanes; with two or more, half the
        // pool (at least one) is large-capable and the rest are reserved for
        // the small lane, so a burst of blowup-class requests can never
        // park every worker behind multi-second analyses.
        let workers = inner.config.workers;
        let large_workers = if workers == 1 {
            1
        } else {
            (workers / 2).max(1)
        };
        let workers = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                let role = if i < large_workers {
                    Role::LargeCapable
                } else {
                    Role::SmallOnly
                };
                std::thread::Builder::new()
                    .name(format!("iolb-worker-{i}"))
                    .spawn(move || worker_loop(&inner, role))
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// True once a `shutdown` request (or [`Server::shutdown`]) started the
    /// drain.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the one response line (no
    /// trailing newline). Blocks the caller for the duration of an
    /// `analyze` request — run one handler per client connection.
    pub fn handle_line(&self, line: &str) -> String {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => return e.to_response(),
        };
        match request {
            Request::Ping(id) => protocol::ack_response(&id, "pong"),
            Request::Stats(id) => self.stats_response(id),
            Request::Shutdown(id) => {
                self.begin_drain();
                protocol::ack_response(&id, "draining")
            }
            Request::Analyze(request) => self.handle_analyze(*request, None),
            Request::Simulate(request) => {
                let SimulateRequest {
                    analyze,
                    instance,
                    cache_sizes,
                    opt,
                    max_trace,
                } = *request;
                self.handle_analyze(
                    analyze,
                    Some(SimulateSpec {
                        instance,
                        cache_sizes,
                        opt,
                        max_trace,
                    }),
                )
            }
        }
    }

    fn handle_analyze(&self, request: AnalyzeRequest, simulate: Option<SimulateSpec>) -> String {
        let started = Instant::now();
        let inner = &*self.inner;
        inner.metrics.received.fetch_add(1, Ordering::Relaxed);
        if simulate.is_some() {
            inner
                .metrics
                .simulate_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        let id = request.id.clone();
        // Resolve without building anything: a built-in kernel's DFG is
        // built by `prepare`, inside the analysis session. An unknown
        // kernel is refused before it costs a lane slot or a session.
        let workload: Box<dyn Workload + Send> = match &request.workload {
            WorkloadSpec::Kernel(name) => match KernelName::lookup(name) {
                Some(kernel) => Box::new(kernel),
                None => {
                    inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    return protocol::error_response(
                        &id,
                        ERR_UNKNOWN_KERNEL,
                        &format!("unknown kernel \"{name}\" (see `iolb kernels` for the list)"),
                    );
                }
            },
            WorkloadSpec::Source(text) => Box::new(IolbSource::new(text)),
            WorkloadSpec::Path(path) => Box::new(IolbFile::new(path)),
        };
        // Classify before taking the queue lock: preflight is microseconds
        // for kernels but compiles source programs, and runs on the
        // connection thread, never under the lock.
        //
        // Simulate jobs ride the large lane regardless of the preflight
        // verdict: trace generation walks every statement instance, so even
        // a preflight-small workload costs large-class service time.
        let class = if simulate.is_some() {
            CostClass::Large
        } else {
            inner.classify(workload.as_ref())
        };
        let analyzer = request_analyzer(&request);
        // Simulate jobs bypass the result cache entirely: the analysis
        // fingerprint does not cover the simulation knobs (instance, cache
        // sizes, policies), so a cached plain-analysis report could neither
        // be replayed for a simulate request nor stored from one.
        let fingerprint = match (&inner.result_cache, &simulate) {
            (Some(_), None) => analyzer.fingerprint(workload.as_ref()),
            _ => None,
        };
        // A stored report is answered here, on the connection thread: a hit
        // never queues, so it is never `overloaded`. `lookup` does not
        // claim, so it never blocks on an in-flight leader; a miss goes to
        // a worker, whose `claim` coalesces it. A draining daemon skips the
        // probe, and the admission below refuses the request.
        if let (Some(cache), Some(fp)) = (&inner.result_cache, fingerprint) {
            if !inner.draining.load(Ordering::SeqCst) {
                if let Some(hit) = cache.lookup(fp) {
                    let service_ms = started.elapsed().as_secs_f64() * 1e3;
                    return inner.cached_reply(&id, &hit.json, fp, class, 0.0, service_ms);
                }
            }
        }
        let timeout = inner.effective_timeout(&request, class);
        let (reply_tx, reply_rx) = mpsc::channel();
        let cancel = CancelToken::new();
        {
            let mut queue = inner.queue.lock().unwrap();
            // The drain check must happen under the queue lock: workers
            // decide to exit under this same lock (empty lanes + draining),
            // so a request admitted here while draining is false is
            // guaranteed a live worker. An unlocked check would race with
            // shutdown and strand the job in the queue forever.
            if inner.draining.load(Ordering::SeqCst) {
                return protocol::error_response(
                    &id,
                    ERR_SHUTTING_DOWN,
                    "server is draining and accepts no new analyses",
                );
            }
            // Admission is per lane — each class gets the full configured
            // capacity, so a flood of large requests cannot starve small
            // ones of queue slots (or vice versa).
            let lane = queue.lane_mut(class);
            if lane.len() >= inner.config.queue_capacity {
                inner.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                let depth = lane.len();
                return overloaded_response(
                    &id,
                    &format!(
                        "{} lane is full ({} queued); retry with backoff",
                        class.as_str(),
                        depth
                    ),
                    inner.retry_after_ms(class, depth),
                );
            }
            lane.push_back(Job {
                request,
                workload,
                analyzer,
                fingerprint,
                simulate,
                reply: reply_tx,
                enqueued_at: Instant::now(),
                cancel: cancel.clone(),
                class,
            });
            let depth = lane.len() as u64;
            inner.metrics.queue_peak[class_idx(class)].fetch_max(depth, Ordering::Relaxed);
        }
        // `notify_all`, not `notify_one`: with two lanes a single wakeup
        // could land on a small-only worker while a large job waits (a lost
        // wakeup for the large-capable worker sleeping next to it).
        inner.queue_cv.notify_all();
        match reply_rx.recv_timeout(timeout) {
            Ok(response) => response,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                cancel.cancel();
                inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                protocol::error_response(
                    &id,
                    ERR_TIMEOUT,
                    &format!(
                        "analysis did not finish within {} ms (the in-flight work is \
                         cancelled at its next engine checkpoint; raise \"timeout_ms\" \
                         for heavy kernels)",
                        timeout.as_millis()
                    ),
                )
            }
            // Unreachable while workers catch panics (they always send),
            // but a dropped channel must never masquerade as a timeout.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
                protocol::error_response(
                    &id,
                    protocol::ERR_INTERNAL,
                    "the worker dropped the request without responding",
                )
            }
        }
    }

    fn stats_response(&self, id: Json) -> String {
        let inner = &*self.inner;
        let m = &inner.metrics;
        let count = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
        let pool = inner.pool.stats();
        let rc = inner
            .result_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default();
        let (small_depth, large_depth) = {
            let queue = inner.queue.lock().unwrap();
            (queue.small.len(), queue.large.len())
        };
        let lane = |class: CostClass, depth: usize| {
            let i = class_idx(class);
            let samples = m.service_samples[i].load(Ordering::Relaxed);
            let mean_ms = if samples == 0 {
                0.0
            } else {
                m.service_us[i].load(Ordering::Relaxed) as f64 / samples as f64 / 1e3
            };
            let hist = &m.service_hist[i];
            Json::obj([
                ("queued", Json::from(depth)),
                ("queued_peak", count(&m.queue_peak[i])),
                ("served", Json::from(samples)),
                ("mean_service_ms", Json::from(mean_ms)),
                ("p50_ms", Json::from(hist_percentile(hist, 0.50))),
                ("p99_ms", Json::from(hist_percentile(hist, 0.99))),
            ])
        };
        let engine = m.engine.lock().unwrap().as_pairs();
        let engine = engine
            .into_iter()
            .map(|(key, value)| (key.to_lowercase(), Json::from(value)));
        let server_stats = Json::obj([
            ("workers", Json::from(inner.config.workers)),
            ("queue_capacity", Json::from(inner.config.queue_capacity)),
            ("queue_depth", Json::from(small_depth + large_depth)),
            (
                "draining",
                Json::from(inner.draining.load(Ordering::SeqCst)),
            ),
            (
                "lanes",
                Json::obj([
                    ("small", lane(CostClass::Small, small_depth)),
                    ("large", lane(CostClass::Large, large_depth)),
                ]),
            ),
            ("requests_received", count(&m.received)),
            ("requests_completed", count(&m.completed)),
            ("requests_failed", count(&m.failed)),
            ("rejected_overloaded", count(&m.overloaded)),
            ("timeouts", count(&m.timeouts)),
            ("abandoned_skipped", count(&m.abandoned_skipped)),
            ("abandoned_completed", count(&m.abandoned_completed)),
            ("cancelled_in_flight", count(&m.cancelled_in_flight)),
            ("degraded", count(&m.degraded)),
            ("resource_limited", count(&m.resource_limited)),
            ("sessions_retired", count(&m.sessions_retired)),
            ("simulate_requests", count(&m.simulate_requests)),
            ("simulate_completed", count(&m.simulate_completed)),
            (
                "pool",
                Json::obj([
                    ("capacity", Json::from(inner.pool.capacity())),
                    ("idle_sessions", Json::from(inner.pool.len())),
                    ("hits", Json::from(pool.hits)),
                    ("misses", Json::from(pool.misses)),
                    ("evictions", Json::from(pool.evictions)),
                    ("retired", Json::from(pool.retired)),
                ]),
            ),
            (
                "result_cache",
                Json::obj([
                    ("enabled", Json::from(inner.result_cache.is_some())),
                    (
                        "entries",
                        Json::from(inner.result_cache.as_ref().map_or(0, |c| c.memory_len())),
                    ),
                    ("hits", Json::from(rc.hits)),
                    ("misses", Json::from(rc.misses)),
                    ("inflight_coalesced", Json::from(rc.inflight_coalesced)),
                    ("disk_hits", Json::from(rc.disk_hits)),
                    ("evictions", Json::from(rc.evictions)),
                    ("disk_evictions", Json::from(rc.disk_evictions)),
                    ("disk_corrupt", Json::from(rc.disk_corrupt)),
                    ("stores", Json::from(rc.stores)),
                    ("uncacheable", Json::from(rc.uncacheable)),
                ]),
            ),
            ("engine", Json::obj(engine)),
        ]);
        Json::obj([
            ("id", id),
            ("status", Json::from("ok")),
            ("server_stats", server_stats),
        ])
        .render()
    }

    fn begin_drain(&self) {
        // The flag must be set (and the notify fired) under the queue lock:
        // a worker's empty-queue + not-draining check and its subsequent
        // cv.wait are only atomic with respect to sections that hold the
        // same mutex. An unlocked store+notify could land exactly between a
        // worker's check and its wait — the notification would find no
        // waiter, the worker would sleep forever, and shutdown would hang.
        let _queue = self.inner.queue.lock().unwrap();
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
    }

    /// Drains and stops the server: refuses new analyses, serves what is
    /// already queued, joins the workers. Idempotent.
    pub fn shutdown(&self) {
        self.begin_drain();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Serves line-delimited JSON over TCP until a `shutdown` request
    /// arrives, then drains and returns. One thread per connection; a
    /// connection handles its requests sequentially (open several
    /// connections for concurrency).
    pub fn serve_listener(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        // The wake-up poke after a shutdown request must be a *connectable*
        // address: a bind to 0.0.0.0/:: listens everywhere but is not
        // itself a destination on every platform, so poke loopback on the
        // bound port instead.
        let wake_addr = if addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            std::net::SocketAddr::new(loopback, addr.port())
        } else {
            addr
        };
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if self.is_draining() {
                break;
            }
            let stream = stream?;
            let server = self.clone();
            // Reap finished connection threads so the handle list stays
            // proportional to *active* connections, not total served.
            connections.retain(|handle| !handle.is_finished());
            connections.push(std::thread::spawn(move || {
                let _ = handle_connection(&server, stream, wake_addr);
            }));
        }
        for handle in connections {
            let _ = handle.join();
        }
        self.shutdown();
        Ok(())
    }

    /// Serves line-delimited JSON on stdin/stdout until EOF or a `shutdown`
    /// request, then drains and returns. Requests are handled sequentially.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout().lock();
        for line in stdin.lock().lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(stdout, "{response}")?;
            stdout.flush()?;
            if self.is_draining() {
                break;
            }
        }
        self.shutdown();
        Ok(())
    }
}

/// One TCP connection: read a line, answer a line, until EOF or drain.
///
/// Reads use a short timeout so a connection blocked waiting for its
/// client's next request still observes the drain flag and closes — this
/// is what lets [`Server::serve_listener`] join every connection thread
/// during shutdown instead of hanging on idle-but-open connections. After
/// the request that *started* the drain, the handler also pokes the accept
/// loop awake with a dummy connection.
fn handle_connection(
    server: &Arc<Server>,
    stream: TcpStream,
    listener_addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Raw bytes, not a String: on a timeout tick `read_until` keeps the
    // partial line in the buffer verbatim, whereas `read_line` would
    // discard everything it had appended whenever the tick happened to
    // split a multi-byte UTF-8 character (std truncates the String rather
    // than leave half a character in it) — losing request bytes already
    // consumed from the socket.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(()), // EOF: the client hung up.
            Ok(_) => {
                let response = match std::str::from_utf8(&buf) {
                    Ok(line) if line.trim().is_empty() => None,
                    Ok(line) => {
                        let was_draining = server.is_draining();
                        let response = server.handle_line(line.trim());
                        if server.is_draining() && !was_draining {
                            // This request started the drain: wake the
                            // blocked accept call so serve_listener exits.
                            let _ = TcpStream::connect(listener_addr);
                        }
                        Some(response)
                    }
                    Err(_) => Some(protocol::error_response(
                        &Json::Null,
                        protocol::ERR_BAD_REQUEST,
                        "request line is not valid UTF-8",
                    )),
                };
                if let Some(response) = response {
                    writeln!(writer, "{response}")?;
                    writer.flush()?;
                }
                buf.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick; partially-read bytes stay in `buf`.
                if server.is_draining() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, role: Role) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                // Large-capable workers drain the large lane first (it has
                // fewer servers), then stay work-conserving on small jobs;
                // small-only workers never touch the large lane, so cheap
                // requests always have a worker no stencil can park.
                let popped = match role {
                    Role::LargeCapable => {
                        queue.large.pop_front().or_else(|| queue.small.pop_front())
                    }
                    Role::SmallOnly => queue.small.pop_front(),
                };
                if let Some(job) = popped {
                    break job;
                }
                // Drain exit: a small-only worker may leave jobs in the
                // large lane behind — the large-capable workers (at least
                // one always exists) finish those before exiting.
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.queue_cv.wait(queue).unwrap();
            }
        };
        if job.cancel.is_cancelled() {
            // The client already timed out while the job sat in the queue:
            // skip the analysis entirely.
            inner
                .metrics
                .abandoned_skipped
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let queue_ms = job.enqueued_at.elapsed().as_secs_f64() * 1e3;
        // Panic isolation: a request that trips an engine invariant (e.g. a
        // workload interning more parameter names than the session allows)
        // must cost that one request an `internal_error` response, not kill
        // the worker thread — dead workers would silently shrink the pool
        // until the daemon stops serving.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(inner, &job, queue_ms)
        }))
        .unwrap_or_else(|panic| {
            inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            protocol::error_response(
                &job.request.id,
                protocol::ERR_INTERNAL,
                &format!("analysis panicked: {message}"),
            )
        });
        // A send failure means the client stopped waiting while the worker
        // was executing: the work ran to its end (or to cancellation), but
        // the abandonment is only observed now that it is finished.
        if job.reply.send(response).is_err() {
            inner
                .metrics
                .abandoned_completed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs one analysis and renders the response line.
///
/// Order matters for the stats satellite fix: the result-cache claim runs
/// **before** any session checkout, so requests served from the cache (or
/// coalesced onto an in-flight leader) never touch the [`SessionPool`] —
/// only the leader's computation registers a pool hit/miss, and coalesced
/// waiters are counted under `inflight_coalesced` alone.
fn execute(inner: &Inner, job: &Job, queue_ms: f64) -> String {
    let request = &job.request;
    let id = &request.id;
    let started = Instant::now();
    let workload = job.workload.as_ref();

    // `Some` exactly when this request must compute *and* publish (or
    // abandon, on every non-clean path — including panics, via `Drop`).
    let mut leader = None;
    if let (Some(cache), Some(fp)) = (&inner.result_cache, job.fingerprint) {
        match cache.claim(fp) {
            // Stored since the connection thread's lookup, or coalesced
            // onto a concurrent leader.
            Claim::Hit(hit) | Claim::Coalesced(hit) => {
                let service_ms = started.elapsed().as_secs_f64() * 1e3;
                inner.metrics.record_service(job.class, service_ms);
                return inner.cached_reply(id, &hit.json, fp, job.class, queue_ms, service_ms);
            }
            Claim::Leader(guard) => leader = Some(guard),
        }
    }

    let mut engine_config = EngineConfig::default();
    if let Some(cap) = request.cache_cap {
        engine_config.cache_capacity = cap;
        // The client budget bounds the projection store too (capacity 0
        // disables memoization entirely), matching `Analyzer::cache_capacity`.
        engine_config.projection_cache_capacity = engine_config.projection_cache_capacity.min(cap);
    }
    let checkout = inner.pool.checkout(&engine_config);

    // The engine budget: the client's cancel token, a deadline at 90% of
    // the client's timeout (so a degraded reply can still reach a client
    // that is about to stop listening — measured from enqueue, exactly
    // like the client's own clock), and any explicit `budget` limits.
    // The class-derived default must match what `handle_analyze` armed.
    let timeout = inner.effective_timeout(request, job.class);
    let mut budget = Budget::none()
        .cancel_token(job.cancel.clone())
        .deadline_at(job.enqueued_at + timeout.mul_f64(0.9));
    if let Some(spec) = &request.budget {
        if let Some(n) = spec.fm_steps {
            budget = budget.max_fm_steps(n);
        }
        if let Some(n) = spec.constraints {
            budget = budget.max_constraints(n);
        }
        if let Some(n) = spec.cache_entries {
            budget = budget.max_cache_entries(n);
        }
    }
    let analyzer = job
        .analyzer
        .clone()
        .engine(checkout.engine.clone())
        .budget(budget);

    let outcome = match &job.simulate {
        None => analyzer.analyze(workload),
        Some(spec) => {
            let mut opts = TightnessOptions::default().opt(spec.opt);
            if !spec.cache_sizes.is_empty() {
                opts = opts.cache_sizes(&spec.cache_sizes);
            }
            if !spec.instance.is_empty() {
                let mut instance = Instance::new();
                for (name, value) in &spec.instance {
                    instance = instance.set(name, *value);
                }
                opts = opts.instance(instance);
            }
            if let Some(n) = spec.max_trace {
                opts = opts.max_trace(n);
            }
            analyzer.analyze_with_tightness(workload, &opts)
        }
    };

    let (response, interrupted) = match outcome {
        Ok(outcome) => {
            inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .engine
                .lock()
                .unwrap()
                .accumulate(&outcome.stats);
            if job.simulate.is_some() && outcome.tightness.is_some() {
                inner
                    .metrics
                    .simulate_completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            let service_ms = started.elapsed().as_secs_f64() * 1e3;
            inner.metrics.record_service(job.class, service_ms);
            let timings = ServiceTimings {
                queue_ms,
                service_ms,
                analysis_ms: outcome.elapsed.as_secs_f64() * 1e3,
                session_warm: checkout.warm,
                pool_sessions: inner.pool.len(),
                cost_class: job.class.as_str(),
            };
            let degraded = outcome.report.analysis.degradation.as_ref().map(|d| {
                inner.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                if d.interrupt == EngineInterrupt::Cancelled {
                    inner
                        .metrics
                        .cancelled_in_flight
                        .fetch_add(1, Ordering::Relaxed);
                }
                DegradedInfo {
                    tripped: d.interrupt.code(),
                    sweep_completed: d.sweep_completed,
                    sweep_total: d.sweep_total,
                }
            });
            let interrupted = degraded.is_some();
            let report_json = outcome.to_json();
            match leader.take() {
                // Only full results are published; a degraded leader is
                // dropped, which wakes its waiters to recompute.
                Some(guard) if !interrupted => guard.publish(Arc::new(report_json.clone())),
                _ => {}
            }
            let cache_info = CacheInfo {
                cached: false,
                fingerprint: job.fingerprint.map(AnalysisFingerprint::to_hex),
            };
            (
                ok_response(id, &report_json, &timings, degraded, &cache_info),
                interrupted,
            )
        }
        Err(AnalyzeError::Interrupted(interrupt)) => {
            inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .resource_limited
                .fetch_add(1, Ordering::Relaxed);
            if interrupt == EngineInterrupt::Cancelled {
                inner
                    .metrics
                    .cancelled_in_flight
                    .fetch_add(1, Ordering::Relaxed);
            }
            (
                protocol::error_response(
                    id,
                    ERR_RESOURCE_LIMIT,
                    &format!(
                        "analysis interrupted by the \"{}\" budget before any valid \
                         bound was proven",
                        interrupt.code()
                    ),
                ),
                true,
            )
        }
        Err(AnalyzeError::Workload(e)) => {
            inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            (
                protocol::error_response(id, ERR_WORKLOAD, &e.to_string()),
                false,
            )
        }
    };
    if interrupted {
        // Retire the session: the interrupt unwound the engine mid-query,
        // so drop it instead of recycling it back into the pool.
        inner
            .metrics
            .sessions_retired
            .fetch_add(1, Ordering::Relaxed);
    } else {
        inner.pool.checkin(checkout.engine);
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::protocol::ERR_OVERLOADED;

    fn server(config: ServerConfig) -> Server {
        Server::start(config)
    }

    /// Asserts that a request was released by its timeout or its engine
    /// deadline: a `timeout` or `resource_limit` error, or — when an
    /// optimized build proves a first bound before the deadline — the
    /// degraded `ok` that keeps that bound, with the deadline as its
    /// tripped budget. A clean `ok` fails.
    fn assert_released_by_deadline(response: &str) {
        let doc = json::parse(response).unwrap();
        if doc.get("status").unwrap().as_str() == Some("ok") {
            assert_eq!(
                doc.get("degraded"),
                Some(&json::Json::Bool(true)),
                "{response}"
            );
            let tripped = doc.get("budget").and_then(|b| b.get("tripped"));
            assert_eq!(
                tripped.and_then(|t| t.as_str()),
                Some("deadline"),
                "{response}"
            );
            return;
        }
        let code = doc.get("error").unwrap().get("code").unwrap().as_str();
        assert!(
            code == Some(ERR_TIMEOUT) || code == Some(ERR_RESOURCE_LIMIT),
            "{response}"
        );
    }

    #[test]
    fn serves_a_kernel_request_in_process() {
        let s = server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let response = s.handle_line(r#"{"id": "r1", "kernel": "gemm"}"#);
        let doc = json::parse(&response).expect("response is valid JSON");
        assert_eq!(doc.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        let report = doc.get("report").unwrap();
        assert_eq!(report.get("schema_version"), Some(&json::Json::Int(1)));
        assert_eq!(
            report.get("q_asymptotic").unwrap().as_str(),
            Some("2*Ni*Nj*Nk*S^(-1/2)")
        );
        assert!(report.get("engine_stats").is_some());
        let server_obj = doc.get("server").unwrap();
        assert_eq!(
            server_obj.get("session_warm"),
            Some(&json::Json::Bool(false))
        );
        s.shutdown();
    }

    #[test]
    fn serves_a_simulate_request_with_a_tightness_block() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let response = s.handle_line(
            r#"{"id": "t1", "op": "simulate", "kernel": "gemm",
                "instance": {"Ni": 12, "Nj": 10, "Nk": 8},
                "cache_sizes": [64, 1024], "opt": true}"#,
        );
        let doc = json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            doc.get("status").unwrap().as_str(),
            Some("ok"),
            "{response}"
        );
        // Simulate jobs ride the large lane and bypass the result cache.
        assert_eq!(
            doc.get("server")
                .unwrap()
                .get("cost_class")
                .unwrap()
                .as_str(),
            Some("large")
        );
        assert_eq!(doc.get("cached"), Some(&json::Json::Bool(false)));
        assert_eq!(doc.get("fingerprint"), None, "uncacheable: no fingerprint");

        // The report carries the measured-locality block next to the bound.
        let report = doc.get("report").unwrap();
        assert!(report.get("q_low").is_some());
        let tightness = report.get("tightness").expect("tightness block attached");
        let json::Json::Arr(instances) = tightness.get("instances").unwrap() else {
            panic!("instances is an array");
        };
        assert_eq!(instances.len(), 1);
        let json::Json::Arr(caches) = instances[0].get("caches").unwrap() else {
            panic!("caches is an array");
        };
        assert_eq!(caches.len(), 2, "both requested cache sizes simulated");
        for point in caches {
            let misses = point.get("lru_misses").unwrap().as_u64().unwrap();
            let opt_misses = point.get("opt_misses").unwrap().as_u64().unwrap();
            assert!(misses > 0);
            assert!(opt_misses <= misses, "Belady never loses to LRU");
        }

        // A second, cache-hittable plain analyze is unaffected, and the
        // stats counters saw exactly one simulate.
        let plain = s.handle_line(r#"{"id": "t2", "kernel": "gemm"}"#);
        let plain = json::parse(&plain).unwrap();
        assert_eq!(plain.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            plain.get("report").unwrap().get("tightness"),
            None,
            "plain analyze stays tightness-free"
        );
        let stats = s.handle_line(r#"{"op": "stats"}"#);
        let stats = json::parse(&stats).unwrap();
        let server_stats = stats.get("server_stats").unwrap();
        assert_eq!(
            server_stats.get("simulate_requests"),
            Some(&json::Json::Int(1))
        );
        assert_eq!(
            server_stats.get("simulate_completed"),
            Some(&json::Json::Int(1))
        );
        s.shutdown();
    }

    #[test]
    fn simulate_rejects_bad_knobs_without_queueing() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let response =
            s.handle_line(r#"{"id": 9, "op": "simulate", "kernel": "gemm", "cache_sizes": [0]}"#);
        let doc = json::parse(&response).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        let stats = s.handle_line(r#"{"op": "stats"}"#);
        let stats = json::parse(&stats).unwrap();
        assert_eq!(
            stats.get("server_stats").unwrap().get("simulate_requests"),
            Some(&json::Json::Int(0)),
            "a parse rejection never reaches the queue"
        );
        s.shutdown();
    }

    #[test]
    fn repeat_requests_reuse_warm_sessions() {
        // Result cache off: this test is about the *session* pool, and a
        // cached second reply would never touch a session at all.
        let s = server(ServerConfig {
            workers: 1,
            result_cache_entries: 0,
            ..ServerConfig::default()
        });
        let first = s.handle_line(r#"{"kernel": "gemm"}"#);
        let second = s.handle_line(r#"{"kernel": "gemm"}"#);
        let warm = |r: &str| {
            json::parse(r)
                .unwrap()
                .get("server")
                .unwrap()
                .get("session_warm")
                .unwrap()
                .as_bool()
                .unwrap()
        };
        assert!(!warm(&first));
        assert!(warm(&second), "the second request gets the pooled session");
        // Warm or cold, the bound is byte-identical.
        let q = |r: &str| {
            json::parse(r)
                .unwrap()
                .get("report")
                .unwrap()
                .get("q_low")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(q(&first), q(&second));
        s.shutdown();
    }

    #[test]
    fn unknown_kernel_and_bad_source_report_errors() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let response = s.handle_line(r#"{"id": 1, "kernel": "frobnicate"}"#);
        let doc = json::parse(&response).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some(ERR_UNKNOWN_KERNEL)
        );
        let response =
            s.handle_line(r#"{"id": 2, "source": "parameter N;\ndouble A[N];\nfor (i = 0; i < N; i++)\n  A[i*i] = 0;\n"}"#);
        let doc = json::parse(&response).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some(ERR_WORKLOAD)
        );
        assert!(
            doc.get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("non-affine"),
            "front-end diagnostics pass through"
        );
        s.shutdown();
    }

    #[test]
    fn repeat_requests_are_served_from_the_result_cache() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let first = s.handle_line(r#"{"kernel": "gemm"}"#);
        let second = s.handle_line(r#"{"kernel": "gemm"}"#);
        let parse = |r: &str| json::parse(r).unwrap();
        let (d1, d2) = (parse(&first), parse(&second));
        assert_eq!(d1.get("cached"), Some(&json::Json::Bool(false)), "{first}");
        assert_eq!(d2.get("cached"), Some(&json::Json::Bool(true)), "{second}");
        // Byte-identical report documents, same fingerprint.
        let report = |r: &str| {
            let start = r.find("\"report\":").unwrap();
            let end = r.find(",\"server\":").unwrap();
            r[start..end].to_string()
        };
        assert_eq!(report(&first), report(&second));
        let fp = |d: &json::Json| d.get("fingerprint").unwrap().as_str().unwrap().to_string();
        assert_eq!(fp(&d1), fp(&d2));
        assert_eq!(fp(&d1).len(), 32);
        let stats = s.handle_line(r#"{"op": "stats"}"#);
        let rc = parse(&stats);
        let rc = rc.get("server_stats").unwrap().get("result_cache").unwrap();
        assert_eq!(rc.get("misses"), Some(&json::Json::Int(1)), "{stats}");
        assert_eq!(rc.get("hits"), Some(&json::Json::Int(1)), "{stats}");
        s.shutdown();
    }

    #[test]
    fn draining_refuses_new_analyses_and_acks_shutdown() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let ack = s.handle_line(r#"{"id": "bye", "op": "shutdown"}"#);
        let doc = json::parse(&ack).unwrap();
        assert_eq!(doc.get("draining"), Some(&json::Json::Bool(true)));
        assert!(s.is_draining());
        let refused = s.handle_line(r#"{"kernel": "gemm"}"#);
        let doc = json::parse(&refused).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some(ERR_SHUTTING_DOWN)
        );
        s.shutdown();
    }

    #[test]
    fn stats_op_reports_counters() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let reply = json::parse(&s.handle_line(r#"{"kernel": "gemm"}"#)).unwrap();
        let stats = s.handle_line(r#"{"op": "stats"}"#);
        let doc = json::parse(&stats).unwrap();
        let ss = doc.get("server_stats").unwrap();
        assert_eq!(ss.get("requests_received"), Some(&json::Json::Int(1)));
        assert_eq!(ss.get("requests_completed"), Some(&json::Json::Int(1)));
        assert_eq!(ss.get("workers"), Some(&json::Json::Int(1)));
        let pool = ss.get("pool").unwrap();
        assert_eq!(pool.get("misses"), Some(&json::Json::Int(1)));
        // The engine totals are the one analysis's engine_stats.
        let request_stats = reply.get("report").unwrap().get("engine_stats").unwrap();
        let engine = ss.get("engine").unwrap();
        for key in ["fm_eliminations", "lattice_steps", "lattice_aborts"] {
            assert_eq!(engine.get(key), request_stats.get(key), "{key}");
        }
        assert!(matches!(engine.get("lattice_steps"), Some(json::Json::Int(n)) if *n > 0));
        s.shutdown();
    }

    #[test]
    fn ping_answers_inline() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let pong = s.handle_line(r#"{"id": 9, "op": "ping"}"#);
        let doc = json::parse(&pong).unwrap();
        assert_eq!(doc.get("pong"), Some(&json::Json::Bool(true)));
        assert_eq!(doc.get("id"), Some(&json::Json::Int(9)));
        s.shutdown();
    }

    #[test]
    fn panicking_requests_are_isolated_from_the_worker() {
        // A source program with more distinct parameter names than the
        // session interner holds (4096) panics inside the engine. The
        // panic must cost that request an `internal_error` response — not
        // the worker thread: with a single worker, a follow-up request
        // proves the daemon still serves.
        let names: Vec<String> = (0..4200).map(|i| format!("p{i}")).collect();
        let source = format!(
            "parameter {};\\ndouble A[p0];\\nfor (i = 0; i < p0; i++)\\n  A[i] = 0;\\n",
            names.join(", ")
        );
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let boomed = s.handle_line(&format!(r#"{{"id": "boom", "source": "{source}"}}"#));
        let doc = json::parse(&boomed).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some(protocol::ERR_INTERNAL),
            "{boomed}"
        );
        assert!(
            doc.get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("interner capacity"),
            "{boomed}"
        );
        let after = s.handle_line(r#"{"id": "after", "kernel": "gemm"}"#);
        let doc = json::parse(&after).unwrap();
        assert_eq!(
            doc.get("status").unwrap().as_str(),
            Some("ok"),
            "the sole worker must survive the panic: {after}"
        );
        s.shutdown();
    }

    #[test]
    fn timeout_releases_the_client() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // 1 ms cannot possibly cover a cholesky analysis. The client's
        // timeout and the server's own 90% deadline race: either the
        // client stops waiting first (`timeout`) or the engine deadline
        // trips first and its reply reaches the client (`resource_limit`,
        // or a degraded `ok` when an optimized build proved a first bound
        // in time). Every outcome releases the client immediately.
        let response = s.handle_line(r#"{"id": "slow", "kernel": "cholesky", "timeout_ms": 1}"#);
        assert_released_by_deadline(&response);
        s.shutdown();
    }

    #[test]
    fn timed_out_requests_free_their_worker_within_a_small_multiple() {
        // Regression: before cooperative cancellation, a heat-3d-class
        // request kept its worker busy for the full analysis (about a
        // second in a debug build) after the client timed out. Now the
        // timeout cancels the in-flight work at the next engine checkpoint,
        // so the worker must be observably released long before that.
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // A 4 ms budget: in a debug build the engine's deadline (90% of
        // it) trips before the compulsory-miss term — the first valid
        // bound, proven about 8 ms into a heat-3d request — so no bound
        // exists to degrade to, and the client timeout (`timeout`) and the
        // deadline (`resource_limit`) race. An optimized build may prove
        // that bound first and reply with a deadline-degraded `ok`.
        let response = s.handle_line(r#"{"id": "hot", "kernel": "heat-3d", "timeout_ms": 4}"#);
        assert_released_by_deadline(&response);
        // Within a quarter of the full analysis, a stats probe (answered
        // inline, no worker needed) must show the worker observed the
        // cancellation: either mid-analysis (cancelled_in_flight /
        // resource_limited / degraded) or at the reply (abandoned_completed).
        let released_by = Instant::now() + Duration::from_millis(250);
        let released = loop {
            let stats = s.handle_line(r#"{"op": "stats"}"#);
            let doc = json::parse(&stats).unwrap();
            let ss = doc.get("server_stats").unwrap();
            let count = |key: &str| match ss.get(key) {
                Some(json::Json::Int(n)) => *n,
                other => panic!("stats field {key} missing or non-integer: {other:?}"),
            };
            if count("cancelled_in_flight")
                + count("resource_limited")
                + count("degraded")
                + count("abandoned_completed")
                >= 1
            {
                break true;
            }
            if Instant::now() >= released_by {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(released, "the worker never observed the cancellation");
        // And the freed worker serves a follow-up cheap request.
        let after = s.handle_line(r#"{"id": "after", "kernel": "gemm"}"#);
        let doc = json::parse(&after).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{after}");
        s.shutdown();
    }

    #[test]
    fn explicit_budgets_trip_as_resource_limit_and_retire_the_session() {
        let s = server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // One FM elimination cannot even compute the input-size term, so
        // the request fails hard rather than degrading.
        let response = s.handle_line(r#"{"id": "b", "kernel": "gemm", "budget": {"fm_steps": 1}}"#);
        let doc = json::parse(&response).unwrap();
        let error = doc.get("error").unwrap();
        assert_eq!(
            error.get("code").unwrap().as_str(),
            Some(ERR_RESOURCE_LIMIT),
            "{response}"
        );
        assert!(
            error
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("fm_steps"),
            "{response}"
        );
        let stats = s.handle_line(r#"{"op": "stats"}"#);
        let doc = json::parse(&stats).unwrap();
        let ss = doc.get("server_stats").unwrap();
        assert_eq!(ss.get("resource_limited"), Some(&json::Json::Int(1)));
        assert_eq!(
            ss.get("sessions_retired"),
            Some(&json::Json::Int(1)),
            "interrupted sessions are dropped, not pooled"
        );
        // An unbudgeted follow-up on the same worker succeeds.
        let after = s.handle_line(r#"{"id": "ok", "kernel": "gemm"}"#);
        let doc = json::parse(&after).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{after}");
        s.shutdown();
    }

    #[test]
    fn overload_rejects_when_the_queue_is_full() {
        // No worker can make progress on these: one busy worker (occupied by
        // the first slow request), queue capacity 1. The third concurrent
        // request must bounce with `overloaded`. Each asks for its own
        // `cache_size`, so none can be answered from the result cache.
        let s = Arc::new(server(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            pool_capacity: 2,
            ..ServerConfig::default()
        }));
        let clients: Vec<_> = (0..3)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    s.handle_line(&format!(
                        r#"{{"id": {i}, "kernel": "heat-3d", "cache_size": {}}}"#,
                        30_000 + i
                    ))
                })
            })
            .collect();
        let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let codes: Vec<Option<String>> = responses
            .iter()
            .map(|r| {
                json::parse(r)
                    .unwrap()
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(|c| c.as_str())
                    .map(str::to_string)
            })
            .collect();
        let overloaded = codes
            .iter()
            .filter(|c| c.as_deref() == Some(ERR_OVERLOADED))
            .count();
        let ok = codes.iter().filter(|c| c.is_none()).count();
        assert!(
            overloaded >= 1,
            "at least one request must bounce: {codes:?}"
        );
        assert!(
            ok >= 1,
            "the queue still serves what it admitted: {codes:?}"
        );
        s.shutdown();
    }

    #[test]
    fn cached_requests_are_answered_inline_while_the_only_worker_is_busy() {
        let s = Arc::new(server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        }));
        let gemm = r#"{"id": "gemm", "kernel": "gemm"}"#;
        let stored = json::parse(&s.handle_line(gemm)).unwrap();
        assert_eq!(stored.get("cached"), Some(&json::Json::Bool(false)));

        // Occupy the only worker with a cold heat-3d; its reply and the
        // cached gemm's reply go into one channel, in arrival order.
        let (tx, rx) = mpsc::channel();
        let heat = {
            let (s, tx) = (s.clone(), tx.clone());
            std::thread::spawn(move || {
                let reply = s.handle_line(r#"{"id": "heat", "kernel": "heat-3d"}"#);
                tx.send(("heat-3d", reply)).unwrap();
            })
        };
        // The worker holds heat-3d once the large lane has seen it and is
        // empty again.
        loop {
            let stats = json::parse(&s.handle_line(r#"{"op": "stats"}"#)).unwrap();
            let large = stats
                .get("server_stats")
                .and_then(|ss| ss.get("lanes"))
                .and_then(|lanes| lanes.get("large"))
                .unwrap()
                .clone();
            let count = |key: &str| large.get(key).and_then(|v| v.as_u64()).unwrap();
            if count("queued_peak") == 1 && count("queued") == 0 {
                break;
            }
            std::thread::yield_now();
        }
        tx.send(("gemm", s.handle_line(gemm))).unwrap();
        let (first, hit) = rx.recv().unwrap();
        assert_eq!(first, "gemm", "the hit waited for the worker: {hit}");
        let hit = json::parse(&hit).unwrap();
        assert_eq!(hit.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(hit.get("cached"), Some(&json::Json::Bool(true)));
        assert_eq!(hit.get("fingerprint"), stored.get("fingerprint"));
        let server_obj = hit.get("server").unwrap();
        assert_eq!(server_obj.get("queue_ms"), Some(&json::Json::Int(0)));
        assert_eq!(
            server_obj.get("cost_class").unwrap().as_str(),
            Some("small")
        );
        heat.join().unwrap();
        let (_, heat_reply) = rx.recv().unwrap();
        let heat_reply = json::parse(&heat_reply).unwrap();
        assert_eq!(heat_reply.get("status").unwrap().as_str(), Some("ok"));

        // A draining daemon refuses even a request it could answer from
        // the cache.
        s.handle_line(r#"{"op": "shutdown"}"#);
        let refused = json::parse(&s.handle_line(gemm)).unwrap();
        assert_eq!(
            refused.get("error").unwrap().get("code").unwrap().as_str(),
            Some(ERR_SHUTTING_DOWN)
        );
        s.shutdown();
    }
}
