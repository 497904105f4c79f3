//! `serve-mixed`: one closed-loop client against an in-process daemon.
//!
//! The daemon is `Server` with its default workers and result cache — the
//! `iolb serve` path minus the socket. Set-up starts it and primes it with
//! a 36-entry catalogue (the 30 built-in kernels plus six example programs
//! sent as `source`). The timed stream is about 90% repeats, which the
//! result cache serves, and 10% new `cache_size` values for catalogue
//! entries, which compute on a warm pooled session and are then stored.
//!
//! `jacobi-2d.iolb` is primed and repeated but never sent as a miss: one
//! warm miss of it costs about 2 s, 70% of a whole rotation through the
//! catalogue, so `requests_per_s` would mostly measure that one analysis.
//! Its cost is measured by `setup_s`, which it dominates.

use crate::compose::{self, Knobs, Simulation};
use crate::measure::{self, Checks, Rng, SETUP_REPEATS};
use crate::trace::Tracer;
use crate::{Config, Layer, Outcome};
use iolb_core::{Instance, Workload};
use iolb_frontend::IolbSource;
use iolb_poly::{EngineConfig, EngineCtx};
use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

const PROGRAMS: [(&str, &str); 6] = [
    (
        "gemm.iolb",
        include_str!("../../examples/programs/gemm.iolb"),
    ),
    (
        "cholesky.iolb",
        include_str!("../../examples/programs/cholesky.iolb"),
    ),
    (
        "jacobi-2d.iolb",
        include_str!("../../examples/programs/jacobi-2d.iolb"),
    ),
    (
        "ai/attention.iolb",
        include_str!("../../examples/programs/ai/attention.iolb"),
    ),
    (
        "ai/conv2d.iolb",
        include_str!("../../examples/programs/ai/conv2d.iolb"),
    ),
    (
        "ai/mlp.iolb",
        include_str!("../../examples/programs/ai/mlp.iolb"),
    ),
];

/// Catalogue entries that never get a timed miss (see the module docs).
const NO_MISS: [&str; 1] = ["jacobi-2d.iolb"];

/// One request in ten is a miss.
const BLOCK: usize = 10;

/// The deterministic daemon counters cover priming plus this many timed
/// requests, a prefix every run completes.
const COUNT_WINDOW: usize = 1000;

/// Misses use fresh fast-memory sizes from here up, one per miss.
const MISS_CACHE_SIZE_BASE: i128 = 20_000;

enum Source {
    Kernel(&'static str),
    Program(&'static str),
}

struct Entry {
    label: &'static str,
    source: Source,
    /// The request's workload field, ready to splice into a request line.
    field: String,
}

impl Entry {
    fn workload(&self) -> Box<dyn Workload> {
        match self.source {
            Source::Kernel(name) => {
                Box::new(iolb_polybench::kernel_by_name(name).expect("built-in kernel"))
            }
            // The daemon names inline sources "program"; so must the
            // composition, or the report bytes would differ.
            Source::Program(src) => Box::new(IolbSource::new(src)),
        }
    }

    /// The daemon analyses user programs at depth 0 unless asked otherwise.
    fn knobs(&self, cache_size: Option<i128>) -> Knobs {
        Knobs {
            depth: matches!(self.source, Source::Program(_)).then_some(0),
            cache_size,
        }
    }

    fn params(&self) -> Vec<String> {
        match self.source {
            Source::Kernel(name) => {
                let kernel = iolb_polybench::kernel_by_name(name).expect("built-in kernel");
                kernel.params.iter().map(|p| p.to_string()).collect()
            }
            Source::Program(src) => iolb_frontend::compile(src)
                .map(|p| p.params().to_vec())
                .unwrap_or_default(),
        }
    }
}

fn catalogue() -> Vec<Entry> {
    let mut entries: Vec<Entry> = iolb_polybench::kernel_names()
        .into_iter()
        .map(|name| Entry {
            label: name,
            source: Source::Kernel(name),
            field: format!("\"kernel\":{}", json::escape(name)),
        })
        .collect();
    for (label, src) in PROGRAMS {
        entries.push(Entry {
            label,
            source: Source::Program(src),
            field: format!("\"source\":{}", json::escape(src)),
        });
    }
    entries
}

/// A request key: catalogue entry and the `cache_size` it asks for.
type Key = (usize, Option<i128>);

fn request_line(id: usize, entries: &[Entry], key: Key) -> String {
    let size = key
        .1
        .map_or(String::new(), |s| format!(",\"cache_size\":{s}"));
    format!("{{\"id\":{id},{}{size}}}", entries[key.0].field)
}

/// The seeded request stream. In each block of ten, one request at a
/// seeded position is a miss; the rest repeat a key picked uniformly among
/// every key stored so far. Misses walk the miss-eligible entries in
/// catalogue order, each with a fresh `cache_size`. Only misses touch the
/// pooled sessions, so a fixed miss order gives every seed the same warm
/// session state and the same miss costs: the seed varies the repeats and
/// the interleaving, not how much work the misses do.
struct Stream {
    rng: Rng,
    eligible: Vec<usize>,
    miss_slot: usize,
    misses: usize,
    stored: Vec<Key>,
}

impl Stream {
    fn new(seed: u64, entries: &[Entry]) -> Stream {
        Stream {
            rng: Rng::new(seed, 1),
            eligible: (0..entries.len())
                .filter(|&e| !NO_MISS.contains(&entries[e].label))
                .collect(),
            miss_slot: 0,
            misses: 0,
            stored: (0..entries.len()).map(|e| (e, None)).collect(),
        }
    }

    /// The key of request `i` and whether it is a miss.
    fn next(&mut self, i: usize) -> (Key, bool) {
        if i.is_multiple_of(BLOCK) {
            self.miss_slot = self.rng.below(BLOCK);
        }
        if i % BLOCK == self.miss_slot {
            let entry = self.eligible[self.misses % self.eligible.len()];
            let key = (entry, Some(MISS_CACHE_SIZE_BASE + self.misses as i128));
            self.misses += 1;
            self.stored.push(key);
            (key, true)
        } else {
            (self.stored[self.rng.below(self.stored.len())], false)
        }
    }
}

/// End of the JSON object or array starting at `start`.
fn value_end(s: &str, start: usize) -> Option<usize> {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, b) in s.bytes().enumerate().skip(start) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// The parts of an ok reply the checks need, sliced out without a full
/// parse so that checking stays cheap next to a sub-millisecond hit.
struct Reply<'a> {
    cached: bool,
    report: &'a str,
    server: &'a str,
}

fn parse_reply(line: &str) -> Result<Reply<'_>, String> {
    let at = line
        .find("\"report\":")
        .ok_or_else(|| format!("not an ok reply: {}", truncate(line)))?;
    let head = &line[..at];
    if !head.contains("\"status\":\"ok\"") {
        return Err(format!("status is not ok: {}", truncate(line)));
    }
    let start = at + "\"report\":".len();
    let end = value_end(line, start).ok_or("unterminated report")?;
    let rest = line[end..]
        .strip_prefix(",\"server\":")
        .ok_or("no server object after the report")?;
    let server_end = value_end(rest, 0).ok_or("unterminated server object")?;
    Ok(Reply {
        cached: head.contains("\"cached\":true"),
        report: &line[start..end],
        server: &rest[..server_end],
    })
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |v, k| v.get(k))
}

/// The checks every report document must pass: it parses, carries
/// `schema_version`, is not degraded; returns its `q_low`.
pub fn checked_q_low(report: &str) -> Result<(Json, String), String> {
    let doc = json::parse(report).map_err(|e| format!("report does not parse: {e:?}"))?;
    if field(&doc, &["schema_version"])
        .and_then(Json::as_u64)
        .is_none()
    {
        return Err("report has no schema_version".into());
    }
    if doc.get("degraded").is_some() {
        return Err("report is degraded".into());
    }
    let q_low = doc
        .get("q_low")
        .and_then(Json::as_str)
        .ok_or("report has no q_low")?
        .to_string();
    Ok((doc, q_low))
}

/// The daemon counters the benchmark reports, from the `stats` op.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct DaemonCounts {
    rc_hits: u64,
    rc_misses: u64,
    rc_stores: u64,
    pool_hits: u64,
    pool_misses: u64,
}

impl DaemonCounts {
    fn read(server: &Server) -> DaemonCounts {
        let doc = json::parse(&server.handle_line(r#"{"op":"stats"}"#)).expect("stats reply");
        let get = |path: &[&str]| {
            let mut full = vec!["server_stats"];
            full.extend_from_slice(path);
            field(&doc, &full)
                .and_then(Json::as_u64)
                .expect("stats counter")
        };
        DaemonCounts {
            rc_hits: get(&["result_cache", "hits"]),
            rc_misses: get(&["result_cache", "misses"]),
            rc_stores: get(&["result_cache", "stores"]),
            pool_hits: get(&["pool", "hits"]),
            pool_misses: get(&["pool", "misses"]),
        }
    }

    fn since(self, earlier: DaemonCounts) -> DaemonCounts {
        DaemonCounts {
            rc_hits: self.rc_hits - earlier.rc_hits,
            rc_misses: self.rc_misses - earlier.rc_misses,
            rc_stores: self.rc_stores - earlier.rc_stores,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
        }
    }
}

/// Engine counters over the priming replies' `engine_stats`.
const ENGINE_STATS: [(&str, &str); 8] = [
    ("poly.fm_eliminations", "fm_eliminations"),
    ("poly.feasibility_checks", "feasibility_checks"),
    ("poly.feasibility_cache_hits", "feasibility_cache_hits"),
    ("poly.entailment_checks", "entailment_checks"),
    ("poly.count_calls", "count_calls"),
    ("poly.projection_cache_hits", "projection_cache_hits"),
    ("poly.lp_calls", "lp_calls"),
    ("poly.cache_entries", "cache_entries"),
];

/// A primed daemon and what priming produced.
struct Primed {
    server: Server,
    /// Report bytes of the reply that stored each key.
    stored: BTreeMap<Key, String>,
    q_low: Vec<String>,
    engine: BTreeMap<&'static str, u64>,
    counts_before: DaemonCounts,
    priming_counts: DaemonCounts,
}

fn start_and_prime(entries: &[Entry], checks: &mut Checks) -> Primed {
    let server = Server::start(ServerConfig::default());
    let counts_before = DaemonCounts::read(&server);
    let mut stored = BTreeMap::new();
    let mut q_low = Vec::new();
    let mut engine: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (e, entry) in entries.iter().enumerate() {
        let key = (e, None);
        let line = server.handle_line(&request_line(e, entries, key));
        let checked = parse_reply(&line).and_then(|r| {
            let (doc, q) = checked_q_low(r.report)?;
            Ok((r.report.to_string(), doc, q))
        });
        match checked {
            Ok((report, doc, q)) => {
                for (name, json_key) in ENGINE_STATS {
                    let v = field(&doc, &["engine_stats", json_key]).and_then(Json::as_u64);
                    let total = engine.entry(name).or_default();
                    // Pooled sessions keep their entries across requests,
                    // so the resident count is a peak, not a sum.
                    if name == "poly.cache_entries" {
                        *total = (*total).max(v.unwrap_or(0));
                    } else {
                        *total += v.unwrap_or(0);
                    }
                }
                stored.insert(key, report);
                q_low.push(q);
            }
            Err(why) => {
                checks.self_check_failed(format!("priming {}: {why}", entry.label));
                q_low.push(String::new());
            }
        }
    }
    let priming_counts = DaemonCounts::read(&server).since(counts_before);
    Primed {
        server,
        stored,
        q_low,
        engine,
        counts_before,
        priming_counts,
    }
}

/// Per-reply daemon timings of the traced blocks.
#[derive(Default)]
struct ServerSamples {
    hit_service_ms: Vec<f64>,
    miss_service_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    analysis_ms: Vec<f64>,
    latency_ms: f64,
}

fn server_field(server: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    server
        .find(&needle)
        .map(|at| &server[at + needle.len()..])
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn run(cfg: &Config, checks: &mut Checks, host: &mut measure::Host) -> Outcome {
    let mut setup_s = Vec::new();
    let mut primed: Option<Primed> = None;
    let mut entries = Vec::new();
    let mut first = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = primed.take() {
            old.server.shutdown();
            drop(old);
            measure::release_freed_memory();
        }
        let t = Instant::now();
        entries = catalogue();
        let p = start_and_prime(&entries, checks);
        setup_s.push(t.elapsed().as_secs_f64());
        // Priming is deterministic: every set-up must produce the same
        // bounds and the same daemon and engine counts.
        let digest = (p.q_low.clone(), p.priming_counts, p.engine.clone());
        match &first {
            None => first = Some(digest),
            Some(first) if *first != digest => {
                checks.self_check_failed("two primings of the daemon disagree".into())
            }
            Some(_) => {}
        }
        primed = Some(p);
    }
    let Primed {
        server,
        mut stored,
        q_low,
        engine,
        counts_before,
        ..
    } = primed.expect("set-up ran");

    // Timed phase.
    let mut stream = Stream::new(cfg.seed, &entries);
    // One rotation: every miss-eligible entry missed once.
    let rotation = BLOCK * stream.eligible.len();
    let mut tracer = Tracer::new();
    let mut samples = ServerSamples::default();
    let mut traced_keys: BTreeSet<Key> = BTreeSet::new();
    let mut window: Option<DaemonCounts> = None;
    let mut alternate = crate::Alternate::default();
    let (phase, traced_phase) = measure::bracket(host, || {
        crate::run_phase(cfg, rotation, |i| {
            if i == COUNT_WINDOW {
                window = Some(DaemonCounts::read(&server).since(counts_before));
            }
            let (key, miss) = stream.next(i);
            let line = request_line(i, &entries, key);
            let traced = alternate.traced(cfg, &(key.0, miss));
            let t = Instant::now();
            let reply = if traced {
                let root = tracer.begin_request(i as u64);
                let reply = tracer.span("server.handle_line", || server.handle_line(&line));
                tracer.exit(root);
                reply
            } else {
                server.handle_line(&line)
            };
            let latency = t.elapsed().as_secs_f64() * 1e3;
            match parse_reply(&reply) {
                Err(why) => checks.request_failed(format!("request {i}: {why}")),
                Ok(r) => {
                    if r.cached {
                        match stored.get(&key) {
                            Some(bytes) if bytes == r.report => {}
                            Some(_) => checks.request_failed(format!(
                                "request {i}: cached report bytes differ from the reply that stored them"
                            )),
                            None => checks
                                .request_failed(format!("request {i}: cached reply for a key never stored")),
                        }
                    } else {
                        if miss {
                            if let Err(why) = checked_q_low(r.report) {
                                checks.request_failed(format!("request {i}: {why}"));
                            }
                        }
                        stored.insert(key, r.report.to_string());
                    }
                    if traced {
                        traced_keys.insert(key);
                        let service = server_field(r.server, "service_ms");
                        if r.cached {
                            samples.hit_service_ms.push(service);
                        } else {
                            samples.miss_service_ms.push(service);
                            samples
                                .analysis_ms
                                .push(server_field(r.server, "analysis_ms"));
                        }
                        samples.queue_ms.push(server_field(r.server, "queue_ms"));
                        samples.service_ms.push(service);
                        samples.latency_ms += latency;
                    }
                }
            }
            alternate.record((key.0, miss), traced, latency);
            (traced, latency)
        })
    });
    let window = window.unwrap_or_else(|| {
        checks.self_check_failed(format!(
            "the phase ended before the {COUNT_WINDOW}-request counting window"
        ));
        DaemonCounts::default()
    });
    server.shutdown();
    drop(server);
    measure::release_freed_memory();

    // Post-phase reference: each catalogue entry analysed through the
    // untraced Analyzer path (traced composition in the traced run) at a
    // small instance, simulated under LRU and OPT. Its q_low must equal the
    // daemon's priming reply, and Q_low <= OPT <= LRU must hold.
    let mut ref_tracer = Tracer::new();
    let mut ratios = Vec::new();
    let mut gaps = Vec::new();
    let mut accesses = 0u64;
    let (mut lru_misses, mut opt_misses) = (0u64, 0u64);
    for (e, entry) in entries.iter().enumerate() {
        let workload = entry.workload();
        let params = entry.params();
        let instance = compose::reference_instance(&params);
        let result = if cfg.trace {
            compose_entry(
                &mut ref_tracer,
                entry,
                e,
                workload.as_ref(),
                &instance,
                &traced_keys,
                &stored,
                checks,
            )
        } else {
            compose::reference(workload.as_ref(), &instance, entry.knobs(None))
                .map(|(outcome, acc, points)| (outcome.report, acc, points))
        };
        match result {
            Ok((report, acc, points)) => {
                let q = report.analysis.q_low.to_string();
                if q != q_low[e] {
                    checks.self_check_failed(format!(
                        "{}: reference q_low {q} differs from the daemon's {}",
                        entry.label, q_low[e]
                    ));
                }
                if let Err(why) = compose::check_points(&points) {
                    checks.self_check_failed(format!("{} reference: {why}", entry.label));
                }
                ratios.extend(compose::tightness_ratios(&points));
                accesses += acc;
                lru_misses += points.iter().map(|p| p.lru_misses).sum::<u64>();
                opt_misses += points.iter().map(|p| p.opt_misses).sum::<u64>();
                if let Source::Kernel(name) = entry.source {
                    let kernel = iolb_polybench::kernel_by_name(name).expect("built-in kernel");
                    gaps.extend(compose::paper_gap(&kernel, &report));
                }
            }
            Err(why) => checks.self_check_failed(format!("{} reference: {why}", entry.label)),
        }
    }

    let mut counters: BTreeMap<&'static str, u64> = engine;
    counters.extend([
        ("tightness.accesses", accesses),
        ("cachesim.lru_misses", lru_misses),
        ("cachesim.opt_misses", opt_misses),
        ("result_cache.hits", window.rc_hits),
        ("result_cache.misses", window.rc_misses),
        ("result_cache.stores", window.rc_stores),
        ("pool.hits", window.pool_hits),
        ("pool.misses", window.pool_misses),
    ]);

    let mut layers = Vec::new();
    if cfg.trace {
        // Self-check: a second daemon fed the same seed must count the same.
        let replay = replay_window(cfg.seed, &entries, checks);
        if replay != window {
            checks.self_check_failed(format!(
                "daemon counters differ between two runs of seed {}: {window:?} vs {replay:?}",
                cfg.seed
            ));
        }
        layers = crate::span_layers(&ref_tracer, accesses);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        layers.extend([
            Layer::new(
                "driver.share",
                "ratio",
                samples.analysis_ms.iter().sum::<f64>() / samples.latency_ms,
            ),
            Layer::new(
                "server.hit_p50_ms",
                "ms",
                measure::median(&samples.hit_service_ms),
            ),
            Layer::new(
                "server.miss_p50_ms",
                "ms",
                measure::median(&samples.miss_service_ms),
            ),
            Layer::new("server.queue_ms", "ms", mean(&samples.queue_ms)),
            Layer::new("server.service_ms", "ms", mean(&samples.service_ms)),
            Layer::new("server.analysis_ms", "ms", mean(&samples.analysis_ms)),
        ]);
    }

    Outcome {
        setup_s,
        phase,
        traced_phase,
        paper_gap: measure::geomean(&gaps),
        tightness: measure::geomean(&ratios),
        counters,
        layers,
        sides_requests_per_s: alternate.mix_requests_per_s(),
        spans: vec![("requests", tracer), ("reference", ref_tracer)],
    }
}

/// The traced run's reference for one entry, composed from public calls in
/// one session: first the primed key with the small simulated instance,
/// then, warm, every miss key the traced blocks sent for this entry. Each
/// composition's `q_low` must match the report the daemon served for it.
#[allow(clippy::too_many_arguments)]
fn compose_entry(
    tracer: &mut Tracer,
    entry: &Entry,
    e: usize,
    workload: &dyn Workload,
    instance: &Instance,
    traced_keys: &BTreeSet<Key>,
    stored: &BTreeMap<Key, String>,
    checks: &mut Checks,
) -> Result<(iolb_core::Report, u64, Vec<compose::Point>), String> {
    let engine = EngineCtx::with_config(EngineConfig::default());
    let sim = Simulation {
        instance,
        cache_words: &compose::REFERENCE_CACHE_WORDS,
        max_trace: compose::REFERENCE_MAX_TRACE,
    };
    let reference = compose_request(
        tracer,
        &engine,
        entry,
        workload,
        (e, None),
        Some(&sim),
        stored,
    )?;
    let misses = traced_keys.range((e, Some(i128::MIN))..=(e, Some(i128::MAX)));
    for &key in misses {
        let served = stored.get(&key).map(|bytes| checked_q_low(bytes));
        let composed = compose_request(tracer, &engine, entry, workload, key, None, stored);
        match (composed, served) {
            (Ok(c), Some(Ok((_, q)))) if c.report.analysis.q_low.to_string() == q => {}
            (Ok(c), Some(Ok((_, q)))) => checks.self_check_failed(format!(
                "{} at cache_size {:?}: composed q_low {} differs from the served {q}",
                entry.label, key.1, c.report.analysis.q_low
            )),
            (Err(why), _) | (_, Some(Err(why))) => checks
                .self_check_failed(format!("{} at cache_size {:?}: {why}", entry.label, key.1)),
            (_, None) => checks.self_check_failed(format!(
                "{} at cache_size {:?}: no served report",
                entry.label, key.1
            )),
        }
    }
    Ok((reference.report, reference.accesses, reference.points))
}

/// One traced request of the composition: the cache key and compile steps
/// the daemon runs for a source, the analysis itself, and compacting the
/// served report bytes.
fn compose_request(
    tracer: &mut Tracer,
    engine: &Arc<EngineCtx>,
    entry: &Entry,
    workload: &dyn Workload,
    key: Key,
    simulation: Option<&Simulation<'_>>,
    stored: &BTreeMap<Key, String>,
) -> Result<compose::Composed, String> {
    let root = tracer.begin_request(key.0 as u64);
    tracer.span("frontend.cache_key", || workload.cache_key());
    if let Source::Program(src) = entry.source {
        let compiled =
            engine.scope(|| tracer.span("frontend.compile", || iolb_frontend::compile(src)));
        compiled.map_err(|e| e.to_string())?;
    }
    let composed = compose::analyze(tracer, engine, workload, entry.knobs(key.1), simulation);
    if let Some(bytes) = stored.get(&key) {
        tracer.span("json.compact", || json::compact(bytes));
    }
    tracer.exit(root);
    composed
}

/// Primes a second daemon and replays the counting window of the same
/// seed's stream, returning its counters.
fn replay_window(seed: u64, entries: &[Entry], checks: &mut Checks) -> DaemonCounts {
    let primed = start_and_prime(entries, checks);
    let mut stream = Stream::new(seed, entries);
    for i in 0..COUNT_WINDOW {
        let (key, _) = stream.next(i);
        let reply = primed.server.handle_line(&request_line(i, entries, key));
        if let Err(why) = parse_reply(&reply) {
            checks.self_check_failed(format!("replay request {i}: {why}"));
        }
    }
    let counts = DaemonCounts::read(&primed.server).since(primed.counts_before);
    primed.server.shutdown();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_sliced_past_braces_inside_strings() {
        let line = r#"{"id":3,"status":"ok","cached":true,"report":{"q_low":"a}\"{","n":[1,{"x":2}]},"server":{"queue_ms":0.010,"service_ms":0.250}}"#;
        let reply = parse_reply(line).unwrap();
        assert!(reply.cached);
        assert_eq!(reply.report, r#"{"q_low":"a}\"{","n":[1,{"x":2}]}"#);
        assert_eq!(server_field(reply.server, "service_ms"), 0.25);
        assert!(parse_reply(r#"{"id":3,"status":"error","error":{}}"#).is_err());
    }

    #[test]
    fn the_stream_sends_one_miss_per_block_in_catalogue_order() {
        let entries = catalogue();
        let keys = |seed| {
            let mut stream = Stream::new(seed, &entries);
            (0..700).map(|i| stream.next(i)).collect::<Vec<_>>()
        };
        let a = keys(5);
        assert_eq!(a, keys(5));
        assert_ne!(a, keys(6));
        for block in a.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|(_, miss)| *miss).count(), 1);
        }
        let missed: Vec<usize> = a.iter().filter(|(_, m)| *m).map(|((e, _), _)| *e).collect();
        let b: Vec<usize> = keys(6)
            .iter()
            .filter(|(_, m)| *m)
            .map(|((e, _), _)| *e)
            .collect();
        assert_eq!(missed, b, "the miss order does not depend on the seed");
        assert!(!missed.iter().any(|&e| NO_MISS.contains(&entries[e].label)));
    }
}
