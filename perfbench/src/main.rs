//! End-to-end and per-layer benchmark of the IOLB analyzer and daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-cold|simulate-mid|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run executes one workload in this process: set-up (repeated and
//! reported as a median), a timed phase driven by one closed-loop client,
//! and the output checks. It prints a table for the reader and, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See `perfbench/README.md`.

mod compose;
mod measure;
mod serve;
mod simulate;
mod suite;
mod trace;

use measure::{Checks, Host, Phase};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::time::Instant;
use trace::Tracer;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Layer {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Layer {
        Layer { name, unit, value }
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Untraced requests of the timed phase.
    pub phase: Phase,
    /// Traced requests (traced run only), interleaved with the untraced ones.
    pub traced_phase: Option<Phase>,
    pub paper_gap: f64,
    pub tightness: f64,
    /// Deterministic counts: identical for every run of the same seed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Span-derived layer metrics (traced run only).
    pub layers: Vec<Layer>,
    /// Untraced and traced requests per second on the same input mix
    /// (traced run only).
    pub sides_requests_per_s: (f64, f64),
    pub spans: Vec<(&'static str, Tracer)>,
}

/// Runs the timed phase: `request(i)` issues request `i` and returns
/// whether it was traced and its client-observed latency in ms. The phase
/// runs whole rounds of `round` requests (a pass over the workload's
/// inputs, or a rotation of its miss order) until `--seconds` have passed,
/// so every run serves the same mix whatever its seed and speed; it
/// overruns by less than one round. Each side's time is the wall time of
/// its own requests.
pub fn run_phase(
    cfg: &Config,
    round: usize,
    mut request: impl FnMut(usize) -> (bool, f64),
) -> (Phase, Option<Phase>) {
    let start = Instant::now();
    let mut phases = [Phase::default(), Phase::default()];
    let mut i = 0;
    while i % round != 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let (traced, latency) = request(i);
        let side = &mut phases[traced as usize];
        side.latencies_ms.push(latency);
        side.seconds += t.elapsed().as_secs_f64();
        i += 1;
    }
    let [untraced, traced] = phases;
    (untraced, cfg.trace.then_some(traced))
}

/// Picks the traced requests of a traced run, every second occurrence of
/// each input, and compares the two sides on the same mix of inputs: a few
/// heavy inputs (heat-3d, stencil misses) would otherwise decide which side
/// looks faster.
pub struct Alternate<K> {
    seen: HashMap<K, [(u64, f64); 2]>,
}

impl<K: Hash + Eq> Default for Alternate<K> {
    fn default() -> Self {
        Alternate {
            seen: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq> Alternate<K> {
    pub fn traced(&self, cfg: &Config, input: &K) -> bool {
        let [(untraced, _), (traced, _)] = self.seen.get(input).copied().unwrap_or_default();
        cfg.trace && untraced > traced
    }

    pub fn record(&mut self, input: K, traced: bool, latency_ms: f64) {
        let side = &mut self.seen.entry(input).or_default()[traced as usize];
        side.0 += 1;
        side.1 += latency_ms;
    }

    /// Requests per second of the untraced and the traced side, each
    /// computed as if it had served every request of the phase: the whole
    /// mix, costed at that side's mean latency per input.
    pub fn mix_requests_per_s(&self) -> (f64, f64) {
        let mut total = [0.0f64; 2];
        let mut n = 0u64;
        for [(nu, su), (nt, st)] in self.seen.values().copied() {
            if nu > 0 && nt > 0 {
                let count = (nu + nt) as f64;
                total[0] += count * su / nu as f64;
                total[1] += count * st / nt as f64;
                n += nu + nt;
            }
        }
        (n as f64 / total[0] * 1e3, n as f64 / total[1] * 1e3)
    }
}

/// Span names and the per-layer metric each one's mean self time feeds.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("frontend.cache_key", "frontend.cache_key_ms"),
    ("frontend.compile", "frontend.compile_ms"),
    ("frontend.prepare", "frontend.prepare_ms"),
    ("preflight", "preflight.ms"),
    ("driver", "driver.ms"),
    ("report.render", "report.render_ms"),
    ("tightness.walk", "tightness.walk_ms"),
    ("cachesim.lru", "cachesim.lru_ms"),
    ("cachesim.opt", "cachesim.opt_ms"),
    ("json.compact", "json.compact_ms"),
];

/// Mean self time per call of every layer with spans in `tracer`, plus the
/// walker's cost per access when `walked` accesses were traced.
pub fn span_layers(tracer: &Tracer, walked: u64) -> Vec<Layer> {
    let totals = tracer.layer_totals();
    let mut layers = Vec::new();
    for (span, metric) in SPAN_METRICS {
        if let Some(t) = totals.get(span) {
            layers.push(Layer::new(
                metric,
                "ms",
                t.self_ns as f64 / t.calls as f64 / 1e6,
            ));
        }
    }
    if let (Some(walk), true) = (totals.get("tightness.walk"), walked > 0) {
        layers.push(Layer::new(
            "tightness.walk_ns_per_access",
            "ns",
            walk.self_ns as f64 / walked as f64,
        ));
    }
    layers
}

/// The driver's share of the traced requests' time.
pub fn driver_share(tracer: &Tracer) -> Layer {
    let driver = tracer.layer_totals().get("driver").map_or(0, |t| t.self_ns);
    Layer::new(
        "driver.share",
        "ratio",
        driver as f64 / tracer.request_ns() as f64,
    )
}

/// The per-layer metrics of `BENCHMARK.json`, printed as JSON by every
/// traced run. Layers that only the daemon has (`server.*`,
/// `frontend.cache_key_ms`, `frontend.compile_ms`, `json.compact_ms`) are
/// printed in the table of `serve-mixed` runs only: elsewhere they do no
/// work, and a zero time is not a measurement.
const PER_LAYER: [(&str, &str); 31] = [
    ("frontend.prepare_ms", "ms"),
    ("preflight.ms", "ms"),
    ("driver.ms", "ms"),
    ("driver.share", "ratio"),
    ("report.render_ms", "ms"),
    ("tightness.walk_ms", "ms"),
    ("tightness.walk_ns_per_access", "ns"),
    ("cachesim.lru_ms", "ms"),
    ("cachesim.opt_ms", "ms"),
    ("poly.fm_eliminations", "count"),
    ("poly.feasibility_checks", "count"),
    ("poly.feasibility_hit_rate", "ratio"),
    ("poly.entailment_checks", "count"),
    ("poly.count_calls", "count"),
    ("poly.projection_cache_hits", "count"),
    ("poly.lp_calls", "count"),
    ("poly.cache_entries", "count"),
    ("tightness.accesses", "count"),
    ("cachesim.lru_misses", "count"),
    ("cachesim.opt_misses", "count"),
    ("result_cache.hits", "count"),
    ("result_cache.misses", "count"),
    ("result_cache.stores", "count"),
    ("result_cache.hit_ratio", "ratio"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("pool.warm_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.requests_per_s", "1/s"),
    ("host.ref_ms", "ms"),
    ("host.runqueue_wait_ms", "ms"),
];

/// One printed metric: value, unit, sample count and a note.
struct Row {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
    note: String,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(out: &Outcome, checks: &Checks) -> Vec<Row> {
    let lat = &out.phase.latencies_ms;
    let n = lat.len();
    let attempted = n + out
        .traced_phase
        .as_ref()
        .map_or(0, |p| p.latencies_ms.len());
    let (p, beyond, tail) = measure::tail(lat);
    let setup_note = format!(
        "median of {} set-ups: {}",
        out.setup_s.len(),
        out.setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    vec![
        Row {
            name: "setup_s",
            value: measure::median(&out.setup_s),
            unit: "s",
            n: out.setup_s.len(),
            note: setup_note,
        },
        Row {
            name: "requests_per_s",
            value: out.phase.requests_per_s(),
            unit: "1/s",
            n,
            note: format!("{:.3} s timed", out.phase.seconds),
        },
        Row {
            name: "latency_p50_ms",
            value: measure::median(lat),
            unit: "ms",
            n,
            note: String::new(),
        },
        Row {
            name: "latency_tail_ms",
            value: tail,
            unit: "ms",
            n,
            note: format!("mean of the {beyond} samples beyond p{p}"),
        },
        Row {
            name: "ok_ratio",
            value: ratio(attempted as u64 - checks.failed_requests, attempted as u64),
            unit: "ratio",
            n: attempted,
            note: String::new(),
        },
        Row {
            name: "peak_rss_mb",
            value: measure::peak_rss_mb(),
            unit: "MiB",
            n: 1,
            note: "VmHWM".into(),
        },
        Row {
            name: "paper_gap_geomean",
            value: out.paper_gap,
            unit: "ratio",
            n: 1,
            note: "deterministic".into(),
        },
        Row {
            name: "tightness_geomean",
            value: out.tightness,
            unit: "ratio",
            n: 1,
            note: "deterministic".into(),
        },
    ]
}

fn per_layer(out: &Outcome, host: &Host) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> =
        out.layers.iter().map(|l| (l.name, l.value)).collect();
    let c = |name: &str| out.counters.get(name).copied().unwrap_or(0);
    for (name, unit) in PER_LAYER {
        if unit == "count" {
            values.insert(name, c(name) as f64);
        }
    }
    values.insert(
        "poly.feasibility_hit_rate",
        ratio(
            c("poly.feasibility_cache_hits"),
            c("poly.feasibility_checks"),
        ),
    );
    values.insert(
        "result_cache.hit_ratio",
        ratio(
            c("result_cache.hits"),
            c("result_cache.hits") + c("result_cache.misses"),
        ),
    );
    values.insert(
        "pool.warm_ratio",
        ratio(c("pool.hits"), c("pool.hits") + c("pool.misses")),
    );
    let (untraced, traced) = out.sides_requests_per_s;
    values.insert("trace.requests_per_s", traced);
    values.insert("trace.overhead", 1.0 - traced / untraced);
    values.insert("host.ref_ms", host.ref_ms());
    values.insert("host.runqueue_wait_ms", host.runqueue_wait_ms);
    values
}

fn json_number(value: f64) -> String {
    // `Display` prints every digit needed to round-trip and never an
    // exponent, so the text is a valid JSON number.
    format!("{value}")
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload suite-cold|simulate-mid|serve-mixed \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        usage()
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let mut checks = Checks::default();
    let mut host = Host::default();
    let out = match cfg.workload.as_str() {
        "suite-cold" => suite::run(&cfg, &mut checks, &mut host),
        "simulate-mid" => simulate::run(&cfg, &mut checks, &mut host),
        "serve-mixed" => serve::run(&cfg, &mut checks, &mut host),
        _ => usage(),
    };

    println!(
        "# perfbench {} seed={} seconds={} trace={} threads={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let rows = end_to_end(&out, &checks);
    let heading = if cfg.trace {
        "end-to-end (untraced requests only; the JSON below holds the per-layer metrics)"
    } else {
        "end-to-end"
    };
    println!("## {heading}");
    for r in &rows {
        println!(
            "{:<26} {:>16.6} {:<6} n={:<7} {}",
            r.name, r.value, r.unit, r.n, r.note
        );
    }
    println!(
        "host.ref_ms                {:>16.6} ms     before={:.3} after={:.3} (diagnostic, never gates)",
        host.ref_ms(),
        host.ref_before_ms,
        host.ref_after_ms
    );
    println!(
        "host.runqueue_wait_ms      {:>16.6} ms     over the timed phase (diagnostic, never gates)",
        host.runqueue_wait_ms
    );
    println!("## deterministic counters");
    for (name, value) in &out.counters {
        println!("{name:<32} {value}");
    }
    let layers = per_layer(&out, &host);
    if cfg.trace {
        println!("## per-layer (traced requests)");
        for l in &out.layers {
            if !PER_LAYER.iter().any(|(name, _)| *name == l.name) {
                println!("{:<32} {:>16.6} {}", l.name, l.value, l.unit);
            }
        }
        for (name, unit) in PER_LAYER {
            println!(
                "{name:<32} {:>16.6} {unit}",
                layers.get(name).copied().unwrap_or(f64::NAN)
            );
        }
        for (label, tracer) in &out.spans {
            let path = std::path::PathBuf::from(".bench_out").join(format!(
                "spans-{}-seed{}-{label}.tsv",
                cfg.workload, cfg.seed
            ));
            match tracer.write_tsv(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written ({}): {e}", path.display()),
            }
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(f64::NAN)))
            .collect()
    } else {
        rows.iter().map(|r| (r.name, r.unit, r.value)).collect()
    };
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            checks.self_check_failed(format!("metric {name} is not a finite number"));
        }
    }
    println!("## checks");
    if checks.all_passed() {
        println!("all checks passed");
    } else {
        println!(
            "{} timed requests failed, {} other checks failed:",
            checks.failed_requests, checks.self_check_failures
        );
        for m in &checks.messages {
            println!("  {m}");
        }
    }
    let attempted = out.phase.latencies_ms.len()
        + out
            .traced_phase
            .as_ref()
            .map_or(0, |p| p.latencies_ms.len());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.all_passed(),
        checks.failed_requests,
        body.join(", ")
    );
}
