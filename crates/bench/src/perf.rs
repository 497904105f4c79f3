//! The perf-trajectory run: per-kernel wall-clock of the full IOLB
//! analysis plus engine-operation counters, serialised as
//! `BENCH_analysis.json` so successive PRs have a record to defend.
//!
//! This is the library form of the `perf_report` binary; the `iolb bench`
//! CLI subcommand drives the same code.
//!
//! Each kernel is analysed [`SAMPLES`] times, every sample in its **own
//! engine session** (fresh cache, fresh counters), so its row — wall-clock,
//! operation counts and cache hit rates — is an attributable cost, not a
//! function of which kernels happened to run before it. A row records the
//! median and the minimum of its samples; the suite figure is the sum of
//! the medians, so one noisy sample cannot move it. The timed samples run
//! the kernels' tuned options (the parallel driver), whose jobs share one
//! session cache, so their cache-dependent counts vary from run to run;
//! the counters therefore come from one extra, untimed pass with the
//! serial driver, which repeats exactly. The JSON records the per-session
//! cache hit rates per kernel and the summed counters for the whole suite.

use crate::{evaluate_kernel, evaluate_kernel_serial};
use iolb_core::Analyzer;
use iolb_poly::json::Json;
use iolb_poly::stats::Snapshot;
use std::time::Instant;

/// Cold samples taken per kernel, each in a fresh session.
pub const SAMPLES: usize = 5;

/// One kernel's perf row.
pub struct PerfRow {
    /// Kernel name.
    pub name: String,
    /// Median over [`SAMPLES`] cold runs of the wall-clock seconds for the
    /// kernel's whole request: session setup, in-session workload
    /// preparation (rebuilding the kernel's DFG from its ISL-notation
    /// sources), and the analysis itself — the cost a service would pay to
    /// serve the kernel cold.
    pub seconds: f64,
    /// The fastest of the samples.
    pub min_seconds: f64,
    /// The engine counters of the untimed serial-driver pass.
    pub stats: Snapshot,
    /// Memoized query results resident in the session after the
    /// serial-driver pass.
    pub cache_entries: usize,
}

/// The result of a perf run.
pub struct PerfRun {
    /// Per-kernel rows, in suite order.
    pub rows: Vec<PerfRow>,
    /// Sum of the per-kernel median seconds.
    pub total_seconds: f64,
    /// Engine-operation counters summed over every per-kernel session.
    pub counters: Vec<(&'static str, u64)>,
    /// The serving-layer load run (full-suite runs only): 4 concurrent
    /// clients × the whole suite against an in-process daemon.
    pub serve: Option<crate::serve::ServeThroughput>,
    /// Sampled tightness ratios (`min Q_low / measured LRU misses` at the
    /// default small instance), full-suite runs only.
    pub tightness: Vec<(String, f64)>,
    /// The JSON document (the `BENCH_analysis.json` payload).
    pub json: String,
    /// True when every kernel ran (a filtered run is a partial
    /// measurement and must not clobber the canonical record).
    pub full_suite: bool,
}

/// Client threads for the `serve_throughput` section (the acceptance bar:
/// the daemon must sustain at least four concurrent clients).
pub const SERVE_CLIENTS: usize = 4;

/// Kernels sampled by the tightness pass — representative shapes (dense
/// contraction, band matrix, stencil, dynamic programming), kept small so
/// the perf gate holds; the exhaustive sweep lives in `iolb simulate`.
pub const TIGHTNESS_SAMPLE: &[&str] = &["gemm", "atax", "mvt", "jacobi-2d", "floyd-warshall"];

/// Analyses the suite (optionally filtered by kernel name), printing one
/// line per kernel, and assembles the JSON record.
pub fn run(filter: &[String]) -> PerfRun {
    let mut kernels = iolb_polybench::all_kernels();
    if !filter.is_empty() {
        kernels.retain(|k| filter.iter().any(|f| f == k.name));
    }
    let full_suite = filter.is_empty();
    let mut rows: Vec<PerfRow> = Vec::new();

    for kernel in kernels {
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let _row = evaluate_kernel(&kernel);
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let (median, min) = (samples[SAMPLES / 2], samples[0]);
        let row = evaluate_kernel_serial(&kernel);
        let oi = row.our_oi_up.unwrap_or(f64::NAN);
        println!(
            "{:<18} {median:>8.3}s (min {min:.3}s)  OI_up = {oi:.2}",
            kernel.name
        );
        rows.push(PerfRow {
            name: kernel.name.to_string(),
            seconds: median,
            min_seconds: min,
            stats: row.stats,
            cache_entries: row.cache_entries,
        });
    }
    let total_seconds: f64 = rows.iter().map(|row| row.seconds).sum();

    // The serving layer under load (full-suite runs only; a filtered run
    // is a quick look at specific kernels, not a service measurement).
    let serve = if full_suite {
        println!("serve_throughput: {SERVE_CLIENTS} clients x full suite ...");
        let load = crate::serve::run(SERVE_CLIENTS);
        println!(
            "serve_throughput: {:.2} req/s, p50 {:.3} ms, p99 {:.0} ms ({} ok / {} requests), \
             result cache {:.0}% hit, hot p50 {:.3} ms",
            load.req_per_sec,
            load.p50_ms,
            load.p99_ms,
            load.ok,
            load.requests,
            load.hit_rate * 100.0,
            load.hot_p50_ms
        );
        Some(load)
    } else {
        None
    };

    // Sampled tightness ratios: simulate a handful of representative
    // kernels at the default small instance and record how close the
    // parametric Q_low sits to the measured LRU misses.
    let tightness = if full_suite {
        let mut ratios: Vec<(String, f64)> = Vec::new();
        for name in TIGHTNESS_SAMPLE {
            let Some(kernel) = iolb_polybench::kernel_by_name(name) else {
                continue;
            };
            let Ok(outcome) = Analyzer::new().simulate(&kernel) else {
                continue;
            };
            let ratio = outcome
                .tightness
                .as_ref()
                .and_then(|report| report.min_tightness_lru());
            if let Some(ratio) = ratio {
                println!("tightness {name:<18} Q_low/LRU-misses = {ratio:.4}");
                ratios.push((name.to_string(), ratio));
            }
        }
        ratios
    } else {
        Vec::new()
    };

    // Suite totals: sum of the per-session counters.
    let mut summed = Snapshot::default();
    for row in &rows {
        summed.accumulate(&row.stats);
    }
    let totals = summed.as_pairs();

    let kernel = |row: &PerfRow| {
        let mut fields = vec![
            ("seconds", Json::from(row.seconds)),
            ("min_seconds", Json::from(row.min_seconds)),
        ];
        let rates = row.stats.hit_rates().into_iter();
        fields.extend(rates.map(|(key, rate)| (key, Json::from(rate))));
        fields.push(("cache_entries", Json::from(row.cache_entries)));
        (row.name.clone(), Json::obj(fields))
    };
    let mut doc = vec![
        ("suite_wall_clock_seconds", Json::from(total_seconds)),
        (
            "per_kernel_cache",
            Json::from("cold (each kernel runs in its own engine session)"),
        ),
        ("samples_per_kernel", Json::from(SAMPLES)),
        ("kernel_count", Json::from(rows.len())),
        ("kernels", Json::obj(rows.iter().map(kernel))),
    ];
    if let Some(load) = &serve {
        doc.push(("serve_throughput", load.json()));
    }
    if !tightness.is_empty() {
        let ratios = tightness
            .iter()
            .map(|(name, r)| (name.as_str(), Json::from(*r)));
        doc.push(("tightness", Json::obj(ratios)));
    }
    let counters = totals.iter().map(|&(key, value)| (key, Json::from(value)));
    doc.push(("engine_counters", Json::obj(counters)));
    let json = Json::obj(doc).render_pretty();

    PerfRun {
        rows,
        total_seconds,
        counters: totals,
        serve,
        tightness,
        json,
        full_suite,
    }
}

/// Prints the run summary and writes `BENCH_analysis.json` (full-suite
/// runs only — a filtered run never overwrites the canonical record).
pub fn report_and_write(run: &PerfRun) {
    println!(
        "\nsuite wall-clock: {:.3}s (sum of per-kernel medians) over {} kernels",
        run.total_seconds,
        run.rows.len()
    );
    println!("engine counters: {:?}", run.counters);
    if run.full_suite {
        let path = "BENCH_analysis.json";
        std::fs::write(path, &run.json).expect("write BENCH_analysis.json");
        println!("wrote {path}");
    } else {
        println!("filtered run: not overwriting BENCH_analysis.json");
    }
}
