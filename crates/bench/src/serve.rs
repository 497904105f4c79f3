//! `serve_throughput`: the daemon under load.
//!
//! Spins up an in-process [`iolb_server::Server`] (the same code path
//! `iolb serve` runs, minus the socket), hammers it with the full 30-kernel
//! suite from several concurrent client threads, and reports service-level
//! numbers — requests/second and p50/p99 client-observed latency — into
//! `BENCH_analysis.json` alongside the per-kernel suite numbers. This keeps
//! a perf record not just for the *analysis* but for the *serving* layer
//! (queueing, session-pool reuse, response rendering), so regressions in
//! either show up in the same file.

use iolb_poly::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

/// The result of one load run.
pub struct ServeThroughput {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests submitted (clients × suite size).
    pub requests: usize,
    /// Requests answered with `"status":"ok"`.
    pub ok: usize,
    /// Requests answered with an error (overload, timeout, …).
    pub errors: usize,
    /// Responses served by a warm pooled session.
    pub warm: usize,
    /// Whole-run wall-clock in seconds.
    pub seconds: f64,
    /// Completed requests per second of wall-clock.
    pub req_per_sec: f64,
    /// Median client-observed latency (enqueue to response) in ms.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency in ms.
    pub p99_ms: f64,
    /// Requests whose client timed out (`timeout` errors).
    pub timeouts: u64,
    /// Analyses stopped mid-flight by cooperative cancellation.
    pub cancelled_in_flight: u64,
    /// Successful responses marked `degraded` by a tripped work budget.
    pub degraded: u64,
    /// Responses served from the result cache across both passes (the
    /// concurrent load run coalesces/hits on repeated kernels; the hot
    /// replay pass should be all hits).
    pub cached_responses: usize,
    /// Result-cache hit rate from the daemon's own counters:
    /// (hits + coalesced + disk hits) / (those + misses).
    pub hit_rate: f64,
    /// Median latency of the hot replay pass — every kernel re-requested
    /// once after the load run, so this is the pure cache-service path.
    pub hot_p50_ms: f64,
    /// Median latency of requests the preflight classifier routed small.
    pub small_p50_ms: f64,
    /// 99th-percentile latency of small-classified requests — the
    /// number the cost-aware lanes exist to protect (without them, one
    /// in-flight heat-3d drags this to multi-second head-of-line
    /// blocking).
    pub small_p99_ms: f64,
    /// Median latency of large-classified requests.
    pub large_p50_ms: f64,
    /// 99th-percentile latency of large-classified requests.
    pub large_p99_ms: f64,
    /// High-water mark of the small lane's queue depth.
    pub small_queue_peak: u64,
    /// High-water mark of the large lane's queue depth.
    pub large_queue_peak: u64,
}

/// Nearest-rank percentile of an ascending-sorted latency sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The reply fields the load clients tally, read from the parsed reply.
struct Reply {
    ok: bool,
    cached: bool,
    warm: bool,
    large: bool,
}

impl Reply {
    fn parse(response: &str) -> Reply {
        let doc = json::parse(response).expect("daemon replies are JSON");
        let server = |key: &str| doc.get("server").and_then(|s| s.get(key));
        Reply {
            ok: doc.get("status").and_then(Json::as_str) == Some("ok"),
            cached: doc.get("cached").and_then(Json::as_bool) == Some(true),
            warm: server("session_warm").and_then(Json::as_bool) == Some(true),
            large: server("cost_class").and_then(Json::as_str) == Some("large"),
        }
    }
}

/// Runs `clients` concurrent client threads, each submitting the full
/// kernel suite (each from a different starting offset, so the in-flight
/// mix stays varied), against a fresh in-process daemon.
pub fn run(clients: usize) -> ServeThroughput {
    let kernels: Vec<String> = iolb_polybench::kernel_names()
        .into_iter()
        .map(String::from)
        .collect();
    let server = Arc::new(Server::start(ServerConfig {
        workers: clients.max(1),
        queue_capacity: clients.max(1) * kernels.len(),
        pool_capacity: 8,
        default_timeout_ms: 600_000,
        ..ServerConfig::default()
    }));

    let start = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let server = server.clone();
            let kernels = kernels.clone();
            std::thread::spawn(move || {
                // Latency paired with the lane the daemon routed the
                // request into (`server.cost_class` in each response).
                let mut latencies_ms: Vec<(f64, bool)> = Vec::with_capacity(kernels.len());
                let mut ok = 0usize;
                let mut warm = 0usize;
                let mut cached = 0usize;
                for i in 0..kernels.len() {
                    let kernel = &kernels[(i + c * 7) % kernels.len()];
                    let sent = Instant::now();
                    let response = server.handle_line(&format!(
                        r#"{{"id": "load-{c}-{i}", "kernel": "{kernel}"}}"#
                    ));
                    let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let reply = Reply::parse(&response);
                    latencies_ms.push((elapsed_ms, reply.large));
                    ok += reply.ok as usize;
                    warm += reply.warm as usize;
                    cached += reply.cached as usize;
                }
                (latencies_ms, ok, warm, cached)
            })
        })
        .collect();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut small_ms: Vec<f64> = Vec::new();
    let mut large_ms: Vec<f64> = Vec::new();
    let mut ok = 0usize;
    let mut warm = 0usize;
    let mut cached_responses = 0usize;
    for handle in handles {
        let (lat, client_ok, client_warm, client_cached) = handle.join().expect("load client");
        for (ms, large) in lat {
            latencies_ms.push(ms);
            if large {
                large_ms.push(ms);
            } else {
                small_ms.push(ms);
            }
        }
        ok += client_ok;
        warm += client_warm;
        cached_responses += client_cached;
    }
    let seconds = start.elapsed().as_secs_f64();
    small_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    large_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    // Hot replay pass: with the whole suite now resident in the result
    // cache, re-request every kernel once and time the pure cache-service
    // path (fingerprint → lookup → render). Kept out of the load-run
    // latency sample so the cold numbers stay comparable across versions.
    let mut hot_ms: Vec<f64> = Vec::with_capacity(kernels.len());
    for (i, kernel) in kernels.iter().enumerate() {
        let sent = Instant::now();
        let response = server.handle_line(&format!(r#"{{"id": "hot-{i}", "kernel": "{kernel}"}}"#));
        hot_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        cached_responses += Reply::parse(&response).cached as usize;
    }
    hot_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    // Robustness counters for the perf record: a healthy full-suite load
    // run reports zeroes; non-zero values flag budget/cancellation churn.
    let stats = json::parse(&server.handle_line(r#"{"op": "stats"}"#)).expect("stats reply");
    let counter = |path: &[&str]| {
        path.iter()
            .try_fold(stats.get("server_stats").expect("server_stats"), |v, k| {
                v.get(k)
            })
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats counter {path:?}"))
    };
    let rc_served = counter(&["result_cache", "hits"])
        + counter(&["result_cache", "inflight_coalesced"])
        + counter(&["result_cache", "disk_hits"]);
    let rc_misses = counter(&["result_cache", "misses"]);
    let hit_rate = if rc_served + rc_misses > 0 {
        rc_served as f64 / (rc_served + rc_misses) as f64
    } else {
        0.0
    };
    server.shutdown();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies_ms.len();
    ServeThroughput {
        clients: clients.max(1),
        requests,
        ok,
        errors: requests - ok,
        warm,
        seconds,
        req_per_sec: if seconds > 0.0 {
            ok as f64 / seconds
        } else {
            0.0
        },
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        timeouts: counter(&["timeouts"]),
        cancelled_in_flight: counter(&["cancelled_in_flight"]),
        degraded: counter(&["degraded"]),
        cached_responses,
        hit_rate,
        hot_p50_ms: percentile(&hot_ms, 0.50),
        small_p50_ms: percentile(&small_ms, 0.50),
        small_p99_ms: percentile(&small_ms, 0.99),
        large_p50_ms: percentile(&large_ms, 0.50),
        large_p99_ms: percentile(&large_ms, 0.99),
        small_queue_peak: counter(&["lanes", "small", "queued_peak"]),
        large_queue_peak: counter(&["lanes", "large", "queued_peak"]),
    }
}

impl ServeThroughput {
    /// The `serve_throughput` object of `BENCH_analysis.json`.
    pub fn json(&self) -> Json {
        let lane = |p50: f64, p99: f64, peak: u64| {
            Json::obj([
                ("p50_ms", Json::from(p50)),
                ("p99_ms", Json::from(p99)),
                ("queue_peak", Json::from(peak)),
            ])
        };
        Json::obj([
            ("clients", Json::from(self.clients)),
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("errors", Json::from(self.errors)),
            ("warm_responses", Json::from(self.warm)),
            ("wall_clock_seconds", Json::from(self.seconds)),
            ("requests_per_second", Json::from(self.req_per_sec)),
            ("p50_latency_ms", Json::from(self.p50_ms)),
            ("p99_latency_ms", Json::from(self.p99_ms)),
            ("timeouts", Json::from(self.timeouts)),
            ("cancelled_in_flight", Json::from(self.cancelled_in_flight)),
            ("degraded", Json::from(self.degraded)),
            ("cached_responses", Json::from(self.cached_responses)),
            ("result_cache_hit_rate", Json::from(self.hit_rate)),
            ("hot_p50_ms", Json::from(self.hot_p50_ms)),
            (
                "lanes",
                Json::obj([
                    (
                        "small",
                        lane(self.small_p50_ms, self.small_p99_ms, self.small_queue_peak),
                    ),
                    (
                        "large",
                        lane(self.large_p50_ms, self.large_p99_ms, self.large_queue_peak),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted, 0.25), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn json_object_is_well_formed() {
        let row = ServeThroughput {
            clients: 4,
            requests: 120,
            ok: 120,
            errors: 0,
            warm: 100,
            seconds: 10.0,
            req_per_sec: 12.0,
            p50_ms: 80.0,
            p99_ms: 400.0,
            timeouts: 1,
            cancelled_in_flight: 1,
            degraded: 2,
            cached_responses: 110,
            hit_rate: 0.75,
            hot_p50_ms: 0.25,
            small_p50_ms: 10.0,
            small_p99_ms: 150.0,
            large_p50_ms: 900.0,
            large_p99_ms: 7000.0,
            small_queue_peak: 5,
            large_queue_peak: 3,
        };
        let doc = json::parse(&row.json().render_pretty()).unwrap();
        // Each field as it renders: integers and floats in their shortest
        // round-trip form.
        let field = |path: &[&str]| {
            path.iter()
                .try_fold(&doc, |v, k| v.get(k))
                .map(Json::render)
                .unwrap_or_else(|| panic!("no field at {path:?}"))
        };
        assert_eq!(field(&["requests_per_second"]), "12");
        assert_eq!(field(&["p99_latency_ms"]), "400");
        assert_eq!(field(&["timeouts"]), "1");
        assert_eq!(field(&["cancelled_in_flight"]), "1");
        assert_eq!(field(&["degraded"]), "2");
        assert_eq!(field(&["cached_responses"]), "110");
        assert_eq!(field(&["result_cache_hit_rate"]), "0.75");
        assert_eq!(field(&["hot_p50_ms"]), "0.25");
        assert_eq!(field(&["lanes", "small", "p50_ms"]), "10");
        assert_eq!(field(&["lanes", "small", "p99_ms"]), "150");
        assert_eq!(field(&["lanes", "small", "queue_peak"]), "5");
        assert_eq!(field(&["lanes", "large", "p50_ms"]), "900");
        assert_eq!(field(&["lanes", "large", "p99_ms"]), "7000");
        assert_eq!(field(&["lanes", "large", "queue_peak"]), "3");
    }
}
