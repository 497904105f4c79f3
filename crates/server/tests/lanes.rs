//! Cost-aware scheduling: the preflight classifier routes requests into
//! per-class lanes so a blowup-class stencil (heat-3d) can never park
//! every worker — cheap requests keep a reserved small-lane worker.
//!
//! The strict latency bound (small-request p99 < 200 ms while heat-3d is
//! in flight) only holds for optimized builds and is gated on
//! `not(debug_assertions)`; CI runs it via
//! `cargo test --release -p iolb-server --test lanes`. The routing and
//! stats-shape assertions below run in every profile.

use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::sync::Arc;
#[cfg(not(debug_assertions))]
use std::time::Instant;

fn server(workers: usize) -> Arc<Server> {
    Arc::new(Server::start(ServerConfig {
        workers,
        queue_capacity: 64,
        pool_capacity: 4,
        default_timeout_ms: 300_000,
        ..ServerConfig::default()
    }))
}

fn cost_class(response: &str) -> String {
    let doc = json::parse(response).expect("response parses");
    doc.get("server")
        .and_then(|s| s.get("cost_class"))
        .and_then(|c| c.as_str())
        .unwrap_or_else(|| panic!("no server.cost_class in {response}"))
        .to_string()
}

/// A field of an error reply's `error` object.
fn error_field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("error").and_then(|e| e.get(key))
}

fn lane_stat(stats: &Json, lane: &str, key: &str) -> i128 {
    stats
        .get("server_stats")
        .and_then(|s| s.get("lanes"))
        .and_then(|l| l.get(lane))
        .and_then(|l| l.get(key))
        .and_then(|v| v.as_i128())
        .unwrap_or_else(|| panic!("stats missing lanes.{lane}.{key}"))
}

/// Small requests are served while a large one is in flight, responses
/// carry the predicted class, and the `stats` op exposes the lane
/// telemetry. Debug-safe: the large request runs under a short timeout
/// and is cancelled at an engine checkpoint rather than completing.
#[test]
fn small_requests_are_served_while_a_large_request_is_in_flight() {
    let server = server(2);

    // Occupy the (single) large-capable worker with heat-3d. Under a
    // debug build the analysis takes minutes; the 1500 ms timeout
    // abandons it and the cancel token stops it at the next checkpoint.
    let large = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.handle_line(r#"{"id": 1, "kernel": "heat-3d", "timeout_ms": 1500}"#)
        })
    };

    // While it is in flight, cheap requests must be answered by the
    // reserved small-lane worker.
    for (i, kernel) in ["gemm", "atax", "mvt", "trisolv"].iter().enumerate() {
        let response =
            server.handle_line(&format!(r#"{{"id": {}, "kernel": "{kernel}"}}"#, 100 + i));
        let doc = json::parse(&response).expect("response parses");
        assert_eq!(
            doc.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "small request {kernel} failed: {response}"
        );
        assert_eq!(cost_class(&response), "small", "{response}");
    }

    let large_response = large.join().expect("large client thread");
    let doc = json::parse(&large_response).expect("large response parses");
    let status = doc.get("status").and_then(|s| s.as_str());
    // Release builds may finish heat-3d inside the timeout; debug builds
    // time out, or trip the 90% deadline before proving any bound. All are
    // legitimate — what matters is the routing.
    match status {
        Some("ok") => assert_eq!(cost_class(&large_response), "large", "{large_response}"),
        Some("error") => {
            let code = error_field(&doc, "code").and_then(Json::as_str);
            assert!(
                matches!(code, Some("timeout" | "resource_limit")),
                "{large_response}"
            );
        }
        _ => panic!("unexpected large response: {large_response}"),
    }

    // Lane telemetry: both lanes saw traffic, nothing is stranded.
    let stats = server.handle_line(r#"{"op": "stats"}"#);
    let doc = json::parse(&stats).expect("stats parses");
    assert!(lane_stat(&doc, "small", "served") >= 4, "{stats}");
    assert!(lane_stat(&doc, "small", "p99_ms") >= 0, "{stats}");
    assert!(lane_stat(&doc, "large", "queued_peak") >= 1, "{stats}");
    assert_eq!(lane_stat(&doc, "small", "queued"), 0, "{stats}");
    assert_eq!(lane_stat(&doc, "large", "queued"), 0, "{stats}");
    let depth = doc
        .get("server_stats")
        .and_then(|s| s.get("queue_depth"))
        .and_then(|v| v.as_i128());
    assert_eq!(depth, Some(0), "{stats}");

    server.shutdown();
}

/// A full large lane must not reject small requests: admission is per
/// lane. Exercised with a one-slot queue and a server that is all out of
/// large capacity.
#[test]
fn lane_admission_is_independent() {
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        pool_capacity: 2,
        default_timeout_ms: 300_000,
        ..ServerConfig::default()
    }));
    // Saturate the sole worker plus the one large-lane slot. Each request
    // asks for its own `cache_size`, so neither can be answered from the
    // result cache instead of taking its place.
    let busy: Vec<_> = (0..2)
        .map(|i| {
            let server = server.clone();
            std::thread::spawn(move || {
                server.handle_line(&format!(
                    r#"{{"id": {i}, "kernel": "heat-3d", "cache_size": {}, "timeout_ms": 2500}}"#,
                    30_000 + i
                ))
            })
        })
        .collect();
    // Give both large requests time to occupy the worker and the queue
    // slot, then probe: a third large request must bounce with a
    // class-derived retry hint, while a small request still completes.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let rejected = server.handle_line(r#"{"id": 7, "kernel": "seidel-2d", "timeout_ms": 2500}"#);
    let doc = json::parse(&rejected).expect("parses");
    if error_field(&doc, "code").and_then(Json::as_str) == Some("overloaded") {
        let retry = error_field(&doc, "retry_after_ms")
            .and_then(Json::as_i128)
            .expect("retry hint");
        assert!(retry > 0, "{rejected}");
        assert!(rejected.contains("large lane is full"), "{rejected}");
    }
    let small = server.handle_line(r#"{"id": 8, "kernel": "gemm"}"#);
    let doc = json::parse(&small).expect("parses");
    assert_eq!(
        doc.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "small request must be admitted while the large lane is full: {small}"
    );
    for b in busy {
        b.join().expect("busy client");
    }
    server.shutdown();
}

/// The ISSUE's acceptance criterion, optimized builds only: with one
/// heat-3d in flight and two workers, every other kernel's request is
/// served with small-classified p99 under 200 ms.
#[cfg(not(debug_assertions))]
#[test]
fn mixed_load_keeps_small_p99_under_200ms() {
    let server = server(2);

    // The head-of-line blocker, on its own client thread.
    let large = {
        let server = server.clone();
        std::thread::spawn(move || server.handle_line(r#"{"id": 1, "kernel": "heat-3d"}"#))
    };
    // Let it reach the large-capable worker before the sweep starts.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // The other 29 kernels. Large-classified ones (jacobi-2d, seidel-2d)
    // legitimately queue behind heat-3d — they go on background threads
    // and are excluded from the small-latency population.
    let mut background = Vec::new();
    let mut small_latencies_ms: Vec<f64> = Vec::new();
    for (i, kernel) in iolb_polybench::all_kernels().iter().enumerate() {
        if kernel.name == "heat-3d" {
            continue;
        }
        let line = format!(r#"{{"id": {}, "kernel": "{}"}}"#, 100 + i, kernel.name);
        if matches!(kernel.name, "jacobi-2d" | "seidel-2d") {
            let server = server.clone();
            background.push(std::thread::spawn(move || server.handle_line(&line)));
            continue;
        }
        let started = Instant::now();
        let response = server.handle_line(&line);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let doc = json::parse(&response).expect("response parses");
        assert_eq!(
            doc.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "{}: {response}",
            kernel.name
        );
        assert_eq!(
            cost_class(&response),
            "small",
            "{}: {response}",
            kernel.name
        );
        small_latencies_ms.push(elapsed_ms);
    }

    small_latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_idx = ((small_latencies_ms.len() as f64 * 0.99).ceil() as usize)
        .clamp(1, small_latencies_ms.len())
        - 1;
    let p99 = small_latencies_ms[p99_idx];
    assert!(
        p99 < 200.0,
        "small-request p99 {p99:.1} ms under mixed load (latencies: {small_latencies_ms:?})"
    );

    // The large requests complete (heat-3d ~6 s, then the queued
    // stencils) and are marked with their class.
    let heat = large.join().expect("heat-3d client");
    assert_eq!(cost_class(&heat), "large", "{heat}");
    for bg in background {
        let response = bg.join().expect("stencil client");
        assert_eq!(cost_class(&response), "large", "{response}");
    }

    server.shutdown();
}
