//! Fault injection: the daemon under deliberately hostile concurrent load.
//!
//! Several client threads fire a seeded-random mix of cheap requests, slow
//! kernels with tiny timeouts (mid-analysis cancellation), poison requests
//! that panic inside the engine, malformed lines and unknown kernels, plus
//! a raw TCP client that disconnects mid-request. The invariants under all
//! of it:
//!
//! * every in-flight client gets exactly one well-formed response line
//!   with its own id echoed back (never a hang, never garbage);
//! * every worker returns to service afterwards (a full round of cheap
//!   concurrent requests succeeds);
//! * the server still drains and joins cleanly.
//!
//! The schedule is a deterministic function of a fixed seed set, so a
//! failure reproduces; the interleaving is whatever the scheduler makes of
//! it, which is the point.

use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A tiny deterministic PRNG (64-bit LCG, high bits) — no dependencies.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A poison source: interns more parameter names than the session allows
/// (4096), panicking inside the engine. Must cost one `internal_error`,
/// never a worker.
fn poison_source() -> String {
    let names: Vec<String> = (0..4200).map(|i| format!("p{i}")).collect();
    format!(
        "parameter {};\\ndouble A[p0];\\nfor (i = 0; i < p0; i++)\\n  A[i] = 0;\\n",
        names.join(", ")
    )
}

/// One chaos request line plus the id it must echo (`None` for lines that
/// are broken before an id can be parsed out).
fn chaos_line(rng: &mut Lcg, id: u64) -> (String, Option<String>) {
    match rng.below(10) {
        // Cheap kernels: must simply succeed.
        0..=3 => (
            format!(r#"{{"id": {id}, "kernel": "gemm"}}"#),
            Some(id.to_string()),
        ),
        // A slow kernel under a tiny timeout: the client abandons it and
        // the cancel token stops the analysis at the next checkpoint.
        4..=5 => {
            let timeout = 40 + rng.below(120);
            (
                format!(r#"{{"id": {id}, "kernel": "heat-3d", "timeout_ms": {timeout}}}"#),
                Some(id.to_string()),
            )
        }
        // An explicit work budget that usually trips.
        6 => {
            let steps = 1 + rng.below(200);
            (
                format!(
                    r#"{{"id": {id}, "kernel": "cholesky", "budget": {{"fm_steps": {steps}}}}}"#
                ),
                Some(id.to_string()),
            )
        }
        // Poison: panics inside the engine.
        7 => (
            format!(r#"{{"id": {id}, "source": "{}"}}"#, poison_source()),
            Some(id.to_string()),
        ),
        // Unknown kernel.
        8 => (
            format!(r#"{{"id": {id}, "kernel": "no-such-kernel"}}"#),
            Some(id.to_string()),
        ),
        // Malformed line (no parseable id).
        _ => ("{not json at all".to_string(), None),
    }
}

/// Asserts one response line is well-formed and echoes `want_id`.
fn check_response(line: &str, want_id: Option<&str>, context: &str) {
    assert!(!line.contains('\n'), "{context}: multi-line response");
    let doc = json::parse(line).unwrap_or_else(|e| panic!("{context}: bad JSON ({e}): {line}"));
    let status = doc.get("status").and_then(|s| s.as_str());
    assert!(
        status == Some("ok") || status == Some("error"),
        "{context}: bad status: {line}"
    );
    match want_id {
        Some(id) => assert_eq!(
            doc.get("id"),
            Some(&Json::Int(id.parse::<i128>().expect("numeric id"))),
            "{context}: wrong id echoed: {line}"
        ),
        None => assert_eq!(
            doc.get("id"),
            Some(&Json::Null),
            "{context}: unparseable line must echo a null id: {line}"
        ),
    }
}

#[test]
fn chaos_load_never_wedges_a_worker() {
    const CLIENTS: u64 = 3;
    const REQUESTS_PER_CLIENT: u64 = 6;
    const SEED: u64 = 0x101b_5eed;

    let workers = 2;
    let server = Arc::new(Server::start(ServerConfig {
        workers,
        queue_capacity: 16,
        pool_capacity: 4,
        default_timeout_ms: 30_000,
        ..ServerConfig::default()
    }));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(SEED ^ (c.wrapping_mul(0x9e3779b97f4a7c15)));
                for r in 0..REQUESTS_PER_CLIENT {
                    let id = c * 1000 + r;
                    let (line, want_id) = chaos_line(&mut rng, id);
                    let response = server.handle_line(&line);
                    check_response(
                        &response,
                        want_id.as_deref(),
                        &format!("client {c} req {r}"),
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread must not panic");
    }

    // Post-chaos probe: one concurrent cheap request per worker must
    // succeed — proving every worker survived and returned to service.
    // Each probe asks for its own `cache_size`, so none can be answered
    // from the result cache without a worker.
    let probes: Vec<_> = (0..workers)
        .map(|i| {
            let server = server.clone();
            std::thread::spawn(move || {
                server.handle_line(&format!(
                    r#"{{"id": {i}, "kernel": "atax", "cache_size": {}}}"#,
                    4096 + i
                ))
            })
        })
        .collect();
    for (i, probe) in probes.into_iter().enumerate() {
        let response = probe.join().expect("probe thread");
        let doc = json::parse(&response).expect("probe response parses");
        assert_eq!(
            doc.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "post-chaos probe {i} failed — a worker was wedged: {response}"
        );
    }

    // The stats line is still coherent.
    let stats = server.handle_line(r#"{"op": "stats"}"#);
    let doc = json::parse(&stats).expect("stats response parses");
    let ss = doc.get("server_stats").expect("server_stats present");
    let count = |key: &str| {
        ss.get(key)
            .and_then(|v| v.as_i128())
            .unwrap_or_else(|| panic!("stats field {key} missing: {stats}"))
    };
    assert!(count("requests_received") >= 1);
    assert_eq!(count("queue_depth"), 0, "nothing may be stranded: {stats}");

    server.shutdown();
}

#[test]
fn tcp_client_disconnecting_mid_request_does_not_kill_the_server() {
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        pool_capacity: 2,
        default_timeout_ms: 30_000,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept_loop = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_listener(listener))
    };

    // A client sends a slow request and hangs up without reading the
    // response: the connection thread's eventual write fails, which must
    // cost that connection only.
    {
        let mut rude = TcpStream::connect(addr).expect("connect");
        rude.write_all(b"{\"id\": 1, \"kernel\": \"heat-3d\", \"timeout_ms\": 100}\n")
            .expect("write");
        // Dropped here: disconnected before the response exists.
    }

    // A polite client on a fresh connection is served as if nothing
    // happened (the single worker frees up via the cancelled analysis).
    let polite = TcpStream::connect(addr).expect("connect");
    polite
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = polite.try_clone().expect("clone");
    let mut reader = BufReader::new(polite);
    writer
        .write_all(b"{\"id\": 2, \"kernel\": \"gemm\"}\n")
        .expect("write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let doc = json::parse(&response).expect("response parses");
    assert_eq!(
        doc.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "the server must survive the rude client: {response}"
    );

    writer
        .write_all(b"{\"op\": \"shutdown\"}\n")
        .expect("write");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    accept_loop
        .join()
        .expect("accept loop thread")
        .expect("serve_listener exits cleanly");
}
