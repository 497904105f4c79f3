//! # iolb-server
//!
//! The `iolb serve` analysis daemon: concurrent, batched IOLB analyses over
//! line-delimited JSON.
//!
//! The paper frames IOLB as a push-button tool — hand it an affine program,
//! get back a parametric I/O lower bound — which is exactly the shape of a
//! long-lived service. This crate turns the session-scoped analysis stack
//! ([`iolb_core::Analyzer`] over [`iolb_poly::EngineCtx`]) into that
//! service:
//!
//! * **Transport** ([`Server::serve_listener`], [`Server::serve_stdio`]):
//!   one JSON request per line in, one JSON response per line out, over TCP
//!   or stdin/stdout. The protocol reference is `docs/SERVING.md`.
//! * **Protocol** ([`protocol`]): strict request parsing (unknown fields
//!   are errors), versioned report payloads (byte for byte the compact
//!   `schema_version`ed document `iolb analyze --json` prints, next to
//!   queue/latency timings). Every reply is a [`json::Json`] value; the
//!   module is [`iolb_poly::json`], re-exported.
//! * **Execution** ([`server`]): result-cache hits answered on the
//!   connection thread, a bounded request queue with `overloaded`
//!   backpressure for the misses, a worker-thread pool, per-request
//!   timeouts, and a graceful drain on shutdown.
//! * **Sessions**: every request runs in its own engine session drawn from
//!   an [`iolb_core::pool::SessionPool`] — warm interner/cache reuse keyed
//!   by configuration fingerprint, LRU-evicted, with sessions recycled (or
//!   retired) between requests. Results are byte-identical to cold serial
//!   runs by construction; only the latency changes.
//!
//! ## In-process quickstart
//!
//! ```
//! use iolb_server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! });
//! let response = server.handle_line(r#"{"id": "r1", "kernel": "gemm"}"#);
//! assert!(response.contains("\"status\":\"ok\""));
//! assert!(response.contains("\"schema_version\""));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub use iolb_poly::json;
pub mod protocol;
pub mod server;

pub use server::{Server, ServerConfig};
