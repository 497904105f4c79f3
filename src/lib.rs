//! # iolb
//!
//! A pure-Rust reproduction of *Automated Derivation of Parametric Data
//! Movement Lower Bounds for Affine Programs* (IOLB, PLDI 2020).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`math`] — exact rationals, linear algebra, subgroup lattices, LP and
//!   the Brascamp–Lieb exponent optimiser;
//! * [`symbol`] — symbolic parametric expressions (`√S`, `max`, Faulhaber
//!   summation, asymptotic simplification);
//! * [`poly`] — parametric integer sets/relations with symbolic counting and
//!   an ISL-like notation parser;
//! * [`frontend`] — the affine-C (`.iolb`) language: parser, semantic checks
//!   and lowering, so arbitrary user programs can be analysed (the `iolb`
//!   CLI in `crates/cli` drives it);
//! * [`ir`] — a small polyhedral program IR lowered to data-flow graphs,
//!   including generalized value-based flow-dependence analysis
//!   ([`ir::dataflow`]);
//! * [`dfg`] — data-flow graphs, DFG-path generation and classification;
//! * [`core`] — the IOLB analysis itself (K-partition and wavefront bounds,
//!   CDAG decomposition, the Algorithm-6 driver, OI bounds and reports);
//! * [`cdag`] — explicit CDAG instantiation and the red-white pebble game for
//!   validating bounds on small instances;
//! * [`cachesim`] — an LRU / Belady two-level memory simulator for measuring
//!   achieved OI of reference schedules;
//! * [`polybench`] — the 30 PolyBench/C 4.2 kernels with Table-1 metadata and
//!   reference schedules.
//!
//! ## Quick start
//!
//! The [`Analyzer`] is the front door: a builder that runs each analysis in
//! its own isolated **engine session** and accepts any [`Workload`] — a
//! built-in PolyBench kernel, a polyhedral [`ir::Program`], or affine-C
//! source (`frontend::IolbSource` / `frontend::IolbFile`):
//!
//! ```
//! use iolb::prelude::*;
//!
//! let gemm = iolb::polybench::kernel_by_name("gemm").unwrap();
//! let outcome = Analyzer::new().analyze(&gemm).unwrap();
//! assert_eq!(
//!     outcome.analysis().q_asymptotic().to_string(),
//!     "2*Ni*Nj*Nk*S^(-1/2)"
//! );
//! // Per-session engine statistics: this analysis alone.
//! assert!(outcome.stats.FEASIBILITY_CHECKS > 0);
//! let oi = outcome.report.oi.as_ref().unwrap();
//! assert_eq!(oi.oi_up.as_ref().unwrap().to_string(), "S^(1/2)");
//! ```
//!
//! Arbitrary affine programs enter through the affine-C front end (or the
//! `iolb` CLI: `iolb analyze file.iolb`):
//!
//! ```
//! use iolb::prelude::*;
//! use iolb::frontend::IolbSource;
//!
//! let outcome = Analyzer::new()
//!     .param("N", 1000)
//!     .cache_size(128)
//!     .analyze(&IolbSource::new(
//!         "parameter N; double A[N]; double s;\n\
//!          for (i = 0; i < N; i++) s += A[i];",
//!     ))
//!     .unwrap();
//! // A dot-product-style reduction is bandwidth-bound: Q ≥ input size.
//! assert_eq!(outcome.analysis().q_asymptotic().to_string(), "N");
//! ```
//!
//! ## Engine architecture: sessions, interning, caching, parallel driver
//!
//! The polyhedral engine under [`poly`] is built for the paper's headline
//! claim — whole-suite analysis in seconds — and for serving many
//! concurrent analyses, via four coordinated layers:
//!
//! * **Sessions** ([`poly::engine`]): all engine state — the parameter
//!   interner, the query cache, the op counters — lives in an explicit
//!   [`EngineCtx`] with configurable capacities. Two sessions share
//!   nothing: caches are freed when the session drops and statistics never
//!   bleed between concurrent users. The [`Analyzer`] creates (or reuses) a
//!   session per request; free-standing code runs against a scoped ambient
//!   session ([`EngineCtx::scope`]).
//! * **Interning** ([`poly::interner`]): every parameter name is interned
//!   once into the session's table, and an affine expression's parameter
//!   part is a compact sorted `Vec<(ParamId, i128)>`. The hot loops of
//!   Fourier–Motzkin elimination ([`poly::fm`]) are two-pointer merges over
//!   compact keys — no per-coefficient heap allocation or string
//!   comparison. Projection rounds deduplicate constraints structurally via
//!   128-bit fingerprints ([`poly::fxhash`]) so duplicates never feed the
//!   quadratic FM blowup.
//! * **Memoization** ([`poly::cache`]): feasibility, entailment and symbolic
//!   cardinality queries are memoized per session, keyed by fingerprints of
//!   the *exact* query inputs — a cached answer is bit-identical to
//!   recomputation, so the cache can never change a result. Capacity is
//!   per-session ([`EngineConfig`]; capacity 0 runs uncached);
//!   [`poly::stats`] counts operations and hit rates.
//! * **Parallel driver** ([`core::driver`]): candidate-bound derivation is
//!   independent per (parametrization depth, statement) pair, so
//!   `AnalysisOptions { parallel: true, .. }` (the default) fans those jobs
//!   out over OS threads ([`core::par`], which propagates the ambient
//!   session into every worker) and reassembles results in the
//!   deterministic serial order before the Lemma-4.2 combination — parallel
//!   and serial runs produce byte-identical `Q_low`.
//!
//! The perf trajectory is tracked by
//! `cargo run --release -p iolb-bench --bin perf_report`, which analyses all
//! 30 PolyBench kernels — each in its own session — and writes
//! `BENCH_analysis.json` (per-kernel wall-clock, per-session cache hit
//! rates, plus the summed engine-operation counters). Micro-benchmarks live
//! in `crates/bench/benches/analysis_time.rs` (`--features full-suite`
//! times every kernel).

#![warn(missing_docs)]

pub use iolb_cachesim as cachesim;
pub use iolb_cdag as cdag;
pub use iolb_core as core;
pub use iolb_dfg as dfg;
pub use iolb_frontend as frontend;
pub use iolb_ir as ir;
pub use iolb_math as math;
pub use iolb_poly as poly;
pub use iolb_polybench as polybench;
pub use iolb_symbol as symbol;

pub use iolb_core::{AnalysisOutcome, AnalyzeError, Analyzer, Workload};
pub use iolb_poly::{Budget, CancelToken, EngineConfig, EngineCtx, EngineInterrupt};

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use iolb_core::{
        analyze, analyze_interruptible, Analysis, AnalysisFingerprint, AnalysisOptions,
        AnalysisOutcome, AnalyzeError, Analyzer, CachePoint, Degradation, DiskTierConfig,
        GeneratedTrace, Instance, InstanceTightness, OiSummary, Regime, Report, ResultCache,
        ResultCacheConfig, TightnessOptions, TightnessReport, Workload,
    };
    pub use iolb_dfg::{genpaths, Dfg, GenPathsOptions};
    pub use iolb_poly::{
        parse_map, parse_set, Budget, CancelToken, EngineConfig, EngineCtx, EngineInterrupt,
    };
    pub use iolb_symbol::{Expr, Poly};
}
