//! # iolb-core
//!
//! The heart of the IOLB reproduction: the compile-time derivation of
//! parametric data-movement (I/O) lower bounds for affine programs, as
//! described in *Automated Derivation of Parametric Data Movement Lower
//! Bounds for Affine Programs* (PLDI 2020).
//!
//! Given a program's data-flow graph ([`iolb_dfg::Dfg`]), [`analyze`] returns
//! a symbolic lower bound `Q_low(S, N, M, …)` on the number of loads that
//! **any** valid schedule must perform on a two-level memory hierarchy with a
//! fast memory of capacity `S`, together with the resulting upper bound on
//! operational intensity.
//!
//! The pipeline mirrors the paper:
//!
//! 1. [`iolb_dfg::genpaths()`] discovers chain-circuit and broadcast DFG-paths
//!    (reuse directions) for each statement (Algorithm 3);
//! 2. [`partition::partition_bound`] turns a path combination into a bound
//!    via the discrete Brascamp–Lieb inequality, interference-aware
//!    projection summing, and the `(S+T)`-partitioning lemma (Algorithm 4,
//!    Sec. 5);
//! 3. [`wavefront::wavefront_bound`] derives live-set bounds for
//!    reduction/broadcast patterns that geometry cannot capture
//!    (Algorithm 5, Sec. 6);
//! 4. [`decompose`] sums bounds of non-interfering sub-CDAGs (Lemma 4.2) and
//!    over parametrized loop slices (Sec. 4.3);
//! 5. [`driver::analyze`] orchestrates all of the above (Algorithm 6) and
//!    adds the compulsory-miss term;
//! 6. [`oi::OiSummary`] converts the bound into an operational-intensity
//!    upper bound and compares it against a machine balance (Sec. 8).
//!
//! ## Entry points
//!
//! The preferred door is the builder-style [`Analyzer`]: it creates an
//! isolated engine session ([`iolb_poly::EngineCtx`]), prepares any
//! [`Workload`] (built-in kernel, polyhedral IR, affine-C source) inside it,
//! and returns an [`AnalysisOutcome`] carrying the [`Analysis`], the
//! per-session engine statistics and the versioned report. The bare
//! [`analyze`] function below is the session-agnostic kernel the `Analyzer`
//! wraps; it runs against the ambient session.
//!
//! ## Example
//!
//! ```
//! use iolb_core::{analyze, AnalysisOptions};
//! use iolb_dfg::Dfg;
//!
//! // Matrix multiplication: C[i][j] += A[i][k] * B[k][j].
//! let dfg = Dfg::builder()
//!     .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
//!     .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
//!     .statement_with_ops(
//!         "C",
//!         "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
//!         2,
//!     )
//!     .edge("A", "C",
//!           "[Ni, Nj, Nk] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
//!     .edge("B", "C",
//!           "[Ni, Nj, Nk] -> { B[k, j] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
//!     .edge("C", "C",
//!           "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }")
//!     .build()
//!     .unwrap();
//!
//! let mut options = AnalysisOptions::with_default_instance(&["Ni", "Nj", "Nk"], 512, 1024);
//! options.max_parametrization_depth = 0;
//! let analysis = analyze(&dfg, &options);
//! // The asymptotic bound matches the paper: 2·Ni·Nj·Nk / √S.
//! assert_eq!(analysis.q_asymptotic().to_string(), "2*Ni*Nj*Nk*S^(-1/2)");
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod bound;
pub mod decompose;
pub mod driver;
pub mod interference;
pub mod oi;
pub mod par;
pub mod partition;
pub mod pool;
pub mod report;
pub mod result_cache;
pub mod tightness;
pub mod wavefront;
pub mod workload;

pub use analyzer::{AnalysisOutcome, AnalyzeError, Analyzer};
pub use bound::{Instance, LowerBound, Technique};
pub use driver::{analyze, analyze_interruptible, Analysis, AnalysisOptions, Degradation};
pub use oi::{OiSummary, Regime};
pub use report::Report;
pub use result_cache::{
    AnalysisFingerprint, DiskTierConfig, ResultCache, ResultCacheConfig, ResultCacheStats,
};
pub use tightness::{
    CachePoint, GeneratedTrace, InstanceTightness, TightnessOptions, TightnessReport,
};
pub use workload::{PreparedWorkload, Workload, WorkloadError};

/// The static preflight analyzer (re-exported so downstream crates reach
/// the profile/diagnostic types through the core API).
pub use iolb_preflight as preflight;
