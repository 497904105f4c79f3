//! # iolb-poly
//!
//! Parametric integer sets and relations — the pure-Rust stand-in for ISL and
//! barvinok used by the IOLB reproduction.
//!
//! The crate provides:
//!
//! * [`EngineCtx`] — an **engine session**: the parameter interner, the
//!   query cache and the operation counters, each with configurable
//!   capacity. Two sessions share nothing; enter one with
//!   [`EngineCtx::scope`] and every engine operation on the thread routes to
//!   it (see [`engine`] for the full model);
//! * [`Space`], [`LinExpr`], [`Constraint`] — named tuple spaces and integer
//!   affine constraints;
//! * [`BasicSet`] / [`Set`] / [`UnionSet`] — parametric Z-polyhedra, their
//!   unions, and unions across statement spaces;
//! * [`BasicMap`] / [`Map`] — parametric relations with domain/range,
//!   inversion, composition, preimage, translation detection, broadcast
//!   (affine-function) extraction, injectivity and conservative reachability
//!   closure;
//! * [`count`] — symbolic cardinality via iterated Faulhaber summation (exact
//!   on affine loop-nest domains);
//! * [`parse_set`] / [`parse_map`] — a parser for the ISL-like notation used
//!   throughout the paper, so kernels and tests read like the paper's figures;
//! * [`json`] — the one JSON reader and writer of the workspace: every
//!   report, daemon reply and benchmark record is built as a [`json::Json`]
//!   value and rendered by it.
//!
//! ## Example
//!
//! ```
//! use iolb_poly::{count, parse_map, parse_set, EngineCtx};
//!
//! let session = EngineCtx::new();
//! session.scope(|| {
//!     let domain = parse_set("[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }").unwrap();
//!     let ctx = count::Context::empty().assume_ge("M", 1).assume_ge("N", 1);
//!     let card = count::card_basic_in(&EngineCtx::current(), &domain, &ctx).unwrap();
//!     assert_eq!(card.to_string(), "M*N");
//!
//!     let dep = parse_map(
//!         "[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
//!     ).unwrap();
//!     assert_eq!(dep.translation_offsets(), Some(vec![1, 0]));
//! });
//! // The session's stats reflect exactly the work done inside it.
//! assert!(session.stats().COUNT_CALLS >= 1);
//! ```

#![warn(missing_docs)]

pub mod affine;
pub mod basic_map;
pub mod basic_set;
pub mod budget;
pub mod cache;
pub mod count;
pub mod engine;
pub mod fm;
pub mod fxhash;
pub mod interner;
pub mod json;
pub mod map;
pub mod parser;
pub mod set;
pub mod space;
pub mod stats;

pub use affine::{Constraint, ConstraintKind, LinExpr};
pub use basic_map::{AffineFunction, BasicMap};
pub use basic_set::BasicSet;
pub use budget::{Budget, CancelToken, EngineInterrupt};
pub use count::Context;
pub use engine::{EngineConfig, EngineCtx, EngineGuard};
pub use map::Map;
pub use parser::{parse_map, parse_set, ParseError};
pub use set::{Set, UnionSet};
pub use space::Space;
