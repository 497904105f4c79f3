//! The engine session: explicitly scoped polyhedral-engine state.
//!
//! Historically the engine kept its state in process-wide globals (a string
//! interner, a query cache, operation counters). That is hostile to a
//! long-running, multi-tenant service: caches grow without bound across
//! unrelated requests, per-analysis statistics bleed between concurrent
//! users, and tests cannot isolate engine state. [`EngineCtx`] packages the
//! three pieces of state — the parameter [`interner`](crate::interner) table,
//! the sharded query [`cache`](crate::cache) and the operation
//! [`stats`](crate::stats) counters, each with configurable capacity — into
//! one session object. Two sessions share **nothing**: dropping a session
//! frees its cache, and its counters reflect exactly the work done inside it.
//!
//! ## Using a session
//!
//! The query-level entry points of the poly layer take the session
//! explicitly (`fm::is_feasible_in`, `count::card_basic_in`, …). The
//! object layer ([`BasicSet`](crate::BasicSet), [`Map`](crate::Map), the
//! parser) resolves the **ambient** session instead, so existing call sites
//! keep their signatures: [`EngineCtx::enter`] (or [`EngineCtx::scope`])
//! installs a session as the current one for the calling thread, and every
//! engine operation on that thread routes to it until the guard drops.
//!
//! ```
//! use iolb_poly::{EngineCtx, parse_set, count};
//!
//! let session = EngineCtx::new();
//! let card = session.scope(|| {
//!     let s = parse_set("[N] -> { S[i] : 0 <= i < N }").unwrap();
//!     count::card_basic_in(&EngineCtx::current(), &s, &count::Context::empty())
//! });
//! assert_eq!(card.unwrap().to_string(), "N");
//! assert!(session.stats().COUNT_CALLS >= 1);
//! ```
//!
//! ## Session binding
//!
//! Interned [`ParamId`]s are only meaningful inside the session that created
//! them, so polyhedral objects (`LinExpr`, `BasicSet`, `Dfg`, …) are bound to
//! their creation session. Build and analyse inside the same scope — the
//! `iolb_core::Analyzer` does this by construction, preparing its workload
//! *inside* the session it analyses in. Resolving a foreign id panics with a
//! "different engine session" message rather than silently aliasing names.
//!
//! ## The global fallback session
//!
//! Outside any scope, the ambient session falls back to one process-wide
//! **global session** (see [`EngineCtx::global`]), the only remaining
//! `OnceLock` in this crate. Object-layer calls made outside any scope land
//! in it — for example building a built-in kernel's DFG before any session
//! is entered. New code should enter a session instead.

use crate::budget::{Budget, BudgetState};
use crate::cache::QueryCache;
use crate::interner::{ParamId, ParamTable};
use crate::stats::{Counters, Snapshot};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity configuration for a session (every piece of engine state is
/// capped; a session can never grow without bound).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum number of memoized query results held across the three query
    /// caches together (feasibility + entailment + cardinality). The budget
    /// is split evenly over the cache shards (rounded up per shard, so the
    /// effective ceiling is within one entry per shard). Once full, new
    /// results are not stored; the cache never evicts, which keeps lookups
    /// cheap and behaviour deterministic. 0 disables storage; together
    /// with `projection_cache_capacity: 0` it runs the session uncached.
    pub cache_capacity: usize,
    /// Maximum number of distinct parameter names the session may intern.
    pub interner_capacity: usize,
    /// Maximum number of memoized single-variable projections (whole
    /// post-elimination constraint systems, so budgeted separately from the
    /// scalar-valued query caches). 0 disables projection storage.
    pub projection_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // 3 query kinds × 16 shards × 65 536 entries — the same
            // effective per-shard cap as the PR-1 process-wide cache.
            cache_capacity: 3 * 16 * 65_536,
            interner_capacity: 4_096,
            projection_cache_capacity: 65_536,
        }
    }
}

impl EngineConfig {
    /// A stable hash of every capacity knob. Two sessions with equal
    /// fingerprints are interchangeable from a capacity point of view, which
    /// is what a session pool keys its warm sessions by: a recycled session
    /// may only serve a request that asked for the same configuration
    /// (capacities are fixed at session creation and cannot be re-applied to
    /// a live session).
    pub fn fingerprint(&self) -> u64 {
        crate::fxhash::fingerprint(&(
            self.cache_capacity,
            self.interner_capacity,
            self.projection_cache_capacity,
        )) as u64
    }
}

/// Session ids let [`ParamId`]s carry which session minted them, so
/// cross-session misuse fails loudly instead of aliasing names. The counter
/// is touched once per session creation, never on the analysis hot path.
static NEXT_SESSION_ID: AtomicU32 = AtomicU32::new(1);

/// One engine session: parameter interner + query cache + op counters.
///
/// See the [module docs](self) for the usage model. Sessions are cheap to
/// create and internally synchronised (`&EngineCtx` is enough for every
/// operation), so one `Arc<EngineCtx>` can serve a whole parallel analysis.
pub struct EngineCtx {
    id: u32,
    config: EngineConfig,
    interner: ParamTable,
    cache: QueryCache,
    stats: Counters,
    /// Fast-path flag for the checkpoint methods: `true` iff `budget` holds
    /// an installed budget. Keeps the no-budget cost of a checkpoint to one
    /// relaxed load.
    budget_active: AtomicBool,
    /// The per-request budget, installable on a live (even pooled) session.
    /// Deliberately *not* part of [`EngineConfig`] or its fingerprint: a
    /// budget belongs to one request, not to the session's reusable
    /// capacity configuration.
    budget: Mutex<Option<Arc<BudgetState>>>,
}

impl std::fmt::Debug for EngineCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCtx")
            .field("id", &self.id)
            .field("interned_params", &self.interner.len())
            .field("cache_entries", &self.cache.len())
            .finish()
    }
}

thread_local! {
    /// The stack of entered sessions for this thread (a stack so scopes
    /// nest; the top is the ambient session).
    static CURRENT: RefCell<Vec<Arc<EngineCtx>>> = const { RefCell::new(Vec::new()) };
}

impl EngineCtx {
    /// Creates a session with the default [`EngineConfig`].
    pub fn new() -> Arc<EngineCtx> {
        EngineCtx::with_config(EngineConfig::default())
    }

    /// Creates a session with explicit capacities.
    pub fn with_config(config: EngineConfig) -> Arc<EngineCtx> {
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        Arc::new(EngineCtx {
            id,
            interner: ParamTable::new(id, config.interner_capacity),
            cache: QueryCache::new(config.cache_capacity, config.projection_cache_capacity),
            stats: Counters::new(),
            budget_active: AtomicBool::new(false),
            budget: Mutex::new(None),
            config,
        })
    }

    /// The session's unique (process-local) id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The capacities the session was created with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    // --- ambient-session plumbing -------------------------------------

    /// Installs this session as the calling thread's ambient session until
    /// the returned guard is dropped. Scopes nest (the innermost wins).
    pub fn enter(self: &Arc<Self>) -> EngineGuard {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        EngineGuard {
            _not_send: PhantomData,
        }
    }

    /// Runs `f` with this session as the ambient session.
    pub fn scope<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter();
        f()
    }

    /// The calling thread's ambient session: the innermost entered scope,
    /// or the process-wide [global](EngineCtx::global) fallback session.
    pub fn current() -> Arc<EngineCtx> {
        CURRENT
            .with(|c| c.borrow().last().cloned())
            .unwrap_or_else(|| EngineCtx::global().clone())
    }

    /// Runs `f` against the ambient session without cloning the `Arc` (the
    /// hot-path accessor behind the object layer).
    ///
    /// `f` runs under a read borrow of the thread's scope stack, so it must
    /// not call [`EngineCtx::enter`] (engine operations never do).
    pub fn with_current<R>(f: impl FnOnce(&EngineCtx) -> R) -> R {
        CURRENT.with(|c| {
            let stack = c.borrow();
            match stack.last() {
                Some(engine) => f(engine),
                None => f(EngineCtx::global()),
            }
        })
    }

    // --- interner facade ----------------------------------------------

    /// Interns a parameter name in this session, returning its stable id
    /// (idempotent within the session).
    ///
    /// # Panics
    ///
    /// Panics when the session's interner capacity is exhausted.
    pub fn intern(&self, name: &str) -> ParamId {
        self.interner.intern(name)
    }

    /// Looks a name up without interning it.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.interner.lookup(name)
    }

    /// Resolves an id minted by this session back to its name.
    ///
    /// # Panics
    ///
    /// Panics if the id belongs to a different session (see the module docs
    /// on session binding).
    pub fn resolve(&self, id: ParamId) -> Arc<str> {
        self.interner.resolve(id)
    }

    /// Resolves an id if (and only if) it belongs to this session.
    pub fn try_resolve(&self, id: ParamId) -> Option<Arc<str>> {
        self.interner.try_resolve(id)
    }

    /// Sorts ids by their names (the deterministic, user-visible order).
    pub fn sort_ids_by_name(&self, ids: &mut [ParamId]) {
        self.interner.sort_ids_by_name(ids)
    }

    /// Number of parameter names interned so far.
    pub fn interned_params(&self) -> usize {
        self.interner.len()
    }

    // --- cache facade --------------------------------------------------

    /// Drops every memoized query result (capacity is retained).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Number of memoized query results currently stored.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The session's total cache capacity (entries across all query kinds).
    pub fn cache_capacity(&self) -> usize {
        self.config.cache_capacity
    }

    pub(crate) fn query_cache(&self) -> &QueryCache {
        &self.cache
    }

    // --- stats facade ---------------------------------------------------

    /// A point-in-time snapshot of the session's operation counters.
    pub fn stats(&self) -> Snapshot {
        self.stats.snapshot()
    }

    /// Resets the session's operation counters to zero.
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.stats
    }

    /// Records one subgroup-lattice insertion in the session counters
    /// (`LATTICE_STEPS`, `LATTICE_ABORTS`). The closure lives in `iolb-math`,
    /// below the engine, so its caller reports the work.
    pub fn record_lattice_insertion(&self, steps: usize, refused: bool) {
        self.stats.record_lattice_insertion(steps as u64, refused)
    }

    // --- budget facade ---------------------------------------------------

    /// Installs a per-request [`Budget`] on this session. Subsequent engine
    /// work (on any thread scoped to the session) polls it at the hot-loop
    /// checkpoints and raises [`crate::EngineInterrupt`] when a limit trips.
    /// Installing an [unlimited](Budget::is_unlimited) budget clears instead,
    /// so the no-budget fast path stays a single atomic load.
    pub fn install_budget(&self, budget: Budget) {
        if budget.is_unlimited() {
            self.clear_budget();
            return;
        }
        *self.budget.lock().unwrap() = Some(Arc::new(BudgetState::new(budget)));
        self.budget_active.store(true, Ordering::Release);
    }

    /// Removes any installed budget (idempotent).
    pub fn clear_budget(&self) {
        self.budget_active.store(false, Ordering::Release);
        *self.budget.lock().unwrap() = None;
    }

    /// True when a budget is installed on the session.
    pub fn budget_active(&self) -> bool {
        self.budget_active.load(Ordering::Relaxed)
    }

    fn budget_state(&self) -> Option<Arc<BudgetState>> {
        if !self.budget_active.load(Ordering::Relaxed) {
            return None;
        }
        self.budget.lock().unwrap().clone()
    }

    /// Checkpoint charged once per Fourier–Motzkin variable elimination:
    /// counts the step and polls every installed limit.
    #[inline]
    pub fn checkpoint_fm_step(&self) {
        if let Some(state) = self.budget_state() {
            if let Err(interrupt) = state.on_fm_step() {
                interrupt.raise();
            }
        }
    }

    /// Cheap deadline/cancellation poll for loops *inside* a single
    /// elimination (the cross-product and `prune` passes), where one step
    /// can itself run long on blowup-prone systems.
    #[inline]
    pub fn checkpoint_poll(&self) {
        if let Some(state) = self.budget_state() {
            if let Err(interrupt) = state.poll() {
                interrupt.raise();
            }
        }
    }

    /// Checkpoint for the size of a freshly projected (pruned) constraint
    /// system — the direct guard against FM constraint blowup.
    #[inline]
    pub fn checkpoint_constraints(&self, observed: usize) {
        if let Some(state) = self.budget_state() {
            if let Err(interrupt) = state.check_constraints(observed) {
                interrupt.raise();
            }
        }
    }

    /// Checkpoint for the session's resident cache entries, charged once
    /// per top-level cardinality query (`cache_len` sums the shard locks,
    /// so it is too expensive for the inner loops).
    #[inline]
    pub fn checkpoint_cache(&self) {
        if let Some(state) = self.budget_state() {
            if let Err(interrupt) = state.poll() {
                interrupt.raise();
            }
            if let Err(interrupt) = state.check_cache_entries(self.cache.len()) {
                interrupt.raise();
            }
        }
    }

    // --- pool recycling --------------------------------------------------

    /// Prepares the session for reuse by an unrelated follow-up request and
    /// reports whether it is still fit to be reused.
    ///
    /// Recycling **keeps** the warm state that makes pooling worthwhile —
    /// the interner table and the memoized query results (both are
    /// request-agnostic: memoized answers are result-identical by
    /// construction) — and resets the operation counters so the next
    /// request's statistics start from zero.
    ///
    /// Returns `false` when the session must be retired instead of pooled:
    /// its interner has consumed most of its capacity (interning panics at
    /// capacity, so a nearly-full table is a panic waiting for the next
    /// workload with fresh parameter names). Callers such as
    /// `iolb_core::pool::SessionPool` drop retired sessions and create
    /// fresh ones.
    pub fn recycle(&self) -> bool {
        self.stats.reset();
        // A budget is strictly per-request state; a pooled session must
        // never carry one request's limits into the next.
        self.clear_budget();
        // Retire at ≥ 3/4 interner occupancy: plenty of headroom for any
        // realistic workload's parameter names, long before `intern` panics.
        self.interner.len() * 4 < self.config.interner_capacity * 3
    }

    // --- global fallback session ------------------------------------------

    /// The process-wide fallback session used by threads that have not
    /// entered a scope: object-layer calls made outside any scope (such as
    /// building a built-in kernel's DFG before a session is entered) land
    /// here. New code should create its own session. Only consulted when no
    /// scope is active.
    pub fn global() -> &'static Arc<EngineCtx> {
        static GLOBAL: std::sync::OnceLock<Arc<EngineCtx>> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(EngineCtx::new)
    }
}

/// Guard returned by [`EngineCtx::enter`]; pops the session on drop.
///
/// Deliberately `!Send`: a scope belongs to the thread that opened it.
#[must_use = "the session is only ambient while the guard is alive"]
pub struct EngineGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_have_distinct_ids_and_state() {
        let a = EngineCtx::new();
        let b = EngineCtx::new();
        assert_ne!(a.id(), b.id());
        let id = a.intern("N");
        assert_eq!(&*a.resolve(id), "N");
        // b knows nothing about a's names.
        assert!(b.lookup("N").is_none());
        assert!(b.try_resolve(id).is_none());
    }

    #[test]
    #[should_panic(expected = "different engine session")]
    fn foreign_ids_fail_loudly() {
        let a = EngineCtx::new();
        let b = EngineCtx::new();
        let id = a.intern("N");
        let _ = b.resolve(id);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = EngineCtx::new();
        let inner = EngineCtx::new();
        outer.scope(|| {
            assert_eq!(EngineCtx::current().id(), outer.id());
            inner.scope(|| {
                assert_eq!(EngineCtx::current().id(), inner.id());
            });
            assert_eq!(EngineCtx::current().id(), outer.id());
        });
        // Outside any scope the global fallback is ambient.
        assert_eq!(EngineCtx::current().id(), EngineCtx::global().id());
    }

    #[test]
    fn clearing_the_cache_frees_its_entries() {
        let e = EngineCtx::new();
        e.query_cache().feasibility(e.counters(), &[], 0, || true);
        assert_eq!(e.cache_len(), 1);
        e.clear_cache();
        assert_eq!(e.cache_len(), 0, "stale entries must not stay resident");
    }

    #[test]
    fn config_fingerprints_key_on_every_capacity_knob() {
        let base = EngineConfig::default();
        assert_eq!(base.fingerprint(), EngineConfig::default().fingerprint());
        let smaller = EngineConfig {
            cache_capacity: 1,
            ..EngineConfig::default()
        };
        let uncached = EngineConfig {
            cache_capacity: 0,
            projection_cache_capacity: 0,
            ..EngineConfig::default()
        };
        let no_projection = EngineConfig {
            projection_cache_capacity: 0,
            ..EngineConfig::default()
        };
        let fewer_names = EngineConfig {
            interner_capacity: 8,
            ..EngineConfig::default()
        };
        assert_ne!(base.fingerprint(), smaller.fingerprint());
        assert_ne!(base.fingerprint(), uncached.fingerprint());
        assert_ne!(smaller.fingerprint(), uncached.fingerprint());
        assert_ne!(base.fingerprint(), no_projection.fingerprint());
        assert_ne!(base.fingerprint(), fewer_names.fingerprint());
    }

    #[test]
    fn recycle_resets_stats_and_keeps_warm_state() {
        let e = EngineCtx::new();
        let id = e.intern("N");
        e.query_cache().feasibility(e.counters(), &[], 0, || true);
        e.counters().bump_fm_elimination();
        assert!(e.recycle(), "a fresh session is reusable");
        assert_eq!(e.stats(), Snapshot::default(), "counters restart at zero");
        assert_eq!(e.cache_len(), 1, "memoized results stay warm");
        assert_eq!(e.resolve(id).as_ref(), "N", "interned names survive");
    }

    #[test]
    fn recycle_retires_nearly_full_interners() {
        let e = EngineCtx::with_config(EngineConfig {
            interner_capacity: 4,
            ..EngineConfig::default()
        });
        e.intern("A");
        e.intern("B");
        assert!(e.recycle(), "half-full interner still has headroom");
        e.intern("C");
        assert!(!e.recycle(), "3/4-full interner must be retired");
    }

    #[test]
    fn budgets_install_trip_and_clear() {
        use crate::budget::{Budget, CancelToken, EngineInterrupt};

        let e = EngineCtx::new();
        assert!(!e.budget_active());
        // No budget: checkpoints are free no-ops.
        e.checkpoint_fm_step();
        e.checkpoint_constraints(usize::MAX);

        e.install_budget(Budget::none().max_fm_steps(1));
        assert!(e.budget_active());
        e.checkpoint_fm_step(); // first step is within budget
        let err = EngineInterrupt::catch(|| e.checkpoint_fm_step());
        assert_eq!(err, Err(EngineInterrupt::FmSteps { limit: 1 }));

        // Clearing disarms the checkpoints again.
        e.clear_budget();
        assert!(!e.budget_active());
        e.checkpoint_fm_step();

        // An unlimited budget is never armed.
        e.install_budget(Budget::none());
        assert!(!e.budget_active());

        // Cancellation is observed by the cheap poll.
        let token = CancelToken::new();
        e.install_budget(Budget::none().cancel_token(token.clone()));
        e.checkpoint_poll();
        token.cancel();
        let err = EngineInterrupt::catch(|| e.checkpoint_poll());
        assert_eq!(err, Err(EngineInterrupt::Cancelled));
    }

    #[test]
    fn recycle_drops_the_installed_budget() {
        use crate::budget::Budget;

        let e = EngineCtx::new();
        e.install_budget(Budget::none().max_fm_steps(1));
        assert!(e.budget_active());
        assert!(e.recycle());
        assert!(
            !e.budget_active(),
            "a pooled session must not inherit the previous request's limits"
        );
    }

    #[test]
    fn budgets_do_not_affect_the_pool_fingerprint() {
        use crate::budget::Budget;

        let e = EngineCtx::new();
        let before = e.config().fingerprint();
        e.install_budget(Budget::none().max_fm_steps(1));
        assert_eq!(
            e.config().fingerprint(),
            before,
            "budgets are per-request state, not pool-key configuration"
        );
    }

    #[test]
    fn capacity_is_configurable_and_enforced() {
        let e = EngineCtx::with_config(EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        e.query_cache().feasibility(e.counters(), &[], 0, || true);
        assert_eq!(e.cache_len(), 0, "zero-capacity cache stores nothing");
        assert_eq!(e.cache_capacity(), 0);
    }
}
