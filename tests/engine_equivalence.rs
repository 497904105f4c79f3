//! The acceptance gate for the session-scoped engine: on every PolyBench
//! kernel, the parallel, cached driver must produce a `q_low`
//! **byte-identical** to the serial, uncached path, and two engine sessions
//! running concurrently must share no cache or statistics while still
//! producing byte-identical results.

use iolb::prelude::*;

/// Serial + parallel equivalence, per kernel, across isolated sessions: a
/// serial uncached session and a parallel cached session must agree byte
/// for byte (the PR-1 guarantee, now with per-kernel isolation).
#[test]
fn cached_parallel_q_low_matches_serial_uncached_on_every_kernel() {
    for kernel in iolb::polybench::all_kernels() {
        let serial = Analyzer::new()
            .parallel(false)
            .cache_capacity(0)
            .analyze(&kernel)
            .unwrap();
        let fast = Analyzer::new().parallel(true).analyze(&kernel).unwrap();

        assert_eq!(
            serial.analysis().q_low.to_string(),
            fast.analysis().q_low.to_string(),
            "{}: parallel+cached q_low diverged from serial+uncached",
            kernel.name
        );
        assert_eq!(
            serial.analysis().input_size.to_string(),
            fast.analysis().input_size.to_string(),
            "{}: input-size term diverged",
            kernel.name
        );
        assert_eq!(
            serial.analysis().accepted.len(),
            fast.analysis().accepted.len(),
            "{}: accepted candidate set diverged",
            kernel.name
        );
        // The uncached session must report zero hits and hold no entries;
        // its counters come from this kernel alone.
        assert_eq!(serial.stats.FEASIBILITY_CACHE_HITS, 0, "{}", kernel.name);
        assert_eq!(serial.stats.COUNT_CACHE_HITS, 0, "{}", kernel.name);
        assert_eq!(serial.stats.PROJECTION_CACHE_HITS, 0, "{}", kernel.name);
        assert_eq!(serial.cache_entries, 0, "{}", kernel.name);
    }
}

/// The session-isolation proof: all 30 kernels are analysed **concurrently
/// in two threads**, each kernel in its own session, and every result —
/// `q_low` *and* the per-session operation counters — must be byte-for-byte
/// identical to a serial single-session reference run. If sessions shared
/// any cache entry or counter, the concurrent counters would diverge (extra
/// hits, bled counts); if state leaked into the global session, its
/// counters would move.
#[test]
fn concurrent_sessions_share_no_cache_or_stats_and_agree_with_serial_runs() {
    let kernels = iolb::polybench::all_kernels();

    // Serial references: one fresh session per kernel, serial driver (the
    // serial driver keeps the operation counts deterministic).
    let reference: Vec<(String, iolb::poly::stats::Snapshot)> = kernels
        .iter()
        .map(|kernel| {
            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
            (outcome.analysis().q_low.to_string(), outcome.stats)
        })
        .collect();

    let global_before = EngineCtx::global().stats();

    // Concurrent run: two threads split the suite and race.
    let mid = kernels.len() / 2;
    let halves = [&kernels[..mid], &kernels[mid..]];
    let results: Vec<Vec<(String, iolb::poly::stats::Snapshot)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|kernel| {
                            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
                            (outcome.analysis().q_low.to_string(), outcome.stats)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let concurrent: Vec<(String, iolb::poly::stats::Snapshot)> =
        results.into_iter().flatten().collect();
    assert_eq!(concurrent.len(), reference.len());
    for (i, kernel) in kernels.iter().enumerate() {
        assert_eq!(
            concurrent[i].0, reference[i].0,
            "{}: concurrent-session q_low diverged from the serial reference",
            kernel.name
        );
        assert_eq!(
            concurrent[i].1, reference[i].1,
            "{}: concurrent-session engine counters diverged — sessions are \
             not isolated",
            kernel.name
        );
    }

    // Nothing leaked into the global fallback session.
    assert_eq!(
        EngineCtx::global().stats(),
        global_before,
        "concurrent sessions must not touch the global session"
    );
}

/// The degradation gate: a budget that is installed but never trips must be
/// *invisible* — `q_low` byte-identical to the unbudgeted run and no
/// degradation marker — on every kernel. Budget checkpoints sit inside the
/// FM and counting hot loops, so this is the proof that checking a budget
/// is observation, not perturbation.
#[test]
fn untripped_budgets_leave_q_low_byte_identical_on_every_kernel() {
    use std::time::Duration;
    for kernel in iolb::polybench::all_kernels() {
        let plain = Analyzer::new().parallel(false).analyze(&kernel).unwrap();
        let budgeted = Analyzer::new()
            .parallel(false)
            .deadline(Duration::from_secs(3600))
            .budget(
                Budget::none()
                    .max_fm_steps(u64::MAX)
                    .max_constraints(usize::MAX)
                    .max_cache_entries(usize::MAX)
                    .cancel_token(CancelToken::new()),
            )
            .analyze(&kernel)
            .unwrap();
        assert_eq!(
            plain.analysis().q_low.to_string(),
            budgeted.analysis().q_low.to_string(),
            "{}: an untripped budget changed the bound",
            kernel.name
        );
        assert!(
            budgeted.analysis().degradation.is_none(),
            "{}: an untripped budget reported degradation",
            kernel.name
        );
    }
}

#[test]
fn repeated_analysis_in_one_session_is_deterministic_and_warm() {
    // Two runs of the same analysis in one session (second one fully
    // cache-warm) must agree, and the second must actually hit the cache.
    let kernel = iolb::polybench::kernel_by_name("cholesky").unwrap();
    let first = Analyzer::new().analyze(&kernel).unwrap();
    let second = Analyzer::new()
        .engine(first.engine().clone())
        .analyze(&kernel)
        .unwrap();
    assert_eq!(
        first.analysis().q_low.to_string(),
        second.analysis().q_low.to_string()
    );
    assert_eq!(
        first.analysis().q_asymptotic().to_string(),
        second.analysis().q_asymptotic().to_string()
    );
    // The warm run must be answered from the cache. Comparing hit *counts*
    // across the runs would be misleading: a top-level hit in the warm run
    // short-circuits the whole memoized elimination recursion, so the warm
    // run consults the cache far fewer times than the cold run's
    // intermediate states did. The direct property is that the warm run
    // recomputes nothing: every consult hits and no elimination is ever
    // performed.
    assert!(
        second.stats.FEASIBILITY_CACHE_HITS > 0,
        "second run in the same session should be answered from the warm cache"
    );
    assert_eq!(
        second.stats.FM_ELIMINATIONS, 0,
        "a fully warm run must not recompute any elimination"
    );
    assert_eq!(
        second.stats.feasibility_hit_rate(),
        Some(1.0),
        "every feasibility consult of the warm run must hit"
    );
}

/// The result-cache replay gate, on the path that serves cached reports:
/// every kernel is requested three times from an in-process daemon with a
/// cache directory — cold (computing and filling both tiers), hot (the
/// memory tier), and from a *restarted* daemon over the same directory (the
/// disk tier) — and the `report` of every reply must be **byte-identical**
/// across the three passes, with the `cached` flag correct on each.
#[test]
fn result_cache_replays_every_kernel_byte_identically_across_tiers() {
    use iolb_server::json::{self, Json};
    use iolb_server::{Server, ServerConfig};

    let dir = std::env::temp_dir().join(format!("iolb-replay-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let start = || {
        Server::start(ServerConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
    };
    // One request per kernel, answered with its `cached` flag and the
    // report's bytes exactly as spliced into the reply. The generous
    // timeout keeps a slow unoptimized build from degrading a cold reply.
    let request = |server: &Server, name: &str| -> (bool, String) {
        let reply = server.handle_line(&format!(
            r#"{{"id": "{name}", "kernel": "{name}", "timeout_ms": 600000}}"#
        ));
        let doc = json::parse(&reply).unwrap_or_else(|e| panic!("{name}: {e}: {reply}"));
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("ok"),
            "{name}: {reply}"
        );
        let Some(Json::Bool(cached)) = doc.get("cached") else {
            panic!("{name}: no cached flag in {reply}");
        };
        let at = reply.find(",\"report\":").expect("report field") + ",\"report\":".len();
        let end = reply.find(",\"server\":").expect("server field");
        (*cached, reply[at..end].to_string())
    };
    let names = iolb::polybench::kernel_names();

    // Cold pass: every reply computes and fills both tiers.
    let first = start();
    let cold: Vec<String> = names
        .iter()
        .map(|name| {
            let (cached, report) = request(&first, name);
            assert!(!cached, "{name}: cold pass must compute");
            report
        })
        .collect();

    // Hot pass: the memory tier serves every kernel, byte for byte.
    for (name, cold_report) in names.iter().zip(&cold) {
        let (cached, report) = request(&first, name);
        assert!(cached, "{name}: hot pass recomputed");
        assert_eq!(
            &report, cold_report,
            "{name}: memory-tier replay is not byte-identical"
        );
    }
    first.shutdown();

    // Restart: a fresh daemon over the same directory has an empty memory
    // tier and must replay every kernel from disk.
    let restarted = start();
    for (name, cold_report) in names.iter().zip(&cold) {
        let (cached, report) = request(&restarted, name);
        assert!(cached, "{name}: restart pass recomputed");
        assert_eq!(
            &report, cold_report,
            "{name}: disk-tier replay is not byte-identical"
        );
    }
    let stats = json::parse(&restarted.handle_line(r#"{"op": "stats"}"#)).unwrap();
    let result_cache = stats
        .get("server_stats")
        .and_then(|s| s.get("result_cache"))
        .expect("result_cache stats");
    assert_eq!(
        result_cache.get("disk_hits"),
        Some(&Json::Int(names.len() as i128))
    );
    assert_eq!(result_cache.get("disk_corrupt"), Some(&Json::Int(0)));
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The lower-bound soundness gate: on every kernel with a simulatable
/// instance, the measured LRU miss count must dominate the evaluated
/// parametric `Q_low` at that instance and cache size — a kernel failing
/// this is an engine bug, not a tightness shortfall. And turning the
/// tightness pass on must leave the analytical `q_low` expression
/// byte-identical to the plain path on all 30 kernels: simulation is
/// observation, not perturbation.
#[test]
fn measured_lru_misses_dominate_q_low_and_tightness_leaves_q_low_byte_identical() {
    // Two regimes per kernel: a thrashing cache (64 words) and one large
    // enough that the default all-16 instance fits (1024 words).
    let opts = TightnessOptions::default().cache_sizes(&[64, 1024]);
    let mut kernels_with_sound_points = 0usize;
    for kernel in iolb::polybench::all_kernels() {
        let plain = Analyzer::new().parallel(false).analyze(&kernel).unwrap();
        let simulated = Analyzer::new()
            .parallel(false)
            .analyze_with_tightness(&kernel, &opts)
            .unwrap();

        assert_eq!(
            plain.analysis().q_low.to_string(),
            simulated.analysis().q_low.to_string(),
            "{}: enabling the tightness pass changed q_low",
            kernel.name
        );

        let report = simulated
            .tightness
            .as_ref()
            .expect("analyze_with_tightness always attaches a report");
        let mut sound_points = 0usize;
        for inst in report.simulated() {
            // Cold misses are a floor for any policy; the walker's trace
            // must respect it.
            for point in &inst.caches {
                assert!(
                    point.lru.misses >= inst.distinct_addresses,
                    "{}: LRU misses below the compulsory floor",
                    kernel.name
                );
                let Some(q_low) = point.q_low else { continue };
                assert!(
                    q_low <= point.lru.misses as f64 + 1e-6,
                    "{}: UNSOUND — Q_low {} exceeds measured LRU misses {} at \
                     {} words ({:?})",
                    kernel.name,
                    q_low,
                    point.lru.misses,
                    point.cache_words,
                    inst.instance
                );
                if let Some(ratio) = point.tightness_lru() {
                    assert!(
                        ratio > 0.0 && ratio <= 1.0 + 1e-9,
                        "{}: tightness ratio {ratio} outside (0, 1]",
                        kernel.name
                    );
                }
                sound_points += 1;
            }
        }
        if sound_points > 0 {
            kernels_with_sound_points += 1;
        }
    }
    // The walker must actually cover the suite: a regression that silently
    // skips most kernels (budget trips, enumeration failures) fails here.
    assert!(
        kernels_with_sound_points >= 25,
        "only {kernels_with_sound_points} kernels produced simulatable \
         instances with an evaluable Q_low"
    );
}
