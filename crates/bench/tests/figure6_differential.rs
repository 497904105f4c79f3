//! Checks of the Figure-6 measurement path: the reference schedules cover
//! most of the suite, their LRU miss counts repeat run to run, and the
//! achieved OI that Figure 6 plots is a finite, positive number.

use iolb_cachesim::simulate_lru;
use iolb_core::tightness::achieved_oi;

#[test]
fn reference_traces_cover_the_suite_and_simulate_deterministically() {
    let mut covered = 0usize;
    for kernel in iolb_polybench::all_kernels() {
        let Some(t) = iolb_polybench::trace(kernel.name, 24, 8) else {
            continue;
        };
        covered += 1;
        for cache_words in [64usize, 256] {
            assert_eq!(
                simulate_lru(&t.trace, cache_words).misses,
                simulate_lru(&t.trace, cache_words).misses,
                "{} cache={cache_words}: non-deterministic simulation",
                kernel.name
            );
        }
    }
    // The reference schedules cover most of the suite; a regression that
    // silently drops coverage should fail loudly.
    assert!(
        covered >= 25,
        "only {covered} kernels have reference schedule traces"
    );
}

#[test]
fn figure6_scale_produces_finite_bounded_oi_for_representative_kernels() {
    // A representative slice of the suite at a tiled scale must yield a
    // finite, positive achieved OI — the quantity Figure 6 plots.
    for name in ["gemm", "jacobi-2d", "atax", "floyd-warshall", "cholesky"] {
        let Some(t) = iolb_polybench::trace(name, 48, 16) else {
            continue;
        };
        let oi = achieved_oi(&t.trace, t.ops, 1024);
        assert!(
            oi.is_finite() && oi > 0.0,
            "{name}: achieved OI {oi} is not a finite positive number"
        );
    }
}
