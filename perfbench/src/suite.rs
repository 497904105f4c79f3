//! `suite-cold`: the 30 built-in PolyBench kernels in a seeded order, each
//! analysed cold in a fresh session with the serial driver and rendered to
//! JSON. The driver stack (`dfg`, `poly`, `math`, `symbol`) does all the
//! work; the daemon, result cache, trace walker and simulators do none
//! during the timed phase.

use crate::compose::{self, Knobs, Simulation};
use crate::measure::{self, Checks, Host, Rng, SETUP_REPEATS};
use crate::serve::checked_q_low;
use crate::trace::Tracer;
use crate::{Config, Outcome};
use iolb_core::Analyzer;
use iolb_poly::stats::Snapshot;
use iolb_poly::{EngineConfig, EngineCtx};
use iolb_polybench::Kernel;
use std::collections::BTreeMap;
use std::time::Instant;

/// What the untraced path produced for one kernel; every later analysis of
/// the kernel, traced or not, must reproduce it exactly.
#[derive(Clone, PartialEq)]
pub struct Expected {
    pub q_low: String,
    pub stats: Snapshot,
    pub cache_entries: usize,
}

impl Expected {
    /// Compares a repeat against this reference, describing any drift.
    pub fn verify(
        &self,
        label: &str,
        q_low: &str,
        stats: &Snapshot,
        cache_entries: usize,
    ) -> Result<(), String> {
        if q_low != self.q_low {
            return Err(format!(
                "{label}: q_low {q_low} differs from {}",
                self.q_low
            ));
        }
        if *stats != self.stats || cache_entries != self.cache_entries {
            return Err(format!("{label}: engine counters differ between repeats"));
        }
        Ok(())
    }
}

/// Sums the engine counters of one pass over a workload's inputs.
pub fn engine_counters<'a>(
    expected: impl Iterator<Item = &'a Expected>,
) -> BTreeMap<&'static str, u64> {
    let mut total = Snapshot::default();
    let mut entries = 0;
    for e in expected {
        let s = &e.stats;
        total.FM_ELIMINATIONS += s.FM_ELIMINATIONS;
        total.FEASIBILITY_CHECKS += s.FEASIBILITY_CHECKS;
        total.FEASIBILITY_CACHE_HITS += s.FEASIBILITY_CACHE_HITS;
        total.ENTAILMENT_CHECKS += s.ENTAILMENT_CHECKS;
        total.COUNT_CALLS += s.COUNT_CALLS;
        total.PROJECTION_CACHE_HITS += s.PROJECTION_CACHE_HITS;
        total.LP_CALLS += s.LP_CALLS;
        entries += e.cache_entries as u64;
    }
    BTreeMap::from([
        ("poly.fm_eliminations", total.FM_ELIMINATIONS),
        ("poly.feasibility_checks", total.FEASIBILITY_CHECKS),
        ("poly.feasibility_cache_hits", total.FEASIBILITY_CACHE_HITS),
        ("poly.entailment_checks", total.ENTAILMENT_CHECKS),
        ("poly.count_calls", total.COUNT_CALLS),
        ("poly.projection_cache_hits", total.PROJECTION_CACHE_HITS),
        ("poly.lp_calls", total.LP_CALLS),
        ("poly.cache_entries", entries),
    ])
}

/// One untraced request: the `Analyzer` path and `to_json`.
fn untraced(kernel: &Kernel) -> Result<(String, Snapshot, usize, iolb_core::Report), String> {
    let outcome = Analyzer::new()
        .parallel(false)
        .analyze(kernel)
        .map_err(|e| e.to_string())?;
    let json = outcome.to_json();
    Ok((json, outcome.stats, outcome.cache_entries, outcome.report))
}

pub fn run(cfg: &Config, checks: &mut Checks, host: &mut Host) -> Outcome {
    let mut setup_s = Vec::new();
    let mut kernels = Vec::new();
    let mut expected: Vec<Option<Expected>> = Vec::new();
    let mut gaps = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        kernels = iolb_polybench::all_kernels();
        // Each set-up walks its own seeded order: kernels run in fresh
        // sessions, so counts must not depend on the order (or the seed).
        let order = Rng::new(cfg.seed, 100 + rep as u64).permutation(kernels.len());
        let mut pass: Vec<Option<Expected>> = vec![None; kernels.len()];
        let mut reports = Vec::new();
        for &k in &order {
            let result = untraced(&kernels[k]).and_then(|(json, stats, entries, report)| {
                Ok((checked_q_low(&json)?.1, stats, entries, report))
            });
            match result {
                Ok((q_low, stats, cache_entries, report)) => {
                    pass[k] = Some(Expected {
                        q_low,
                        stats,
                        cache_entries,
                    });
                    reports.push((k, report));
                }
                Err(why) => checks.self_check_failed(format!("warm-up {}: {why}", kernels[k].name)),
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            gaps = reports
                .iter()
                .filter_map(|(k, report)| compose::paper_gap(&kernels[*k], report))
                .collect();
            expected = pass;
        } else if pass != expected {
            checks.self_check_failed(format!(
                "set-up {rep} disagrees with set-up 0 on q_low or counters"
            ));
        }
    }

    let mut rng = Rng::new(cfg.seed, 1);
    let mut order: Vec<usize> = Vec::new();
    let mut tracer = Tracer::new();
    let mut alternate = crate::Alternate::default();
    let (phase, traced_phase) = measure::bracket(host, || {
        crate::run_phase(cfg, kernels.len(), |i| {
            if order.is_empty() {
                order = rng.permutation(kernels.len());
            }
            let k = order.pop().expect("refilled above");
            let kernel = &kernels[k];
            let traced = alternate.traced(cfg, &k);
            let t = Instant::now();
            let produced = if traced {
                let root = tracer.begin_request(i as u64);
                let engine = EngineCtx::with_config(EngineConfig::default());
                let composed =
                    compose::analyze(&mut tracer, &engine, kernel, Knobs::default(), None);
                tracer.exit(root);
                composed.map(|c| (c.report_json, c.stats, c.cache_entries))
            } else {
                untraced(kernel).map(|(json, stats, entries, _)| (json, stats, entries))
            };
            let latency = t.elapsed().as_secs_f64() * 1e3;
            let verdict = produced.and_then(|(json, stats, entries)| {
                let (_, q_low) = checked_q_low(&json)?;
                match &expected[k] {
                    Some(e) => e.verify(kernel.name, &q_low, &stats, entries),
                    None => Err(format!("{}: no reference from set-up", kernel.name)),
                }
            });
            if let Err(why) = verdict {
                checks.request_failed(format!("request {i}: {why}"));
            }
            alternate.record(k, traced, latency);
            (traced, latency)
        })
    });

    // Post-phase OPT reference at a small instance: Q_low <= OPT <= LRU for
    // every kernel, through the Analyzer (or the traced composition).
    let mut ref_tracer = Tracer::new();
    let mut ratios = Vec::new();
    let (mut accesses, mut lru_misses, mut opt_misses) = (0u64, 0u64, 0u64);
    for (k, kernel) in kernels.iter().enumerate() {
        let params: Vec<String> = kernel.params.iter().map(|p| p.to_string()).collect();
        let instance = compose::reference_instance(&params);
        let result = if cfg.trace {
            let engine = EngineCtx::with_config(EngineConfig::default());
            let sim = Simulation {
                instance: &instance,
                cache_words: &compose::REFERENCE_CACHE_WORDS,
                max_trace: compose::REFERENCE_MAX_TRACE,
            };
            let root = ref_tracer.begin_request(k as u64);
            let composed = compose::analyze(
                &mut ref_tracer,
                &engine,
                kernel,
                Knobs::default(),
                Some(&sim),
            );
            ref_tracer.exit(root);
            composed.map(|c| (c.report.analysis.q_low.to_string(), c.accesses, c.points))
        } else {
            compose::reference(kernel, &instance, Knobs::default())
                .map(|(o, acc, points)| (o.analysis().q_low.to_string(), acc, points))
        };
        let checked = result.and_then(|(q_low, acc, points)| {
            let want = expected[k].as_ref().map_or("", |e| e.q_low.as_str());
            if q_low != want {
                return Err(format!(
                    "q_low {q_low} differs from the timed path's {want}"
                ));
            }
            compose::check_points(&points)?;
            Ok((acc, points))
        });
        match checked {
            Ok((acc, points)) => {
                ratios.extend(compose::tightness_ratios(&points));
                accesses += acc;
                lru_misses += points.iter().map(|p| p.lru_misses).sum::<u64>();
                opt_misses += points.iter().map(|p| p.opt_misses).sum::<u64>();
            }
            Err(why) => checks.self_check_failed(format!("{} reference: {why}", kernel.name)),
        }
    }

    let mut counters = engine_counters(expected.iter().flatten());
    counters.extend([
        ("tightness.accesses", accesses),
        ("cachesim.lru_misses", lru_misses),
        ("cachesim.opt_misses", opt_misses),
    ]);
    let mut layers = Vec::new();
    if cfg.trace {
        layers = crate::span_layers(&tracer, 0);
        layers.retain(|l| !l.name.starts_with("tightness.") && !l.name.starts_with("cachesim."));
        layers.extend(
            crate::span_layers(&ref_tracer, accesses)
                .into_iter()
                .filter(|l| l.name.starts_with("tightness.") || l.name.starts_with("cachesim.")),
        );
        layers.push(crate::driver_share(&tracer));
    }
    Outcome {
        setup_s,
        phase,
        traced_phase,
        paper_gap: measure::geomean(&gaps),
        tightness: measure::geomean(&ratios),
        counters,
        layers,
        sides_requests_per_s: alternate.mix_requests_per_s(),
        spans: vec![("requests", tracer), ("reference", ref_tracer)],
    }
}
