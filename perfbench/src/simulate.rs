//! `simulate-mid`: `Analyzer::analyze_with_tightness` over a seeded mix of
//! kernels that are cheap to analyse, each at a mid-size instance whose
//! trace is about 10^5 accesses, simulated under LRU and OPT at 256 and
//! 4096 words. The trace walker carries most of each request, the
//! simulators most of the rest, and the driver about a tenth.

use crate::compose::{self, Knobs, Point, Simulation};
use crate::measure::{self, Checks, Host, Rng, SETUP_REPEATS};
use crate::suite::{engine_counters, Expected};
use crate::trace::Tracer;
use crate::{Config, Outcome};
use iolb_core::{Instance, TightnessOptions};
use iolb_poly::{EngineConfig, EngineCtx};
use iolb_polybench::Kernel;
use std::time::Instant;

/// Kernel and the value of every parameter, chosen so that each trace is
/// about 10^5 accesses.
const ITEMS: [(&str, i128); 11] = [
    ("gemm", 30),
    ("2mm", 24),
    ("syrk", 36),
    ("trmm", 38),
    ("lu", 43),
    ("cholesky", 52),
    ("atax", 112),
    ("mvt", 112),
    ("floyd-warshall", 30),
    ("jacobi-2d", 28),
    ("seidel-2d", 28),
];

const CACHE_WORDS: [usize; 2] = [256, 4096];

/// Far above every item's trace, so a walk that grows past it is a defect
/// the checks report (as a skipped instance), not a hang.
const MAX_TRACE: u64 = 400_000;

struct Item {
    kernel: Kernel,
    instance: Instance,
}

#[derive(Clone, PartialEq)]
struct ItemExpected {
    analysis: Expected,
    accesses: u64,
    points: Vec<Point>,
}

fn items() -> Vec<Item> {
    ITEMS
        .iter()
        .map(|&(name, value)| {
            let kernel = iolb_polybench::kernel_by_name(name).expect("built-in kernel");
            let instance = kernel
                .params
                .iter()
                .fold(Instance::new(), |inst, p| inst.set(p, value));
            Item { kernel, instance }
        })
        .collect()
}

fn options(item: &Item) -> TightnessOptions {
    TightnessOptions::default()
        .instance(item.instance.clone())
        .cache_sizes(&CACHE_WORDS)
        .opt(true)
        .max_trace(MAX_TRACE)
}

/// The untraced request and the checks every request's output must pass:
/// no instance skipped or truncated, and Q_low <= OPT <= LRU at every
/// simulated point.
fn untraced(item: &Item) -> Result<(ItemExpected, iolb_core::Report), String> {
    let outcome = Knobs::default()
        .analyzer()
        .analyze_with_tightness(&item.kernel, &options(item))
        .map_err(|e| e.to_string())?;
    let (accesses, points) = compose::points_of(&outcome)?;
    let expected = ItemExpected {
        analysis: Expected {
            q_low: outcome.analysis().q_low.to_string(),
            stats: outcome.stats,
            cache_entries: outcome.cache_entries,
        },
        accesses,
        points,
    };
    Ok((expected, outcome.report))
}

fn verify(item: &Item, got: &ItemExpected, want: &ItemExpected) -> Result<(), String> {
    compose::check_points(&got.points)?;
    let a = &got.analysis;
    want.analysis
        .verify(item.kernel.name, &a.q_low, &a.stats, a.cache_entries)?;
    if got.accesses != want.accesses || got.points != want.points {
        return Err(format!(
            "{}: simulated misses differ between repeats",
            item.kernel.name
        ));
    }
    Ok(())
}

pub fn run(cfg: &Config, checks: &mut Checks, host: &mut Host) -> Outcome {
    let mut setup_s = Vec::new();
    let mut items_now = Vec::new();
    let mut expected: Vec<Option<ItemExpected>> = Vec::new();
    let mut gaps = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        items_now = items();
        let order = Rng::new(cfg.seed, 100 + rep as u64).permutation(items_now.len());
        let mut pass: Vec<Option<ItemExpected>> = vec![None; items_now.len()];
        let mut reports = Vec::new();
        for &i in &order {
            let item = &items_now[i];
            match untraced(item).and_then(|(e, report)| {
                compose::check_points(&e.points)?;
                Ok((e, report))
            }) {
                Ok((e, report)) => {
                    pass[i] = Some(e);
                    reports.push((i, report));
                }
                Err(why) => {
                    checks.self_check_failed(format!("warm-up {}: {why}", item.kernel.name))
                }
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            gaps = reports
                .iter()
                .filter_map(|(i, report)| compose::paper_gap(&items_now[*i].kernel, report))
                .collect();
            expected = pass;
        } else if pass != expected {
            checks.self_check_failed(format!(
                "set-up {rep} disagrees with set-up 0 on q_low, counters or misses"
            ));
        }
    }
    let items = items_now;

    let mut rng = Rng::new(cfg.seed, 1);
    let mut order: Vec<usize> = Vec::new();
    let mut tracer = Tracer::new();
    let mut walked = 0u64;
    let mut alternate = crate::Alternate::default();
    let (phase, traced_phase) = measure::bracket(host, || {
        crate::run_phase(cfg, items.len(), |r| {
            if order.is_empty() {
                order = rng.permutation(items.len());
            }
            let i = order.pop().expect("refilled above");
            let item = &items[i];
            let traced = alternate.traced(cfg, &i);
            let t = Instant::now();
            let produced = if traced {
                let root = tracer.begin_request(r as u64);
                let engine = EngineCtx::with_config(EngineConfig::default());
                let sim = Simulation {
                    instance: &item.instance,
                    cache_words: &CACHE_WORDS,
                    max_trace: MAX_TRACE,
                };
                let composed = compose::analyze(
                    &mut tracer,
                    &engine,
                    &item.kernel,
                    Knobs::default(),
                    Some(&sim),
                );
                tracer.exit(root);
                composed.map(|c| {
                    walked += c.accesses;
                    ItemExpected {
                        analysis: Expected {
                            q_low: c.report.analysis.q_low.to_string(),
                            stats: c.stats,
                            cache_entries: c.cache_entries,
                        },
                        accesses: c.accesses,
                        points: c.points,
                    }
                })
            } else {
                untraced(item).map(|(e, _)| e)
            };
            let latency = t.elapsed().as_secs_f64() * 1e3;
            let verdict = produced.and_then(|got| match &expected[i] {
                Some(want) => verify(item, &got, want),
                None => Err(format!("{}: no reference from set-up", item.kernel.name)),
            });
            if let Err(why) = verdict {
                checks.request_failed(format!("request {r}: {why}"));
            }
            alternate.record(i, traced, latency);
            (traced, latency)
        })
    });

    let all: Vec<&ItemExpected> = expected.iter().flatten().collect();
    let points: Vec<Point> = all.iter().flat_map(|e| e.points.clone()).collect();
    let mut counters = engine_counters(all.iter().map(|e| &e.analysis));
    counters.extend([
        (
            "tightness.accesses",
            all.iter().map(|e| e.accesses).sum::<u64>(),
        ),
        (
            "cachesim.lru_misses",
            points.iter().map(|p| p.lru_misses).sum::<u64>(),
        ),
        (
            "cachesim.opt_misses",
            points.iter().map(|p| p.opt_misses).sum::<u64>(),
        ),
    ]);
    let mut layers = Vec::new();
    if cfg.trace {
        layers = crate::span_layers(&tracer, walked);
        layers.push(crate::driver_share(&tracer));
    }
    Outcome {
        setup_s,
        phase,
        traced_phase,
        paper_gap: measure::geomean(&gaps),
        tightness: measure::geomean(&compose::tightness_ratios(&points).collect::<Vec<_>>()),
        counters,
        layers,
        sides_requests_per_s: alternate.mix_requests_per_s(),
        spans: vec![("requests", tracer)],
    }
}
