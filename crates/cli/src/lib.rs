//! # iolb-cli
//!
//! The `iolb` command-line tool — the user-facing entry point of the
//! reproduction. Three subcommands:
//!
//! * `iolb analyze <file.iolb>` — parse an affine-C program (see the
//!   `iolb-frontend` grammar), run the Algorithm-6 driver, and print the
//!   parametric lower bound report as text or JSON (`--json`);
//!   `--kernel <name>` analyses a built-in PolyBench kernel instead.
//! * `iolb check <file.iolb>` — run the *preflight* static analyzer
//!   only (no bound computation): structural profile, affine
//!   diagnostics with source positions, and the predicted cost class
//!   (see `iolb-preflight`). Exits non-zero on error-severity
//!   diagnostics.
//! * `iolb kernels` — list the built-in PolyBench kernels.
//! * `iolb bench [kernel…]` — run the perf-trajectory suite
//!   (`BENCH_analysis.json`), equivalent to the `perf_report` binary.
//! * `iolb serve` — run the long-lived analysis daemon (line-delimited
//!   JSON over TCP or stdio; protocol reference in `docs/SERVING.md`).
//!
//! The command implementations live here (returning their output as
//! strings) so they are unit-testable; `src/main.rs` only dispatches.

#![warn(missing_docs)]

use iolb_core::Analyzer;
use iolb_frontend::IolbFile;
use iolb_poly::json::Json;
use iolb_poly::{Budget, EngineCtx};
use iolb_polybench::KernelName;

/// A CLI failure: a message for stderr (the process exits non-zero).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text printed by `iolb help` (and on argument errors).
pub const USAGE: &str = "\
iolb — parametric data-movement lower bounds for affine programs

USAGE:
    iolb analyze <file.iolb> [OPTIONS]   analyze an affine-C program
    iolb analyze --kernel <name> [OPTIONS]
                                         analyze a built-in PolyBench kernel
    iolb check <file.iolb> [OPTIONS]     static preflight only: profile,
                                         diagnostics, predicted cost class
    iolb check --kernel <name> [OPTIONS]
    iolb simulate <file.iolb> [OPTIONS]  two-sided locality report: generate
                                         an address trace at a concrete
                                         instance, simulate it, and compare
                                         measured misses against Q_low
    iolb simulate --kernel <name> [OPTIONS]
    iolb kernels [--json]                list the built-in kernels
    iolb bench [kernel...]               run the perf suite (BENCH_analysis.json)
    iolb serve [OPTIONS]                 run the analysis daemon (docs/SERVING.md)
    iolb help                            show this text

ANALYZE OPTIONS:
    --json               emit the report (plus per-session engine stats) as
                         JSON instead of text
    --param NAME=VALUE   parameter value for the combination heuristics
                         (default: 2000 for every program parameter; bounds
                         that evaluate trivially at this instance are dropped,
                         so pick values of the intended order of magnitude)
    --cache-size WORDS   fast-memory capacity S in words (default: 32768,
                         i.e. 256 kB of doubles)
    --cache-cap ENTRIES  total capacity of the session's memoization cache
                         (default: 3145728 entries; 0 disables storage)
    --depth D            maximum loop-parametrization depth (default: 0;
                         built-in kernels use their tuned depth)
    --serial             disable the parallel driver
    --deadline-ms MS     wall-clock budget; past it the run keeps the best
                         already-proven bound (reported as degraded) or
                         errors when no valid bound exists yet
    --max-fm-steps N     cap on Fourier-Motzkin variable eliminations
                         (same degradation semantics as --deadline-ms)

SIMULATE OPTIONS:
    --json               emit the full analysis report with the
                         \"tightness\" block as JSON
    --param NAME=VALUE   concrete parameter value for trace generation
                         (default: 16 for every program parameter; repeat
                         for each parameter)
    --cache LIST         comma-separated fast-memory sizes in words to
                         simulate (default: 1024)
    --opt                also simulate Belady/optimal replacement
    --max-trace N        trace-length budget; larger instances degrade to
                         a skipped entry instead of hanging (default:
                         4000000)
    --serial             disable the parallel driver
    --deadline-ms MS     wall-clock budget for the whole run

CHECK OPTIONS:
    --json               emit the preflight report as one JSON line
    --assume NAME>=V     add a context assumption for the feasibility
    --assume NAME<=V     diagnostics (contradictory bounds are reported
                         as a contradictory-assumptions error)
    --depth D            maximum loop-parametrization depth checked
                         against each statement's loop depth (default: 0;
                         built-in kernels use their tuned depth)

SERVE OPTIONS:
    --addr HOST:PORT     listen for line-delimited JSON over TCP (port 0
                         picks a free port; the bound address is printed
                         as `listening on HOST:PORT`)
    --stdio              serve stdin/stdout instead of a socket (exits on
                         EOF or a shutdown request)
    --workers N          analysis worker threads (default: all cores)
    --queue N            queued-request bound before `overloaded` replies
                         (default: 64)
    --pool N             warm engine sessions kept between requests
                         (default: 8; 0 serves every request cold)
    --timeout-ms MS      default per-request timeout (default: 120000;
                         requests may override with \"timeout_ms\")
    --cache-dir DIR      persist finished reports in DIR so repeated
                         requests — even across daemon restarts — replay
                         byte-identically without reanalysis
    --cache-bytes N      on-disk result-cache bound in bytes
                         (default: 268435456, i.e. 256 MiB)

Every `analyze` run executes in its own engine session: caches and
statistics are isolated from concurrent runs and freed on exit. The
daemon draws sessions from a bounded warm pool instead; results are
byte-identical either way. Wire protocol: docs/SERVING.md.
";

/// Parsed `analyze` options.
struct AnalyzeArgs {
    target: Target,
    json: bool,
    params: Vec<(String, i128)>,
    /// `Some` only when the user passed `--cache-size` (built-in kernels
    /// keep their tuned S otherwise).
    cache_size: Option<i128>,
    /// Session memoization-cache capacity (`--cache-cap`).
    cache_cap: Option<usize>,
    depth: Option<usize>,
    serial: bool,
    /// Wall-clock budget for the run (`--deadline-ms`).
    deadline_ms: Option<u64>,
    /// Fourier–Motzkin work budget (`--max-fm-steps`).
    max_fm_steps: Option<u64>,
}

enum Target {
    File(String),
    Kernel(String),
}

/// Resolves `--kernel NAME` by name alone: the kernel's DFG is built when
/// the analysis prepares it, inside the analysis session.
fn builtin_kernel(name: &str) -> Result<KernelName, CliError> {
    KernelName::lookup(name).ok_or_else(|| {
        err(format!(
            "unknown kernel `{name}` (see `iolb kernels` for the list)"
        ))
    })
}

/// Runs the CLI with the given arguments (excluding the program name).
/// Returns the stdout payload.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown subcommands, malformed options,
/// unreadable files, front-end errors, and unknown kernel names.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("kernels") => cmd_kernels(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(err(format!("unknown subcommand `{other}`\n\n{USAGE}"))),
    }
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeArgs, CliError> {
    let mut target: Option<Target> = None;
    let mut json = false;
    let mut params = Vec::new();
    let mut cache_size = None;
    let mut cache_cap = None;
    let mut depth = None;
    let mut serial = false;
    let mut deadline_ms = None;
    let mut max_fm_steps = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--serial" => serial = true,
            "--kernel" => {
                let name = it
                    .next()
                    .ok_or_else(|| err("--kernel requires a kernel name"))?;
                if target.is_some() {
                    return Err(err(format!(
                        "--kernel {name} conflicts with an input file; pass one or the other"
                    )));
                }
                target = Some(Target::Kernel(name.clone()));
            }
            "--param" => {
                let kv = it
                    .next()
                    .ok_or_else(|| err("--param requires NAME=VALUE"))?;
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| err(format!("malformed --param `{kv}` (want NAME=VALUE)")))?;
                let value: i128 = value
                    .parse()
                    .map_err(|_| err(format!("malformed --param value in `{kv}`")))?;
                params.push((name.to_string(), value));
            }
            "--cache-size" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--cache-size requires a word count"))?;
                cache_size = Some(
                    v.parse()
                        .map_err(|_| err(format!("malformed --cache-size `{v}`")))?,
                );
            }
            "--cache-cap" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--cache-cap requires an entry count"))?;
                cache_cap = Some(
                    v.parse()
                        .map_err(|_| err(format!("malformed --cache-cap `{v}`")))?,
                );
            }
            "--depth" => {
                let v = it.next().ok_or_else(|| err("--depth requires a number"))?;
                depth = Some(
                    v.parse()
                        .map_err(|_| err(format!("malformed --depth `{v}`")))?,
                );
            }
            "--deadline-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--deadline-ms requires a millisecond count"))?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| err(format!("malformed --deadline-ms `{v}`")))?;
                if ms == 0 {
                    return Err(err("--deadline-ms must be positive"));
                }
                deadline_ms = Some(ms);
            }
            "--max-fm-steps" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--max-fm-steps requires a step count"))?;
                let steps: u64 = v
                    .parse()
                    .map_err(|_| err(format!("malformed --max-fm-steps `{v}`")))?;
                if steps == 0 {
                    return Err(err("--max-fm-steps must be positive"));
                }
                max_fm_steps = Some(steps);
            }
            other if other.starts_with('-') => {
                return Err(err(format!("unknown option `{other}`\n\n{USAGE}")));
            }
            file => {
                if target.is_some() {
                    return Err(err(format!("unexpected argument `{file}`")));
                }
                target = Some(Target::File(file.to_string()));
            }
        }
    }
    let target = target.ok_or_else(|| err(format!("analyze: missing input\n\n{USAGE}")))?;
    Ok(AnalyzeArgs {
        target,
        json,
        params,
        cache_size,
        cache_cap,
        depth,
        serial,
        deadline_ms,
        max_fm_steps,
    })
}

/// Builds the [`Analyzer`] for an `analyze` invocation: one fresh engine
/// session per run, with every CLI override routed through the builder.
/// File targets get the generic user-program defaults (context assumes
/// moderately large sizes, the heuristic instance defaults every parameter
/// to 2000 — the order of magnitude of the PolyBench LARGE datasets, so
/// non-trivial sub-bounds survive the Sec. 7.2 combination heuristics);
/// kernel targets keep their tuned options unless overridden.
fn analyzer_for(args: &AnalyzeArgs) -> Analyzer {
    let mut analyzer = Analyzer::new().parallel(!args.serial);
    if let Some(cap) = args.cache_cap {
        analyzer = analyzer.cache_capacity(cap);
    }
    if let Some(depth) = args.depth {
        analyzer = analyzer.max_parametrization_depth(depth);
    } else if matches!(args.target, Target::File(_)) {
        analyzer = analyzer.max_parametrization_depth(0);
    }
    if let Some(s) = args.cache_size {
        analyzer = analyzer.cache_size(s);
    }
    for (name, value) in &args.params {
        analyzer = analyzer.param(name.clone(), *value);
    }
    if let Some(steps) = args.max_fm_steps {
        analyzer = analyzer.budget(Budget::none().max_fm_steps(steps));
    }
    if let Some(ms) = args.deadline_ms {
        analyzer = analyzer.deadline(std::time::Duration::from_millis(ms));
    }
    analyzer
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let args = parse_analyze_args(args)?;
    let analyzer = analyzer_for(&args);
    let outcome = match &args.target {
        Target::File(path) => analyzer.analyze(&IolbFile::new(path)),
        Target::Kernel(kname) => analyzer.analyze(&builtin_kernel(kname)?),
    }
    .map_err(|e| err(e.to_string()))?;
    if args.json {
        return Ok(format!("{}\n", outcome.to_json()));
    }
    let mut text = outcome.report.to_string();
    if let Some(d) = &outcome.report.analysis.degradation {
        text.push_str(&format!(
            "\nNOTE: degraded result — the \"{}\" budget tripped after {}/{} candidate \
             jobs. The bound above is valid but may be weaker than the full analysis; \
             raise the budget to tighten it.\n",
            d.interrupt.code(),
            d.sweep_completed,
            d.sweep_total,
        ));
    }
    Ok(text)
}

/// Parsed `check` options.
struct CheckArgs {
    target: Target,
    json: bool,
    depth: Option<usize>,
    /// `(name, value, is_upper_bound)` context assumptions from `--assume`.
    assumptions: Vec<(String, i128, bool)>,
}

fn parse_check_args(args: &[String]) -> Result<CheckArgs, CliError> {
    let mut target: Option<Target> = None;
    let mut json = false;
    let mut depth = None;
    let mut assumptions = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--kernel" => {
                let name = it
                    .next()
                    .ok_or_else(|| err("--kernel requires a kernel name"))?;
                if target.is_some() {
                    return Err(err(format!(
                        "--kernel {name} conflicts with an input file; pass one or the other"
                    )));
                }
                target = Some(Target::Kernel(name.clone()));
            }
            "--depth" => {
                let v = it.next().ok_or_else(|| err("--depth requires a number"))?;
                depth = Some(
                    v.parse()
                        .map_err(|_| err(format!("malformed --depth `{v}`")))?,
                );
            }
            "--assume" => {
                let spec = it
                    .next()
                    .ok_or_else(|| err("--assume requires NAME>=VALUE or NAME<=VALUE"))?;
                let (name, value, upper) = if let Some((n, v)) = spec.split_once(">=") {
                    (n, v, false)
                } else if let Some((n, v)) = spec.split_once("<=") {
                    (n, v, true)
                } else {
                    return Err(err(format!(
                        "malformed --assume `{spec}` (want NAME>=VALUE or NAME<=VALUE)"
                    )));
                };
                let value: i128 = value
                    .parse()
                    .map_err(|_| err(format!("malformed --assume value in `{spec}`")))?;
                assumptions.push((name.to_string(), value, upper));
            }
            other if other.starts_with('-') => {
                return Err(err(format!("unknown check option `{other}`\n\n{USAGE}")));
            }
            file => {
                if target.is_some() {
                    return Err(err(format!("unexpected argument `{file}`")));
                }
                target = Some(Target::File(file.to_string()));
            }
        }
    }
    let target = target.ok_or_else(|| err(format!("check: missing input\n\n{USAGE}")))?;
    Ok(CheckArgs {
        target,
        json,
        depth,
        assumptions,
    })
}

/// Renders a preflight report as human-readable text (the non-`--json`
/// output of `iolb check`).
fn render_check_text(report: &iolb_core::preflight::PreflightReport) -> String {
    let p = &report.profile;
    let mut out = String::new();
    out.push_str(&format!("workload: {}\n", p.name));
    out.push_str(&format!(
        "cost class: {} (blowup score {}, threshold {})\n",
        p.cost_class.as_str(),
        p.blowup_score,
        iolb_core::preflight::LARGE_SCORE_THRESHOLD,
    ));
    out.push_str(&format!(
        "statements: {}, inputs: {}, params: {} ({}), assumptions: {}\n",
        p.statements.len(),
        p.inputs,
        p.params.len(),
        if p.params.is_empty() {
            "-".to_string()
        } else {
            p.params.join(", ")
        },
        p.assumptions,
    ));
    out.push_str(&format!(
        "max loop depth: {}, parametrization depth: {}\n",
        p.max_depth, p.parametrization_depth,
    ));
    for s in &p.statements {
        out.push_str(&format!(
            "  {}: dim {}, fan-in {}, fan-out {}, uniform deps {}, pattern {}, score {}\n",
            s.name, s.dim, s.fan_in, s.fan_out, s.uniform_in, s.pattern, s.blowup_score,
        ));
    }
    if report.diagnostics.is_empty() {
        out.push_str("no diagnostics\n");
    } else {
        out.push_str(&format!("diagnostics: {}\n", report.diagnostics.len()));
        for d in &report.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

fn cmd_check(args: &[String]) -> Result<String, CliError> {
    let args = parse_check_args(args)?;
    let mut analyzer = Analyzer::new();
    if let Some(depth) = args.depth {
        analyzer = analyzer.max_parametrization_depth(depth);
    } else if matches!(args.target, Target::File(_)) {
        analyzer = analyzer.max_parametrization_depth(0);
    }
    for (name, value, upper) in &args.assumptions {
        analyzer = if *upper {
            analyzer.assume_le(name.clone(), *value)
        } else {
            analyzer.assume_ge(name.clone(), *value)
        };
    }
    let report = match &args.target {
        Target::File(path) => analyzer.preflight(&IolbFile::new(path)),
        Target::Kernel(kname) => analyzer.preflight(&builtin_kernel(kname)?),
    }
    .map_err(|e| err(e.to_string()))?;
    let text = if args.json {
        format!("{}\n", report.json().render())
    } else {
        render_check_text(&report)
    };
    // Error-severity diagnostics make the exit code non-zero (the CI gate
    // over examples/); the rendered report still carries every diagnostic.
    if report.has_errors() {
        Err(CliError(format!(
            "preflight found error-severity diagnostics\n{text}"
        )))
    } else {
        Ok(text)
    }
}

/// Parsed `simulate` options.
struct SimulateArgs {
    target: Target,
    json: bool,
    /// Concrete instance for trace generation (`--param`); empty means the
    /// default all-16 instance derived by the tightness pass.
    params: Vec<(String, i128)>,
    /// Cache sizes in words (`--cache`), already parsed from the comma list.
    cache_sizes: Vec<usize>,
    opt: bool,
    max_trace: Option<u64>,
    serial: bool,
    deadline_ms: Option<u64>,
}

fn parse_simulate_args(args: &[String]) -> Result<SimulateArgs, CliError> {
    let mut target: Option<Target> = None;
    let mut json = false;
    let mut params = Vec::new();
    let mut cache_sizes = Vec::new();
    let mut opt = false;
    let mut max_trace = None;
    let mut serial = false;
    let mut deadline_ms = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--opt" => opt = true,
            "--serial" => serial = true,
            "--kernel" => {
                let name = it
                    .next()
                    .ok_or_else(|| err("--kernel requires a kernel name"))?;
                if target.is_some() {
                    return Err(err(format!(
                        "--kernel {name} conflicts with an input file; pass one or the other"
                    )));
                }
                target = Some(Target::Kernel(name.clone()));
            }
            "--param" => {
                let kv = it
                    .next()
                    .ok_or_else(|| err("--param requires NAME=VALUE"))?;
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| err(format!("malformed --param `{kv}` (want NAME=VALUE)")))?;
                let value: i128 = value
                    .parse()
                    .map_err(|_| err(format!("malformed --param value in `{kv}`")))?;
                if value <= 0 {
                    return Err(err(format!(
                        "--param {name}={value}: simulated instances must be positive"
                    )));
                }
                params.push((name.to_string(), value));
            }
            "--cache" => {
                let list = it
                    .next()
                    .ok_or_else(|| err("--cache requires a comma-separated word-count list"))?;
                for piece in list.split(',') {
                    let words: usize = piece
                        .trim()
                        .parse()
                        .map_err(|_| err(format!("malformed --cache entry `{piece}`")))?;
                    if words == 0 {
                        return Err(err("--cache sizes must be positive"));
                    }
                    cache_sizes.push(words);
                }
            }
            "--max-trace" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--max-trace requires an access count"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| err(format!("malformed --max-trace `{v}`")))?;
                if n == 0 {
                    return Err(err("--max-trace must be positive"));
                }
                max_trace = Some(n);
            }
            "--deadline-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--deadline-ms requires a millisecond count"))?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| err(format!("malformed --deadline-ms `{v}`")))?;
                if ms == 0 {
                    return Err(err("--deadline-ms must be positive"));
                }
                deadline_ms = Some(ms);
            }
            other if other.starts_with('-') => {
                return Err(err(format!("unknown simulate option `{other}`\n\n{USAGE}")));
            }
            file => {
                if target.is_some() {
                    return Err(err(format!("unexpected argument `{file}`")));
                }
                target = Some(Target::File(file.to_string()));
            }
        }
    }
    let target = target.ok_or_else(|| err(format!("simulate: missing input\n\n{USAGE}")))?;
    Ok(SimulateArgs {
        target,
        json,
        params,
        cache_sizes,
        opt,
        max_trace,
        serial,
        deadline_ms,
    })
}

/// Renders the tightness report as human-readable text (the non-`--json`
/// tail of `iolb simulate`).
fn render_tightness_text(report: &iolb_core::TightnessReport) -> String {
    let mut out = String::from("\nmeasured locality (LRU simulation of the generated trace):\n");
    for inst in &report.instances {
        if let Some(reason) = &inst.skipped {
            out.push_str(&format!("  {} — skipped: {reason}\n", inst.instance));
            continue;
        }
        out.push_str(&format!(
            "  {} — {} accesses, {} distinct addresses, {} ops\n",
            inst.instance, inst.trace_len, inst.distinct_addresses, inst.ops
        ));
        for cp in &inst.caches {
            let q_low = cp
                .q_low
                .map(|q| format!("{q:.1}"))
                .unwrap_or_else(|| "-".into());
            let ratio = cp
                .tightness_lru()
                .map(|t| format!("{t:.4}"))
                .unwrap_or_else(|| "-".into());
            let opt = cp
                .opt
                .as_ref()
                .map(|o| format!(", OPT misses {}", o.misses))
                .unwrap_or_default();
            out.push_str(&format!(
                "    S={:>8}: LRU misses {:>12}{opt}, Q_low {q_low}, tightness {ratio}\n",
                cp.cache_words, cp.lru.misses
            ));
        }
    }
    out.push_str(&format!("{}\n", report.summary_line()));
    out
}

fn cmd_simulate(args: &[String]) -> Result<String, CliError> {
    let args = parse_simulate_args(args)?;
    let mut analyzer = Analyzer::new().parallel(!args.serial);
    if matches!(args.target, Target::File(_)) {
        analyzer = analyzer.max_parametrization_depth(0);
    }
    if let Some(ms) = args.deadline_ms {
        analyzer = analyzer.deadline(std::time::Duration::from_millis(ms));
    }

    let mut options = iolb_core::TightnessOptions::default()
        .cache_sizes(&args.cache_sizes)
        .opt(args.opt);
    if !args.params.is_empty() {
        let mut instance = iolb_core::Instance::new();
        for (name, value) in &args.params {
            instance = instance.set(name, *value);
        }
        options = options.instance(instance);
    }
    if let Some(n) = args.max_trace {
        options = options.max_trace(n);
    }

    let outcome = match &args.target {
        Target::File(path) => analyzer.analyze_with_tightness(&IolbFile::new(path), &options),
        Target::Kernel(kname) => analyzer.analyze_with_tightness(&builtin_kernel(kname)?, &options),
    }
    .map_err(|e| err(e.to_string()))?;
    if args.json {
        return Ok(format!("{}\n", outcome.to_json()));
    }
    let mut text = outcome.report.to_string();
    let report = outcome
        .tightness
        .as_ref()
        .expect("analyze_with_tightness always attaches a report");
    text.push_str(&render_tightness_text(report));
    Ok(text)
}

fn cmd_kernels(args: &[String]) -> Result<String, CliError> {
    let json = match args {
        [] => false,
        [a] if a == "--json" => true,
        _ => return Err(err(format!("kernels: unexpected arguments\n\n{USAGE}"))),
    };
    // Only the names, categories and parameters are read; the session
    // keeps the DFGs the builders intern out of the process-wide fallback.
    let kernels = EngineCtx::new().scope(iolb_polybench::all_kernels);
    if json {
        let kernel = |k: &iolb_polybench::Kernel| {
            Json::obj([
                ("name", Json::from(k.name)),
                ("category", Json::from(k.category.to_string())),
                ("params", Json::from(k.params.to_vec())),
            ])
        };
        let list = Json::Arr(kernels.iter().map(kernel).collect());
        return Ok(format!("{}\n", list.render()));
    }
    let mut out = format!("{:<16} {:<14} parameters\n", "kernel", "category");
    for k in &kernels {
        out.push_str(&format!(
            "{:<16} {:<14} {}\n",
            k.name,
            k.category.to_string(),
            k.params.join(", ")
        ));
    }
    Ok(out)
}

fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let run = iolb_bench::perf::run(args);
    iolb_bench::perf::report_and_write(&run);
    Ok(String::new())
}

/// Parsed `serve` options (separate from the server's own config so the
/// CLI layer stays unit-testable without starting threads).
#[derive(Debug)]
struct ServeArgs {
    addr: Option<String>,
    stdio: bool,
    config: iolb_server::ServerConfig,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut addr: Option<String> = None;
    let mut stdio = false;
    let mut config = iolb_server::ServerConfig::default();
    fn numeric(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, CliError> {
        let v = it
            .next()
            .ok_or_else(|| err(format!("{name} requires a value")))?;
        v.parse()
            .map_err(|_| err(format!("malformed {name} `{v}`")))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--addr" => {
                let v = it.next().ok_or_else(|| err("--addr requires HOST:PORT"))?;
                addr = Some(v.clone());
            }
            "--workers" => config.workers = numeric(&mut it, "--workers")?.max(1),
            "--queue" => config.queue_capacity = numeric(&mut it, "--queue")?,
            "--pool" => config.pool_capacity = numeric(&mut it, "--pool")?,
            "--timeout-ms" => {
                let ms = numeric(&mut it, "--timeout-ms")?;
                if ms == 0 {
                    return Err(err("--timeout-ms must be positive"));
                }
                config.default_timeout_ms = ms as u64;
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .ok_or_else(|| err("--cache-dir requires a directory"))?;
                config.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--cache-bytes" => {
                let bytes = numeric(&mut it, "--cache-bytes")?;
                if bytes == 0 {
                    return Err(err("--cache-bytes must be positive"));
                }
                config.cache_bytes = bytes as u64;
            }
            other => return Err(err(format!("unknown serve option `{other}`\n\n{USAGE}"))),
        }
    }
    if stdio && addr.is_some() {
        return Err(err("--stdio conflicts with --addr; pass one or the other"));
    }
    if !stdio && addr.is_none() {
        return Err(err(format!(
            "serve: pass --addr HOST:PORT or --stdio\n\n{USAGE}"
        )));
    }
    Ok(ServeArgs {
        addr,
        stdio,
        config,
    })
}

/// Runs the analysis daemon until it drains (shutdown request, or EOF in
/// `--stdio` mode). Unlike the other commands this one serves its output
/// incrementally — protocol responses on the transport, status lines on
/// stderr (plus the `listening on HOST:PORT` line on stdout in TCP mode,
/// which scripts read to discover the bound port).
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let args = parse_serve_args(args)?;
    let server = std::sync::Arc::new(iolb_server::Server::start(args.config));
    if args.stdio {
        server
            .serve_stdio()
            .map_err(|e| err(format!("serve: {e}")))?;
    } else {
        let addr = args.addr.expect("checked by parse_serve_args");
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| err(format!("serve: cannot bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| err(format!("serve: {e}")))?;
        println!("listening on {local}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        server
            .serve_listener(listener)
            .map_err(|e| err(format!("serve: {e}")))?;
    }
    eprintln!("iolb serve: drained, exiting");
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::json;

    fn example(name: &str) -> String {
        format!(
            "{}/../../examples/programs/{name}",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn help_and_unknown_subcommand() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help".into()]).unwrap().contains("analyze"));
        let e = run(&["frobnicate".into()]).unwrap_err();
        assert!(e.0.contains("unknown subcommand"));
    }

    #[test]
    fn kernels_lists_all_thirty() {
        let text = run(&["kernels".into()]).unwrap();
        assert!(text.contains("gemm"));
        assert!(text.contains("cholesky"));
        assert_eq!(text.lines().count(), 31); // header + 30 kernels
        let json = run(&["kernels".into(), "--json".into()]).unwrap();
        assert_eq!(json.lines().count(), 1, "{json}");
        let Json::Arr(kernels) = json::parse(&json).unwrap() else {
            panic!("not an array: {json}");
        };
        assert!(kernels
            .iter()
            .any(|k| k.get("name").and_then(Json::as_str) == Some("gemm")));
    }

    #[test]
    fn analyze_builtin_kernel_text_and_json() {
        let text = run(&["analyze".into(), "--kernel".into(), "gemm".into()]).unwrap();
        assert!(text.contains("kernel: gemm"));
        assert!(text.contains("Q_low"));
        let json = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        assert_eq!(json.lines().count(), 1, "{json}");
        let doc = json::parse(&json).unwrap();
        assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("gemm"));
        assert_eq!(
            doc.get("q_asymptotic").and_then(Json::as_str),
            Some("2*Ni*Nj*Nk*S^(-1/2)")
        );
    }

    #[test]
    fn analyze_file_matches_builtin_gemm() {
        // The CLI's default options on the gemm example must reproduce the
        // built-in kernel's parametric bound (the PR's acceptance
        // criterion; the binary-level version lives in tests/cli.rs).
        let from_file = run(&["analyze".into(), example("gemm.iolb"), "--json".into()]).unwrap();
        let builtin = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        let q = |s: &str| {
            json::parse(s)
                .unwrap()
                .get("q_low")
                .cloned()
                .expect("q_low")
        };
        assert_eq!(q(&from_file), q(&builtin));
    }

    #[test]
    fn kernel_instance_overrides_are_applied() {
        // A different --cache-size must change the numeric-instance side of
        // the analysis; for syrk the weaker S makes the non-trivial
        // sub-bound evaluate differently, and at minimum the output must
        // differ from the tuned default (the bound text embeds max(...)
        // selection made at the instance).
        let tuned = run(&["analyze".into(), "--kernel".into(), "2mm".into()]).unwrap();
        let tiny = run(&[
            "analyze".into(),
            "--kernel".into(),
            "2mm".into(),
            "--param".into(),
            "Ni=8".into(),
            "--param".into(),
            "Nj=8".into(),
            "--param".into(),
            "Nk=8".into(),
            "--param".into(),
            "Nl=8".into(),
        ])
        .unwrap();
        assert_ne!(
            tuned, tiny,
            "--param must reach the built-in kernel's instance"
        );
    }

    #[test]
    fn file_and_kernel_targets_conflict() {
        let e = run(&[
            "analyze".into(),
            "prog.iolb".into(),
            "--kernel".into(),
            "gemm".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("conflicts with an input file"), "{}", e.0);
        let e = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "prog.iolb".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("unexpected argument"), "{}", e.0);
    }

    #[test]
    fn budget_flags_trip_or_degrade() {
        // An impossible FM budget interrupts before any valid bound: the
        // CLI surfaces the typed interrupt as its error message.
        let e = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--max-fm-steps".into(),
            "1".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("budget exhausted"), "{}", e.0);
        // A generous budget changes nothing: same text output, no note.
        let plain = run(&["analyze".into(), "--kernel".into(), "gemm".into()]).unwrap();
        let budgeted = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--deadline-ms".into(),
            "3600000".into(),
            "--max-fm-steps".into(),
            u64::MAX.to_string(),
        ])
        .unwrap();
        assert_eq!(plain, budgeted);
        assert!(!budgeted.contains("degraded"));
        // Malformed values are rejected up front.
        for (flag, value, want) in [
            ("--deadline-ms", "soon", "malformed"),
            ("--deadline-ms", "0", "must be positive"),
            ("--max-fm-steps", "0", "must be positive"),
        ] {
            let e = run(&[
                "analyze".into(),
                "--kernel".into(),
                "gemm".into(),
                flag.into(),
                value.into(),
            ])
            .unwrap_err();
            assert!(e.0.contains(want), "{flag} {value}: {}", e.0);
        }
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let strs = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        let parsed = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "5",
            "--pool",
            "3",
            "--timeout-ms",
            "1000",
        ]))
        .unwrap();
        assert_eq!(parsed.addr.as_deref(), Some("127.0.0.1:0"));
        assert!(!parsed.stdio);
        assert_eq!(parsed.config.workers, 2);
        assert_eq!(parsed.config.queue_capacity, 5);
        assert_eq!(parsed.config.pool_capacity, 3);
        assert_eq!(parsed.config.default_timeout_ms, 1000);

        let stdio = parse_serve_args(&strs(&["--stdio"])).unwrap();
        assert!(stdio.stdio);

        for (bad, want) in [
            (vec!["--stdio", "--addr", "x:1"], "conflicts"),
            (vec![], "pass --addr HOST:PORT or --stdio"),
            (vec!["--addr", "x:1", "--workers", "lots"], "malformed"),
            (
                vec!["--addr", "x:1", "--timeout-ms", "0"],
                "must be positive",
            ),
            (vec!["--frobnicate"], "unknown serve option"),
        ] {
            let e = parse_serve_args(&strs(&bad)).unwrap_err();
            assert!(e.0.contains(want), "{bad:?}: {}", e.0);
        }
        // `--workers 0` is clamped to one worker rather than deadlocking.
        let clamped = parse_serve_args(&strs(&["--stdio", "--workers", "0"])).unwrap();
        assert_eq!(clamped.config.workers, 1);
    }

    /// The first cache point of a one-line `simulate --json` document.
    fn first_cache_point(json: &str) -> Json {
        assert_eq!(json.lines().count(), 1, "{json}");
        let doc = json::parse(json).unwrap();
        let Some(Json::Arr(instances)) = doc.get("tightness").and_then(|t| t.get("instances"))
        else {
            panic!("no tightness instances: {json}");
        };
        let Some(Json::Arr(caches)) = instances[0].get("caches") else {
            panic!("no cache points: {json}");
        };
        caches[0].clone()
    }

    #[test]
    fn simulate_kernel_text_and_json() {
        let text = run(&[
            "simulate".into(),
            "--kernel".into(),
            "gemm".into(),
            "--param".into(),
            "Ni=12".into(),
            "--param".into(),
            "Nj=10".into(),
            "--param".into(),
            "Nk=8".into(),
            "--cache".into(),
            "64,1024".into(),
            "--opt".into(),
        ])
        .unwrap();
        assert!(text.contains("measured locality"), "{text}");
        assert!(text.contains("LRU misses"), "{text}");
        assert!(text.contains("OPT misses"), "{text}");
        assert!(text.contains("tightness:"), "{text}");

        let json = run(&[
            "simulate".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        let point = first_cache_point(&json);
        assert!(point.get("lru_misses").is_some(), "{json}");
        assert!(point.get("tightness_lru").is_some(), "{json}");
    }

    #[test]
    fn simulate_file_works_end_to_end() {
        let json = run(&[
            "simulate".into(),
            example("gemm.iolb"),
            "--param".into(),
            "Ni=12".into(),
            "--param".into(),
            "Nj=10".into(),
            "--param".into(),
            "Nk=8".into(),
            "--json".into(),
        ])
        .unwrap();
        first_cache_point(&json);
        // 12*10*8 = 960 statement points, 4 accesses each (A, B, C|Cin, C).
        let doc = json::parse(&json).unwrap();
        let Some(Json::Arr(instances)) = doc.get("tightness").unwrap().get("instances") else {
            panic!("no tightness instances: {json}");
        };
        assert_eq!(
            instances[0].get("trace_len"),
            Some(&Json::Int(3840)),
            "{json}"
        );
    }

    #[test]
    fn simulate_rejects_malformed_options() {
        for (args, want) in [
            (vec!["simulate"], "missing input"),
            (
                vec!["simulate", "--kernel", "nonesuch"],
                "unknown kernel `nonesuch`",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--cache", "big"],
                "malformed --cache",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--cache", "0"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--param", "Ni=-3"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--max-trace", "0"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--frobnicate"],
                "unknown simulate option",
            ),
        ] {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&owned).unwrap_err();
            assert!(e.0.contains(want), "{args:?}: {}", e.0);
        }
    }

    #[test]
    fn check_profiles_kernels_and_files() {
        // Calibration anchors, through the CLI surface: the FM-blowup
        // kernels route large, the dense linear-algebra ones small.
        let heat = run(&["check".into(), "--kernel".into(), "heat-3d".into()]).unwrap();
        assert!(heat.contains("cost class: large"), "{heat}");
        assert!(heat.contains("pattern stencil"), "{heat}");
        let gemm = run(&["check".into(), "--kernel".into(), "gemm".into()]).unwrap();
        assert!(gemm.contains("cost class: small"), "{gemm}");
        assert!(gemm.contains("no diagnostics"), "{gemm}");
        // A file target profiles identically to its built-in twin's shape.
        let file = run(&["check".into(), example("jacobi-2d.iolb")]).unwrap();
        assert!(file.contains("cost class: large"), "{file}");
        // JSON mode is one parseable line with the same verdict.
        let json = run(&[
            "check".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(json.trim_end().lines().count() == 1, "{json}");
        let doc = json::parse(&json).unwrap();
        assert_eq!(doc.get("cost_class").and_then(Json::as_str), Some("small"));
        assert_eq!(
            doc.get("diagnostics"),
            Some(&Json::Arr(Vec::new())),
            "{json}"
        );
    }

    #[test]
    fn check_flags_bad_programs() {
        // Golden diagnostics over the intentionally-bad examples: exact
        // positioned lines, and error severity ⇒ non-zero exit (Err).
        let e = run(&["check".into(), example("bad/empty-domain.iolb")]).unwrap_err();
        assert!(
            e.0.contains(
                "12:9: error: statement `S1` has an empty iteration domain \
                 (its loop bounds are unsatisfiable) [empty-domain]"
            ),
            "{}",
            e.0
        );
        // Warnings alone keep the exit clean but are all reported.
        let warn = run(&["check".into(), example("bad/dead-array.iolb")]).unwrap();
        assert!(
            warn.contains("warning: array `B` is declared but never read or written [dead-array]"),
            "{warn}"
        );
        assert!(
            warn.contains("warning: parameter `M` is declared") && warn.contains("[unused-param]"),
            "{warn}"
        );
        // Contradictory --assume bounds make the context infeasible.
        let e = run(&[
            "check".into(),
            example("bad/contradictory-assumptions.iolb"),
            "--assume".into(),
            "N>=100".into(),
            "--assume".into(),
            "N<=10".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("[contradictory-assumptions]"), "{}", e.0);
        // The same program with sane (or no) assumptions is clean.
        let ok = run(&[
            "check".into(),
            example("bad/contradictory-assumptions.iolb"),
        ])
        .unwrap();
        assert!(ok.contains("no diagnostics"), "{ok}");
        // A program that does not compile fails with the frontend's
        // positioned error, like `analyze`.
        let e = run(&["check".into(), "/nonexistent.iolb".into()]).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);
        // Malformed --assume specs are rejected up front.
        let e = run(&[
            "check".into(),
            example("gemm.iolb"),
            "--assume".into(),
            "N=5".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("malformed --assume"), "{}", e.0);
    }

    #[test]
    fn analyze_reports_frontend_errors_with_position() {
        let dir = std::env::temp_dir().join("iolb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.iolb");
        std::fs::write(
            &path,
            "parameter N;\ndouble A[N];\nfor (i = 0; i < N; i++)\n  A[i*i] = 0;\n",
        )
        .unwrap();
        let e = run(&["analyze".into(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert!(
            e.0.contains("4:5"),
            "error should carry a position: {}",
            e.0
        );
        assert!(e.0.contains("non-affine"));
    }
}
