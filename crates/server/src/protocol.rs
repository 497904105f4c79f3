//! The wire protocol: request parsing and response rendering.
//!
//! One request per line, one response per line, both JSON objects — the
//! full field-by-field reference lives in `docs/SERVING.md`. This module is
//! the single place where field names and error codes are defined;
//! everything in the docs maps 1:1 to a constant or struct field here.
//!
//! Parsing is **strict**: unknown top-level fields, wrong field types and
//! ambiguous workload specifications are `bad_request` errors rather than
//! silently ignored, so client typos (`"cachesize"`, `"kernal"`) surface
//! immediately instead of producing a subtly misconfigured analysis.

use crate::json::{self, Json};

/// Error code: the request line was not valid JSON, not an object, had
/// unknown or ill-typed fields, or named no workload.
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// Error code: `kernel` named no built-in PolyBench kernel.
pub const ERR_UNKNOWN_KERNEL: &str = "unknown_kernel";
/// Error code: the workload failed to prepare (unreadable `path`,
/// front-end/lowering error in `source`); the message carries the
/// `line:col` diagnostics.
pub const ERR_WORKLOAD: &str = "workload_error";
/// Error code: the request queue is full — back off and retry (the
/// HTTP-429 analogue). The error object carries a `retry_after_ms` hint:
/// current queue depth times the recent mean service time.
pub const ERR_OVERLOADED: &str = "overloaded";
/// Error code: the analysis did not finish within the request's
/// `timeout_ms`. The in-flight analysis is cancelled at its next engine
/// checkpoint, so the worker slot is reclaimed within one checkpoint
/// interval, not when the analysis would have completed.
pub const ERR_TIMEOUT: &str = "timeout";
/// Error code: an engine work budget (`budget` limits or the server-side
/// deadline derived from `timeout_ms`) tripped before the analysis could
/// prove *any* valid bound. Budgets that trip mid-sweep instead produce a
/// successful-but-`degraded` response.
pub const ERR_RESOURCE_LIMIT: &str = "resource_limit";
/// Error code: the server is draining after a `shutdown` request and
/// accepts no new analyses.
pub const ERR_SHUTTING_DOWN: &str = "shutting_down";
/// Error code: the analysis panicked server-side (an engine invariant or
/// capacity was violated). The worker survives — the panic is isolated to
/// the one request — but the input likely needs changing.
pub const ERR_INTERNAL: &str = "internal_error";

/// What to analyse: exactly one of the three workload fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// `"kernel"`: a built-in PolyBench kernel by name.
    Kernel(String),
    /// `"source"`: inline affine-C (`.iolb`) program text.
    Source(String),
    /// `"path"`: a `.iolb` file read server-side.
    Path(String),
}

/// A parsed `analyze` request (the default `op`).
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeRequest {
    /// Client correlation id, echoed verbatim into the response.
    pub id: Json,
    /// The workload to analyse.
    pub workload: WorkloadSpec,
    /// `"params"`: program-parameter values for the combination heuristics.
    pub params: Vec<(String, i128)>,
    /// `"cache_param"`: rename of the fast-memory capacity parameter.
    pub cache_param: Option<String>,
    /// `"cache_size"`: fast-memory capacity in words.
    pub cache_size: Option<i128>,
    /// `"cache_cap"`: session memoization-cache capacity in entries.
    pub cache_cap: Option<usize>,
    /// `"depth"`: maximum loop-parametrization depth.
    pub depth: Option<usize>,
    /// `"parallel"`: opt into the parallel per-request driver (default
    /// `false`: the server already runs requests concurrently, and nesting
    /// the driver's own fan-out on top oversubscribes the machine).
    pub parallel: bool,
    /// `"timeout_ms"`: per-request timeout override.
    pub timeout_ms: Option<u64>,
    /// `"budget"`: explicit engine work limits for this request.
    pub budget: Option<BudgetSpec>,
}

/// `"budget"`: explicit engine work limits, an object with any subset of
/// the three limit fields (each a positive integer). Tripping a limit
/// mid-sweep degrades the result; tripping before any valid bound exists
/// is a [`ERR_RESOURCE_LIMIT`] error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// `"fm_steps"`: maximum Fourier–Motzkin variable eliminations.
    pub fm_steps: Option<u64>,
    /// `"constraints"`: maximum constraints in any intermediate system.
    pub constraints: Option<usize>,
    /// `"cache_entries"`: maximum session memoization-cache entries.
    pub cache_entries: Option<usize>,
}

/// A parsed `simulate` request: a full analysis plus the trace-simulation
/// knobs of the tightness pass. Responses carry the ordinary `report`
/// document with its `tightness` block populated.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateRequest {
    /// The analysis half: identical fields and semantics to `analyze`.
    pub analyze: AnalyzeRequest,
    /// `"instance"`: concrete positive parameter values for trace
    /// generation; empty means the default all-16 instance.
    pub instance: Vec<(String, i128)>,
    /// `"cache_sizes"`: fast-memory sizes in words to simulate (default
    /// 1024 when empty).
    pub cache_sizes: Vec<usize>,
    /// `"opt"`: also simulate Belady/optimal replacement.
    pub opt: bool,
    /// `"max_trace"`: trace-length budget; oversized instances degrade to
    /// a skipped entry.
    pub max_trace: Option<u64>,
}

/// Any parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `op: "analyze"` (or omitted): run an analysis.
    Analyze(Box<AnalyzeRequest>),
    /// `op: "simulate"`: analysis plus the trace-simulation tightness pass.
    Simulate(Box<SimulateRequest>),
    /// `op: "ping"`: liveness probe.
    Ping(Json),
    /// `op: "stats"`: server/pool/queue counters.
    Stats(Json),
    /// `op: "shutdown"`: ack, then drain and exit.
    Shutdown(Json),
}

/// A protocol-level failure, rendered by [`error_response`].
#[derive(Clone, Debug, PartialEq)]
pub struct RequestError {
    /// The echoed id (`null` when the line had none).
    pub id: Json,
    /// One of the `ERR_*` codes.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

fn bad(id: &Json, message: impl Into<String>) -> RequestError {
    RequestError {
        id: id.clone(),
        code: ERR_BAD_REQUEST,
        message: message.into(),
    }
}

/// Every top-level field an `analyze` request may carry.
const ANALYZE_FIELDS: &[&str] = &[
    "id",
    "op",
    "kernel",
    "source",
    "path",
    "params",
    "cache_param",
    "cache_size",
    "cache_cap",
    "depth",
    "parallel",
    "timeout_ms",
    "budget",
];

/// The additional top-level fields a `simulate` request may carry.
const SIMULATE_FIELDS: &[&str] = &[
    "id",
    "op",
    "kernel",
    "source",
    "path",
    "params",
    "cache_param",
    "cache_size",
    "cache_cap",
    "depth",
    "parallel",
    "timeout_ms",
    "budget",
    "instance",
    "cache_sizes",
    "opt",
    "max_trace",
];

/// Every field a `budget` object may carry.
const BUDGET_FIELDS: &[&str] = &["fm_steps", "constraints", "cache_entries"];

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = json::parse(line).map_err(|e| bad(&Json::Null, format!("invalid JSON: {e}")))?;
    let fields = doc
        .as_obj()
        .ok_or_else(|| bad(&Json::Null, "request must be a JSON object"))?;
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let op = match doc.get("op") {
        None => "analyze",
        Some(Json::Str(op)) => op.as_str(),
        Some(other) => {
            return Err(bad(
                &id,
                format!("field \"op\" must be a string, got {}", other.type_name()),
            ))
        }
    };
    match op {
        "ping" | "stats" | "shutdown" => {
            if let Some((key, _)) = fields.iter().find(|(k, _)| k != "id" && k != "op") {
                return Err(bad(
                    &id,
                    format!("field \"{key}\" is not valid for op \"{op}\""),
                ));
            }
            Ok(match op {
                "ping" => Request::Ping(id),
                "stats" => Request::Stats(id),
                _ => Request::Shutdown(id),
            })
        }
        "analyze" => {
            parse_analyze(&doc, fields, id, ANALYZE_FIELDS).map(|r| Request::Analyze(Box::new(r)))
        }
        "simulate" => parse_simulate(&doc, fields, id).map(|r| Request::Simulate(Box::new(r))),
        other => Err(bad(
            &id,
            format!(
                "unknown op \"{other}\" (want \"analyze\", \"simulate\", \"ping\", \"stats\" or \
                 \"shutdown\")"
            ),
        )),
    }
}

fn parse_analyze(
    doc: &Json,
    fields: &[(String, Json)],
    id: Json,
    allowed: &[&str],
) -> Result<AnalyzeRequest, RequestError> {
    if let Some((key, _)) = fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        return Err(bad(&id, format!("unknown field \"{key}\"")));
    }

    let mut workloads: Vec<WorkloadSpec> = Vec::new();
    for (key, make) in [
        ("kernel", WorkloadSpec::Kernel as fn(String) -> WorkloadSpec),
        ("source", WorkloadSpec::Source as fn(String) -> WorkloadSpec),
        ("path", WorkloadSpec::Path as fn(String) -> WorkloadSpec),
    ] {
        if let Some(value) = doc.get(key) {
            let text = value.as_str().ok_or_else(|| {
                bad(
                    &id,
                    format!(
                        "field \"{key}\" must be a string, got {}",
                        value.type_name()
                    ),
                )
            })?;
            workloads.push(make(text.to_string()));
        }
    }
    let workload = match workloads.len() {
        1 => workloads.pop().expect("one element"),
        0 => {
            return Err(bad(
                &id,
                "no workload: pass exactly one of \"kernel\", \"source\" or \"path\"",
            ))
        }
        _ => {
            return Err(bad(
                &id,
                "ambiguous workload: pass exactly one of \"kernel\", \"source\" or \"path\"",
            ))
        }
    };

    let mut params: Vec<(String, i128)> = Vec::new();
    if let Some(value) = doc.get("params") {
        let obj = value.as_obj().ok_or_else(|| {
            bad(
                &id,
                format!(
                    "field \"params\" must be an object of name -> integer, got {}",
                    value.type_name()
                ),
            )
        })?;
        for (name, v) in obj {
            let value = v.as_i128().ok_or_else(|| {
                bad(
                    &id,
                    format!(
                        "parameter \"{name}\" must be an integer, got {}",
                        v.type_name()
                    ),
                )
            })?;
            params.push((name.clone(), value));
        }
    }

    let string_field = |key: &str| -> Result<Option<String>, RequestError> {
        match doc.get(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(bad(
                &id,
                format!(
                    "field \"{key}\" must be a string, got {}",
                    other.type_name()
                ),
            )),
        }
    };
    let usize_field = |key: &str| -> Result<Option<usize>, RequestError> {
        match doc.get(key) {
            None => Ok(None),
            Some(value) => value.as_usize().map(Some).ok_or_else(|| {
                bad(
                    &id,
                    format!(
                        "field \"{key}\" must be a non-negative integer, got {}",
                        value.type_name()
                    ),
                )
            }),
        }
    };

    let cache_param = string_field("cache_param")?;
    let cache_size = match doc.get("cache_size") {
        None => None,
        Some(value) => Some(value.as_i128().ok_or_else(|| {
            bad(
                &id,
                format!(
                    "field \"cache_size\" must be an integer, got {}",
                    value.type_name()
                ),
            )
        })?),
    };
    let cache_cap = usize_field("cache_cap")?;
    let depth = usize_field("depth")?;
    let parallel = match doc.get("parallel") {
        None => false,
        Some(value) => value.as_bool().ok_or_else(|| {
            bad(
                &id,
                format!(
                    "field \"parallel\" must be a boolean, got {}",
                    value.type_name()
                ),
            )
        })?,
    };
    let timeout_ms = match doc.get("timeout_ms") {
        None => None,
        Some(value) => match value.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(bad(
                    &id,
                    format!(
                        "field \"timeout_ms\" must be a positive integer, got {}",
                        value.render()
                    ),
                ))
            }
        },
    };
    let budget = match doc.get("budget") {
        None => None,
        Some(value) => {
            let obj = value.as_obj().ok_or_else(|| {
                bad(
                    &id,
                    format!(
                        "field \"budget\" must be an object of limit -> integer, got {}",
                        value.type_name()
                    ),
                )
            })?;
            if let Some((key, _)) = obj
                .iter()
                .find(|(k, _)| !BUDGET_FIELDS.contains(&k.as_str()))
            {
                return Err(bad(
                    &id,
                    format!(
                        "unknown budget field \"{key}\" (want \"fm_steps\", \"constraints\" or \"cache_entries\")"
                    ),
                ));
            }
            let limit = |key: &str| -> Result<Option<u64>, RequestError> {
                match value.get(key) {
                    None => Ok(None),
                    Some(v) => match v.as_u64() {
                        Some(n) if n > 0 => Ok(Some(n)),
                        _ => Err(bad(
                            &id,
                            format!(
                                "budget field \"{key}\" must be a positive integer, got {}",
                                v.render()
                            ),
                        )),
                    },
                }
            };
            Some(BudgetSpec {
                fm_steps: limit("fm_steps")?,
                constraints: limit("constraints")?.map(|n| n as usize),
                cache_entries: limit("cache_entries")?.map(|n| n as usize),
            })
        }
    };

    Ok(AnalyzeRequest {
        id,
        workload,
        params,
        cache_param,
        cache_size,
        cache_cap,
        depth,
        parallel,
        timeout_ms,
        budget,
    })
}

fn parse_simulate(
    doc: &Json,
    fields: &[(String, Json)],
    id: Json,
) -> Result<SimulateRequest, RequestError> {
    let analyze = parse_analyze(doc, fields, id.clone(), SIMULATE_FIELDS)?;

    let mut instance: Vec<(String, i128)> = Vec::new();
    if let Some(value) = doc.get("instance") {
        let obj = value.as_obj().ok_or_else(|| {
            bad(
                &id,
                format!(
                    "field \"instance\" must be an object of name -> positive integer, got {}",
                    value.type_name()
                ),
            )
        })?;
        for (name, v) in obj {
            match v.as_i128() {
                Some(n) if n > 0 => instance.push((name.clone(), n)),
                _ => {
                    return Err(bad(
                        &id,
                        format!(
                            "instance parameter \"{name}\" must be a positive integer, got {}",
                            v.render()
                        ),
                    ))
                }
            }
        }
    }

    let mut cache_sizes: Vec<usize> = Vec::new();
    if let Some(value) = doc.get("cache_sizes") {
        let arr = match value {
            Json::Arr(items) => items,
            other => {
                return Err(bad(
                    &id,
                    format!(
                        "field \"cache_sizes\" must be an array of positive integers, got {}",
                        other.type_name()
                    ),
                ))
            }
        };
        for item in arr {
            match item.as_usize() {
                Some(n) if n > 0 => cache_sizes.push(n),
                _ => {
                    return Err(bad(
                        &id,
                        format!(
                            "cache sizes must be positive integers, got {}",
                            item.render()
                        ),
                    ))
                }
            }
        }
    }

    let opt = match doc.get("opt") {
        None => false,
        Some(value) => value.as_bool().ok_or_else(|| {
            bad(
                &id,
                format!("field \"opt\" must be a boolean, got {}", value.type_name()),
            )
        })?,
    };
    let max_trace = match doc.get("max_trace") {
        None => None,
        Some(value) => match value.as_u64() {
            Some(n) if n > 0 => Some(n),
            _ => {
                return Err(bad(
                    &id,
                    format!(
                        "field \"max_trace\" must be a positive integer, got {}",
                        value.render()
                    ),
                ))
            }
        },
    };

    Ok(SimulateRequest {
        analyze,
        instance,
        cache_sizes,
        opt,
        max_trace,
    })
}

/// Per-request service-side measurements, reported in the `server` object
/// of every successful response.
#[derive(Clone, Copy, Debug)]
pub struct ServiceTimings {
    /// Milliseconds the request waited in the queue before a worker picked
    /// it up; 0 for a result-cache hit, which is answered on the
    /// connection thread and never queues.
    pub queue_ms: f64,
    /// Milliseconds of service time. A computed report: the worker's
    /// session checkout + workload preparation + analysis + response
    /// rendering. A result-cache hit: resolving, classifying,
    /// fingerprinting and the lookup on the connection thread, or the
    /// worker's claim when the entry was stored while the request queued.
    pub service_ms: f64,
    /// Milliseconds of the driver run alone (the `AnalysisOutcome`'s
    /// wall-clock; excludes preparation).
    pub analysis_ms: f64,
    /// Whether the request was served by a warm pooled session.
    pub session_warm: bool,
    /// Idle sessions resident in the pool when the response was rendered
    /// (the serving session itself is checked in just after, so it is not
    /// counted).
    pub pool_sessions: usize,
    /// The preflight cost class the scheduler routed this request under
    /// (`"small"` or `"large"`).
    pub cost_class: &'static str,
}

/// Result-cache provenance of a successful response, rendered as the
/// top-level `cached` / `fingerprint` fields.
#[derive(Clone, Debug, Default)]
pub struct CacheInfo {
    /// Whether the report was served from the result cache — a stored
    /// entry (memory or disk) or a coalesced in-flight computation —
    /// rather than computed by this request.
    pub cached: bool,
    /// The request's analysis fingerprint (32 hex digits), present
    /// whenever the request was cacheable. Equal fingerprints promise
    /// byte-identical `report` documents.
    pub fingerprint: Option<String>,
}

/// How far a degraded analysis got before its budget tripped; rendered as
/// the top-level `degraded`/`budget` fields of a successful response.
#[derive(Clone, Copy, Debug)]
pub struct DegradedInfo<'a> {
    /// Which budget tripped: `"deadline"`, `"cancelled"`, `"fm_steps"`,
    /// `"constraints"` or `"cache_entries"`.
    pub tripped: &'a str,
    /// Candidate-sweep jobs fully derived before the interrupt.
    pub sweep_completed: usize,
    /// Total candidate-sweep jobs planned.
    pub sweep_total: usize,
}

impl ServiceTimings {
    /// The `server` object of a successful response.
    fn json(&self) -> Json {
        Json::obj([
            ("queue_ms", Json::from(self.queue_ms)),
            ("service_ms", Json::from(self.service_ms)),
            ("analysis_ms", Json::from(self.analysis_ms)),
            ("session_warm", Json::from(self.session_warm)),
            ("pool_sessions", Json::from(self.pool_sessions)),
            ("cost_class", Json::from(self.cost_class)),
        ])
    }
}

/// Renders a successful `analyze` response. `report_json` is the compact
/// document from `AnalysisOutcome::to_json`, as the result cache stores it;
/// it goes into the line unchanged. `degraded` adds the `degraded: true`
/// marker and the `budget` progress object when a work budget tripped
/// mid-analysis; clean responses are byte-identical to the pre-budget wire
/// format.
pub fn ok_response(
    id: &Json,
    report_json: &str,
    timings: &ServiceTimings,
    degraded: Option<DegradedInfo<'_>>,
    cache: &CacheInfo,
) -> String {
    let head = Json::obj([
        ("id", id.clone()),
        ("status", Json::from("ok")),
        ("cached", Json::from(cache.cached)),
    ])
    .render();
    let mut tail = vec![("server", timings.json())];
    if let Some(fp) = &cache.fingerprint {
        tail.push(("fingerprint", Json::from(fp.as_str())));
    }
    if let Some(d) = degraded {
        tail.push(("degraded", Json::Bool(true)));
        tail.push((
            "budget",
            Json::obj([
                ("tripped", Json::from(d.tripped)),
                ("sweep_completed", Json::from(d.sweep_completed)),
                ("sweep_total", Json::from(d.sweep_total)),
            ]),
        ));
    }
    let tail = Json::obj(tail).render();
    // The one text splice of the program: the stored report bytes go
    // between the envelope's `cached` and `server` fields.
    format!(
        "{},\"report\":{report_json},{}",
        &head[..head.len() - 1],
        &tail[1..]
    )
}

/// Renders an error response from the echoed id, an `ERR_*` code and a
/// message.
pub fn error_response(id: &Json, code: &str, message: &str) -> String {
    error_with(id, code, message, None)
}

/// Renders an [`ERR_OVERLOADED`] response carrying a `retry_after_ms`
/// back-off hint (queue depth × recent mean service time).
pub fn overloaded_response(id: &Json, message: &str, retry_after_ms: u64) -> String {
    error_with(id, ERR_OVERLOADED, message, Some(retry_after_ms))
}

fn error_with(id: &Json, code: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut error = vec![("code", Json::from(code)), ("message", Json::from(message))];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms", Json::from(ms)));
    }
    Json::obj([
        ("id", id.clone()),
        ("status", Json::from("error")),
        ("error", Json::obj(error)),
    ])
    .render()
}

/// Renders the acknowledgement of a `ping` (`flag` = `"pong"`) or a
/// `shutdown` (`flag` = `"draining"`): `{"id":…,"status":"ok","<flag>":true}`.
pub fn ack_response(id: &Json, flag: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::from("ok")),
        (flag, Json::Bool(true)),
    ])
    .render()
}

impl RequestError {
    /// Renders this error as a response line.
    pub fn to_response(&self) -> String {
        error_response(&self.id, self.code, &self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_kernel_request() {
        let req = parse_request(r#"{"id": "r1", "kernel": "gemm"}"#).unwrap();
        let Request::Analyze(req) = req else {
            panic!("want analyze, got {req:?}");
        };
        assert_eq!(req.id.render(), "\"r1\"");
        assert_eq!(req.workload, WorkloadSpec::Kernel("gemm".into()));
        assert!(!req.parallel);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn parses_every_knob() {
        let req = parse_request(
            r#"{"id": 7, "op": "analyze", "source": "parameter N;", "params": {"N": 100},
                "cache_param": "Cap", "cache_size": 512, "cache_cap": 1024, "depth": 1,
                "parallel": true, "timeout_ms": 5000,
                "budget": {"fm_steps": 100000, "constraints": 4096, "cache_entries": 65536}}"#,
        )
        .unwrap();
        let Request::Analyze(req) = req else {
            panic!("want analyze");
        };
        assert_eq!(req.id.render(), "7");
        assert_eq!(req.workload, WorkloadSpec::Source("parameter N;".into()));
        assert_eq!(req.params, vec![("N".to_string(), 100)]);
        assert_eq!(req.cache_param.as_deref(), Some("Cap"));
        assert_eq!(req.cache_size, Some(512));
        assert_eq!(req.cache_cap, Some(1024));
        assert_eq!(req.depth, Some(1));
        assert!(req.parallel);
        assert_eq!(req.timeout_ms, Some(5000));
        assert_eq!(
            req.budget,
            Some(BudgetSpec {
                fm_steps: Some(100_000),
                constraints: Some(4096),
                cache_entries: Some(65_536),
            })
        );
    }

    #[test]
    fn parses_a_partial_budget() {
        let req =
            parse_request(r#"{"id": 1, "kernel": "gemm", "budget": {"fm_steps": 9}}"#).unwrap();
        let Request::Analyze(req) = req else {
            panic!("want analyze");
        };
        assert_eq!(
            req.budget,
            Some(BudgetSpec {
                fm_steps: Some(9),
                ..BudgetSpec::default()
            })
        );
    }

    #[test]
    fn parses_a_simulate_request() {
        let req = parse_request(
            r#"{"id": "s1", "op": "simulate", "kernel": "gemm",
                "instance": {"Ni": 12, "Nj": 10, "Nk": 8},
                "cache_sizes": [64, 1024], "opt": true, "max_trace": 50000}"#,
        )
        .unwrap();
        let Request::Simulate(req) = req else {
            panic!("want simulate");
        };
        assert_eq!(req.analyze.workload, WorkloadSpec::Kernel("gemm".into()));
        assert_eq!(
            req.instance,
            vec![
                ("Ni".to_string(), 12),
                ("Nj".to_string(), 10),
                ("Nk".to_string(), 8)
            ]
        );
        assert_eq!(req.cache_sizes, vec![64, 1024]);
        assert!(req.opt);
        assert_eq!(req.max_trace, Some(50_000));

        // All the simulation knobs are optional.
        let req = parse_request(r#"{"op": "simulate", "kernel": "gemm"}"#).unwrap();
        let Request::Simulate(req) = req else {
            panic!("want simulate");
        };
        assert!(req.instance.is_empty());
        assert!(req.cache_sizes.is_empty());
        assert!(!req.opt);
        assert_eq!(req.max_trace, None);
    }

    #[test]
    fn rejects_malformed_simulate_requests() {
        let cases = [
            (
                r#"{"op": "simulate", "kernel": "a", "instance": [1]}"#,
                "must be an object",
            ),
            (
                r#"{"op": "simulate", "kernel": "a", "instance": {"N": 0}}"#,
                "positive integer",
            ),
            (
                r#"{"op": "simulate", "kernel": "a", "cache_sizes": 64}"#,
                "must be an array",
            ),
            (
                r#"{"op": "simulate", "kernel": "a", "cache_sizes": [64, 0]}"#,
                "positive integers",
            ),
            (
                r#"{"op": "simulate", "kernel": "a", "opt": 1}"#,
                "must be a boolean",
            ),
            (
                r#"{"op": "simulate", "kernel": "a", "max_trace": -4}"#,
                "positive integer",
            ),
            // Simulate-only fields stay rejected on plain analyze.
            (
                r#"{"kernel": "a", "cache_sizes": [64]}"#,
                "unknown field \"cache_sizes\"",
            ),
            (
                r#"{"kernel": "a", "instance": {"N": 4}}"#,
                "unknown field \"instance\"",
            ),
        ];
        for (line, want) in cases {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, ERR_BAD_REQUEST, "{line}");
            assert!(e.message.contains(want), "{line}: {}", e.message);
        }
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(
            parse_request(r#"{"op": "ping"}"#).unwrap(),
            Request::Ping(Json::Null)
        );
        assert_eq!(
            parse_request(r#"{"op": "stats", "id": "s"}"#).unwrap(),
            Request::Stats(Json::Str("s".into()))
        );
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown(Json::Null)
        );
        // Control ops reject analyze-only fields.
        let e = parse_request(r#"{"op": "ping", "kernel": "gemm"}"#).unwrap_err();
        assert!(e.message.contains("not valid for op"), "{}", e.message);
    }

    #[test]
    fn rejects_bad_requests_with_the_echoed_id() {
        let cases = [
            ("not json", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"id": "x"}"#, "no workload"),
            (
                r#"{"id": "x", "kernel": "a", "path": "b"}"#,
                "ambiguous workload",
            ),
            (
                r#"{"id": "x", "kernel": "a", "frobnicate": 1}"#,
                "unknown field",
            ),
            (r#"{"id": "x", "kernel": 3}"#, "must be a string"),
            (
                r#"{"id": "x", "kernel": "a", "params": {"N": "big"}}"#,
                "must be an integer",
            ),
            (
                r#"{"id": "x", "kernel": "a", "timeout_ms": 0}"#,
                "positive integer",
            ),
            (r#"{"id": "x", "kernel": "a", "depth": -1}"#, "non-negative"),
            (
                r#"{"id": "x", "kernel": "a", "budget": 7}"#,
                "must be an object",
            ),
            (
                r#"{"id": "x", "kernel": "a", "budget": {"fm_stepz": 1}}"#,
                "unknown budget field",
            ),
            (
                r#"{"id": "x", "kernel": "a", "budget": {"constraints": 0}}"#,
                "positive integer",
            ),
            (r#"{"id": "x", "op": "frobnicate"}"#, "unknown op"),
        ];
        for (line, want) in cases {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, ERR_BAD_REQUEST, "{line}");
            assert!(e.message.contains(want), "{line}: {}", e.message);
        }
        let e = parse_request(r#"{"id": "x"}"#).unwrap_err();
        assert_eq!(e.id, Json::from("x"), "the id is echoed even on errors");
    }

    #[test]
    fn responses_are_single_well_formed_lines() {
        let timings = ServiceTimings {
            queue_ms: 0.5,
            service_ms: 12.25,
            analysis_ms: 11.0,
            session_warm: true,
            pool_sessions: 3,
            cost_class: "small",
        };
        let ok = ok_response(
            &Json::from("r1"),
            r#"{"schema_version":1}"#,
            &timings,
            None,
            &CacheInfo::default(),
        );
        assert!(!ok.contains('\n'));
        let doc = crate::json::parse(&ok).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("fingerprint"), None, "uncacheable: no fingerprint");
        assert_eq!(
            doc.get("report").unwrap().get("schema_version"),
            Some(&Json::Int(1))
        );
        assert_eq!(
            doc.get("server").unwrap().get("session_warm"),
            Some(&Json::Bool(true))
        );
        assert_eq!(doc.get("degraded"), None, "clean responses stay unmarked");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["id", "status", "cached", "report", "server"]);

        let err = error_response(&Json::Null, ERR_OVERLOADED, "queue full (64 requests)");
        assert!(!err.contains('\n'));
        let doc = crate::json::parse(&err).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some(ERR_OVERLOADED)
        );
    }

    #[test]
    fn degraded_responses_carry_the_budget_progress() {
        let timings = ServiceTimings {
            queue_ms: 0.5,
            service_ms: 12.25,
            analysis_ms: 11.0,
            session_warm: false,
            pool_sessions: 0,
            cost_class: "large",
        };
        let degraded = DegradedInfo {
            tripped: "fm_steps",
            sweep_completed: 3,
            sweep_total: 8,
        };
        let line = ok_response(
            &Json::Int(1),
            r#"{"schema_version":1}"#,
            &timings,
            Some(degraded),
            &CacheInfo::default(),
        );
        assert!(!line.contains('\n'));
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("degraded"), Some(&Json::Bool(true)));
        let budget = doc.get("budget").unwrap();
        assert_eq!(budget.get("tripped").unwrap().as_str(), Some("fm_steps"));
        assert_eq!(budget.get("sweep_completed"), Some(&Json::Int(3)));
        assert_eq!(budget.get("sweep_total"), Some(&Json::Int(8)));
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["id", "status", "cached", "report", "server", "degraded", "budget"]
        );
    }

    #[test]
    fn overloaded_responses_carry_a_retry_hint() {
        let line = overloaded_response(&Json::from("r9"), "request queue is full (4 queued)", 850);
        assert!(!line.contains('\n'));
        let doc = crate::json::parse(&line).unwrap();
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some(ERR_OVERLOADED));
        assert_eq!(error.get("retry_after_ms"), Some(&Json::Int(850)));
    }
}
