//! The JSONL wire protocol: one JSON object per line, both directions.
//!
//! Requests (client → server), all with a client-chosen `id` echoed on
//! every reply:
//!
//! ```json
//! {"id":"r1","cmd":"ping"}
//! {"id":"r2","cmd":"stats"}
//! {"id":"r3","cmd":"shutdown"}
//! {"id":"r4","cmd":"run","lane":"interactive","specs":[
//!     {"bench":"EP","class":"test","nodes":2,"gears":1},
//!     {"bench":"CG","nodes":2,"gears":[1,4],"fault_seed":7}]}
//! ```
//!
//! Responses (server → client):
//!
//! * per spec — `{"id","seq","ok":true,"outcome","result":{...}}`,
//!   where `result` is a pure function of the spec (no host timing, no
//!   request identity), so two services answering the same spec emit
//!   byte-identical `result` objects;
//! * batch completion — `{"id","done":true,"ok":true,"manifest":{...}}`;
//! * errors — `{"id","ok":false,"error":"..."}` (`id` is `null` when
//!   the frame was too broken to carry one). A protocol error poisons
//!   only the offending frame, never the connection or the server loop.
//!
//! Parsing is strict: unknown fields, wrong types, out-of-range gears,
//! unsupported node counts, and oversized batches are all rejected with
//! a structured error naming the offending field. Frames longer than
//! [`crate::MAX_FRAME_BYTES`] never reach the parser: the session skips
//! them.

use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_policy::PolicySpec;
use psc_runner::{GearSelection, RunOutcome, RunResult, RunSpec};
use serde::Value;

/// Scheduling lane for a `run` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Low-latency lane: popped before any batch work.
    Interactive,
    /// Throughput lane: yields to interactive work.
    Batch,
}

impl Lane {
    /// Wire / metrics-label spelling.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<Lane> {
        match s {
            "interactive" => Some(Lane::Interactive),
            "batch" => Some(Lane::Batch),
            _ => None,
        }
    }
}

/// A validated request frame.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen request id, echoed on every reply.
    pub id: String,
    /// What the client asked for.
    pub cmd: Command,
}

/// The command carried by a [`Request`].
#[derive(Debug)]
pub enum Command {
    /// Liveness probe; answered inline.
    Ping,
    /// Cumulative per-lane service statistics; answered inline.
    Stats,
    /// Stop accepting work and drain; answered inline, then the
    /// session ends.
    Shutdown,
    /// A batch of specs to simulate on the given lane.
    Run {
        /// Scheduling lane (default batch).
        lane: Lane,
        /// The specs, in client order (`seq` indexes into this).
        specs: Vec<RunSpec>,
    },
}

/// A protocol-level rejection: the frame (or a field in it) was
/// invalid. Carries the request id when one could be recovered.
#[derive(Debug)]
pub struct ProtoError {
    /// The offending frame's id, if the frame carried a usable one.
    pub id: Option<String>,
    /// Human-readable rejection reason, naming the offending field.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<&str>, message: impl Into<String>) -> Self {
        ProtoError { id: id.map(str::to_owned), message: message.into() }
    }
}

/// Limits the parser enforces per frame.
#[derive(Debug, Clone, Copy)]
pub struct ProtoLimits {
    /// Highest valid gear index (1-based), from the engine's cluster.
    pub gear_count: usize,
    /// Maximum specs per `run` frame.
    pub max_batch: usize,
}

fn check_fields(
    id: Option<&str>,
    entries: &[(String, Value)],
    allowed: &[&str],
    what: &str,
) -> Result<(), ProtoError> {
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(ProtoError::new(
                id,
                format!("unknown field {k:?} in {what} (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().map(|n| n as usize)
}

/// Parse and validate one request line.
///
/// Blank lines are the caller's business (the server skips them); this
/// function expects a non-empty frame.
pub fn parse_request(line: &str, limits: ProtoLimits) -> Result<Request, ProtoError> {
    let v = serde::json::parse(line)
        .map_err(|e| ProtoError::new(None, format!("malformed frame: {e}")))?;
    let Value::Map(entries) = &v else {
        return Err(ProtoError::new(None, format!("frame must be an object, got {}", v.kind())));
    };

    // Recover the id first so even field-level errors can carry it.
    let id = match v.get("id") {
        Some(Value::Str(s)) => Some(s.as_str()),
        Some(other) => {
            return Err(ProtoError::new(
                None,
                format!("\"id\" must be a string, got {}", other.kind()),
            ))
        }
        None => None,
    };
    check_fields(id, entries, &["id", "cmd", "lane", "specs"], "request")?;
    let Some(id) = id else {
        return Err(ProtoError::new(None, "missing required field \"id\""));
    };

    let cmd = match v.get("cmd").and_then(Value::as_str) {
        Some(c) => c,
        None => return Err(ProtoError::new(Some(id), "missing or non-string \"cmd\"")),
    };
    let reject_run_fields = |cmd: &str| -> Result<(), ProtoError> {
        for field in ["lane", "specs"] {
            if v.get(field).is_some() {
                return Err(ProtoError::new(
                    Some(id),
                    format!("field {field:?} is only valid with \"cmd\":\"run\", not {cmd:?}"),
                ));
            }
        }
        Ok(())
    };
    match cmd {
        "ping" => {
            reject_run_fields("ping")?;
            Ok(Request { id: id.to_owned(), cmd: Command::Ping })
        }
        "stats" => {
            reject_run_fields("stats")?;
            Ok(Request { id: id.to_owned(), cmd: Command::Stats })
        }
        "shutdown" => {
            reject_run_fields("shutdown")?;
            Ok(Request { id: id.to_owned(), cmd: Command::Shutdown })
        }
        "run" => {
            let lane = match v.get("lane") {
                None => Lane::Batch,
                Some(Value::Str(s)) => Lane::parse(s).ok_or_else(|| {
                    ProtoError::new(Some(id), format!("unknown lane {s:?} (interactive or batch)"))
                })?,
                Some(other) => {
                    return Err(ProtoError::new(
                        Some(id),
                        format!("\"lane\" must be a string, got {}", other.kind()),
                    ))
                }
            };
            let specs = match v.get("specs") {
                Some(Value::Seq(items)) if !items.is_empty() => items,
                Some(Value::Seq(_)) => {
                    return Err(ProtoError::new(Some(id), "\"specs\" must not be empty"))
                }
                Some(other) => {
                    return Err(ProtoError::new(
                        Some(id),
                        format!("\"specs\" must be an array, got {}", other.kind()),
                    ))
                }
                None => return Err(ProtoError::new(Some(id), "run request needs \"specs\"")),
            };
            if specs.len() > limits.max_batch {
                return Err(ProtoError::new(
                    Some(id),
                    format!(
                        "oversized batch: {} specs exceeds the limit of {}",
                        specs.len(),
                        limits.max_batch
                    ),
                ));
            }
            let specs = specs
                .iter()
                .enumerate()
                .map(|(i, s)| parse_spec(Some(id), i, s, limits))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request { id: id.to_owned(), cmd: Command::Run { lane, specs } })
        }
        other => Err(ProtoError::new(
            Some(id),
            format!("unknown cmd {other:?} (run, stats, ping, shutdown)"),
        )),
    }
}

fn parse_spec(
    id: Option<&str>,
    index: usize,
    v: &Value,
    limits: ProtoLimits,
) -> Result<RunSpec, ProtoError> {
    let at = |msg: String| ProtoError::new(id, format!("specs[{index}]: {msg}"));
    let Value::Map(entries) = v else {
        return Err(at(format!("must be an object, got {}", v.kind())));
    };
    check_fields(
        id,
        entries,
        &["bench", "class", "nodes", "gears", "fault_seed", "faults", "policy"],
        &format!("specs[{index}]"),
    )?;

    let bench = match v.get("bench").and_then(Value::as_str) {
        Some(name) => {
            Benchmark::parse(name).ok_or_else(|| at(format!("unknown benchmark {name:?}")))?
        }
        None => return Err(at("missing or non-string \"bench\"".into())),
    };
    let class = match v.get("class") {
        None => ProblemClass::Test,
        Some(Value::Str(s)) => match s.as_str() {
            "test" => ProblemClass::Test,
            "b" | "B" => ProblemClass::B,
            other => return Err(at(format!("unknown class {other:?} (test or B)"))),
        },
        Some(other) => return Err(at(format!("\"class\" must be a string, got {}", other.kind()))),
    };
    let nodes = match v.get("nodes") {
        None => 1,
        Some(n) => as_usize(n)
            .filter(|&n| n >= 1)
            .ok_or_else(|| at("\"nodes\" must be a positive integer".into()))?,
    };
    if !bench.supports_nodes(nodes) {
        return Err(at(format!("{} does not support {nodes} node(s)", bench.name())));
    }
    let gear_ok = |g: usize| (1..=limits.gear_count).contains(&g);
    let gears = match v.get("gears") {
        None => GearSelection::Uniform(1),
        Some(g) => match g {
            Value::U64(_) | Value::I64(_) => {
                let g = as_usize(g)
                    .filter(|&g| gear_ok(g))
                    .ok_or_else(|| at(format!("gear must be in 1..={}", limits.gear_count)))?;
                GearSelection::Uniform(g)
            }
            Value::Seq(items) => {
                if items.len() != nodes {
                    return Err(at(format!(
                        "per-rank \"gears\" needs {nodes} entries, got {}",
                        items.len()
                    )));
                }
                let per_rank = items
                    .iter()
                    .map(|g| as_usize(g).filter(|&g| gear_ok(g)))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| {
                        at(format!("every gear must be in 1..={}", limits.gear_count))
                    })?;
                GearSelection::PerRank(per_rank)
            }
            other => {
                return Err(at(format!(
                    "\"gears\" must be an integer or array, got {}",
                    other.kind()
                )))
            }
        },
    };
    let faults = match (v.get("fault_seed"), v.get("faults")) {
        (Some(_), Some(_)) => {
            return Err(at("\"fault_seed\" and \"faults\" are mutually exclusive".into()))
        }
        (Some(seed), None) => {
            let seed = seed
                .as_u64()
                .ok_or_else(|| at("\"fault_seed\" must be a non-negative integer".into()))?;
            Some(FaultPlan::noise(seed, DEFAULT_NOISE_LEVEL))
        }
        (None, Some(plan)) => {
            let plan = FaultPlan::from_json(&serde::json::to_string(plan))
                .map_err(|e| at(format!("invalid \"faults\": {e}")))?;
            plan.validate().map_err(|e| at(format!("invalid \"faults\": {e}")))?;
            Some(plan)
        }
        (None, None) => None,
    };
    let policy = match v.get("policy") {
        None => None,
        // A string carries the CLI shorthand ("static:3", "oracle:0=2")
        // or a JSON spec as text; an object is the JSON spec inline.
        Some(Value::Str(text)) => {
            Some(PolicySpec::parse(text).map_err(|e| at(format!("invalid \"policy\": {e}")))?)
        }
        Some(obj @ Value::Map(_)) => Some(
            PolicySpec::from_json(&serde::json::to_string(obj))
                .map_err(|e| at(format!("invalid \"policy\": {e}")))?,
        ),
        Some(other) => {
            return Err(at(format!("\"policy\" must be a string or object, got {}", other.kind())))
        }
    };
    if let Some(p) = &policy {
        p.validate_gears(limits.gear_count).map_err(|e| at(format!("invalid \"policy\": {e}")))?;
    }

    let mut spec = RunSpec::uniform(bench, class, nodes, 1);
    spec.gears = gears;
    spec.faults = faults;
    spec.policy = policy;
    Ok(spec)
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_owned())
}

/// The class's wire spelling (the inverse of the parser's mapping).
fn class_label(class: ProblemClass) -> &'static str {
    match class {
        ProblemClass::Test => "test",
        ProblemClass::B => "B",
    }
}

/// The spec's deterministic result object — a pure function of
/// `(spec, key, run)`, shared by the server and the replay verifier so
/// "byte-identical to direct Engine execution" is checked at the exact
/// bytes the client received.
pub fn result_value(spec: &RunSpec, key: u64, run: &RunResult) -> Value {
    let mut fields = vec![
        ("bench", s(spec.bench.name())),
        ("class", s(class_label(spec.class))),
        ("nodes", Value::U64(spec.nodes as u64)),
        (
            "gears",
            Value::Seq(spec.resolved_gears().into_iter().map(|g| Value::U64(g as u64)).collect()),
        ),
        ("key", s(&format!("{key:016x}"))),
        ("time_s", Value::F64(run.time_s)),
        ("energy_j", Value::F64(run.energy_j)),
        ("measured_energy_j", Value::F64(run.measured_energy_j)),
    ];
    // Only policy-driven results carry the field: policy-free result
    // objects keep their exact historical bytes.
    if let Some(policy) = &spec.policy {
        fields.push(("policy", s(&policy.shorthand())));
    }
    obj(fields)
}

/// Per-spec success line.
pub fn result_line(id: &str, seq: usize, outcome: RunOutcome, result: &Value) -> String {
    serde::json::to_string(&obj(vec![
        ("id", s(id)),
        ("seq", Value::U64(seq as u64)),
        ("ok", Value::Bool(true)),
        ("outcome", s(outcome.label())),
        ("result", result.clone()),
    ]))
}

/// Batch-completion line with the request's dedup manifest.
pub fn done_line(
    id: &str,
    lane: Lane,
    specs: usize,
    executed: u64,
    cache_hits: u64,
    inflight_joins: u64,
) -> String {
    serde::json::to_string(&obj(vec![
        ("id", s(id)),
        ("done", Value::Bool(true)),
        ("ok", Value::Bool(true)),
        (
            "manifest",
            obj(vec![
                ("lane", s(lane.label())),
                ("specs", Value::U64(specs as u64)),
                ("executed", Value::U64(executed)),
                ("cache_hits", Value::U64(cache_hits)),
                ("inflight_joins", Value::U64(inflight_joins)),
            ]),
        ),
    ]))
}

/// Structured error line. `id` is `null` when the frame was too broken
/// to carry one.
pub fn error_line(id: Option<&str>, message: &str) -> String {
    serde::json::to_string(&obj(vec![
        ("id", id.map_or(Value::Null, s)),
        ("ok", Value::Bool(false)),
        ("error", s(message)),
    ]))
}

/// `ping` reply.
pub fn pong_line(id: &str) -> String {
    serde::json::to_string(&obj(vec![
        ("id", s(id)),
        ("ok", Value::Bool(true)),
        ("pong", Value::Bool(true)),
    ]))
}

/// `shutdown` acknowledgement.
pub fn bye_line(id: &str) -> String {
    serde::json::to_string(&obj(vec![
        ("id", s(id)),
        ("ok", Value::Bool(true)),
        ("bye", Value::Bool(true)),
    ]))
}

/// `stats` reply around a pre-built stats object.
pub fn stats_line(id: &str, stats: Value) -> String {
    serde::json::to_string(&obj(vec![("id", s(id)), ("ok", Value::Bool(true)), ("stats", stats)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: ProtoLimits = ProtoLimits { gear_count: 6, max_batch: 8 };

    #[test]
    fn run_request_round_trips() {
        let r = parse_request(
            r#"{"id":"a","cmd":"run","lane":"interactive","specs":[{"bench":"EP","nodes":2,"gears":[1,4]}]}"#,
            LIMITS,
        )
        .unwrap();
        assert_eq!(r.id, "a");
        let Command::Run { lane, specs } = r.cmd else { panic!("not a run") };
        assert_eq!(lane, Lane::Interactive);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].resolved_gears(), vec![1, 4]);
    }

    #[test]
    fn defaults_fill_in() {
        let r =
            parse_request(r#"{"id":"a","cmd":"run","specs":[{"bench":"cg"}]}"#, LIMITS).unwrap();
        let Command::Run { lane, specs } = r.cmd else { panic!("not a run") };
        assert_eq!(lane, Lane::Batch);
        assert_eq!(specs[0].bench, Benchmark::Cg);
        assert_eq!(specs[0].class, ProblemClass::Test);
        assert_eq!(specs[0].nodes, 1);
        assert_eq!(specs[0].resolved_gears(), vec![1]);
        assert!(specs[0].faults.is_none());
    }

    #[test]
    fn strictness_rejects_bad_frames() {
        for (line, needle) in [
            ("{]", "malformed frame"),
            ("[]", "must be an object"),
            (r#"{"cmd":"ping"}"#, "missing required field \"id\""),
            (r#"{"id":"a","cmd":"ping","extra":1}"#, "unknown field \"extra\""),
            (r#"{"id":"a","cmd":"fly"}"#, "unknown cmd"),
            (r#"{"id":"a","cmd":"ping","specs":[]}"#, "only valid with \"cmd\":\"run\""),
            (r#"{"id":"a","cmd":"run","specs":[]}"#, "must not be empty"),
            (r#"{"id":"a","cmd":"run","lane":"bulk","specs":[{"bench":"EP"}]}"#, "unknown lane"),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","color":"red"}]}"#,
                "unknown field \"color\"",
            ),
            (r#"{"id":"a","cmd":"run","specs":[{"bench":"XX"}]}"#, "unknown benchmark"),
            (r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","nodes":3}]}"#, "does not support 3"),
            (r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","gears":9}]}"#, "1..=6"),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","nodes":2,"gears":[1]}]}"#,
                "needs 2 entries",
            ),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","fault_seed":1,"faults":{}}]}"#,
                "mutually exclusive",
            ),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","policy":"nonesuch"}]}"#,
                "unknown policy",
            ),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","policy":"static:9"}]}"#,
                "out of range 1..=6",
            ),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","policy":7}]}"#,
                "must be a string or object",
            ),
            (
                r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","policy":"oracle:5=2,5=3"}]}"#,
                "strictly increasing",
            ),
        ] {
            let err = parse_request(line, LIMITS).expect_err(line);
            assert!(err.message.contains(needle), "{line}: {} !~ {needle}", err.message);
        }
    }

    #[test]
    fn policy_field_parses_shorthand_and_object() {
        let r = parse_request(
            r#"{"id":"a","cmd":"run","specs":[{"bench":"EP","policy":"static:3"}]}"#,
            LIMITS,
        )
        .unwrap();
        let Command::Run { specs, .. } = r.cmd else { panic!("not a run") };
        assert_eq!(specs[0].policy, Some(PolicySpec::Static { gear: 3 }));

        let json = PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 }.to_json();
        let line =
            format!(r#"{{"id":"a","cmd":"run","specs":[{{"bench":"EP","policy":{json}}}]}}"#);
        let r = parse_request(&line, LIMITS).unwrap();
        let Command::Run { specs, .. } = r.cmd else { panic!("not a run") };
        assert_eq!(specs[0].policy, Some(PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 }));
    }

    #[test]
    fn oversized_batch_is_rejected_with_id() {
        let specs: Vec<String> = (0..9).map(|_| r#"{"bench":"EP"}"#.to_owned()).collect();
        let line = format!(r#"{{"id":"big","cmd":"run","specs":[{}]}}"#, specs.join(","));
        let err = parse_request(&line, LIMITS).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("big"));
        assert!(err.message.contains("oversized batch: 9 specs exceeds the limit of 8"));
    }

    #[test]
    fn error_lines_are_stable_bytes() {
        assert_eq!(
            error_line(None, "malformed frame: oops"),
            r#"{"id":null,"ok":false,"error":"malformed frame: oops"}"#
        );
        assert_eq!(error_line(Some("r9"), "bad"), r#"{"id":"r9","ok":false,"error":"bad"}"#);
        assert_eq!(pong_line("p"), r#"{"id":"p","ok":true,"pong":true}"#);
    }
}
