//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests name a campaign verb plus optional per-request overrides:
//!
//! ```json
//! {"id":1,"verb":"quickstart","tenant":"alice","seed":42,
//!  "deadline_ms":5000,"config":{"samples_per_level":120}}
//! ```
//!
//! Responses echo the request id and report a status:
//!
//! * `ok` — `result` holds the (deterministic) campaign result and
//!   `board`/`seed`/`elapsed_ms` say where and how it ran.
//! * `error` — the verb ran (or was rejected) with a typed error:
//!   `error_kind` ∈ {`bad_request`, `unknown_verb`, `bad_config`,
//!   `invalid_parameter`, `attack_failed`, `internal_error`}.
//! * `shed` — admission control refused the request without running it:
//!   `error_kind` ∈ {`rate_limited`, `quota_exceeded`, `queue_full`,
//!   `shutting_down`} (the 429-style backpressure responses). A
//!   connection past the server's cap reads one `shed` line of kind
//!   `too_many_connections` (id −1) before the server closes it.
//! * `timeout` — the request's deadline expired before a board picked it
//!   up (`error_kind` = `deadline_exceeded`).
//!
//! Only the `result` field participates in the determinism contract:
//! `board`, `elapsed_ms`, and `trace` depend on scheduling, `result`
//! never does. `trace` carries the hex trace id of the request's span
//! tree (see `obs::trace`), answering "which board/batch/phase served
//! this request" without touching the response payload.
//!
//! Besides the campaign verbs, the server answers two control verbs
//! inline: `shutdown` (graceful drain) and `stats` (live telemetry
//! snapshot — metrics registry, percentiles, per-tenant breakdowns, and
//! optionally a flight-recorder dump).

use sim_rt::json;
use sim_rt::ser::Value;

/// Default tenant for requests that do not name one.
pub const ANON_TENANT: &str = "anon";

/// Seeds are u64 but JSON integers are i64, so seeds above `i64::MAX`
/// travel as their two's-complement (negative) bit pattern. This decodes
/// either form back to the original u64.
fn seed_from(v: &Value) -> Option<u64> {
    v.as_u64().or_else(|| v.as_i64().map(|i| i as u64))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: i64,
    /// Quota/rate-limit bucket this request draws from.
    pub tenant: String,
    /// Campaign verb (see [`crate::exec::VERBS`]) or `shutdown`.
    pub verb: String,
    /// Pinned experiment seed; unpinned requests adopt the farm default.
    pub seed: Option<u64>,
    /// Relative deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// Per-verb config overrides (`Value::Null` when absent).
    pub config: Value,
}

impl Request {
    /// A minimal request for `verb` with no overrides.
    pub fn new(id: i64, verb: impl Into<String>) -> Request {
        Request {
            id,
            tenant: ANON_TENANT.to_string(),
            verb: verb.into(),
            seed: None,
            deadline_ms: None,
            config: Value::Null,
        }
    }

    /// Renders the request as one JSON line (trailing `\n` included).
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![
            ("id".into(), Value::Int(self.id)),
            ("verb".into(), Value::Str(self.verb.clone())),
        ];
        if self.tenant != ANON_TENANT {
            fields.push(("tenant".into(), Value::Str(self.tenant.clone())));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Value::Int(seed as i64)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Value::Int(ms as i64)));
        }
        if self.config != Value::Null {
            fields.push(("config".into(), self.config.clone()));
        }
        let mut line = Value::Object(fields).to_json();
        line.push('\n');
        line
    }
}

/// Parses one request line. Unknown top-level keys are rejected so client
/// typos surface as errors instead of silently-ignored overrides.
///
/// # Errors
///
/// A human-readable message naming the malformed field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let fields = value.as_object().ok_or("request must be a JSON object")?;

    let mut req = Request::new(0, "");
    let mut saw_id = false;
    for (key, v) in fields {
        match key.as_str() {
            "id" => {
                req.id = v.as_i64().ok_or("`id` must be an integer")?;
                saw_id = true;
            }
            "verb" => {
                req.verb = v.as_str().ok_or("`verb` must be a string")?.to_string();
            }
            "tenant" => {
                req.tenant = v.as_str().ok_or("`tenant` must be a string")?.to_string();
            }
            "seed" => {
                req.seed = Some(seed_from(v).ok_or("`seed` must be an integer")?);
            }
            "deadline_ms" => {
                req.deadline_ms = Some(
                    v.as_u64()
                        .ok_or("`deadline_ms` must be a non-negative integer")?,
                );
            }
            "config" => {
                if v.as_object().is_none() {
                    return Err("`config` must be an object".into());
                }
                req.config = v.clone();
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    if !saw_id {
        return Err("request is missing `id`".into());
    }
    if req.verb.is_empty() {
        return Err("request is missing `verb`".into());
    }
    Ok(req)
}

/// A server response (one JSON line on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id (`-1` for unparseable requests).
    pub id: i64,
    /// `ok`, `error`, `shed`, or `timeout`.
    pub status: String,
    /// Echo of the request verb.
    pub verb: String,
    /// Board the request ran on (`ok` only).
    pub board: Option<u64>,
    /// Effective experiment seed (`ok` only) — replaying this seed
    /// serially reproduces `result` byte-for-byte.
    pub seed: Option<u64>,
    /// Admission-to-response latency (scheduling-dependent; excluded from
    /// the determinism contract).
    pub elapsed_ms: Option<f64>,
    /// Campaign result (`ok` only).
    pub result: Option<Value>,
    /// Machine-readable error class (non-`ok` only).
    pub error_kind: Option<String>,
    /// Human-readable error message (non-`ok` only).
    pub error: Option<String>,
    /// Hex trace id of the request's span tree (admitted requests only).
    /// Scheduling metadata like `board` and `elapsed_ms` — excluded from
    /// the determinism contract.
    pub trace: Option<String>,
    /// `Some(true)` when the result was served from the content-addressed
    /// store instead of a fresh execution. Delivery metadata like
    /// `board` — the `result` bytes are identical either way, which is
    /// exactly what makes the store sound.
    pub cached: Option<bool>,
}

impl Response {
    /// A successful response carrying `result`.
    pub fn ok(id: i64, verb: &str, board: u64, seed: u64, elapsed_ms: f64, result: Value) -> Self {
        Response {
            id,
            status: "ok".into(),
            verb: verb.to_string(),
            board: Some(board),
            seed: Some(seed),
            elapsed_ms: Some(elapsed_ms),
            result: Some(result),
            error_kind: None,
            error: None,
            trace: None,
            cached: None,
        }
    }

    /// A non-`ok` response of the given status/kind.
    pub fn failure(id: i64, verb: &str, status: &str, kind: &str, message: String) -> Self {
        Response {
            id,
            status: status.to_string(),
            verb: verb.to_string(),
            board: None,
            seed: None,
            elapsed_ms: None,
            result: None,
            error_kind: Some(kind.to_string()),
            error: Some(message),
            trace: None,
            cached: None,
        }
    }

    /// Whether the request was served (`status == "ok"`).
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Renders the response as one JSON line (trailing `\n` included).
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![
            ("id".into(), Value::Int(self.id)),
            ("status".into(), Value::Str(self.status.clone())),
            ("verb".into(), Value::Str(self.verb.clone())),
        ];
        if let Some(board) = self.board {
            fields.push(("board".into(), Value::Int(board as i64)));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Value::Int(seed as i64)));
        }
        if let Some(ms) = self.elapsed_ms {
            fields.push(("elapsed_ms".into(), Value::Float(ms)));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace".into(), Value::Str(trace.clone())));
        }
        if let Some(cached) = self.cached {
            fields.push(("cached".into(), Value::Bool(cached)));
        }
        if let Some(result) = &self.result {
            fields.push(("result".into(), result.clone()));
        }
        if let Some(kind) = &self.error_kind {
            fields.push(("error_kind".into(), Value::Str(kind.clone())));
        }
        if let Some(msg) = &self.error {
            fields.push(("error".into(), Value::Str(msg.clone())));
        }
        let mut line = Value::Object(fields).to_json();
        line.push('\n');
        line
    }
}

/// Parses one response line (the client half of the protocol).
///
/// # Errors
///
/// A human-readable message naming the malformed field.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let fields = value.as_object().ok_or("response must be a JSON object")?;

    let mut resp = Response {
        id: 0,
        status: String::new(),
        verb: String::new(),
        board: None,
        seed: None,
        elapsed_ms: None,
        result: None,
        error_kind: None,
        error: None,
        trace: None,
        cached: None,
    };
    for (key, v) in fields {
        match key.as_str() {
            "id" => resp.id = v.as_i64().ok_or("`id` must be an integer")?,
            "status" => {
                resp.status = v.as_str().ok_or("`status` must be a string")?.to_string();
            }
            "verb" => resp.verb = v.as_str().ok_or("`verb` must be a string")?.to_string(),
            "board" => resp.board = Some(v.as_u64().ok_or("`board` must be an integer")?),
            "seed" => resp.seed = Some(seed_from(v).ok_or("`seed` must be an integer")?),
            "elapsed_ms" => {
                resp.elapsed_ms = Some(v.as_f64().ok_or("`elapsed_ms` must be a number")?);
            }
            "trace" => {
                resp.trace = Some(v.as_str().ok_or("`trace` must be a string")?.to_string());
            }
            "cached" => {
                resp.cached = Some(v.as_bool().ok_or("`cached` must be a bool")?);
            }
            "result" => resp.result = Some(v.clone()),
            "error_kind" => {
                resp.error_kind = Some(
                    v.as_str()
                        .ok_or("`error_kind` must be a string")?
                        .to_string(),
                );
            }
            "error" => {
                resp.error = Some(v.as_str().ok_or("`error` must be a string")?.to_string());
            }
            other => return Err(format!("unknown response field `{other}`")),
        }
    }
    if resp.status.is_empty() {
        return Err("response is missing `status`".into());
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = Request::new(7, "characterize");
        req.tenant = "alice".into();
        req.seed = Some(42);
        req.deadline_ms = Some(5_000);
        req.config = Value::Object(vec![("samples_per_level".into(), Value::Int(64))]);
        let line = req.to_json_line();
        assert!(line.ends_with('\n'));
        assert_eq!(parse_request(line.trim()).unwrap(), req);
    }

    #[test]
    fn minimal_request_defaults() {
        let req = parse_request(r#"{"id":1,"verb":"ping"}"#).unwrap();
        assert_eq!(req.tenant, ANON_TENANT);
        assert_eq!(req.seed, None);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.config, Value::Null);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"verb":"ping"}"#, "missing `id`"),
            (r#"{"id":1}"#, "missing `verb`"),
            (r#"{"id":"x","verb":"ping"}"#, "`id` must be an integer"),
            (r#"{"id":1,"verb":"ping","seed":"x"}"#, "`seed`"),
            (r#"{"id":1,"verb":"ping","config":[]}"#, "`config`"),
            (
                r#"{"id":1,"verb":"ping","frob":1}"#,
                "unknown request field",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn seeds_above_i64_max_round_trip() {
        let mut req = Request::new(1, "quickstart");
        req.seed = Some(u64::MAX - 7);
        assert_eq!(parse_request(req.to_json_line().trim()).unwrap(), req);

        let ok = Response::ok(1, "quickstart", 0, u64::MAX - 7, 1.0, Value::Null);
        assert_eq!(
            parse_response(ok.to_json_line().trim()).unwrap().seed,
            Some(u64::MAX - 7)
        );
    }

    #[test]
    fn response_round_trips() {
        let mut ok = Response::ok(
            3,
            "rsa",
            1,
            99,
            12.5,
            Value::Object(vec![("keys".into(), Value::Int(5))]),
        );
        ok.trace = Some("00000000deadbeef".into());
        assert_eq!(parse_response(ok.to_json_line().trim()).unwrap(), ok);
        ok.cached = Some(true);
        let line = ok.to_json_line();
        assert!(line.contains("\"cached\":true"));
        assert_eq!(parse_response(line.trim()).unwrap(), ok);

        let shed = Response::failure(4, "rsa", "shed", "queue_full", "queue is full".into());
        assert_eq!(parse_response(shed.to_json_line().trim()).unwrap(), shed);
    }
}
