//! Wire protocol: newline-delimited JSON request/response frames.
//!
//! One request per line, one response per line, always in order. Clients
//! may **pipeline**: send up to `PMEMGRAPH_PIPELINE_DEPTH` requests
//! before reading any response — the server executes a connection's
//! requests serially and writes responses back in request order, so the
//! i-th response always answers the i-th request (a session is still a
//! single conversation, like the PostgreSQL simple-query sub-protocol
//! with pipelining). A lock-step client that awaits each response before
//! sending the next remains fully supported. See DESIGN.md §7 for the
//! protocol reference, §15 for pipelining/backpressure, and the mapping
//! onto the paper's architecture.
//!
//! ## Requests
//!
//! ```json
//! {"op":"hello"}
//! {"op":"begin"}
//! {"op":"commit"}
//! {"op":"rollback"}
//! {"op":"prepare","name":"q1","query":"is1"}
//! {"op":"execute","name":"q1","params":[17],"deadline_ms":250}
//! {"op":"query","query":"count nodes Person"}
//! {"op":"stats"}
//! {"op":"metrics"}              // Prometheus exposition as a JSON string
//! {"op":"slowlog"}              // slow-query ring; add "clear":true to drain
//! {"op":"jitcache"}             // code-cache status + PGO profiles
//! {"op":"jitcache","action":"warm"}   // preload disk-cached code
//! {"op":"jitcache","action":"clear"}  // drop memory + disk code caches
//! {"op":"analytics","algo":"pagerank","iters":10,"damping":0.85}
//! {"op":"analytics","algo":"bfs","source":42,"rel_label":"KNOWS"}
//! {"op":"analytics","algo":"wcc","deadline_ms":5000}
//! {"op":"checkpoint"}           // drain the deferred-durability tail
//! {"op":"config"}               // effective PMEMGRAPH_* knobs + live state
//! {"op":"config","sync_mode":"every=64"}   // retune the durability ladder
//! {"op":"ping"}
//! {"op":"quit"}
//! {"op":"shutdown"}            // only honoured when enabled in config
//! {"op":"sleep","ms":50}       // debug op, only when enabled in config
//! ```
//!
//! ## Responses
//!
//! Success: `{"ok":true, ...}` with op-specific fields (`rows`, `stats`,
//! `session`). Failure: `{"ok":false,"error":{"code":"SERVER_BUSY",
//! "message":"...","retryable":true}}`.

use gstore::PVal;
use graphcore::GraphDb;
use gquery::Slot;

use crate::json::{obj, Json};

/// Machine-readable error codes carried in failure responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The worker pool is saturated; retry after a backoff.
    ServerBusy,
    /// The request's deadline elapsed before execution finished.
    DeadlineExceeded,
    /// Malformed frame or arguments.
    BadRequest,
    /// `prepare`/`execute` referenced an unknown statement or query id.
    UnknownQuery,
    /// MVTO conflict aborted the transaction; the client may retry it.
    TxnConflict,
    /// `commit`/`rollback` without an open transaction.
    NoTransaction,
    /// `begin` while a transaction is already open.
    TxnAlreadyOpen,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// Anything else (execution error, internal invariant).
    Internal,
}

impl ErrorCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::ServerBusy => "SERVER_BUSY",
            ErrorCode::DeadlineExceeded => "DEADLINE_EXCEEDED",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::UnknownQuery => "UNKNOWN_QUERY",
            ErrorCode::TxnConflict => "TXN_CONFLICT",
            ErrorCode::NoTransaction => "NO_TRANSACTION",
            ErrorCode::TxnAlreadyOpen => "TXN_ALREADY_OPEN",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// Whether the client may transparently retry the same request. A
    /// missed deadline is retryable: the server aborted the partial work
    /// (updates rolled back), so re-issuing — ideally with a larger
    /// `deadline_ms` — is safe.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::ServerBusy
                | ErrorCode::TxnConflict
                | ErrorCode::ShuttingDown
                | ErrorCode::DeadlineExceeded
        )
    }

    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "SERVER_BUSY" => ErrorCode::ServerBusy,
            "DEADLINE_EXCEEDED" => ErrorCode::DeadlineExceeded,
            "BAD_REQUEST" => ErrorCode::BadRequest,
            "UNKNOWN_QUERY" => ErrorCode::UnknownQuery,
            "TXN_CONFLICT" => ErrorCode::TxnConflict,
            "NO_TRANSACTION" => ErrorCode::NoTransaction,
            "TXN_ALREADY_OPEN" => ErrorCode::TxnAlreadyOpen,
            "SHUTTING_DOWN" => ErrorCode::ShuttingDown,
            "INTERNAL" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A protocol-level failure: code plus human-readable message.
#[derive(Debug, Clone)]
pub struct ProtoError {
    pub code: ErrorCode,
    pub message: String,
}

impl ProtoError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    pub fn bad_request(message: impl Into<String>) -> ProtoError {
        ProtoError::new(ErrorCode::BadRequest, message)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    Hello,
    Begin,
    Commit,
    Rollback,
    Prepare {
        name: String,
        query: String,
    },
    Execute {
        /// Prepared-statement name (`name`) or inline query text (`query`);
        /// exactly one is set.
        name: Option<String>,
        query: Option<String>,
        params: Vec<Json>,
        deadline_ms: Option<u64>,
    },
    Stats,
    /// Run a graph algorithm over the cached CSR snapshot.
    Analytics {
        /// `bfs`, `pagerank` or `wcc`.
        algo: String,
        /// BFS source node id (required for `bfs`).
        source: Option<u64>,
        /// PageRank iterations (default 10).
        iters: Option<u64>,
        /// PageRank damping factor (default 0.85).
        damping: Option<f64>,
        /// Restrict the snapshot to one node label (by name).
        node_label: Option<String>,
        /// Restrict the snapshot to one relationship label (by name).
        rel_label: Option<String>,
        deadline_ms: Option<u64>,
    },
    /// Drain and fence the deferred-durability tail (`SyncMode::EveryN` /
    /// `CheckpointOnly` ingest ends with one of these).
    Checkpoint,
    /// Dump the effective `PMEMGRAPH_*` knobs and live engine state;
    /// optionally retune the durability ladder first.
    Config {
        sync_mode: Option<String>,
    },
    /// Prometheus text exposition over the query protocol (the standalone
    /// exporter serves the same body over plain HTTP).
    Metrics,
    /// Read the slow-query ring; `clear` drains it after reading.
    Slowlog {
        clear: bool,
    },
    /// Inspect or manage the expression tier's code caches:
    /// `status` (default), `warm` or `clear`.
    JitCache {
        action: String,
    },
    Ping,
    Quit,
    Shutdown,
    /// Debug op (test/benchmark only): hold a worker permit for `ms`.
    Sleep {
        ms: u64,
    },
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line.trim())
            .map_err(|e| ProtoError::bad_request(format!("invalid JSON frame: {e}")))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::bad_request("missing \"op\" field"))?;
        let deadline_ms = v
            .get("deadline_ms")
            .and_then(Json::as_i64)
            .map(|d| d.max(0) as u64);
        Ok(match op {
            "hello" => Request::Hello,
            "begin" => Request::Begin,
            "commit" => Request::Commit,
            "rollback" => Request::Rollback,
            "prepare" => Request::Prepare {
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("prepare needs \"name\""))?
                    .to_string(),
                query: v
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("prepare needs \"query\""))?
                    .to_string(),
            },
            "execute" | "query" => {
                let name = v.get("name").and_then(Json::as_str).map(str::to_string);
                let query = v.get("query").and_then(Json::as_str).map(str::to_string);
                if name.is_none() && query.is_none() {
                    return Err(ProtoError::bad_request(
                        "execute needs \"name\" or \"query\"",
                    ));
                }
                let params = match v.get("params") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => items.clone(),
                    Some(_) => {
                        return Err(ProtoError::bad_request("\"params\" must be an array"))
                    }
                };
                Request::Execute {
                    name,
                    query,
                    params,
                    deadline_ms,
                }
            }
            "stats" => Request::Stats,
            "analytics" => Request::Analytics {
                algo: v
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("analytics needs \"algo\""))?
                    .to_string(),
                source: v.get("source").and_then(Json::as_i64).map(|s| s.max(0) as u64),
                iters: v.get("iters").and_then(Json::as_i64).map(|i| i.max(0) as u64),
                damping: v.get("damping").and_then(Json::as_f64),
                node_label: v
                    .get("node_label")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                rel_label: v
                    .get("rel_label")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                deadline_ms,
            },
            "checkpoint" => Request::Checkpoint,
            "config" => Request::Config {
                sync_mode: v
                    .get("sync_mode")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            },
            "metrics" => Request::Metrics,
            "slowlog" => Request::Slowlog {
                clear: v.get("clear").and_then(Json::as_bool).unwrap_or(false),
            },
            "jitcache" => Request::JitCache {
                action: v
                    .get("action")
                    .and_then(Json::as_str)
                    .unwrap_or("status")
                    .to_string(),
            },
            "ping" => Request::Ping,
            "quit" => Request::Quit,
            "shutdown" => Request::Shutdown,
            "sleep" => Request::Sleep {
                ms: v.get("ms").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
            },
            other => {
                return Err(ProtoError::bad_request(format!("unknown op {other:?}")))
            }
        })
    }
}

/// Encode a success response with extra fields.
pub fn ok_response(fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    let mut s = String::new();
    obj(all).write(&mut s);
    s
}

/// Encode a failure response.
pub fn err_response(err: &ProtoError) -> String {
    let mut s = String::new();
    obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Json::Str(err.code.as_str().into())),
                ("message", Json::Str(err.message.clone())),
                ("retryable", Json::Bool(err.code.retryable())),
            ]),
        ),
    ])
    .write(&mut s);
    s
}

/// Convert a request parameter into a storage value, interning strings
/// through the server's dictionary. `{"date": ms}` distinguishes LDBC
/// dates from plain integers.
pub fn json_to_pval(db: &GraphDb, v: &Json) -> Result<PVal, ProtoError> {
    Ok(match v {
        Json::Null => PVal::Null,
        Json::Bool(b) => PVal::Bool(*b),
        Json::Int(i) => PVal::Int(*i),
        Json::Float(f) => PVal::Double(*f),
        Json::Str(s) => PVal::Str(db.intern(s).map_err(|e| {
            ProtoError::new(ErrorCode::Internal, format!("intern failed: {e}"))
        })?),
        Json::Obj(_) => match v.get("date").and_then(Json::as_i64) {
            Some(ms) => PVal::Date(ms),
            None => {
                return Err(ProtoError::bad_request(
                    "object parameters must be {\"date\": ms}",
                ))
            }
        },
        Json::Arr(_) => return Err(ProtoError::bad_request("array parameter unsupported")),
    })
}

/// Convert a result slot into JSON, resolving dictionary codes to strings.
pub fn slot_to_json(db: &GraphDb, slot: &Slot) -> Json {
    if let Some(id) = slot.as_node() {
        return obj(vec![("node", Json::Int(id as i64))]);
    }
    if let Some(id) = slot.as_rel() {
        return obj(vec![("rel", Json::Int(id as i64))]);
    }
    match slot.as_pval() {
        Some(PVal::Int(v)) => Json::Int(v),
        Some(PVal::Double(v)) => Json::Float(v),
        Some(PVal::Bool(v)) => Json::Bool(v),
        Some(PVal::Date(v)) => obj(vec![("date", Json::Int(v))]),
        Some(PVal::Str(code)) => Json::Str(db.dict().string_of(code).unwrap_or_default()),
        Some(PVal::Null) | None => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        assert!(matches!(
            Request::parse("{\"op\":\"begin\"}").unwrap(),
            Request::Begin
        ));
        let r = Request::parse(
            "{\"op\":\"execute\",\"name\":\"q\",\"params\":[1,\"x\"],\"deadline_ms\":50}",
        )
        .unwrap();
        match r {
            Request::Execute {
                name,
                params,
                deadline_ms,
                ..
            } => {
                assert_eq!(name.as_deref(), Some("q"));
                assert_eq!(params.len(), 2);
                assert_eq!(deadline_ms, Some(50));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            Request::parse("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            Request::parse("{\"op\":\"slowlog\"}").unwrap(),
            Request::Slowlog { clear: false }
        ));
        assert!(matches!(
            Request::parse("{\"op\":\"slowlog\",\"clear\":true}").unwrap(),
            Request::Slowlog { clear: true }
        ));
        match Request::parse("{\"op\":\"jitcache\"}").unwrap() {
            Request::JitCache { action } => assert_eq!(action, "status"),
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse("{\"op\":\"jitcache\",\"action\":\"warm\"}").unwrap() {
            Request::JitCache { action } => assert_eq!(action, "warm"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(Request::parse("{\"op\":\"execute\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
    }

    #[test]
    fn analytics_verbs_parse() {
        let r = Request::parse(
            "{\"op\":\"analytics\",\"algo\":\"pagerank\",\"iters\":20,\"damping\":0.9,\
             \"rel_label\":\"KNOWS\",\"deadline_ms\":500}",
        )
        .unwrap();
        match r {
            Request::Analytics {
                algo,
                iters,
                damping,
                rel_label,
                node_label,
                deadline_ms,
                ..
            } => {
                assert_eq!(algo, "pagerank");
                assert_eq!(iters, Some(20));
                assert_eq!(damping, Some(0.9));
                assert_eq!(rel_label.as_deref(), Some("KNOWS"));
                assert_eq!(node_label, None);
                assert_eq!(deadline_ms, Some(500));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse("{\"op\":\"analytics\",\"algo\":\"bfs\",\"source\":7}").unwrap() {
            Request::Analytics { algo, source, .. } => {
                assert_eq!(algo, "bfs");
                assert_eq!(source, Some(7));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // algo is mandatory.
        assert!(Request::parse("{\"op\":\"analytics\"}").is_err());
        assert!(matches!(
            Request::parse("{\"op\":\"checkpoint\"}").unwrap(),
            Request::Checkpoint
        ));
        assert!(matches!(
            Request::parse("{\"op\":\"config\"}").unwrap(),
            Request::Config { sync_mode: None }
        ));
        match Request::parse("{\"op\":\"config\",\"sync_mode\":\"every=64\"}").unwrap() {
            Request::Config { sync_mode } => assert_eq!(sync_mode.as_deref(), Some("every=64")),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn error_codes_roundtrip_and_retryability() {
        for code in [
            ErrorCode::ServerBusy,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::UnknownQuery,
            ErrorCode::TxnConflict,
            ErrorCode::NoTransaction,
            ErrorCode::TxnAlreadyOpen,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert!(ErrorCode::ServerBusy.retryable());
        assert!(ErrorCode::TxnConflict.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
        assert!(ErrorCode::DeadlineExceeded.retryable());
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response(vec![("rows", Json::Arr(vec![]))]);
        assert!(!ok.contains('\n'));
        let parsed = Json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));

        let err = err_response(&ProtoError::new(ErrorCode::ServerBusy, "full"));
        let parsed = Json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        let e = parsed.get("error").unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("SERVER_BUSY"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
    }
}
