//! A small blocking client for the wire protocol — used by the CLI
//! binary and the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{obj, Json};
use crate::proto::ErrorCode;

/// Query parameter, converted to the wire's JSON forms.
#[derive(Debug, Clone)]
pub enum Param {
    Int(i64),
    Float(f64),
    Str(String),
    /// LDBC date (epoch milliseconds) — sent as `{"date": ms}`.
    Date(i64),
    Bool(bool),
    Null,
}

impl Param {
    fn to_json(&self) -> Json {
        match self {
            Param::Int(v) => Json::Int(*v),
            Param::Float(v) => Json::Float(*v),
            Param::Str(s) => Json::Str(s.clone()),
            Param::Date(ms) => obj(vec![("date", Json::Int(*ms))]),
            Param::Bool(b) => Json::Bool(*b),
            Param::Null => Json::Null,
        }
    }
}

impl From<i64> for Param {
    fn from(v: i64) -> Param {
        Param::Int(v)
    }
}

impl From<&str> for Param {
    fn from(v: &str) -> Param {
        Param::Str(v.to_string())
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered `{"ok":false,...}`.
    Server {
        code: ErrorCode,
        message: String,
        retryable: bool,
    },
    /// The server sent something that is not a valid response frame.
    Protocol(String),
}

impl ClientError {
    /// True for failures the caller may retry verbatim after a backoff.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Server { retryable: true, .. })
    }

    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server: {}: {message}", code.as_str())
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Result of an `execute` request.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Up to the server's row cap; each row is a vector of JSON slots.
    pub rows: Vec<Vec<Json>>,
    /// Total rows the query produced (before truncation).
    pub row_count: u64,
    pub truncated: bool,
}

impl QueryResult {
    /// First slot of the first row as an integer — the common shape of
    /// `count`-style results.
    pub fn scalar(&self) -> Option<i64> {
        self.rows.first().and_then(|r| r.first()).and_then(Json::as_i64)
    }
}

/// One request in a pipelined [`Client::send_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchItem {
    name: Option<String>,
    query: Option<String>,
    params: Vec<Param>,
    deadline: Option<Duration>,
}

impl BatchItem {
    /// Execute a previously prepared (or catalog) statement by name.
    pub fn prepared(name: &str, params: &[Param]) -> BatchItem {
        BatchItem {
            name: Some(name.to_string()),
            query: None,
            params: params.to_vec(),
            deadline: None,
        }
    }

    /// One-shot query by catalog name or ad-hoc text.
    pub fn query(text: &str, params: &[Param]) -> BatchItem {
        BatchItem {
            name: None,
            query: Some(text.to_string()),
            params: params.to_vec(),
            deadline: None,
        }
    }

    /// Attach a per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> BatchItem {
        self.deadline = Some(deadline);
        self
    }

    fn to_line(&self) -> String {
        let mut fields = vec![("op", Json::Str("execute".into()))];
        if let Some(n) = &self.name {
            fields.push(("name", Json::Str(n.clone())));
        }
        if let Some(q) = &self.query {
            fields.push(("query", Json::Str(q.clone())));
        }
        fields.push((
            "params",
            Json::Arr(self.params.iter().map(Param::to_json).collect()),
        ));
        if let Some(d) = self.deadline {
            fields.push(("deadline_ms", Json::Int(d.as_millis() as i64)));
        }
        let mut line = String::new();
        obj(fields).write(&mut line);
        line
    }
}

/// A blocking protocol client: one synchronous request at a time via the
/// `execute`/`query` methods, or N requests in flight via [`send_batch`]
/// (the server pipelines and answers in request order).
///
/// [`send_batch`]: Client::send_batch
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    session: u64,
}

impl Client {
    /// Connect and consume the greeting frame.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            stream,
            reader,
            session: 0,
        };
        let greeting = client.read_response()?;
        client.session = greeting
            .get("session")
            .and_then(Json::as_i64)
            .unwrap_or(0) as u64;
        Ok(client)
    }

    /// Server-assigned session id (from the greeting).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Bound how long any single response is waited for (`None` = forever).
    pub fn set_response_timeout(&self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Send a raw request line and return the raw response line — the
    /// escape hatch used by the CLI binary.
    pub fn raw_request(&mut self, line: &str) -> Result<String, ClientError> {
        writeln!(self.stream, "{}", line.trim_end())?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed".into()));
        }
        Ok(resp.trim_end().to_string())
    }

    fn request(&mut self, body: Json) -> Result<Json, ClientError> {
        let mut line = String::new();
        body.write(&mut line);
        writeln!(self.stream, "{line}")?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed".into()));
        }
        Self::parse_frame(&resp)
    }

    fn parse_frame(resp: &str) -> Result<Json, ClientError> {
        let v = Json::parse(resp)
            .map_err(|e| ClientError::Protocol(format!("bad response frame: {e}")))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let err = v.get("error");
                let code = err
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal);
                let message = err
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let retryable = err
                    .and_then(|e| e.get("retryable"))
                    .and_then(Json::as_bool)
                    .unwrap_or(code.retryable());
                Err(ClientError::Server {
                    code,
                    message,
                    retryable,
                })
            }
            None => Err(ClientError::Protocol("response missing \"ok\"".into())),
        }
    }

    fn op(&mut self, name: &str) -> Result<Json, ClientError> {
        self.request(obj(vec![("op", Json::Str(name.into()))]))
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.op("ping").map(|_| ())
    }

    /// Open an explicit transaction; returns its MVTO timestamp/id.
    pub fn begin(&mut self) -> Result<u64, ClientError> {
        let v = self.op("begin")?;
        Ok(v.get("txn").and_then(Json::as_i64).unwrap_or(0) as u64)
    }

    pub fn commit(&mut self) -> Result<(), ClientError> {
        self.op("commit").map(|_| ())
    }

    pub fn rollback(&mut self) -> Result<(), ClientError> {
        self.op("rollback").map(|_| ())
    }

    /// Register a prepared statement; returns its parameter count.
    pub fn prepare(&mut self, name: &str, query: &str) -> Result<u64, ClientError> {
        let v = self.request(obj(vec![
            ("op", Json::Str("prepare".into())),
            ("name", Json::Str(name.into())),
            ("query", Json::Str(query.into())),
        ]))?;
        Ok(v.get("params").and_then(Json::as_i64).unwrap_or(0) as u64)
    }

    /// Execute a prepared statement.
    pub fn execute(&mut self, name: &str, params: &[Param]) -> Result<QueryResult, ClientError> {
        self.execute_inner(Some(name), None, params, None)
    }

    /// Execute a prepared statement with a request deadline.
    pub fn execute_with_deadline(
        &mut self,
        name: &str,
        params: &[Param],
        deadline: Duration,
    ) -> Result<QueryResult, ClientError> {
        self.execute_inner(Some(name), None, params, Some(deadline))
    }

    /// One-shot query by catalog name or ad-hoc text.
    pub fn query(&mut self, text: &str, params: &[Param]) -> Result<QueryResult, ClientError> {
        self.execute_inner(None, Some(text), params, None)
    }

    fn execute_inner(
        &mut self,
        name: Option<&str>,
        query: Option<&str>,
        params: &[Param],
        deadline: Option<Duration>,
    ) -> Result<QueryResult, ClientError> {
        let mut fields = vec![("op", Json::Str("execute".into()))];
        if let Some(n) = name {
            fields.push(("name", Json::Str(n.into())));
        }
        if let Some(q) = query {
            fields.push(("query", Json::Str(q.into())));
        }
        fields.push((
            "params",
            Json::Arr(params.iter().map(Param::to_json).collect()),
        ));
        if let Some(d) = deadline {
            fields.push(("deadline_ms", Json::Int(d.as_millis() as i64)));
        }
        let v = self.request(obj(fields))?;
        Ok(Self::parse_query_result(&v))
    }

    fn parse_query_result(v: &Json) -> QueryResult {
        let rows = match v.get("rows") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|r| match r {
                    Json::Arr(slots) => slots.clone(),
                    other => vec![other.clone()],
                })
                .collect(),
            _ => Vec::new(),
        };
        QueryResult {
            rows,
            row_count: v.get("row_count").and_then(Json::as_i64).unwrap_or(0) as u64,
            truncated: v
                .get("truncated")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        }
    }

    /// Pipeline a batch: write every request before reading any response.
    ///
    /// The server executes each connection's requests in order and writes
    /// responses back in the same order, so `result[i]` always answers
    /// `batch[i]`. Against the evented front end this collapses N
    /// round-trips into one, which is where the pipelining throughput win
    /// comes from (see DESIGN.md §15).
    ///
    /// Per-request failures (`{"ok":false,...}`) land in the matching
    /// element; transport failures (I/O, malformed frame) abort the whole
    /// call, as the stream position is no longer trustworthy.
    pub fn send_batch(
        &mut self,
        batch: &[BatchItem],
    ) -> Result<Vec<Result<QueryResult, ClientError>>, ClientError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let mut wire = String::new();
        for item in batch {
            wire.push_str(&item.to_line());
            wire.push('\n');
        }
        self.stream.write_all(wire.as_bytes())?;
        let mut results = Vec::with_capacity(batch.len());
        for _ in batch {
            let mut resp = String::new();
            let n = self.reader.read_line(&mut resp)?;
            if n == 0 {
                return Err(ClientError::Protocol("connection closed mid-batch".into()));
            }
            results.push(match Self::parse_frame(&resp) {
                Ok(v) => Ok(Self::parse_query_result(&v)),
                Err(e @ ClientError::Server { .. }) => Err(e),
                Err(fatal) => return Err(fatal),
            });
        }
        Ok(results)
    }

    /// Fetch the server's `STATS` object.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.op("stats")
    }

    /// Fetch the Prometheus text exposition over the query protocol.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let v = self.op("metrics")?;
        v.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response missing \"metrics\"".into()))
    }

    /// Fetch the slow-query log; `clear` drains it after reading. The
    /// response carries `entries` (oldest first), `dropped` and
    /// `threshold_us`.
    pub fn slowlog(&mut self, clear: bool) -> Result<Json, ClientError> {
        self.request(obj(vec![
            ("op", Json::Str("slowlog".into())),
            ("clear", Json::Bool(clear)),
        ]))
    }

    /// Debug op: hold an execution slot for `ms` (needs `enable_debug_ops`).
    pub fn sleep(&mut self, ms: u64) -> Result<(), ClientError> {
        self.request(obj(vec![
            ("op", Json::Str("sleep".into())),
            ("ms", Json::Int(ms as i64)),
        ]))
        .map(|_| ())
    }

    /// Polite disconnect.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.op("quit").map(|_| ())
    }

    /// Ask the server to shut down (needs `allow_remote_shutdown`).
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.op("shutdown").map(|_| ())
    }
}
