//! The query server: accept path, per-connection sessions, admission
//! control, request dispatch, maintenance, graceful shutdown.
//!
//! Two network front ends share everything below the framing layer
//! (`PMEMGRAPH_NET_MODE`, DESIGN.md §15):
//!
//! * **evented** (default on Linux) — epoll lanes own the sockets as
//!   non-blocking state machines. A lane answers a request that cannot
//!   block ([`Job::cannot_block`]) itself; everything else goes from lane
//!   0 to a fixed pool of net workers through per-connection queues, one
//!   request at a time per connection so pipelined responses stay in
//!   order. See [`crate::evented`].
//! * **threaded** — thread per connection with blocking reads; the
//!   fallback on non-Linux targets and the baseline the async bench
//!   gates against.
//!
//! In both modes a session's open transaction is a `GraphTxn` borrowing
//! the shared database, owned by exactly one thread at a time — dropping
//! the connection's state rolls back any uncommitted write transaction,
//! which makes client crash, idle-timeout kill and server shutdown one
//! code path (see DESIGN.md §7).
//!
//! Concurrency is bounded three ways:
//!
//! * the **session table** caps concurrent connections (`max_sessions`);
//! * the **worker pool** caps concurrent query executions (`workers`) —
//!   a counting semaphore, not a queue. A request that cannot get an
//!   execution slot within `admission_wait` is rejected with a retryable
//!   `SERVER_BUSY`, so overload degrades into fast rejections instead of
//!   unbounded queueing;
//! * in evented mode, **read-interest backpressure**: a connection with
//!   `pipeline_depth` requests in flight (or a globally saturated request
//!   queue) stops being *read* until responses drain, so a pipelining
//!   client is flow-controlled by TCP instead of being errored at.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ganalytics::{algo, CsrSnapshot, SnapshotCache, SnapshotSpec};
use gjit::JitEngine;
use gobs::{Exporter, Histogram, Registry, SlowEntry, SlowLog, Snapshot};
use gquery::{ExecCtx, ExecProfile, QueryError};
use graphcore::{GraphDb, GraphError, GraphTxn};
use gtxn::{SyncMode, TxnError};
use ldbc::{Mode, SnbDb};
use parking_lot::{Condvar, Mutex};

use crate::catalog::{Catalog, NamedQuery};
use crate::json::{obj, Json};
use crate::proto::{
    err_response, json_to_pval, ok_response, slot_to_json, ErrorCode, ProtoError, Request,
};
use crate::session::{SessionCell, SessionTable};

/// Longest accepted request line (1 MiB) — a runaway frame is a protocol
/// error, not an allocation.
pub(crate) const MAX_LINE: usize = 1 << 20;

/// How often blocked reads wake up to check the stop flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Which network front end serves connections (`PMEMGRAPH_NET_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Thread per connection, blocking reads.
    Threaded,
    /// Epoll reactor + fixed net-worker pool (Linux only).
    Evented,
}

impl NetMode {
    /// Parse the knob; anything unrecognized keeps the default.
    pub fn from_env() -> NetMode {
        match gconfig::net_mode().trim().to_ascii_lowercase().as_str() {
            "threaded" | "thread" | "blocking" => NetMode::Threaded,
            _ => NetMode::Evented,
        }
    }

    /// The mode that will actually run: evented needs epoll.
    pub fn resolve(self) -> NetMode {
        if self == NetMode::Evented && !crate::reactor::supported() {
            NetMode::Threaded
        } else {
            self
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            NetMode::Threaded => "threaded",
            NetMode::Evented => "evented",
        }
    }
}

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the binary overrides from the environment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Concurrent query-execution slots (admission-control semaphore).
    pub workers: usize,
    /// Maximum concurrent sessions; further connects get `SERVER_BUSY`.
    /// `Default` reads `PMEMGRAPH_MAX_CONNS`.
    pub max_sessions: usize,
    /// Sessions idle longer than this are force-closed (open transactions
    /// roll back).
    pub idle_timeout: Duration,
    /// Cadence of the maintenance tick (idle sweep + storage reclamation).
    pub maintenance_interval: Duration,
    /// Deadline applied when a request doesn't carry `deadline_ms`.
    pub default_deadline: Duration,
    /// How long a request may wait for an execution slot before being
    /// rejected with `SERVER_BUSY`.
    pub admission_wait: Duration,
    /// Morsel threads for adaptive execution of scan-headed plans.
    pub exec_threads: usize,
    /// Rows returned per response; larger results are truncated.
    pub max_result_rows: usize,
    /// How long shutdown waits for in-flight sessions before force-closing.
    pub drain_timeout: Duration,
    /// Honour the `shutdown` op (CI smoke / embedded use).
    pub allow_remote_shutdown: bool,
    /// Honour the `sleep` debug op (load tests).
    pub enable_debug_ops: bool,
    /// Bind address for the standalone Prometheus exporter (`None` = no
    /// exporter; the `METRICS` verb works either way). `Default` reads
    /// `PMEMGRAPH_METRICS_ADDR`.
    pub metrics_addr: Option<String>,
    /// Slow-query capture threshold in µs; `u64::MAX` disables capture.
    /// `Default` reads `PMEMGRAPH_SLOW_QUERY_US`.
    pub slow_query_us: u64,
    /// Bound on the slow-query ring (oldest entries evicted first).
    pub slowlog_capacity: usize,
    /// Network front end (`PMEMGRAPH_NET_MODE`); `serve` resolves
    /// `Evented` down to `Threaded` on targets without epoll.
    pub net_mode: NetMode,
    /// Evented-mode request-processing threads (`PMEMGRAPH_NET_WORKERS`;
    /// 0 = auto: `max(workers, 4)`). Also caps the lane count, which is
    /// `min(net workers, cores)`.
    pub net_workers: usize,
    /// Per-connection in-flight request cap (`PMEMGRAPH_PIPELINE_DEPTH`).
    /// Past it the reactor pauses the socket's read interest.
    pub pipeline_depth: usize,
}

impl ServerConfig {
    /// Net-worker thread count with the auto default applied.
    pub fn net_workers_effective(&self) -> usize {
        if self.net_workers == 0 {
            self.workers.max(4)
        } else {
            self.net_workers
        }
    }

    /// Evented-mode lanes: as many as there are cores to run them on, and
    /// never more than there are net workers to hand off to.
    pub(crate) fn lane_count(&self) -> usize {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        self.net_workers_effective().min(cores).max(1)
    }

    /// Global decoded-request watermark: above it the reactor pauses read
    /// interest on the offending connections; reads resume below half of
    /// it. Sized so every net worker can stay busy through a full
    /// per-connection pipeline without the queue growing unboundedly.
    pub(crate) fn global_inflight_high(&self) -> u64 {
        (self.net_workers_effective() as u64 * self.pipeline_depth.max(1) as u64).max(64) * 2
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_sessions: gconfig::max_conns() as usize,
            idle_timeout: Duration::from_secs(60),
            maintenance_interval: Duration::from_millis(500),
            default_deadline: Duration::from_secs(5),
            admission_wait: Duration::from_millis(100),
            exec_threads: 2,
            max_result_rows: 1024,
            drain_timeout: Duration::from_secs(5),
            allow_remote_shutdown: false,
            enable_debug_ops: false,
            metrics_addr: gconfig::metrics_addr(),
            slow_query_us: gconfig::slow_query_us(),
            slowlog_capacity: 128,
            net_mode: NetMode::from_env(),
            net_workers: gconfig::net_workers() as usize,
            pipeline_depth: gconfig::pipeline_depth() as usize,
        }
    }
}

/// Server-level counters (monotonic; exposed through `STATS`).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub requests: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected: AtomicU64,
    pub errors: AtomicU64,
    pub deadline_misses: AtomicU64,
    pub sessions_opened: AtomicU64,
    pub sessions_expired: AtomicU64,
    pub disconnect_rollbacks: AtomicU64,
    pub maintenance_runs: AtomicU64,
    pub reclaimed_slots: AtomicU64,
    pub vacuumed_props: AtomicU64,
    /// Morsels executed by the AOT interpreter, across all requests.
    pub interpreted_morsels: AtomicU64,
    /// Morsels executed as JIT-compiled code, across all requests.
    pub compiled_morsels: AtomicU64,
    /// Chunks skipped by zone-map predicate pushdown, across all requests.
    pub chunks_pruned: AtomicU64,
    /// Morsels that scanned through the MVTO single-version fast path.
    pub fast_path_morsels: AtomicU64,
    /// Rows surviving chunk pruning whose residual filters ran through
    /// the AST interpreter.
    pub residual_rows_interp: AtomicU64,
    /// Rows surviving chunk pruning whose residual filters ran as a
    /// compiled expression (the gjit expression tier).
    pub residual_rows_compiled: AtomicU64,
    /// Requests whose profile recorded a fallback from the mode's fast
    /// path (update plan, non-morsel access path, or JIT-unsupported).
    pub fallback_total: AtomicU64,
    /// Connections currently open (gauge semantics; both net modes).
    pub open_conns: AtomicU64,
    /// `accept()` failures other than would-block (EMFILE/ECONNABORTED
    /// and friends) — each one retried with bounded backoff.
    pub accepts_failed: AtomicU64,
    /// Eventfd nudges delivered to a parked reactor (evented mode).
    pub reactor_wakeups: AtomicU64,
    /// `epoll_wait` calls made by the reactor (evented mode).
    pub epoll_waits: AtomicU64,
    /// Times a connection's read interest was paused for backpressure
    /// (per-connection pipeline cap or the global inflight watermark).
    pub read_pauses: AtomicU64,
    /// Decoded requests not yet answered (gauge; evented mode).
    pub net_inflight: AtomicU64,
    /// Requests answered by the lane that read them (evented mode).
    pub lane_requests: AtomicU64,
    /// Connections moved to lane 0 because a request needed a net worker.
    pub lane_moves: AtomicU64,
}

// ---------------------------------------------------------------------
// Worker pool: a counting semaphore with timed acquire.
// ---------------------------------------------------------------------

struct WorkerPool {
    slots: Mutex<usize>,
    cv: Condvar,
}

/// RAII execution slot; releasing wakes one waiter.
pub(crate) struct Permit {
    pool: Arc<WorkerPool>,
}

impl WorkerPool {
    fn new(n: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            slots: Mutex::new(n),
            cv: Condvar::new(),
        })
    }

    /// Take a slot only if one is free this instant — an evented lane must
    /// never wait (`try_acquire(ZERO)` still parks on the condvar once).
    fn try_acquire_now(self: &Arc<WorkerPool>) -> Option<Permit> {
        let mut slots = self.slots.lock();
        if *slots == 0 {
            return None;
        }
        *slots -= 1;
        Some(Permit { pool: self.clone() })
    }

    /// Acquire a slot, waiting at most `wait`; `None` means saturated.
    fn try_acquire(self: &Arc<WorkerPool>, wait: Duration) -> Option<Permit> {
        let deadline = Instant::now() + wait;
        let mut slots = self.slots.lock();
        loop {
            if *slots > 0 {
                *slots -= 1;
                return Some(Permit { pool: self.clone() });
            }
            if self.cv.wait_until(&mut slots, deadline).timed_out() {
                if *slots > 0 {
                    *slots -= 1;
                    return Some(Permit { pool: self.clone() });
                }
                return None;
            }
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        *self.pool.slots.lock() += 1;
        self.pool.cv.notify_one();
    }
}

// ---------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------

pub(crate) struct Shared {
    pub(crate) snb: Arc<SnbDb>,
    engine: Arc<JitEngine>,
    pub(crate) catalog: Catalog,
    pub(crate) config: ServerConfig,
    // Arc so registry fn-metrics can capture the stat owners without
    // referencing `Shared` itself (which owns the registry).
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) sessions: Arc<SessionTable>,
    /// Per-server metric registry (fn-metrics over the cells above plus
    /// the request histogram); `STATS`/`METRICS`/the exporter snapshot it.
    registry: Registry,
    request_us: Histogram,
    /// In-flight requests per connection, observed as each request is
    /// decoded (threaded mode always observes 1: no pipelined buffering).
    pub(crate) pipeline_depth: Histogram,
    slowlog: Arc<SlowLog>,
    pool: Arc<WorkerPool>,
    /// Epoch-validated CSR snapshots backing the `ANALYTICS` verb.
    analytics: SnapshotCache,
    pub(crate) stop: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Evented-mode coordination (ready queue, waker); `None` when the
    /// resolved net mode is threaded.
    pub(crate) net: Option<Arc<crate::evented::NetShared>>,
}

/// Handle to a running server. `wait()` blocks until the server stops
/// (via [`ServerHandle::request_shutdown`] from a clone-free context — the
/// stats/addr accessors — or a remote `shutdown` op), then joins every
/// thread. Dropping the handle stops the server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Threaded mode: the accept thread. Evented mode: lane 0 (which owns
    /// the listener and is the last lane out of a drain).
    accept: Option<JoinHandle<()>>,
    /// Evented mode: the other lanes and the net workers.
    workers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<()>>,
    exporter: Option<Exporter>,
}

impl ServerHandle {
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Bound address of the standalone metrics exporter, when one was
    /// configured (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(Exporter::local_addr)
    }

    pub fn active_sessions(&self) -> usize {
        self.shared.sessions.active_count()
    }

    /// The network front end actually serving (post-`resolve`).
    pub fn net_mode(&self) -> NetMode {
        self.shared.config.net_mode
    }

    /// Ask the server to stop; returns immediately.
    pub fn request_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(net) = &self.shared.net {
            net.wake_all();
        }
    }

    /// Block until the server stops, then drain in-flight sessions and
    /// join all threads.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Stop and drain: `request_shutdown` + `wait`.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }

    fn join_all(&mut self) {
        // The accept join doubles as "block until shutdown is requested"
        // (`wait()` parks here with the stop flag still clear), so the
        // exporter must outlive it — scrapes keep working while the
        // server runs. It goes down first once shutdown actually starts:
        // its render closure holds `Shared`, and scrapes of a
        // half-drained server are useless anyway.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // That thread leaves once `stop` is up — or by unwinding, and then
        // everything else (the other lanes included) has to follow it.
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(self.exporter.take());
        // Threaded mode: connection threads notice the stop flag within
        // one READ_TICK and finish their in-flight request first;
        // force-close whatever is still around after the drain window.
        // (Evented mode drains inside the lanes, the last of which was
        // joined above — `conns` is empty, so this loop exits immediately.)
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        loop {
            if self.shared.conns.lock().iter().all(JoinHandle::is_finished) {
                break;
            }
            if Instant::now() >= deadline {
                self.shared.sessions.shutdown_all();
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.conns.lock());
        for h in handles {
            let _ = h.join();
        }
        // Net workers exit once the last lane out has published the done
        // flag and the ready queue is empty; it already has by this point.
        if let Some(net) = &self.shared.net {
            net.wake_all();
        }
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        if let Some(h) = self.maint.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join_all();
    }
}

/// Start the server. Returns once the listener is bound; all work happens
/// on background threads.
pub fn serve(
    snb: Arc<SnbDb>,
    engine: Arc<JitEngine>,
    mut config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Resolve the net mode up front so metrics, STATS and the actual
    // front end all agree. Lanes that cannot be built (no epoll, fd
    // exhaustion) downgrade to threaded instead of failing startup.
    config.net_mode = config.net_mode.resolve();
    let net = match config.net_mode {
        NetMode::Evented => match crate::evented::NetShared::new(config.lane_count()) {
            Ok(n) => Some(Arc::new(n)),
            Err(e) => {
                eprintln!("gserver: evented front end unavailable ({e}); falling back to threaded");
                config.net_mode = NetMode::Threaded;
                None
            }
        },
        NetMode::Threaded => None,
    };

    let catalog = Catalog::new(&snb.codes);
    let pool = WorkerPool::new(config.workers);
    let stats = Arc::new(ServerStats::default());
    let sessions = Arc::new(SessionTable::new());
    let slowlog = Arc::new(SlowLog::new(config.slowlog_capacity, config.slow_query_us));
    // A metrics consumer now exists, so turn on the span sites in
    // gtxn/gjit/gquery (they pay one relaxed load each until this).
    gobs::set_spans_enabled(true);
    let (registry, request_us, pipeline_depth) =
        crate::metrics::build_registry(&stats, &sessions, &snb, &engine, &config, &slowlog);
    let shared = Arc::new(Shared {
        snb,
        engine,
        catalog,
        config,
        stats,
        sessions,
        registry,
        request_us,
        pipeline_depth,
        slowlog,
        pool,
        analytics: SnapshotCache::new(),
        stop: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        net,
    });

    // Bind the standalone exporter before spawning any server thread so a
    // bad PMEMGRAPH_METRICS_ADDR fails the whole startup cleanly.
    let exporter = match shared.config.metrics_addr.clone() {
        Some(maddr) => {
            let sh = shared.clone();
            Some(Exporter::serve(
                &maddr,
                Arc::new(move || exposition(&sh)),
            )?)
        }
        None => None,
    };

    let (accept, workers) = match shared.config.net_mode {
        NetMode::Threaded => {
            let shared = shared.clone();
            let h = thread::Builder::new()
                .name("gserver-accept".into())
                .spawn(move || accept_loop(listener, shared))?;
            (h, Vec::new())
        }
        NetMode::Evented => crate::evented::spawn(listener, shared.clone())?,
    };
    let maint = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("gserver-maint".into())
            .spawn(move || maintenance_loop(shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
        maint: Some(maint),
        exporter,
    })
}

/// Render the Prometheus exposition: the process-global registry (span
/// histograms recorded inside the engine crates) merged with this
/// server's registry.
fn exposition(shared: &Shared) -> String {
    gobs::render(&Snapshot::collect(&[gobs::global(), &shared.registry]))
}

// ---------------------------------------------------------------------
// Accept + maintenance threads
// ---------------------------------------------------------------------

/// How a failed `accept()` should be handled. Shared by both front ends
/// so EMFILE/ECONNABORTED get the same counted, bounded-backoff treatment
/// everywhere (they used to fall through a generic match and silently
/// sleep).
pub(crate) enum AcceptError {
    /// No pending connection (or EINTR): not a failure.
    Retry,
    /// The *peer* aborted before we accepted (ECONNABORTED): count it and
    /// immediately try the next pending connection.
    PeerAborted,
    /// Transient local exhaustion (EMFILE/ENFILE out of fds, ENOBUFS/
    /// ENOMEM): count it and back off — retrying instantly would spin.
    Exhausted,
}

pub(crate) fn classify_accept_error(e: &std::io::Error) -> AcceptError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) {
        return AcceptError::Retry;
    }
    if e.kind() == ErrorKind::ConnectionAborted {
        return AcceptError::PeerAborted;
    }
    // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything else unexpected: resource
    // exhaustion is the only accept failure left that isn't per-peer, and
    // the safe treatment for an unknown error is the same counted backoff.
    AcceptError::Exhausted
}

/// Exponential accept backoff, bounded to 100ms so an fd-exhausted server
/// keeps probing for headroom instead of wedging.
pub(crate) fn next_backoff(cur: Duration) -> Duration {
    (cur * 2).min(Duration::from_millis(100))
}

pub(crate) const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = ACCEPT_BACKOFF_START;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_START;
                let sh = shared.clone();
                let spawned = thread::Builder::new()
                    .name("gserver-conn".into())
                    .spawn(move || handle_conn(stream, sh));
                if let Ok(h) = spawned {
                    let mut conns = shared.conns.lock();
                    conns.retain(|h| !h.is_finished());
                    conns.push(h);
                }
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptError::Retry => {
                    if e.kind() == ErrorKind::WouldBlock {
                        thread::sleep(Duration::from_millis(10));
                    }
                }
                AcceptError::PeerAborted => {
                    shared.stats.accepts_failed.fetch_add(1, Ordering::Relaxed);
                }
                AcceptError::Exhausted => {
                    shared.stats.accepts_failed.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(backoff);
                    backoff = next_backoff(backoff);
                }
            },
        }
    }
}

/// Background maintenance (satellite of the paper's GC design, §5.2):
/// sweep idle sessions, then reclaim storage — deferred node/rel slots
/// past the MVTO horizon, and superseded property chains when the engine
/// is fully quiesced (`vacuum_props` self-gates on in-flight
/// transactions and live version chains).
fn maintenance_loop(shared: Arc<Shared>) {
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(20));
        // The clock `SessionCell::touch` stamps requests with.
        shared.sessions.tick();
        if last.elapsed() < shared.config.maintenance_interval {
            continue;
        }
        last = Instant::now();
        let expired = shared.sessions.sweep_idle(shared.config.idle_timeout);
        shared
            .stats
            .sessions_expired
            .fetch_add(expired as u64, Ordering::Relaxed);
        let reclaimed = shared.snb.db.reclaim_deleted();
        let vacuumed = shared.snb.db.vacuum_props();
        shared
            .stats
            .reclaimed_slots
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        shared
            .stats
            .vacuumed_props
            .fetch_add(vacuumed as u64, Ordering::Relaxed);
        shared.stats.maintenance_runs.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// Per-connection state: the open transaction (if any) and this session's
/// prepared statements. In threaded mode it lives on the connection
/// thread's stack; in evented mode it is parked in the connection's work
/// cell between requests and checked out by exactly one net worker at a
/// time, or by the lane that owns the connection (see [`crate::evented`]).
pub(crate) struct ConnState<'db> {
    pub(crate) txn: Option<GraphTxn<'db>>,
    pub(crate) prepared: HashMap<String, Arc<NamedQuery>>,
    pub(crate) session: Arc<SessionCell>,
}

impl<'db> ConnState<'db> {
    pub(crate) fn new(session: Arc<SessionCell>) -> ConnState<'db> {
        ConnState {
            txn: None,
            prepared: HashMap::new(),
            session,
        }
    }
}

pub(crate) enum Flow {
    Continue,
    Close,
}

/// The greeting frame both front ends write on accept.
pub(crate) fn greeting(shared: &Shared, sid: u64) -> String {
    ok_response(vec![
        ("server", Json::Str("pmemgraph".into())),
        ("session", Json::Int(sid as i64)),
        ("queries", Json::Int(shared.catalog.len() as i64)),
    ])
}

pub(crate) fn session_full_response() -> String {
    err_response(&ProtoError::new(
        ErrorCode::ServerBusy,
        "session table full",
    ))
}

/// How an `execute` named its query, looked up once per request — by the
/// lane that read the frame when it got as far as asking whether it may
/// answer, by the executing thread otherwise.
struct Resolved {
    query: Result<Arc<NamedQuery>, ProtoError>,
    /// What the lookup took; the request's `elapsed_us` includes it.
    took: Duration,
}

impl Resolved {
    fn of(
        shared: &Shared,
        db: &GraphDb,
        state: &ConnState<'_>,
        name: Option<&str>,
        query: Option<&str>,
    ) -> Resolved {
        let start = Instant::now();
        let query = match (name, query) {
            (Some(n), _) => state.prepared.get(n).cloned().ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::UnknownQuery,
                    format!("no prepared statement named {n:?}"),
                )
            }),
            (None, Some(text)) => shared.catalog.resolve(db, text),
            (None, None) => unreachable!("parser guarantees name or query"),
        };
        Resolved {
            query,
            took: start.elapsed(),
        }
    }
}

/// One request frame between framing and its response. The single entry
/// point every front end feeds frames through — `Job::parse(frame)`, then
/// `run` — so protocol semantics cannot drift between net modes or between
/// a lane and a net worker: `Request::parse` and `Catalog::resolve` are
/// each reached once per request whichever thread ends up answering.
pub(crate) struct Job {
    req: Result<Request, ProtoError>,
    /// `execute`: set by [`Job::cannot_block`], consumed by `do_execute`.
    resolved: Option<Resolved>,
    /// `execute`: an execution slot a lane took without waiting.
    permit: Option<Permit>,
}

impl Job {
    /// Parse one frame straight from the read buffer. Bytes that are not
    /// UTF-8 are a bad request, not a dead connection and not U+FFFD
    /// smuggled into a string parameter.
    pub(crate) fn parse(frame: &[u8]) -> Job {
        let req = std::str::from_utf8(frame)
            .map_err(|_| ProtoError::bad_request("request is not valid UTF-8"))
            .and_then(Request::parse);
        Job {
            req,
            resolved: None,
            permit: None,
        }
    }

    /// The cannot-block rule (DESIGN.md §15): may the lane that read this
    /// frame answer it itself? Yes for a frame that only earns an error,
    /// for the verbs that touch no transaction and take no execution slot,
    /// and for an `execute` of a [`NamedQuery::lane_runnable`] query when
    /// an execution slot is free *now* (a slot that has to be waited for
    /// means the request is not cheap at the moment) — all outside an open
    /// transaction. Updates, `begin`/`commit`/`rollback`, scans, MATCH,
    /// ANALYTICS, `checkpoint`, `config`, `jitcache`, `sleep`, `quit` and
    /// `shutdown` wait on locks, fences, morsel threads or the clock, or
    /// end the connection: they go to a net worker.
    ///
    /// A plan not yet in the code cache compiles synchronously on the
    /// lane, exactly as it does on a net worker (at most one compile per
    /// catalog shape per process; ROADMAP 1(c) owns moving compiles off
    /// request threads).
    pub(crate) fn cannot_block(
        &mut self,
        shared: &Shared,
        db: &GraphDb,
        state: &ConnState<'_>,
    ) -> bool {
        let Ok(req) = &self.req else {
            return true;
        };
        if state.txn.is_some() {
            return false;
        }
        match req {
            Request::Hello
            | Request::Ping
            | Request::Prepare { .. }
            | Request::Stats
            | Request::Metrics
            | Request::Slowlog { .. } => true,
            Request::Execute { name, query, .. } => {
                let resolved = Resolved::of(shared, db, state, name.as_deref(), query.as_deref());
                let run = match &resolved.query {
                    Err(_) => true,
                    Ok(q) if q.lane_runnable => {
                        self.permit = shared.pool.try_acquire_now();
                        self.permit.is_some()
                    }
                    Ok(_) => false,
                };
                self.resolved = Some(resolved);
                run
            }
            _ => false,
        }
    }

    pub(crate) fn run<'db>(
        self,
        shared: &Shared,
        db: &'db GraphDb,
        sid: u64,
        state: &mut ConnState<'db>,
    ) -> (String, Flow) {
        match self.req {
            Ok(req) => dispatch(shared, db, sid, state, req, self.resolved, self.permit),
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                (err_response(&e), Flow::Continue)
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(kill_handle) = stream.try_clone() else {
        return;
    };
    let Some((sid, session)) = shared
        .sessions
        .try_register(kill_handle, shared.config.max_sessions)
    else {
        let _ = writeln!(&stream, "{}", session_full_response());
        return;
    };
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    shared.stats.open_conns.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = writeln!(&stream, "{}", greeting(&shared, sid));

    let db = &shared.snb.db;
    let mut state = ConnState::new(session);
    let mut reader = BufReader::new(&stream);
    let mut line: Vec<u8> = Vec::new();

    loop {
        line.clear();
        match read_request_line(&mut reader, &mut line, &shared.stop) {
            ReadOutcome::Line => {}
            ReadOutcome::Eof | ReadOutcome::Stopped => break,
        }
        if line.trim_ascii().is_empty() {
            continue;
        }
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        // Blocking front end: exactly one request in flight per
        // connection, by construction.
        shared.pipeline_depth.observe_us(1);
        state.session.touch();
        let (response, flow) = Job::parse(&line).run(&shared, db, sid, &mut state);
        if writeln!(&stream, "{response}").is_err() {
            break;
        }
        if matches!(flow, Flow::Close) {
            break;
        }
    }

    // Disconnect cleanup — the rollback-on-disconnect guarantee. Explicit
    // abort (rather than relying on Drop) so the path is auditable and
    // counted.
    if let Some(txn) = state.txn.take() {
        txn.abort();
        shared
            .stats
            .disconnect_rollbacks
            .fetch_add(1, Ordering::Relaxed);
    }
    shared.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
    shared.sessions.deregister(sid);
}

enum ReadOutcome {
    Line,
    Eof,
    Stopped,
}

/// Read one `\n`-terminated request line, preserving partial data across
/// read-timeout ticks so the stop flag is observed even on an idle
/// connection.
fn read_request_line(
    reader: &mut BufReader<&TcpStream>,
    line: &mut Vec<u8>,
    stop: &AtomicBool,
) -> ReadOutcome {
    loop {
        match reader.read_until(b'\n', line) {
            Ok(0) => {
                // EOF; a final unterminated line is still a request.
                return if line.trim_ascii().is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Line
                };
            }
            Ok(_) if line.ends_with(b"\n") => return ReadOutcome::Line,
            Ok(_) => {} // partial (no newline yet): keep reading
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return ReadOutcome::Stopped;
                }
                if line.len() > MAX_LINE {
                    return ReadOutcome::Eof;
                }
            }
            Err(_) => return ReadOutcome::Eof, // reset / forced close
        }
    }
}

fn dispatch<'db>(
    shared: &Shared,
    db: &'db GraphDb,
    sid: u64,
    state: &mut ConnState<'db>,
    req: Request,
    resolved: Option<Resolved>,
    permit: Option<Permit>,
) -> (String, Flow) {
    let result: Result<(String, Flow), ProtoError> = match req {
        Request::Hello => Ok((
            ok_response(vec![
                ("server", Json::Str("pmemgraph".into())),
                ("session", Json::Int(sid as i64)),
                ("queries", Json::Int(shared.catalog.len() as i64)),
            ]),
            Flow::Continue,
        )),
        Request::Ping => Ok((ok_response(vec![]), Flow::Continue)),
        Request::Quit => Ok((ok_response(vec![]), Flow::Close)),
        Request::Begin => do_begin(shared, db, state),
        Request::Commit => do_commit(state),
        Request::Rollback => do_rollback(state),
        Request::Prepare { name, query } => {
            shared.catalog.resolve(db, &query).map(|q| {
                let n_params = q.n_params;
                state.prepared.insert(name, q);
                (
                    ok_response(vec![("params", Json::Int(n_params as i64))]),
                    Flow::Continue,
                )
            })
        }
        Request::Execute {
            name,
            query,
            params,
            deadline_ms,
        } => do_execute(
            shared,
            db,
            state,
            name,
            query,
            &params,
            deadline_ms,
            resolved,
            permit,
        )
        .map(|resp| (resp, Flow::Continue)),
        Request::Stats => Ok((stats_response(shared, db), Flow::Continue)),
        Request::Analytics {
            algo,
            source,
            iters,
            damping,
            node_label,
            rel_label,
            deadline_ms,
        } => do_analytics(
            shared,
            db,
            &algo,
            source,
            iters,
            damping,
            node_label.as_deref(),
            rel_label.as_deref(),
            deadline_ms,
        )
        .map(|resp| (resp, Flow::Continue)),
        Request::Checkpoint => do_checkpoint(shared, db).map(|resp| (resp, Flow::Continue)),
        Request::Config { sync_mode } => {
            do_config(shared, db, sync_mode.as_deref()).map(|resp| (resp, Flow::Continue))
        }
        Request::Metrics => Ok((
            ok_response(vec![("metrics", Json::Str(exposition(shared)))]),
            Flow::Continue,
        )),
        Request::Slowlog { clear } => Ok((slowlog_response(shared, clear), Flow::Continue)),
        Request::JitCache { action } => {
            do_jitcache(shared, &action).map(|resp| (resp, Flow::Continue))
        }
        Request::Shutdown => {
            if shared.config.allow_remote_shutdown {
                shared.stop.store(true, Ordering::SeqCst);
                Ok((ok_response(vec![]), Flow::Close))
            } else {
                Err(ProtoError::bad_request("remote shutdown is disabled"))
            }
        }
        Request::Sleep { ms } => do_sleep(shared, ms),
    };
    match result {
        Ok(out) => out,
        Err(e) => {
            if e.code == ErrorCode::DeadlineExceeded {
                shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
            }
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            (err_response(&e), Flow::Continue)
        }
    }
}

fn do_begin<'db>(
    shared: &Shared,
    db: &'db GraphDb,
    state: &mut ConnState<'db>,
) -> Result<(String, Flow), ProtoError> {
    if state.txn.is_some() {
        return Err(ProtoError::new(
            ErrorCode::TxnAlreadyOpen,
            "a transaction is already open on this session",
        ));
    }
    if shared.stop.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    let txn = db.begin();
    let id = txn.id();
    state.txn = Some(txn);
    state.session.set_in_txn(true);
    Ok((
        ok_response(vec![("txn", Json::Int(id as i64))]),
        Flow::Continue,
    ))
}

fn do_commit(state: &mut ConnState<'_>) -> Result<(String, Flow), ProtoError> {
    let txn = state.txn.take().ok_or_else(|| {
        ProtoError::new(ErrorCode::NoTransaction, "no open transaction")
    })?;
    state.session.set_in_txn(false);
    txn.commit().map_err(graph_err)?;
    Ok((ok_response(vec![]), Flow::Continue))
}

fn do_rollback(state: &mut ConnState<'_>) -> Result<(String, Flow), ProtoError> {
    let txn = state.txn.take().ok_or_else(|| {
        ProtoError::new(ErrorCode::NoTransaction, "no open transaction")
    })?;
    state.session.set_in_txn(false);
    txn.abort();
    Ok((ok_response(vec![]), Flow::Continue))
}

/// The one execute body: resolve → params → admit → run → serialise. A
/// lane that asked [`Job::cannot_block`] hands in the lookup it already
/// made (whether it then answers itself or a net worker does) and, when it
/// answers itself, the execution slot it already holds.
#[allow(clippy::too_many_arguments)]
fn do_execute(
    shared: &Shared,
    db: &GraphDb,
    state: &mut ConnState<'_>,
    name: Option<String>,
    query: Option<String>,
    params_json: &[Json],
    deadline_ms: Option<u64>,
    resolved: Option<Resolved>,
    permit: Option<Permit>,
) -> Result<String, ProtoError> {
    let Resolved { query: q, took } = resolved
        .unwrap_or_else(|| Resolved::of(shared, db, state, name.as_deref(), query.as_deref()));
    // The request started when its lookup did, wherever that ran.
    let now = Instant::now();
    let start = now.checked_sub(took).unwrap_or(now);
    let q = q?;
    let mut params = Vec::with_capacity(params_json.len());
    for p in params_json {
        params.push(json_to_pval(db, p)?);
    }
    if params.len() < q.n_params {
        return Err(ProtoError::bad_request(format!(
            "query {:?} needs {} parameter(s), got {}",
            q.spec.name,
            q.n_params,
            params.len()
        )));
    }
    // Clamp client-supplied deadlines to an hour so a bogus u64 cannot
    // overflow Instant arithmetic.
    let deadline = start
        + deadline_ms
            .map(|ms| Duration::from_millis(ms.min(3_600_000)))
            .unwrap_or(shared.config.default_deadline);

    if shared.stop.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }

    // Admission control: a bounded wait for an execution slot, clipped to
    // the request deadline. Saturation is an immediate, retryable error.
    let wait = shared
        .config
        .admission_wait
        .min(deadline.saturating_duration_since(Instant::now()));
    let Some(_permit) = permit.or_else(|| shared.pool.try_acquire(wait)) else {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(ProtoError::new(
            ErrorCode::ServerBusy,
            "worker pool saturated",
        ));
    };
    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);

    // The request's one execution context: its deadline reaches every
    // feed-chain step and every MATCH segment, and its profile is the
    // account of whatever ran — a failed step's partial work included.
    let mut ctx = ExecCtx::new(&params).with_deadline(deadline);
    let threads = shared.config.exec_threads.max(1);
    let (rows, match_plan) = if let Some(pg) = &q.pattern {
        // MATCH: plan per request (the cost model prices zone-map survival
        // against the actual parameter values, and PGO observations from
        // earlier runs reprice mis-estimated segments), then execute the
        // chosen pipelines adaptively. Patterns read their own snapshot.
        if state.txn.is_some() {
            return Err(ProtoError::bad_request(
                "match queries run autocommit only (not inside an open transaction)",
            ));
        }
        let stats = gmatch::DbStats(db);
        let mp = gmatch::plan(
            pg,
            &stats,
            &params,
            Some(shared.engine.pgo()),
            gmatch::PlanChoice::Best,
        )
        .map_err(|e| ProtoError::bad_request(format!("match: {e}")))?;
        let backend = gmatch::Backend::Adaptive(&shared.engine, threads);
        // Same mapping as catalog queries: an MVTO lock conflict is the
        // retryable TXN_CONFLICT, not INTERNAL.
        let rows = gmatch::execute_match_ctx(&mp, db, backend, &mut ctx).map_err(query_err)?;
        // A result that arrives late is missed, not returned.
        ctx.check_interrupt().map_err(query_err)?;
        (rows, Some(mp.summary))
    } else {
        let mode = Mode::Adaptive(&shared.engine, threads);
        let mut run = |txn: &mut GraphTxn<'_>| -> Result<Vec<gquery::Row>, ProtoError> {
            let rows = ldbc::run_spec_ctx(&q.spec, txn, &mut ctx, &mode).map_err(query_err)?;
            ctx.check_interrupt().map_err(query_err)?;
            Ok(rows)
        };
        let rows = match state.txn.as_mut() {
            Some(txn) => run(txn)?,
            None => {
                // Autocommit: reads commit trivially, updates commit here;
                // an error (including a missed deadline) drops the
                // transaction, aborting any partial writes.
                let mut txn = db.begin();
                let rows = run(&mut txn)?;
                if q.is_update {
                    txn.commit().map_err(graph_err)?;
                }
                rows
            }
        };
        (rows, None)
    };
    let profile = ctx.profile;
    shared
        .stats
        .interpreted_morsels
        .fetch_add(profile.interpreted_morsels, Ordering::Relaxed);
    shared
        .stats
        .compiled_morsels
        .fetch_add(profile.compiled_morsels, Ordering::Relaxed);
    shared
        .stats
        .chunks_pruned
        .fetch_add(profile.chunks_pruned, Ordering::Relaxed);
    shared
        .stats
        .fast_path_morsels
        .fetch_add(profile.fast_path_morsels, Ordering::Relaxed);
    shared
        .stats
        .residual_rows_interp
        .fetch_add(profile.residual_rows_interp, Ordering::Relaxed);
    shared
        .stats
        .residual_rows_compiled
        .fetch_add(profile.residual_rows_compiled, Ordering::Relaxed);
    if profile.fallback.is_some() {
        shared.stats.fallback_total.fetch_add(1, Ordering::Relaxed);
    }

    let total = rows.len();
    let cap = shared.config.max_result_rows;
    let jrows: Vec<Json> = rows
        .iter()
        .take(cap)
        .map(|row| Json::Arr(row.iter().map(|s| slot_to_json(db, s)).collect()))
        .collect();

    let elapsed_us =
        gobs::saturating_elapsed(start).as_micros().min(u64::MAX as u128) as u64;
    shared.request_us.observe_us(elapsed_us);
    shared.slowlog.maybe_record(elapsed_us, || {
        slow_entry(
            &q,
            name.as_deref(),
            query.as_deref(),
            match_plan.as_deref(),
            elapsed_us,
            &profile,
        )
    });

    Ok(ok_response(vec![
        ("rows", Json::Arr(jrows)),
        ("row_count", Json::Int(total as i64)),
        ("truncated", Json::Bool(total > cap)),
        ("elapsed_us", Json::Int(elapsed_us.min(i64::MAX as u64) as i64)),
        ("profile", profile_json(&profile)),
    ]))
}

/// Capture one slow query: what the client asked for, the operator chain
/// of every pipeline step, and the full execution profile. Built only for
/// requests already past the threshold (the closure in `maybe_record`).
fn slow_entry(
    q: &NamedQuery,
    name: Option<&str>,
    query: Option<&str>,
    match_plan: Option<&str>,
    elapsed_us: u64,
    profile: &ExecProfile,
) -> SlowEntry {
    let at_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    // MATCH queries report the planner's chosen order + access paths;
    // everything else reports the fixed operator chain of its steps.
    let plan = match match_plan {
        Some(s) => s.to_string(),
        None => q
            .spec
            .steps
            .iter()
            .map(|s| s.plan.summary())
            .collect::<Vec<_>>()
            .join("; "),
    };
    SlowEntry {
        at_unix_ms,
        query: query.or(name).unwrap_or(q.spec.name).to_string(),
        plan,
        mode: profile.mode.map(|m| m.as_str().to_string()),
        elapsed_us,
        rows: profile.rows,
        morsels: profile.morsels,
        interpreted_morsels: profile.interpreted_morsels,
        compiled_morsels: profile.compiled_morsels,
        chunks_pruned: profile.chunks_pruned,
        fast_path_morsels: profile.fast_path_morsels,
        residual_rows_interp: profile.residual_rows_interp,
        residual_rows_compiled: profile.residual_rows_compiled,
        fallback: profile.fallback.map(|f| f.as_str().to_string()),
        segments: profile
            .segments
            .iter()
            .map(|(n, d)| ((*n).to_string(), d.as_micros().min(u64::MAX as u128) as u64))
            .collect(),
    }
}

/// Response metadata for the per-query [`ExecProfile`].
fn profile_json(p: &ExecProfile) -> Json {
    obj(vec![
        (
            "mode",
            p.mode
                .map_or(Json::Null, |m| Json::Str(m.as_str().into())),
        ),
        ("morsels", Json::Int(p.morsels as i64)),
        ("interpreted_morsels", Json::Int(p.interpreted_morsels as i64)),
        ("compiled_morsels", Json::Int(p.compiled_morsels as i64)),
        ("rows", Json::Int(p.rows as i64)),
        ("chunks_pruned", Json::Int(p.chunks_pruned as i64)),
        ("fast_path_morsels", Json::Int(p.fast_path_morsels as i64)),
        ("residual_rows", Json::Int(p.residual_rows() as i64)),
        (
            "residual_rows_interp",
            Json::Int(p.residual_rows_interp as i64),
        ),
        (
            "residual_rows_compiled",
            Json::Int(p.residual_rows_compiled as i64),
        ),
        (
            "fallback",
            p.fallback
                .map_or(Json::Null, |f| Json::Str(f.as_str().into())),
        ),
        (
            "segments",
            Json::Arr(
                p.segments
                    .iter()
                    .map(|(name, d)| {
                        obj(vec![
                            ("name", Json::Str((*name).into())),
                            ("us", Json::Int(d.as_micros() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "expansions",
            Json::Arr(
                p.expansions
                    .iter()
                    .map(|(desc, rows_in, rows_out)| {
                        obj(vec![
                            ("segment", Json::Str(desc.clone())),
                            ("rows_in", Json::Int((*rows_in).min(i64::MAX as u64) as i64)),
                            ("rows_out", Json::Int((*rows_out).min(i64::MAX as u64) as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn query_err(e: QueryError) -> ProtoError {
    match &e {
        QueryError::Graph(GraphError::Txn(TxnError::Locked | TxnError::WriteConflict)) => {
            ProtoError::new(ErrorCode::TxnConflict, e.to_string())
        }
        QueryError::DeadlineExceeded => {
            ProtoError::new(ErrorCode::DeadlineExceeded, e.to_string())
        }
        _ => ProtoError::new(ErrorCode::Internal, e.to_string()),
    }
}

fn graph_err(e: GraphError) -> ProtoError {
    match &e {
        GraphError::Txn(TxnError::Locked | TxnError::WriteConflict) => {
            ProtoError::new(ErrorCode::TxnConflict, e.to_string())
        }
        _ => ProtoError::new(ErrorCode::Internal, e.to_string()),
    }
}

fn do_sleep(shared: &Shared, ms: u64) -> Result<(String, Flow), ProtoError> {
    if !shared.config.enable_debug_ops {
        return Err(ProtoError::bad_request("debug ops are disabled"));
    }
    let Some(_permit) = shared.pool.try_acquire(shared.config.admission_wait) else {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(ProtoError::new(
            ErrorCode::ServerBusy,
            "worker pool saturated",
        ));
    };
    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
    let until = Instant::now() + Duration::from_millis(ms.min(60_000));
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() || shared.stop.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(left.min(Duration::from_millis(5)));
    }
    Ok((
        ok_response(vec![("slept_ms", Json::Int(ms as i64))]),
        Flow::Continue,
    ))
}

/// Resolve an optional label name to its dictionary code without
/// interning: an unknown label is a client mistake, not a new dictionary
/// entry.
fn label_code(db: &GraphDb, kind: &str, name: Option<&str>) -> Result<Option<u32>, ProtoError> {
    match name {
        None => Ok(None),
        Some(s) => db.dict().code_of(s).map(Some).ok_or_else(|| {
            ProtoError::bad_request(format!("unknown {kind} label {s:?}"))
        }),
    }
}

/// The `ANALYTICS` verb: get (or build) the CSR snapshot for the requested
/// labels, run one kernel over it on the morsel scheduler, and return a
/// summary plus snapshot provenance. Runs under an execution permit and
/// the request deadline like any query.
#[allow(clippy::too_many_arguments)]
fn do_analytics(
    shared: &Shared,
    db: &GraphDb,
    algo_name: &str,
    source: Option<u64>,
    iters: Option<u64>,
    damping: Option<f64>,
    node_label: Option<&str>,
    rel_label: Option<&str>,
    deadline_ms: Option<u64>,
) -> Result<String, ProtoError> {
    let start = Instant::now();
    let deadline = start
        + deadline_ms
            .map(|ms| Duration::from_millis(ms.min(3_600_000)))
            .unwrap_or(shared.config.default_deadline);
    if shared.stop.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    let spec = SnapshotSpec {
        node_label: label_code(db, "node", node_label)?,
        rel_label: label_code(db, "relationship", rel_label)?,
        node_props: Vec::new(),
    };

    let wait = shared
        .config
        .admission_wait
        .min(deadline.saturating_duration_since(Instant::now()));
    let Some(_permit) = shared.pool.try_acquire(wait) else {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(ProtoError::new(
            ErrorCode::ServerBusy,
            "worker pool saturated",
        ));
    };
    shared.stats.admitted.fetch_add(1, Ordering::Relaxed);

    // Reuse a current snapshot when one exists; a stale one is refreshed
    // from the topology journal, and the full build that stands behind it
    // can abort with a retryable conflict like any MVTO reader.
    let (snap, reused) = match shared.analytics.get_if_current(db, &spec) {
        Some(s) => (s, true),
        None => (
            shared.analytics.get_or_build(db, &spec).map_err(graph_err)?,
            false,
        ),
    };

    let workers = shared.config.exec_threads.max(1);
    let ctx = ExecCtx::new(&[]).with_deadline(deadline);
    let result = match algo_name {
        "bfs" => {
            let src = source.ok_or_else(|| ProtoError::bad_request("bfs needs \"source\""))?;
            let depth = algo::bfs(&snap, src, workers, &ctx).map_err(query_err)?;
            let reached = depth.iter().filter(|&&d| d != algo::UNREACHED).count();
            let max_depth = depth
                .iter()
                .filter(|&&d| d != algo::UNREACHED)
                .max()
                .copied()
                .unwrap_or(0);
            obj(vec![
                ("source", Json::Int(src as i64)),
                ("reached", Json::Int(reached as i64)),
                ("max_depth", Json::Int(max_depth as i64)),
            ])
        }
        "pagerank" => {
            let iters = iters.unwrap_or(10).clamp(1, 10_000) as usize;
            let d = damping.unwrap_or(0.85).clamp(0.0, 1.0);
            let rank = algo::pagerank(&snap, iters, d, workers, &ctx).map_err(query_err)?;
            // Top 10 by score (ties broken by dense index, ascending).
            let mut order: Vec<u32> = (0..rank.len() as u32).collect();
            order.sort_by(|&a, &b| {
                rank[b as usize]
                    .total_cmp(&rank[a as usize])
                    .then(a.cmp(&b))
            });
            let top: Vec<Json> = order
                .iter()
                .take(10)
                .map(|&i| {
                    obj(vec![
                        ("node", Json::Int(snap.node_id(i) as i64)),
                        ("rank", Json::Float(rank[i as usize])),
                    ])
                })
                .collect();
            obj(vec![
                ("iters", Json::Int(iters as i64)),
                ("damping", Json::Float(d)),
                ("sum", Json::Float(rank.iter().sum())),
                ("top", Json::Arr(top)),
            ])
        }
        "wcc" => {
            let labels = algo::wcc(&snap, workers, &ctx).map_err(query_err)?;
            let mut sizes: HashMap<u32, u64> = HashMap::new();
            for &l in &labels {
                *sizes.entry(l).or_default() += 1;
            }
            let largest = sizes.values().max().copied().unwrap_or(0);
            obj(vec![
                ("components", Json::Int(sizes.len() as i64)),
                ("largest", Json::Int(largest as i64)),
            ])
        }
        other => {
            return Err(ProtoError::bad_request(format!(
                "unknown algorithm {other:?} (bfs | pagerank | wcc)"
            )))
        }
    };

    let elapsed_us =
        gobs::saturating_elapsed(start).as_micros().min(u64::MAX as u128) as u64;
    shared.request_us.observe_us(elapsed_us);
    Ok(ok_response(vec![
        ("algo", Json::Str(algo_name.into())),
        ("result", result),
        ("snapshot", snapshot_json(&snap, reused)),
        ("elapsed_us", Json::Int(elapsed_us.min(i64::MAX as u64) as i64)),
    ]))
}

/// Snapshot provenance for analytics responses.
fn snapshot_json(snap: &CsrSnapshot, reused: bool) -> Json {
    let st = snap.stats();
    obj(vec![
        ("nodes", Json::Int(snap.node_count() as i64)),
        ("edges", Json::Int(snap.edge_count() as i64)),
        ("read_ts", Json::Int(snap.read_ts().min(i64::MAX as u64) as i64)),
        ("epoch", Json::Int(snap.epoch().min(i64::MAX as u64) as i64)),
        ("reused", Json::Bool(reused)),
        ("refreshed", Json::Bool(st.refreshed)),
        ("changes", Json::Int(st.changes as i64)),
        (
            "build_us",
            Json::Int(st.build_time.as_micros().min(i64::MAX as u128) as i64),
        ),
        ("fast_chunks", Json::Int(st.fast_chunks as i64)),
        ("slow_chunks", Json::Int(st.slow_chunks as i64)),
    ])
}

/// The `CHECKPOINT` verb: flush the deferred data tail, fence, truncate
/// the undo log. Reports the pmem work it took, so ingest drivers can see
/// the fence cost land here instead of on every commit.
fn do_checkpoint(_shared: &Shared, db: &GraphDb) -> Result<String, ProtoError> {
    let before = db.pool().stats().snapshot();
    db.checkpoint().map_err(graph_err)?;
    let delta = db.pool().stats().snapshot() - before;
    Ok(ok_response(vec![
        ("fences", Json::Int(delta.fences as i64)),
        ("lines_flushed", Json::Int(delta.lines_flushed as i64)),
        ("sync_mode", Json::Str(db.sync_mode().render())),
    ]))
}

/// The `CONFIG` verb: optionally retune the durability ladder, then dump
/// every registered `PMEMGRAPH_*` knob (from [`gconfig::effective`]) plus
/// the live engine state the knobs feed.
fn do_config(
    shared: &Shared,
    db: &GraphDb,
    set_sync_mode: Option<&str>,
) -> Result<String, ProtoError> {
    if let Some(s) = set_sync_mode {
        let mode = SyncMode::parse(s)
            .map_err(|e| ProtoError::bad_request(format!("bad sync_mode: {e}")))?;
        db.set_sync_mode(mode).map_err(graph_err)?;
    }
    let knobs: Vec<Json> = gconfig::effective()
        .into_iter()
        .map(|e| {
            obj(vec![
                ("name", Json::Str(e.name.into())),
                ("value", Json::Str(e.value)),
                ("default", Json::Bool(e.is_default)),
                ("help", Json::Str(e.help.into())),
            ])
        })
        .collect();
    let live = obj(vec![
        ("sync_mode", Json::Str(db.sync_mode().render())),
        ("group_commit", Json::Bool(db.group_commit())),
        ("read_accel", Json::Bool(db.read_accel())),
        (
            "mutation_epoch",
            Json::Int(db.mutation_epoch().min(i64::MAX as u64) as i64),
        ),
        ("analytics", analytics_section(shared, db)),
        ("workers", Json::Int(shared.config.workers as i64)),
        ("exec_threads", Json::Int(shared.config.exec_threads as i64)),
    ]);
    Ok(ok_response(vec![
        ("knobs", Json::Arr(knobs)),
        ("live", live),
    ]))
}

/// The `CONFIG` / `STATS` analytics section: the snapshot cache and the
/// topology journal that feeds its refreshes.
fn analytics_section(shared: &Shared, db: &GraphDb) -> Json {
    let int = |n: u64| Json::Int(n.min(i64::MAX as u64) as i64);
    obj(vec![
        ("cached_snapshots", int(shared.analytics.len() as u64)),
        ("refreshes", int(shared.analytics.refreshes())),
        ("fallbacks", int(shared.analytics.fallbacks())),
        ("journal_len", int(db.mgr().topology_journal().len() as u64)),
    ])
}

/// The `JITCACHE` verb: inspect or manage the engine's code cache.
/// `status` reports the live cache sizes plus the hottest PGO plan
/// profiles; `warm` preloads every disk-cached pipeline and expression
/// into memory (the explicit form of what a lookup does lazily per
/// plan); `clear` drops both the in-memory code and the on-disk
/// `.jitcache` file.
fn do_jitcache(shared: &Shared, action: &str) -> Result<String, ProtoError> {
    let warmed = match action {
        "status" => 0,
        "warm" => shared.engine.warm_from_disk(),
        "clear" => {
            shared.engine.clear_code_cache();
            shared
                .engine
                .clear_disk_cache()
                .map_err(|e| ProtoError::new(ErrorCode::Internal, e.to_string()))?;
            0
        }
        other => {
            return Err(ProtoError::bad_request(format!(
                "unknown jitcache action {other:?} (status | warm | clear)"
            )))
        }
    };
    let pgo: Vec<Json> = shared
        .engine
        .pgo()
        .snapshot()
        .into_iter()
        .take(8)
        .map(|(fp, rows, runs, rps)| {
            obj(vec![
                ("plan", Json::Str(format!("{fp:016x}"))),
                ("rows", Json::Int(rows.min(i64::MAX as u64) as i64)),
                ("runs", Json::Int(runs.min(i64::MAX as u64) as i64)),
                ("rows_per_sec", Json::Int(rps.min(i64::MAX as u64) as i64)),
            ])
        })
        .collect();
    Ok(ok_response(vec![
        ("action", Json::Str(action.into())),
        ("warmed", Json::Int(warmed as i64)),
        (
            "expr_cache_len",
            Json::Int(shared.engine.expr_cache_len() as i64),
        ),
        (
            "disk_cache_len",
            Json::Int(shared.engine.disk_cache_len() as i64),
        ),
        (
            "disk_cache_bytes",
            Json::Int(shared.engine.disk_cache_bytes().min(i64::MAX as u64) as i64),
        ),
        ("pgo", Json::Arr(pgo)),
    ]))
}

/// Assemble the `STATS` response: one JSON object per subsystem, all
/// counters monotonic except the gauges under `sessions`/`jit`.
///
/// A thin view over one registry [`Snapshot`] — the same source the
/// Prometheus exposition renders — so the two surfaces can never drift.
/// The JSON shape (sections and key names) predates the registry and is
/// kept stable for existing consumers.
fn stats_response(shared: &Shared, db: &GraphDb) -> String {
    let snap = Snapshot::collect(&[&shared.registry]);
    let v = |name: &str| Json::Int(snap.value(name).unwrap_or(0));
    ok_response(vec![
        (
            "sessions",
            obj(vec![
                ("active", v("pmemgraph_server_sessions_active")),
                ("in_txn", v("pmemgraph_server_sessions_in_txn")),
                ("opened", v("pmemgraph_server_sessions_opened_total")),
                ("expired", v("pmemgraph_server_sessions_expired_total")),
                (
                    "disconnect_rollbacks",
                    v("pmemgraph_server_disconnect_rollbacks_total"),
                ),
            ]),
        ),
        (
            "admission",
            obj(vec![
                ("workers", v("pmemgraph_server_workers")),
                ("admitted", v("pmemgraph_server_admitted_total")),
                ("rejected", v("pmemgraph_server_rejected_total")),
            ]),
        ),
        (
            "requests",
            obj(vec![
                ("total", v("pmemgraph_server_requests_total")),
                ("errors", v("pmemgraph_server_errors_total")),
                (
                    "deadline_misses",
                    v("pmemgraph_server_deadline_misses_total"),
                ),
            ]),
        ),
        (
            "net",
            obj(vec![
                ("mode", Json::Str(shared.config.net_mode.as_str().into())),
                ("open_conns", v("pmemgraph_server_open_conns")),
                ("max_conns", Json::Int(shared.config.max_sessions as i64)),
                (
                    "pipeline_depth_cap",
                    Json::Int(shared.config.pipeline_depth as i64),
                ),
                (
                    "net_workers",
                    Json::Int(shared.config.net_workers_effective() as i64),
                ),
                ("lanes", v("pmemgraph_server_lanes")),
                ("lane_requests", v("pmemgraph_server_lane_requests_total")),
                ("lane_moves", v("pmemgraph_server_lane_moves_total")),
                ("inflight", v("pmemgraph_server_net_inflight")),
                ("accepts_failed", v("pmemgraph_server_accepts_failed_total")),
                (
                    "reactor_wakeups",
                    v("pmemgraph_server_reactor_wakeups_total"),
                ),
                ("epoll_waits", v("pmemgraph_server_epoll_waits_total")),
                ("read_pauses", v("pmemgraph_server_read_pauses_total")),
            ]),
        ),
        (
            "txn",
            obj(vec![
                ("begun", v("pmemgraph_txn_begun_total")),
                ("commits", v("pmemgraph_txn_commits_total")),
                ("aborts", v("pmemgraph_txn_aborts_total")),
                ("conflicts", v("pmemgraph_txn_conflicts_total")),
                ("gc_pruned", v("pmemgraph_txn_gc_pruned_total")),
            ]),
        ),
        (
            "jit",
            obj(vec![
                ("compiles", v("pmemgraph_jit_compiles_total")),
                ("cache_hits", v("pmemgraph_jit_cache_hits_total")),
                ("evictions", v("pmemgraph_jit_evictions_total")),
                ("cache_len", v("pmemgraph_jit_code_cache_entries")),
                ("cache_capacity", v("pmemgraph_jit_code_cache_capacity")),
                ("expr_cache_len", v("pmemgraph_jit_expr_cache_entries")),
                ("disk_cache_len", v("pmemgraph_jit_disk_cache_entries")),
                ("disk_cache_bytes", v("pmemgraph_jit_cache_bytes")),
            ]),
        ),
        (
            "exec",
            obj(vec![
                ("threads", v("pmemgraph_server_exec_threads")),
                (
                    "interpreted_morsels",
                    v("pmemgraph_exec_interpreted_morsels_total"),
                ),
                ("compiled_morsels", v("pmemgraph_exec_compiled_morsels_total")),
                ("chunks_pruned", v("pmemgraph_exec_chunks_pruned_total")),
                (
                    "fast_path_morsels",
                    v("pmemgraph_exec_fast_path_morsels_total"),
                ),
                ("residual_rows", v("pmemgraph_exec_residual_rows_total")),
                (
                    "residual_rows_interp",
                    v("pmemgraph_exec_residual_rows_interp_total"),
                ),
                (
                    "residual_rows_compiled",
                    v("pmemgraph_exec_residual_rows_compiled_total"),
                ),
                ("fallback_total", v("pmemgraph_exec_fallback_total")),
            ]),
        ),
        (
            "maintenance",
            obj(vec![
                ("runs", v("pmemgraph_server_maintenance_runs_total")),
                ("reclaimed_slots", v("pmemgraph_server_reclaimed_slots_total")),
                ("vacuumed_props", v("pmemgraph_server_vacuumed_props_total")),
            ]),
        ),
        (
            "pmem",
            obj(vec![
                ("lines_flushed", v("pmemgraph_pmem_lines_flushed_total")),
                ("fences", v("pmemgraph_pmem_fences_total")),
                ("blocks_flushed", v("pmemgraph_pmem_blocks_flushed_total")),
                ("write_bytes", v("pmemgraph_pmem_write_bytes_total")),
                ("read_bytes", v("pmemgraph_pmem_read_bytes_total")),
                ("allocs", v("pmemgraph_pmem_allocs_total")),
                ("arena_refills", v("pmemgraph_pmem_arena_refills_total")),
                ("commit_groups", v("pmemgraph_pmem_commit_groups_total")),
                ("grouped_txns", v("pmemgraph_pmem_grouped_txns_total")),
            ]),
        ),
        (
            "graph",
            obj(vec![
                ("nodes", v("pmemgraph_graph_nodes")),
                ("rels", v("pmemgraph_graph_rels")),
            ]),
        ),
        ("analytics", analytics_section(shared, db)),
        ("shards", shards_section(&snap)),
    ])
}

/// The `STATS` shards section: per-shard series (commits, fences, nodes —
/// the labeled families registered by `metrics::register_shard_series`)
/// plus family aggregates. The single-pool server reports one shard.
fn shards_section(snap: &Snapshot) -> Json {
    let count = snap
        .entries
        .iter()
        .filter(|e| e.name == "pmemgraph_shard_txn_commits_total")
        .count();
    let mut per_shard = Vec::with_capacity(count);
    for i in 0..count {
        let labels = format!("shard=\"{i}\"");
        let lv = |name: &str| Json::Int(snap.value_labeled(name, &labels).unwrap_or(0));
        per_shard.push(obj(vec![
            ("shard", Json::Int(i as i64)),
            ("commits", lv("pmemgraph_shard_txn_commits_total")),
            ("aborts", lv("pmemgraph_shard_txn_aborts_total")),
            ("conflicts", lv("pmemgraph_shard_txn_conflicts_total")),
            ("fences", lv("pmemgraph_shard_pmem_fences_total")),
            ("lines_flushed", lv("pmemgraph_shard_pmem_lines_flushed_total")),
            ("write_bytes", lv("pmemgraph_shard_pmem_write_bytes_total")),
            ("nodes", lv("pmemgraph_shard_nodes")),
            ("rels", lv("pmemgraph_shard_rels")),
        ]));
    }
    let sum = |name: &str| Json::Int(snap.sum(name).unwrap_or(0));
    obj(vec![
        ("count", Json::Int(count as i64)),
        ("commits", sum("pmemgraph_shard_txn_commits_total")),
        ("fences", sum("pmemgraph_shard_pmem_fences_total")),
        ("nodes", sum("pmemgraph_shard_nodes")),
        ("rels", sum("pmemgraph_shard_rels")),
        (
            "cross_shard_commits",
            Json::Int(snap.value("pmemgraph_cross_shard_commits_total").unwrap_or(0)),
        ),
        ("per_shard", Json::Arr(per_shard)),
    ])
}

/// Assemble the `SLOWLOG` response: the captured ring (oldest first),
/// optionally draining it after the read.
fn slowlog_response(shared: &Shared, clear: bool) -> String {
    let entries = shared.slowlog.entries();
    let jentries: Vec<Json> = entries.iter().map(slow_entry_json).collect();
    if clear {
        shared.slowlog.clear();
    }
    ok_response(vec![
        ("entries", Json::Arr(jentries)),
        (
            "dropped",
            Json::Int(shared.slowlog.dropped().min(i64::MAX as u64) as i64),
        ),
        (
            "threshold_us",
            Json::Int(shared.slowlog.threshold_us().min(i64::MAX as u64) as i64),
        ),
    ])
}

fn slow_entry_json(e: &SlowEntry) -> Json {
    obj(vec![
        ("at_unix_ms", Json::Int(e.at_unix_ms.min(i64::MAX as u64) as i64)),
        ("query", Json::Str(e.query.clone())),
        ("plan", Json::Str(e.plan.clone())),
        (
            "mode",
            e.mode.as_ref().map_or(Json::Null, |m| Json::Str(m.clone())),
        ),
        ("elapsed_us", Json::Int(e.elapsed_us.min(i64::MAX as u64) as i64)),
        ("rows", Json::Int(e.rows as i64)),
        ("morsels", Json::Int(e.morsels as i64)),
        ("interpreted_morsels", Json::Int(e.interpreted_morsels as i64)),
        ("compiled_morsels", Json::Int(e.compiled_morsels as i64)),
        ("chunks_pruned", Json::Int(e.chunks_pruned as i64)),
        ("fast_path_morsels", Json::Int(e.fast_path_morsels as i64)),
        (
            "residual_rows",
            Json::Int((e.residual_rows_interp + e.residual_rows_compiled) as i64),
        ),
        (
            "residual_rows_interp",
            Json::Int(e.residual_rows_interp as i64),
        ),
        (
            "residual_rows_compiled",
            Json::Int(e.residual_rows_compiled as i64),
        ),
        (
            "fallback",
            e.fallback
                .as_ref()
                .map_or(Json::Null, |f| Json::Str(f.clone())),
        ),
        (
            "segments",
            Json::Arr(
                e.segments
                    .iter()
                    .map(|(name, us)| {
                        obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("us", Json::Int((*us).min(i64::MAX as u64) as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
