//! The evented network front end (DESIGN.md §15): `L = min(net workers,
//! cores)` lanes own the sockets behind an epoll instance each, and a
//! fixed pool of net workers executes the requests a lane may not answer
//! itself.
//!
//! Division of labour:
//!
//! * **Lanes** (`gserver-lane-N`) — every lane is one instance of
//!   [`reactor_loop`] over its own poller, waker and private connection
//!   map. A lane reads, frames newline-JSON into requests, writes response
//!   bytes, and is the only thread that touches its poller or its
//!   connections' buffers. A connection is a state machine: read buffer,
//!   write buffer + offset, current interest set, paused/eof/closing
//!   flags. Lane 0 also owns the listener and deals accepted sockets
//!   round-robin through the per-lane inboxes.
//! * **Answering on the lane.** A request that cannot block
//!   ([`Job::cannot_block`]: `hello`, `ping`, `prepare`, `stats`,
//!   `metrics`, `slowlog`, and an `execute` of an index-headed read when
//!   an execution slot is free) is dispatched by the lane that read it,
//!   while the connection's work cell is idle, and its frame joins the
//!   write buffer: one `write` per readable event however many pipelined
//!   lines it carried, no hand-off, no wake-up.
//! * **Net workers** (`gserver-net-N`, `PMEMGRAPH_NET_WORKERS`) — pull a
//!   connection's work cell off the ready queue, pop one request at a
//!   time, run it through the same [`Job::run`] every front end uses, and
//!   push the response frame back. A cell is scheduled on at most one
//!   worker at a time and requests pop in FIFO order, so **pipelined
//!   responses keep request order** and the session's open transaction
//!   has exactly one owner.
//! * **Only lane 0 hands off.** The ready queue, the flush list and the
//!   eventfd round trip back are lane 0's alone: a connection on another
//!   lane whose next request needs a worker is moved to lane 0 once, whole
//!   (buffers, flags, work cell with the request that needed the worker
//!   queued in it, undecoded lines behind it), and stays. Writers,
//!   scanners and mixed connections therefore end up where a single
//!   reactor had them — one busy loop shares its wake-ups between them;
//!   several half-idle ones each pay their own (`update` p50 141 →
//!   175–199 µs when every lane handed off).
//!
//! Backpressure never says `SERVER_BUSY`: a connection with
//! `pipeline_depth` undone requests — or any lane-0 connection while the
//! global in-flight count sits above the watermark, or any connection on
//! any lane whose peer has left more than [`WBUF_HIGH`] response bytes
//! unread — simply stops being *read*. Its socket buffer fills, TCP flow
//! control pushes back on the client, and read interest resumes once
//! responses drain. The only
//! remaining busy-rejections are the session-table bound at accept and
//! the admission semaphore around execution, both of which mean the
//! *engine* (not the network layer) is saturated.
//!
//! Transaction lifetime: a session's open `GraphTxn<'db>` borrows the
//! database, but here it must live in heap state that hops between
//! threads. The borrow is transmuted to `'static` ([`static_db`]) when the
//! state cell is created. Safety rests on a drop-ordering invariant: every
//! `ConnState` is dropped by a net worker or by a lane (teardown of its
//! own connections; lane 0, the last lane out, also empties every inbox)
//! — all of which hold an `Arc` of the server's shared state, which owns
//! the `Arc<SnbDb>` the borrow points into — and `ServerHandle::join_all`
//! joins those threads before the last `Arc` can unwind. No `ConnState`
//! outlives the database.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use graphcore::GraphDb;
use parking_lot::{Condvar, Mutex};

use crate::reactor::{Event, Interest, Poller, Waker, TOKEN_FIRST_CONN, TOKEN_LISTENER, TOKEN_WAKER};
use crate::server::{
    classify_accept_error, greeting, next_backoff, session_full_response, AcceptError, ConnState,
    Flow, Job, Shared, ACCEPT_BACKOFF_START, MAX_LINE,
};
use crate::session::SessionCell;

/// Abort any transaction still open in a dropped session state — the
/// evented analogue of the threaded loop's end-of-connection rollback.
fn drop_state(shared: &Shared, mut state: ConnState<'_>) {
    if let Some(txn) = state.txn.take() {
        txn.abort();
        shared
            .stats
            .disconnect_rollbacks
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Lane poll cadence: how stale the stop flag can get while idle.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Faster cadence while draining, so shutdown converges quickly.
const DRAIN_TICK: Duration = Duration::from_millis(10);

/// Unsent response bytes above which a connection stops being read (and
/// its backlog stops being answered): a peer that pipelines requests and
/// never reads the answers would otherwise grow `wbuf` without bound, on
/// any lane — a lane-answered flood has no in-flight count to cap it.
const WBUF_HIGH: usize = 1 << 20;
/// Reading resumes once the peer has drained the buffer below this.
const WBUF_LOW: usize = WBUF_HIGH / 4;

/// One lane's cross-thread half: what lane 0 (dealing), the other lanes
/// (moving), the net workers (flushing) and `request_shutdown` reach it
/// through. Everything else a lane owns is private to its thread.
struct Lane {
    poller: Poller,
    waker: Waker,
    /// Connections handed to this lane — freshly accepted ones dealt by
    /// lane 0, or (lane 0's inbox) ones moved here for the worker path.
    inbox: Mutex<Vec<Conn>>,
}

/// Evented-mode coordination shared by the lanes, the net workers and
/// `ServerHandle`/`request_shutdown`.
pub(crate) struct NetShared {
    lanes: Vec<Lane>,
    /// Lanes still running; the last one out publishes `done`.
    live_lanes: AtomicUsize,
    /// Work cells with decoded-but-unscheduled requests (lane 0's
    /// connections only).
    ready: Mutex<VecDeque<Arc<ConnWork>>>,
    ready_cv: Condvar,
    /// Tokens with freshly produced response frames, for lane 0.
    flush: Mutex<Vec<u64>>,
    /// Set after the last lane's teardown; workers exit once the ready
    /// queue is empty and this is up.
    done: AtomicBool,
}

impl NetShared {
    pub(crate) fn new(lanes: usize) -> std::io::Result<NetShared> {
        let lanes = (0..lanes.max(1))
            .map(|_| {
                let poller = Poller::new()?;
                let waker = Waker::new(&poller, TOKEN_WAKER)?;
                Ok(Lane {
                    poller,
                    waker,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<Vec<Lane>>>()?;
        Ok(NetShared {
            live_lanes: AtomicUsize::new(lanes.len()),
            lanes,
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            flush: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
        })
    }

    /// Nudge every lane out of `epoll_wait` and every worker out of its
    /// condvar (shutdown).
    pub(crate) fn wake_all(&self) {
        for lane in &self.lanes {
            lane.waker.wake();
        }
        self.ready_cv.notify_all();
    }

    /// A worker produced a response. Workers only ever run cells of
    /// lane-0 connections — no other lane schedules one, and a connection
    /// moves while its cell is idle — so the flush list is lane 0's.
    fn notify_flush(&self, token: u64) {
        let wake = {
            let mut f = self.flush.lock();
            f.push(token);
            f.len() == 1
        };
        // One eventfd write per lane round, not per response: the lane
        // drains the whole flush list each wakeup, so only the transition
        // from empty needs a nudge.
        if wake {
            self.lanes[0].waker.wake();
        }
    }
}

/// Worker-visible half of a connection. `inner` is the only lock shared
/// between the owning lane and workers, held for queue surgery only —
/// never across request execution or socket I/O.
pub(crate) struct ConnWork {
    token: u64,
    sid: u64,
    inner: Mutex<WorkInner>,
}

struct WorkInner {
    /// Parsed requests awaiting a worker (FIFO).
    pending: VecDeque<Job>,
    /// Response frames awaiting the lane's write path (FIFO).
    responses: VecDeque<String>,
    /// Session state; `None` exactly while a worker or the owning lane is
    /// executing one of this connection's requests.
    state: Option<ConnState<'static>>,
    /// In the ready queue or on a worker right now.
    scheduled: bool,
    /// The lane tore the connection down; whoever holds the state drops
    /// it (aborting any open transaction).
    closed: bool,
    /// A processed request asked to close (quit/shutdown): flush, then
    /// close.
    close_after: bool,
}

impl ConnWork {
    /// Check the session state out for the owning lane — only while the
    /// cell is idle (nothing queued, executing or waiting to be flushed),
    /// so an answer given on the lane can never overtake a queued one.
    /// Nobody else looks at an idle cell: only the owning lane queues
    /// work on it or closes it. (`scheduled` may still be up — a worker
    /// between its last response and finding `pending` empty; it touches
    /// the state only after popping a job, and none can appear while the
    /// lane, the only producer, is busy answering.)
    fn take_idle(&self) -> Option<ConnState<'static>> {
        let mut g = self.inner.lock();
        if g.pending.is_empty() && g.responses.is_empty() {
            g.state.take()
        } else {
            None
        }
    }

    fn park(&self, state: ConnState<'static>) {
        self.inner.lock().state = Some(state);
    }
}

// Compile-time proof the cross-thread state is actually sendable.
fn _assert_send<T: Send>() {}
#[allow(dead_code)]
fn _assertions() {
    _assert_send::<ConnState<'static>>();
    _assert_send::<Arc<ConnWork>>();
    _assert_send::<Conn>();
}

/// Lane-private connection state machine (crosses threads only through an
/// inbox, unregistered).
struct Conn {
    stream: TcpStream,
    sid: u64,
    session: Arc<SessionCell>,
    /// Unparsed input bytes (tail may be a partial line).
    rbuf: Vec<u8>,
    /// Outgoing bytes; `wpos` is how much of it is already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Interest currently registered with the owning lane's poller.
    interest: Interest,
    /// Read interest withdrawn for backpressure (in-flight caps).
    paused: bool,
    /// Read interest withdrawn because the peer is not reading: more than
    /// [`WBUF_HIGH`] unsent bytes, until fewer than [`WBUF_LOW`].
    unread: bool,
    /// Peer finished sending (EOF seen).
    eof: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// Complete lines are still in `rbuf`: the lane answered its share for
    /// one event and comes back after serving the other ready sockets.
    backlog: bool,
    work: Arc<ConnWork>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    /// Requests decoded but not yet answered (queued + executing).
    fn inflight(&self) -> usize {
        let g = self.work.inner.lock();
        g.pending.len() + usize::from(g.state.is_none())
    }
}

/// The database behind `shared`, with the borrow every parked
/// `ConnState<'static>` carries.
fn static_db(shared: &Arc<Shared>) -> &'static GraphDb {
    // SAFETY: see the module docs — the borrow is reached through
    // `Arc<Shared>` (kept alive by the calling lane or worker thread), and
    // every `ConnState` holding a `GraphTxn<'static>` is dropped before
    // the server's threads are joined.
    unsafe { &*Arc::as_ptr(&shared.snb.db) }
}

/// What every step of a lane's loop needs and none of them changes.
struct Ctx {
    idx: usize,
    shared: Arc<Shared>,
    net: Arc<NetShared>,
    db: &'static GraphDb,
}

impl Ctx {
    fn lane(&self) -> &Lane {
        &self.net.lanes[self.idx]
    }
}

/// Spawn the lanes and the net-worker pool. Returns lane 0's handle (the
/// `accept` slot of `ServerHandle`) plus the other lanes' and the workers'.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    let net = shared.net.clone().expect("evented spawn without NetShared");
    let n_workers = shared.config.net_workers_effective();
    let mut threads = Vec::with_capacity(n_workers + net.lanes.len());
    for i in 0..n_workers {
        let shared = shared.clone();
        let net = net.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("gserver-net-{i}"))
                .spawn(move || worker_loop(shared, net))?,
        );
    }
    let mut listener = Some(listener);
    let mut lanes = Vec::with_capacity(net.lanes.len());
    for idx in 0..net.lanes.len() {
        let cx = Ctx {
            idx,
            db: static_db(&shared),
            shared: shared.clone(),
            net: net.clone(),
        };
        let listener = listener.take();
        lanes.push(
            thread::Builder::new()
                .name(format!("gserver-lane-{idx}"))
                .spawn(move || reactor_loop(listener, cx))?,
        );
    }
    let lane0 = lanes.remove(0);
    threads.extend(lanes);
    Ok((lane0, threads))
}

// ---------------------------------------------------------------------
// Net workers
// ---------------------------------------------------------------------

fn worker_loop(shared: Arc<Shared>, net: Arc<NetShared>) {
    let db = static_db(&shared);
    loop {
        let work = {
            let mut q = net.ready.lock();
            loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                if net.done.load(Ordering::SeqCst) {
                    return;
                }
                net.ready_cv.wait(&mut q);
            }
        };
        run_cell(&shared, &net, db, &work);
    }
}

/// Drain one connection's pending queue: serial FIFO execution keeps
/// responses in request order and the txn single-owner.
fn run_cell(shared: &Shared, net: &NetShared, db: &'static GraphDb, work: &ConnWork) {
    loop {
        let (job, mut state) = {
            let mut g = work.inner.lock();
            if g.closed {
                let st = g.state.take();
                g.scheduled = false;
                drop(g);
                if let Some(st) = st {
                    drop_state(shared, st);
                }
                return;
            }
            let Some(job) = g.pending.pop_front() else {
                g.scheduled = false;
                return;
            };
            let Some(state) = g.state.take() else {
                // Serial ownership makes this unreachable; put the job
                // back rather than corrupt order if it ever isn't.
                g.pending.push_front(job);
                g.scheduled = false;
                return;
            };
            (job, state)
        };

        let (response, flow) = job.run(shared, db, work.sid, &mut state);

        let mut g = work.inner.lock();
        shared.stats.net_inflight.fetch_sub(1, Ordering::Relaxed);
        let first_response = g.responses.is_empty();
        g.responses.push_back(response);
        if matches!(flow, Flow::Close) {
            g.close_after = true;
            // Parity with the threaded loop: input after quit is unread.
            let dropped = g.pending.len() as u64;
            g.pending.clear();
            if dropped > 0 {
                shared.stats.net_inflight.fetch_sub(dropped, Ordering::Relaxed);
            }
        }
        if g.closed {
            g.scheduled = false;
            drop(g);
            drop_state(shared, state);
            return;
        }
        g.state = Some(state);
        drop(g);
        // A token whose responses queue was already non-empty is already
        // on the flush list (or being drained this very round — in which
        // case that drain takes this response too).
        if first_response {
            net.notify_flush(work.token);
        }
    }
}

// ---------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------

/// The last lane out publishes `done` + wakes everyone, even if a lane
/// unwinds, so workers can never hang on the condvar.
struct LaneGuard(Arc<NetShared>);

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if self.0.live_lanes.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.done.store(true, Ordering::SeqCst);
            self.0.wake_all();
        }
    }
}

/// What a lane's thread alone touches.
struct LaneState {
    conns: HashMap<u64, Conn>,
    /// Connections with a backlog of complete lines to come back to.
    resume: Vec<u64>,
    /// Some connection is paused for the global watermark (lane 0).
    global_paused: bool,
    /// Sockets accepted so far (lane 0): the next one's token and lane.
    accepted: u64,
    accept_backoff: Duration,
}

/// What serving an event decided about the connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum After {
    Keep,
    Close,
    /// Its next request needs a net worker and this is not lane 0.
    Move,
}

/// One lane. Lane 0 is the instance that got the listener.
fn reactor_loop(mut listener: Option<TcpListener>, cx: Ctx) {
    let _done = LaneGuard(cx.net.clone());
    let (shared, net) = (&cx.shared, &cx.net);
    let mut st = LaneState {
        conns: HashMap::new(),
        resume: Vec::new(),
        global_paused: false,
        accepted: 0,
        accept_backoff: ACCEPT_BACKOFF_START,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    if let Some(l) = &listener {
        if cx
            .lane()
            .poller
            .register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
    }

    loop {
        let tick = if !st.resume.is_empty() {
            Duration::ZERO
        } else if drain_deadline.is_some() {
            DRAIN_TICK
        } else {
            POLL_TICK
        };
        shared.stats.epoll_waits.fetch_add(1, Ordering::Relaxed);
        if cx.lane().poller.wait(&mut events, tick).is_err() {
            break;
        }
        // A backlog is served like one more readable event, after the
        // sockets that became ready in the meantime.
        for token in std::mem::take(&mut st.resume) {
            if !events.iter().any(|e| e.token == token) {
                events.push(Event {
                    token,
                    readable: true,
                    writable: false,
                });
            }
        }

        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if drain_deadline.is_none() {
                        if let Some(l) = &listener {
                            accept_ready(l, &mut st, &cx);
                        }
                    }
                }
                TOKEN_WAKER => {
                    cx.lane().waker.drain();
                    shared.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
                }
                _ => handle(&mut st, &cx, ev),
            }
        }

        let arrived = std::mem::take(&mut *cx.lane().inbox.lock());
        for conn in arrived {
            adopt(&mut st, &cx, conn);
        }
        if cx.idx == 0 {
            flush_responses(&mut st, &cx);
        }

        // Global backpressure release: once the in-flight queue halves,
        // resume reads on every connection paused only for the watermark.
        if st.global_paused {
            let inflight = shared.stats.net_inflight.load(Ordering::Relaxed);
            if inflight < shared.config.global_inflight_high() / 2 {
                st.global_paused = false;
                for conn in st.conns.values_mut() {
                    maybe_unpause(conn, &cx);
                }
            }
        }

        if drain_deadline.is_none() && shared.stop.load(Ordering::SeqCst) {
            // Drain: stop accepting (close the listen socket so new
            // connects are refused), finish decoded requests, flush, then
            // tear down. Idle connections don't prolong the window — the
            // threaded front end kills them within one read tick too.
            drain_deadline = Some(Instant::now() + shared.config.drain_timeout);
            if let Some(l) = listener.take() {
                let _ = cx.lane().poller.deregister(l.as_raw_fd());
            }
        }
        if let Some(deadline) = drain_deadline {
            // Lane 0 is where a connection goes whose request needs a
            // worker mid-drain, so it leaves last — asked before it looks
            // at its inbox: a lane that is out has pushed all it will.
            let may_leave = cx.idx != 0 || net.live_lanes.load(Ordering::SeqCst) == 1;
            let busy = !cx.lane().inbox.lock().is_empty()
                || st.conns.values().any(|c| {
                    if !c.flushed() || c.backlog {
                        return true;
                    }
                    let g = c.work.inner.lock();
                    !g.pending.is_empty() || !g.responses.is_empty() || g.state.is_none()
                });
            if may_leave && (!busy || Instant::now() >= deadline) {
                break;
            }
        }
    }

    let tokens: Vec<u64> = st.conns.keys().copied().collect();
    for t in tokens {
        close_conn(&mut st, &cx, t);
    }
    if cx.idx == 0 {
        // Nothing deals or moves any more; whatever never got adopted
        // (dealt to a lane that had already left) ends here.
        for lane in &net.lanes {
            for conn in std::mem::take(&mut *lane.inbox.lock()) {
                teardown(conn, &cx);
            }
        }
    }
    // LaneGuard: the last lane out publishes `done` and wakes the workers.
}

/// Serve one readiness event (or backlog continuation, or adoption) of
/// one connection: read and answer, write once, then act on the outcome.
fn handle(st: &mut LaneState, cx: &Ctx, ev: Event) {
    let mut after = After::Keep;
    if let Some(conn) = st.conns.get_mut(&ev.token) {
        // A connection whose peer is not reading is not served either: a
        // late event or its backlog waits for the write side to drain.
        if ev.readable && !conn.unread {
            after = on_readable(conn, cx, &mut st.global_paused);
        }
        // One write per event, however many pipelined lines it answered.
        // (A moving connection is written by lane 0 when it adopts it.)
        if after == After::Keep && (ev.writable || !conn.flushed()) && !try_write(conn, cx) {
            after = After::Close;
        }
        if after == After::Keep && conn_should_close(conn) {
            after = After::Close;
        }
        if after == After::Keep && conn.backlog && !conn.unread {
            st.resume.push(ev.token);
        }
    }
    match after {
        After::Keep => {}
        After::Close => close_conn(st, cx, ev.token),
        After::Move => move_conn(st, cx, ev.token),
    }
}

fn accept_ready(listener: &TcpListener, st: &mut LaneState, cx: &Ctx) {
    let shared = &cx.shared;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                st.accept_backoff = ACCEPT_BACKOFF_START;
                let Some(conn) = new_conn(stream, cx, TOKEN_FIRST_CONN + st.accepted) else {
                    continue;
                };
                // Round-robin, starting with this lane.
                let to = (st.accepted % cx.net.lanes.len() as u64) as usize;
                st.accepted += 1;
                if to == cx.idx {
                    adopt(st, cx, conn);
                } else {
                    let lane = &cx.net.lanes[to];
                    lane.inbox.lock().push(conn);
                    lane.waker.wake();
                }
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptError::Retry => break,
                AcceptError::PeerAborted => {
                    shared.stats.accepts_failed.fetch_add(1, Ordering::Relaxed);
                }
                AcceptError::Exhausted => {
                    shared.stats.accepts_failed.fetch_add(1, Ordering::Relaxed);
                    // Bounded backoff on the lane itself: with zero fd
                    // headroom there is nothing better to do than yield.
                    thread::sleep(st.accept_backoff);
                    st.accept_backoff = next_backoff(st.accept_backoff);
                    break;
                }
            },
        }
    }
}

/// Turn an accepted socket into a session and an (unregistered)
/// connection with the greeting in its write buffer. Tokens are minted by
/// lane 0 alone, so they are unique across lanes.
fn new_conn(stream: TcpStream, cx: &Ctx, token: u64) -> Option<Conn> {
    let shared = &cx.shared;
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let kill_handle = stream.try_clone().ok()?;
    let Some((sid, session)) = shared
        .sessions
        .try_register(kill_handle, shared.config.max_sessions)
    else {
        // Best effort: the rejection frame usually fits the socket buffer.
        let _ = (&stream).write_all(session_full_response().as_bytes());
        let _ = (&stream).write_all(b"\n");
        return None;
    };
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    shared.stats.open_conns.fetch_add(1, Ordering::Relaxed);

    let mut wbuf = greeting(shared, sid).into_bytes();
    wbuf.push(b'\n');
    Some(Conn {
        stream,
        sid,
        session: session.clone(),
        rbuf: Vec::new(),
        wbuf,
        wpos: 0,
        interest: Interest::NONE,
        paused: false,
        unread: false,
        eof: false,
        closing: false,
        backlog: false,
        work: Arc::new(ConnWork {
            token,
            sid,
            inner: Mutex::new(WorkInner {
                pending: VecDeque::new(),
                responses: VecDeque::new(),
                state: Some(ConnState::new(session)),
                scheduled: false,
                closed: false,
                close_after: false,
            }),
        }),
    })
}

/// Take over a connection from the inbox (or straight from accept):
/// register it with this lane's poller, then serve it as if it had just
/// become readable and writable — the greeting or the responses it
/// brought go out, the job it brought (lane 0) goes to a worker, and the
/// lines behind that job are decoded.
fn adopt(st: &mut LaneState, cx: &Ctx, mut conn: Conn) {
    let token = conn.work.token;
    if cx
        .lane()
        .poller
        .register(conn.stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        teardown(conn, cx);
        return;
    }
    conn.interest = Interest::READ;
    schedule(&conn.work, cx);
    st.conns.insert(token, conn);
    handle(
        st,
        cx,
        Event {
            token,
            readable: true,
            writable: true,
        },
    );
}

/// Hand a connection whose next request needs a net worker to lane 0,
/// whole. Its cell is idle but for that request (queued, unscheduled), so
/// no worker knows the connection yet.
fn move_conn(st: &mut LaneState, cx: &Ctx, token: u64) {
    let Some(mut conn) = st.conns.remove(&token) else {
        return;
    };
    let _ = cx.lane().poller.deregister(conn.stream.as_raw_fd());
    conn.interest = Interest::NONE;
    cx.shared.stats.lane_moves.fetch_add(1, Ordering::Relaxed);
    let lane0 = &cx.net.lanes[0];
    lane0.inbox.lock().push(conn);
    lane0.waker.wake();
}

/// Write as much of `wbuf` as the socket takes, then fix up interest.
/// Returns false on a dead socket.
fn try_write(conn: &mut Conn, cx: &Ctx) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.flushed() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    // Every path that appends to `wbuf` writes next, so this is the one
    // place the peer's unread backlog is measured.
    let unsent = conn.wbuf.len() - conn.wpos;
    if !conn.unread && unsent > WBUF_HIGH {
        conn.unread = true;
        cx.shared.stats.read_pauses.fetch_add(1, Ordering::Relaxed);
    } else if conn.unread && unsent < WBUF_LOW {
        conn.unread = false;
    }
    update_interest(conn, cx);
    true
}

/// Reconcile the poller registration with what the state machine wants:
/// read unless paused/unread/eof/closing, write while bytes are buffered.
fn update_interest(conn: &mut Conn, cx: &Ctx) {
    let want = Interest {
        read: !conn.paused && !conn.unread && !conn.eof && !conn.closing,
        write: !conn.flushed(),
    };
    if want != conn.interest
        && cx
            .lane()
            .poller
            .reregister(conn.stream.as_raw_fd(), conn.work.token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Drain the socket into `rbuf`, serve the complete lines, apply
/// backpressure. `Close` on a dead socket or protocol abuse.
fn on_readable(conn: &mut Conn, cx: &Ctx, global_paused: &mut bool) -> After {
    let shared = &cx.shared;
    let mut buf = [0u8; 16 * 1024];
    // Fairness bound: a firehose client yields the lane after ~1 MiB;
    // level-triggered epoll re-reports it.
    while conn.rbuf.len() < MAX_LINE {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                // A short read emptied the socket; anything newer is a new
                // event, not a second syscall that says WouldBlock.
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return After::Close,
        }
    }

    let after = serve(conn, cx);
    if after != After::Keep {
        return after;
    }
    // A single line of MAX_LINE bytes is a protocol error, exactly as in
    // the threaded front end.
    if !conn.backlog && conn.rbuf.len() >= MAX_LINE {
        return After::Close;
    }

    // Backpressure: pause read interest instead of erroring. Resumed in
    // `flush_responses` (per-connection cap) or the lane tick (global
    // watermark). Only lane 0 has queues to push back for.
    if cx.idx == 0 && !conn.paused && !conn.eof {
        let global = shared.stats.net_inflight.load(Ordering::Relaxed)
            >= shared.config.global_inflight_high();
        if global || conn.inflight() >= shared.config.pipeline_depth.max(1) {
            conn.paused = true;
            *global_paused |= global;
            shared.stats.read_pauses.fetch_add(1, Ordering::Relaxed);
            update_interest(conn, cx);
        }
    }
    After::Keep
}

/// Split complete lines out of `rbuf` and answer each — here, when the
/// request cannot block and the cell is idle; through a net worker
/// otherwise (which on a lane other than 0 means: queue it and move).
///
/// At most `pipeline_depth` lines are answered here per call; a longer
/// burst leaves its rest in `rbuf` and sets `backlog`, so one flooding
/// connection cannot keep the lane from its other sockets.
fn serve(conn: &mut Conn, cx: &Ctx) -> After {
    let shared = &*cx.shared;
    let budget = shared.config.pipeline_depth.max(1);
    let mut answered = 0usize;
    let mut start = 0usize;
    let mut after = After::Keep;
    conn.backlog = false;
    while start < conn.rbuf.len() {
        let (end, next) = match conn.rbuf[start..].iter().position(|&b| b == b'\n') {
            Some(pos) => (start + pos, start + pos + 1),
            // EOF with a final unterminated line: still a request (parity
            // with the threaded reader).
            None if conn.eof => (conn.rbuf.len(), conn.rbuf.len()),
            None => break,
        };
        if conn.rbuf[start..end].trim_ascii().is_empty() {
            start = next;
            continue;
        }
        if answered == budget {
            conn.backlog = true;
            break;
        }
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        conn.session.touch();
        let mut job = Job::parse(&conn.rbuf[start..end]);
        start = next;

        // (A cell this call queued a job on stays busy for the rest of the
        // call: even a finished job's response waits for this thread.)
        if let Some(mut state) = conn.work.take_idle() {
            if job.cannot_block(shared, cx.db, &state) {
                shared.pipeline_depth.observe_us(1);
                let (response, flow) = job.run(shared, cx.db, conn.sid, &mut state);
                conn.work.park(state);
                conn.wbuf.extend_from_slice(response.as_bytes());
                conn.wbuf.push(b'\n');
                shared.stats.lane_requests.fetch_add(1, Ordering::Relaxed);
                answered += 1;
                if matches!(flow, Flow::Close) {
                    // Parity with the threaded loop: input after quit is
                    // unread.
                    conn.closing = true;
                    start = conn.rbuf.len();
                }
                continue;
            }
            conn.work.park(state);
        }

        enqueue(conn, cx, job);
        if cx.idx != 0 {
            after = After::Move;
            break;
        }
    }
    conn.rbuf.drain(..start);
    after
}

/// Queue a request for the net workers. Only lane 0 schedules the cell;
/// on another lane the job waits in it for the move.
fn enqueue(conn: &Conn, cx: &Ctx, job: Job) {
    let shared = &cx.shared;
    shared.stats.net_inflight.fetch_add(1, Ordering::Relaxed);
    {
        let mut g = conn.work.inner.lock();
        g.pending.push_back(job);
        let depth = g.pending.len() + usize::from(g.state.is_none());
        shared.pipeline_depth.observe_us(depth as u64);
    }
    schedule(&conn.work, cx);
}

/// Put a cell with pending work on the ready queue, unless it is there
/// (or on a worker) already. Lane 0 only: no other lane hands off.
fn schedule(work: &Arc<ConnWork>, cx: &Ctx) {
    if cx.idx != 0 {
        return;
    }
    let go = {
        let mut g = work.inner.lock();
        let go = !g.pending.is_empty() && !g.scheduled && !g.closed;
        if go {
            g.scheduled = true;
        }
        go
    };
    if go {
        cx.net.ready.lock().push_back(work.clone());
        cx.net.ready_cv.notify_one();
    }
}

/// Move finished response frames into write buffers and push them out.
fn flush_responses(st: &mut LaneState, cx: &Ctx) {
    let tokens: Vec<u64> = std::mem::take(&mut *cx.net.flush.lock());
    for token in tokens {
        let mut close = false;
        if let Some(conn) = st.conns.get_mut(&token) {
            {
                let mut g = conn.work.inner.lock();
                while let Some(r) = g.responses.pop_front() {
                    conn.wbuf.extend_from_slice(r.as_bytes());
                    conn.wbuf.push(b'\n');
                }
                if g.close_after {
                    conn.closing = true;
                }
            }
            if !try_write(conn, cx) || conn_should_close(conn) {
                close = true;
            } else {
                maybe_unpause(conn, cx);
                // This write may be the one that got the peer's unread
                // bytes under the low-water mark: its backlog is due.
                if conn.backlog && !conn.unread && !st.resume.contains(&token) {
                    st.resume.push(token);
                }
            }
        }
        if close {
            close_conn(st, cx, token);
        }
    }
}

/// Resume read interest once the connection is back under its pipeline
/// cap and the global watermark.
fn maybe_unpause(conn: &mut Conn, cx: &Ctx) {
    if !conn.paused {
        return;
    }
    let shared = &cx.shared;
    let global_ok = shared.stats.net_inflight.load(Ordering::Relaxed)
        < shared.config.global_inflight_high();
    if global_ok && conn.inflight() < shared.config.pipeline_depth.max(1) {
        conn.paused = false;
        update_interest(conn, cx);
    }
}

fn conn_should_close(conn: &Conn) -> bool {
    if conn.closing && conn.flushed() {
        return true;
    }
    if conn.eof && conn.flushed() && !conn.backlog {
        let g = conn.work.inner.lock();
        return g.pending.is_empty() && g.responses.is_empty() && g.state.is_some();
    }
    false
}

/// Tear one of this lane's connections down: deregister, then
/// [`teardown`]. The socket closes when `Conn` drops.
fn close_conn(st: &mut LaneState, cx: &Ctx, token: u64) {
    let Some(conn) = st.conns.remove(&token) else {
        return;
    };
    let _ = cx.lane().poller.deregister(conn.stream.as_raw_fd());
    teardown(conn, cx);
}

/// End a connection no poller knows (any more): mark the work cell
/// closed, drop the session state (aborting any open transaction) if no
/// worker holds it, release the session slot.
fn teardown(conn: Conn, cx: &Ctx) {
    let shared = &cx.shared;
    let state = {
        let mut g = conn.work.inner.lock();
        g.closed = true;
        let dropped = g.pending.len() as u64;
        g.pending.clear();
        g.responses.clear();
        if dropped > 0 {
            shared.stats.net_inflight.fetch_sub(dropped, Ordering::Relaxed);
        }
        g.state.take()
    };
    if let Some(st) = state {
        drop_state(shared, st);
    }
    shared.sessions.deregister(conn.sid);
    shared.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
}
