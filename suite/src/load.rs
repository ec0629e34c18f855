//! The load generator: one thread per connection, a lock-step closed
//! loop and a coordinated-omission-free open loop. Latencies are exact
//! per-request clock deltas, kept in vectors and sorted at the end.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gserver::Json;

use crate::config::{self, Class, CLASSES};
use crate::gen::{Effect, Req, Scheduled, StreamGen};
use crate::stats::SlicedSamples;
use crate::world::{err, Result};

/// How a response line reads without parsing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `TXN_CONFLICT`, `SERVER_BUSY`, or a lock conflict under another
    /// code: safe to re-send.
    Retryable,
    Failed,
}

/// Classify a response line by its fixed prefix and, for failures, its
/// error code. Cheap on purpose: it runs inside the timed loop.
pub fn classify(line: &str) -> Outcome {
    if line.starts_with("{\"ok\":true") {
        Outcome::Ok
    } else if line.contains("\"code\":\"TXN_CONFLICT\"")
        || line.contains("\"code\":\"SERVER_BUSY\"")
        // `match` queries report the same MVTO abort as INTERNAL.
        || line.contains("record locked by another transaction")
    {
        Outcome::Retryable
    } else {
        Outcome::Failed
    }
}

/// An update is acknowledged by a success response with exactly one
/// result row (the row its `Create*` operators produced); a success with
/// no row means an id the request named did not exist.
pub fn acknowledged(req: &Req, line: &str) -> bool {
    req.class != Class::Write || line.contains("\"row_count\":1,")
}

/// What the server says about one request (source A of the traced run):
/// its own `elapsed_us` and `profile`, next to the client's clock.
#[derive(Debug, Clone, Default)]
pub struct WireSpan {
    /// The final answer was a success.
    pub ok: bool,
    pub conn: u8,
    pub class: u8,
    pub kind: u8,
    pub attempts: u8,
    /// Request number on its connection; with `conn`, the request id.
    pub seq: u32,
    /// Client clock, nanoseconds since the window started.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub received_ns: u64,
    /// The response's `elapsed_us`.
    pub server_us: u64,
    pub rows: u64,
    pub morsels: u64,
    pub interpreted_morsels: u64,
    pub compiled_morsels: u64,
    pub chunks_pruned: u64,
    pub fast_path_morsels: u64,
    pub residual_rows: u64,
    pub fallback: bool,
    /// Sums over `profile.expansions`.
    pub expand_rows_in: u64,
    pub expand_rows_out: u64,
    /// `snapshot.reused` / `snapshot.build_us` of an ANALYTICS response.
    pub snapshot_reused: Option<bool>,
    pub snapshot_build_us: u64,
}

impl WireSpan {
    /// Fill the server-side fields from a parsed success response.
    fn absorb(&mut self, resp: &Json) {
        self.ok = true;
        let int = |j: Option<&Json>| j.and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        self.server_us = int(resp.get("elapsed_us"));
        self.rows = int(resp.get("row_count"));
        if let Some(p) = resp.get("profile") {
            self.morsels = int(p.get("morsels"));
            self.interpreted_morsels = int(p.get("interpreted_morsels"));
            self.compiled_morsels = int(p.get("compiled_morsels"));
            self.chunks_pruned = int(p.get("chunks_pruned"));
            self.fast_path_morsels = int(p.get("fast_path_morsels"));
            self.residual_rows = int(p.get("residual_rows"));
            self.fallback = p.get("fallback").is_some_and(|f| *f != Json::Null);
            for e in p.get("expansions").and_then(Json::as_array).unwrap_or(&[]) {
                self.expand_rows_in += int(e.get("rows_in"));
                self.expand_rows_out += int(e.get("rows_out"));
            }
        }
        if let Some(s) = resp.get("snapshot") {
            self.snapshot_reused = s.get("reused").and_then(Json::as_bool);
            self.snapshot_build_us = int(s.get("build_us"));
        }
    }
}

/// Everything one connection recorded during a window.
#[derive(Debug, Default)]
pub struct ConnRecord {
    /// Latency of successful requests, per class and window slice.
    pub latency: [SlicedSamples; 4],
    pub attempted: u64,
    /// Requests that failed after retries, or were never answered.
    pub failed: u64,
    /// Successful but slower than the class limit.
    pub late_answers: u64,
    /// Re-sends after a retryable error.
    pub retries: u64,
    /// Acknowledged inserts.
    pub nodes_added: u64,
    pub rels_added: u64,
    pub entities: Vec<(&'static str, i64)>,
    /// Sampled `(request, response line)` pairs for the oracle.
    pub checked: Vec<(Req, String)>,
    /// Open loop: how late each frame was handed to the socket, ns.
    pub gen_late_ns: Vec<u32>,
    /// Traced run only.
    pub spans: Vec<WireSpan>,
    /// The first few requests that failed, with what the server said.
    pub failures: Vec<String>,
    /// Scheduling policy and CPU the generator thread got (see
    /// [`favour_this_thread`]).
    pub scheduling: String,
}

impl ConnRecord {
    fn new(slices: usize) -> ConnRecord {
        ConnRecord {
            latency: std::array::from_fn(|_| SlicedSamples::new(slices)),
            ..ConnRecord::default()
        }
    }

    pub fn merge(&mut self, other: ConnRecord) {
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_answers += other.late_answers;
        self.retries += other.retries;
        self.nodes_added += other.nodes_added;
        self.rels_added += other.rels_added;
        self.entities.extend(other.entities);
        self.checked.extend(other.checked);
        self.gen_late_ns.extend(other.gen_late_ns);
        self.spans.extend(other.spans);
        self.failures.extend(other.failures);
        if self.scheduling.is_empty() {
            self.scheduling = other.scheduling;
        }
    }

    /// Remember what an acknowledged request inserted.
    fn note_effect(&mut self, req: &Req) {
        let Effect {
            nodes,
            rels,
            entity,
        } = req.effect;
        self.nodes_added += u64::from(nodes);
        self.rels_added += u64::from(rels);
        self.entities.extend(entity);
    }

    /// Account one finished request.
    fn finish(
        &mut self,
        req: &Req,
        ok: bool,
        latency_ns: u64,
        slice: usize,
        line: &str,
        sample: bool,
    ) {
        self.attempted += 1;
        if !(ok && acknowledged(req, line)) {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures
                    .push(format!("{} -> {}", req.frame, line.trim()));
            }
            return;
        }
        self.latency[req.class as usize].push(slice, latency_ns);
        if latency_ns > req.class.limit().as_nanos() as u64 {
            self.late_answers += 1;
        }
        self.note_effect(req);
        if sample {
            self.checked.push((req.clone(), line.to_string()));
        }
    }
}

/// Decides which requests are kept for the oracle: every `STRIDE`-th of
/// each read-only class, starting at a seeded offset, up to the cap.
struct Sampler {
    seen: [u64; 4],
    kept: [usize; 4],
    offset: u64,
    enabled: bool,
}

impl Sampler {
    const STRIDE: u64 = 8;

    fn new(seed: u64, enabled: bool) -> Sampler {
        Sampler {
            seen: [0; 4],
            kept: [0; 4],
            offset: seed % Self::STRIDE,
            enabled,
        }
    }

    fn take(&mut self, class: Class) -> bool {
        let c = class as usize;
        self.seen[c] += 1;
        let hit = self.enabled
            && matches!(class, Class::Read | Class::Scan)
            && self.kept[c] < config::CHECKED_PER_CLASS
            && self.seen[c] % Self::STRIDE == self.offset;
        if hit {
            self.kept[c] += 1;
        }
        hit
    }
}

/// One measured window.
#[derive(Debug, Clone, Copy)]
pub struct WindowSpec {
    pub length: Duration,
    /// Open loop: offered rate over all connections, requests per second.
    pub rate_rps: f64,
    /// Keep a sample of answers for the oracle (read-only workloads).
    pub check_answers: bool,
    /// Record a [`WireSpan`] per request.
    pub trace: bool,
}

/// A lock-step connection: blocking socket, one request in flight.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect, read the greeting and prepare `statements`.
    pub fn open(addr: SocketAddr, statements: &[(String, String)]) -> Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            line: String::new(),
        };
        conn.read_line()?;
        if classify(&conn.line) != Outcome::Ok {
            return err(format!(
                "server refused the connection: {}",
                conn.line.trim()
            ));
        }
        for (name, text) in statements {
            let frame = format!("{{\"op\":\"prepare\",\"name\":\"{name}\",\"query\":\"{text}\"}}");
            if classify(conn.call(&frame)?) != Outcome::Ok {
                return err(format!("prepare {name} failed: {}", conn.line.trim()));
            }
        }
        Ok(conn)
    }

    fn read_line(&mut self) -> Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return err("server closed the connection");
        }
        Ok(())
    }

    /// Send one frame and wait for its response line.
    pub fn call(&mut self, frame: &str) -> Result<&str> {
        self.stream.write_all(frame.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.read_line()?;
        Ok(&self.line)
    }

    /// `call`, re-sending after retryable errors. Returns the final outcome
    /// and the number of re-sends.
    fn call_retrying(&mut self, frame: &str) -> Result<(Outcome, u8)> {
        let mut retries = 0;
        loop {
            let outcome = classify(self.call(frame)?);
            if outcome != Outcome::Retryable || retries == config::MAX_RETRIES {
                return Ok((outcome, retries));
            }
            retries += 1;
            std::thread::sleep(config::retry_backoff(retries));
        }
    }

    /// Run `rounds` warm-up rounds lock-step; any failure is an error,
    /// because a set-up that did not warm up is not the set-up measured.
    pub fn warm_up(&mut self, stream: &mut StreamGen<'_>, rounds: usize) -> Result<u64> {
        let mut sent = 0;
        for _ in 0..rounds {
            for req in stream.warmup_round() {
                let (outcome, _) = self.call_retrying(&req.frame)?;
                if outcome != Outcome::Ok {
                    return err(format!(
                        "warm-up request {} failed: {}",
                        req.frame,
                        self.line.trim()
                    ));
                }
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// The closed loop: send the stream's next request when the previous
    /// one is answered, from `start` for `spec.length`.
    pub fn run_closed(
        &mut self,
        conn_id: usize,
        stream: &mut StreamGen<'_>,
        start: Instant,
        seed: u64,
        spec: &WindowSpec,
    ) -> Result<ConnRecord> {
        let WindowSpec {
            length: window,
            check_answers,
            trace,
            ..
        } = *spec;
        let slice_ns = (window.as_nanos() as u64 / config::SLICES as u64).max(1);
        let mut rec = ConnRecord::new(config::SLICES);
        rec.scheduling = favour_this_thread(conn_id);
        let mut sampler = Sampler::new(seed.wrapping_add(conn_id as u64), check_answers);
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let mut seq = 0u32;
        loop {
            let req = stream.next_req();
            let sent = Instant::now();
            let (outcome, retries) = self.call_retrying(&req.frame)?;
            let received = Instant::now();
            let done_ns = received.duration_since(start).as_nanos() as u64;
            if done_ns >= window.as_nanos() as u64 {
                // Completed outside the window: not part of the measurement,
                // but what it inserted is in the database all the same.
                if outcome == Outcome::Ok && acknowledged(&req, &self.line) {
                    rec.note_effect(&req);
                }
                return Ok(rec);
            }
            let latency_ns = received.duration_since(sent).as_nanos() as u64;
            let slice = ((done_ns / slice_ns) as usize).min(config::SLICES - 1);
            rec.retries += u64::from(retries);
            let sample = sampler.take(req.class);
            let line = std::mem::take(&mut self.line);
            rec.finish(
                &req,
                outcome == Outcome::Ok,
                latency_ns,
                slice,
                &line,
                sample,
            );
            if trace {
                let sent_ns = sent.duration_since(start).as_nanos() as u64;
                let mut span = WireSpan {
                    conn: conn_id as u8,
                    class: req.class as u8,
                    kind: req.kind,
                    attempts: retries + 1,
                    seq,
                    due_ns: sent_ns,
                    sent_ns,
                    received_ns: done_ns,
                    ..WireSpan::default()
                };
                if outcome == Outcome::Ok {
                    if let Ok(resp) = Json::parse(line.trim()) {
                        span.absorb(&resp);
                    }
                }
                rec.spans.push(span);
            }
            self.line = line;
            seq += 1;
        }
    }

    /// The open loop over this connection (see [`run_open`]). `epoch` is
    /// instant zero of the schedule's clock. The socket is non-blocking
    /// for the duration and lock-step again afterwards.
    pub fn run_open(
        &mut self,
        conn_id: usize,
        schedule: &[Scheduled],
        epoch: Instant,
        start_ns: u64,
        window_ns: u64,
        trace: bool,
    ) -> Result<ConnRecord> {
        debug_assert!(
            self.reader.buffer().is_empty(),
            "lock-step leaves nothing buffered"
        );
        self.stream.set_nonblocking(true)?;
        let mut wire = TcpWire {
            stream: &self.stream,
            epoch,
            scratch: Box::new([0; 65536]),
        };
        let scheduling = favour_this_thread(conn_id);
        let rec = run_open(&mut wire, conn_id, schedule, start_ns, window_ns, trace);
        // The flag lives on the socket, which `reader` shares.
        self.stream.set_nonblocking(false)?;
        let mut rec = rec?;
        rec.scheduling = scheduling;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

/// What the open-loop scheduler needs from the world: a clock and a
/// non-blocking byte pipe. The TCP implementation is [`TcpWire`]; tests
/// substitute a simulated server on a virtual clock.
pub trait Wire {
    /// Nanoseconds on a monotonic clock.
    fn now_ns(&mut self) -> u64;
    /// Write as much of `bytes` as fits; `Ok(0)` means "would block".
    fn send(&mut self, bytes: &[u8]) -> io::Result<usize>;
    /// Append whatever has arrived to `buf`; `Ok(0)` means "nothing yet".
    fn recv(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;
    /// Sleep until data arrives (or, with `want_write`, the pipe accepts
    /// writes again) or the clock reaches `until_ns`, whichever is first.
    fn wait(&mut self, until_ns: u64, want_write: bool);
}

/// A request the open loop has sent and not yet seen answered.
struct InFlight {
    index: usize,
    attempts: u8,
    sent_ns: u64,
}

/// How long after the last due time unanswered requests are given up on.
const OPEN_GRACE_NS: u64 = 5_000_000_000;

/// The open loop over one connection: every frame is written when it is
/// due, whether or not earlier replies have arrived; replies are matched
/// in order; each request is timed **from its due time**, so a stall
/// costs every request that was due during it, not just the one that
/// hit it. Samples are assigned to window slices by due time.
///
/// `schedule` is relative to `start_ns` on the wire's clock.
pub fn run_open<W: Wire>(
    wire: &mut W,
    conn_id: usize,
    schedule: &[Scheduled],
    start_ns: u64,
    window_ns: u64,
    trace: bool,
) -> io::Result<ConnRecord> {
    let slice_ns = (window_ns / config::SLICES as u64).max(1);
    let mut rec = ConnRecord::new(config::SLICES);
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut in_pos = 0;
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    // `(ready_ns, schedule index, attempt number)` of pending re-sends, by time.
    let mut resend: VecDeque<(u64, usize, u8)> = VecDeque::new();
    let mut next = 0;
    let give_up_ns = start_ns + window_ns + OPEN_GRACE_NS;

    loop {
        let now = wire.now_ns();
        while let Some((_, index, attempts)) = resend.pop_front_if(|r| r.0 <= now) {
            out.extend_from_slice(schedule[index].req.frame.as_bytes());
            out.push(b'\n');
            in_flight.push_back(InFlight {
                index,
                attempts,
                sent_ns: now,
            });
        }
        // Hand every due frame to the socket buffer.
        while next < schedule.len() && start_ns + schedule[next].due_ns <= now {
            let s = &schedule[next];
            out.extend_from_slice(s.req.frame.as_bytes());
            out.push(b'\n');
            let late = now - (start_ns + s.due_ns);
            rec.gen_late_ns
                .push(u32::try_from(late).unwrap_or(u32::MAX));
            in_flight.push_back(InFlight {
                index: next,
                attempts: 1,
                sent_ns: now,
            });
            next += 1;
        }
        while out_pos < out.len() {
            match wire.send(&out[out_pos..])? {
                0 => break,
                n => out_pos += n,
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }

        while wire.recv(&mut inbuf)? > 0 {}
        let received = wire.now_ns();
        while let Some(nl) = inbuf[in_pos..].iter().position(|b| *b == b'\n') {
            let line = String::from_utf8_lossy(&inbuf[in_pos..in_pos + nl]).into_owned();
            in_pos += nl + 1;
            let Some(f) = in_flight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response without a request in flight",
                ));
            };
            let s = &schedule[f.index];
            let outcome = classify(&line);
            if outcome == Outcome::Retryable && f.attempts <= config::MAX_RETRIES {
                // Re-send after a back-off; the request keeps its due time.
                rec.retries += 1;
                let ready = received + config::retry_backoff(f.attempts).as_nanos() as u64;
                resend.push_back((ready, f.index, f.attempts + 1));
                continue;
            }
            let due = start_ns + s.due_ns;
            let latency_ns = received.saturating_sub(due);
            let slice = ((s.due_ns / slice_ns) as usize).min(config::SLICES - 1);
            rec.finish(
                &s.req,
                outcome == Outcome::Ok,
                latency_ns,
                slice,
                &line,
                false,
            );
            if trace {
                let mut span = WireSpan {
                    conn: conn_id as u8,
                    class: s.req.class as u8,
                    kind: s.req.kind,
                    attempts: f.attempts,
                    seq: f.index as u32,
                    due_ns: s.due_ns,
                    sent_ns: f.sent_ns - start_ns,
                    received_ns: received - start_ns,
                    ..WireSpan::default()
                };
                if outcome == Outcome::Ok {
                    if let Ok(resp) = Json::parse(&line) {
                        span.absorb(&resp);
                    }
                }
                rec.spans.push(span);
            }
        }
        if in_pos == inbuf.len() {
            inbuf.clear();
            in_pos = 0;
        }

        if next == schedule.len() && in_flight.is_empty() && resend.is_empty() && out.is_empty() {
            return Ok(rec);
        }
        if received >= give_up_ns {
            // Whatever is still unanswered failed.
            let unanswered = (in_flight.len() + resend.len()) as u64;
            rec.attempted += unanswered;
            rec.failed += unanswered;
            return Ok(rec);
        }
        let next_due = schedule
            .get(next)
            .map_or(give_up_ns, |s| start_ns + s.due_ns);
        let until = resend.front().map_or(next_due, |r| next_due.min(r.0));
        wire.wait(until, out_pos < out.len());
    }
}

/// `poll(2)` with a nanosecond timeout, through the C library `std`
/// already links: the only way to sleep until "data or deadline" with
/// sub-millisecond precision on one thread.
mod sys {
    use std::os::raw::{c_int, c_uint, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    pub const PRIO_PROCESS: c_int = 0;

    extern "C" {
        pub fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
        pub fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// A `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live buffer of the size passed; 0 is the caller.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Bind the calling thread to `cpu`.
    pub fn pin_to(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

/// Ask the scheduler to run the calling generator thread as soon as it
/// wakes, and always in the same place: `SCHED_FIFO` at the lowest real-time
/// priority, or failing that `nice -20` (on Linux both are per thread), and
/// connection `conn_id` bound to the `conn_id`-th CPU. Returns what took
/// effect.
///
/// The generator shares two cores with the server it drives. Under the
/// default policy a frame that falls due while both cores run morsel
/// workers waits out their time slices: the open loop's own lateness was
/// 15 ms at p99, and it landed in the server's latency numbers. A
/// generator thread sleeps in `read`/`ppoll` except for the microseconds
/// it takes to write a frame and stamp a reply, so it cannot starve
/// anything. With the generator threads left to float `point_read` ran
/// in plateaus of 11 k and 15 k requests a second, seconds each; bound,
/// its ten-seed spread halved (README, "What was done about noise"). The
/// priority calls need `CAP_SYS_NICE`; without it nothing changes and
/// `suite.gen_late_p99_us` shows the consequence.
pub fn favour_this_thread(conn_id: usize) -> String {
    const SCHED_FIFO: std::os::raw::c_int = 1;
    let priority: std::os::raw::c_int = 1;
    // SAFETY: plain system calls on integers and one live `sched_param`
    // (a struct of one int); pid/who 0 is the calling thread.
    let policy = unsafe {
        if sys::sched_setscheduler(0, SCHED_FIFO, &priority) == 0 {
            "SCHED_FIFO"
        } else if sys::setpriority(sys::PRIO_PROCESS, 0, -20) == 0 {
            "nice -20"
        } else {
            "default (no CAP_SYS_NICE)"
        }
    };
    let cpus = sys::allowed_cpus();
    match cpus.get(conn_id % cpus.len().max(1)) {
        Some(&cpu) if sys::pin_to(cpu) => format!("{policy}, bound to a CPU each"),
        _ => format!("{policy}, not bound to a CPU"),
    }
}

/// Keeps every CPU of the process out of the idle loop while it lives: one
/// thread per allowed CPU, bound to it, spinning under `SCHED_IDLE`, which
/// every other thread preempts the moment it wakes.
///
/// On this guest an idle vCPU halts, and waking a halted vCPU goes through
/// the hypervisor. What that costs depends on what the guest did in the
/// minutes before and on the host's other tenants: `mixed_open` (both CPUs
/// idle between arrivals, five wake-ups per request) read a p50 of 200 us
/// when run after itself and 320 us when run after the closed loops, same
/// code and seed; with the CPUs never halting, 196 us after either. Run in
/// alternation, ten seeds each, it read 275 us (spread 25 %) with halting
/// CPUs and 150-205 us without on an average host, 657 us (22 %) and
/// 375 us (6-10 %) on a slow one. README, "What was done about noise".
///
/// A thread that cannot get `SCHED_IDLE` and its CPU ends at once: at
/// normal priority it would take a fair share of the core.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<bool>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = sys::allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    const SCHED_IDLE: std::os::raw::c_int = 5;
                    let priority: std::os::raw::c_int = 0;
                    // SAFETY: as in `favour_this_thread`.
                    let idle = unsafe { sys::sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
                    let spinning = idle && sys::pin_to(cpu);
                    // On `PAUSE`, which leaves a core's execution units to
                    // a hyperthread sibling; wake-ups cost the same with a
                    // bare loop (375 and 379 us, in alternation).
                    while spinning && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    spinning
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }

    /// Stop the spinners; returns how many CPUs they kept awake.
    pub fn finish(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        std::mem::take(&mut self.spinners)
            .into_iter()
            .filter_map(|h| h.join().ok())
            .filter(|spinning| *spinning)
            .count()
    }
}

impl Drop for KeepAwake {
    /// An early return must not leave the spinners behind.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// [`Wire`] over a non-blocking TCP socket and the process clock.
struct TcpWire<'a> {
    stream: &'a TcpStream,
    epoch: Instant,
    scratch: Box<[u8; 65536]>,
}

impl Wire for TcpWire<'_> {
    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<usize> {
        match self.stream.write(bytes) {
            Ok(0) => Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        match self.stream.read(&mut self.scratch[..]) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf.extend_from_slice(&self.scratch[..n]);
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn wait(&mut self, until_ns: u64, want_write: bool) {
        let left = until_ns.saturating_sub(self.now_ns());
        if left == 0 {
            return;
        }
        let mut fd = sys::PollFd {
            fd: self.stream.as_raw_fd(),
            events: sys::POLLIN | if want_write { sys::POLLOUT } else { 0 },
            revents: 0,
        };
        let timeout = sys::Timespec {
            tv_sec: (left / 1_000_000_000) as i64,
            tv_nsec: (left % 1_000_000_000) as i64,
        };
        // SAFETY: `fd` and `timeout` are live, properly laid out values
        // for the duration of the call, and a null signal mask is allowed.
        // The result is ignored: readiness, timeout and EINTR all mean
        // "look again", which the caller's loop does.
        unsafe { sys::ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    }
}

/// Sum of per-class sample counts that completed in slice `i`.
pub fn completions_in_slice(rec: &ConnRecord, i: usize) -> usize {
    CLASSES
        .iter()
        .map(|c| rec.latency[*c as usize].slices[i].len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Effect;

    /// A single FIFO server on a virtual clock: each request takes
    /// `service_ns`; the request with index `stall_at` takes `stall_ns`
    /// more. Replies become readable when their service completes.
    struct SimWire {
        now: u64,
        service_ns: u64,
        stall_at: usize,
        stall_ns: u64,
        /// When the server finishes what it has accepted so far.
        busy_until: u64,
        accepted: usize,
        partial: Vec<u8>,
        /// `(ready_at, reply)` in order.
        replies: VecDeque<(u64, Vec<u8>)>,
        /// Clock cost of one pass through the scheduler loop.
        tick_ns: u64,
    }

    impl Wire for SimWire {
        fn now_ns(&mut self) -> u64 {
            self.now += self.tick_ns;
            self.now
        }

        fn send(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.partial.extend_from_slice(bytes);
            while let Some(nl) = self.partial.iter().position(|b| *b == b'\n') {
                self.partial.drain(..=nl);
                let mut cost = self.service_ns;
                if self.accepted == self.stall_at {
                    cost += self.stall_ns;
                }
                self.busy_until = self.busy_until.max(self.now) + cost;
                self.replies
                    .push_back((self.busy_until, b"{\"ok\":true,\"rows\":[]}\n".to_vec()));
                self.accepted += 1;
            }
            Ok(bytes.len())
        }

        fn recv(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
            match self.replies.front() {
                Some((ready, _)) if *ready <= self.now => {
                    let (_, bytes) = self.replies.pop_front().expect("front exists");
                    buf.extend_from_slice(&bytes);
                    Ok(bytes.len())
                }
                _ => Ok(0),
            }
        }

        fn wait(&mut self, until_ns: u64, _want_write: bool) {
            let next_reply = self.replies.front().map_or(u64::MAX, |r| r.0);
            self.now = self.now.max(until_ns.min(next_reply));
        }
    }

    fn every_ms(n: usize) -> Vec<Scheduled> {
        (0..n)
            .map(|i| Scheduled {
                due_ns: (i as u64 + 1) * 1_000_000,
                req: Req {
                    class: Class::Read,
                    kind: 0,
                    frame: format!("{{\"op\":\"ping\",\"n\":{i}}}"),
                    effect: Effect::default(),
                },
            })
            .collect()
    }

    fn sim(stall_ns: u64) -> SimWire {
        SimWire {
            now: 0,
            service_ns: 100_000,
            stall_at: 10,
            stall_ns,
            busy_until: 0,
            accepted: 0,
            partial: Vec::new(),
            replies: VecDeque::new(),
            tick_ns: 1_000,
        }
    }

    #[test]
    fn open_loop_times_from_due_time_so_a_stall_raises_following_latencies() {
        // 100 requests, one due every millisecond, 0.1 ms service each.
        let schedule = every_ms(100);
        let window = 100_000_000;

        let calm = run_open(&mut sim(0), 0, &schedule, 0, window, true).unwrap();
        let calm_max = calm
            .spans
            .iter()
            .map(|s| s.received_ns - s.due_ns)
            .max()
            .unwrap();
        assert!(
            calm_max < 200_000,
            "no stall: every request takes ~0.1 ms, saw {calm_max}"
        );

        // Request 10 stalls the server for 50 ms. Requests 11..60 were due
        // during the stall; a closed loop would not even have sent them.
        let stalled = run_open(&mut sim(50_000_000), 0, &schedule, 0, window, true).unwrap();
        assert_eq!(stalled.attempted, 100);
        assert_eq!(stalled.failed, 0);
        let latency = |i: usize| {
            let s = stalled.spans.iter().find(|s| s.seq == i as u32).unwrap();
            s.received_ns - s.due_ns
        };
        assert!(latency(9) < 200_000, "before the stall");
        assert!(latency(10) >= 50_000_000, "the stalled request itself");
        // The following requests queue behind it and are charged the wait:
        // request 20 was due 10 ms into the stall, so it waited ~40 ms.
        assert!(
            latency(11) >= 49_000_000,
            "the next request waited out the stall"
        );
        assert!(
            (39_000_000..42_000_000).contains(&latency(20)),
            "saw {}",
            latency(20)
        );
        assert!(latency(40) >= 20_000_000);
        // The backlog of 50 drains at 10 requests/ms.
        assert!(
            latency(99) < 1_000_000,
            "backlog drained long before the end"
        );
        let slow = stalled
            .spans
            .iter()
            .filter(|s| s.received_ns - s.due_ns > 1_000_000)
            .count();
        assert!(
            slow >= 50,
            "at least the 50 requests due during the stall are slow, saw {slow}"
        );
        // All were still sent on time: the generator did not wait for replies.
        assert!(
            stalled.gen_late_ns.iter().all(|l| *l < 50_000),
            "generator ran late"
        );
        assert!(stalled.spans.iter().all(|s| s.sent_ns < s.due_ns + 50_000));
    }

    #[test]
    fn open_loop_reports_its_own_lateness() {
        // A scheduler pass costs 3 ms of clock: frames due every 1 ms
        // cannot be sent on time, and the record says by how much.
        let mut wire = sim(0);
        wire.tick_ns = 3_000_000;
        let rec = run_open(&mut wire, 0, &every_ms(30), 0, 30_000_000, false).unwrap();
        assert_eq!(rec.gen_late_ns.len(), 30);
        let worst = *rec.gen_late_ns.iter().max().unwrap();
        assert!(
            worst >= 1_000_000,
            "lateness must be visible, saw {worst} ns"
        );
    }

    #[test]
    fn open_loop_resends_retryable_errors_and_fails_hard_ones() {
        struct Scripted {
            now: u64,
            replies: VecDeque<&'static str>,
            sent: usize,
            queued: VecDeque<Vec<u8>>,
        }
        impl Wire for Scripted {
            fn now_ns(&mut self) -> u64 {
                self.now += 1_000;
                self.now
            }
            fn send(&mut self, bytes: &[u8]) -> io::Result<usize> {
                for _ in bytes.iter().filter(|b| **b == b'\n') {
                    let reply = self
                        .replies
                        .pop_front()
                        .expect("script has a reply per frame");
                    self.queued.push_back(format!("{reply}\n").into_bytes());
                    self.sent += 1;
                }
                Ok(bytes.len())
            }
            fn recv(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
                match self.queued.pop_front() {
                    Some(b) => {
                        buf.extend_from_slice(&b);
                        Ok(b.len())
                    }
                    None => Ok(0),
                }
            }
            fn wait(&mut self, until_ns: u64, _want_write: bool) {
                self.now = self.now.max(until_ns);
            }
        }
        let conflict = "{\"ok\":false,\"error\":{\"code\":\"TXN_CONFLICT\",\"message\":\"x\",\"retryable\":true}}";
        let bad = "{\"ok\":false,\"error\":{\"code\":\"INTERNAL\",\"message\":\"x\",\"retryable\":false}}";
        let mut wire = Scripted {
            now: 0,
            replies: VecDeque::from([conflict, "{\"ok\":true}", bad, "{\"ok\":true}"]),
            sent: 0,
            queued: VecDeque::new(),
        };
        let rec = run_open(&mut wire, 0, &every_ms(2), 0, 10_000_000, false).unwrap();
        // Request 0: conflict, re-sent, ok. Request 1: hard failure.
        assert_eq!(wire.sent, 3);
        assert_eq!((rec.attempted, rec.failed, rec.retries), (2, 1, 1));
    }

    #[test]
    fn responses_are_classified_without_parsing() {
        assert_eq!(classify("{\"ok\":true,\"rows\":[]}"), Outcome::Ok);
        assert_eq!(
            classify("{\"ok\":false,\"error\":{\"code\":\"SERVER_BUSY\",\"message\":\"m\",\"retryable\":true}}"),
            Outcome::Retryable
        );
        assert_eq!(
            classify("{\"ok\":false,\"error\":{\"code\":\"DEADLINE_EXCEEDED\",\"message\":\"m\",\"retryable\":true}}"),
            Outcome::Failed
        );
        assert_eq!(
            classify("{\"ok\":false,\"error\":{\"code\":\"INTERNAL\",\"message\":\"match: query failed: transaction error: record locked by another transaction\",\"retryable\":false}}"),
            Outcome::Retryable
        );
        assert_eq!(classify("garbage"), Outcome::Failed);
    }
}
