//! The traced run: per-layer numbers from three outside sources, with no
//! edit to the program.
//!
//! * **A, wire spans** — per request the client's clock (due, sent,
//!   received) next to the server's own `elapsed_us` and `profile`, which
//!   every response already carries ([`crate::load::WireSpan`]).
//! * **B, `STATS` deltas** — the server's counters before and after the
//!   traced window, over the wire.
//! * **C, embedded replay** — the same request stream replayed on one
//!   thread through the public functions `gserver` calls, in the order
//!   `do_execute` calls them, with a span around each call; once on a
//!   pool opened with the PMem device profile and once with the DRAM
//!   one, so the latency model's share separates from the software's.
//!
//! Spans carry `{id, parent, request, name, start_ns, end_ns}`, stay in
//! memory and are written out when the run ends. A span's self time is
//! its duration minus the part its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ganalytics::{algo, SnapshotCache, SnapshotSpec};
use gjit::{CompiledExpr, ExprSource, JitEngine};
use gquery::{ExecCtx, Op, Plan, Pred};
use graphcore::{GraphDb, Value};
use gserver::{proto, Json, NamedQuery, Request};
use gstore::PVal;
use ldbc::{Mode, SnbDb};
use pmem::{DeviceProfile, Pool};

use crate::config::{self, Class};
use crate::gen::{DataView, Phase, Req, StreamGen, Workload, KINDS};
use crate::load::{Conn, ConnRecord, WindowSpec, WireSpan};
use crate::oracle::Session;
use crate::report::Metric;
use crate::run::{Live, Options};
use crate::stats;
use crate::world::{self, err, BasePool, PoolFile, Result};

pub struct Traced {
    /// The traced half-window's record: what end-to-end metrics and
    /// output checks of a traced run are computed from.
    pub record: ConnRecord,
    /// Everything the other windows of the run (untraced half, ladder
    /// steps) recorded, merged: their inserts are in the database too.
    pub others: ConnRecord,
    pub metrics: Vec<Metric>,
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// `(source, connection, request number)`: every span of one request
    /// carries the same triple.
    pub request: (&'static str, u8, u32),
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log on one clock.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: (&'static str, u8, u32),
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Run `f` inside a span.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: (&'static str, u8, u32),
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, Some(parent), request);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time (µs) of every span called `name`: its duration minus
    /// its direct children's.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
                own as f64 / 1e3
            })
            .collect()
    }
}

fn write_span(out: &mut impl std::io::Write, s: &Span, id_base: u32) -> std::io::Result<()> {
    let parent = match s.parent {
        Some(p) => (p + id_base).to_string(),
        None => "null".into(),
    };
    writeln!(
        out,
        "{{\"id\":{},\"parent\":{parent},\"request_id\":\"{}-c{}-{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
        s.id + id_base,
        s.request.0,
        s.request.1,
        s.request.2,
        s.name,
        s.start_ns,
        s.end_ns
    )
}

/// Cap on requests per source written to the span file.
const SPAN_FILE_REQUESTS: usize = 20_000;

/// Write wire spans (a `client.request` span per request with a
/// `server.execute` child as long as the response's `elapsed_us`, placed
/// so that it ends where the reply was received) and the embedded
/// replay's spans as JSON lines.
fn write_span_file(path: &Path, wire: &[WireSpan], replay: &SpanLog) -> Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut next_id = 0u32;
    for w in wire.iter().take(SPAN_FILE_REQUESTS) {
        let server = Span {
            id: next_id + 1,
            parent: Some(next_id),
            request: ("wire", w.conn, w.seq),
            name: "server.execute",
            start_ns: w
                .received_ns
                .saturating_sub(w.server_us * 1000)
                .max(w.due_ns),
            end_ns: w.received_ns,
        };
        // The client span also says what was asked and how it went.
        writeln!(
            out,
            "{{\"id\":{},\"parent\":null,\"request_id\":\"wire-c{}-{}\",\"name\":\"client.request\",\"start_ns\":{},\"end_ns\":{},\"class\":\"{}\",\"kind\":\"{}\",\"sent_ns\":{},\"attempts\":{}}}",
            next_id,
            w.conn,
            w.seq,
            w.due_ns,
            w.received_ns,
            config::CLASSES[w.class as usize].name(),
            KINDS[w.kind as usize],
            w.sent_ns,
            w.attempts
        )?;
        write_span(&mut out, &server, 0)?;
        next_id += 2;
    }
    let mut written_roots = 0;
    for s in &replay.spans {
        if s.parent.is_none() {
            written_roots += 1;
            if written_roots > SPAN_FILE_REQUESTS {
                break;
            }
        }
        write_span(&mut out, s, next_id)?;
    }
    out.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Source B: STATS
// ---------------------------------------------------------------------

/// One `STATS` response.
struct ServerStats(Json);

impl ServerStats {
    fn fetch(conn: &mut Conn) -> Result<ServerStats> {
        let line = conn.call("{\"op\":\"stats\"}")?;
        Ok(ServerStats(Json::parse(line.trim())?))
    }

    fn get(&self, section: &str, key: &str) -> f64 {
        self.0
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// `after - before` of one counter.
fn delta(before: &ServerStats, after: &ServerStats, section: &str, key: &str) -> f64 {
    after.get(section, key) - before.get(section, key)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile_sorted(&v, p).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Source C: embedded replay
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplayMode {
    /// What the server runs: `Mode::Adaptive(engine, exec_threads)`.
    Adaptive,
    Interp,
    Jit,
}

/// Replays request frames through the public functions `do_execute`
/// calls, in its order, on the calling thread.
struct Replayer<'a> {
    session: Session<'a>,
    engine: Arc<JitEngine>,
    analytics: SnapshotCache,
    source: &'static str,
    conn: u8,
}

impl<'a> Replayer<'a> {
    fn new(
        snb: &'a SnbDb,
        workload: Workload,
        source: &'static str,
        conn: u8,
    ) -> Result<Replayer<'a>> {
        Ok(Replayer {
            session: Session::new(snb, workload)?,
            engine: Arc::new(JitEngine::new()),
            analytics: SnapshotCache::new(),
            source,
            conn,
        })
    }

    /// Execute a resolved query the way `do_execute` does.
    fn execute(
        &self,
        q: &NamedQuery,
        params: &[PVal],
        mode: ReplayMode,
        log: &mut SpanLog,
        root: u32,
        request: (&'static str, u8, u32),
    ) -> Result<Vec<gquery::Row>> {
        let db: &GraphDb = self.session.db;
        if let Some(pg) = &q.pattern {
            let plan = log.timed("gmatch.plan", root, request, || {
                gmatch::plan(
                    pg,
                    &gmatch::DbStats(db),
                    params,
                    Some(self.engine.pgo()),
                    gmatch::PlanChoice::Best,
                )
            })?;
            let backend = match mode {
                ReplayMode::Adaptive => gmatch::Backend::Adaptive(&self.engine, 2),
                ReplayMode::Interp => gmatch::Backend::Interp,
                ReplayMode::Jit => gmatch::Backend::Jit(&self.engine),
            };
            let (rows, _) = log.timed("gmatch.exec", root, request, || {
                gmatch::execute_match(&plan, db, backend, params)
            })?;
            return Ok(rows);
        }
        let mode = match mode {
            ReplayMode::Adaptive => Mode::Adaptive(&self.engine, 2),
            ReplayMode::Interp => Mode::Interp,
            ReplayMode::Jit => Mode::Jit(&self.engine),
        };
        let mut txn = log.timed("graphcore.begin", root, request, || db.begin());
        let exec = log.begin("gquery.exec", Some(root), request);
        let mut rows: Vec<gquery::Row> = Vec::new();
        let mut cur = params.to_vec();
        for step in &q.spec.steps {
            if let Some(col) = step.feed_col {
                let Some(first) = rows.first() else {
                    rows.clear();
                    break;
                };
                cur.push(ldbc::slot_to_pval(&first[col]));
            }
            let mut ctx = ExecCtx::new(&cur);
            rows = ldbc::run_plan_ctx(&step.plan, &mut txn, &mut ctx, &mode)?;
        }
        log.end(exec);
        if q.is_update {
            log.timed("gtxn.commit", root, request, || txn.commit())?;
        }
        Ok(rows)
    }

    /// Replay one frame with a span around each call. Returns the root span.
    fn replay(&self, req: &Req, seq: u32, mode: ReplayMode, log: &mut SpanLog) -> Result<u32> {
        let request = (self.source, self.conn, seq);
        let db: &GraphDb = self.session.db;
        let root = log.begin("replay.request", None, request);
        let parsed = log.timed("gserver.parse", root, request, || {
            Request::parse(&req.frame)
        })?;
        let response = match parsed {
            Request::Execute {
                name,
                query,
                params,
                ..
            } => {
                let q = log.timed("gserver.resolve", root, request, || {
                    self.session.query(name.as_deref(), query.as_deref())
                })?;
                let pvals = log.timed("gserver.params", root, request, || {
                    self.session.params(&params)
                })?;
                let rows = self.execute(&q, &pvals, mode, log, root, request)?;
                log.timed("gserver.serialize", root, request, || {
                    let jrows: Vec<Json> = rows
                        .iter()
                        .take(1024)
                        .map(|row| {
                            Json::Arr(row.iter().map(|s| proto::slot_to_json(db, s)).collect())
                        })
                        .collect();
                    proto::ok_response(vec![
                        ("rows", Json::Arr(jrows)),
                        ("row_count", Json::Int(rows.len() as i64)),
                    ])
                })
            }
            Request::Analytics {
                algo: name,
                source,
                iters,
                ..
            } => {
                let spec = SnapshotSpec {
                    node_label: None,
                    rel_label: None,
                    node_props: Vec::new(),
                };
                let snap = log.timed("ganalytics.snapshot", root, request, || {
                    match self.analytics.get_if_current(db, &spec) {
                        Some(s) => Ok(s),
                        None => self.analytics.get_or_build(db, &spec),
                    }
                })?;
                let ctx = ExecCtx::new(&[]);
                log.timed("ganalytics.kernel", root, request, || match name.as_str() {
                    "bfs" => algo::bfs(&snap, source.unwrap_or(0), 2, &ctx).map(|d| d.len()),
                    _ => algo::pagerank(&snap, iters.unwrap_or(10) as usize, 0.85, 2, &ctx)
                        .map(|r| r.len()),
                })?;
                String::new()
            }
            _ => return err("the suite only generates execute and analytics frames"),
        };
        std::hint::black_box(response);
        log.end(root);
        Ok(root)
    }
}

/// The requests connection `conn` sends in the window, regenerated.
fn regenerate(
    workload: Workload,
    view: &DataView,
    snb: &SnbDb,
    seed: u64,
    conn: usize,
    n: usize,
) -> Vec<Req> {
    let mut stream = StreamGen::new(workload, view, snb, seed, conn, Phase::Window);
    (0..n).map(|_| stream.next_req()).collect()
}

/// Replay `reqs` until done or `budget` is spent. Returns the span log
/// and the wall time spent in request spans, in seconds.
fn replay_pass(
    replayer: &Replayer<'_>,
    reqs: &[Req],
    mode: ReplayMode,
    budget: Duration,
    warm_each: bool,
) -> Result<(SpanLog, f64, usize)> {
    let mut log = SpanLog::new();
    let start = Instant::now();
    let mut total_ns = 0u64;
    let mut done = 0;
    for (seq, req) in reqs.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        if warm_each {
            if req.class == Class::Write || req.class == Class::Analytics {
                continue;
            }
            // Untimed first execution: code cache and simulated CPU cache
            // warm. `Mode::Jit` has no interpreter to fall back on, so a
            // shape the code generator rejects is left out of its pass.
            let mut scratch = SpanLog::new();
            match replayer.replay(req, seq as u32, mode, &mut scratch) {
                Ok(_) => {}
                Err(_) if mode == ReplayMode::Jit => continue,
                Err(e) => return Err(e),
            }
        }
        let root = replayer.replay(req, seq as u32, mode, &mut log)?;
        let s = &log.spans[root as usize];
        total_ns += s.end_ns - s.start_ns;
        done += 1;
    }
    Ok((log, total_ns as f64 / 1e9, done))
}

/// The residual conjunction `gjit` would compile for a scan plan: the
/// leading filters after a `NodeScan`/`RelScan`, folded left to right.
fn residual_of(plan: &Plan) -> Option<(ExprSource, Pred)> {
    let (seg, _) = plan.split_first_segment();
    let (first, rest) = seg.split_first()?;
    let src = match first {
        Op::NodeScan { .. } => ExprSource::Node,
        Op::RelScan { .. } => ExprSource::Rel,
        _ => return None,
    };
    let mut filters = rest.iter().map_while(|op| match op {
        Op::Filter(p) => Some(p.clone()),
        _ => None,
    });
    let first = filters.next()?;
    Some((
        src,
        filters.fold(first, |acc, p| Pred::And(Box::new(acc), Box::new(p))),
    ))
}

/// Compile every distinct plan shape among `reqs` without the cache:
/// pipeline compile times and residual-expression compile times, µs.
fn compile_times(
    replayer: &Replayer<'_>,
    reqs: &[Req],
    cap: usize,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut seen = std::collections::HashSet::new();
    let (mut pipeline, mut expr) = (Vec::new(), Vec::new());
    for req in reqs {
        if seen.len() >= cap {
            break;
        }
        if req.class == Class::Analytics {
            continue;
        }
        let (q, params) = replayer.session.resolve(&req.frame)?;
        let mut plans: Vec<Plan> = q.spec.steps.iter().map(|s| s.plan.clone()).collect();
        if let Some(pg) = &q.pattern {
            let mp = gmatch::plan(
                pg,
                &gmatch::DbStats(replayer.session.db),
                &params,
                None,
                gmatch::PlanChoice::Best,
            )?;
            plans.extend(mp.pipelines.into_iter().map(|p| p.plan));
        }
        for plan in plans {
            if !seen.insert(plan.fingerprint()) {
                continue;
            }
            if let Ok(cq) = replayer.engine.compile_uncached(&plan) {
                pipeline.push(cq.compile_time.as_nanos() as f64 / 1e3);
            }
            if let Some((src, pred)) = residual_of(&plan) {
                if let Ok(ce) = CompiledExpr::compile(src, &pred, None) {
                    expr.push(ce.compile_time().as_nanos() as f64 / 1e3);
                }
            }
        }
    }
    Ok((pipeline, expr))
}

/// The four PMem primitives, each timed in isolation over `CALLS` calls
/// on a scratch pool with the PMem profile. Nanoseconds per call.
fn primitives() -> Result<[f64; 4]> {
    const CALLS: u64 = 100_000;
    const LINE: u64 = pmem::CACHE_LINE as u64;
    let file = PoolFile::new()?;
    let pool = Pool::create(file.path(), 64 << 20, DeviceProfile::pmem())?;
    let region = pool.alloc((CALLS * LINE) as usize)?;
    let per_call = |start: Instant| start.elapsed().as_nanos() as f64 / CALLS as f64;

    let t = Instant::now();
    for i in 0..CALLS {
        pool.flush(region + i * LINE, 1);
    }
    let flush = per_call(t);

    let t = Instant::now();
    for _ in 0..CALLS {
        pool.drain();
    }
    let fence = per_call(t);

    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(pool.alloc(64)?);
    }
    let alloc = per_call(t);

    // The region spans more lines than the simulated CPU cache holds, so
    // a sequential sweep misses on every line.
    pool.evict_cpu_cache();
    let t = Instant::now();
    for i in 0..CALLS {
        std::hint::black_box(pool.read_u64(region + i * LINE));
    }
    let read = per_call(t);
    Ok([flush, fence, alloc, read])
}

/// `commit` span durations (µs) of `writers` embedded writers replaying
/// their connections' update requests concurrently on one fresh pool.
fn commit_times(
    base: &BasePool,
    opts: &Options,
    writers: usize,
    budget: Duration,
) -> Result<Vec<f64>> {
    let file = world::copy_pool(base)?;
    let snb = ldbc::reopen(file.path(), DeviceProfile::pmem())?;
    let view = DataView::new(&snb)?;
    let results: Vec<Result<Vec<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|conn| {
                let (snb, view) = (&snb, &view);
                scope.spawn(move || -> Result<Vec<f64>> {
                    let reqs: Vec<Req> =
                        regenerate(Workload::Update, view, snb, opts.seed, conn, 4000);
                    let replayer = Replayer::new(snb, Workload::Update, "commit", conn as u8)?;
                    let (log, _, _) =
                        replay_pass(&replayer, &reqs, ReplayMode::Adaptive, budget, false)?;
                    Ok(log.durations_us("gtxn.commit"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| err("an embedded writer panicked"))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

pub fn traced_run(
    live: &mut Live,
    streams: &mut [StreamGen<'_>],
    opts: &Options,
    base: &BasePool,
    notes: &mut Vec<String>,
) -> Result<Traced> {
    let half = Duration::from_secs(opts.seconds) / 2;
    let snb = live.served.snb.clone();
    let mut control = Conn::open(live.served.addr(), &[])?;
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, n: u64| {
        m.push(Metric::new(name, value, unit, n));
    };

    // Untraced half, then traced half, on the same set-up.
    let untraced = WindowSpec {
        length: half,
        rate_rps: config::OPEN_RATE_RPS,
        check_answers: false,
        trace: false,
    };
    let mut others = live.window(streams, opts, untraced)?;
    let untraced_rate = (others.attempted - others.failed) as f64 / half.as_secs_f64();
    let before = ServerStats::fetch(&mut control)?;
    let pool_before = snb.db.pool().bytes_remaining();
    let record = live.window(
        streams,
        opts,
        WindowSpec {
            check_answers: opts.workload.is_read_only(),
            trace: true,
            ..untraced
        },
    )?;
    let after = ServerStats::fetch(&mut control)?;
    let pool_after = snb.db.pool().bytes_remaining();

    let traced_rate = (record.attempted - record.failed) as f64 / half.as_secs_f64();
    push(
        "suite.trace_overhead_share",
        1.0 - ratio(traced_rate, untraced_rate),
        "share",
        record.attempted,
    );

    // Wire floor: lock-step pings on the now idle server.
    let mut pings = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        control.call("{\"op\":\"ping\"}")?;
        pings.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let floor_us = p50(&pings);
    push("gserver.ping_rtt_us", floor_us, "us", pings.len() as u64);

    // ---- Source A: wire spans --------------------------------------
    let ok: Vec<&WireSpan> = record.spans.iter().filter(|s| s.ok).collect();
    let n_ok = ok.len() as u64;
    let overhead: Vec<f64> = ok
        .iter()
        .map(|s| (s.received_ns - s.due_ns) as f64 / 1e3 - s.server_us as f64)
        .collect();
    push("gserver.wire_overhead_us", p50(&overhead), "us", n_ok);
    let queue: Vec<f64> = overhead.iter().map(|o| (o - floor_us).max(0.0)).collect();
    push("gserver.queue_p50_us", p50(&queue), "us", n_ok);
    push("gserver.queue_p99_us", percentile(&queue, 99.0), "us", n_ok);
    let sum = |f: fn(&WireSpan) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;
    let nf = n_ok.max(1) as f64;
    push(
        "gserver.rows_per_response",
        sum(|s| s.rows) / nf,
        "1/req",
        n_ok,
    );
    push(
        "gmatch.rows_in_per_row_out",
        ratio(sum(|s| s.expand_rows_in), sum(|s| s.expand_rows_out)),
        "ratio",
        ok.iter().filter(|s| s.expand_rows_in > 0).count() as u64,
    );
    let morsels = sum(|s| s.morsels);
    push("gquery.morsels_per_req", morsels / nf, "1/req", n_ok);
    push(
        "gquery.chunks_pruned_share",
        ratio(sum(|s| s.chunks_pruned), sum(|s| s.chunks_pruned) + morsels),
        "share",
        n_ok,
    );
    push(
        "gquery.fast_path_share",
        ratio(sum(|s| s.fast_path_morsels), morsels),
        "share",
        n_ok,
    );
    push(
        "gquery.residual_rows_per_req",
        sum(|s| s.residual_rows) / nf,
        "1/req",
        n_ok,
    );
    let (compiled, interpreted) = (sum(|s| s.compiled_morsels), sum(|s| s.interpreted_morsels));
    push(
        "gjit.compiled_morsel_share",
        ratio(compiled, compiled + interpreted),
        "share",
        n_ok,
    );
    push(
        "gjit.fallback_share",
        ok.iter().filter(|s| s.fallback).count() as f64 / nf,
        "share",
        n_ok,
    );
    let analytics: Vec<&&WireSpan> = ok.iter().filter(|s| s.snapshot_reused.is_some()).collect();
    let built: Vec<f64> = analytics
        .iter()
        .filter(|s| s.snapshot_reused == Some(false))
        .map(|s| s.snapshot_build_us as f64 / 1e3)
        .collect();
    push(
        "ganalytics.snapshot_build_ms",
        p50(&built),
        "ms",
        built.len() as u64,
    );
    push(
        "ganalytics.snapshot_reuse_share",
        ratio(
            analytics
                .iter()
                .filter(|s| s.snapshot_reused == Some(true))
                .count() as f64,
            analytics.len() as f64,
        ),
        "share",
        analytics.len() as u64,
    );
    for (name, kind) in [
        ("ganalytics.pagerank_ms", "pagerank"),
        ("ganalytics.bfs_ms", "bfs"),
    ] {
        let ms: Vec<f64> = analytics
            .iter()
            .filter(|s| KINDS[s.kind as usize] == kind)
            .map(|s| s.server_us as f64 / 1e3)
            .collect();
        push(name, p50(&ms), "ms", ms.len() as u64);
    }
    let mut late: Vec<u32> = record.gen_late_ns.clone();
    late.sort_unstable();
    push(
        "suite.gen_late_p99_us",
        f64::from(stats::percentile_sorted(&late, 99.0).unwrap_or(0)) / 1e3,
        "us",
        late.len() as u64,
    );

    // ---- Source B: STATS deltas ------------------------------------
    let requests = record.attempted.max(1) as f64;
    let d = |section: &str, key: &str| delta(&before, &after, section, key);
    push(
        "gserver.epoll_waits_per_req",
        d("net", "epoll_waits") / requests,
        "1/req",
        record.attempted,
    );
    push(
        "gserver.reactor_wakeups_per_req",
        d("net", "reactor_wakeups") / requests,
        "1/req",
        record.attempted,
    );
    push(
        "gserver.read_pauses",
        d("net", "read_pauses"),
        "count",
        record.attempted,
    );
    push(
        "gserver.busy_share",
        ratio(d("admission", "rejected"), d("requests", "total")),
        "share",
        record.attempted,
    );
    let (hits, compiles) = (d("jit", "cache_hits"), d("jit", "compiles"));
    push(
        "gjit.cache_hit_share",
        ratio(hits, hits + compiles),
        "share",
        (hits + compiles) as u64,
    );
    push("gjit.compiles", compiles, "count", record.attempted);
    push(
        "gjit.evictions",
        d("jit", "evictions"),
        "count",
        record.attempted,
    );
    push(
        "gtxn.group_size",
        ratio(d("pmem", "grouped_txns"), d("pmem", "commit_groups")),
        "txn",
        d("pmem", "commit_groups") as u64,
    );
    push(
        "gtxn.conflict_share",
        ratio(d("txn", "conflicts"), d("txn", "begun")),
        "share",
        d("txn", "begun") as u64,
    );
    let writes = record.latency[Class::Write as usize].count() as u64;
    let per_txn = |v: f64| ratio(v, writes as f64);
    push(
        "pmem.fences_per_txn",
        per_txn(d("pmem", "fences")),
        "1/txn",
        writes,
    );
    push(
        "pmem.lines_per_txn",
        per_txn(d("pmem", "lines_flushed")),
        "1/txn",
        writes,
    );
    push(
        "pmem.blocks_per_txn",
        per_txn(d("pmem", "blocks_flushed")),
        "1/txn",
        writes,
    );
    push(
        "pmem.allocs_per_txn",
        per_txn(d("pmem", "allocs")),
        "1/txn",
        writes,
    );
    push(
        "pmem.write_bytes_per_txn",
        per_txn(d("pmem", "write_bytes")),
        "B/txn",
        writes,
    );
    push(
        "pmem.pool_bytes_per_txn",
        per_txn(pool_before.saturating_sub(pool_after) as f64),
        "B/txn",
        writes,
    );
    push(
        "pmem.read_bytes_per_req",
        d("pmem", "read_bytes") / requests,
        "B/req",
        record.attempted,
    );

    // ---- Load ladder (open loop only) ------------------------------
    let mut max_rate_ok = 0.0;
    let mut steps = 0;
    if opts.workload.is_open_loop() {
        let step = Duration::from_secs(opts.seconds) / 4;
        for offered in config::LADDER_RPS {
            let r = live.window(
                streams,
                opts,
                WindowSpec {
                    length: step,
                    rate_rps: offered,
                    ..untraced
                },
            )?;
            // Against what the schedule actually held: a Poisson draw of
            // `offered` is a few percent off its nominal rate on its own.
            let answered = ratio((r.attempted - r.failed) as f64, r.attempted as f64);
            let miss = ratio((r.failed + r.late_answers) as f64, r.attempted as f64);
            steps += 1;
            notes.push(format!(
                "ladder {offered} req/s: {} scheduled, {:.4} answered, miss_share {miss:.4}",
                r.attempted, answered
            ));
            if miss <= 0.01 && answered >= 0.98 {
                max_rate_ok = offered;
            }
            others.merge(r);
        }
    }
    push("gserver.max_rate_ok_rps", max_rate_ok, "1/s", steps);

    // ---- Source C: embedded replay ---------------------------------
    let budget = Duration::from_millis(150 * opts.seconds.clamp(2, 10));
    let pmem_file = world::copy_pool(base)?;
    let pmem_db = ldbc::reopen(pmem_file.path(), DeviceProfile::pmem())?;
    let view = DataView::new(&pmem_db)?;
    let reqs = regenerate(opts.workload, &view, &pmem_db, opts.seed, 0, 4000);
    let on_pmem = Replayer::new(&pmem_db, opts.workload, "replay", 0)?;
    let (log, pmem_s, replayed) =
        replay_pass(&on_pmem, &reqs, ReplayMode::Adaptive, budget, false)?;
    let span_p50 = |log: &SpanLog, name: &str| {
        let d = log.durations_us(name);
        (p50(&d), d.len() as u64)
    };
    for (metric, span) in [
        ("gserver.parse_us", "gserver.parse"),
        ("gserver.resolve_us", "gserver.resolve"),
        ("gserver.serialize_us", "gserver.serialize"),
        ("graphcore.begin_us", "graphcore.begin"),
        ("gmatch.plan_us", "gmatch.plan"),
        ("gmatch.exec_us", "gmatch.exec"),
        ("gtxn.commit_us", "gtxn.commit"),
    ] {
        let (v, n) = span_p50(&log, span);
        push(metric, v, "us", n);
    }
    let own = log.self_us("replay.request");
    push("suite.replay_self_us", p50(&own), "us", own.len() as u64);

    // The same requests on the DRAM profile: what is left is software.
    let dram_file = world::copy_pool(base)?;
    let dram_db = ldbc::reopen(dram_file.path(), DeviceProfile::dram())?;
    let on_dram = Replayer::new(&dram_db, opts.workload, "replay-dram", 0)?;
    let (_, dram_s, _) = replay_pass(
        &on_dram,
        &reqs[..replayed],
        ReplayMode::Adaptive,
        budget * 4,
        false,
    )?;
    push(
        "pmem.model_share",
        1.0 - ratio(dram_s, pmem_s),
        "share",
        replayed as u64,
    );

    // Interpreter against warm compiled code, on read requests.
    let half_budget = budget / 2;
    let (interp, _, _) = replay_pass(&on_pmem, &reqs, ReplayMode::Interp, half_budget, true)?;
    let (jit, _, _) = replay_pass(&on_pmem, &reqs, ReplayMode::Jit, half_budget, true)?;
    let exec_us = |log: &SpanLog| {
        let mut d = log.durations_us("gquery.exec");
        d.extend(log.durations_us("gmatch.exec"));
        d
    };
    let (interp_us, jit_us) = (exec_us(&interp), exec_us(&jit));
    push(
        "gquery.exec_interp_us",
        p50(&interp_us),
        "us",
        interp_us.len() as u64,
    );
    push(
        "gjit.exec_compiled_us",
        p50(&jit_us),
        "us",
        jit_us.len() as u64,
    );
    push(
        "gjit.speedup_vs_interp",
        ratio(p50(&interp_us), p50(&jit_us)),
        "ratio",
        jit_us.len() as u64,
    );

    let (pipeline_us, expr_us) = compile_times(&on_pmem, &reqs, 200)?;
    push(
        "gjit.compile_p50_us",
        p50(&pipeline_us),
        "us",
        pipeline_us.len() as u64,
    );
    push(
        "gjit.compile_p99_us",
        percentile(&pipeline_us, 99.0),
        "us",
        pipeline_us.len() as u64,
    );
    push(
        "gjit.expr_compile_us",
        p50(&expr_us),
        "us",
        expr_us.len() as u64,
    );

    // Index lookup and dictionary lookup in isolation.
    let txn = pmem_db.db.begin();
    let mut lookups = Vec::with_capacity(1000);
    for id in pmem_db.data.person_ids.iter().cycle().take(1000) {
        let t = Instant::now();
        std::hint::black_box(txn.lookup_nodes("Person", "id", &Value::Int(*id))?);
        lookups.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(txn);
    push(
        "graphcore.index_lookup_us",
        p50(&lookups),
        "us",
        lookups.len() as u64,
    );
    let mut dict = Vec::with_capacity(1000);
    for s in ["Firefox", "female", "Newy", "new post content", "10.1.2.3"]
        .iter()
        .cycle()
        .take(1000)
    {
        let j = Json::Str((*s).into());
        let t = Instant::now();
        std::hint::black_box(proto::json_to_pval(&pmem_db.db, &j)?);
        dict.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    push("gstore.dict_lookup_us", p50(&dict), "us", dict.len() as u64);

    // Two embedded writers against one: the group-commit inversion
    // shows as the first exceeding `gtxn.commit_us`.
    let writes_in_mix = !opts.workload.is_read_only();
    let two = if writes_in_mix {
        commit_times(base, opts, 2, half_budget)?
    } else {
        Vec::new()
    };
    push("gtxn.commit_2w_us", p50(&two), "us", two.len() as u64);

    push(
        "graphcore.open_ms",
        world::recovery_ms(&world::copy_pool(base)?, 3)?,
        "ms",
        3,
    );

    let [flush, fence, alloc, read] = primitives()?;
    push("pmem.flush_line_ns", flush, "ns", 100_000);
    push("pmem.fence_ns", fence, "ns", 100_000);
    push("pmem.alloc_ns", alloc, "ns", 100_000);
    push("pmem.read_line_ns", read, "ns", 100_000);

    if let Some(path) = &opts.span_file {
        write_span_file(path, &record.spans, &log)?;
    }
    Ok(Traced {
        record,
        others,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        let r = ("test", 0, 7);
        log.spans = vec![
            Span {
                id: 0,
                parent: None,
                request: r,
                name: "root",
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                id: 1,
                parent: Some(0),
                request: r,
                name: "a",
                start_ns: 1_000,
                end_ns: 4_000,
            },
            Span {
                id: 2,
                parent: Some(0),
                request: r,
                name: "b",
                start_ns: 5_000,
                end_ns: 9_000,
            },
            Span {
                id: 3,
                parent: Some(2),
                request: r,
                name: "c",
                start_ns: 6_000,
                end_ns: 7_000,
            },
        ];
        assert_eq!(log.durations_us("root"), vec![10.0]);
        assert_eq!(log.self_us("root"), vec![3.0]); // 10 - 3 - 4
        assert_eq!(log.self_us("b"), vec![3.0]); // 4 - 1
        assert_eq!(log.self_us("c"), vec![1.0]);
    }

    #[test]
    fn span_lines_share_request_ids_and_parents() {
        let mut log = SpanLog::new();
        let r = ("replay", 1, 42);
        let root = log.begin("replay.request", None, r);
        let child = log.begin("gserver.parse", Some(root), r);
        log.end(child);
        log.end(root);
        let mut out = Vec::new();
        for s in &log.spans {
            write_span(&mut out, s, 100).unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent"), lines[0].get("id"));
        assert_eq!(lines[0].get("request_id"), lines[1].get("request_id"));
        assert_eq!(
            lines[0].get("request_id").and_then(Json::as_str),
            Some("replay-c1-42")
        );
    }
}
