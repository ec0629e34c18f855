//! One workload, one process: generate the data, set the server up,
//! drive the window, check the outputs, derive the end-to-end metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::config::{self, Class, Scale, CLASSES};
use crate::gen::{open_schedule, DataView, Phase, Scheduled, StreamGen, Workload};
use crate::load::{completions_in_slice, Conn, ConnRecord, KeepAwake, WindowSpec};
use crate::oracle::{self, Oracle};
use crate::report::{Metric, WorkloadResult};
use crate::stats;
use crate::world::{self, BasePool, PoolFile, Result, Served};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Do the traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    pub scale: Scale,
    /// `update` only: also run the untimed durability check.
    pub durability: bool,
    /// Traced run: where the span file goes.
    pub span_file: Option<PathBuf>,
}

/// A set-up system: server, connections with their statements prepared
/// and warmed up.
pub struct Live {
    pub served: Served,
    pub conns: Vec<Conn>,
}

impl Live {
    /// Pool copy + reopen + serve + connect + prepare + warm-up: what
    /// `setup_s` times.
    fn set_up(base: &BasePool, opts: &Options) -> Result<(Live, DataView)> {
        let served = Served::start(base)?;
        let view = DataView::new(&served.snb)?;
        let statements = StreamGen::prepared(opts.workload);
        let mut conns = Vec::new();
        for conn_id in 0..config::CONNECTIONS {
            let mut conn = Conn::open(served.addr(), &statements)?;
            let mut warm = StreamGen::new(
                opts.workload,
                &view,
                &served.snb,
                opts.seed,
                conn_id,
                Phase::Warmup,
            );
            conn.warm_up(&mut warm, config::WARMUP_ROUNDS)?;
            conns.push(conn);
        }
        Ok((Live { served, conns }, view))
    }

    /// Close the connections, stop the server, close the pool.
    pub fn tear_down(self) -> Result<PoolFile> {
        drop(self.conns);
        self.served.stop()
    }

    /// Drive one window on every connection and merge what they recorded.
    /// `streams` continue across calls, so two windows never send the
    /// same request twice.
    pub fn window(
        &mut self,
        streams: &mut [StreamGen<'_>],
        opts: &Options,
        spec: WindowSpec,
    ) -> Result<ConnRecord> {
        let WindowSpec {
            length: window,
            rate_rps,
            trace,
            ..
        } = spec;
        let window_ns = window.as_nanos() as u64;
        let lead = Duration::from_millis(20);
        let records: Vec<Result<ConnRecord>> = if opts.workload.is_open_loop() {
            let schedules: Vec<Vec<Scheduled>> = streams
                .iter_mut()
                .enumerate()
                .map(|(i, s)| {
                    let per_conn = rate_rps / config::CONNECTIONS as f64;
                    open_schedule(s, opts.seed ^ ((i as u64 + 1) << 32), per_conn, window_ns)
                })
                .collect();
            let epoch = Instant::now();
            let start_ns = lead.as_nanos() as u64;
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .conns
                    .iter_mut()
                    .zip(&schedules)
                    .enumerate()
                    .map(|(i, (conn, sched))| {
                        scope.spawn(move || {
                            conn.run_open(i, sched, epoch, start_ns, window_ns, trace)
                        })
                    })
                    .collect();
                handles.into_iter().map(join).collect()
            })
        } else {
            let start = Instant::now() + lead;
            let seed = opts.seed;
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .conns
                    .iter_mut()
                    .zip(streams.iter_mut())
                    .enumerate()
                    .map(|(i, (conn, stream))| {
                        scope.spawn(move || conn.run_closed(i, stream, start, seed, &spec))
                    })
                    .collect();
                handles.into_iter().map(join).collect()
            })
        };
        let mut records = records.into_iter();
        let mut merged = records.next().expect("CONNECTIONS > 0")?;
        for rec in records {
            merged.merge(rec?);
        }
        Ok(merged)
    }
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    match h.join() {
        Ok(r) => r,
        Err(_) => world::err("a load-generator thread panicked"),
    }
}

/// End-to-end metrics of one window.
pub fn end_to_end_metrics(
    workload: Workload,
    rec: &ConnRecord,
    window: Duration,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let slice_s = window.as_secs_f64() / config::SLICES as f64;
    let succeeded = rec.attempted - rec.failed;

    let per_slice_rate: Vec<f64> = (0..config::SLICES)
        .map(|i| completions_in_slice(rec, i) as f64 / slice_s)
        .collect();
    out.extend(Metric::median_of_slices(
        "throughput_rps",
        &per_slice_rate,
        "1/s",
        succeeded,
    ));

    for class in CLASSES {
        let samples = &rec.latency[class as usize];
        let sorted = samples.sorted_all();
        let Some(p50) = stats::percentile_sorted(&sorted, 50.0) else {
            continue;
        };
        let n = sorted.len() as u64;
        let p50 = Metric::new(
            format!("{}_p50_us", class.name()),
            f64::from(p50) / 1e3,
            "us",
            n,
        );
        // On `mixed_open`, scans and analytics calls are too few for a p99.
        let wants_p99 = !(workload == Workload::MixedOpen
            && matches!(class, Class::Scan | Class::Analytics))
            && class != Class::Analytics;
        // p99 over the whole window. A per-slice p99 needs ten samples
        // beyond it in every slice, which at 10 s windows only the two
        // fastest workloads have; the per-slice values are still shown as
        // the spread beside the number.
        let p99 = (wants_p99 && stats::beyond(sorted.len(), 99.0) >= 10).then(|| {
            let per_slice: Vec<f64> = samples.per_slice_percentile(99.0);
            Metric {
                name: format!("{}_p99_us", class.name()),
                value: f64::from(stats::percentile_sorted(&sorted, 99.0).expect("non-empty")) / 1e3,
                unit: "us".into(),
                n,
                slice_iqr: stats::iqr_share(&per_slice),
            }
        });
        if wants_p99 && p99.is_none() {
            notes.push(format!(
                "{}_p99_us: only {} sample(s) beyond p99, 10 resolve it: not reported",
                class.name(),
                stats::beyond(sorted.len(), 99.0)
            ));
        }
        if class == workload.primary_class() {
            out.push(Metric {
                name: "p50_us".into(),
                ..p50.clone()
            });
            if let Some(p99) = &p99 {
                out.push(Metric {
                    name: "p99_us".into(),
                    ..p99.clone()
                });
            }
        }
        out.push(p50);
        out.extend(p99);
    }

    let attempted = rec.attempted.max(1) as f64;
    let fail_share = rec.failed as f64 / attempted;
    let miss_share = (rec.failed + rec.late_answers) as f64 / attempted;
    out.push(Metric::new(
        "fail_share",
        fail_share,
        "share",
        rec.attempted,
    ));
    out.push(Metric::new(
        "miss_share",
        miss_share,
        "share",
        rec.attempted,
    ));
    out.push(Metric::new(
        "in_limit_share",
        1.0 - miss_share,
        "share",
        rec.attempted,
    ));
    out
}

/// Run `opts.workload` in this process.
pub fn run_workload(opts: &Options) -> Result<WorkloadResult> {
    let started = Instant::now();
    // From here to the result: set-up and recovery times are measured
    // under the same conditions as the window.
    let awake = KeepAwake::start();
    let base = world::generate_base(opts.scale)?;
    let mut notes = Vec::new();
    let mut phases = vec![("generate", started.elapsed())];
    let mut problems = Vec::new();

    // Set up several times; the window runs on the last set-up.
    let mut setup_times = Vec::with_capacity(config::SETUPS);
    let mut live: Option<(Live, DataView)> = None;
    for _ in 0..config::SETUPS {
        if let Some((previous, _)) = live.take() {
            previous.tear_down()?;
        }
        let start = Instant::now();
        live = Some(Live::set_up(&base, opts)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    phases.push(("set-ups", started.elapsed()));
    let (mut live, view) = live.expect("SETUPS > 0");
    let snb = live.served.snb.clone();
    let mut streams: Vec<StreamGen<'_>> = (0..config::CONNECTIONS)
        .map(|c| StreamGen::new(opts.workload, &view, &snb, opts.seed, c, Phase::Window))
        .collect();

    let window = Duration::from_secs(opts.seconds);
    let before = (snb.db.node_count(), snb.db.rel_count());
    let mut per_layer = vec![Metric::new("ldbc.generate_s", base.generate_s, "s", 1)];

    // Inserts acknowledged outside the window the metrics come from.
    let mut other_inserts = ConnRecord::default();
    let rec = if opts.trace {
        let traced = crate::trace::traced_run(&mut live, &mut streams, opts, &base, &mut notes)?;
        per_layer.extend(traced.metrics);
        other_inserts = traced.others;
        traced.record
    } else {
        live.window(
            &mut streams,
            opts,
            WindowSpec {
                length: window,
                rate_rps: config::OPEN_RATE_RPS,
                check_answers: opts.workload.is_read_only(),
                trace: false,
            },
        )?
    };
    phases.push(("window", started.elapsed()));
    let measured = if opts.trace { window / 2 } else { window };
    let mut end_to_end = end_to_end_metrics(opts.workload, &rec, measured, &mut notes);

    // Output checks.
    let checked = if opts.workload.is_read_only() {
        let oracle = Oracle::new(&snb, opts.workload, opts.scale)?;
        let (n, wrong) = oracle.check_all(&rec.checked);
        if n < config::CHECKED_PER_CLASS.min(rec.attempted as usize / 16) {
            problems.push(format!("only {n} answers could be checked"));
        }
        problems.extend(wrong);
        n as u64
    } else {
        let checked = rec.entities.len() as u64;
        other_inserts.nodes_added += rec.nodes_added;
        other_inserts.rels_added += rec.rels_added;
        other_inserts.entities.extend(rec.entities.iter().copied());
        problems.extend(oracle::check_inserts(&snb.db, before, &other_inserts)?);
        checked
    };
    if rec.failed > 0 || rec.retries > 0 {
        notes.push(format!(
            "{} of {} requests failed; {} re-sends after retryable errors",
            rec.failed, rec.attempted, rec.retries
        ));
    }
    notes.extend(rec.failures.iter().map(|f| format!("failed: {f}")));
    notes.push(format!("generator threads ran under {}", rec.scheduling));

    phases.push(("checks", started.elapsed()));
    drop(streams);
    drop(snb);
    let pool = live.tear_down()?;
    phases.push(("tear-down", started.elapsed()));
    let recovery = world::recovery_ms(&pool, config::RECOVERY_OPENS)?;
    phases.push(("recovery", started.elapsed()));

    end_to_end.push(Metric::new(
        "setup_s",
        stats::median(&setup_times).expect("SETUPS > 0"),
        "s",
        config::SETUPS as u64,
    ));
    end_to_end.push(Metric::new(
        "recovery_ms",
        recovery,
        "ms",
        config::RECOVERY_OPENS as u64,
    ));

    if opts.durability && opts.workload == Workload::Update {
        let d = oracle::durability_check(opts.scale, opts.seed, 500)?;
        per_layer.push(Metric::new(
            "suite.lost_writes",
            d.lost_writes as f64,
            "count",
            d.acknowledged,
        ));
        if d.lost_writes > 0 {
            problems.push(format!(
                "{} of {} acknowledged writes lost in the simulated crash",
                d.lost_writes, d.acknowledged
            ));
        }
    }
    end_to_end.push(Metric::new("peak_rss_mb", world::peak_rss_mb()?, "MiB", 1));
    notes.push(format!(
        "{} CPU(s) kept out of the idle loop",
        awake.finish()
    ));

    let mut at = Duration::ZERO;
    let timeline: Vec<String> = phases
        .iter()
        .map(|(name, end)| {
            let took = *end - at;
            at = *end;
            format!("{name} {:.1} s", took.as_secs_f64())
        })
        .collect();
    notes.push(format!("wall time: {}", timeline.join(", ")));

    // A wrong answer is a failed request.
    let wrong = problems.len() as u64;
    Ok(WorkloadResult {
        workload: opts.workload.name(),
        attempted: rec.attempted.max(1),
        failed: (rec.failed + wrong).min(rec.attempted.max(1)),
        problems,
        checked,
        end_to_end,
        per_layer,
        notes,
    })
}
