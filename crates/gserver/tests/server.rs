//! End-to-end server tests over real TCP sockets: concurrent sessions,
//! rollback-on-disconnect, admission control, idle reaping, deadlines,
//! graceful shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gjit::JitEngine;
use graphcore::DbOptions;
use gserver::{
    serve, BatchItem, Client, ClientError, ErrorCode, Json, NetMode, Param, ServerConfig,
    ServerHandle,
};
use ldbc::{SnbDb, SnbParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn start(config: ServerConfig) -> (Arc<SnbDb>, ServerHandle) {
    let snb = Arc::new(
        ldbc::generate(&SnbParams::tiny(11), DbOptions::dram(128 << 20)).expect("generate"),
    );
    let engine = Arc::new(JitEngine::new());
    let handle = serve(snb.clone(), engine, config).expect("bind");
    (snb, handle)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    }
}

/// Run `f`, retrying on retryable server errors (SERVER_BUSY under load,
/// TXN_CONFLICT between concurrent writers).
fn with_retry<T>(
    mut f: impl FnMut() -> Result<T, ClientError>,
    what: &str,
) -> Result<T, ClientError> {
    let mut backoff = Duration::from_millis(5);
    for _ in 0..50 {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(80));
            }
            Err(e) => return Err(e),
        }
    }
    panic!("{what}: retries exhausted");
}

fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

// ---------------------------------------------------------------------

#[test]
fn concurrent_sessions_mixed_reads_and_updates() {
    let (snb, handle) = start(test_config());
    let addr = handle.local_addr();
    let persons = snb.data.person_ids.clone();
    let posts = snb.data.post_ids.clone();
    let baseline_commits = snb
        .db
        .mgr()
        .stats()
        .commits
        .load(std::sync::atomic::Ordering::Relaxed);

    const THREADS: usize = 5;
    const ITERS: usize = 12;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let persons = persons.clone();
            let posts = posts.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                let mut client = Client::connect(addr).expect("connect");
                client
                    .prepare("profile", "is1")
                    .expect("prepare is1");
                let mut reads = 0usize;
                let mut writes = 0usize;
                for i in 0..ITERS {
                    let person = persons[rng.random_range(0..persons.len())];
                    let post = posts[rng.random_range(0..posts.len())];
                    match i % 3 {
                        // Autocommit read through the prepared statement.
                        0 => {
                            let r = with_retry(
                                || client.execute("profile", &[Param::Int(person)]),
                                "is1",
                            )
                            .expect("is1");
                            assert_eq!(r.row_count, 1, "person {person} should have a profile");
                            reads += 1;
                        }
                        // Autocommit update (IU2: person likes a post).
                        1 => {
                            with_retry(
                                || {
                                    client.query(
                                        "iu2",
                                        &[
                                            Param::Int(person),
                                            Param::Int(post),
                                            Param::Date(1_600_000_000_000 + i as i64),
                                        ],
                                    )
                                },
                                "iu2",
                            )
                            .expect("iu2");
                            writes += 1;
                        }
                        // Explicit transaction: read + update + commit,
                        // restarted wholesale on conflict.
                        _ => {
                            with_retry(
                                || {
                                    client.begin()?;
                                    let step = (|| {
                                        client.execute("profile", &[Param::Int(person)])?;
                                        client.query(
                                            "iu2",
                                            &[
                                                Param::Int(person),
                                                Param::Int(post),
                                                Param::Date(1_700_000_000_000 + i as i64),
                                            ],
                                        )?;
                                        client.commit()
                                    })();
                                    if step.is_err() {
                                        let _ = client.rollback();
                                    }
                                    step
                                },
                                "txn",
                            )
                            .expect("explicit txn");
                            writes += 1;
                        }
                    }
                }
                client.quit().expect("quit");
                (reads, writes)
            })
        })
        .collect();

    let mut total_reads = 0;
    let mut total_writes = 0;
    for w in workers {
        let (r, u) = w.join().expect("worker thread");
        total_reads += r;
        total_writes += u;
    }
    assert_eq!(total_reads, THREADS * ITERS.div_ceil(3));
    assert!(total_writes >= THREADS * ITERS / 2);

    // All sessions drained after quit; every update really committed.
    assert!(
        poll_until(Duration::from_secs(2), || handle.active_sessions() == 0),
        "sessions leaked: {}",
        handle.active_sessions()
    );
    let commits = snb
        .db
        .mgr()
        .stats()
        .commits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        commits - baseline_commits >= total_writes as u64,
        "expected >= {total_writes} commits, got {}",
        commits - baseline_commits
    );
    let stats = handle.stats();
    assert!(stats.admitted.load(std::sync::atomic::Ordering::Relaxed) > 0);
    handle.shutdown();
}

#[test]
fn disconnect_mid_transaction_rolls_back() {
    let (snb, handle) = start(test_config());
    let addr = handle.local_addr();
    let nodes_before = snb.db.node_count();

    // Build IU1 params by hand: a fresh person inserted under an explicit,
    // never-committed transaction.
    let city = snb.data.city_ids[0];
    let fresh_pid = snb.data.fresh_person_id();
    let iu1_params = vec![
        Param::Int(city),
        Param::Int(fresh_pid),
        Param::Str("Ghost".into()),
        Param::Str("Writer".into()),
        Param::Str("female".into()),
        Param::Date(631_152_000_000),
        Param::Date(1_600_000_000_000),
        Param::Str("10.0.0.1".into()),
        Param::Str("Firefox".into()),
    ];

    let mut victim = Client::connect(addr).expect("connect victim");
    victim.begin().expect("begin");
    victim.query("iu1", &iu1_params).expect("iu1 in txn");
    // The uncommitted insert is visible to its own transaction through the
    // scan-shaped access path (index entries only land at commit).
    let seen = victim
        .query("is1:scan", &[Param::Int(fresh_pid)])
        .expect("is1:scan own write");
    assert_eq!(seen.row_count, 1, "own uncommitted insert must be visible");

    // Kill the client mid-transaction: raw socket drop, no rollback sent.
    drop(victim);

    // The server must notice, roll back, and free the session.
    assert!(
        poll_until(Duration::from_secs(3), || {
            handle
                .stats()
                .disconnect_rollbacks
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        }),
        "disconnect rollback not recorded"
    );
    assert!(
        poll_until(Duration::from_secs(3), || handle.active_sessions() == 0),
        "victim session leaked"
    );

    // A fresh session must not see the phantom person, and the node table
    // must be back to its pre-transaction size.
    let mut checker = Client::connect(addr).expect("connect checker");
    let seen = checker
        .query("is1:scan", &[Param::Int(fresh_pid)])
        .expect("is1:scan after rollback");
    assert_eq!(seen.row_count, 0, "rolled-back insert must be invisible");
    assert_eq!(snb.db.node_count(), nodes_before, "node count must revert");
    checker.quit().expect("quit");

    assert!(poll_until(Duration::from_secs(2), || {
        handle.active_sessions() == 0
    }));
    handle.shutdown();
}

#[test]
fn saturation_yields_retryable_server_busy() {
    let config = ServerConfig {
        workers: 1,
        admission_wait: Duration::from_millis(30),
        enable_debug_ops: true,
        // Rejecting while the slot is held takes a second thread to reject
        // on: with one net worker (`PMEMGRAPH_NET_WORKERS=1`) the probe
        // would queue behind the sleep instead of reaching admission.
        net_workers: 2,
        ..test_config()
    };
    let (snb, handle) = start(config);
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];

    // Occupy the single execution slot for a while.
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect blocker");
        c.sleep(800).expect("sleep");
        c.quit().expect("quit");
    });
    std::thread::sleep(Duration::from_millis(150));

    // While the slot is held, execution requests must be rejected quickly
    // with a retryable SERVER_BUSY — not queued, not hung. (Preparing a
    // statement needs no execution slot, so it works even when saturated.)
    let mut c = Client::connect(addr).expect("connect probe");
    c.prepare("is1", "is1").expect("prepare");
    let t0 = Instant::now();
    let err = c
        .execute_with_deadline("is1", &[Param::Int(person)], Duration::from_secs(5))
        .expect_err("must be rejected while saturated");
    assert!(t0.elapsed() < Duration::from_secs(1), "rejection must be fast");
    assert_eq!(err.code(), Some(ErrorCode::ServerBusy), "got {err}");
    assert!(err.is_retryable());
    assert!(
        handle
            .stats()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Once the blocker releases the slot, the same request succeeds.
    blocker.join().expect("blocker");
    let r = with_retry(|| c.query("is1", &[Param::Int(person)]), "is1 after drain")
        .expect("is1 after drain");
    assert_eq!(r.row_count, 1);
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn idle_sessions_are_reaped() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(250),
        maintenance_interval: Duration::from_millis(50),
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let addr = handle.local_addr();

    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("ping");
    assert_eq!(handle.active_sessions(), 1);

    // Go idle past the timeout: the maintenance sweep closes the socket
    // and the session is deregistered.
    assert!(
        poll_until(Duration::from_secs(3), || handle.active_sessions() == 0),
        "idle session was not reaped"
    );
    assert!(
        handle
            .stats()
            .sessions_expired
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    assert!(c.ping().is_err(), "reaped session must be unusable");
    handle.shutdown();
}

#[test]
fn deadlines_are_enforced() {
    let (snb, handle) = start(test_config());
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];

    let mut c = Client::connect(addr).expect("connect");
    c.prepare("is1", "is1").expect("prepare");
    let err = c
        .execute_with_deadline("is1", &[Param::Int(person)], Duration::ZERO)
        .expect_err("zero deadline must miss");
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
    // A missed deadline is retryable: the server rolled the work back, so
    // the client may re-issue (ideally with a larger deadline).
    assert!(err.is_retryable());
    assert!(
        handle
            .stats()
            .deadline_misses
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    // The session is still healthy afterwards.
    let r = c.query("is1", &[Param::Int(person)]).expect("is1");
    assert_eq!(r.row_count, 1);
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn match_honours_the_request_deadline() {
    let (snb, handle) = start(test_config());
    let person = snb.data.person_ids[0];

    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.prepare(
        "fof",
        "match (a:Person {id = ?0})-[:KNOWS*1..2]->(b:Person) return b.id",
    )
    .expect("prepare match");
    let err = c
        .execute_with_deadline("fof", &[Param::Int(person)], Duration::ZERO)
        .expect_err("a zero-deadline MATCH must not run to completion");
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
    assert!(err.is_retryable());
    // Re-issued with time to run, the same statement answers.
    let r = c
        .execute_with_deadline("fof", &[Param::Int(person)], Duration::from_secs(5))
        .expect("fof");
    assert!(r.row_count >= 1);
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn stats_and_maintenance_counters() {
    let config = ServerConfig {
        maintenance_interval: Duration::from_millis(50),
        ..test_config()
    };
    let (snb, handle) = start(config);
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];

    let mut c = Client::connect(addr).expect("connect");
    // Run the same query a few times so the JIT cache sees repeats.
    for _ in 0..3 {
        c.query("is1:scan", &[Param::Int(person)]).expect("is1:scan");
    }
    let stats = c.stats().expect("stats");
    let jit = stats.get("jit").expect("jit section");
    assert!(jit.get("cache_capacity").and_then(Json::as_i64).unwrap() > 0);
    assert!(stats.get("sessions").is_some());
    assert!(stats.get("admission").is_some());
    assert!(stats.get("txn").is_some());
    let exec = stats.get("exec").expect("exec section");
    assert!(exec.get("fallback_total").and_then(Json::as_i64).is_some());
    assert!(
        exec.get("interpreted_morsels")
            .and_then(Json::as_i64)
            .is_some()
    );
    assert!(stats.get("pmem").is_some());
    assert_eq!(
        stats
            .get("graph")
            .and_then(|g| g.get("nodes"))
            .and_then(Json::as_i64)
            .unwrap(),
        snb.db.node_count() as i64
    );
    // The maintenance tick has run at least once.
    assert!(poll_until(Duration::from_secs(2), || {
        handle
            .stats()
            .maintenance_runs
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    }));
    c.quit().expect("quit");
    handle.shutdown();
}

/// `analytics → analytics → iu1 → analytics`: built, reused (the epoch did
/// not move), then refreshed from the topology journal with the new
/// person in it — not rebuilt.
#[test]
fn analytics_refreshes_its_snapshot_after_a_write() {
    let (snb, handle) = start(test_config());
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    let mut pagerank = || {
        let line = c
            .raw_request(r#"{"op":"analytics","algo":"pagerank","iters":3}"#)
            .expect("analytics");
        let resp = Json::parse(&line).expect("json");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        let snap = resp.get("snapshot").expect("snapshot provenance").clone();
        let flag = |k: &str| snap.get(k).and_then(Json::as_bool).unwrap();
        let nodes = snap.get("nodes").and_then(Json::as_i64).unwrap();
        (flag("reused"), flag("refreshed"), nodes)
    };
    let (reused, refreshed, nodes) = pagerank();
    assert_eq!((reused, refreshed), (false, false), "the first call builds");
    assert_eq!(pagerank(), (true, false, nodes), "an unchanged graph reuses");

    let mut w = Client::connect(handle.local_addr()).expect("connect writer");
    let iu1 = [
        Param::Int(snb.data.city_ids[0]),
        Param::Int(snb.data.fresh_person_id()),
        Param::Str("Fresh".into()),
        Param::Str("Person".into()),
        Param::Str("female".into()),
        Param::Date(631_152_000_000),
        Param::Date(1_600_000_000_000),
        Param::Str("10.0.0.1".into()),
        Param::Str("Firefox".into()),
    ];
    w.query("iu1", &iu1).expect("iu1");
    assert_eq!(pagerank(), (false, true, nodes + 1), "a write is merged in");
    // Provenance is the snapshot's: reused now, and still made by a refresh.
    assert_eq!(pagerank(), (true, true, nodes + 1));

    let stats = c.stats().expect("stats");
    let section = stats.get("analytics").expect("analytics section");
    let count = |k: &str| section.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!((count("refreshes"), count("fallbacks")), (1, 0));
    assert_eq!((count("cached_snapshots"), count("journal_len")), (1, 1));
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn remote_shutdown_drains_cleanly() {
    let config = ServerConfig {
        allow_remote_shutdown: true,
        drain_timeout: Duration::from_secs(2),
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let addr = handle.local_addr();

    // A bystander session is connected when shutdown arrives.
    let bystander = Client::connect(addr).expect("connect bystander");

    let c = Client::connect(addr).expect("connect admin");
    c.shutdown_server().expect("shutdown op");
    handle.wait(); // must return: drain + force-close of the bystander

    assert!(Client::connect(addr).is_err(), "listener must be closed");
    drop(bystander);
}

/// One plain-HTTP scrape of the standalone exporter; returns the body.
fn http_get(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect exporter");
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .expect("send scrape");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read scrape");
    let (_head, body) = raw
        .split_once("\r\n\r\n")
        .expect("HTTP response must have a header/body split");
    body.to_string()
}

#[test]
fn metrics_slowlog_and_exporter() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        slow_query_us: 0, // capture every execute
        slowlog_capacity: 8,
        ..test_config()
    };
    let (snb, handle) = start(config);
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];

    let mut c = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        c.query("is1:scan", &[Param::Int(person)]).expect("is1:scan");
    }

    // METRICS over the query protocol: a grammatical exposition covering
    // the whole metric surface, with a populated request histogram.
    let text = c.metrics_text().expect("metrics");
    let samples = gobs::validate_exposition(&text).expect("valid exposition");
    assert!(samples >= 20, "expected >=20 samples, got {samples}");
    let series = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    assert!(series >= 20, "expected >=20 series, got {series}");
    let req_count: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("pmemgraph_server_request_us_count "))
        .expect("request histogram in exposition")
        .trim()
        .parse()
        .expect("numeric count");
    assert!(req_count >= 3, "3 executes must be observed, got {req_count}");
    assert!(text.contains("pmemgraph_txn_commits_total"));
    assert!(text.contains("pmemgraph_pmem_lines_flushed_total"));
    assert!(text.contains("# TYPE pmemgraph_server_request_us histogram"));
    for series in [
        "# TYPE pmemgraph_server_lane_requests_total counter",
        "# TYPE pmemgraph_server_lane_moves_total counter",
        "# TYPE pmemgraph_server_lanes gauge",
    ] {
        assert!(text.contains(series), "exposition lacks {series:?}");
    }

    // STATS reads the same registry snapshot the exposition renders.
    let stats = c.stats().expect("stats");
    let admitted = stats
        .get("admission")
        .and_then(|a| a.get("admitted"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(admitted >= 3, "stats view must see the admitted executes");

    // The standalone exporter serves the same body over plain HTTP.
    let maddr = handle.metrics_addr().expect("exporter configured");
    let body = http_get(maddr);
    gobs::validate_exposition(&body).expect("valid exporter exposition");
    assert!(body.contains("pmemgraph_server_request_us_bucket"));

    // SLOWLOG: a zero threshold captures every execute with plan summary
    // and profile; `clear` drains the ring.
    let log = c.slowlog(false).expect("slowlog");
    let entries = log.get("entries").and_then(Json::as_array).expect("entries");
    assert_eq!(entries.len(), 3, "three executes over the 0µs threshold");
    let e = entries.last().unwrap();
    assert_eq!(e.get("query").and_then(Json::as_str), Some("is1:scan"));
    assert!(
        !e.get("plan").and_then(Json::as_str).unwrap_or("").is_empty(),
        "plan summary must be captured"
    );
    assert!(e.get("mode").and_then(Json::as_str).is_some());
    assert!(e.get("elapsed_us").and_then(Json::as_i64).is_some());
    assert!(e.get("morsels").and_then(Json::as_i64).is_some());
    assert!(e.get("segments").and_then(Json::as_array).is_some());
    let drained = c.slowlog(true).expect("slowlog clear");
    assert_eq!(
        drained.get("entries").and_then(Json::as_array).unwrap().len(),
        3,
        "clear returns the window it drained"
    );
    let after = c.slowlog(false).expect("slowlog after clear");
    assert!(after.get("entries").and_then(Json::as_array).unwrap().is_empty());

    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn match_over_a_locked_node_is_a_retryable_conflict() {
    let (snb, handle) = start(test_config());
    let addr = handle.local_addr();
    let (a, b) = (snb.data.person_ids[0], snb.data.person_ids[1]);

    // The writer befriends two persons inside an open transaction: both
    // node records stay write-locked until it ends.
    let mut writer = Client::connect(addr).expect("connect writer");
    writer.begin().expect("begin");
    writer
        .query(
            "iu8",
            &[Param::Int(a), Param::Int(b), Param::Date(1_600_000_000_000)],
        )
        .expect("iu8 in txn");

    // A MATCH anchored on the locked person aborts like any MVTO reader
    // would: TXN_CONFLICT, which clients re-send, not INTERNAL.
    let pattern = "match (a:Person {id = ?0})-[:KNOWS]->(b:Person) return b.id";
    let mut reader = Client::connect(addr).expect("connect reader");
    let err = reader.query(pattern, &[Param::Int(a)]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TxnConflict), "got {err}");
    assert!(err.is_retryable(), "lock conflicts must be retryable: {err}");

    // Once the writer is gone the same request succeeds.
    writer.rollback().expect("rollback");
    reader.query(pattern, &[Param::Int(a)]).expect("match after rollback");
    reader.quit().expect("quit");
    writer.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn match_patterns_over_the_wire() {
    let config = ServerConfig {
        slow_query_us: 0, // capture every execute
        slowlog_capacity: 16,
        ..test_config()
    };
    let (snb, handle) = start(config);
    let mut c = Client::connect(handle.local_addr()).expect("connect");

    // Find a person with at least one KNOWS edge via a 1-hop pattern.
    let mut anchor = None;
    for &p in &snb.data.person_ids {
        let res = c
            .query(
                "match (a:Person {id = ?0})-[:KNOWS]->(b:Person) return b.id",
                &[Param::Int(p)],
            )
            .expect("match 1-hop");
        if res.row_count > 0 {
            anchor = Some((p, res.row_count));
            break;
        }
    }
    let (person, friends) = anchor.expect("tiny graph has at least one KNOWS edge");

    // A variable-length path reaches at least the direct friends, and
    // every projected id decodes as an integer.
    let fof = c
        .query(
            "match (a:Person {id = ?0})-[:KNOWS*1..2]->(b:Person) return b.id",
            &[Param::Int(person)],
        )
        .expect("match var-length");
    assert!(
        fof.row_count >= friends,
        "1..2 hops ({}) must cover the 1-hop rows ({friends})",
        fof.row_count
    );
    assert!(fof.rows.iter().all(|r| r[0].as_i64().is_some()));

    // Prepared match statements resolve the pattern once and replan per
    // execution; `count` agrees with the materialized row count.
    let n = c
        .prepare(
            "fof",
            "match (a:Person {id = ?0})-[:KNOWS*1..2]->(b:Person) return b.id count",
        )
        .expect("prepare match");
    assert_eq!(n, 1, "pattern takes one parameter");
    let counted = c.execute("fof", &[Param::Int(person)]).expect("execute fof");
    assert_eq!(
        counted.rows[0][0].as_i64(),
        Some(fof.row_count as i64),
        "count must agree with the materialized rows"
    );

    // Unknown names are resolution errors, not empty scans.
    let err = c.query("match (a:Noope) return a", &[]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownQuery), "got {err}");

    // MATCH runs autocommit only: inside an explicit transaction it is
    // refused (patterns read their own snapshot).
    c.begin().expect("begin");
    let err = c
        .query(
            "match (a:Person {id = ?0})-[:KNOWS]->(b) return b",
            &[Param::Int(person)],
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadRequest), "got {err}");
    c.rollback().expect("rollback");

    // The slow log captured the cost-based plan summary (start node +
    // access path + expansion order), not an empty operator chain.
    let log = c.slowlog(false).expect("slowlog");
    let entries = log.get("entries").and_then(Json::as_array).expect("entries");
    let m = entries
        .iter()
        .find(|e| {
            e.get("query")
                .and_then(Json::as_str)
                .is_some_and(|q| q.starts_with("match") && q.contains("*1..2"))
        })
        .expect("match query in slowlog");
    let plan = m.get("plan").and_then(Json::as_str).unwrap_or("");
    assert!(
        plan.contains("start=a") && plan.contains("expand"),
        "planner summary must be captured, got {plan:?}"
    );

    c.quit().expect("quit");
    handle.shutdown();
}

/// Pipelining end to end: `send_batch` fires every request before reading
/// a single response, and the i-th response must answer the i-th request
/// — including item-level failures, which must not shift later answers.
/// Run against both front ends; the wire contract is identical.
fn batch_order_roundtrip(mode: NetMode) {
    let config = ServerConfig {
        net_mode: mode,
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let mut c = Client::connect(handle.local_addr()).expect("connect");

    const N: usize = 24;
    let batch: Vec<BatchItem> = (0..N)
        .map(|i| {
            if i == 7 {
                // A failing item mid-batch: unknown prepared name.
                BatchItem::prepared("no_such_statement", &[])
            } else {
                // Distinct per-index scalar so a shifted response is loud.
                let k = i % 5 + 1;
                BatchItem::query(&format!("scan Person limit {k} count"), &[])
            }
        })
        .collect();
    let results = c.send_batch(&batch).expect("batch transport");
    assert_eq!(results.len(), N);
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            assert!(r.is_err(), "item 7 must fail");
            continue;
        }
        let want = (i % 5 + 1) as i64;
        let got = r.as_ref().expect("batch item").scalar().expect("scalar");
        assert_eq!(got, want, "response {i} out of order: got {got}, want {want}");
    }

    // The same connection still works lock-step afterwards.
    let r = c.query("scan Person limit 3 count", &[]).expect("followup");
    assert_eq!(r.scalar(), Some(3));
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn pipelined_batch_preserves_order_evented() {
    batch_order_roundtrip(NetMode::Evented);
}

#[test]
fn pipelined_batch_preserves_order_threaded() {
    batch_order_roundtrip(NetMode::Threaded);
}

/// The evented front end's reason to exist: many idle connections cost
/// no threads. Park a fleet of idle sessions, then verify a hot client
/// still gets work done and the session/connection accounting is exact.
#[test]
fn evented_holds_many_idle_connections() {
    let config = ServerConfig {
        net_mode: NetMode::Evented,
        ..test_config()
    };
    let (_snb, handle) = start(config);
    if handle.net_mode() != NetMode::Evented {
        return; // non-Linux fallback: nothing to pin here
    }
    let addr = handle.local_addr();

    const IDLE: usize = 128;
    let fleet: Vec<Client> = (0..IDLE)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    assert_eq!(handle.active_sessions(), IDLE);
    assert_eq!(
        handle
            .stats()
            .open_conns
            .load(std::sync::atomic::Ordering::Relaxed),
        IDLE as u64
    );

    // A hot client pipelines through the same reactor, undisturbed.
    let mut hot = Client::connect(addr).expect("hot client");
    let batch: Vec<BatchItem> = (0..16)
        .map(|_| BatchItem::query("scan Person limit 2 count", &[]))
        .collect();
    for r in hot.send_batch(&batch).expect("hot batch") {
        assert_eq!(r.expect("hot item").scalar(), Some(2));
    }
    hot.quit().expect("quit hot");

    drop(fleet);
    assert!(
        poll_until(Duration::from_secs(3), || handle.active_sessions() == 0),
        "idle fleet not cleaned up: {}",
        handle.active_sessions()
    );
    handle.shutdown();
}

/// Backpressure is TCP pushback, not an error: a client that floods more
/// requests than `pipeline_depth` gets its reads paused (counted in
/// `read_pauses`) and still receives every response, in order.
#[test]
fn backpressure_pauses_reads_instead_of_erroring() {
    let config = ServerConfig {
        net_mode: NetMode::Evented,
        pipeline_depth: 2,
        enable_debug_ops: true,
        ..test_config()
    };
    let (_snb, handle) = start(config);
    if handle.net_mode() != NetMode::Evented {
        return;
    }

    // Raw pipelining, below the Client helper: write 16 sleep requests in
    // one burst so the flood outruns execution by construction. Twice: the
    // first connection is dealt to lane 0, the second (with more than one
    // lane) to lane 1, which moves it to lane 0 on its first sleep — the
    // workers' responses must find it there.
    const N: usize = 16;
    for round in 1..=2u64 {
        let mut conn = Raw::connect(handle.local_addr());
        conn.send(&"{\"op\":\"sleep\",\"ms\":20}\n".repeat(N));
        for i in 0..N {
            let resp = conn.line();
            assert!(
                resp.contains("\"ok\":true"),
                "round {round}: request {i} must succeed, got: {resp}"
            );
        }
        assert!(
            handle
                .stats()
                .read_pauses
                .load(std::sync::atomic::Ordering::Relaxed)
                >= round,
            "flooding 16 requests past a depth-2 pipeline must pause reads"
        );
    }
    handle.shutdown();
}

/// Regression: `wait()` parks in the accept join until shutdown is
/// requested — the exporter must keep answering scrapes for that whole
/// time, not die when the owner starts waiting (the server-binary
/// lifecycle: bind, print, `wait()`).
#[test]
fn exporter_survives_wait() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        allow_remote_shutdown: true,
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let addr = handle.local_addr();
    let maddr = handle.metrics_addr().expect("exporter configured");

    let waiter = std::thread::spawn(move || handle.wait());
    // Give wait() time to park in the accept join, then scrape.
    std::thread::sleep(Duration::from_millis(100));
    let body = http_get(maddr);
    gobs::validate_exposition(&body).expect("valid exposition while waiting");
    assert!(body.contains("pmemgraph_server_sessions_active"));

    let c = Client::connect(addr).expect("connect admin");
    c.shutdown_server().expect("shutdown op");
    waiter.join().expect("wait returns after shutdown");
    assert!(
        std::net::TcpStream::connect(maddr).is_err(),
        "exporter must be closed after shutdown"
    );
}

/// The exporter answers while a pipelined batch is in flight, and its
/// request histogram has already counted the part that was answered.
#[test]
fn exporter_counts_a_pipelined_batch_still_in_flight() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let maddr = handle.metrics_addr().expect("exporter configured");
    let mut conn = Raw::connect(handle.local_addr());

    const N: usize = 64;
    conn.send("{\"op\":\"execute\",\"query\":\"scan Person count\",\"params\":[]}\n".repeat(N));
    assert!(conn.line().contains("\"ok\":true"), "first answer");
    // N - 1 answers are still owed to this connection.
    let body = http_get(maddr);
    gobs::validate_exposition(&body).expect("valid exposition mid-batch");
    let counted: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("pmemgraph_server_request_us_count "))
        .expect("request histogram in exposition")
        .trim()
        .parse()
        .expect("numeric count");
    assert!((1..=N).contains(&counted), "{counted} of {N} requests counted");
    assert!(body.contains("pmemgraph_txn_commits_total"));
    for i in 1..N {
        assert!(conn.line().contains("\"ok\":true"), "answer {i}");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Lanes (DESIGN.md §15). Lane 0 deals accepted sockets round-robin starting
// with itself, so the k-th connection of a server starts on lane
// `k % lanes`; every test below works at any lane count, one included.
// ---------------------------------------------------------------------

fn lane_config() -> ServerConfig {
    ServerConfig {
        net_mode: NetMode::Evented,
        ..test_config()
    }
}

fn relaxed(counter: &std::sync::atomic::AtomicU64) -> u64 {
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

fn lanes_of(c: &mut Client) -> usize {
    let stats = c.stats().expect("stats");
    let net = stats.get("net").expect("net section");
    net.get("lanes").and_then(Json::as_i64).expect("net.lanes") as usize
}

/// A socket below the `Client` helper: whole bursts out, lines back.
struct Raw {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut raw = Raw { stream, reader };
        assert!(raw.line().contains("\"ok\":true"), "greeting");
        raw
    }

    fn send(&mut self, wire: impl AsRef<[u8]>) {
        use std::io::Write as _;
        self.stream.write_all(wire.as_ref()).expect("send");
    }

    fn line(&mut self) -> String {
        use std::io::BufRead as _;
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response");
        line
    }

    fn json(&mut self) -> Json {
        let line = self.line();
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn is1_frame(person: i64) -> String {
    format!("{{\"op\":\"query\",\"query\":\"is1\",\"params\":[{person}]}}\n")
}

/// `is1, is1, iu1, is1, is1` over a person id nobody has yet: in request
/// order the answers are 0 rows, 0 rows, the insert's, 1 row, 1 row.
fn insert_burst(city: i64, person: i64) -> String {
    let read = is1_frame(person);
    let insert = format!(
        "{{\"op\":\"query\",\"query\":\"iu1\",\"params\":[{city},{person},\"Lane\",\"Mover\",\
         \"female\",{{\"date\":631152000000}},{{\"date\":1600000000000}},\"10.0.0.1\",\"Firefox\"]}}\n"
    );
    format!("{read}{read}{insert}{read}{read}")
}

fn expect_insert_burst(conn: &mut Raw, who: &str) {
    let counts: Vec<Option<i64>> = (0..5)
        .map(|i| {
            let r = conn.json();
            assert_eq!(
                r.get("ok").and_then(Json::as_bool),
                Some(true),
                "{who}: response {i}: {r:?}"
            );
            r.get("row_count").and_then(Json::as_i64)
        })
        .collect();
    assert_eq!(
        (&counts[..2], &counts[3..]),
        (&[Some(0), Some(0)][..], &[Some(1), Some(1)][..]),
        "{who}: responses out of order, or the insert invisible to the reads behind it"
    );
}

#[test]
fn a_connection_moves_to_lane_0_once_and_keeps_request_order() {
    let (snb, handle) = start(lane_config());
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let addr = handle.local_addr();
    let cities = &snb.data.city_ids;
    let mut admin = Client::connect(addr).expect("connect admin"); // lane 0
    let lanes = lanes_of(&mut admin);

    // As many connections as lanes: all but the last start on a lane > 0.
    let mut conns: Vec<Raw> = (0..lanes).map(|_| Raw::connect(addr)).collect();
    for round in 0..2 {
        // Every burst is on the wire before any answer is read.
        // (A city each: concurrent inserts into one city conflict on it.)
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.send(&insert_burst(
                cities[i % cities.len()],
                snb.data.fresh_person_id(),
            ));
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            expect_insert_burst(conn, &format!("round {round}, connection {i}"));
        }
        // The insert moved each connection off its lane > 0 in round 0;
        // in round 1 they are on lane 0 already.
        assert_eq!(
            relaxed(&handle.stats().lane_moves),
            lanes as u64 - 1,
            "round {round}"
        );
    }
    // Four reads per burst were answered on a lane unless a worker still
    // held the cell — the first two of each burst certainly were.
    assert!(relaxed(&handle.stats().lane_requests) >= 2 * 2 * lanes as u64);
    let stats = admin.stats().expect("stats");
    let net = stats.get("net").expect("net section");
    assert_eq!(
        net.get("lane_moves").and_then(Json::as_i64),
        Some(lanes as i64 - 1)
    );
    assert!(net.get("lane_requests").and_then(Json::as_i64).unwrap() >= 4 * lanes as i64);
    admin.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn a_flood_on_one_connection_does_not_starve_its_lane() {
    let (snb, handle) = start(lane_config());
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];
    let mut flood = Raw::connect(addr); // lane 0
    let lanes = lanes_of(&mut Client::connect(addr).expect("connect")); // lane 1 % lanes
    let _others: Vec<Raw> = (2..lanes).map(|_| Raw::connect(addr)).collect();
    let mut probe = Client::connect(addr).expect("connect probe"); // lane 0 again
    probe.prepare("is1", "is1").expect("prepare");

    // 256 pings in one write: eight times what one event may answer at
    // the default pipeline depth, so the lane comes back to the rest.
    const FLOOD: usize = 256;
    flood.send(&"{\"op\":\"ping\"}\n".repeat(FLOOD));
    for _ in 0..8 {
        let t0 = Instant::now();
        let r = probe.execute("is1", &[Param::Int(person)]).expect("is1");
        assert_eq!(r.row_count, 1);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "lock-step read waited {:?} behind a ping flood",
            t0.elapsed()
        );
    }
    for i in 0..FLOOD {
        assert!(flood.line().contains("\"ok\":true"), "ping {i}");
    }
    assert!(relaxed(&handle.stats().lane_requests) >= FLOOD as u64 + 8);
    assert_eq!(
        relaxed(&handle.stats().lane_moves),
        0,
        "nothing here needs a worker"
    );
    handle.shutdown();
}

/// Frame `i` of the never-read flood: pings, every 1 000th an unknown op
/// whose error names it — so the answers show their order.
fn flood_frame(i: usize) -> String {
    if i % 1000 == 999 {
        format!("{{\"op\":\"mark{}\"}}\n", i / 1000)
    } else {
        "{\"op\":\"ping\"}\n".to_string()
    }
}

#[test]
fn a_client_that_never_reads_stops_being_read() {
    use std::io::Write as _;
    let (_snb, handle) = start(lane_config());
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let mut flood = Raw::connect(handle.local_addr());
    flood
        .stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .expect("write timeout");
    let pauses = relaxed(&handle.stats().read_pauses);

    // Pipeline without reading until the socket stops taking bytes: the
    // responses fill both kernel buffers, then the server's write buffer
    // up to its high-water mark; then the server stops reading, and the
    // requests fill the buffers the other way. A server that keeps
    // reading (and buffering answers) takes the whole cap instead.
    const CAP_FRAMES: usize = 16_000_000; // ~220 MB of pings
    let mut frames = 0usize; // completely sent
    let mut tail: Vec<u8> = Vec::new(); // unsent rest of a frame cut short
    'send: while frames < CAP_FRAMES {
        let batch: String = (frames..frames + 1000).map(flood_frame).collect();
        let mut rest = batch.as_bytes();
        while !rest.is_empty() {
            match flood.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "send: {e}"
                    );
                    let sent = batch.len() - rest.len();
                    frames += batch.as_bytes()[..sent].iter().filter(|&&b| b == b'\n').count();
                    let cut = rest.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
                    if !batch.as_bytes()[..sent].ends_with(b"\n") {
                        tail = rest[..cut].to_vec();
                    }
                    break 'send;
                }
            }
        }
        frames += 1000;
    }
    assert!(frames < CAP_FRAMES, "the server read {frames} frames nobody took the answers of");
    assert!(
        relaxed(&handle.stats().read_pauses) > pauses,
        "the pause is counted"
    );
    // Stopped, not slow: requests sit unread while the counter stands.
    let seen = relaxed(&handle.stats().requests);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(relaxed(&handle.stats().requests), seen, "still reading");
    assert!((seen as usize) < frames, "{seen} of {frames} frames read");

    // Draining the socket resumes service: every answer, in order.
    let expect = |flood: &mut Raw, i: usize| {
        let line = flood.line();
        if i % 1000 == 999 {
            assert!(line.contains(&format!("mark{}\\\"", i / 1000)), "frame {i}: {line}");
        } else {
            assert!(line.contains("\"ok\":true"), "frame {i}: {line}");
        }
    };
    for i in 0..frames {
        expect(&mut flood, i);
    }
    if !tail.is_empty() {
        flood.send(&tail);
        expect(&mut flood, frames);
    }
    flood.send("{\"op\":\"ping\"}\n");
    assert!(flood.line().contains("\"ok\":true"));
    handle.shutdown();
}

#[test]
fn a_lane_never_waits_for_an_execution_slot() {
    let config = ServerConfig {
        workers: 1,
        admission_wait: Duration::from_secs(5),
        enable_debug_ops: true,
        ..lane_config()
    };
    let (snb, handle) = start(config);
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];

    let mut sleeper = Raw::connect(addr); // lane 0
    let mut reader = Client::connect(addr).expect("connect reader"); // lane 1 % lanes
    let lanes = lanes_of(&mut reader);
    let _others: Vec<Raw> = (2..lanes).map(|_| Raw::connect(addr)).collect();
    let mut on_lane_0 = Client::connect(addr).expect("connect"); // lane 0
    let mut on_readers_lane = Client::connect(addr).expect("connect"); // lane 1 % lanes

    // Hold the only execution slot.
    const SLEEP_MS: u64 = 600;
    let t0 = Instant::now();
    sleeper.send(&format!("{{\"op\":\"sleep\",\"ms\":{SLEEP_MS}}}\n"));
    assert!(
        poll_until(Duration::from_secs(2), || relaxed(&handle.stats().admitted)
            >= 1),
        "sleep never took the slot"
    );

    // The read finds no slot free, so it is not cheap right now: it goes
    // to a net worker (moving to lane 0 first if need be) and waits there.
    let read = std::thread::spawn(move || {
        let r = reader.query("is1", &[Param::Int(person)]).expect("is1");
        (r.row_count, Instant::now())
    });
    let moves = (lanes > 1) as u64;
    assert!(
        poll_until(Duration::from_secs(2), || {
            relaxed(&handle.stats().lane_moves) == moves
                && relaxed(&handle.stats().net_inflight) >= 2
        }),
        "the read never reached the worker path"
    );

    // Neither lane is waiting with it.
    for (what, c) in [
        ("lane 0", &mut on_lane_0),
        ("the reader's lane", &mut on_readers_lane),
    ] {
        let t = Instant::now();
        c.ping().expect("ping");
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "ping on {what} took {:?} while a read waits for a slot",
            t.elapsed()
        );
    }
    assert!(
        t0.elapsed() < Duration::from_millis(SLEEP_MS),
        "the pings were meant to run while the sleep holds the slot"
    );

    let (rows, answered_at) = read.join().expect("reader thread");
    assert_eq!(
        rows, 1,
        "the read is answered once the slot frees, not rejected"
    );
    assert!(answered_at.duration_since(t0) >= Duration::from_millis(SLEEP_MS));
    assert!(sleeper.line().contains("\"ok\":true"));
    assert_eq!(relaxed(&handle.stats().rejected), 0);
    handle.shutdown();
}

#[test]
fn idle_sessions_are_reaped_on_every_lane() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(250),
        maintenance_interval: Duration::from_millis(50),
        ..lane_config()
    };
    let (_snb, handle) = start(config);
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let addr = handle.local_addr();
    let mut first = Client::connect(addr).expect("connect");
    let lanes = lanes_of(&mut first);
    let mut fleet = vec![first];
    fleet.extend((1..lanes.max(2)).map(|_| Client::connect(addr).expect("connect")));
    for c in &mut fleet {
        c.ping().expect("ping");
    }
    assert_eq!(handle.active_sessions(), fleet.len());
    assert!(
        poll_until(Duration::from_secs(3), || handle.active_sessions() == 0),
        "idle sessions left: {}",
        handle.active_sessions()
    );
    assert!(relaxed(&handle.stats().sessions_expired) >= fleet.len() as u64);
    assert_eq!(relaxed(&handle.stats().open_conns), 0);
    for c in &mut fleet {
        assert!(c.ping().is_err(), "reaped session must be unusable");
    }
    handle.shutdown();
}

#[test]
fn shutdown_delivers_every_response_from_every_lane() {
    let config = ServerConfig {
        enable_debug_ops: true,
        ..lane_config()
    };
    let (snb, handle) = start(config);
    if handle.net_mode() != NetMode::Evented {
        return;
    }
    let addr = handle.local_addr();
    let person = snb.data.person_ids[0];
    let lanes = lanes_of(&mut Client::connect(addr).expect("connect")); // lane 0, gone again

    // One connection per lane, each with a burst of lane-answered reads
    // and then a request only a worker may run, in flight when the server
    // is told to stop.
    const READS: usize = 48;
    let mut conns: Vec<Raw> = (0..lanes).map(|_| Raw::connect(addr)).collect();
    for conn in &mut conns {
        conn.send(&is1_frame(person).repeat(READS));
    }
    assert!(
        poll_until(Duration::from_secs(5), || {
            relaxed(&handle.stats().lane_requests) >= (READS * lanes) as u64
        }),
        "reads not answered on the lanes"
    );
    for conn in &mut conns {
        conn.send("{\"op\":\"sleep\",\"ms\":300}\n");
    }
    assert!(
        poll_until(Duration::from_secs(5), || {
            relaxed(&handle.stats().admitted) >= (READS * lanes + lanes) as u64
        }),
        "sleeps not running"
    );
    let opened = relaxed(&handle.stats().sessions_opened);

    // Returns only once every lane and worker is joined — which needs the
    // last lane out to have published `done`.
    handle.shutdown();

    for (i, conn) in conns.iter_mut().enumerate() {
        for r in 0..READS {
            let resp = conn.json();
            assert_eq!(
                resp.get("row_count").and_then(Json::as_i64),
                Some(1),
                "connection {i}, read {r}: {resp:?}"
            );
        }
        assert!(
            conn.line().contains("\"slept_ms\""),
            "connection {i}: the in-flight worker request lost its response"
        );
        assert_eq!(conn.line(), "", "connection {i}: closed after the drain");
    }
    assert_eq!(opened, lanes as u64 + 1);
    assert!(Client::connect(addr).is_err(), "listener must be closed");
}

/// Bytes that are not UTF-8 are a bad request on a live connection — not
/// a dead connection (the old threaded reader), not U+FFFD in a string
/// parameter (the old evented decoder).
fn invalid_utf8_roundtrip(mode: NetMode) {
    let config = ServerConfig {
        net_mode: mode,
        ..test_config()
    };
    let (_snb, handle) = start(config);
    let mut conn = Raw::connect(handle.local_addr());
    conn.send(b"{\"op\":\"ping\"}\n{\"op\":\"query\",\"query\":\"is1\",\"params\":[\"\xff\xfe\"]}\n{\"op\":\"ping\"}\n");
    assert!(conn.line().contains("\"ok\":true"));
    let bad = conn.json();
    let err = bad.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("BAD_REQUEST"));
    assert_eq!(
        err.get("message").and_then(Json::as_str),
        Some("request is not valid UTF-8")
    );
    assert!(
        conn.line().contains("\"ok\":true"),
        "the connection survives"
    );
    assert!(relaxed(&handle.stats().errors) >= 1);
    handle.shutdown();
}

#[test]
fn invalid_utf8_is_a_bad_request_evented() {
    invalid_utf8_roundtrip(NetMode::Evented);
}

#[test]
fn invalid_utf8_is_a_bad_request_threaded() {
    invalid_utf8_roundtrip(NetMode::Threaded);
}
