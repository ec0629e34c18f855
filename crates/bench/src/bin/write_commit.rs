//! Commit-path acceleration: group commit on vs off for an N-writer
//! insert/update workload (DESIGN.md §10).
//!
//! Every writer runs small transactions (one node insert, or one property
//! update on a thread-private node) against the same pool. With grouping
//! off each commit pays its own four-phase undo-log transaction (coalesced
//! flush pass + fence per phase); with grouping on, concurrent committers
//! merge into one leader-driven group: one flush pass, four fences and one
//! log truncation for the whole group. The workload measures txns/s plus
//! the per-committed-txn PMem cost — `lines_flushed`, `fences` and
//! `blocks_flushed` deltas from the pool stats — for each combination of
//! writer count and grouping.
//!
//! Updates are thread-disjoint (each writer updates its own nodes), so
//! every measured commit succeeds: the series compare commit-path cost,
//! not conflict rates. Three phases isolate different write shapes:
//! `insert` (end-to-end node creation; pays chunked-table slot publication
//! outside the commit), `update` (a raw MVTO record overwrite through the
//! transaction manager — the pure commit path, nothing but the four-phase
//! log transaction touches PMem) and `setprop` (end-to-end property
//! update; rebuilds the property chain, so it also inserts records
//! outside the commit). Only `update` can approach the
//! 4-fences-per-group floor; `ASSERT_GROUP_FENCES=1` turns "grouped
//! multi-writer record updates average < 2 fences/txn" into a hard
//! failure for CI.
//!
//! A fourth section sweeps the **shards** dimension (DESIGN.md §13): a
//! partition-affine multi-writer insert workload against an N-shard
//! database for N = 1/2/4/8. Writer `t` pins its nodes to shard `t % N`,
//! so every transaction is single-shard and writers on different shards
//! commit without sharing a txlog, a tx_lock or a pool — txns/s should
//! rise with N while fences/txn stays flat at the ungrouped four-phase
//! cost. `ASSERT_SHARD_SCALING=1` turns "4 shards beat 1 shard on
//! txns/s" into a hard failure.
//!
//! Toggles: `GraphDb::set_group_commit` per series (the global default is
//! `PMEMGRAPH_GROUP_COMMIT`); `PMEMGRAPH_GROUP_WAIT_US` bounds the leader's
//! straggler wait; per-thread allocation arenas stay on (their refill
//! count is reported).
//!
//! Output: a table on stdout plus `results/BENCH_write_commit.json`.

use std::time::Instant;

use bench::{scale_name, threads, tmpfile};
use graphcore::shard::{shard_path, ShardOptions, ShardedDb};
use graphcore::{DbOptions, GraphDb, PropOwner, Value};
use gtxn::TableTag;
use pmem::DeviceProfile;

fn txns_per_thread(scale: &str) -> usize {
    match scale {
        "tiny" => 512,
        "bench" => 16_384,
        _ => 4_096,
    }
}

/// One measured phase: stats delta + wall clock around `work`.
struct Measured {
    txns: u64,
    secs: f64,
    lines: u64,
    fences: u64,
    blocks: u64,
    groups: u64,
    grouped: u64,
}

impl Measured {
    fn run(db: &GraphDb, txns: u64, work: impl FnOnce()) -> Measured {
        let s0 = db.pool().stats().snapshot();
        let t0 = Instant::now();
        work();
        let secs = t0.elapsed().as_secs_f64();
        let d = db.pool().stats().snapshot() - s0;
        Measured {
            txns,
            secs,
            lines: d.lines_flushed,
            fences: d.fences,
            blocks: d.blocks_flushed,
            groups: d.commit_groups,
            grouped: d.grouped_txns,
        }
    }

    fn per_txn(&self, v: u64) -> f64 {
        v as f64 / self.txns.max(1) as f64
    }

    fn row(&self, phase: &str, nthreads: usize, group: bool) -> String {
        format!(
            "{:>7} {:>8} {:>6} {:>11.0} {:>10.2} {:>10.2} {:>10.2} {:>8}",
            phase,
            nthreads,
            if group { "on" } else { "off" },
            self.txns as f64 / self.secs.max(1e-9),
            self.per_txn(self.fences),
            self.per_txn(self.lines),
            self.per_txn(self.blocks),
            self.groups,
        )
    }

    fn json(&self, phase: &str, nthreads: usize, group: bool) -> String {
        format!(
            "    {{\"phase\": \"{phase}\", \"threads\": {nthreads}, \"group_commit\": {group}, \
             \"txns\": {}, \"txns_per_s\": {:.0}, \"fences_per_txn\": {:.3}, \
             \"lines_per_txn\": {:.3}, \"blocks_per_txn\": {:.3}, \
             \"commit_groups\": {}, \"grouped_txns\": {}}}",
            self.txns,
            self.txns as f64 / self.secs.max(1e-9),
            self.per_txn(self.fences),
            self.per_txn(self.lines),
            self.per_txn(self.blocks),
            self.groups,
            self.grouped,
        )
    }
}

/// Commit with retry on transient conflicts (none are expected: writers
/// touch disjoint records, so a retry here means the workload is wrong).
fn must_commit(tx: graphcore::GraphTxn<'_>) {
    match tx.commit() {
        Ok(()) => {}
        Err(e) => panic!("unexpected commit failure in disjoint workload: {e:?}"),
    }
}

/// Insert phase: each of `nthreads` writers commits `per_thread`
/// single-node transactions. Returns each thread's node ids.
fn insert_phase(db: &GraphDb, nthreads: usize, per_thread: usize) -> Vec<Vec<u64>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                s.spawn(move || {
                    let mut ids = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let mut tx = db.begin();
                        let id = tx
                            .create_node("W", &[("v", Value::Int((t * per_thread + i) as i64))])
                            .unwrap();
                        must_commit(tx);
                        ids.push(id);
                    }
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Update phase: each writer overwrites its own node records through the
/// transaction manager, round-robin, one record per transaction. This is
/// the pure commit path: the only PMem traffic is the four-phase undo-log
/// transaction itself, so fences/txn lands on 4/G for group size G.
fn update_phase(db: &GraphDb, ids: &[Vec<u64>], per_thread: usize) {
    let mgr = db.mgr();
    std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .map(|mine| {
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = mine[i % mine.len()];
                        let mut txn = mgr.begin();
                        mgr.update(&mut txn, TableTag::Node, db.nodes(), id, |n| {
                            n.first_out = i as u64
                        })
                        .unwrap();
                        mgr.commit(txn, db.nodes(), db.rels(), db.props())
                            .expect("disjoint record update must commit");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// Setprop phase: each writer bumps `v` on its own nodes through the full
/// `GraphTxn` surface — property-chain rebuild plus MVTO commit.
fn setprop_phase(db: &GraphDb, ids: &[Vec<u64>], per_thread: usize) {
    std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .map(|mine| {
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = mine[i % mine.len()];
                        let mut tx = db.begin();
                        tx.set_prop(PropOwner::Node(id), "v", Value::Int(i as i64))
                            .unwrap();
                        must_commit(tx);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// Shards dimension: a partition-affine multi-writer insert workload
/// against an N-shard database — writer `t` creates its nodes on shard
/// `t % N`, so every transaction takes the single-shard fast path and the
/// N commit pipelines (txlog, tx_lock, flush set each) run independently.
/// Grouping is off: the series measures how raw pipeline serialization
/// splits across pools, not group formation. Costs are summed over every
/// shard's pool.
fn sharded_insert_series(nshards: usize, nthreads: usize, per_thread: usize) -> Measured {
    let base = tmpfile(&format!("write-commit-shards-{nshards}"));
    let db = ShardedDb::create(
        ShardOptions::pmem(&base, 256 << 20)
            .shards(nshards)
            .profile(DeviceProfile::pmem()),
    )
    .unwrap();
    for shard in db.shards() {
        shard.set_group_commit(false);
    }
    let before: Vec<_> = db
        .shards()
        .iter()
        .map(|s| s.pool().stats().snapshot())
        .collect();
    let t0 = Instant::now();
    let dbr = &db;
    std::thread::scope(|s| {
        for t in 0..nthreads {
            s.spawn(move || {
                let home = t % nshards;
                for i in 0..per_thread {
                    let mut tx = dbr.begin();
                    tx.create_node_on(home, "W", &[("v", Value::Int((t * per_thread + i) as i64))])
                        .unwrap();
                    tx.commit().unwrap();
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut m = Measured {
        txns: (nthreads * per_thread) as u64,
        secs,
        lines: 0,
        fences: 0,
        blocks: 0,
        groups: 0,
        grouped: 0,
    };
    for (shard, s0) in db.shards().iter().zip(before) {
        let d = shard.pool().stats().snapshot() - s0;
        m.lines += d.lines_flushed;
        m.fences += d.fences;
        m.blocks += d.blocks_flushed;
        m.groups += d.commit_groups;
        m.grouped += d.grouped_txns;
    }
    drop(db);
    for i in 0..nshards {
        let _ = std::fs::remove_file(shard_path(&base, i, nshards));
    }
    m
}

fn main() {
    let scale = scale_name();
    let per_thread = txns_per_thread(&scale);
    let max_threads = threads();
    let thread_counts: Vec<usize> = if max_threads > 1 { vec![1, max_threads] } else { vec![1] };

    println!("# write_commit — commit-path cost, group commit on vs off");
    println!(
        "# scale: {scale} ({per_thread} txns/writer/phase), writers: {thread_counts:?}, \
         wait: PMEMGRAPH_GROUP_WAIT_US"
    );
    println!(
        "\n{:>7} {:>8} {:>6} {:>11} {:>10} {:>10} {:>10} {:>8}",
        "phase", "writers", "group", "txns/s", "fences/tx", "lines/tx", "blocks/tx", "groups"
    );

    let mut json_series = Vec::new();
    let mut grouped_update_fences: Option<f64> = None;
    let mut ungrouped_update_fences: Option<f64> = None;
    for &nthreads in &thread_counts {
        for group in [false, true] {
            // A fresh pool per series: identical allocation state, no
            // version-chain carry-over between configurations.
            let path = tmpfile(&format!("write-commit-{nthreads}-{group}"));
            let db = GraphDb::create(
                DbOptions::pmem(&path, 1 << 30).profile(DeviceProfile::pmem()),
            )
            .unwrap();
            db.set_group_commit(group);

            let txns = (nthreads * per_thread) as u64;
            let mut ids = Vec::new();
            let ins = Measured::run(&db, txns, || {
                ids = insert_phase(&db, nthreads, per_thread);
            });
            println!("{}", ins.row("insert", nthreads, group));
            json_series.push(ins.json("insert", nthreads, group));

            let upd = Measured::run(&db, txns, || {
                update_phase(&db, &ids, per_thread);
            });
            println!("{}", upd.row("update", nthreads, group));
            json_series.push(upd.json("update", nthreads, group));
            if nthreads == max_threads && nthreads > 1 {
                let f = upd.per_txn(upd.fences);
                if group {
                    grouped_update_fences = Some(f);
                } else {
                    ungrouped_update_fences = Some(f);
                }
            }

            let sp = Measured::run(&db, txns, || {
                setprop_phase(&db, &ids, per_thread);
            });
            println!("{}", sp.row("setprop", nthreads, group));
            json_series.push(sp.json("setprop", nthreads, group));

            let refills = db.pool().stats().snapshot().arena_refills;
            drop(db);
            let _ = std::fs::remove_file(&path);
            if group {
                println!("# arena refills over both {nthreads}-writer series: {refills}");
            }
        }
    }

    if let (Some(on), Some(off)) = (grouped_update_fences, ungrouped_update_fences) {
        println!(
            "\nmulti-writer updates: {off:.2} fences/txn ungrouped -> {on:.2} grouped \
             ({:.1}x fewer)",
            off / on.max(1e-9)
        );
    }

    // Shards dimension: PMEMGRAPH_SHARDS-style pool splitting, swept here
    // explicitly (1/2/4/8) with a fixed multi-writer insert workload.
    let swriters = max_threads.max(2);
    println!(
        "\n{:>7} {:>8} {:>6} {:>11} {:>10} {:>10} {:>10} {:>8}",
        "shards", "writers", "group", "txns/s", "fences/tx", "lines/tx", "blocks/tx", "groups"
    );
    let mut shard_rates: Vec<(usize, f64)> = Vec::new();
    for nshards in [1usize, 2, 4, 8] {
        let m = sharded_insert_series(nshards, swriters, per_thread);
        let rate = m.txns as f64 / m.secs.max(1e-9);
        println!("{}", m.row(&format!("s={nshards}"), swriters, false));
        json_series.push(format!(
            "    {{\"phase\": \"shard_insert\", \"shards\": {nshards}, \"threads\": {swriters}, \
             \"group_commit\": false, \"txns\": {}, \"txns_per_s\": {rate:.0}, \
             \"fences_per_txn\": {:.3}, \"lines_per_txn\": {:.3}, \"blocks_per_txn\": {:.3}, \
             \"commit_groups\": {}, \"grouped_txns\": {}}}",
            m.txns,
            m.per_txn(m.fences),
            m.per_txn(m.lines),
            m.per_txn(m.blocks),
            m.groups,
            m.grouped,
        ));
        shard_rates.push((nshards, rate));
    }
    let rate_of = |n: usize| shard_rates.iter().find(|(s, _)| *s == n).map(|(_, r)| *r);
    if let (Some(one), Some(four)) = (rate_of(1), rate_of(4)) {
        println!(
            "\n{swriters}-writer inserts: {one:.0} txns/s at 1 shard -> {four:.0} at 4 shards \
             ({:.2}x)",
            four / one.max(1e-9)
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"write_commit\",\n  \"meta\": {},\n  \"scale\": \"{scale}\",\n  \
         \"txns_per_writer\": {per_thread},\n  \"series\": [\n{}\n  ]\n}}\n",
        bench::meta_json(),
        json_series.join(",\n")
    );
    bench::write_results("write_commit", &json);

    // CI gate: the shard sweep must show multi-pool scaling — 4 shards
    // beating 1 shard on multi-writer insert throughput.
    if std::env::var("ASSERT_SHARD_SCALING").is_ok() {
        let (one, four) = (rate_of(1).unwrap(), rate_of(4).unwrap());
        if four > one {
            println!("ASSERT_SHARD_SCALING ok: {four:.0} txns/s (4 shards) > {one:.0} (1 shard)");
        } else {
            eprintln!("ASSERT_SHARD_SCALING FAILED: {four:.0} txns/s (4 shards) <= {one:.0} (1 shard)");
            std::process::exit(1);
        }
    }

    // CI gate: grouped multi-writer updates must beat 2 fences/txn (the
    // ungrouped four-phase commit costs 4).
    if std::env::var("ASSERT_GROUP_FENCES").is_ok() {
        match grouped_update_fences {
            Some(f) if f < 2.0 => {
                println!("ASSERT_GROUP_FENCES ok: {f:.2} fences/txn < 2");
            }
            Some(f) => {
                eprintln!("ASSERT_GROUP_FENCES FAILED: {f:.2} fences/txn >= 2");
                std::process::exit(1);
            }
            None => {
                eprintln!("ASSERT_GROUP_FENCES FAILED: no multi-writer grouped series ran");
                std::process::exit(1);
            }
        }
    }
}
