//! Shared benchmark harness for the Figure 5–10 reproductions.
//!
//! Provides the three device setups of the paper's evaluation (PMem /
//! DRAM / DISK), loaders that materialise the same SNB data on each, the
//! disk-side implementations of the IS/IU workload (the DISK baseline runs
//! its own engine, like the paper's open-source comparison system), and
//! timing/printing helpers shared by the `fig*` binaries.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gdisk::{DiskGraph, SsdProfile};
use graphcore::{DbOptions, Value};
use gstore::PVal;
use ldbc::{generate, IuQuery, SnbDb, SnbParams, SrQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod diskwork;

pub use diskwork::{disk_iu, disk_sr, DiskSnb};

/// Benchmark scale, selected with the `SCALE` environment variable
/// (`tiny` | `small` | `bench`, default `small`).
pub fn scale_params(seed: u64) -> SnbParams {
    match std::env::var("SCALE").as_deref() {
        Ok("tiny") => SnbParams::tiny(seed),
        Ok("bench") => SnbParams::bench(seed),
        _ => SnbParams::small(seed),
    }
}

/// Number of measured runs per query (`RUNS` env var, default 20; the
/// paper used 50).
pub fn runs() -> usize {
    env_u64("RUNS", 20) as usize
}

/// The `SCALE` name as the benchmarks print and embed it (default
/// `small`) — pairs with [`scale_params`], which parses the same
/// variable into generator parameters.
pub fn scale_name() -> String {
    std::env::var("SCALE").unwrap_or_else(|_| "small".to_string())
}

/// An unsigned-integer environment knob: unset or unparsable yields
/// `default` (`RUNS`, `ASSERT_RECOVERY`).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A fresh temp file path for a pool/page file.
pub fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pmemgraph-bench-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

/// Pool size needed for the generated data at each scale.
pub fn pool_size() -> usize {
    match std::env::var("SCALE").as_deref() {
        Ok("bench") => 4 << 30,
        _ => 1 << 30,
    }
}

/// The PMem configuration: file-backed pool with the Optane latency model.
pub fn setup_pmem(name: &str, params: &SnbParams) -> SnbDb {
    let path = tmpfile(name);
    generate(
        params,
        DbOptions::pmem(&path, pool_size()).profile(pmem::DeviceProfile::pmem()),
    )
    .expect("generate pmem")
}

/// The DRAM configuration: anonymous pool, no latency injection.
pub fn setup_dram(params: &SnbParams) -> SnbDb {
    generate(params, DbOptions::dram(pool_size())).expect("generate dram")
}

/// Measure `f` once, returning elapsed wall-clock time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Average time of `n` invocations of `f(i)`.
pub fn time_avg(n: usize, mut f: impl FnMut(usize)) -> Duration {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed() / n as u32
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1000.0;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

/// Print one table: `title`, column headers, and rows of
/// `(label, durations)`.
pub fn print_table(title: &str, cols: &[&str], rows: &[(String, Vec<Duration>)]) {
    println!("\n== {title} ==");
    print!("{:>8}", "query");
    for c in cols {
        print!("{c:>12}");
    }
    println!();
    for (label, durs) in rows {
        print!("{label:>8}");
        for d in durs {
            print!("{:>12}", fmt_dur(*d));
        }
        println!();
    }
}

/// Deterministic parameter streams per query so every engine configuration
/// measures identical work.
pub fn sr_param_stream(q: SrQuery, snb: &SnbDb, n: usize, seed: u64) -> Vec<Vec<PVal>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..n).map(|_| q.params(snb, &mut rng)).collect()
}

/// IU parameter streams; fresh ids are drawn from the SnbDb counters, so
/// streams must be generated against the database they will run on.
pub fn iu_param_stream(q: IuQuery, snb: &SnbDb, n: usize, seed: u64) -> Vec<Vec<PVal>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    (0..n).map(|_| q.params(snb, &mut rng)).collect()
}

/// Materialise the SNB graph of `snb` on the disk baseline (same records,
/// same adjacency, DRAM id-index).
pub fn load_disk(snb: &SnbDb, name: &str, profile: SsdProfile, pool_pages: usize) -> DiskSnb {
    let path = tmpfile(name);
    let disk = DiskGraph::create(&path, pool_pages, profile).expect("disk create");
    let db = &snb.db;
    let txn = db.begin();
    let mut id_map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    // Copy nodes with properties.
    let mut node_ids = Vec::new();
    db.nodes().for_each_live(|id, _| node_ids.push(id));
    for nid in node_ids {
        let Ok(Some(rec)) = txn.node(nid) else { continue };
        let label = db.dict().string_of(rec.label).unwrap_or_default();
        let props = txn
            .props(graphcore::PropOwner::Node(nid))
            .unwrap_or_default();
        let props_ref: Vec<(&str, Value)> =
            props.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let disk_id = disk.create_node(&label, &props_ref);
        id_map.insert(nid, disk_id);
    }
    // Copy relationships (reverse order so head-insertion reproduces the
    // original adjacency order).
    let mut rel_ids = Vec::new();
    db.rels().for_each_live(|id, _| rel_ids.push(id));
    for rid in rel_ids.into_iter().rev() {
        let Ok(Some(rec)) = txn.rel(rid) else { continue };
        let label = db.dict().string_of(rec.label).unwrap_or_default();
        let props = txn
            .props(graphcore::PropOwner::Rel(rid))
            .unwrap_or_default();
        let props_ref: Vec<(&str, Value)> =
            props.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        disk.create_rel(id_map[&rec.src], &label, id_map[&rec.dst], &props_ref);
    }
    disk.commit();
    DiskSnb { graph: disk, path }
}

/// Convert a PVal parameter to i64 (LDBC ids).
pub fn pv_int(p: &PVal) -> i64 {
    match p {
        PVal::Int(v) => *v,
        PVal::Date(v) => *v,
        other => panic!("expected int param, got {other:?}"),
    }
}

/// Shorthand used by disk workload code.
pub fn pv_value(p: &PVal, snb_dict: Option<&gstore::Dictionary>) -> Value {
    match p {
        PVal::Int(v) => Value::Int(*v),
        PVal::Double(v) => Value::Double(*v),
        PVal::Bool(v) => Value::Bool(*v),
        PVal::Date(v) => Value::Date(*v),
        PVal::Null => Value::Null,
        PVal::Str(code) => Value::Str(
            snb_dict
                .and_then(|d| d.string_of(*code))
                .unwrap_or_default(),
        ),
    }
}

/// Random helper re-export for binaries.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Degree statistics of a generated graph (sanity output for harnesses).
pub fn describe(snb: &SnbDb) -> String {
    format!(
        "persons={} posts={} comments={} forums={} nodes={} rels={}",
        snb.data.person_ids.len(),
        snb.data.post_ids.len(),
        snb.data.comment_ids.len(),
        snb.data.forum_ids.len(),
        snb.db.node_count(),
        snb.db.rel_count()
    )
}

/// Pick a random index into a slice.
pub fn pick<'a, T>(v: &'a [T], rng: &mut impl Rng) -> &'a T {
    &v[rng.random_range(0..v.len())]
}

/// Worker threads for parallel/adaptive modes (`THREADS` env, default
/// min(8, available)).
pub fn threads() -> usize {
    std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4)
        })
}
