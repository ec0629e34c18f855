//! Chunk-grain read acceleration: filtered scans with zone-map pruning
//! and the MVTO single-version fast path, on vs off.
//!
//! Data is deliberately *clustered* — `v = i` in insertion order, labels
//! loaded phase by phase — so per-chunk min/max zones are tight and label
//! bitsets are sparse. (The differential fixtures use `v = (i*7) % 1000`,
//! which spans the full value range inside every 64-record chunk and
//! prunes nothing; pruning only pays on data with locality, which is what
//! this harness models.) The whole graph is committed and quiescent
//! before measurement, so every chunk is clean and eligible for the
//! single-version fast path.
//!
//! Toggle: `GraphDb::set_read_accel`, the ablation hook (default on);
//! this harness flips it between series.
//!
//! Output: a table on stdout plus `results/BENCH_scan_prune.json`.

use std::time::Duration;

use bench::{fmt_dur, runs, scale_name, threads, time_avg};
use gjit::{run_plan_ctx, Mode};
use gquery::{execute_collect, CmpOp, ExecCtx, Op, PPar, Plan, Pred};
use graphcore::{DbOptions, GraphDb, Value};
use gstore::{IndexKind, PVal};

fn item_count(scale: &str) -> usize {
    match scale {
        "tiny" => 4_096,
        "bench" => 262_144,
        _ => 65_536,
    }
}

struct Fx {
    db: GraphDb,
    item: u32,
    hot: u32,
    v: u32,
    n: usize,
}

/// `n` Item nodes with `v = i` (tight per-chunk zones), then `n/2` Pad
/// nodes (label-disjoint chunks), then `n` HOT rels followed by `n` COLD
/// rels. Everything committed in batches, nothing left in flight.
fn fixture(n: usize) -> Fx {
    let db = GraphDb::create(DbOptions::dram(1 << 30)).unwrap();
    // Register (Item, v) before loading so zone maps are maintained by
    // the write path itself rather than rebuilt afterwards.
    db.create_index("Item", "v", IndexKind::Volatile).unwrap();
    let batch = 4_096;
    let mut items = Vec::with_capacity(n);
    for start in (0..n).step_by(batch) {
        let mut tx = db.begin();
        for i in start..(start + batch).min(n) {
            items.push(
                tx.create_node("Item", &[("v", Value::Int(i as i64))])
                    .unwrap(),
            );
        }
        tx.commit().unwrap();
    }
    for start in (0..n / 2).step_by(batch) {
        let mut tx = db.begin();
        for i in start..(start + batch).min(n / 2) {
            tx.create_node("Pad", &[("w", Value::Int(i as i64))]).unwrap();
        }
        tx.commit().unwrap();
    }
    for (label, shift) in [("HOT", 1usize), ("COLD", 7usize)] {
        for start in (0..n).step_by(batch) {
            let mut tx = db.begin();
            for i in start..(start + batch).min(n) {
                tx.create_rel(items[i], label, items[(i + shift) % n], &[])
                    .unwrap();
            }
            tx.commit().unwrap();
        }
    }
    let item = db.intern("Item").unwrap();
    let hot = db.intern("HOT").unwrap();
    let v = db.intern("v").unwrap();
    Fx { db, item, hot, v, n }
}

/// Measure `plan` in one mode with the accelerator on and off; assert the
/// rows agree and return (off, on) average latencies.
fn measure(
    fx: &Fx,
    plan: &Plan,
    nthreads: usize,
    n_runs: usize,
) -> (Duration, Duration) {
    let mut out = [Duration::ZERO; 2];
    let mut rows = Vec::new();
    for (slot, accel) in [false, true].into_iter().enumerate() {
        fx.db.set_read_accel(accel);
        let run = || {
            let mut rtx = fx.db.begin();
            if nthreads <= 1 {
                execute_collect(plan, &mut rtx, &[]).unwrap()
            } else {
                let mode = Mode::Parallel(nthreads);
                run_plan_ctx(plan, &mut rtx, &mut ExecCtx::new(&[]), &mode).unwrap()
            }
        };
        let got = run(); // warm
        out[slot] = time_avg(n_runs, |_| {
            run();
        });
        rows.push(got);
    }
    fx.db.set_read_accel(true);
    assert_eq!(rows[0], rows[1], "acceleration must not change results");
    (out[0], out[1])
}

fn main() {
    let scale = scale_name();
    let n = item_count(&scale);
    let n_runs = runs();
    let nthreads = threads();
    println!("# scan_prune — chunk-grain read acceleration on vs off");
    println!("# scale: {scale} ({n} Item nodes, clustered v=i), runs: {n_runs}, threads: {nthreads}");

    let fx = fixture(n);
    let node_chunks = fx.db.nodes().chunk_count();
    let rel_chunks = fx.db.rels().chunk_count();
    println!("# node chunks: {node_chunks}, rel chunks: {rel_chunks}");

    // A 1%-selective window on the indexed property: zone maps should
    // discard ~99% of Item chunks and every Pad chunk.
    let lo = (fx.n / 2) as i64;
    let hi = lo + (fx.n / 100).max(64) as i64;
    let selective = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.item) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.v,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(lo)),
            }),
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.v,
                op: CmpOp::Le,
                value: PPar::Const(PVal::Int(hi)),
            }),
            Op::Count,
        ],
        0,
    );
    // Full label scan: label bitsets prune the Pad chunks, the fast path
    // carries the surviving (clean) chunks.
    let label_scan = Plan::new(
        vec![Op::NodeScan { label: Some(fx.item) }, Op::Count],
        0,
    );
    // Rel scan: label bitsets alone (no rel property zones) — the COLD
    // half of the edge table disappears before any row materializes.
    let rel_scan = Plan::new(
        vec![Op::RelScan { label: Some(fx.hot) }, Op::Count],
        0,
    );

    let queries: [(&str, &Plan); 3] = [
        ("node_selective", &selective),
        ("node_label", &label_scan),
        ("rel_label", &rel_scan),
    ];
    let mut json_series = Vec::new();
    println!(
        "\n{:>16} {:>8} {:>12} {:>12} {:>9}",
        "query", "mode", "accel-off", "accel-on", "speedup"
    );
    for (name, plan) in queries {
        for (mode, th) in [("interp", 1usize), ("parallel", nthreads)] {
            let (off, on) = measure(&fx, plan, th, n_runs);
            let speedup = off.as_nanos() as f64 / on.as_nanos().max(1) as f64;
            println!(
                "{:>16} {:>8} {:>12} {:>12} {:>8.2}x",
                name,
                mode,
                fmt_dur(off),
                fmt_dur(on),
                speedup
            );
            json_series.push(format!(
                "    {{\"query\": \"{name}\", \"mode\": \"{mode}\", \
                 \"accel_off_ns\": {}, \"accel_on_ns\": {}, \"speedup\": {speedup:.3}}}",
                off.as_nanos(),
                on.as_nanos()
            ));
        }
    }

    // One profiled run of the selective scan so the JSON records what the
    // counters saw (pruned chunks, fast-path morsels, residual rows).
    fx.db.set_read_accel(true);
    let mut tx = fx.db.begin();
    let mut ctx = ExecCtx::new(&[]);
    run_plan_ctx(&selective, &mut tx, &mut ctx, &Mode::Parallel(nthreads)).unwrap();
    let p = &ctx.profile;
    println!(
        "\nprofile (node_selective, parallel): chunks_pruned={} fast_path_morsels={} residual_rows={}",
        p.chunks_pruned,
        p.fast_path_morsels,
        p.residual_rows()
    );

    let json = format!(
        "{{\n  \"bench\": \"scan_prune\",\n  \"meta\": {},\n  \"scale\": \"{scale}\",\n  \"n_items\": {n},\n  \
         \"runs\": {n_runs},\n  \"threads\": {nthreads},\n  \"node_chunks\": {node_chunks},\n  \
         \"rel_chunks\": {rel_chunks},\n  \"series\": [\n{}\n  ],\n  \"profile\": {{\n    \
         \"chunks_pruned\": {},\n    \"fast_path_morsels\": {},\n    \"residual_rows\": {}\n  }}\n}}\n",
        bench::meta_json(),
        json_series.join(",\n"),
        p.chunks_pruned,
        p.fast_path_morsels,
        p.residual_rows()
    );
    bench::write_results("scan_prune", &json);
}
