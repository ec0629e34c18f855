//! Compiled-code restart survival: a residual predicate and a whole
//! pipeline compiled against a file-backed [`ShardedDb`] must be served
//! from the on-disk code cache after a reopen — the warm engine reports
//! **zero** compiles while still executing the compiled functions (cache
//! hits observed, rows identical).

#![cfg(target_arch = "x86_64")]

use std::sync::Arc;

use pmemgraph::gjit::{
    attach_residual_expr, expr_key, run_plan_ctx, ExprSource, ExprTier, JitEngine, Mode,
};
use pmemgraph::gquery::{
    execute_collect_ctx, pred_fingerprint, CmpOp, ExecCtx, Op, PPar, Plan, Pred,
};
use pmemgraph::graphcore::shard::{ShardOptions, ShardedDb};
use pmemgraph::graphcore::{GraphDb, Value};
use pmemgraph::gstore::PVal;
use pmemgraph::pmem::DeviceProfile;

const SHARDS: usize = 2;
const ITEMS: usize = 2_000;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pmemgraph-jitexpr-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    for i in 0..SHARDS {
        let _ = std::fs::remove_file(p.with_extension(format!("s{i}")));
    }
    let _ = std::fs::remove_file(p.with_extension("jitcache"));
    p
}

/// The residual the tier compiles: `v >= 100 && v <= 140` over scattered
/// values, so pruning cannot shortcut it.
fn residual(v_key: u32) -> Pred {
    Pred::And(
        Box::new(Pred::Prop {
            col: 0,
            key: v_key,
            op: CmpOp::Ge,
            value: PPar::Const(PVal::Int(100)),
        }),
        Box::new(Pred::Prop {
            col: 0,
            key: v_key,
            op: CmpOp::Le,
            value: PPar::Const(PVal::Int(140)),
        }),
    )
}

fn plan_for(item: u32, pred: &Pred) -> Plan {
    Plan::new(
        vec![
            Op::NodeScan { label: Some(item) },
            Op::Filter(pred.clone()),
            Op::Count,
        ],
        0,
    )
}

/// Run the counted plan on one shard with the expression tier armed
/// through the public attach/probe path; returns the count.
fn run_shard(engine: &Arc<JitEngine>, shard: &GraphDb, expect_compiled: bool) -> i64 {
    let item = shard.intern("Item").unwrap();
    let v = shard.intern("v").unwrap();
    let pred = residual(v);
    let plan = plan_for(item, &pred);
    let mut txn = shard.begin();
    let mut ctx = ExecCtx::new(&[]);
    let _pgo = attach_residual_expr(engine, &plan, &mut ctx);
    if expect_compiled {
        assert!(
            ctx.residual_expr.as_ref().is_some_and(|s| s.is_compiled()),
            "probe must publish cached code before the first morsel"
        );
    }
    let rows = execute_collect_ctx(&plan, &mut txn, &mut ctx).unwrap();
    ctx.residual_expr = None;
    match rows[0][0].as_pval() {
        Some(PVal::Int(n)) => n,
        other => panic!("count returned {other:?}"),
    }
}

/// Run the counted plan on one shard as a compiled pipeline
/// (`Mode::Jit`: the filter is compiled inline, no expression tier).
fn run_shard_jit(engine: &Arc<JitEngine>, shard: &GraphDb) -> i64 {
    let item = shard.intern("Item").unwrap();
    let plan = plan_for(item, &residual(shard.intern("v").unwrap()));
    let mut txn = shard.begin();
    let mut ctx = ExecCtx::new(&[]);
    let rows = run_plan_ctx(&plan, &mut txn, &mut ctx, &Mode::Jit(engine)).unwrap();
    assert_eq!(ctx.profile.compiled_morsels, 1);
    match rows[0][0].as_pval() {
        Some(PVal::Int(n)) => n,
        other => panic!("count returned {other:?}"),
    }
}

#[test]
fn warm_reopen_executes_from_disk_cache_with_zero_compiles() {
    if !pmemgraph::gjit::expr::supported() {
        return;
    }
    let path = tmpfile("restart");
    let load = std::sync::atomic::Ordering::Relaxed;

    // Phase 1: create, populate, compile, run. The engine persists each
    // shard's residual into {path}.jitcache.
    let cold_counts: Vec<i64>;
    {
        let db = ShardedDb::create(
            ShardOptions::pmem(&path, 128 << 20)
                .profile(DeviceProfile::dram())
                .shards(SHARDS),
        )
        .unwrap();
        let mut tx = db.begin();
        for i in 0..ITEMS {
            tx.create_node("Item", &[("v", Value::Int(((i * 7) % 1000) as i64))])
                .unwrap();
        }
        tx.commit().unwrap();

        let engine = Arc::new(JitEngine::new());
        engine.attach_disk_cache(&path);
        for shard in db.shards() {
            let v = shard.intern("v").unwrap();
            let pred = residual(v);
            let key = expr_key(
                ExprSource::Node,
                pred_fingerprint(&pred),
                ExprTier::Generic,
                0,
            );
            engine
                .get_or_compile_expr(key, ExprSource::Node, &pred, None)
                .expect("residual compiles");
        }
        assert!(
            engine.stats().compiles.load(load) >= 1,
            "phase 1 must actually compile"
        );
        cold_counts = db
            .shards()
            .iter()
            .map(|s| run_shard(&engine, s, true))
            .collect();
        assert!(cold_counts.iter().sum::<i64>() > 0, "fixture must match rows");
        let exprs_on_disk = engine.disk_cache_len();
        assert!(exprs_on_disk >= 1, "compiled code must be on disk");
        let jit_counts: Vec<i64> = db.shards().iter().map(|s| run_shard_jit(&engine, s)).collect();
        assert_eq!(jit_counts, cold_counts, "pipeline and expression tier agree");
        assert!(
            engine.disk_cache_len() > exprs_on_disk,
            "compiled pipelines must be on disk too"
        );
    }

    // Phase 2: reopen the database AND a brand-new engine. The probe must
    // find every shard's residual in the disk cache — zero compiles.
    let db = ShardedDb::open(&path, SHARDS, DeviceProfile::dram()).unwrap();
    let engine = Arc::new(JitEngine::new());
    engine.attach_disk_cache(&path);
    let warm_counts: Vec<i64> = db
        .shards()
        .iter()
        .map(|s| run_shard(&engine, s, true))
        .collect();
    assert_eq!(warm_counts, cold_counts, "warm reopen must return identical rows");
    let warm_jit: Vec<i64> = db.shards().iter().map(|s| run_shard_jit(&engine, s)).collect();
    assert_eq!(warm_jit, cold_counts, "reloaded pipelines must return identical rows");
    assert_eq!(
        engine.stats().compiles.load(load),
        0,
        "warm reopen must serve compiled code from the disk cache"
    );
    assert!(
        engine.stats().cache_hits.load(load) >= 2 * SHARDS as u64,
        "each shard's expression probe and pipeline lookup must hit the cache"
    );
}
