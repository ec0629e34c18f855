//! JIT compilation walkthrough: build a graph-algebra plan, compile it to
//! machine code with Cranelift, compare against the AOT interpreter, and
//! show adaptive execution switching mid-query — every run through the one
//! entry point, `run_plan_ctx(plan, txn, ctx, mode)`.
//!
//! ```sh
//! cargo run --release --example jit_pipeline
//! ```

use std::sync::Arc;
use std::time::Instant;

use pmemgraph::gjit::{run_plan_ctx, JitEngine, Mode};
use pmemgraph::gquery::plan::RelEnd;
use pmemgraph::gquery::{execute_collect, CmpOp, ExecCtx, Op, PPar, Plan, Pred, Proj};
use pmemgraph::graphcore::{DbOptions, Dir, GraphDb, Value};
use pmemgraph::gstore::PVal;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized random graph.
    let db = GraphDb::create(DbOptions::dram(1 << 30))?;
    let n = 20_000i64;
    let mut tx = db.begin();
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            tx.create_node(
                "Item",
                &[("score", Value::Int(i % 100)), ("idx", Value::Int(i))],
            )
        })
        .collect::<Result<_, _>>()?;
    for i in 0..n as usize {
        tx.create_rel(ids[i], "NEXT", ids[(i + 17) % n as usize], &[])?;
    }
    tx.commit()?;

    let item = db.intern("Item")?;
    let next = db.intern("NEXT")?;
    let score = db.intern("score")?;
    let idx = db.intern("idx")?;

    // MATCH (a:Item)-[:NEXT]->(b) WHERE a.score > $0 RETURN b.idx
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(item) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: score,
                op: CmpOp::Gt,
                value: PPar::Param(0),
            }),
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(next),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::Project(vec![Proj::Prop { col: 2, key: idx }]),
        ],
        1,
    );
    let params = [PVal::Int(90)];

    // 1. AOT interpretation.
    let mut txn = db.begin();
    let t = Instant::now();
    let interp = execute_collect(&plan, &mut txn, &params)?;
    let t_interp = t.elapsed();
    println!("AOT interpreter: {} rows in {t_interp:?}", interp.len());

    // 2. JIT: compile once, execute compiled code.
    let engine = Arc::new(JitEngine::new());
    let compiled = engine.get_or_compile(&plan).expect("compilable plan");
    println!(
        "compiled pipeline (fingerprint {:#x}) in {:?}",
        compiled.fingerprint, compiled.compile_time
    );
    let t = Instant::now();
    let jit = run_plan_ctx(&plan, &mut txn, &mut ExecCtx::new(&params), &Mode::Jit(&engine))?;
    let t_jit = t.elapsed();
    assert_eq!(jit, interp, "JIT must agree with the interpreter");
    println!(
        "JIT execution:   {} rows in {t_jit:?}  ({:.1}x vs AOT)",
        jit.len(),
        t_interp.as_secs_f64() / t_jit.as_secs_f64()
    );

    // 3. Adaptive: fresh engine, compilation races the scan.
    let engine = Arc::new(JitEngine::new());
    let t = Instant::now();
    let mut ctx = ExecCtx::new(&params);
    let rows = run_plan_ctx(&plan, &mut txn, &mut ctx, &Mode::Adaptive(&engine, 4))?;
    println!(
        "adaptive:        {} rows in {:?}  ({} interpreted + {} compiled morsels)",
        rows.len(),
        t.elapsed(),
        ctx.profile.interpreted_morsels,
        ctx.profile.compiled_morsels
    );
    assert_eq!(rows.len(), interp.len());
    Ok(())
}
