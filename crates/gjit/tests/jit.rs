//! JIT correctness: compiled pipelines must produce exactly the
//! interpreter's results — including randomized plan/data equivalence —
//! plus code-cache and adaptive-execution behaviour.

use std::sync::Arc;

use gjit::{run_plan_ctx, CompiledQuery, ExprSource, JitEngine, Mode};
use gquery::plan::{RelEnd, Row};
use gquery::{execute_collect, CmpOp, ExecCtx, ExecProfile, Op, PPar, Plan, Pred, Proj};
use graphcore::{DbOptions, Dir, GraphDb, GraphTxn, Value};
use gstore::{IndexKind, PVal};

struct Fx {
    db: GraphDb,
    person: u32,
    knows: u32,
    pid: u32,
    age: u32,
    since: u32,
}

fn fixture(n: i64) -> Fx {
    let db = GraphDb::create(DbOptions::dram(512 << 20)).unwrap();
    let person = db.intern("Person").unwrap();
    let knows = db.intern("KNOWS").unwrap();
    let pid = db.intern("pid").unwrap();
    let age = db.intern("age").unwrap();
    let since = db.intern("since").unwrap();
    let mut tx = db.begin();
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            tx.create_node(
                "Person",
                &[("pid", Value::Int(i)), ("age", Value::Int(18 + i % 60))],
            )
            .unwrap()
        })
        .collect();
    // Ring + skip-7 chords: varied degree.
    for i in 0..n as usize {
        tx.create_rel(
            ids[i],
            "KNOWS",
            ids[(i + 1) % n as usize],
            &[("since", Value::Int(1990 + (i % 30) as i64))],
        )
        .unwrap();
        if i % 7 == 0 {
            tx.create_rel(ids[i], "KNOWS", ids[(i + 13) % n as usize], &[])
                .unwrap();
        }
    }
    tx.commit().unwrap();
    db.create_index("Person", "pid", IndexKind::Hybrid).unwrap();
    Fx {
        db,
        person,
        knows,
        pid,
        age,
        since,
    }
}

/// One-shot JIT execution: `Mode::Jit` through the one entry point.
fn jit_rows(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    tx: &mut GraphTxn<'_>,
    params: &[PVal],
) -> Vec<Row> {
    run_plan_ctx(plan, tx, &mut ExecCtx::new(params), &Mode::Jit(engine)).unwrap()
}

/// Adaptive execution on `threads` workers: the rows and the profile of
/// what ran (interpreted vs compiled morsels).
fn adaptive(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    tx: &mut GraphTxn<'_>,
    threads: usize,
) -> (Vec<Row>, ExecProfile) {
    let mut ctx = ExecCtx::new(&[]);
    let rows = run_plan_ctx(plan, tx, &mut ctx, &Mode::Adaptive(engine, threads)).unwrap();
    (rows, ctx.profile)
}

/// Run both engines on the same plan/params and compare rows exactly.
fn assert_equivalent(fx: &Fx, plan: &Plan, params: &[PVal]) {
    let engine = Arc::new(JitEngine::new());
    let mut tx = fx.db.begin();
    let interp = execute_collect(plan, &mut tx, params).unwrap();
    drop(tx);
    let mut tx = fx.db.begin();
    assert_eq!(
        jit_rows(&engine, plan, &mut tx, params),
        interp,
        "JIT and interpreter must agree"
    );
}

#[test]
fn scan_equivalence() {
    let fx = fixture(300);
    let plan = Plan::new(vec![Op::NodeScan { label: Some(fx.person) }], 0);
    assert_equivalent(&fx, &plan, &[]);
    let plan = Plan::new(vec![Op::NodeScan { label: None }], 0);
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn filter_equivalence_all_cmp_ops() {
    let fx = fixture(200);
    for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        let plan = Plan::new(
            vec![
                Op::NodeScan { label: Some(fx.person) },
                Op::Filter(Pred::Prop {
                    col: 0,
                    key: fx.age,
                    op,
                    value: PPar::Const(PVal::Int(40)),
                }),
                Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
            ],
            0,
        );
        assert_equivalent(&fx, &plan, &[]);
    }
}

#[test]
fn traversal_equivalence() {
    let fx = fixture(150);
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.pid,
                op: CmpOp::Lt,
                value: PPar::Const(PVal::Int(20)),
            }),
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::Project(vec![
                Proj::Prop { col: 0, key: fx.pid },
                Proj::Prop { col: 2, key: fx.pid },
                Proj::Prop { col: 1, key: fx.since },
            ]),
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn incoming_traversal_equivalence() {
    let fx = fixture(100);
    let plan = Plan::new(
        vec![
            Op::IndexScan {
                label: fx.person,
                key: fx.pid,
                value: PPar::Param(0),
            },
            Op::ForeachRel {
                col: 0,
                dir: Dir::In,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Src,
            },
            Op::Project(vec![Proj::Id { col: 2 }]),
        ],
        1,
    );
    for p in [0i64, 13, 50, 99] {
        assert_equivalent(&fx, &plan, &[PVal::Int(p)]);
    }
}

#[test]
fn two_hop_equivalence() {
    let fx = fixture(80);
    let plan = Plan::new(
        vec![
            Op::IndexScan {
                label: fx.person,
                key: fx.pid,
                value: PPar::Const(PVal::Int(0)),
            },
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::ForeachRel {
                col: 2,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 3,
                end: RelEnd::Dst,
            },
            Op::Filter(Pred::ColNe { a: 0, b: 4 }),
            Op::Project(vec![Proj::Prop { col: 4, key: fx.pid }]),
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn breakers_run_on_compiled_output() {
    let fx = fixture(120);
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::OrderBy {
                key: Proj::Prop { col: 0, key: fx.pid },
                desc: true,
            },
            Op::Limit(7),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn compound_predicates_equivalence() {
    let fx = fixture(150);
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::And(
                Box::new(Pred::Prop {
                    col: 0,
                    key: fx.age,
                    op: CmpOp::Ge,
                    value: PPar::Const(PVal::Int(30)),
                }),
                Box::new(Pred::Or(
                    Box::new(Pred::Prop {
                        col: 0,
                        key: fx.pid,
                        op: CmpOp::Lt,
                        value: PPar::Const(PVal::Int(50)),
                    }),
                    Box::new(Pred::Not(Box::new(Pred::Prop {
                        col: 0,
                        key: fx.pid,
                        op: CmpOp::Lt,
                        value: PPar::Const(PVal::Int(100)),
                    }))),
                )),
            )),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn update_pipeline_via_jit() {
    let fx = fixture(50);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![
            Op::IndexScan {
                label: fx.person,
                key: fx.pid,
                value: PPar::Param(0),
            },
            Op::CreateNode {
                label: fx.person,
                props: vec![(fx.pid, PPar::Param(1))],
            },
            Op::CreateRel {
                src_col: 1,
                dst_col: 0,
                label: fx.knows,
                props: vec![(fx.since, PPar::Const(PVal::Int(2025)))],
            },
            Op::SetProp {
                col: 1,
                key: fx.age,
                value: PPar::Const(PVal::Int(1)),
            },
        ],
        2,
    );
    let mut tx = fx.db.begin();
    let rows = jit_rows(&engine, &plan, &mut tx, &[PVal::Int(5), PVal::Int(8888)]);
    assert_eq!(rows.len(), 1);
    tx.commit().unwrap();

    // Verify through the interpreter.
    let check = Plan::new(
        vec![
            Op::IndexScan {
                label: fx.person,
                key: fx.pid,
                value: PPar::Const(PVal::Int(8888)),
            },
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::Project(vec![
                Proj::Prop { col: 0, key: fx.age },
                Proj::Prop { col: 2, key: fx.pid },
                Proj::Prop { col: 1, key: fx.since },
            ]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let rows = execute_collect(&check, &mut tx, &[]).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0].as_pval(), Some(PVal::Int(1)));
    assert_eq!(rows[0][1].as_pval(), Some(PVal::Int(5)));
    assert_eq!(rows[0][2].as_pval(), Some(PVal::Int(2025)));
}

#[test]
fn code_cache_hits_on_same_shape() {
    let fx = fixture(60);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![Op::IndexScan {
            label: fx.person,
            key: fx.pid,
            value: PPar::Param(0),
        }],
        1,
    );
    for i in 0..10i64 {
        let mut tx = fx.db.begin();
        let rows = jit_rows(&engine, &plan, &mut tx, &[PVal::Int(i)]);
        assert_eq!(rows.len(), 1, "i={i}");
    }
    assert_eq!(
        engine.stats().compiles.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "one compile, nine cache hits"
    );
    assert_eq!(
        engine.stats().cache_hits.load(std::sync::atomic::Ordering::Relaxed),
        9
    );
}

/// A fresh `{base}` for one test's `.jitcache` sidecar, removed on drop.
struct Sidecar(std::path::PathBuf);

impl Sidecar {
    fn new(name: &str) -> Sidecar {
        let base = std::env::temp_dir().join(format!("gjit_jit_{}_{name}", std::process::id()));
        let s = Sidecar(base);
        let _ = std::fs::remove_file(s.file());
        s
    }

    fn file(&self) -> std::path::PathBuf {
        let mut p = self.0.clone().into_os_string();
        p.push(".jitcache");
        p.into()
    }

    /// A new engine attached to this base: a "restarted" process.
    fn engine(&self) -> Arc<JitEngine> {
        let engine = Arc::new(JitEngine::new());
        engine.attach_disk_cache(&self.0);
        engine
    }
}

impl Drop for Sidecar {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.file());
    }
}

fn run_jit(engine: &Arc<JitEngine>, plan: &Plan, fx: &Fx) -> Vec<Row> {
    jit_rows(engine, plan, &mut fx.db.begin(), &[])
}

#[test]
fn sidecar_serves_pipelines_to_a_second_engine_without_compiling() {
    use std::sync::atomic::Ordering;
    let fx = fixture(30);
    let sidecar = Sidecar::new("reopen");
    let plan = Plan::new(vec![Op::NodeScan { label: Some(fx.person) }], 0);
    let engine = sidecar.engine();
    let rows = run_jit(&engine, &plan, &fx);
    assert_eq!(rows.len(), 30);
    assert_eq!(engine.stats().compiles.load(Ordering::Relaxed), 1);
    assert_eq!(engine.disk_cache_len(), 1);

    // "Restart": a fresh engine attached to the same base.
    let engine2 = sidecar.engine();
    assert_eq!(run_jit(&engine2, &plan, &fx), rows);
    assert_eq!(
        engine2.stats().compiles.load(Ordering::Relaxed),
        0,
        "compiled code must survive the restart"
    );
    assert_eq!(engine2.stats().cache_hits.load(Ordering::Relaxed), 1);
}

#[test]
fn pipeline_code_bytes_run_from_a_fresh_mapping() {
    // The code is position-independent: a copy of its bytes answers like
    // the original (what the sidecar relies on).
    let fx = fixture(50);
    let engine = JitEngine::new();
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.age,
                op: CmpOp::Gt,
                value: PPar::Param(0),
            }),
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::Project(vec![Proj::Prop { col: 2, key: fx.pid }]),
        ],
        1,
    );
    let compiled = engine.compile_uncached(&plan).unwrap();
    let reloaded = CompiledQuery::from_bytes(compiled.code_bytes(), &plan).unwrap();
    assert_eq!(reloaded.compile_time, std::time::Duration::ZERO);
    let mut tx = fx.db.begin();
    for age in [0, 30, 77] {
        let params = [PVal::Int(age)];
        let expect = execute_collect(&plan, &mut tx, &params).unwrap();
        let mut ctx = ExecCtx::new(&params);
        assert_eq!(compiled.collect(&plan, &mut tx, &mut ctx).unwrap(), expect);
        assert_eq!(reloaded.collect(&plan, &mut tx, &mut ctx).unwrap(), expect);
    }
}

#[test]
fn compile_time_is_measured_and_small() {
    let fx = fixture(10);
    let engine = JitEngine::new();
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.age,
                op: CmpOp::Gt,
                value: PPar::Const(PVal::Int(20)),
            }),
        ],
        0,
    );
    let compiled = engine.compile_uncached(&plan).unwrap();
    assert!(compiled.compile_time.as_micros() > 0);
    assert!(
        compiled.compile_time.as_millis() < 1000,
        "cranelift compile should be fast, took {:?}",
        compiled.compile_time
    );
    // And the compiled object is runnable.
    let mut tx = fx.db.begin();
    let rows = compiled.collect(&plan, &mut tx, &mut ExecCtx::new(&[])).unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn adaptive_matches_interpreter() {
    let fx = fixture(500);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.age,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(40)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
    let morsels = fx.db.nodes().chunk_count() as u64;
    let (rows, profile) = adaptive(&engine, &plan, &mut tx, 4);
    assert_eq!(rows, interp);
    assert_eq!(profile.interpreted_morsels + profile.compiled_morsels, morsels);

    // Second run: compilation cached, every morsel runs compiled.
    let (rows2, profile2) = adaptive(&engine, &plan, &mut tx, 4);
    assert_eq!(rows2, interp);
    assert_eq!(profile2.compiled_morsels, morsels);
}

#[test]
fn adaptive_with_order_by_tail() {
    let fx = fixture(200);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::OrderBy {
                key: Proj::Prop { col: 0, key: fx.pid },
                desc: false,
            },
            Op::Limit(10),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
    let (rows, _) = adaptive(&engine, &plan, &mut tx, 2);
    assert_eq!(rows, interp);
    assert_eq!(rows.len(), 10);
}

#[test]
fn randomized_plan_equivalence() {
    // Pseudo-random plans over a fixed schema: JIT must match the
    // interpreter on every one.
    let fx = fixture(120);
    let engine = Arc::new(JitEngine::new());
    let mut seed = 0xC0FFEEu64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for round in 0..30 {
        let mut ops = vec![Op::NodeScan { label: Some(fx.person) }];
        // Random filter.
        let cmp = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
            [(rng() % 6) as usize];
        let key = if rng() % 2 == 0 { fx.age } else { fx.pid };
        ops.push(Op::Filter(Pred::Prop {
            col: 0,
            key,
            op: cmp,
            value: PPar::Const(PVal::Int((rng() % 100) as i64)),
        }));
        // Random traversal depth 0..2.
        let mut col = 0;
        for _ in 0..rng() % 3 {
            let dir = if rng() % 2 == 0 { Dir::Out } else { Dir::In };
            ops.push(Op::ForeachRel {
                col,
                dir,
                label: Some(fx.knows),
            });
            ops.push(Op::GetNode {
                col: col + 1,
                end: if dir == Dir::Out { RelEnd::Dst } else { RelEnd::Src },
            });
            col += 2;
        }
        ops.push(Op::Project(vec![Proj::Prop { col, key: fx.pid }]));
        let plan = Plan::new(ops, 0);

        let mut tx = fx.db.begin();
        let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
        drop(tx);
        let mut tx = fx.db.begin();
        let jit = jit_rows(&engine, &plan, &mut tx, &[]);
        assert_eq!(jit, interp, "round {round} plan {plan:?}");
    }
}

#[test]
fn rel_scan_equivalence() {
    let fx = fixture(100);
    let plan = Plan::new(
        vec![
            Op::RelScan { label: Some(fx.knows) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.since,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(2005)),
            }),
            Op::GetNode {
                col: 0,
                end: RelEnd::Src,
            },
            Op::Project(vec![
                Proj::Prop { col: 1, key: fx.pid },
                Proj::Prop { col: 0, key: fx.since },
            ]),
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);

    // Unlabelled relationship scan + count tail.
    let plan = Plan::new(vec![Op::RelScan { label: None }, Op::Count], 0);
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn node_by_id_equivalence() {
    let fx = fixture(50);
    let plan = Plan::new(
        vec![
            Op::NodeById { id: PPar::Param(0) },
            Op::Project(vec![Proj::Prop { col: 0, key: fx.pid }]),
        ],
        1,
    );
    // Valid physical ids, an out-of-range id, and a non-Int parameter.
    for p in [PVal::Int(0), PVal::Int(3), PVal::Int(1_000_000), PVal::Int(-5)] {
        assert_equivalent(&fx, &plan, &[p]);
    }
}

#[test]
fn once_pipeline_equivalence() {
    let fx = fixture(30);
    let engine = Arc::new(JitEngine::new());
    // Pure insert pipeline seeded by Once.
    let plan = Plan::new(
        vec![
            Op::Once,
            Op::CreateNode {
                label: fx.person,
                props: vec![(fx.pid, PPar::Const(PVal::Int(777_777)))],
            },
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let rows = jit_rows(&engine, &plan, &mut tx, &[]);
    assert_eq!(rows.len(), 1);
    tx.commit().unwrap();
    let check = Plan::new(
        vec![Op::IndexScan {
            label: fx.person,
            key: fx.pid,
            value: PPar::Const(PVal::Int(777_777)),
        }],
        0,
    );
    let mut tx = fx.db.begin();
    assert_eq!(execute_collect(&check, &mut tx, &[]).unwrap().len(), 1);
}

#[test]
fn index_probe_equivalence() {
    let fx = fixture(60);
    // Probe joins two independent persons into one row.
    let plan = Plan::new(
        vec![
            Op::IndexScan {
                label: fx.person,
                key: fx.pid,
                value: PPar::Param(0),
            },
            Op::IndexProbe {
                label: fx.person,
                key: fx.pid,
                value: PPar::Param(1),
            },
            Op::Project(vec![
                Proj::Prop { col: 0, key: fx.age },
                Proj::Prop { col: 1, key: fx.age },
                Proj::ConnectedFlag {
                    a: 0,
                    b: 1,
                    label: fx.knows,
                },
            ]),
        ],
        2,
    );
    for (a, b) in [(0i64, 1i64), (5, 40), (10, 11), (3, 999)] {
        assert_equivalent(&fx, &plan, &[PVal::Int(a), PVal::Int(b)]);
    }
}

#[test]
fn distinct_tail_after_compiled_segment() {
    let fx = fixture(90);
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::ForeachRel {
                col: 0,
                dir: Dir::Out,
                label: Some(fx.knows),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Dst,
            },
            Op::Project(vec![Proj::Prop { col: 2, key: fx.age }]),
            Op::Distinct,
        ],
        0,
    );
    assert_equivalent(&fx, &plan, &[]);
}

#[test]
fn jit_runs_on_persistent_pmem_pool() {
    // Codegen must be agnostic to the backing device: same plan, pmem pool
    // with the full latency model.
    let mut path = std::env::temp_dir();
    path.push(format!("gjit-pmem-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let db = GraphDb::create(
        graphcore::DbOptions::pmem(&path, 256 << 20), // pmem latency profile
    )
    .unwrap();
    let person = db.intern("Person").unwrap();
    let pid = db.intern("pid").unwrap();
    let mut tx = db.begin();
    for i in 0..100i64 {
        tx.create_node("Person", &[("pid", Value::Int(i))]).unwrap();
    }
    tx.commit().unwrap();

    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: pid,
                op: CmpOp::Lt,
                value: PPar::Const(PVal::Int(10)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: pid }]),
        ],
        0,
    );
    let mut tx = db.begin();
    let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
    let jit = jit_rows(&engine, &plan, &mut tx, &[]);
    assert_eq!(jit, interp);
    assert_eq!(jit.len(), 10);
    drop(tx);
    drop(db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compiled_query_outlives_engine_cache_clear() {
    // The shared code object stays mapped even if the engine cache is
    // cleared while a caller still holds the compiled query.
    let fx = fixture(40);
    let engine = JitEngine::new();
    let plan = Plan::new(vec![Op::NodeScan { label: Some(fx.person) }], 0);
    let compiled = engine.get_or_compile(&plan).unwrap();
    engine.clear_code_cache();
    let mut tx = fx.db.begin();
    let rows = compiled.collect(&plan, &mut tx, &mut ExecCtx::new(&[])).unwrap();
    assert_eq!(rows.len(), 40);
    // Re-fetching after the clear compiles again.
    let _again = engine.get_or_compile(&plan).unwrap();
    assert_eq!(
        engine.stats().compiles.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
}

#[test]
fn unsupported_plan_reports_cleanly() {
    let fx = fixture(10);
    let engine = JitEngine::new();
    // OrderBy heads the plan: nothing compilable before the breaker — the
    // compiled segment is empty, which the codegen rejects.
    let plan = Plan::new(
        vec![
            Op::OrderBy {
                key: Proj::Col(0),
                desc: false,
            },
            Op::NodeScan { label: Some(fx.person) },
        ],
        0,
    );
    assert!(engine.get_or_compile(&plan).is_err());
}

#[test]
fn warm_from_disk_maps_only_previously_compiled_plans() {
    use std::sync::atomic::Ordering;
    let fx = fixture(20);
    let sidecar = Sidecar::new("warm");
    let hot = Plan::new(vec![Op::NodeScan { label: Some(fx.person) }], 0);
    let never_run = Plan::new(vec![Op::NodeScan { label: None }], 0);
    run_jit(&sidecar.engine(), &hot, &fx);

    // "Restart": new engine over the same sidecar, cold memory cache.
    let engine2 = sidecar.engine();
    assert_eq!(engine2.code_cache_len(), 0);
    assert_eq!(engine2.warm_from_disk(), 1, "only the executed plan is on disk");
    assert_eq!(engine2.code_cache_len(), 1);
    // The warmed plan executes without a compile; the other one compiles.
    run_jit(&engine2, &hot, &fx);
    assert_eq!(engine2.stats().compiles.load(Ordering::Relaxed), 0);
    run_jit(&engine2, &never_run, &fx);
    assert_eq!(engine2.stats().compiles.load(Ordering::Relaxed), 1);
}

#[test]
fn code_cache_is_bounded_with_lru_eviction() {
    use std::sync::atomic::Ordering;
    let fx = fixture(30);
    let engine = Arc::new(JitEngine::new());
    engine.set_code_cache_capacity(2);
    assert_eq!(engine.code_cache_capacity(), 2);

    // Three distinct plan shapes (different filter keys).
    let shape = |key: u32| {
        Plan::new(
            vec![
                Op::NodeScan { label: Some(fx.person) },
                Op::Filter(Pred::Prop {
                    col: 0,
                    key,
                    op: CmpOp::Ge,
                    value: PPar::Param(0),
                }),
            ],
            1,
        )
    };
    let (a, b, c) = (shape(fx.pid), shape(fx.age), shape(fx.since));

    let mut tx = fx.db.begin();
    jit_rows(&engine, &a, &mut tx, &[PVal::Int(0)]);
    jit_rows(&engine, &b, &mut tx, &[PVal::Int(0)]);
    assert_eq!(engine.code_cache_len(), 2);
    assert_eq!(engine.stats().evictions.load(Ordering::Relaxed), 0);

    // `a` is LRU; compiling `c` must evict it.
    jit_rows(&engine, &c, &mut tx, &[PVal::Int(0)]);
    assert_eq!(engine.code_cache_len(), 2);
    assert_eq!(engine.stats().evictions.load(Ordering::Relaxed), 1);

    // `b` and `c` are still hot (cache hit, no compile)...
    let compiles = engine.stats().compiles.load(Ordering::Relaxed);
    jit_rows(&engine, &b, &mut tx, &[PVal::Int(0)]);
    jit_rows(&engine, &c, &mut tx, &[PVal::Int(0)]);
    assert_eq!(engine.stats().compiles.load(Ordering::Relaxed), compiles);

    // ...while `a` was evicted and recompiles.
    jit_rows(&engine, &a, &mut tx, &[PVal::Int(0)]);
    assert_eq!(engine.stats().compiles.load(Ordering::Relaxed), compiles + 1);
    assert_eq!(engine.stats().evictions.load(Ordering::Relaxed), 2);

    // Shrinking the capacity evicts immediately.
    engine.set_code_cache_capacity(1);
    assert_eq!(engine.code_cache_len(), 1);
    assert_eq!(engine.stats().evictions.load(Ordering::Relaxed), 3);

    // The bound covers both kinds: an expression evicts the pipeline.
    let pred = Pred::LabelIs {
        col: 0,
        label: fx.person,
    };
    engine
        .get_or_compile_expr(7, ExprSource::Node, &pred, None)
        .unwrap();
    assert_eq!(engine.code_cache_len(), 1);
    assert_eq!(engine.expr_cache_len(), 1);
    assert_eq!(engine.stats().evictions.load(Ordering::Relaxed), 4);
}

/// A scan that zone maps prune to one chunk is one morsel in every
/// scheduled mode — `execute_morsels` runs it on the calling thread
/// (`gquery::sched`'s own tests count the spawns) — with the
/// interpreter's rows.
#[test]
fn a_one_morsel_scan_agrees_in_every_scheduled_mode() {
    let fx = fixture(500);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(fx.person) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.pid,
                op: CmpOp::Eq,
                value: PPar::Const(PVal::Int(77)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.age }]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
    assert_eq!(interp.len(), 1);
    // Warm the code cache, so `Adaptive` starts no compiler thread.
    assert_eq!(jit_rows(&engine, &plan, &mut tx, &[]), interp);
    let compiles = engine.stats().compiles.load(std::sync::atomic::Ordering::Relaxed);

    let chunks = fx.db.nodes().chunk_count() as u64;
    for (mode, compiled) in [(Mode::Adaptive(&engine, 2), 1), (Mode::Parallel(2), 0)] {
        let mut ctx = ExecCtx::new(&[]);
        let rows = run_plan_ctx(&plan, &mut tx, &mut ctx, &mode).unwrap();
        assert_eq!(rows, interp);
        let p = ctx.profile;
        assert_eq!((p.morsels, p.chunks_pruned), (1, chunks - 1), "{:?}", p.mode);
        assert_eq!(p.compiled_morsels, compiled, "{:?}", p.mode);
    }
    assert_eq!(
        engine.stats().compiles.load(std::sync::atomic::Ordering::Relaxed),
        compiles
    );
}
