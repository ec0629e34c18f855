//! Differential matrix over the one execution entry point
//! (`gjit::run_plan_ctx`): every morsel-splittable access path (node-chunk
//! scan, edge-chunk scan, index-range scan) with filter / expand /
//! aggregate tails, executed interpreted, parallel and adaptively — all
//! three must produce identical rows in identical (morsel-merge) order.
//!
//! The decision-table test pins which (plan shape, mode) cells run on the
//! morsel scheduler and which fall back, and why. The forced-slow-compile
//! test pins the adaptive switch mid-run: an injected compile delay plus
//! interpreted-morsel pacing guarantees both interpreted and compiled
//! morsels in one execution, with results still byte-identical to the
//! sequential interpreter.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmemgraph::gjit::{run_plan_ctx, JitEngine, Mode};
use pmemgraph::gquery::plan::{RelEnd, Row};
use pmemgraph::gquery::{
    execute_collect, execute_collect_ctx, execute_morsels, CmpOp, ExecCtx, ExecMode, ExecProfile,
    FallbackReason, Op, PPar, Plan, Pred, Proj, QueryError,
};
use pmemgraph::graphcore::{DbOptions, Dir, GraphDb, GraphTxn, PropOwner, Value};
use pmemgraph::gstore::{IndexKind, PVal};

struct Fx {
    db: GraphDb,
    item: u32,
    thing: u32,
    link: u32,
    v: u32,
    w: u32,
}

/// `n` Item nodes (`v` cycling over 0..1000), `n/2` Thing nodes (`w`
/// sequential, no index), and ~1.5n LINK rels with a `w` property.
/// `indexed` controls whether `(Item, v)` gets a B+-tree index, so range
/// scans exercise both the index path and the full-scan fallback.
fn fixture(n: usize, indexed: bool) -> Fx {
    let db = GraphDb::create(DbOptions::dram(256 << 20)).unwrap();
    if indexed {
        db.create_index("Item", "v", IndexKind::Volatile).unwrap();
    }
    let mut tx = db.begin();
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let id = tx
            .create_node("Item", &[("v", Value::Int((i as i64 * 7) % 1000))])
            .unwrap();
        items.push(id);
    }
    for i in 0..n / 2 {
        tx.create_node("Thing", &[("w", Value::Int(i as i64))])
            .unwrap();
    }
    for (i, &a) in items.iter().enumerate() {
        let b = items[(i * 13 + 1) % items.len()];
        tx.create_rel(a, "LINK", b, &[("w", Value::Int(i as i64 % 50))])
            .unwrap();
        if i % 2 == 0 {
            let c = items[(i * 31 + 7) % items.len()];
            tx.create_rel(a, "LINK", c, &[("w", Value::Int(99))]).unwrap();
        }
    }
    tx.commit().unwrap();
    let item = db.intern("Item").unwrap();
    let thing = db.intern("Thing").unwrap();
    let link = db.intern("LINK").unwrap();
    let v = db.intern("v").unwrap();
    let w = db.intern("w").unwrap();
    Fx {
        db,
        item,
        thing,
        link,
        v,
        w,
    }
}

/// Run `plan` in `mode` through the one entry point: the rows, and the
/// profile of what actually ran.
fn run(
    plan: &Plan,
    tx: &mut GraphTxn<'_>,
    params: &[PVal],
    mode: Mode<'_>,
) -> (Vec<Row>, ExecProfile) {
    let mut ctx = ExecCtx::new(params);
    let rows = run_plan_ctx(plan, tx, &mut ctx, &mode).unwrap();
    (rows, ctx.profile)
}

/// Run `plan` through all three read modes and assert identical results.
/// Returns the adaptive run's (interpreted, compiled) morsel counts.
fn assert_modes_agree(fx: &Fx, plan: &Plan, params: &[PVal]) -> (u64, u64) {
    let engine = Arc::new(JitEngine::new());
    let mut tx = fx.db.begin();
    let interp = execute_collect(plan, &mut tx, params).unwrap();
    for threads in [1, 2, 4] {
        let (par, _) = run(plan, &mut tx, params, Mode::Parallel(threads));
        assert_eq!(par, interp, "parallel({threads}) differs from interpreter");
    }
    let (rows, profile) = run(plan, &mut tx, params, Mode::Adaptive(&engine, 4));
    assert_eq!(rows, interp, "adaptive differs from interpreter");
    assert_eq!(
        profile.interpreted_morsels + profile.compiled_morsels,
        profile.morsels,
        "every morsel must be counted exactly once"
    );
    (profile.interpreted_morsels, profile.compiled_morsels)
}

#[test]
fn node_scan_matrix() {
    let fx = fixture(640, false);
    let scan = Op::NodeScan {
        label: Some(fx.item),
    };
    let filter = Op::Filter(Pred::Prop {
        col: 0,
        key: fx.v,
        op: CmpOp::Ge,
        value: PPar::Const(PVal::Int(300)),
    });
    let plans = [
        Plan::new(vec![scan.clone()], 0),
        Plan::new(vec![scan.clone(), filter.clone()], 0),
        Plan::new(
            vec![
                scan.clone(),
                filter.clone(),
                Op::Project(vec![Proj::Prop { col: 0, key: fx.v }]),
            ],
            0,
        ),
        // Expand tail: every LINK out of every Item, plus its target.
        Plan::new(
            vec![
                scan.clone(),
                Op::ForeachRel {
                    col: 0,
                    dir: Dir::Out,
                    label: Some(fx.link),
                },
                Op::GetNode {
                    col: 1,
                    end: RelEnd::Dst,
                },
            ],
            0,
        ),
        // Aggregate + breaker tails.
        Plan::new(vec![scan.clone(), filter.clone(), Op::Count], 0),
        Plan::new(
            vec![
                scan.clone(),
                Op::OrderBy {
                    key: Proj::Prop { col: 0, key: fx.v },
                    desc: true,
                },
                Op::Limit(17),
                Op::Project(vec![Proj::Prop { col: 0, key: fx.v }]),
            ],
            0,
        ),
    ];
    for plan in &plans {
        assert_modes_agree(&fx, plan, &[]);
    }
}

#[test]
fn edge_scan_matrix() {
    let fx = fixture(640, false);
    let scan = Op::RelScan {
        label: Some(fx.link),
    };
    let filter = Op::Filter(Pred::Prop {
        col: 0,
        key: fx.w,
        op: CmpOp::Ge,
        value: PPar::Param(0),
    });
    let plans = [
        Plan::new(vec![scan.clone()], 0),
        Plan::new(vec![Op::RelScan { label: None }, Op::Count], 0),
        Plan::new(vec![scan.clone(), filter.clone()], 1),
        // Expand from the edge to its endpoints, then aggregate.
        Plan::new(
            vec![
                scan.clone(),
                filter.clone(),
                Op::GetNode {
                    col: 0,
                    end: RelEnd::Src,
                },
                Op::Project(vec![Proj::Prop { col: 1, key: fx.v }]),
            ],
            1,
        ),
        Plan::new(vec![scan.clone(), filter.clone(), Op::Count], 1),
    ];
    for plan in &plans {
        let (interp, compiled) = assert_modes_agree(&fx, plan, &[PVal::Int(25)]);
        // Edge chunks are a first-class morsel source: the adaptive run
        // must have scheduled real morsels, not one sequential task.
        assert!(
            interp + compiled > 1,
            "rel scan should split into multiple morsels"
        );
    }
}

#[test]
fn index_range_matrix() {
    for indexed in [true, false] {
        let fx = fixture(640, indexed);
        let range = |lo: i64, hi: i64| Op::IndexRangeScan {
            label: fx.item,
            key: fx.v,
            lo: PPar::Const(PVal::Int(lo)),
            hi: PPar::Const(PVal::Int(hi)),
        };
        let plans = [
            Plan::new(vec![range(100, 400)], 0),
            Plan::new(
                vec![
                    range(100, 400),
                    Op::Filter(Pred::Prop {
                        col: 0,
                        key: fx.v,
                        op: CmpOp::Ne,
                        value: PPar::Const(PVal::Int(105)),
                    }),
                    Op::Project(vec![Proj::Prop { col: 0, key: fx.v }]),
                ],
                0,
            ),
            Plan::new(vec![range(0, 999), Op::Count], 0),
            Plan::new(
                vec![
                    range(200, 800),
                    Op::OrderBy {
                        key: Proj::Prop { col: 0, key: fx.v },
                        desc: false,
                    },
                    Op::Limit(11),
                ],
                0,
            ),
            // Parameterised bounds; lo > hi must yield exactly nothing.
            Plan::new(
                vec![Op::IndexRangeScan {
                    label: fx.item,
                    key: fx.v,
                    lo: PPar::Param(0),
                    hi: PPar::Param(1),
                }],
                2,
            ),
        ];
        for plan in &plans[..4] {
            assert_modes_agree(&fx, plan, &[]);
        }
        assert_modes_agree(&fx, &plans[4], &[PVal::Int(50), PVal::Int(60)]);
        let mut tx = fx.db.begin();
        let empty =
            execute_collect(&plans[4], &mut tx, &[PVal::Int(60), PVal::Int(50)]).unwrap();
        assert!(empty.is_empty(), "inverted range must be empty");
        drop(tx);

        // The unindexed Thing label exercises the full-scan fallback of
        // the same access path.
        let plan = Plan::new(
            vec![
                Op::IndexRangeScan {
                    label: fx.thing,
                    key: fx.w,
                    lo: PPar::Const(PVal::Int(10)),
                    hi: PPar::Const(PVal::Int(200)),
                },
                Op::Project(vec![Proj::Prop { col: 0, key: fx.w }]),
            ],
            0,
        );
        assert_modes_agree(&fx, &plan, &[]);
    }
}

#[test]
fn index_range_adaptive_reports_jit_fallback() {
    let fx = fixture(640, true);
    let engine = Arc::new(JitEngine::new());
    let plan = Plan::new(
        vec![Op::IndexRangeScan {
            label: fx.item,
            key: fx.v,
            lo: PPar::Const(PVal::Int(0)),
            hi: PPar::Const(PVal::Int(999)),
        }],
        0,
    );
    let mut tx = fx.db.begin();
    let (_, profile) = run(&plan, &mut tx, &[], Mode::Adaptive(&engine, 4));
    // The code generator cannot address candidate batches, so compilation
    // is reported as a fallback and every morsel interprets — but the
    // morsel scheduler still ran the access path in parallel.
    assert_eq!(profile.compiled_morsels, 0);
    assert!(profile.interpreted_morsels > 1);
    assert_eq!(profile.fallback, Some(FallbackReason::JitUnsupported));
}

#[test]
fn forced_slow_compile_switches_mid_run() {
    // A non-NodeScan access path (edge chunks) through the adaptive
    // scheduler: compilation is delayed and interpreted morsels are paced,
    // so the task swap happens mid-run — some morsels interpret, the rest
    // run machine code, and the merged result is still exactly the
    // sequential interpreter's.
    let fx = fixture(1024, false);
    let engine = Arc::new(JitEngine::new());
    engine.set_compile_delay(Duration::from_millis(120));
    let plan = Plan::new(
        vec![
            Op::RelScan {
                label: Some(fx.link),
            },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.w,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(10)),
            }),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
    let morsels = fx.db.rels().chunk_count() as u64;
    assert!(morsels >= 8, "fixture must span many rel chunks");

    let mode = Mode::Adaptive(&engine, 2);
    let mut ctx = ExecCtx::new(&[]).with_morsel_pace(Duration::from_millis(15));
    let rows = run_plan_ctx(&plan, &mut tx, &mut ctx, &mode).unwrap();
    assert_eq!(rows, interp, "mid-run switch must not change results");
    assert!(
        ctx.profile.interpreted_morsels > 0,
        "the compile delay must leave interpreted morsels"
    );
    assert!(
        ctx.profile.compiled_morsels > 0,
        "compilation must have finished, and the pacing must leave morsels for compiled code"
    );
    assert_eq!(ctx.profile.interpreted_morsels + ctx.profile.compiled_morsels, morsels);

    // A second run finds the code cached: it is published before the
    // first morsel is pulled, so every morsel runs machine code.
    let (rows, profile) = run(&plan, &mut tx, &[], mode);
    assert_eq!(rows, interp);
    assert_eq!(profile.compiled_morsels, morsels, "{profile:?}");
    assert_eq!(profile.morsels, morsels);
}

#[test]
fn deadline_and_cancellation_surface_typed_errors() {
    let fx = fixture(320, false);
    let plan = Plan::new(
        vec![Op::NodeScan {
            label: Some(fx.item),
        }],
        0,
    );
    let mut tx = fx.db.begin();

    // Already-expired deadline: rejected before any morsel runs.
    let mut ctx = ExecCtx::new(&[]).with_deadline(Instant::now());
    let err = run_plan_ctx(&plan, &mut tx, &mut ctx, &Mode::Parallel(4)).unwrap_err();
    assert!(matches!(err, QueryError::DeadlineExceeded), "{err:?}");

    // Deadline expiring mid-run (paced morsels, single worker).
    let mut ctx = ExecCtx::new(&[])
        .with_deadline(Instant::now() + Duration::from_millis(40))
        .with_morsel_pace(Duration::from_millis(10));
    let err = run_plan_ctx(&plan, &mut tx, &mut ctx, &Mode::Parallel(1)).unwrap_err();
    assert!(matches!(err, QueryError::DeadlineExceeded), "{err:?}");

    // Pre-raised cancellation flag.
    let cancel = AtomicBool::new(true);
    let mut ctx = ExecCtx::new(&[]).with_cancel(&cancel);
    let err = run_plan_ctx(&plan, &mut tx, &mut ctx, &Mode::Parallel(4)).unwrap_err();
    assert!(matches!(err, QueryError::Cancelled), "{err:?}");

    // The sequential path honours the same controls.
    let mut reader = fx.db.begin();
    let mut ctx = ExecCtx::new(&[]).with_cancel(&cancel);
    let err = execute_collect_ctx(&plan, &mut reader, &mut ctx).unwrap_err();
    assert!(matches!(err, QueryError::Cancelled), "{err:?}");
}

#[test]
fn matrix_agrees_under_grouped_commits() {
    // Every row so far builds its fixture in one fat transaction, which the
    // commit pipeline never groups. This row builds and then mutates the
    // graph through many small concurrent transactions with group commit
    // enabled (DESIGN.md §10), so reads in all four execution modes run
    // against data whose commit records were batched by the leader —
    // grouping must be invisible to MVTO visibility in every mode.
    let db = GraphDb::create(DbOptions::dram(256 << 20)).unwrap();
    db.set_group_commit(true);
    assert!(db.group_commit());

    let per = 160usize;
    let ids: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t: usize| {
                let db = &db;
                s.spawn(move || {
                    (0..per)
                        .map(|i| {
                            let mut tx = db.begin();
                            let id = tx
                                .create_node(
                                    "Item",
                                    &[("v", Value::Int(((t * per + i) * 7 % 1000) as i64))],
                                )
                                .unwrap();
                            tx.commit().unwrap();
                            id
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let item = db.intern("Item").unwrap();
    let v = db.intern("v").unwrap();
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(item) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: v,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(300)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: v }, Proj::Id { col: 0 }]),
        ],
        0,
    );

    // Reader snapshot taken before a wave of grouped updates rewrites every
    // `v` to 0: all four modes must keep serving the old snapshot.
    let mut reader = db.begin();
    let before = execute_collect(&plan, &mut reader, &[]).unwrap();
    assert!(!before.is_empty(), "fixture must have rows with v >= 300");
    std::thread::scope(|s| {
        for mine in &ids {
            let db = &db;
            s.spawn(move || {
                for &id in mine {
                    let mut tx = db.begin();
                    tx.set_prop(PropOwner::Node(id), "v", Value::Int(0)).unwrap();
                    tx.commit().unwrap();
                }
            });
        }
    });
    let engine = Arc::new(JitEngine::new());
    for threads in [1, 2, 4] {
        let (par, _) = run(&plan, &mut reader, &[], Mode::Parallel(threads));
        assert_eq!(par, before, "parallel({threads}) diverged under grouped commits");
    }
    let (adaptive, _) = run(&plan, &mut reader, &[], Mode::Adaptive(&engine, 4));
    assert_eq!(adaptive, before, "adaptive diverged under grouped commits");
    let (jit, _) = run(&plan, &mut reader, &[], Mode::Jit(&engine));
    assert_eq!(jit, before, "jit one-shot diverged under grouped commits");
    drop(reader);

    // A fresh snapshot sees every grouped update, in every mode.
    let mut fresh = db.begin();
    let after = execute_collect(&plan, &mut fresh, &[]).unwrap();
    assert!(after.is_empty(), "every v was rewritten to 0");
    let count_plan = Plan::new(vec![Op::NodeScan { label: Some(item) }, Op::Count], 0);
    let total = execute_collect(&count_plan, &mut fresh, &[]).unwrap();
    for threads in [2, 4] {
        let (par, _) = run(&count_plan, &mut fresh, &[], Mode::Parallel(threads));
        assert_eq!(par, total, "parallel({threads}) count diverged");
    }
    let (adaptive_total, _) = run(&count_plan, &mut fresh, &[], Mode::Adaptive(&engine, 4));
    assert_eq!(adaptive_total, total, "adaptive count diverged");
    let (jit_total, _) = run(&count_plan, &mut fresh, &[], Mode::Jit(&engine));
    assert_eq!(jit_total, total, "jit count diverged");

    // The pipeline must actually have grouped something across the 1280
    // small commits, or this row degenerates to the ungrouped matrix.
    let snap = db.pool().stats().snapshot();
    assert!(
        snap.grouped_txns > 0,
        "no commit group formed ({} groups, {} grouped txns)",
        snap.commit_groups,
        snap.grouped_txns
    );
}

#[test]
fn pruning_matrix_with_dirtied_chunk() {
    // Clustered fixture (`v = i`) so zone maps genuinely prune, indexed so
    // (Item, v) is a registered zone-map key. (The shared `fixture()`
    // spreads `v` over the full range inside every chunk, which never
    // prunes — useless for this row.)
    let db = GraphDb::create(DbOptions::dram(256 << 20)).unwrap();
    db.create_index("Item", "v", IndexKind::Volatile).unwrap();
    let mut tx = db.begin();
    let items: Vec<u64> = (0..640)
        .map(|i| tx.create_node("Item", &[("v", Value::Int(i))]).unwrap())
        .collect();
    tx.commit().unwrap();
    let item = db.intern("Item").unwrap();
    let v = db.intern("v").unwrap();
    let plan = Plan::new(
        vec![
            Op::NodeScan { label: Some(item) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: v,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(600)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: v }, Proj::Id { col: 0 }]),
        ],
        0,
    );

    // Reader snapshot taken BEFORE the writer begins, then a newer txn
    // dirties chunks inside the scanned window with uncommitted inserts:
    // the clean-chunk fast path must stand down on those chunks, and the
    // MVTO read must treat the newer uncommitted inserts as invisible
    // (not as lock conflicts) in every execution mode.
    let mut reader = db.begin();
    let mut writer = db.begin();
    for _ in 0..130 {
        writer
            .create_node("Item", &[("v", Value::Int(700))])
            .unwrap();
    }

    db.set_read_accel(false);
    let unpruned = execute_collect(&plan, &mut reader, &[]).unwrap();
    db.set_read_accel(true);
    let pruned = execute_collect(&plan, &mut reader, &[]).unwrap();
    assert_eq!(pruned, unpruned, "sequential pruned scan differs");
    let engine = Arc::new(JitEngine::new());
    for threads in [1, 2, 4] {
        let (par, _) = run(&plan, &mut reader, &[], Mode::Parallel(threads));
        assert_eq!(par, unpruned, "parallel({threads}) differs on dirty chunks");
    }
    let (adaptive, _) = run(&plan, &mut reader, &[], Mode::Adaptive(&engine, 4));
    assert_eq!(adaptive, unpruned, "adaptive differs on dirty chunks");
    let (jit, _) = run(&plan, &mut reader, &[], Mode::Jit(&engine));
    assert_eq!(jit, unpruned, "jit one-shot differs on dirty chunks");

    // The accelerated run must actually have pruned something, or this
    // row exercises nothing.
    let (rows, profile) = run(&plan, &mut reader, &[], Mode::Parallel(4));
    assert_eq!(rows, unpruned);
    assert!(
        profile.chunks_pruned > 0,
        "fixture must exercise zone-map pruning: {profile:?}"
    );
    writer.abort();

    // Committed-update variant: a writer that commits AFTER the reader's
    // snapshot dirties chunks, commits (re-cleaning them), and forces the
    // older reader onto the version-chain history fallback.
    let mut reader2 = db.begin();
    let mut w2 = db.begin();
    for &id in &items[600..640] {
        w2.set_prop(PropOwner::Node(id), "v", Value::Int(0)).unwrap();
    }
    w2.commit().unwrap();
    db.set_read_accel(false);
    let unpruned2 = execute_collect(&plan, &mut reader2, &[]).unwrap();
    db.set_read_accel(true);
    let pruned2 = execute_collect(&plan, &mut reader2, &[]).unwrap();
    assert_eq!(pruned2, unpruned2, "history fallback diverged under pruning");
    assert_eq!(
        pruned2, unpruned,
        "reader2 predates the update and must still see the old rows"
    );
    for threads in [2, 4] {
        let (par, _) = run(&plan, &mut reader2, &[], Mode::Parallel(threads));
        assert_eq!(par, unpruned2, "parallel({threads}) history fallback diverged");
    }
}

/// What one cell of the decision table must have done.
enum Ran {
    /// The single-threaded driver: one morsel, interpreted or compiled.
    Single { compiled: bool },
    /// The morsel scheduler: more than one morsel, each counted once;
    /// `all_interpreted` where no compiled task can ever be published.
    Scheduler { all_interpreted: bool },
    /// The mode cannot run the plan and says so.
    JitError,
}

#[test]
fn decision_table_pins_driver_code_and_fallback_per_cell() {
    let fx = fixture(640, true);
    let point = Op::IndexScan {
        label: fx.item,
        key: fx.v,
        value: PPar::Const(PVal::Int(7)),
    };
    let keep = Op::Filter(Pred::Prop {
        col: 0,
        key: fx.v,
        op: CmpOp::Ge,
        value: PPar::Const(PVal::Int(300)),
    });
    let update = Plan::new(
        vec![
            point.clone(),
            Op::SetProp {
                col: 0,
                key: fx.w,
                value: PPar::Const(PVal::Int(1)),
            },
        ],
        0,
    );
    let point_read = Plan::new(
        vec![point, Op::Project(vec![Proj::Prop { col: 0, key: fx.v }])],
        0,
    );
    let node_scan = Plan::new(
        vec![
            Op::NodeScan {
                label: Some(fx.item),
            },
            keep,
        ],
        0,
    );
    let rel_scan = Plan::new(
        vec![
            Op::RelScan {
                label: Some(fx.link),
            },
            Op::Count,
        ],
        0,
    );
    let range_scan = Plan::new(
        vec![Op::IndexRangeScan {
            label: fx.item,
            key: fx.v,
            lo: PPar::Const(PVal::Int(0)),
            hi: PPar::Const(PVal::Int(999)),
        }],
        0,
    );

    use FallbackReason::{AccessPath, JitUnsupported, UpdatePlan};
    let interp = Ran::Single { compiled: false };
    let compiled = Ran::Single { compiled: true };
    let switching = Ran::Scheduler {
        all_interpreted: false,
    };
    let interpreting = Ran::Scheduler {
        all_interpreted: true,
    };
    // Rows: plan shapes. Columns: Interp, Parallel(2), Jit, Adaptive(_, 2).
    #[rustfmt::skip]
    let table: [(&str, &Plan, [(Option<FallbackReason>, &Ran); 4]); 5] = [
        ("update", &update,
            [(None, &interp), (Some(UpdatePlan), &interp), (None, &compiled), (Some(UpdatePlan), &compiled)]),
        ("index point read", &point_read,
            [(None, &interp), (Some(AccessPath), &interp), (None, &compiled), (Some(AccessPath), &compiled)]),
        ("node scan", &node_scan,
            [(None, &interp), (None, &interpreting), (None, &compiled), (None, &switching)]),
        ("rel scan", &rel_scan,
            [(None, &interp), (None, &interpreting), (None, &compiled), (None, &switching)]),
        // The code generator cannot address index-range candidate batches.
        ("index range scan", &range_scan,
            [(None, &interp), (None, &interpreting), (None, &Ran::JitError), (Some(JitUnsupported), &interpreting)]),
    ];

    for (shape, plan, cells) in table {
        // Every cell runs in a transaction of its own that never commits,
        // so the update row sees the same graph each time.
        let expect = execute_collect(plan, &mut fx.db.begin(), &[]).unwrap();
        let engine = Arc::new(JitEngine::new());
        let modes = [
            (Mode::Interp, ExecMode::Interp),
            (Mode::Parallel(2), ExecMode::Parallel),
            (Mode::Jit(&engine), ExecMode::Jit),
            (Mode::Adaptive(&engine, 2), ExecMode::Adaptive),
        ];
        for ((mode, mark), (fallback, ran)) in modes.into_iter().zip(cells) {
            let cell = format!("{shape} × {}", mark.as_str());
            let mut tx = fx.db.begin();
            let mut ctx = ExecCtx::new(&[]);
            let result = run_plan_ctx(plan, &mut tx, &mut ctx, &mode);
            let p = &ctx.profile;
            assert_eq!(p.mode, Some(mark), "{cell}");
            if let Ran::JitError = ran {
                assert!(matches!(result, Err(QueryError::Jit(_))), "{cell}: {result:?}");
                continue;
            }
            assert_eq!(result.unwrap(), expect, "{cell}");
            assert_eq!(p.fallback, fallback, "{cell}");
            assert_eq!(p.interpreted_morsels + p.compiled_morsels, p.morsels, "{cell}");
            match *ran {
                Ran::Single { compiled } => {
                    assert_eq!(p.morsels, 1, "{cell}: {p:?}");
                    assert_eq!(p.compiled_morsels, compiled as u64, "{cell}: {p:?}");
                }
                Ran::Scheduler { all_interpreted } => {
                    assert!(p.morsels > 1, "{cell}: {p:?}");
                    if all_interpreted {
                        assert_eq!(p.compiled_morsels, 0, "{cell}: {p:?}");
                    }
                }
                Ran::JitError => unreachable!(),
            }
        }
    }
}

// The three parallel-vs-sequential cases that lived in
// `crates/gquery/tests/interpreter.rs` while gquery had a parallel driver
// of its own; gquery cannot depend on gjit, where the one dispatch lives.

#[test]
fn parallel_matches_sequential() {
    let fx = fixture(640, false);
    let plan = Plan::new(
        vec![
            Op::NodeScan {
                label: Some(fx.item),
            },
            Op::Filter(Pred::Prop {
                col: 0,
                key: fx.v,
                op: CmpOp::Ge,
                value: PPar::Const(PVal::Int(300)),
            }),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.v }]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let seq = execute_collect(&plan, &mut tx, &[]).unwrap();
    for threads in [1, 2, 4, 8] {
        let (par, _) = run(&plan, &mut tx, &[], Mode::Parallel(threads));
        assert_eq!(par, seq, "threads={threads}");
    }
}

#[test]
fn parallel_with_breaker_tail() {
    let fx = fixture(640, false);
    let plan = Plan::new(
        vec![
            Op::NodeScan {
                label: Some(fx.item),
            },
            Op::OrderBy {
                key: Proj::Prop { col: 0, key: fx.v },
                desc: true,
            },
            Op::Limit(5),
            Op::Project(vec![Proj::Prop { col: 0, key: fx.v }]),
        ],
        0,
    );
    let mut tx = fx.db.begin();
    let seq = execute_collect(&plan, &mut tx, &[]).unwrap();
    let (par, _) = run(&plan, &mut tx, &[], Mode::Parallel(4));
    assert_eq!(par, seq);
    assert_eq!(seq.len(), 5);
    let top = (0..640).map(|i| (i * 7) % 1000).max().unwrap();
    assert_eq!(seq[0][0].as_pval(), Some(PVal::Int(top)));
}

#[test]
fn parallel_rejects_updates() {
    let fx = fixture(64, false);
    let plan = Plan::new(
        vec![
            Op::Once,
            Op::CreateNode {
                label: fx.item,
                props: vec![],
            },
        ],
        0,
    );
    // The scheduler itself refuses: morsel workers share a read snapshot,
    // never a write transaction …
    let tx = fx.db.begin();
    assert!(execute_morsels(&plan, &fx.db, &tx, &mut ExecCtx::new(&[]), 2, None).is_err());
    drop(tx);
    // … so the dispatch never sends it one: the update runs single-threaded
    // in the caller's transaction and says why.
    let mut tx = fx.db.begin();
    let (rows, profile) = run(&plan, &mut tx, &[], Mode::Parallel(2));
    assert_eq!(rows.len(), 1);
    assert_eq!(profile.fallback, Some(FallbackReason::UpdatePlan));
    assert_eq!(profile.morsels, 1);
}
