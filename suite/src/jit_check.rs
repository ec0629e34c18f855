//! Differential tests of the code-generator stand-in: everything `gjit`
//! compiles through it must answer like the interpreter. The suite's
//! numbers rest on the stand-ins under `standins/`; these tests are what
//! says the machine code they emit is right.

use std::sync::Arc;

use gjit::{CompiledExpr, ExprSource, JitEngine};
use gquery::{CmpOp, PPar, Pred, Slot};
use graphcore::DbOptions;
use gstore::PVal;
use ldbc::{IuQuery, Mode, SnbDb, SrQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small() -> SnbDb {
    ldbc::generate(&ldbc::SnbParams::small(7), DbOptions::dram(256 << 20)).unwrap()
}

#[test]
fn compiled_pipelines_answer_like_the_interpreter() {
    let snb = small();
    let engine = Arc::new(JitEngine::new());
    let mut rng = StdRng::seed_from_u64(1);
    let mut compared = 0;
    for q in SrQuery::ALL {
        for spec in [q.spec(&snb.codes), q.spec(&snb.codes).scan_variant()] {
            for _ in 0..10 {
                let params = q.params(&snb, &mut rng);
                let interp = ldbc::run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap();
                let jit = ldbc::run_spec(&snb.db, &spec, &params, &Mode::Jit(&engine)).unwrap();
                let adaptive =
                    ldbc::run_spec(&snb.db, &spec, &params, &Mode::Adaptive(&engine, 2)).unwrap();
                assert_eq!(interp, jit, "is{} jit", q.name());
                assert_eq!(interp, adaptive, "is{} adaptive", q.name());
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 240);
    let compiles = engine
        .stats()
        .compiles
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        compiles >= 24,
        "every shape went through the emitter, saw {compiles} compiles"
    );
}

#[test]
fn compiled_updates_insert_what_the_interpreter_would() {
    // Two identical databases, one updated through compiled pipelines and
    // one through the interpreter: same counts afterwards.
    let (a, b) = (small(), small());
    let engine = Arc::new(JitEngine::new());
    for (snb, mode) in [(&a, Mode::Jit(&engine)), (&b, Mode::Interp)] {
        let mut rng = StdRng::seed_from_u64(2);
        for q in IuQuery::ALL {
            for _ in 0..10 {
                let params = q.params(snb, &mut rng);
                let rows = ldbc::run_spec(&snb.db, &q.spec(&snb.codes), &params, &mode).unwrap();
                assert_eq!(rows.len(), 1, "iu{} inserts one row", q.name());
            }
        }
    }
    assert_eq!(a.db.node_count(), b.db.node_count());
    assert_eq!(a.db.rel_count(), b.db.rel_count());
    assert!(a.db.node_count() > small().db.node_count());
}

#[test]
fn compiled_expressions_evaluate_like_eval_pred() {
    let snb = small();
    let c = &snb.codes;
    let prop = |key, op, value| Pred::Prop {
        col: 0,
        key,
        op,
        value,
    };
    let int = |v| PPar::Const(PVal::Int(v));
    let female = PVal::Str(snb.db.intern("female").unwrap());
    let preds = [
        prop(c.id, CmpOp::Lt, PPar::Param(0)),
        prop(c.id, CmpOp::Ge, int(250)),
        prop(c.gender, CmpOp::Eq, PPar::Const(female)),
        prop(c.gender, CmpOp::Ne, PPar::Const(female)),
        // Two mentions of one key: the fetch is hoisted to the entry.
        Pred::And(
            Box::new(prop(c.id, CmpOp::Ge, PPar::Param(0))),
            Box::new(prop(c.id, CmpOp::Le, int(400))),
        ),
        Pred::Or(
            Box::new(prop(c.id, CmpOp::Lt, int(10))),
            Box::new(Pred::Not(Box::new(prop(c.id, CmpOp::Lt, PPar::Param(0))))),
        ),
        // A key persons do not have: never true, never an error.
        prop(c.length, CmpOp::Gt, int(0)),
        Pred::LabelIs {
            col: 0,
            label: c.person,
        },
    ];
    let params = [PVal::Int(123)];
    let mut txn = snb.db.begin();
    let mut persons = Vec::new();
    snb.db.nodes().for_each_live(|id, rec| {
        if rec.label == c.person || persons.len() % 7 == 0 {
            persons.push(id);
        }
    });
    assert!(persons.len() >= 500);
    for pred in &preds {
        for inline in [None, Some(&params[..])] {
            let compiled = CompiledExpr::compile(ExprSource::Node, pred, inline).unwrap();
            // The code is position-independent: a copy of its bytes works.
            let reloaded = CompiledExpr::from_bytes(compiled.code_bytes()).unwrap();
            let mut passed = 0;
            for id in &persons {
                let row = [Slot::node(*id)];
                let expect = gquery::eval_pred(pred, &row, &txn, &params).unwrap();
                assert_eq!(
                    compiled.eval(&mut txn, &params, &row).unwrap(),
                    expect,
                    "{pred:?}"
                );
                assert_eq!(
                    reloaded.eval(&mut txn, &params, &row).unwrap(),
                    expect,
                    "{pred:?}"
                );
                passed += usize::from(expect);
            }
            // Each predicate splits the sample; none is constant by accident.
            let constant = matches!(pred, Pred::Prop { key, .. } if *key == c.length);
            assert!(
                constant || (passed > 0 && passed < persons.len()),
                "{pred:?}: {passed}"
            );
        }
    }
}
