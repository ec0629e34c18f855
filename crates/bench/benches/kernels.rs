//! Criterion micro-benchmarks of the core kernels: chunked-table access,
//! dictionary, the three B+-tree flavours (the Fig. 8 kernel), MVTO
//! operations, and JIT compilation itself.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use gquery::{CmpOp, Op, PPar, Plan, Pred};
use gstore::{BPlusTree, ChunkedTable, Dictionary, IndexKind, NodeRecord};
use gtxn::{TableTag, TxnManager};
use pmem::{Pool, TxBatch};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(300));
    g
}

fn bench_chunked_table(c: &mut Criterion) {
    let mut g = quick(c);
    let pool = Arc::new(Pool::volatile(256 << 20).unwrap());
    let table: ChunkedTable<NodeRecord> = ChunkedTable::create(pool).unwrap();
    for i in 0..100_000u32 {
        table.insert(&NodeRecord::new(i)).unwrap();
    }
    let mut i = 0u64;
    g.bench_function("chunked_get", |b| {
        b.iter(|| {
            i = (i * 2862933555777941757 + 3037000493) % 100_000;
            std::hint::black_box(table.get(i));
        })
    });
    // Insert+delete pair: criterion runs millions of iterations, so the
    // steady-state (slot-recycling, DG5) cost is what's measurable without
    // exhausting the pool.
    g.bench_function("chunked_insert_delete", |b| {
        b.iter(|| {
            let id = table.insert(&NodeRecord::new(1)).unwrap();
            table.delete(id);
        })
    });
    g.finish();
}

fn bench_dictionary(c: &mut Criterion) {
    let mut g = quick(c);
    let pool = Arc::new(Pool::volatile(256 << 20).unwrap());
    let dict = Dictionary::create(pool).unwrap();
    for i in 0..10_000 {
        dict.get_or_insert(&format!("key-{i}")).unwrap();
    }
    let mut i = 0usize;
    g.bench_function("dict_lookup_hit", |b| {
        b.iter(|| {
            i = (i + 7919) % 10_000;
            std::hint::black_box(dict.code_of(&format!("key-{i}")));
        })
    });
    g.bench_function("dict_resolve_code", |b| {
        b.iter(|| {
            i = (i + 7919) % 10_000;
            std::hint::black_box(dict.string_of((i + 1) as u32));
        })
    });
    g.finish();
}

fn bench_btree_kinds(c: &mut Criterion) {
    // The Fig. 8 lookup kernel under criterion statistics.
    let mut g = quick(c);
    let pool = Arc::new(Pool::volatile(512 << 20).unwrap());
    for (name, kind) in [
        ("btree_lookup_volatile", IndexKind::Volatile),
        ("btree_lookup_persistent", IndexKind::Persistent),
        ("btree_lookup_hybrid", IndexKind::Hybrid),
    ] {
        let tree = match kind {
            IndexKind::Volatile => BPlusTree::create(kind, None).unwrap(),
            _ => BPlusTree::create(kind, Some(pool.clone())).unwrap(),
        };
        for k in 0..50_000u64 {
            tree.insert(k, k).unwrap();
        }
        let mut k = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                k = (k + 12289) % 50_000;
                std::hint::black_box(tree.lookup_one(k));
            })
        });
    }
    g.finish();
}

fn bench_mvto(c: &mut Criterion) {
    let mut g = quick(c);
    let pool = Arc::new(Pool::volatile(512 << 20).unwrap());
    let mgr = TxnManager::create(pool.clone()).unwrap();
    let nodes: ChunkedTable<NodeRecord> = ChunkedTable::create(pool.clone()).unwrap();
    let rels: ChunkedTable<gstore::RelRecord> = ChunkedTable::create(pool.clone()).unwrap();
    let props: ChunkedTable<gstore::PropRecord> = ChunkedTable::create(pool.clone()).unwrap();
    let mut t0 = mgr.begin();
    let ids: Vec<u64> = (0..1000)
        .map(|i| {
            mgr.insert(&mut t0, TableTag::Node, &nodes, NodeRecord::new(i))
                .unwrap()
        })
        .collect();
    mgr.commit(t0, &nodes, &rels, &props).unwrap();

    let mut i = 0usize;
    g.bench_function("mvto_read", |b| {
        let t = mgr.begin();
        b.iter(|| {
            i = (i + 31) % ids.len();
            std::hint::black_box(mgr.read(&t, TableTag::Node, &nodes, ids[i]).unwrap());
        });
        mgr.commit(t, &nodes, &rels, &props).unwrap();
    });
    g.bench_function("mvto_update_commit", |b| {
        b.iter(|| {
            i = (i + 31) % ids.len();
            let mut t = mgr.begin();
            mgr.update(&mut t, TableTag::Node, &nodes, ids[i], |n| n.label ^= 1)
                .unwrap();
            mgr.commit(t, &nodes, &rels, &props).unwrap();
        })
    });
    g.bench_function("mvto_readonly_txn", |b| {
        b.iter(|| {
            let t = mgr.begin();
            mgr.commit(t, &nodes, &rels, &props).unwrap();
        })
    });
    g.finish();
}

fn bench_jit_compile(c: &mut Criterion) {
    let mut g = quick(c);
    let engine = gjit::JitEngine::new();
    let simple = Plan::new(
        vec![
            Op::NodeScan { label: Some(1) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: 2,
                op: CmpOp::Eq,
                value: PPar::Param(0),
            }),
        ],
        1,
    );
    let complex = Plan::new(
        vec![
            Op::NodeScan { label: Some(1) },
            Op::Filter(Pred::Prop {
                col: 0,
                key: 2,
                op: CmpOp::Eq,
                value: PPar::Param(0),
            }),
            Op::ForeachRel {
                col: 0,
                dir: graphcore::Dir::Out,
                label: Some(3),
            },
            Op::GetNode {
                col: 1,
                end: gquery::plan::RelEnd::Dst,
            },
            Op::ForeachRel {
                col: 2,
                dir: graphcore::Dir::In,
                label: Some(4),
            },
            Op::GetNode {
                col: 3,
                end: gquery::plan::RelEnd::Src,
            },
            Op::Project(vec![
                gquery::Proj::Prop { col: 4, key: 5 },
                gquery::Proj::ConnectedFlag {
                    a: 4,
                    b: 0,
                    label: 3,
                },
            ]),
        ],
        1,
    );
    g.bench_function("jit_compile_simple", |b| {
        b.iter(|| std::hint::black_box(engine.compile_uncached(&simple).unwrap()))
    });
    g.bench_function("jit_compile_complex", |b| {
        b.iter(|| std::hint::black_box(engine.compile_uncached(&complex).unwrap()))
    });
    g.finish();
}

fn bench_pool_primitives(c: &mut Criterion) {
    let mut g = quick(c);
    let pool = Pool::volatile(64 << 20).unwrap();
    let off = pool.alloc(4096).unwrap();
    g.bench_function("pool_read_64B", |b| {
        b.iter(|| std::hint::black_box(pool.read::<[u8; 64]>(pmem::POff::new(off))))
    });
    g.bench_function("pool_persist_64B", |b| {
        b.iter(|| {
            pool.write_u64(off, 42);
            pool.persist(off, 64);
        })
    });
    g.bench_function("undo_tx_single_word", |b| {
        b.iter(|| {
            let mut tx = TxBatch::new();
            tx.write_u64(off, 7);
            pool.tx_apply_batches(&[&tx]).unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_chunked_table,
    bench_dictionary,
    bench_btree_kinds,
    bench_mvto,
    bench_jit_compile,
    bench_pool_primitives
);
criterion_main!(benches);
