//! The topology journal through the transaction manager: what reaches it,
//! in which order a reader gets it back, and when it admits it cannot
//! carry a copy of the graph forward.

use std::sync::Arc;

use gstore::{ChunkedTable, NodeRecord, PropRecord, RelRecord};
use gtxn::{JournalMiss, TableTag, TopoChange, Txn, TxnManager};
use pmem::Pool;

struct Fixture {
    mgr: TxnManager,
    nodes: ChunkedTable<NodeRecord>,
    rels: ChunkedTable<RelRecord>,
    props: ChunkedTable<PropRecord>,
}

impl Fixture {
    fn new() -> Fixture {
        let pool = Arc::new(Pool::volatile(64 << 20).unwrap());
        Fixture {
            mgr: TxnManager::create(pool.clone()).unwrap(),
            nodes: ChunkedTable::create(pool.clone()).unwrap(),
            rels: ChunkedTable::create(pool.clone()).unwrap(),
            props: ChunkedTable::create(pool).unwrap(),
        }
    }

    /// Insert one node in `txn` and note it, as `GraphTxn::create_node` does.
    fn add_node(&self, txn: &mut Txn) -> TopoChange {
        let rec = NodeRecord::new(1);
        let id = self.mgr.insert(txn, TableTag::Node, &self.nodes, rec).unwrap();
        let change = TopoChange::NodeAdded { id, label: 1 };
        self.mgr.note_topology(txn, change);
        change
    }

    fn commit(&self, txn: Txn) {
        self.mgr.commit(txn, &self.nodes, &self.rels, &self.props).unwrap();
    }

    /// One committed single-node transaction; returns its timestamp.
    fn commit_one(&self) -> (u64, TopoChange) {
        let mut t = self.mgr.begin();
        let change = self.add_node(&mut t);
        let ts = t.id;
        self.commit(t);
        (ts, change)
    }
}

#[test]
fn nothing_is_journaled_before_arming_or_for_an_abort() {
    let f = Fixture::new();
    let journal = f.mgr.topology_journal();
    let (before, _) = f.commit_one();
    assert!(!journal.armed() && journal.is_empty());
    assert_eq!(journal.delta(0, 0, u64::MAX), Err(JournalMiss::Overflow));

    let cut = f.mgr.arm_topology_journal();
    assert_eq!((cut, f.mgr.arm_topology_journal()), (0, 0), "arming is idempotent");
    let mut t = f.mgr.begin();
    f.add_node(&mut t);
    f.mgr.abort(t, &f.nodes, &f.rels, &f.props);
    assert!(journal.is_empty());

    // A copy older than the arming point is not covered; a newer one is.
    let (ts, change) = f.commit_one();
    assert_eq!(journal.delta(before, cut, u64::MAX), Err(JournalMiss::Overflow));
    assert_eq!(journal.delta(ts - 1, cut, u64::MAX), Ok((vec![change], 1)));
}

#[test]
fn delta_is_in_timestamp_order_and_bounded_by_both_ends() {
    let f = Fixture::new();
    let journal = f.mgr.topology_journal();
    let cut = f.mgr.arm_topology_journal();
    let base = f.mgr.begin(); // the copy's own read transaction
    let (mut t1, mut t2) = (f.mgr.begin(), f.mgr.begin());
    let (c1, c2) = (f.add_node(&mut t1), f.add_node(&mut t2));
    let (older, newer) = (t1.id, t2.id);
    // Arrival order newer, older: timestamp order must win.
    f.commit(t2);
    f.commit(t1);
    let (c3_ts, c3) = f.commit_one();
    assert_eq!(journal.delta(base.id, cut, c3_ts), Ok((vec![c1, c2], 3)));
    assert_eq!(journal.delta(base.id, cut, newer).unwrap().0, vec![c1]);
    // What a round left behind is the next round's, whatever its arrival.
    assert_eq!(journal.delta(older, 3, u64::MAX).unwrap().0, vec![c2, c3]);
    f.commit(base);
}

#[test]
fn an_older_commit_after_the_cut_is_a_late_writer() {
    let f = Fixture::new();
    let journal = f.mgr.topology_journal();
    let cut = f.mgr.arm_topology_journal();
    let mut late = f.mgr.begin();
    f.commit_one();
    // A copy refreshed here (at `reader`, cut taken now) ...
    let reader = f.mgr.begin();
    let cut = journal.delta(late.id, cut, reader.id).unwrap().1;
    // ... cannot know whether it saw a transaction that is older than it
    // but commits only now.
    f.add_node(&mut late);
    f.commit(late);
    assert_eq!(journal.delta(reader.id, cut, u64::MAX), Err(JournalMiss::LateWriter));
    // Had the cut come after that commit, it would be part of the base.
    assert_eq!(journal.delta(reader.id, cut + 1, u64::MAX), Ok((vec![], 2)));
    f.commit(reader);
}

#[test]
fn overflow_remembers_the_largest_dropped_timestamp() {
    let f = Fixture::new();
    let journal = f.mgr.topology_journal();
    f.mgr.arm_topology_journal();
    let (first, _) = f.commit_one();
    let stamps: Vec<u64> = (0..4200).map(|_| f.commit_one().0).collect();
    let held = journal.len();
    assert!(held < stamps.len(), "the ring is bounded");
    let dropped = stamps.len() + 1 - held;
    assert_eq!(journal.delta(first, 1, u64::MAX), Err(JournalMiss::Overflow));
    // From the last dropped entry on, everything is still there.
    let from = stamps[dropped - 2];
    assert_eq!(journal.delta(from, dropped as u64, u64::MAX).unwrap().0.len(), held);
    assert_eq!(journal.delta(from - 1, dropped as u64, u64::MAX), Err(JournalMiss::Overflow));

    // One transaction cannot pin unbounded memory: past the ring's change
    // budget its notes stop, and its entry counts as dropped on arrival.
    let mut bulk = f.mgr.begin();
    let change = f.add_node(&mut bulk);
    (0..70_000).for_each(|_| f.mgr.note_topology(&mut bulk, change));
    let ts = bulk.id;
    f.commit(bulk);
    assert!(journal.is_empty());
    assert_eq!(journal.delta(ts - 1, 0, u64::MAX), Err(JournalMiss::Overflow));
}
