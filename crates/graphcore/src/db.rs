//! [`GraphDb`]: the engine object owning pool, tables, dictionary,
//! transaction manager and index directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use pmem::{DeviceProfile, Pool};

use gstore::{
    BPlusTree, ChunkedTable, Dictionary, IndexKind, NodeRecord, PVal, PropRecord, RecId,
    RelRecord,
};
use gtxn::{RecoveryFix, TableTag, TxnManager};

use crate::accel::{label_bit, ReadAccel};
use crate::error::GraphError;
use crate::index::IndexDef;
use crate::txn::GraphTxn;
use crate::{NodeId, Result};

/// Persistent engine root, referenced by the pool root pointer.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct GraphRoot {
    pub node_root: u64,
    pub rel_root: u64,
    pub prop_root: u64,
    pub dict_root: u64,
    pub ts_slot: u64,
    pub index_dir: u64,
    pub index_cap: u64,
    pub index_count: u64,
}

pmem::impl_pod!(GraphRoot);

type RecoveryFixes = Vec<(RecId, RecoveryFix)>;

const INDEX_DIR_CAP: u64 = 64;
/// Index directory entry: `{label u32, key u32, kind u64, btree_root u64, _pad u64}`.
const INDEX_ENTRY: u64 = 32;
const R_INDEX_COUNT: u64 = std::mem::offset_of!(GraphRoot, index_count) as u64;

/// Configuration for creating a database.
pub struct DbOptions {
    path: Option<PathBuf>,
    size: usize,
    profile: DeviceProfile,
    log_cap: u64,
    crash_tracking: bool,
}

impl DbOptions {
    /// A volatile, DRAM-only database (the paper's DRAM baseline).
    pub fn dram(size: usize) -> DbOptions {
        DbOptions {
            path: None,
            size,
            profile: DeviceProfile::dram(),
            log_cap: 1 << 20,
            crash_tracking: false,
        }
    }

    /// A persistent database on an emulated PMem device.
    pub fn pmem(path: impl AsRef<Path>, size: usize) -> DbOptions {
        DbOptions {
            path: Some(path.as_ref().to_path_buf()),
            size,
            profile: DeviceProfile::pmem(),
            log_cap: 1 << 20,
            crash_tracking: false,
        }
    }

    /// Override the injected-latency profile (e.g. zero latencies to
    /// isolate algorithmic costs).
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Enable cache-line crash tracking (for crash-recovery tests).
    pub fn crash_tracking(mut self, on: bool) -> Self {
        self.crash_tracking = on;
        self
    }

    /// Undo-log capacity in bytes.
    pub fn log_cap(mut self, cap: u64) -> Self {
        self.log_cap = cap;
        self
    }
}

/// The transactional property-graph database.
///
/// ```
/// use graphcore::{DbOptions, GraphDb, Value, PropOwner, Dir};
///
/// let db = GraphDb::create(DbOptions::dram(64 << 20))?;
/// let mut tx = db.begin();
/// let ada = tx.create_node("Person", &[("name", Value::from("Ada"))])?;
/// let bob = tx.create_node("Person", &[("name", Value::from("Bob"))])?;
/// tx.create_rel(ada, "KNOWS", bob, &[("since", Value::Int(2021))])?;
/// tx.commit()?;
///
/// let tx = db.begin();
/// assert_eq!(tx.degree(ada, Dir::Out)?, 1);
/// assert_eq!(
///     tx.prop(PropOwner::Node(bob), "name")?,
///     Some(Value::Str("Bob".into()))
/// );
/// # Ok::<(), graphcore::GraphError>(())
/// ```
pub struct GraphDb {
    pool: Arc<Pool>,
    nodes: ChunkedTable<NodeRecord>,
    rels: ChunkedTable<RelRecord>,
    props: ChunkedTable<PropRecord>,
    dict: Dictionary,
    mgr: TxnManager,
    indexes: RwLock<Vec<IndexDef>>,
    accel: ReadAccel,
    root_off: u64,
    recovery: RecoveryReport,
    /// Slots of deleted records awaiting reclamation once no snapshot can
    /// reach them (§5.3: bitmap-free, never deallocate).
    deferred_slots: Mutex<Vec<(u64, TableTag, RecId)>>,
}

/// What [`GraphDb::open`] found and where its time went (all zero for a
/// database that was created, not opened).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Threads that shared the table scan.
    pub workers: usize,
    /// Uncommitted (node, relationship) inserts whose slots were freed.
    pub reclaimed: (usize, usize),
    /// Stale write locks cleared, both tables.
    pub cleared_locks: usize,
    /// Milliseconds in pool open (undo log, table directories, dictionary),
    /// in index reopen, and in the table scan with its fixes.
    pub pool_ms: f64,
    pub index_ms: f64,
    pub scan_ms: f64,
}

/// Scan threads for one of `shards` databases recovering side by side.
pub(crate) fn recovery_workers(shards: usize) -> usize {
    (std::thread::available_parallelism().map_or(1, |n| n.get()) / shards).max(1)
}

impl GraphDb {
    /// Create a fresh database.
    pub fn create(opts: DbOptions) -> Result<GraphDb> {
        let pool = match &opts.path {
            Some(p) => {
                let pool = Pool::create_with_log(p, opts.size, opts.profile, opts.log_cap)?;
                if opts.crash_tracking {
                    pool.with_crash_tracking()
                } else {
                    pool
                }
            }
            None => {
                let pool = Pool::volatile(opts.size)?;
                if opts.crash_tracking {
                    pool.with_crash_tracking()
                } else {
                    pool
                }
            }
        };
        let pool = Arc::new(pool);
        let nodes = ChunkedTable::create(pool.clone())?;
        let rels = ChunkedTable::create(pool.clone())?;
        let props = ChunkedTable::create(pool.clone())?;
        let dict = Dictionary::create(pool.clone())?;
        let mgr = TxnManager::create(pool.clone())?;
        let index_dir = pool.alloc_zeroed((INDEX_DIR_CAP * INDEX_ENTRY) as usize)?;
        let root = GraphRoot {
            node_root: nodes.root_off(),
            rel_root: rels.root_off(),
            prop_root: props.root_off(),
            dict_root: dict.root_off(),
            ts_slot: mgr.ts_slot(),
            index_dir,
            index_cap: INDEX_DIR_CAP,
            index_count: 0,
        };
        let root_off = pool.alloc_zeroed(std::mem::size_of::<GraphRoot>())?;
        pool.write(pmem::POff::new(root_off), &root);
        pool.persist(root_off, std::mem::size_of::<GraphRoot>());
        pool.set_root::<GraphRoot>(pmem::POff::new(root_off));
        let db = GraphDb {
            pool,
            nodes,
            rels,
            props,
            dict,
            mgr,
            indexes: RwLock::new(Vec::new()),
            accel: ReadAccel::default(),
            root_off,
            recovery: RecoveryReport::default(),
            deferred_slots: Mutex::new(Vec::new()),
        };
        db.set_read_accel(true);
        Ok(db)
    }

    /// Open an existing persistent database, running full recovery:
    /// undo-log rollback, index reopening (hybrid indexes rebuild their DRAM
    /// inner levels from the persistent leaf chain), and one table scan that
    /// clears stale locks, reclaims uncommitted inserts and rebuilds the
    /// zone maps. [`recovery_report`](Self::recovery_report) has the account.
    pub fn open(path: impl AsRef<Path>, profile: DeviceProfile) -> Result<GraphDb> {
        Self::open_with_decider(path, profile, &|_| false)
    }

    /// [`open`](Self::open) with a cross-shard epoch decider: a trailing
    /// epoch marker in the undo log is settled forward when `decider`
    /// accepts its epoch, rolled back otherwise (see `pmem::commit_epoch`).
    /// Standalone databases never see markers; [`crate::shard::ShardedDb`]
    /// passes the decider derived from the epoch-decider shard.
    pub fn open_with_decider(
        path: impl AsRef<Path>,
        profile: DeviceProfile,
        decider: &dyn Fn(u64) -> bool,
    ) -> Result<GraphDb> {
        Self::open_with_workers(path, profile, decider, recovery_workers(1))
    }

    /// [`open_with_decider`](Self::open_with_decider), `workers` scan threads.
    pub(crate) fn open_with_workers(
        path: impl AsRef<Path>,
        profile: DeviceProfile,
        decider: &dyn Fn(u64) -> bool,
        workers: usize,
    ) -> Result<GraphDb> {
        let start = Instant::now();
        let pool = Arc::new(Pool::open_with_decider(path, profile, decider)?);
        let root_off = pool.root::<GraphRoot>().raw();
        if root_off == 0 {
            return Err(GraphError::Pmem(pmem::PmemError::BadPool(
                "pool has no graph root".into(),
            )));
        }
        let root: GraphRoot = pool.read(pmem::POff::new(root_off));
        let mut db = GraphDb {
            nodes: ChunkedTable::open(pool.clone(), root.node_root)?,
            rels: ChunkedTable::open(pool.clone(), root.rel_root)?,
            props: ChunkedTable::open(pool.clone(), root.prop_root)?,
            dict: Dictionary::open(pool.clone(), root.dict_root)?,
            mgr: TxnManager::open(pool.clone(), root.ts_slot),
            pool: pool.clone(),
            indexes: RwLock::new(Vec::new()),
            accel: ReadAccel::default(),
            root_off,
            recovery: RecoveryReport::default(),
            deferred_slots: Mutex::new(Vec::new()),
        };
        let pool_done = Instant::now();
        // Reopen persisted index definitions. Every indexed key gets empty
        // zone maps (one set per key) for the scan below to fill; `fill_index`
        // skips uncommitted inserts itself and need not wait for that scan.
        let mut defs = Vec::new();
        for i in 0..root.index_count {
            let e = root.index_dir + i * INDEX_ENTRY;
            let lk = pool.read_u64(e);
            let kind_raw = pool.read_u64(e + 8);
            let btree_root = pool.read_u64(e + 16);
            let (label, key) = ((lk & 0xFFFF_FFFF) as u32, (lk >> 32) as u32);
            let kind = match kind_raw {
                1 => IndexKind::Persistent,
                2 => IndexKind::Hybrid,
                _ => IndexKind::Volatile,
            };
            let tree = match kind {
                IndexKind::Volatile => {
                    // Full rebuild from the primary data: the slow recovery
                    // path quantified in Fig. 8.
                    let tree = BPlusTree::create(IndexKind::Volatile, None)?;
                    db.fill_index(&tree, label, key)?;
                    tree
                }
                _ => BPlusTree::open(pool.clone(), btree_root)?,
            };
            db.accel.register_key(key, &[]);
            defs.push(IndexDef {
                label,
                key,
                tree: Arc::new(tree),
            });
        }
        *db.indexes.write() = defs;
        let index_done = Instant::now();

        let (node_fixes, rel_fixes) = db.recovery_scan(workers);
        let locks = |f: &RecoveryFixes| f.iter().filter(|f| f.1 == RecoveryFix::ClearLock).count();
        let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
        db.recovery = RecoveryReport {
            workers,
            cleared_locks: locks(&node_fixes) + locks(&rel_fixes),
            reclaimed: (
                db.mgr.apply_recovery(&db.nodes, &node_fixes),
                db.mgr.apply_recovery(&db.rels, &rel_fixes),
            ),
            pool_ms: ms(start, pool_done),
            index_ms: ms(pool_done, index_done),
            scan_ms: ms(index_done, Instant::now()),
        };
        db.set_read_accel(true);
        Ok(db)
    }

    /// The open-time scan (DESIGN.md §9): `workers` threads pull chunks off
    /// one counter and read each bitmap and each live record once. A record
    /// is classified first; an uncommitted insert is queued for reclamation
    /// and skipped *before* anything is noted, so the rebuilt metadata
    /// covers exactly the committed records. Then its label is noted and,
    /// for nodes, the property chain walked once for all registered keys.
    /// Returns the fixes per table in id order, to apply after the scan.
    fn recovery_scan(&self, workers: usize) -> (RecoveryFixes, RecoveryFixes) {
        let note_prop = self.accel.prop_noter();
        let node_chunks = self.nodes.chunk_count();
        let chunks = node_chunks + self.rels.chunk_count();
        let next = AtomicUsize::new(0);
        let (node_fixes, rel_fixes) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
        let work = || loop {
            // The counter hands out work and publishes nothing.
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunks {
                return;
            }
            // Label bits this chunk has noted already, each noted once.
            let mut labels = 0;
            if let Some(chunk) = chunk.checked_sub(node_chunks) {
                self.rels.for_each_in_chunk(chunk, &mut |id, rec| {
                    let fix = RecoveryFix::of(rec);
                    if let Some(fix) = fix {
                        rel_fixes.lock().push((id, fix));
                    }
                    let committed = fix != Some(RecoveryFix::ReclaimInsert);
                    if committed && labels & label_bit(rec.label) == 0 {
                        labels |= label_bit(rec.label);
                        self.accel.note_rel_label(id, rec.label);
                    }
                });
                continue;
            }
            self.nodes.for_each_in_chunk(chunk, &mut |id, rec| {
                let fix = RecoveryFix::of(rec);
                if let Some(fix) = fix {
                    node_fixes.lock().push((id, fix));
                }
                if fix == Some(RecoveryFix::ReclaimInsert) {
                    return;
                }
                if labels & label_bit(rec.label) == 0 {
                    labels |= label_bit(rec.label);
                    self.accel.note_node_label(id, rec.label);
                }
                let Some(note_prop) = &note_prop else { return };
                let mut head = rec.props;
                while head != gstore::NIL {
                    let batch = self.props.get(head);
                    for slot in batch.slots {
                        if let Some(pv) = PVal::decode(slot.tag, slot.val) {
                            note_prop(slot.key, id, pv.index_key());
                        }
                    }
                    head = batch.next;
                }
            });
        };
        // The scope joins the workers and passes on a panic in any of them.
        std::thread::scope(|scope| {
            (1..workers).for_each(|_| _ = scope.spawn(work));
            work();
        });
        // Id order, whatever the worker count: freed slots are handed out
        // again in the order they were freed.
        let (mut node_fixes, mut rel_fixes) = (node_fixes.into_inner(), rel_fixes.into_inner());
        node_fixes.sort_unstable_by_key(|f| f.0);
        rel_fixes.sort_unstable_by_key(|f| f.0);
        (node_fixes, rel_fixes)
    }

    /// What the [`open`](Self::open) that produced this handle did.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    // ------------------------------------------------------------------
    // Accessors used by the query layers
    // ------------------------------------------------------------------

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The node table.
    pub fn nodes(&self) -> &ChunkedTable<NodeRecord> {
        &self.nodes
    }

    /// The relationship table.
    pub fn rels(&self) -> &ChunkedTable<RelRecord> {
        &self.rels
    }

    /// The property table.
    pub fn props(&self) -> &ChunkedTable<PropRecord> {
        &self.props
    }

    /// The string dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The transaction manager.
    pub fn mgr(&self) -> &TxnManager {
        &self.mgr
    }

    /// The DRAM read-acceleration layer (chunk zone maps).
    pub fn accel(&self) -> &ReadAccel {
        &self.accel
    }

    /// Toggle chunk-grain read acceleration: zone-map pruning in scans and
    /// the MVTO single-version fast path. Maintenance is always on, so the
    /// toggle is safe at runtime (used by benches for on/off comparisons).
    pub fn set_read_accel(&self, on: bool) {
        self.accel.set_enabled(on);
        self.mgr.set_fast_scans(on);
    }

    /// True if chunk-grain read acceleration is enabled.
    pub fn read_accel(&self) -> bool {
        self.accel.enabled()
    }

    /// Toggle the group-commit pipeline (DESIGN.md §10). Both settings keep
    /// the flush-coalesced batch commit; grouping only changes whether
    /// concurrent committers share one log transaction. The default comes
    /// from `PMEMGRAPH_GROUP_COMMIT` (on unless `0`/`false`/`off`/`no`) and
    /// the toggle is safe at runtime (used by benches for on/off runs).
    pub fn set_group_commit(&self, on: bool) {
        self.mgr.set_group_commit(on);
    }

    /// True if commits from concurrent writers may be grouped.
    pub fn group_commit(&self) -> bool {
        self.mgr.group_commit()
    }

    /// The active durability rung. Default follows `PMEMGRAPH_SYNC_MODE`.
    pub fn sync_mode(&self) -> gtxn::SyncMode {
        self.mgr.sync_mode()
    }

    /// Switch durability rung at runtime. Tightening to
    /// [`gtxn::SyncMode::PerTxn`] checkpoints the deferred tail first.
    pub fn set_sync_mode(&self, mode: gtxn::SyncMode) -> Result<()> {
        self.mgr.set_sync_mode(mode).map_err(GraphError::from)
    }

    /// Explicit durability point: flush all data deferred by the
    /// `EveryN`/`CheckpointOnly` rungs and truncate the accumulated undo
    /// log. Cheap no-op when nothing is deferred.
    pub fn checkpoint(&self) -> Result<()> {
        self.mgr.checkpoint().map_err(GraphError::from)
    }

    /// Count of committed write transactions. A snapshot (e.g. the
    /// analytics CSR) built at epoch E is current iff this still equals E.
    pub fn mutation_epoch(&self) -> u64 {
        self.mgr.mutation_epoch()
    }

    /// `(node_id, index_key)` for every committed node carrying `key`: of
    /// any label (zone maps are per key) or of `label` only (an index).
    fn collect_key_entries(&self, key: u32, label: Option<u32>) -> Vec<(u64, u64)> {
        let mut entries = Vec::new();
        self.nodes.for_each_live(|id, rec| {
            let committed = RecoveryFix::of(rec) != Some(RecoveryFix::ReclaimInsert);
            if committed && label.is_none_or(|l| l == rec.label) {
                if let Some(pv) = self.committed_prop(rec.props, key) {
                    entries.push((id, pv.index_key()));
                }
            }
        });
        entries
    }

    /// Intern a label/key/string-value, returning its dictionary code.
    pub fn intern(&self, s: &str) -> Result<u32> {
        Ok(self.dict.get_or_insert(s)?)
    }

    /// Begin a transaction.
    pub fn begin(&self) -> GraphTxn<'_> {
        GraphTxn::new(self, self.mgr.begin())
    }

    /// A reader handle sharing an existing transaction's snapshot id (for
    /// morsel-driven parallel workers). Read-only; dropping it is a no-op —
    /// the parent transaction owns the lifecycle.
    pub fn reader_at(&self, snapshot_id: u64) -> GraphTxn<'_> {
        GraphTxn::new(self, self.mgr.reader_at(snapshot_id))
    }

    // ------------------------------------------------------------------
    // Indexes (§4.2 "Hybrid Indexes")
    // ------------------------------------------------------------------

    /// Create a secondary index on `(:label {key})` of the given kind and
    /// bulk-load it from the latest committed data.
    pub fn create_index(&self, label: &str, key: &str, kind: IndexKind) -> Result<()> {
        let label_code = self.dict.get_or_insert(label)?;
        let key_code = self.dict.get_or_insert(key)?;
        if self
            .indexes
            .read()
            .iter()
            .any(|d| d.label == label_code && d.key == key_code)
        {
            return Err(GraphError::IndexExists {
                label: label.into(),
                key: key.into(),
            });
        }
        let tree = match kind {
            IndexKind::Volatile => BPlusTree::create(kind, None)?,
            _ => BPlusTree::create(kind, Some(self.pool.clone()))?,
        };
        self.fill_index(&tree, label_code, key_code)?;
        // Persist the definition.
        let root: GraphRoot = self.pool.read(pmem::POff::new(self.root_off));
        assert!(root.index_count < root.index_cap, "index directory full");
        let e = root.index_dir + root.index_count * INDEX_ENTRY;
        self.pool
            .write_u64(e, (key_code as u64) << 32 | label_code as u64);
        self.pool.write_u64(
            e + 8,
            match kind {
                IndexKind::Volatile => 0,
                IndexKind::Persistent => 1,
                IndexKind::Hybrid => 2,
            },
        );
        self.pool.write_u64(e + 16, tree.root_off());
        self.pool.persist(e, INDEX_ENTRY as usize);
        self.pool
            .write_u64(self.root_off + R_INDEX_COUNT, root.index_count + 1);
        self.pool.persist(self.root_off + R_INDEX_COUNT, 8);
        self.indexes.write().push(IndexDef {
            label: label_code,
            key: key_code,
            tree: Arc::new(tree),
        });
        // Start zone-tracking the key (prefilled under the registry lock so
        // scans never see it registered with incomplete zones). Writers
        // overlapping index creation are covered by their commit-time
        // replay of staged index updates — the same discipline
        // `apply_index_updates` relies on for the B+-tree itself.
        if !self.accel.key_registered(key_code) {
            let entries = self.collect_key_entries(key_code, None);
            self.accel.register_key(key_code, &entries);
        }
        Ok(())
    }

    /// Bulk-load an index from the latest committed node versions.
    fn fill_index(&self, tree: &BPlusTree, label: u32, key: u32) -> Result<()> {
        for (id, ikey) in self.collect_key_entries(key, Some(label)) {
            tree.insert(ikey, id)?;
        }
        Ok(())
    }

    /// Read property `key` out of a committed property chain (used by
    /// index maintenance and by benchmark harnesses extracting keys).
    pub fn committed_prop(&self, mut head: u64, key: u32) -> Option<PVal> {
        while head != gstore::NIL {
            let rec = self.props.get(head);
            for slot in rec.slots {
                if slot.key == key {
                    return PVal::decode(slot.tag, slot.val);
                }
            }
            head = rec.next;
        }
        None
    }

    /// The index over `(label_code, key_code)`, if one exists.
    pub fn index_for(&self, label: u32, key: u32) -> Option<Arc<BPlusTree>> {
        self.indexes
            .read()
            .iter()
            .find(|d| d.label == label && d.key == key)
            .map(|d| d.tree.clone())
    }

    /// All committed values in `lo <= key <= hi` for the `(label, key)`
    /// index, in key order. `None` when no such index exists (callers fall
    /// back to a full scan). Values are raw candidates: index maintenance
    /// is eager under MVTO, so readers must re-check visibility, label and
    /// key against their own snapshot.
    pub fn index_range(&self, label: u32, key: u32, lo: u64, hi: u64) -> Option<Vec<u64>> {
        let tree = self.index_for(label, key)?;
        let mut out = Vec::new();
        tree.range(lo, hi, |_, v| out.push(v));
        Some(out)
    }

    /// All index definitions (for diagnostics and benches).
    pub fn index_defs(&self) -> Vec<(u32, u32, IndexKind)> {
        self.indexes
            .read()
            .iter()
            .map(|d| (d.label, d.key, d.tree.kind()))
            .collect()
    }

    pub(crate) fn apply_index_updates(
        &self,
        adds: &[(u32, u32, u64, NodeId)],
        removes: &[(u32, u32, u64, NodeId)],
    ) {
        if adds.is_empty() && removes.is_empty() {
            return;
        }
        let indexes = self.indexes.read();
        for def in indexes.iter() {
            for &(label, key, ikey, id) in removes {
                if def.label == label && def.key == key {
                    def.tree.remove(ikey, id);
                }
            }
            for &(label, key, ikey, id) in adds {
                if def.label == label && def.key == key {
                    let _ = def.tree.insert(ikey, id);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred slot reclamation (§5.3)
    // ------------------------------------------------------------------

    pub(crate) fn defer_slot_free(&self, ets: u64, tag: TableTag, id: RecId) {
        self.deferred_slots.lock().push((ets, tag, id));
    }

    /// Reclaim slots of deleted records that no snapshot can reach anymore.
    /// Called after each commit; also available for explicit maintenance.
    pub fn reclaim_deleted(&self) -> usize {
        let horizon = self.mgr.oldest_active_ts();
        let mut guard = self.deferred_slots.lock();
        let mut reclaimed = 0;
        let mut i = 0;
        while i < guard.len() {
            let (ets, tag, id) = guard[i];
            if ets < horizon {
                match tag {
                    TableTag::Node => self.nodes.delete(id),
                    TableTag::Rel => self.rels.delete(id),
                }
                guard.swap_remove(i);
                reclaimed += 1;
            } else {
                i += 1;
            }
        }
        reclaimed
    }

    /// Mark-and-sweep reclamation of unreachable property records (e.g.
    /// chains leaked by crashed transactions whose owners were reclaimed).
    /// Runs only over a quiesced database: returns 0 without touching
    /// anything if a transaction is in flight when it starts, or if one
    /// began at any point up to the end of the sweep phase — a writer
    /// that links a new chain behind the mark scan would otherwise have
    /// its acknowledged properties deleted as unreachable. Records
    /// allocated after the sweep phase are not in the dead set, so
    /// transactions that begin during the deletes are safe. Returns the
    /// number of reclaimed records.
    pub fn vacuum_props(&self) -> usize {
        let Some(stamp) = self.mgr.quiescent_stamp() else {
            return 0;
        };
        if self.mgr.version_count() > 0 {
            // Conservative: live version chains may still reference
            // superseded property chains.
            return 0;
        }
        let mut reachable = std::collections::HashSet::new();
        let mut mark = |mut head: u64| {
            while head != gstore::NIL {
                if !reachable.insert(head) {
                    break;
                }
                head = self.props.get(head).next;
            }
        };
        self.nodes.for_each_live(|_, rec| mark(rec.props));
        self.rels.for_each_live(|_, rec| mark(rec.props));
        let mut dead = Vec::new();
        self.props.for_each_live(|id, _| {
            if !reachable.contains(&id) {
                dead.push(id);
            }
        });
        if self.mgr.quiescent_stamp() != Some(stamp) {
            // A transaction ran during the scans: `dead` may name records
            // it allocated and had not linked yet when the mark passed.
            return 0;
        }
        for id in &dead {
            self.props.delete(*id);
        }
        dead.len()
    }

    /// Number of live nodes (committed or not — table-level count).
    pub fn node_count(&self) -> usize {
        self.nodes.live_count()
    }

    /// Number of live relationships.
    pub fn rel_count(&self) -> usize {
        self.rels.live_count()
    }
}

impl std::fmt::Debug for GraphDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphDb")
            .field("pool", &self.pool)
            .field("nodes", &self.nodes.live_count())
            .field("rels", &self.rels.live_count())
            .field("indexes", &self.indexes.read().len())
            .finish()
    }
}

#[cfg(test)]
#[path = "../tests/unit/recovery.rs"]
mod recovery_tests; // mounted here for `open_with_workers`
