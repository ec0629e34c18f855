//! N-way sharding: per-shard PMem pools behind a router (DESIGN.md §13).
//!
//! A [`ShardedDb`] owns N independent [`GraphDb`]s — each with its own
//! `pmem::Pool`, undo log, allocator arenas, `TxnManager` and
//! `CommitPipeline` — and a [`ShardRouter`] that hash-partitions node ids
//! across them. N = 1 (the default; [`ShardOptions::shards`]) degenerates to a
//! plain `GraphDb`: global ids equal shard-local ids and the on-media
//! format is bit-identical to the unsharded engine.
//!
//! **Id scheme.** A global id encodes its shard in the low bits:
//! `gid = lid * N + shard`, so `shard = gid % N` and `lid = gid / N` —
//! round-robin placement then yields dense local id spaces in every shard.
//!
//! **Commit protocol.** A transaction whose writes touch one shard
//! commits through that shard's group-commit pipeline, exactly as before
//! (the fast path). A transaction touching k ≥ 2 shards commits by a
//! two-phase epoch built on the undo-log machinery: each touched shard
//! prepares its batch (undo entries + a trailing epoch marker, applied in
//! place — 3 fences, see `pmem::Pool::tx_prepare_batches`), then one
//! epoch record on the decider shard (shard 0) commits the whole
//! transaction with a single 8-byte persist, then each shard truncates
//! its log. Recovery reads the decider's `committed_epoch` first and
//! replays every shard in parallel: a shard whose log ends in an epoch
//! marker ≤ the decided epoch settles forward, any other non-empty log
//! rolls back — so a cross-shard transaction is visible on all shards or
//! none.
//!
//! **Cross-shard relationships.** An edge whose endpoints live in
//! different shards is stored as two halves: the out-half in the source
//! shard (its `dst` is the destination's *global* id tagged with the
//! [`REMOTE`] bit) linked into the source node's out-list, and a mirror
//! in-half in the destination shard (its `src` is tagged) linked into the
//! destination node's in-list. Both halves ride the same epoch commit, so
//! neither list can surface a dangling half after a crash. Scans that
//! stitch shards (the analytics CSR) count each edge once by skipping
//! mirror halves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{DeviceProfile, Pool, TxBatch};

use gstore::{NodeRecord, PVal, RelRecord};

use crate::db::{DbOptions, GraphDb};
use crate::error::GraphError;
use crate::txn::{Dir, GraphTxn, PropOwner};
use crate::value::Value;
use crate::{NodeId, RelId, Result};

/// Tag bit marking a relationship endpoint as a *global* id in another
/// shard (record ids stay far below 2^63, so the bit is never ambiguous).
pub const REMOTE: u64 = 1 << 63;

/// True if a stored endpoint references a node in another shard.
#[inline]
pub fn is_remote(endpoint: u64) -> bool {
    endpoint & REMOTE != 0
}

/// Strip the [`REMOTE`] tag, yielding the referenced global id.
#[inline]
pub fn strip_remote(endpoint: u64) -> u64 {
    endpoint & !REMOTE
}

/// The id-partitioning function plus round-robin placement state.
pub struct ShardRouter {
    n: u64,
    next: AtomicU64,
}

impl ShardRouter {
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "at least one shard");
        ShardRouter {
            n: shards as u64,
            next: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.n as usize
    }

    /// The shard owning a global id.
    #[inline]
    pub fn shard_of(&self, gid: u64) -> usize {
        (gid % self.n) as usize
    }

    /// The shard-local record id of a global id.
    #[inline]
    pub fn local_of(&self, gid: u64) -> u64 {
        gid / self.n
    }

    /// The global id of `(shard, local id)`.
    #[inline]
    pub fn global_of(&self, shard: usize, lid: u64) -> u64 {
        lid * self.n + shard as u64
    }

    /// Pick the shard for the next insert (round-robin).
    pub fn place(&self) -> usize {
        (self.next.fetch_add(1, Ordering::Relaxed) % self.n) as usize
    }
}

/// Configuration for creating a sharded database.
pub struct ShardOptions {
    path: Option<PathBuf>,
    shards: usize,
    /// Per-shard pool size in bytes.
    size: usize,
    profile: DeviceProfile,
    log_cap: u64,
    crash_tracking: bool,
}

impl ShardOptions {
    /// A volatile sharded database (one shard unless [`Self::shards`] says otherwise).
    pub fn dram(size: usize) -> ShardOptions {
        ShardOptions {
            path: None,
            shards: 1,
            size,
            profile: DeviceProfile::dram(),
            log_cap: 1 << 20,
            crash_tracking: false,
        }
    }

    /// A persistent sharded database. `base` names shard 0's pool when the
    /// count is 1 (bit-identical to an unsharded [`GraphDb`]); with N > 1,
    /// shard i lives at `<base>.s<i>`.
    pub fn pmem(base: impl AsRef<Path>, size: usize) -> ShardOptions {
        ShardOptions {
            path: Some(base.as_ref().to_path_buf()),
            shards: 1,
            size,
            profile: DeviceProfile::pmem(),
            log_cap: 1 << 20,
            crash_tracking: false,
        }
    }

    /// Set the shard count (default 1).
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = n;
        self
    }

    /// Override the injected-latency profile.
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Enable cache-line crash tracking on every shard pool.
    pub fn crash_tracking(mut self, on: bool) -> Self {
        self.crash_tracking = on;
        self
    }

    /// Per-shard undo-log capacity in bytes.
    pub fn log_cap(mut self, cap: u64) -> Self {
        self.log_cap = cap;
        self
    }
}

/// The path of shard `i` under `base` for a total of `n` shards.
pub fn shard_path(base: &Path, i: usize, n: usize) -> PathBuf {
    if n == 1 {
        base.to_path_buf()
    } else {
        let mut s = base.as_os_str().to_os_string();
        s.push(format!(".s{i}"));
        PathBuf::from(s)
    }
}

/// N independent transaction/commit/recovery domains behind one router.
pub struct ShardedDb {
    shards: Vec<Arc<GraphDb>>,
    router: ShardRouter,
    /// Serialises dictionary interning across shards so every shard
    /// assigns identical codes (the router's coded fast paths rely on it).
    intern_lock: Mutex<()>,
    /// Serialises cross-shard epoch commits: participants prepare in
    /// ascending shard order under this lock, so two cross-shard commits
    /// can never deadlock on each other's pool transaction locks.
    cross_lock: Mutex<()>,
    /// Next cross-shard epoch (1-based; 0 means "none decided").
    next_epoch: AtomicU64,
    cross_commits: AtomicU64,
}

impl ShardedDb {
    /// Create a fresh sharded database.
    pub fn create(opts: ShardOptions) -> Result<ShardedDb> {
        let n = opts.shards;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let per = match &opts.path {
                Some(base) => DbOptions::pmem(shard_path(base, i, n), opts.size),
                None => DbOptions::dram(opts.size),
            };
            let per = per
                .profile(opts.profile)
                .log_cap(opts.log_cap)
                .crash_tracking(opts.crash_tracking);
            shards.push(Arc::new(GraphDb::create(per)?));
        }
        Ok(ShardedDb::assemble(shards))
    }

    /// Open an existing sharded database, replaying recovery on every
    /// shard **in parallel**. The decider shard's `committed_epoch` is
    /// read from the file header *before* any pool recovery runs, so each
    /// shard can settle or roll back a trailing cross-shard epoch marker
    /// independently of the others.
    pub fn open(base: impl AsRef<Path>, shards: usize, profile: DeviceProfile) -> Result<ShardedDb> {
        let base = base.as_ref();
        let committed = Pool::peek_committed_epoch(shard_path(base, 0, shards))?;
        let decider = move |e: u64| e <= committed;
        let mut slots: Vec<Option<Result<GraphDb>>> = (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let path = shard_path(base, i, shards);
                let decider = &decider;
                scope.spawn(move || {
                    let workers = crate::db::recovery_workers(shards);
                    *slot = Some(GraphDb::open_with_workers(path, profile, decider, workers));
                });
            }
        });
        let opened = slots
            .into_iter()
            .map(|s| s.expect("shard recovery thread completed").map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedDb::assemble(opened))
    }

    fn assemble(shards: Vec<Arc<GraphDb>>) -> ShardedDb {
        let n = shards.len();
        let decided = shards[0].pool().committed_epoch();
        ShardedDb {
            shards,
            router: ShardRouter::new(n),
            intern_lock: Mutex::new(()),
            cross_lock: Mutex::new(()),
            next_epoch: AtomicU64::new(decided + 1),
            cross_commits: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// The id-partitioning router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// One shard's database.
    pub fn shard(&self, i: usize) -> &GraphDb {
        &self.shards[i]
    }

    /// All shards (e.g. for per-shard metric registration).
    pub fn shards(&self) -> &[Arc<GraphDb>] {
        &self.shards
    }

    /// Completed cross-shard epoch commits.
    pub fn cross_commits(&self) -> u64 {
        self.cross_commits.load(Ordering::Relaxed)
    }

    /// Sum of the shards' mutation epochs: any committed write anywhere
    /// bumps it, so snapshot caches can validate against one number.
    pub fn mutation_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.mutation_epoch()).sum()
    }

    /// Live nodes across all shards.
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.node_count()).sum()
    }

    /// Checkpoint every shard (flush deferred tails, truncate logs).
    pub fn checkpoint(&self) -> Result<()> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Intern a string into **every** shard's dictionary under one lock,
    /// asserting the assigned codes agree. As long as all interning flows
    /// through the router (the [`ShardedTxn`] ops guarantee it), the
    /// per-shard dictionaries stay mirrored and a code is valid anywhere.
    pub fn intern(&self, s: &str) -> Result<u32> {
        // Fast path, no lock: the mirror loop below writes shard 0 first
        // and the last shard last, so a string present in the *last*
        // shard's dictionary is already mirrored everywhere and its code
        // is final. Repeat interning (every label/key after the first
        // use) never serializes cross-shard writers here.
        if let Some(code) = self.shards[self.shards.len() - 1].dict().code_of(s) {
            return Ok(code);
        }
        let _g = self.intern_lock.lock();
        let mut code = None;
        for sh in &self.shards {
            let c = sh.intern(s)?;
            if let Some(prev) = code {
                debug_assert_eq!(prev, c, "shard dictionaries diverged for {s:?}");
            }
            code = Some(c);
        }
        Ok(code.expect("at least one shard"))
    }

    /// Encode an API value for storage, mirror-interning strings.
    pub fn encode_value(&self, v: &Value) -> Result<PVal> {
        Ok(match v {
            Value::Int(x) => PVal::Int(*x),
            Value::Double(x) => PVal::Double(*x),
            Value::Bool(x) => PVal::Bool(*x),
            Value::Str(s) => PVal::Str(self.intern(s)?),
            Value::Date(x) => PVal::Date(*x),
            Value::Null => PVal::Null,
        })
    }

    fn encode_props(&self, props: &[(&str, Value)]) -> Result<Vec<(u32, PVal)>> {
        props
            .iter()
            .map(|(k, v)| Ok((self.intern(k)?, self.encode_value(v)?)))
            .collect()
    }

    /// Begin a transaction spanning any subset of shards. Per-shard MVTO
    /// transactions start lazily on first touch.
    pub fn begin(&self) -> ShardedTxn<'_> {
        ShardedTxn {
            db: self,
            inner: (0..self.shard_count()).map(|_| None).collect(),
        }
    }

    /// Resolve a stored relationship endpoint (as read in shard `shard`)
    /// to a global node id.
    #[inline]
    pub fn endpoint_global(&self, shard: usize, raw: u64) -> u64 {
        if is_remote(raw) {
            strip_remote(raw)
        } else {
            self.router.global_of(shard, raw)
        }
    }
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shard_count())
            .field("nodes", &self.node_count())
            .field("cross_commits", &self.cross_commits())
            .finish()
    }
}

/// A transaction over a [`ShardedDb`]: one lazy [`GraphTxn`] per touched
/// shard. All ids in this API are **global**. Aborts on drop unless
/// committed.
pub struct ShardedTxn<'d> {
    db: &'d ShardedDb,
    inner: Vec<Option<GraphTxn<'d>>>,
}

impl<'d> ShardedTxn<'d> {
    fn shard_txn(&mut self, shard: usize) -> &mut GraphTxn<'d> {
        let db = self.db;
        self.inner[shard].get_or_insert_with(|| db.shard(shard).begin())
    }

    /// Number of shards this transaction has touched so far.
    pub fn touched_shards(&self) -> usize {
        self.inner.iter().filter(|t| t.is_some()).count()
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Create a node (round-robin shard placement). Returns its global id.
    pub fn create_node(&mut self, label: &str, props: &[(&str, Value)]) -> Result<NodeId> {
        let shard = self.db.router.place();
        self.create_node_on(shard, label, props)
    }

    /// Create a node on a caller-chosen shard — a placement hint for
    /// partition-affine loads (a writer pinned to one shard commits
    /// through that shard's pipeline alone and never pays the cross-shard
    /// epoch). The id is globally addressable like any other.
    pub fn create_node_on(
        &mut self,
        shard: usize,
        label: &str,
        props: &[(&str, Value)],
    ) -> Result<NodeId> {
        let label_code = self.db.intern(label)?;
        let coded = self.db.encode_props(props)?;
        let lid = self.shard_txn(shard).create_node_coded(label_code, &coded)?;
        Ok(self.db.router.global_of(shard, lid))
    }

    /// The node record visible to this transaction, if any. Adjacency
    /// heads inside the record are shard-local (use the traversal methods
    /// for global views).
    pub fn node(&mut self, gid: NodeId) -> Result<Option<NodeRecord>> {
        let shard = self.db.router.shard_of(gid);
        let lid = self.db.router.local_of(gid);
        self.shard_txn(shard).node(lid)
    }

    // ------------------------------------------------------------------
    // Relationships
    // ------------------------------------------------------------------

    /// Create `src -[label]-> dst`. Same-shard endpoints take the single
    /// record fast path; cross-shard endpoints store two halves (out-half
    /// in `src`'s shard — whose global id names the edge — and a mirror
    /// in `dst`'s shard), both committed atomically by the epoch commit.
    pub fn create_rel(
        &mut self,
        src: NodeId,
        label: &str,
        dst: NodeId,
        props: &[(&str, Value)],
    ) -> Result<RelId> {
        let label_code = self.db.intern(label)?;
        let coded = self.db.encode_props(props)?;
        let r = &self.db.router;
        let (ss, ds) = (r.shard_of(src), r.shard_of(dst));
        let (sl, dl) = (r.local_of(src), r.local_of(dst));
        if ss == ds {
            let lid = self.shard_txn(ss).create_rel_coded(sl, label_code, dl, &coded)?;
            return Ok(self.db.router.global_of(ss, lid));
        }
        let out = self
            .shard_txn(ss)
            .create_rel_out_half(sl, label_code, REMOTE | dst, &coded)?;
        self.shard_txn(ds)
            .create_rel_in_half(REMOTE | src, label_code, dl)?;
        Ok(self.db.router.global_of(ss, out))
    }

    /// Visit `node`'s relationships in `dir` with global endpoint ids:
    /// `f(rel_gid, src_gid, dst_gid, &record)`.
    pub fn for_each_rel(
        &mut self,
        node: NodeId,
        dir: Dir,
        label: Option<u32>,
        mut f: impl FnMut(RelId, NodeId, NodeId, &RelRecord),
    ) -> Result<()> {
        let shard = self.db.router.shard_of(node);
        let lid = self.db.router.local_of(node);
        let db = self.db;
        self.shard_txn(shard).for_each_rel(lid, dir, label, |rid, rec| {
            let src = db.endpoint_global(shard, rec.src);
            let dst = db.endpoint_global(shard, rec.dst);
            f(db.router.global_of(shard, rid), src, dst, rec);
        })
    }

    /// Global neighbour ids of `node` in `dir`.
    pub fn neighbors(&mut self, node: NodeId, dir: Dir, label: Option<u32>) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        self.for_each_rel(node, dir, label, |_, s, d, _| {
            out.push(match dir {
                Dir::Out => d,
                Dir::In => s,
            })
        })?;
        Ok(out)
    }

    /// Number of relationships in a direction (local halves and
    /// cross-shard halves both live in the owning node's list).
    pub fn degree(&mut self, node: NodeId, dir: Dir) -> Result<usize> {
        let mut n = 0;
        self.for_each_rel(node, dir, None, |_, _, _, _| n += 1)?;
        Ok(n)
    }

    /// Delete a same-shard relationship. Cross-shard relationships are
    /// not yet deletable through the router; the error names both
    /// participating shards so the caller can tell *which* epoch domain
    /// pair the half-edges live in (DESIGN.md §13).
    pub fn delete_rel(&mut self, rel: RelId) -> Result<()> {
        let shard = self.db.router.shard_of(rel);
        let lid = self.db.router.local_of(rel);
        {
            let txn = self.shard_txn(shard);
            if let Some(rec) = txn.rel(lid)? {
                let remote_end = [rec.src, rec.dst].into_iter().find(|&e| is_remote(e));
                if let Some(raw) = remote_end {
                    let other = self.db.router.shard_of(strip_remote(raw));
                    return Err(GraphError::CrossShard(format!(
                        "relationship {rel} spans shards {shard} and {other}: \
                         cross-shard deletes are not supported yet (both halves \
                         would need one epoch commit)"
                    )));
                }
            }
        }
        self.shard_txn(shard).delete_rel(lid)
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    /// Read one property of a node or relationship (global ids).
    pub fn prop(&mut self, owner: PropOwner, key: &str) -> Result<Option<Value>> {
        let (shard, local) = self.route_owner(owner);
        self.shard_txn(shard).prop(local, key)
    }

    /// Set one property (global ids); strings are mirror-interned.
    pub fn set_prop(&mut self, owner: PropOwner, key: &str, value: Value) -> Result<()> {
        let key_code = self.db.intern(key)?;
        let pv = self.db.encode_value(&value)?;
        let (shard, local) = self.route_owner(owner);
        self.shard_txn(shard).set_prop_coded(local, key_code, pv)
    }

    fn route_owner(&self, owner: PropOwner) -> (usize, PropOwner) {
        let r = &self.db.router;
        match owner {
            PropOwner::Node(gid) => (r.shard_of(gid), PropOwner::Node(r.local_of(gid))),
            PropOwner::Rel(gid) => (r.shard_of(gid), PropOwner::Rel(r.local_of(gid))),
        }
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit. A transaction that wrote ≤ 1 shard commits each per-shard
    /// transaction through its own group-commit pipeline (today's fast
    /// path — read-only shards cost nothing). A transaction that wrote
    /// k ≥ 2 shards runs the two-phase epoch commit: every writer shard
    /// prepares (3 fences), one epoch record on shard 0 decides (1
    /// fence), every writer truncates its log (1 fence each).
    pub fn commit(mut self) -> Result<()> {
        let writers = self
            .inner
            .iter()
            .filter(|t| t.as_ref().is_some_and(|t| !t.raw().is_read_only()))
            .count();
        if writers <= 1 {
            for txn in self.inner.iter_mut().filter_map(Option::take) {
                txn.commit()?;
            }
            return Ok(());
        }

        // Cross-shard path. Serialised so concurrent epoch commits take
        // the per-pool transaction locks in the same (ascending) order.
        let _g = self.db.cross_lock.lock();
        let epoch = self.db.next_epoch.fetch_add(1, Ordering::Relaxed);
        let mut pending: Vec<(usize, GraphTxn<'d>, gtxn::PendingCommit)> = Vec::new();
        for shard in 0..self.inner.len() {
            let Some(mut txn) = self.inner[shard].take() else {
                continue;
            };
            if txn.raw().is_read_only() {
                txn.commit()?;
                continue;
            }
            if let Some(p) = txn.prepare_commit()? {
                pending.push((shard, txn, p));
            }
        }
        let persisted = {
            let batches: Vec<[&TxBatch; 1]> =
                pending.iter().map(|(_, _, p)| [p.batch()]).collect();
            let participants: Vec<(&Pool, &[&TxBatch])> = pending
                .iter()
                .zip(&batches)
                .map(|((shard, _, _), b)| (self.db.shard(*shard).pool().as_ref(), &b[..]))
                .collect();
            pmem::commit_epoch(&participants, self.db.shard(0).pool(), epoch)
        };
        // A failed prepare rolled every participant back: all abort.
        for (_, mut txn, p) in pending {
            if persisted.is_ok() {
                txn.finish_commit(p);
            } else {
                txn.abort_commit(p);
            }
        }
        persisted.map_err(GraphError::Pmem)?;
        self.db.cross_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Abort every per-shard transaction explicitly (drop does the same).
    pub fn abort(mut self) {
        for txn in self.inner.iter_mut().filter_map(Option::take) {
            txn.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(n: usize) -> ShardedDb {
        ShardedDb::create(ShardOptions::dram(48 << 20).shards(n)).unwrap()
    }

    #[test]
    fn single_shard_ids_are_identity() {
        let db = dram(1);
        let mut tx = db.begin();
        let a = tx.create_node("N", &[("k", Value::Int(1))]).unwrap();
        let b = tx.create_node("N", &[]).unwrap();
        let r = tx.create_rel(a, "E", b, &[]).unwrap();
        tx.commit().unwrap();
        // gid == lid when N = 1: the unsharded engine sees the same ids.
        let inner = db.shard(0).begin();
        assert!(inner.node(a).unwrap().is_some());
        assert!(inner.node(b).unwrap().is_some());
        assert!(inner.rel(r).unwrap().is_some());
        assert_eq!(db.cross_commits(), 0);
    }

    #[test]
    fn failed_epoch_commit_aborts_on_every_shard() {
        // One cross-shard transaction whose batches outgrow the 1 MiB undo
        // logs: the epoch commit fails in prepare, and every shard's half
        // must end as an abort — unlocked records, empty active sets.
        let db = dram(2);
        let mut ids = Vec::new();
        for _ in 0..24 {
            let mut tx = db.begin();
            for _ in 0..1000 {
                ids.push(tx.create_node("N", &[("v", Value::Int(0))]).unwrap());
            }
            tx.commit().unwrap();
        }
        let committed = db.cross_commits();
        let mut tx = db.begin();
        for &id in &ids {
            tx.set_prop(PropOwner::Node(id), "v", Value::Int(1)).unwrap();
        }
        let err = tx.commit().unwrap_err();
        assert!(matches!(err, GraphError::Pmem(pmem::PmemError::LogFull)), "{err:?}");
        for shard in 0..2 {
            assert_eq!(db.shard(shard).mgr().active_count(), 0, "shard {shard}");
        }
        assert_eq!(db.cross_commits(), committed);

        let mut tx = db.begin();
        for &id in &ids[..2] {
            assert_eq!(tx.prop(PropOwner::Node(id), "v").unwrap(), Some(Value::Int(0)));
            tx.set_prop(PropOwner::Node(id), "v", Value::Int(2)).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(db.cross_commits(), committed + 1);
    }

    #[test]
    fn router_id_scheme_round_trips() {
        let r = ShardRouter::new(4);
        for gid in [0u64, 1, 2, 3, 4, 17, 1000, 12345] {
            let s = r.shard_of(gid);
            let l = r.local_of(gid);
            assert_eq!(r.global_of(s, l), gid);
        }
        assert!(is_remote(REMOTE | 42));
        assert_eq!(strip_remote(REMOTE | 42), 42);
    }

    #[test]
    fn cross_shard_rel_traverses_both_directions() {
        let db = dram(4);
        let mut tx = db.begin();
        // Round-robin: four creates land on four different shards.
        let ids: Vec<NodeId> = (0..4)
            .map(|i| tx.create_node("N", &[("i", Value::Int(i))]).unwrap())
            .collect();
        let r01 = tx.create_rel(ids[0], "E", ids[1], &[("w", Value::Int(7))]).unwrap();
        tx.create_rel(ids[1], "E", ids[2], &[]).unwrap();
        assert!(tx.touched_shards() >= 2);
        tx.commit().unwrap();
        assert_eq!(db.cross_commits(), 1);

        let mut tx = db.begin();
        assert_eq!(tx.neighbors(ids[0], Dir::Out, None).unwrap(), vec![ids[1]]);
        assert_eq!(tx.neighbors(ids[1], Dir::In, None).unwrap(), vec![ids[0]]);
        assert_eq!(tx.neighbors(ids[1], Dir::Out, None).unwrap(), vec![ids[2]]);
        assert_eq!(tx.degree(ids[1], Dir::Out).unwrap(), 1);
        assert_eq!(tx.degree(ids[1], Dir::In).unwrap(), 1);
        assert_eq!(
            tx.prop(PropOwner::Rel(r01), "w").unwrap(),
            Some(Value::Int(7))
        );
        assert_eq!(
            tx.prop(PropOwner::Node(ids[3]), "i").unwrap(),
            Some(Value::Int(3))
        );
    }

    #[test]
    fn dictionaries_stay_mirrored() {
        let db = dram(3);
        let a = db.intern("alpha").unwrap();
        let b = db.intern("beta").unwrap();
        assert_ne!(a, b);
        for s in 0..3 {
            assert_eq!(db.shard(s).dict().code_of("alpha"), Some(a));
            assert_eq!(db.shard(s).dict().code_of("beta"), Some(b));
        }
        // Re-interning is stable.
        assert_eq!(db.intern("alpha").unwrap(), a);
    }

    #[test]
    fn abort_discards_cross_shard_writes() {
        let db = dram(2);
        let mut tx = db.begin();
        let a = tx.create_node("N", &[]).unwrap();
        let b = tx.create_node("N", &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        tx.create_rel(a, "E", b, &[]).unwrap();
        tx.abort();

        let mut tx = db.begin();
        assert_eq!(tx.degree(a, Dir::Out).unwrap(), 0);
        assert_eq!(tx.degree(b, Dir::In).unwrap(), 0);
    }

    #[test]
    fn cross_shard_delete_error_names_both_shards() {
        let db = dram(4);
        let mut tx = db.begin();
        let ids: Vec<NodeId> = (0..4).map(|_| tx.create_node("N", &[]).unwrap()).collect();
        // Round-robin placement: ids[0] is on shard 0, ids[2] on shard 2.
        let r = tx.create_rel(ids[0], "E", ids[2], &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin();
        let err = tx.delete_rel(r).unwrap_err();
        match err {
            GraphError::CrossShard(msg) => {
                let s = db.router().shard_of(ids[0]);
                let o = db.router().shard_of(ids[2]);
                assert!(
                    msg.contains(&format!("shards {s} and {o}")),
                    "error must name both shards: {msg}"
                );
            }
            other => panic!("expected CrossShard, got {other:?}"),
        }
    }

    #[test]
    fn set_prop_routes_across_shards() {
        let db = dram(4);
        let mut tx = db.begin();
        let ids: Vec<NodeId> = (0..8).map(|_| tx.create_node("N", &[]).unwrap()).collect();
        tx.commit().unwrap();
        let mut tx = db.begin();
        for (i, &id) in ids.iter().enumerate() {
            tx.set_prop(PropOwner::Node(id), "rank", Value::Int(i as i64)).unwrap();
        }
        tx.commit().unwrap();
        let mut tx = db.begin();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                tx.prop(PropOwner::Node(id), "rank").unwrap(),
                Some(Value::Int(i as i64))
            );
        }
    }
}
