//! [`GraphTxn`]: the RAII transaction handle with all graph operations.

use gstore::{NodeRecord, PVal, PropRecord, PropSlot, RecId, RelRecord, NIL};
use gstore::records::PROP_SLOTS;
use gtxn::{TableTag, TopoChange, Txn};

use crate::db::GraphDb;
use crate::error::GraphError;
use crate::value::Value;
use crate::{NodeId, RelId, Result};

/// Direction of a relationship traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Follow outgoing relationships (`first_out` / `next_src`).
    Out,
    /// Follow incoming relationships (`first_in` / `next_dst`).
    In,
}

/// Owner of a property chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropOwner {
    Node(NodeId),
    Rel(RelId),
}

/// An open transaction on a [`GraphDb`]. Aborts on drop unless committed.
pub struct GraphTxn<'db> {
    db: &'db GraphDb,
    inner: Option<Txn>,
    index_adds: Vec<(u32, u32, u64, NodeId)>,
    index_removes: Vec<(u32, u32, u64, NodeId)>,
    /// Deleted records whose slots become reclaimable at commit (ets = id).
    deleted: Vec<(TableTag, RecId)>,
}

impl<'db> GraphTxn<'db> {
    pub(crate) fn new(db: &'db GraphDb, inner: Txn) -> Self {
        GraphTxn {
            db,
            inner: Some(inner),
            index_adds: Vec::new(),
            index_removes: Vec::new(),
            deleted: Vec::new(),
        }
    }

    /// The MVTO transaction id (= begin timestamp).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map(|t| t.id).unwrap_or(0)
    }

    /// The database this transaction runs against.
    pub fn db(&self) -> &'db GraphDb {
        self.db
    }

    /// Raw access for the query layers.
    pub fn raw(&self) -> &Txn {
        self.inner.as_ref().expect("transaction active")
    }

    fn txn(&self) -> Result<&Txn> {
        self.inner.as_ref().ok_or(GraphError::TxnFinished)
    }

    fn txn_mut(&mut self) -> Result<&mut Txn> {
        self.inner.as_mut().ok_or(GraphError::TxnFinished)
    }

    /// Split-borrow helper: the database reference (independent of `self`'s
    /// borrow) together with the mutable transaction.
    fn parts(&mut self) -> Result<(&'db GraphDb, &mut Txn)> {
        let db = self.db;
        let txn = self.inner.as_mut().ok_or(GraphError::TxnFinished)?;
        Ok((db, txn))
    }

    // ------------------------------------------------------------------
    // Node operations
    // ------------------------------------------------------------------

    /// Create a node with a label and properties. Returns its id.
    pub fn create_node(&mut self, label: &str, props: &[(&str, Value)]) -> Result<NodeId> {
        let label_code = self.db.intern(label)?;
        let encoded = self.encode_props(props)?;
        self.create_node_coded(label_code, &encoded)
    }

    /// The node record visible to this transaction, if any.
    pub fn node(&self, id: NodeId) -> Result<Option<NodeRecord>> {
        Ok(self
            .db
            .mgr()
            .read(self.txn()?, TableTag::Node, self.db.nodes(), id)?)
    }

    /// The relationship record visible to this transaction, if any.
    pub fn rel(&self, id: RelId) -> Result<Option<RelRecord>> {
        Ok(self
            .db
            .mgr()
            .read(self.txn()?, TableTag::Rel, self.db.rels(), id)?)
    }

    /// Claim the single-version fast path for one chunk at this
    /// transaction's snapshot. When this returns true, subsequent
    /// [`node_fast`](Self::node_fast)/[`rel_fast`](Self::rel_fast) reads
    /// over the chunk's records skip version-chain probes and `rts` bumps;
    /// the chunk-grain `read_ts` published by the claim makes conflicting
    /// writers abort instead (see `gtxn::ChunkState`).
    pub fn try_fast_chunk(&self, tag: TableTag, chunk: usize) -> bool {
        self.db.mgr().try_fast_chunk(tag, chunk, self.id())
    }

    /// Read a node through the single-version fast path: an inline
    /// visibility check on the record bytes, falling back to the full MVTO
    /// read for anything versioned. Only sound after a successful
    /// [`try_fast_chunk`](Self::try_fast_chunk) claim on the chunk.
    pub fn node_fast(&self, id: NodeId) -> Result<Option<NodeRecord>> {
        Ok(self
            .db
            .mgr()
            .read_fast(self.txn()?, TableTag::Node, self.db.nodes(), id)?)
    }

    /// Read a relationship through the single-version fast path (see
    /// [`node_fast`](Self::node_fast)).
    pub fn rel_fast(&self, id: RelId) -> Result<Option<RelRecord>> {
        Ok(self
            .db
            .mgr()
            .read_fast(self.txn()?, TableTag::Rel, self.db.rels(), id)?)
    }

    /// Resolve a node's label to its string.
    pub fn node_label(&self, id: NodeId) -> Result<Option<String>> {
        Ok(self
            .node(id)?
            .and_then(|n| self.db.dict().string_of(n.label)))
    }

    // ------------------------------------------------------------------
    // Relationship operations
    // ------------------------------------------------------------------

    /// Create a relationship `src -[label]-> dst` with properties. Links
    /// the record into both adjacency lists (head insertion), which
    /// versions both endpoint nodes under MVTO.
    pub fn create_rel(
        &mut self,
        src: NodeId,
        label: &str,
        dst: NodeId,
        props: &[(&str, Value)],
    ) -> Result<RelId> {
        let label_code = self.db.intern(label)?;
        let encoded = self.encode_props(props)?;
        self.create_rel_coded(src, label_code, dst, &encoded)
    }

    /// Visit relationships of `node` in direction `dir`, optionally
    /// filtered by relationship label code. This is the storage-level
    /// traversal the `ForeachRelationship` operator compiles to: it chases
    /// 8-byte offsets, never persistent pointers (DD4/DG6).
    pub fn for_each_rel(
        &self,
        node: NodeId,
        dir: Dir,
        label: Option<u32>,
        mut f: impl FnMut(RelId, &RelRecord),
    ) -> Result<()> {
        self.any_rel(node, dir, label, |id, r| {
            f(id, r);
            false
        })
        .map(drop)
    }

    /// Like [`for_each_rel`](Self::for_each_rel) but stops as soon as `f`
    /// returns true; returns whether any relationship matched. This is the
    /// streaming primitive behind `Connected` predicates — probing one
    /// edge must not materialize the whole adjacency list.
    pub fn any_rel(
        &self,
        node: NodeId,
        dir: Dir,
        label: Option<u32>,
        mut f: impl FnMut(RelId, &RelRecord) -> bool,
    ) -> Result<bool> {
        let n = self.node(node)?.ok_or(GraphError::NodeNotFound(node))?;
        let mut cur = match dir {
            Dir::Out => n.first_out,
            Dir::In => n.first_in,
        };
        while cur != NIL {
            match self
                .db
                .mgr()
                .read(self.txn()?, TableTag::Rel, self.db.rels(), cur)?
            {
                Some(r) => {
                    if label.is_none_or(|l| r.label == l) && f(cur, &r) {
                        return Ok(true);
                    }
                    cur = match dir {
                        Dir::Out => r.next_src,
                        Dir::In => r.next_dst,
                    };
                }
                None => {
                    // Version invisible to our snapshot (newer insert or
                    // uncommitted); follow the raw link to older entries.
                    let raw = self.db.rels().get(cur);
                    cur = match dir {
                        Dir::Out => raw.next_src,
                        Dir::In => raw.next_dst,
                    };
                }
            }
        }
        Ok(false)
    }

    /// Collect `(rel_id, record)` pairs of a node's relationships.
    pub fn rels_of(&self, node: NodeId, dir: Dir, label: Option<u32>) -> Result<Vec<(RelId, RelRecord)>> {
        let mut out = Vec::new();
        self.for_each_rel(node, dir, label, |id, r| out.push((id, *r)))?;
        Ok(out)
    }

    /// Number of relationships in a direction.
    pub fn degree(&self, node: NodeId, dir: Dir) -> Result<usize> {
        let mut n = 0;
        self.for_each_rel(node, dir, None, |_, _| n += 1)?;
        Ok(n)
    }

    /// Delete a relationship: unlink it from both adjacency lists, then
    /// tombstone the record.
    pub fn delete_rel(&mut self, id: RelId) -> Result<()> {
        let r = self.rel(id)?.ok_or(GraphError::RelNotFound(id))?;
        self.unlink(r.src, Dir::Out, id, r.next_src)?;
        self.unlink(r.dst, Dir::In, id, r.next_dst)?;
        let (db, txn) = self.parts()?;
        db.mgr().delete(txn, TableTag::Rel, db.rels(), id)?;
        let (src, dst, label) = (r.src, r.dst, r.label);
        db.mgr().note_topology(txn, TopoChange::EdgeRemoved { src, dst, label });
        self.deleted.push((TableTag::Rel, id));
        if r.props != NIL {
            self.mark_chain_obsolete(r.props)?;
        }
        Ok(())
    }

    fn unlink(&mut self, node: NodeId, dir: Dir, rel_id: RelId, successor: u64) -> Result<()> {
        let n = self.node(node)?.ok_or(GraphError::NodeNotFound(node))?;
        let head = match dir {
            Dir::Out => n.first_out,
            Dir::In => n.first_in,
        };
        if head == rel_id {
            let (db, txn) = self.parts()?;
            db.mgr()
                .update(txn, TableTag::Node, db.nodes(), node, |n| match dir {
                    Dir::Out => n.first_out = successor,
                    Dir::In => n.first_in = successor,
                })?;
            return Ok(());
        }
        // Walk the chain to find the predecessor.
        let mut cur = head;
        while cur != NIL {
            let r = self
                .rel(cur)?
                .map(|r| match dir {
                    Dir::Out => r.next_src,
                    Dir::In => r.next_dst,
                })
                .unwrap_or_else(|| {
                    let raw = self.db.rels().get(cur);
                    match dir {
                        Dir::Out => raw.next_src,
                        Dir::In => raw.next_dst,
                    }
                });
            if r == rel_id {
                let (db, txn) = self.parts()?;
                db.mgr()
                    .update(txn, TableTag::Rel, db.rels(), cur, |p| match dir {
                        Dir::Out => p.next_src = successor,
                        Dir::In => p.next_dst = successor,
                    })?;
                return Ok(());
            }
            cur = r;
        }
        Err(GraphError::RelNotFound(rel_id))
    }

    /// Delete a node that has no visible relationships.
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        let n = self.node(id)?.ok_or(GraphError::NodeNotFound(id))?;
        if self.degree(id, Dir::Out)? > 0 || self.degree(id, Dir::In)? > 0 {
            return Err(GraphError::NodeHasRelationships(id));
        }
        // Stage index removals for every indexed property.
        let props = self.props(PropOwner::Node(id))?;
        for (key, val) in &props {
            if let Some(code) = self.db.dict().code_of(key) {
                if let Some(pv) = val.to_pval_lookup(self.db.dict()) {
                    self.index_removes.push((n.label, code, pv.index_key(), id));
                }
            }
        }
        let (db, txn) = self.parts()?;
        db.mgr().delete(txn, TableTag::Node, db.nodes(), id)?;
        db.mgr().note_topology(txn, TopoChange::NodeRemoved { id });
        self.deleted.push((TableTag::Node, id));
        if n.props != NIL {
            self.mark_chain_obsolete(n.props)?;
        }
        Ok(())
    }

    /// Delete a node along with all of its relationships.
    pub fn detach_delete_node(&mut self, id: NodeId) -> Result<()> {
        loop {
            let out = self.rels_of(id, Dir::Out, None)?;
            let inc = self.rels_of(id, Dir::In, None)?;
            let Some((rid, _)) = out.into_iter().chain(inc).next() else {
                break;
            };
            self.delete_rel(rid)?;
        }
        self.delete_node(id)
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    fn encode_props(&self, props: &[(&str, Value)]) -> Result<Vec<(u32, PVal)>> {
        props
            .iter()
            .map(|(k, v)| {
                Ok((
                    self.db.intern(k)?,
                    v.to_pval(self.db.dict()).map_err(GraphError::Pmem)?,
                ))
            })
            .collect()
    }

    /// Build a property chain of cache-line-sized batches (DD3); the chain
    /// is written straight to PMem (it becomes reachable only through the
    /// still-locked owner version). Returns the head record id.
    fn build_prop_chain(&mut self, owner: PropOwner, props: &[(u32, PVal)]) -> Result<u64> {
        let owner_id = match owner {
            PropOwner::Node(id) => id,
            PropOwner::Rel(id) => id,
        };
        let mut head = NIL;
        // Build back-to-front so each record's `next` is final at insert.
        for batch in props.rchunks(PROP_SLOTS) {
            let mut rec = PropRecord::new(owner_id);
            rec.next = head;
            for (i, &(key, pv)) in batch.iter().enumerate() {
                let (tag, val) = pv.encode();
                rec.slots[i] = PropSlot {
                    key,
                    tag,
                    _pad: [0; 3],
                    val,
                };
            }
            let (db, txn) = self.parts()?;
            head = db.props().insert(&rec)?;
            txn.track_prop_insert(head);
        }
        Ok(head)
    }

    fn mark_chain_obsolete(&mut self, mut head: u64) -> Result<()> {
        let mut ids = Vec::new();
        while head != NIL {
            ids.push(head);
            head = self.db.props().get(head).next;
        }
        let txn = self.txn_mut()?;
        for id in ids {
            txn.track_prop_obsolete(id);
        }
        Ok(())
    }

    fn props_head(&self, owner: PropOwner) -> Result<u64> {
        Ok(match owner {
            PropOwner::Node(id) => {
                self.node(id)?.ok_or(GraphError::NodeNotFound(id))?.props
            }
            PropOwner::Rel(id) => self.rel(id)?.ok_or(GraphError::RelNotFound(id))?.props,
        })
    }

    /// Read one property.
    pub fn prop(&self, owner: PropOwner, key: &str) -> Result<Option<Value>> {
        let Some(key_code) = self.db.dict().code_of(key) else {
            return Ok(None);
        };
        let mut head = self.props_head(owner)?;
        while head != NIL {
            let rec = self.db.props().get(head);
            for slot in rec.slots {
                if slot.key == key_code {
                    return Ok(PVal::decode(slot.tag, slot.val)
                        .map(|p| Value::from_pval(p, self.db.dict())));
                }
            }
            head = rec.next;
        }
        Ok(None)
    }

    /// Read all properties of a node or relationship.
    pub fn props(&self, owner: PropOwner) -> Result<Vec<(String, Value)>> {
        let mut out = Vec::new();
        let mut head = self.props_head(owner)?;
        while head != NIL {
            let rec = self.db.props().get(head);
            for slot in rec.slots {
                if slot.key != 0 {
                    if let Some(p) = PVal::decode(slot.tag, slot.val) {
                        let key = self.db.dict().string_of(slot.key).unwrap_or_default();
                        out.push((key, Value::from_pval(p, self.db.dict())));
                    }
                }
            }
            head = rec.next;
        }
        Ok(out)
    }

    /// Set (insert or replace) one property. Copies the property chain —
    /// chains are immutable once committed so older snapshots keep reading
    /// the previous version's chain — and versions the owner record.
    pub fn set_prop(&mut self, owner: PropOwner, key: &str, value: Value) -> Result<()> {
        let key_code = self.db.intern(key)?;
        let pv = value.to_pval(self.db.dict()).map_err(GraphError::Pmem)?;
        self.set_prop_coded(owner, key_code, pv)
    }

    // ------------------------------------------------------------------
    // Dictionary-coded operations (used by the query layers, which work on
    // codes rather than strings)
    // ------------------------------------------------------------------

    /// Read one property as its storage-level [`PVal`] (no string
    /// resolution) by dictionary-coded key.
    pub fn prop_pval(&self, owner: PropOwner, key_code: u32) -> Result<Option<PVal>> {
        let mut head = self.props_head(owner)?;
        while head != NIL {
            let rec = self.db.props().get(head);
            for slot in rec.slots {
                if slot.key == key_code {
                    return Ok(PVal::decode(slot.tag, slot.val));
                }
            }
            head = rec.next;
        }
        Ok(None)
    }

    /// Create a node from dictionary codes (plan-level path).
    pub fn create_node_coded(&mut self, label: u32, props: &[(u32, PVal)]) -> Result<NodeId> {
        let (db, txn) = self.parts()?;
        let id = db
            .mgr()
            .insert(txn, TableTag::Node, db.nodes(), NodeRecord::new(label))?;
        db.mgr().note_topology(txn, TopoChange::NodeAdded { id, label });
        db.accel().note_node_label(id, label);
        if !props.is_empty() {
            let head = self.build_prop_chain(PropOwner::Node(id), props)?;
            let (db, txn) = self.parts()?;
            db.mgr()
                .update(txn, TableTag::Node, db.nodes(), id, |n| n.props = head)?;
        }
        // Stage index insertions for matching (label, key) indexes and
        // eagerly widen zone maps (widen-only: safe even if we abort).
        for &(key_code, pv) in props {
            self.db.accel().note_node_prop(key_code, id, pv.index_key());
            self.index_adds.push((label, key_code, pv.index_key(), id));
        }
        Ok(id)
    }

    /// Create a relationship from dictionary codes (plan-level path).
    pub fn create_rel_coded(
        &mut self,
        src: NodeId,
        label: u32,
        dst: NodeId,
        props: &[(u32, PVal)],
    ) -> Result<RelId> {
        let snode = self.node(src)?.ok_or(GraphError::NodeNotFound(src))?;
        let dnode = self.node(dst)?.ok_or(GraphError::NodeNotFound(dst))?;
        let mut rec = RelRecord::new(label, src, dst);
        rec.next_src = snode.first_out;
        rec.next_dst = dnode.first_in;
        let (db, txn) = self.parts()?;
        let id = db.mgr().insert(txn, TableTag::Rel, db.rels(), rec)?;
        db.mgr().note_topology(txn, TopoChange::EdgeAdded { src, dst, label });
        db.accel().note_rel_label(id, label);
        if !props.is_empty() {
            let head = self.build_prop_chain(PropOwner::Rel(id), props)?;
            let (db, txn) = self.parts()?;
            db.mgr()
                .update(txn, TableTag::Rel, db.rels(), id, |r| r.props = head)?;
        }
        let (db, txn) = self.parts()?;
        db.mgr().update(txn, TableTag::Node, db.nodes(), src, |n| {
            n.first_out = id
        })?;
        let (db, txn) = self.parts()?;
        db.mgr()
            .update(txn, TableTag::Node, db.nodes(), dst, |n| n.first_in = id)?;
        Ok(id)
    }

    /// Create the source half of a cross-shard relationship: the record
    /// lives in this shard, linked into `src`'s out-list only; `dst` is a
    /// router-level remote reference (global id with the REMOTE tag bit),
    /// never a local record id. The in-half lives in the destination
    /// shard (see [`crate::shard::ShardedTxn`]).
    pub(crate) fn create_rel_out_half(
        &mut self,
        src: NodeId,
        label: u32,
        remote_dst: u64,
        props: &[(u32, PVal)],
    ) -> Result<RelId> {
        let snode = self.node(src)?.ok_or(GraphError::NodeNotFound(src))?;
        let mut rec = RelRecord::new(label, src, remote_dst);
        rec.next_src = snode.first_out;
        let (db, txn) = self.parts()?;
        let id = db.mgr().insert(txn, TableTag::Rel, db.rels(), rec)?;
        db.mgr().note_topology(txn, TopoChange::EdgeAdded { src, dst: remote_dst, label });
        db.accel().note_rel_label(id, label);
        if !props.is_empty() {
            let head = self.build_prop_chain(PropOwner::Rel(id), props)?;
            let (db, txn) = self.parts()?;
            db.mgr()
                .update(txn, TableTag::Rel, db.rels(), id, |r| r.props = head)?;
        }
        let (db, txn) = self.parts()?;
        db.mgr().update(txn, TableTag::Node, db.nodes(), src, |n| {
            n.first_out = id
        })?;
        Ok(id)
    }

    /// Create the destination half (mirror) of a cross-shard relationship:
    /// linked into `dst`'s in-list only; `src` carries the REMOTE tag bit.
    pub(crate) fn create_rel_in_half(
        &mut self,
        remote_src: u64,
        label: u32,
        dst: NodeId,
    ) -> Result<RelId> {
        let dnode = self.node(dst)?.ok_or(GraphError::NodeNotFound(dst))?;
        let mut rec = RelRecord::new(label, remote_src, dst);
        rec.next_dst = dnode.first_in;
        let (db, txn) = self.parts()?;
        let id = db.mgr().insert(txn, TableTag::Rel, db.rels(), rec)?;
        db.mgr().note_topology(txn, TopoChange::EdgeAdded { src: remote_src, dst, label });
        db.accel().note_rel_label(id, label);
        let (db, txn) = self.parts()?;
        db.mgr()
            .update(txn, TableTag::Node, db.nodes(), dst, |n| n.first_in = id)?;
        Ok(id)
    }

    /// Set one property by code (plan-level path).
    pub fn set_prop_coded(&mut self, owner: PropOwner, key_code: u32, pv: PVal) -> Result<()> {
        // Current properties (as codes) with the key replaced/appended.
        let mut current: Vec<(u32, PVal)> = Vec::new();
        let old_head = self.props_head(owner)?;
        let mut head = old_head;
        while head != NIL {
            let rec = self.db.props().get(head);
            for slot in rec.slots {
                if slot.key != 0 && slot.key != key_code {
                    if let Some(p) = PVal::decode(slot.tag, slot.val) {
                        current.push((slot.key, p));
                    }
                }
            }
            head = rec.next;
        }
        // Index maintenance for nodes.
        if let PropOwner::Node(id) = owner {
            let n = self.node(id)?.ok_or(GraphError::NodeNotFound(id))?;
            if let Some(old) = self.db.committed_prop(old_head, key_code) {
                self.index_removes.push((n.label, key_code, old.index_key(), id));
            }
            self.db.accel().note_node_prop(key_code, id, pv.index_key());
            self.index_adds.push((n.label, key_code, pv.index_key(), id));
        }
        current.push((key_code, pv));
        let new_head = self.build_prop_chain(owner, &current)?;
        if old_head != NIL {
            self.mark_chain_obsolete(old_head)?;
        }
        let (db, txn) = self.parts()?;
        match owner {
            PropOwner::Node(id) => {
                db.mgr().update(txn, TableTag::Node, db.nodes(), id, |n| {
                    n.props = new_head
                })?;
            }
            PropOwner::Rel(id) => {
                db.mgr().update(txn, TableTag::Rel, db.rels(), id, |r| {
                    r.props = new_head
                })?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Index lookups
    // ------------------------------------------------------------------

    /// Look up nodes via a secondary index; falls back to a full label scan
    /// when no index exists. Results are verified against the snapshot
    /// (indexes are secondary and may briefly run ahead/behind).
    pub fn lookup_nodes(&self, label: &str, key: &str, value: &Value) -> Result<Vec<NodeId>> {
        let Some(label_code) = self.db.dict().code_of(label) else {
            return Ok(Vec::new());
        };
        let Some(key_code) = self.db.dict().code_of(key) else {
            return Ok(Vec::new());
        };
        let Some(pv) = value.to_pval_lookup(self.db.dict()) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        if let Some(tree) = self.db.index_for(label_code, key_code) {
            for id in tree.lookup(pv.index_key()) {
                if let Some(n) = self.node(id)? {
                    if n.label == label_code
                        && self.db.committed_prop(n.props, key_code) == Some(pv)
                    {
                        out.push(id);
                    }
                }
            }
        } else {
            // Scan fallback (what the paper's non-indexed PMem-s/p numbers do).
            let mut hits = Vec::new();
            self.db.nodes().for_each_live(|id, _| hits.push(id));
            for id in hits {
                if let Some(n) = self.node(id)? {
                    if n.label == label_code
                        && self.db.committed_prop(n.props, key_code) == Some(pv)
                    {
                        out.push(id);
                    }
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit the transaction. On success the staged index updates are
    /// applied and reclaimable slots are registered.
    pub fn commit(mut self) -> Result<()> {
        let txn = self.inner.take().ok_or(GraphError::TxnFinished)?;
        let commit_ts = txn.id;
        self.db
            .mgr()
            .commit(txn, self.db.nodes(), self.db.rels(), self.db.props())?;
        self.post_commit(commit_ts);
        Ok(())
    }

    /// First half of [`commit`](Self::commit) for the cross-shard
    /// two-phase epoch commit: runs the MVTO prepare (history moves,
    /// staged-version extraction, persist-batch build) but does not
    /// persist anything. Returns `None` for a read-only transaction,
    /// which is finished immediately. On `Some`, the caller must make the
    /// pending batch durable (via `pmem::commit_epoch` together with the
    /// other shards' batches) and then call
    /// [`finish_commit`](Self::finish_commit) on this same handle.
    pub(crate) fn prepare_commit(&mut self) -> Result<Option<gtxn::PendingCommit>> {
        let txn = self.inner.take().ok_or(GraphError::TxnFinished)?;
        Ok(self
            .db
            .mgr()
            .prepare_commit(txn, self.db.nodes(), self.db.rels(), self.db.props())?)
    }

    /// Second half of [`commit`](Self::commit): run after the pending
    /// batch has been persisted by the cross-shard epoch commit.
    pub(crate) fn finish_commit(&mut self, pending: gtxn::PendingCommit) {
        let commit_ts = pending.txn_id();
        self.db.mgr().finish_commit(pending, self.db.props());
        self.post_commit(commit_ts);
    }

    /// The other way out of [`prepare_commit`](Self::prepare_commit): the
    /// cross-shard persist failed with the pools untouched, so abort.
    pub(crate) fn abort_commit(&mut self, pending: gtxn::PendingCommit) {
        let db = self.db;
        db.mgr()
            .abort_commit(pending, db.nodes(), db.rels(), db.props());
    }

    /// Post-persist bookkeeping shared by the single-shard and cross-shard
    /// commit paths.
    fn post_commit(&mut self, commit_ts: u64) {
        // Replay staged property writes into the zone maps: the eager notes
        // at write time no-op for keys that were not yet registered, so
        // this covers keys indexed while the transaction was in flight.
        for &(_, key, ikey, id) in &self.index_adds {
            self.db.accel().note_node_prop(key, id, ikey);
        }
        self.db
            .apply_index_updates(&self.index_adds, &self.index_removes);
        for &(tag, id) in &self.deleted {
            self.db.defer_slot_free(commit_ts, tag, id);
        }
        self.db.reclaim_deleted();
    }

    /// Abort the transaction explicitly (drop does the same).
    pub fn abort(mut self) {
        if let Some(txn) = self.inner.take() {
            self.db
                .mgr()
                .abort(txn, self.db.nodes(), self.db.rels(), self.db.props());
        }
    }
}

impl Drop for GraphTxn<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.inner.take() {
            if txn.is_read_only() {
                // A dropped read-only transaction simply finishes: there is
                // nothing to roll back and counting it as an abort would
                // pollute the conflict statistics.
                let _ = self
                    .db
                    .mgr()
                    .commit(txn, self.db.nodes(), self.db.rels(), self.db.props());
            } else {
                self.db
                    .mgr()
                    .abort(txn, self.db.nodes(), self.db.rels(), self.db.props());
            }
        }
    }
}
