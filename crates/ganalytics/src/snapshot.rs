//! DRAM CSR snapshots of the transactional graph.
//!
//! A [`CsrSnapshot`] is the OLAP lane's read-optimised copy: the node set,
//! out-/in-adjacency and selected property columns visible at **one MVTO
//! read timestamp**, laid out as flat arrays (classic compressed sparse
//! row) so the kernels in [`crate::algo`] run chunked, branch-light inner
//! loops at DRAM speed while OLTP continues against the PMem tables.
//!
//! The build walks both chunked tables chunk-at-a-time and claims the
//! single-version fast path per chunk ([`GraphTxn::try_fast_chunk`]):
//! chunks without in-flight or versioned records are copied with inline
//! visibility checks and no version-chain probes or `rts` bumps; dirty
//! chunks fall back to the full MVTO read. The claim publishes a
//! chunk-grain `read_ts`, so a writer that would invalidate the copy
//! mid-build aborts and retries instead — the snapshot is transactionally
//! consistent, indistinguishable from an interpreted scan at the same
//! timestamp (the root `snapshot_consistency` proptest pins exactly this).
//!
//! Determinism: nodes are collected in ascending id order and both edge
//! directions are sorted canonically — `(src, dst)` for the out-CSR,
//! `(dst, src)` for the in-CSR — so a snapshot's layout (and therefore
//! every kernel's float output) depends only on the visible graph, never
//! on build interleaving — nor on whether the arrays were built or
//! [refreshed](CsrSnapshot::refresh): a stale snapshot plus the committed
//! changes the topology journal holds since its timestamp merge, in one
//! linear pass and without reading a record, into exactly the arrays a
//! build at the new timestamp would produce (DESIGN.md §12).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use graphcore::shard::{self, ShardedDb};
use graphcore::{GraphDb, GraphTxn, NodeId, PropOwner, Result};
use gstore::PVal;
use gtxn::{JournalMiss, TableTag, TopoChange};

use crate::obs::{self, Fallback};

/// What to materialise: label filters plus property columns. Snapshots are
/// cached per spec ([`crate::SnapshotCache`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SnapshotSpec {
    /// Restrict the node set to one label code (`None` = every node).
    pub node_label: Option<u32>,
    /// Restrict edges to one relationship label code (`None` = every rel).
    pub rel_label: Option<u32>,
    /// Node property key codes to materialise as columns aligned with
    /// [`CsrSnapshot::nodes`].
    pub node_props: Vec<u32>,
}

/// Build diagnostics: how much of the copy rode the fast path, or that it
/// was not a copy at all but a [refresh](CsrSnapshot::refresh).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Chunks copied through (refresh: claimed for) the single-version path.
    pub fast_chunks: u64,
    /// Chunks that needed full MVTO reads (version-chain walks).
    pub slow_chunks: u64,
    /// Wall-clock build (or refresh) time.
    pub build_time: Duration,
    /// True if merged from its predecessor and the journal, no record read.
    pub refreshed: bool,
    /// Journal changes that refresh applied.
    pub changes: u64,
}

/// An immutable DRAM CSR copy of the graph at one read timestamp. Shared
/// read-only across algorithm workers (`&self` everywhere).
pub struct CsrSnapshot {
    spec: SnapshotSpec,
    /// MVTO read timestamp the snapshot is consistent at.
    read_ts: u64,
    /// [`GraphDb::mutation_epoch`] captured *before* the read transaction
    /// began: conservative, so a commit racing the build forces a refresh
    /// rather than a stale reuse.
    epoch: u64,
    /// The topology journal's cut this snapshot took: entries that arrived
    /// before it are reflected iff their timestamp is below `read_ts`.
    journal_seq: u64,
    /// Dense index → node id, ascending.
    nodes: Vec<NodeId>,
    out_offsets: Vec<u32>,
    /// Neighbour dense indexes, sorted per source.
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    /// Source dense indexes, sorted per target.
    in_targets: Vec<u32>,
    /// `(key code, column)` pairs, columns aligned with `nodes`.
    props: Vec<(u32, Vec<PVal>)>,
    stats: BuildStats,
}

impl CsrSnapshot {
    /// Materialise a snapshot in its own read transaction.
    pub fn build(db: &GraphDb, spec: SnapshotSpec) -> Result<CsrSnapshot> {
        Self::in_own_txn(db, |txn, epoch| Self::build_in(db, txn, spec, epoch))
    }

    fn in_own_txn(
        db: &GraphDb,
        make: impl FnOnce(&GraphTxn<'_>, u64) -> Result<CsrSnapshot>,
    ) -> Result<CsrSnapshot> {
        // Journal armed and epoch read before `begin`: every commit the
        // snapshot does not see is journaled, and one that lands between
        // here and `begin` makes the cache refresh once too often, never
        // serve stale.
        db.mgr().arm_topology_journal();
        let epoch = db.mutation_epoch();
        let txn = db.begin();
        let snap = make(&txn, epoch)?;
        txn.commit()?;
        Ok(snap)
    }

    /// Materialise a snapshot inside an existing transaction — the
    /// consistency tests use this to compare the CSR against interpreted
    /// reads (and a refresh against a build) at the *same* timestamp.
    pub fn build_at(txn: &GraphTxn<'_>, spec: SnapshotSpec) -> Result<CsrSnapshot> {
        let db = txn.db();
        Self::build_in(db, txn, spec, db.mutation_epoch())
    }

    /// Materialise a snapshot of a sharded database: every shard is
    /// scanned **in parallel** in its own read transaction (ids translated
    /// to global on the fly, mirror halves of cross-shard edges skipped so
    /// each edge counts once), then the per-shard results are stitched
    /// into one canonical CSR. With one shard this is exactly [`build`].
    ///
    /// Consistency: each shard's slice is a transactionally consistent
    /// MVTO snapshot of that shard; the stitch is *per-shard* snapshot
    /// isolated, not a single global timestamp (per-shard timestamp
    /// domains — DESIGN.md §13). The epoch tag sums the shards' mutation
    /// epochs, so the cache revalidation discipline is unchanged: any
    /// commit anywhere forces a rebuild.
    ///
    /// [`build`]: CsrSnapshot::build
    pub fn build_sharded(db: &ShardedDb, spec: SnapshotSpec) -> Result<CsrSnapshot> {
        if db.shard_count() == 1 {
            return Self::build(db.shard(0), spec);
        }
        let clock = (gobs::span_start(), Instant::now());
        let epoch = db.mutation_epoch();

        // ---- fan out: one scan per shard ----
        let mut slots: Vec<Option<Result<ShardScan>>> =
            (0..db.shard_count()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let spec = &spec;
                scope.spawn(move || *slot = Some(scan_shard(db, i, spec)));
            }
        });
        let scans = slots
            .into_iter()
            .map(|s| s.expect("shard scan thread completed"))
            .collect::<Result<Vec<_>>>()?;

        // ---- stitch: merge node sets, re-densify edges, pack ----
        let mut stats = BuildStats::default();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for (scan, _, _) in &scans {
            stats.fast_chunks += scan.stats.fast_chunks;
            stats.slow_chunks += scan.stats.slow_chunks;
            nodes.extend_from_slice(&scan.nodes);
            edges.extend_from_slice(&scan.edges);
        }
        nodes.sort_unstable();
        let scan = TableScan { nodes, edges, stats };
        let mut snap = Self::assemble(spec, scans[0].2, epoch, 0, scan, Vec::new(), clock);

        // ---- scatter per-shard property columns into merged order ----
        for (ki, &key) in snap.spec.node_props.iter().enumerate() {
            let mut col = vec![PVal::Null; snap.nodes.len()];
            for (scan, cols, _) in &scans {
                for (j, &gid) in scan.nodes.iter().enumerate() {
                    if let Some(d) = snap.index_of(gid) {
                        col[d as usize] = cols[ki][j];
                    }
                }
            }
            snap.props.push((key, col));
        }
        Ok(snap)
    }

    fn build_in(
        db: &GraphDb,
        txn: &GraphTxn<'_>,
        spec: SnapshotSpec,
        epoch: u64,
    ) -> Result<CsrSnapshot> {
        let clock = (gobs::span_start(), Instant::now());
        // The cut precedes the scan: what is journaled by now, the scan
        // sees whole. (Arming here is too late for a transaction begun
        // before — the journal then reports the gap as an overflow.)
        let journal_seq = db.mgr().arm_topology_journal();
        let scan = scan_tables(db, txn, &spec, |id| id)?;
        let cols = prop_columns(txn, &spec, &scan.nodes)?;
        let props = spec.node_props.iter().copied().zip(cols).collect();
        Ok(Self::assemble(spec, txn.id(), epoch, journal_seq, scan, props, clock))
    }

    /// The canonical CSR of a scanned node set (ascending ids) and edge
    /// list (id pairs, any order): edges with an endpoint outside the node
    /// set are dropped, the rest sorted `(src, dst)` for the out- and
    /// `(dst, src)` for the in-direction.
    fn assemble(
        spec: SnapshotSpec,
        read_ts: u64,
        epoch: u64,
        journal_seq: u64,
        scan: TableScan,
        props: Vec<(u32, Vec<PVal>)>,
        (span, start): (Option<Instant>, Instant),
    ) -> CsrSnapshot {
        let TableScan { nodes, edges, mut stats } = scan;
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(nodes.len() < u32::MAX as usize, "CSR snapshot limited to u32 dense indexes");
        // Node id → dense index, direct: ids are table slots, so the table
        // is as long as the node table and resolves an endpoint in one load.
        let mut dense = vec![u32::MAX; nodes.last().map_or(0, |&id| id as usize + 1)];
        for (i, &id) in nodes.iter().enumerate() {
            dense[id as usize] = i as u32;
        }
        let at = |id: u64| dense.get(id as usize).copied().filter(|&d| d != u32::MAX);
        let mut edges: Vec<(u32, u32)> = edges
            .iter()
            .filter_map(|&(s, d)| Some((at(s)?, at(d)?)))
            .collect();

        let n = nodes.len();
        edges.sort_unstable();
        let (out_offsets, out_targets) = pack(&edges, n, |&(s, d)| (s, d));
        edges.sort_unstable_by_key(|&(s, d)| (d, s));
        let (in_offsets, in_targets) = pack(&edges, n, |&(s, d)| (d, s));

        stats.build_time = start.elapsed();
        obs::snapshot_build().inc();
        obs::fast_chunks(stats.fast_chunks);
        obs::slow_chunks(stats.slow_chunks);
        obs::build_span(span);
        CsrSnapshot {
            spec,
            read_ts,
            epoch,
            journal_seq,
            nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            props,
            stats,
        }
    }

    /// This snapshot carried forward to a fresh read timestamp of `db`
    /// (the database it was built from), in its own read transaction:
    /// merged from its arrays and the topology journal when it can be,
    /// [built](Self::build) when it cannot — either way indistinguishable
    /// from a build at that timestamp, with a build's retryable conflicts.
    pub fn refresh(&self, db: &GraphDb) -> Result<CsrSnapshot> {
        Self::in_own_txn(db, |txn, epoch| self.refresh_in(db, txn, epoch))
    }

    /// [`refresh`](Self::refresh) inside an existing (newer) transaction.
    pub fn refresh_at(&self, txn: &GraphTxn<'_>) -> Result<CsrSnapshot> {
        let db = txn.db();
        self.refresh_in(db, txn, db.mutation_epoch())
    }

    fn refresh_in(&self, db: &GraphDb, txn: &GraphTxn<'_>, epoch: u64) -> Result<CsrSnapshot> {
        let start = Instant::now();
        let (changes, journal_seq, chunks) = match self.journal_delta(db, txn) {
            Ok(delta) => delta,
            Err(reason) => {
                obs::refresh_fallback(reason);
                return Self::build_in(db, txn, self.spec.clone(), epoch);
            }
        };
        let (nodes, (out_offsets, out_targets), (in_offsets, in_targets)) = self.merged(&changes);
        obs::snapshot_refresh(changes.len() as u64);
        Ok(CsrSnapshot {
            spec: self.spec.clone(),
            read_ts: txn.id(),
            epoch,
            journal_seq,
            nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            props: Vec::new(),
            stats: BuildStats {
                fast_chunks: chunks,
                slow_chunks: 0,
                build_time: start.elapsed(),
                refreshed: true,
                changes: changes.len() as u64,
            },
        })
    }

    /// What the journal says changed between this snapshot and `txn`, its
    /// new cut, and the chunks claimed — or why it cannot say.
    ///
    /// Claiming every chunk publishes `txn`'s timestamp as each chunk's
    /// `read_ts`, the barrier a build publishes chunk by chunk as it
    /// scans: an older writer that locks a record afterwards aborts. A
    /// claim succeeds only on a chunk without write intents, and a commit
    /// journals before it retires its intents — so once every claim has
    /// succeeded, every older transaction that changed an existing record
    /// has either journaled or will abort. (One that only *inserts* can
    /// still commit; the next refresh meets it as a late writer.)
    fn journal_delta(
        &self,
        db: &GraphDb,
        txn: &GraphTxn<'_>,
    ) -> std::result::Result<(Vec<TopoChange>, u64, u64), Fallback> {
        if !self.spec.node_props.is_empty() {
            return Err(Fallback::Props);
        }
        if txn.id() <= self.read_ts {
            return Err(Fallback::JournalOverflow); // not a later timestamp
        }
        let tables = [
            (TableTag::Node, db.nodes().chunk_count()),
            (TableTag::Rel, db.rels().chunk_count()),
        ];
        for (tag, chunks) in tables {
            if !(0..chunks).all(|ci| txn.try_fast_chunk(tag, ci)) {
                return Err(Fallback::DirtyChunk);
            }
        }
        let (changes, seq) = db
            .mgr()
            .topology_journal()
            .delta(self.read_ts, self.journal_seq, txn.id())
            .map_err(|miss| match miss {
                JournalMiss::Overflow => Fallback::JournalOverflow,
                JournalMiss::LateWriter => Fallback::LateWriter,
            })?;
        Ok((changes, seq, (tables[0].1 + tables[1].1) as u64))
    }

    /// The node array and both CSR directions after `changes` (timestamp
    /// order): one pass over the changes, then one linear merge per array.
    fn merged(&self, changes: &[TopoChange]) -> (Vec<NodeId>, Csr, Csr) {
        // ---- net effect, in id space ----
        // Membership is judged when a change happens, as the build judges
        // it when it scans: an edge counts while both its endpoints are in
        // the (label-filtered) node set.
        let spec = &self.spec;
        let mut node_now: BTreeMap<NodeId, bool> = BTreeMap::new();
        let mut edge_net: BTreeMap<(NodeId, NodeId), i64> = BTreeMap::new();
        for &change in changes {
            let present = |id: NodeId| {
                node_now
                    .get(&id)
                    .copied()
                    .unwrap_or_else(|| self.nodes.binary_search(&id).is_ok())
            };
            match change {
                TopoChange::NodeAdded { id, label } => {
                    if spec.node_label.is_none_or(|l| l == label) {
                        node_now.insert(id, true);
                    }
                }
                TopoChange::NodeRemoved { id } => {
                    node_now.insert(id, false);
                }
                TopoChange::EdgeAdded { src, dst, label }
                | TopoChange::EdgeRemoved { src, dst, label } => {
                    if spec.rel_label.is_none_or(|l| l == label) && present(src) && present(dst) {
                        let sign = if matches!(change, TopoChange::EdgeAdded { .. }) { 1 } else { -1 };
                        *edge_net.entry((src, dst)).or_default() += sign;
                    }
                }
            }
        }

        // ---- node array and the old → new dense-index remap ----
        let old = &self.nodes;
        let mut nodes: Vec<NodeId> = Vec::with_capacity(old.len() + node_now.len());
        let mut remap = vec![u32::MAX; old.len()];
        let mut overlay = node_now.iter().peekable();
        for (o, &id) in old.iter().enumerate() {
            while let Some((&new, &keep)) = overlay.next_if(|&(&other, _)| other < id) {
                if keep {
                    nodes.push(new);
                }
            }
            if overlay.next_if(|&(&other, _)| other == id).is_none_or(|(_, &keep)| keep) {
                remap[o] = nodes.len() as u32;
                nodes.push(id);
            }
        }
        nodes.extend(overlay.filter(|&(_, &keep)| keep).map(|(&id, _)| id));
        assert!(nodes.len() < u32::MAX as usize, "CSR snapshot limited to u32 dense indexes");

        // ---- edge delta in dense indexes: removals old, additions new ----
        let pair = |ids: &[NodeId], (s, d): (NodeId, NodeId)| {
            Some((ids.binary_search(&s).ok()? as u32, ids.binary_search(&d).ok()? as u32))
        };
        let (mut dels, mut adds) = (Vec::new(), Vec::new());
        for (&edge, &net) in &edge_net {
            let (ids, list) = if net < 0 { (old, &mut dels) } else { (&nodes, &mut adds) };
            if let Some(p) = pair(ids, edge) {
                list.extend(std::iter::repeat_n(p, net.unsigned_abs() as usize));
            }
        }
        // Id order is dense order, so both lists are sorted (row, target)
        // for the out-direction already; the in-direction re-sorts its own.
        let out = merge_csr(&self.out_offsets, &self.out_targets, &remap, nodes.len(), &dels, &adds);
        let flip = |list: &mut Vec<(u32, u32)>| {
            list.iter_mut().for_each(|e| *e = (e.1, e.0));
            list.sort_unstable();
        };
        flip(&mut dels);
        flip(&mut adds);
        let inc = merge_csr(&self.in_offsets, &self.in_targets, &remap, nodes.len(), &dels, &adds);
        (nodes, out, inc)
    }

    /// The spec this snapshot materialises.
    pub fn spec(&self) -> &SnapshotSpec {
        &self.spec
    }

    /// The MVTO read timestamp the snapshot is consistent at.
    pub fn read_ts(&self) -> u64 {
        self.read_ts
    }

    /// The mutation epoch the snapshot was built at; current while
    /// [`GraphDb::mutation_epoch`] still returns this value.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Build diagnostics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Dense index → node id, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Node id of dense index `i`.
    pub fn node_id(&self, i: u32) -> NodeId {
        self.nodes[i as usize]
    }

    /// Dense index of a node id, if present.
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        self.nodes.binary_search(&id).ok().map(|i| i as u32)
    }

    /// Outgoing neighbour dense indexes of `u`, sorted.
    pub fn out(&self, u: u32) -> &[u32] {
        let (a, b) = (
            self.out_offsets[u as usize] as usize,
            self.out_offsets[u as usize + 1] as usize,
        );
        &self.out_targets[a..b]
    }

    /// Out-degree of `u`.
    pub fn out_deg(&self, u: u32) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// Incoming source dense indexes of `v`, sorted.
    pub fn inc(&self, v: u32) -> &[u32] {
        let (a, b) = (
            self.in_offsets[v as usize] as usize,
            self.in_offsets[v as usize + 1] as usize,
        );
        &self.in_targets[a..b]
    }

    /// A materialised property column, aligned with [`CsrSnapshot::nodes`].
    pub fn prop_col(&self, key: u32) -> Option<&[PVal]> {
        self.props
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, col)| col.as_slice())
    }
}

/// Two-pass CSR pack of pre-sorted edges: `key` maps an edge to
/// `(bucket, value)`.
fn pack(
    edges: &[(u32, u32)],
    n: usize,
    key: impl Fn(&(u32, u32)) -> (u32, u32),
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        offsets[key(e).0 as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0u32; edges.len()];
    let mut cur: Vec<u32> = offsets[..n].to_vec();
    for e in edges {
        let (b, v) = key(e);
        targets[cur[b as usize] as usize] = v;
        cur[b as usize] += 1;
    }
    (offsets, targets)
}

/// One direction of a CSR: `(offsets, targets)`.
type Csr = (Vec<u32>, Vec<u32>);

/// One direction of a CSR carried through a node remap and an edge delta
/// in a single pass: `remap` maps old dense indexes to new ones
/// (`u32::MAX` = the node is gone, and its row and every reference to it
/// with it), `dels` are `(row, target)` in **old** indexes, `adds` in
/// **new** ones, both sorted. Rows stay sorted because the remap is
/// monotone.
fn merge_csr(
    old_offsets: &[u32],
    old_targets: &[u32],
    remap: &[u32],
    n: usize,
    dels: &[(u32, u32)],
    adds: &[(u32, u32)],
) -> Csr {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(old_targets.len() + adds.len());
    let (mut u, mut di, mut ai) = (0usize, 0usize, 0usize);
    for v in 0..n as u32 {
        offsets.push(targets.len() as u32);
        while u < remap.len() && remap[u] == u32::MAX {
            u += 1;
        }
        if u < remap.len() && remap[u] == v {
            while di < dels.len() && (dels[di].0 as usize) < u {
                di += 1;
            }
            for &t in &old_targets[old_offsets[u] as usize..old_offsets[u + 1] as usize] {
                while di < dels.len() && dels[di] < (u as u32, t) {
                    di += 1;
                }
                if di < dels.len() && dels[di] == (u as u32, t) {
                    di += 1;
                    continue;
                }
                let t = remap[t as usize];
                if t == u32::MAX {
                    continue;
                }
                while ai < adds.len() && adds[ai] < (v, t) {
                    targets.push(adds[ai].1);
                    ai += 1;
                }
                targets.push(t);
            }
            u += 1;
        }
        while ai < adds.len() && adds[ai].0 == v {
            targets.push(adds[ai].1);
            ai += 1;
        }
    }
    offsets.push(targets.len() as u32);
    (offsets, targets)
}

/// What one pass over a database's two tables sees at a transaction's
/// timestamp, ids mapped by the caller.
struct TableScan {
    /// Visible nodes carrying the spec's label, ascending.
    nodes: Vec<NodeId>,
    /// Visible relationships carrying the spec's label, as `(src, dst)`;
    /// the mirror half of a cross-shard edge (tagged `src`) is skipped, so
    /// a stitched CSR counts the edge once — and a lone shard not at all.
    edges: Vec<(NodeId, NodeId)>,
    stats: BuildStats,
}

/// Scan the node and relationship tables chunk-at-a-time at `txn`'s
/// timestamp, claiming the single-version fast path per chunk. `map_id`
/// translates record ids and endpoints (identity, or local → global).
fn scan_tables(
    db: &GraphDb,
    txn: &GraphTxn<'_>,
    spec: &SnapshotSpec,
    map_id: impl Fn(u64) -> u64,
) -> Result<TableScan> {
    let mut stats = BuildStats::default();
    let mut claim = |tag, ci| {
        let fast = txn.try_fast_chunk(tag, ci);
        if fast {
            stats.fast_chunks += 1;
        } else {
            stats.slow_chunks += 1;
        }
        fast
    };
    let mut ids: Vec<u64> = Vec::new();

    // Ascending id order: chunks ascend, bitmap iteration within a chunk
    // ascends (and `gid = lid * N + shard` preserves it within a shard).
    let mut nodes: Vec<NodeId> = Vec::new();
    for ci in 0..db.nodes().chunk_count() {
        let fast = claim(TableTag::Node, ci);
        ids.clear();
        db.nodes().for_each_live_id(ci, &mut |id| ids.push(id));
        for &id in &ids {
            let rec = if fast { txn.node_fast(id)? } else { txn.node(id)? };
            if rec.is_some_and(|rec| spec.node_label.is_none_or(|l| rec.label == l)) {
                nodes.push(map_id(id));
            }
        }
    }

    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for ci in 0..db.rels().chunk_count() {
        let fast = claim(TableTag::Rel, ci);
        ids.clear();
        db.rels().for_each_live_id(ci, &mut |id| ids.push(id));
        for &id in &ids {
            let rec = if fast { txn.rel_fast(id)? } else { txn.rel(id)? };
            if let Some(rec) = rec {
                if !shard::is_remote(rec.src) && spec.rel_label.is_none_or(|l| rec.label == l) {
                    edges.push((map_id(rec.src), map_id(rec.dst)));
                }
            }
        }
    }
    Ok(TableScan { nodes, edges, stats })
}

/// One shard's contribution to a sharded build, in **global** ids: its
/// scan, one property column per requested key, and its read timestamp.
type ShardScan = (TableScan, Vec<Vec<PVal>>, u64);

fn scan_shard(sdb: &ShardedDb, shard_idx: usize, spec: &SnapshotSpec) -> Result<ShardScan> {
    let db = sdb.shard(shard_idx);
    let txn = db.begin();
    let scan = scan_tables(db, &txn, spec, |raw| sdb.endpoint_global(shard_idx, raw))?;
    let local: Vec<NodeId> = scan.nodes.iter().map(|&gid| sdb.router().local_of(gid)).collect();
    let cols = prop_columns(&txn, spec, &local)?;
    let read_ts = txn.id();
    txn.commit()?;
    Ok((scan, cols, read_ts))
}

/// One column per requested property key, aligned with `nodes` (local ids).
fn prop_columns(
    txn: &GraphTxn<'_>,
    spec: &SnapshotSpec,
    nodes: &[NodeId],
) -> Result<Vec<Vec<PVal>>> {
    let column = |&key: &u32| {
        let cell = |&id: &NodeId| Ok(txn.prop_pval(PropOwner::Node(id), key)?.unwrap_or(PVal::Null));
        nodes.iter().map(cell).collect()
    };
    spec.node_props.iter().map(column).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DbOptions, Value};

    fn tiny_db() -> GraphDb {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut tx = db.begin();
        let a = tx.create_node("Person", &[("age", Value::Int(30))]).unwrap();
        let b = tx.create_node("Person", &[("age", Value::Int(40))]).unwrap();
        let c = tx.create_node("City", &[]).unwrap();
        tx.create_rel(a, "KNOWS", b, &[]).unwrap();
        tx.create_rel(b, "KNOWS", a, &[]).unwrap();
        tx.create_rel(a, "LIVES_IN", c, &[]).unwrap();
        tx.commit().unwrap();
        db
    }

    #[test]
    fn snapshot_matches_graph_shape() {
        let db = tiny_db();
        let snap = CsrSnapshot::build(&db, SnapshotSpec::default()).unwrap();
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.edge_count(), 3);
        // Ascending ids, binary-searchable.
        for (i, &id) in snap.nodes().iter().enumerate() {
            assert_eq!(snap.index_of(id), Some(i as u32));
        }
        // Out-adjacency of node 0 (two out edges) is sorted.
        let outs = snap.out(0);
        assert_eq!(outs.len(), 2);
        assert!(outs.windows(2).all(|w| w[0] <= w[1]));
        // A fresh quiescent DB rides the fast path for every chunk.
        assert!(snap.stats().fast_chunks > 0);
        assert_eq!(snap.stats().slow_chunks, 0);
    }

    #[test]
    fn label_filters_restrict_nodes_and_edges() {
        let db = tiny_db();
        let person = db.intern("Person").unwrap();
        let knows = db.intern("KNOWS").unwrap();
        let snap = CsrSnapshot::build(
            &db,
            SnapshotSpec {
                node_label: Some(person),
                rel_label: Some(knows),
                node_props: vec![],
            },
        )
        .unwrap();
        assert_eq!(snap.node_count(), 2);
        assert_eq!(snap.edge_count(), 2, "LIVES_IN and the City node are gone");
    }

    #[test]
    fn property_columns_align_with_nodes() {
        let db = tiny_db();
        let age = db.intern("age").unwrap();
        let snap = CsrSnapshot::build(
            &db,
            SnapshotSpec {
                node_label: None,
                rel_label: None,
                node_props: vec![age],
            },
        )
        .unwrap();
        let col = snap.prop_col(age).unwrap();
        assert_eq!(col.len(), snap.node_count());
        assert_eq!(col[0], PVal::Int(30));
        assert_eq!(col[1], PVal::Int(40));
        assert_eq!(col[2], PVal::Null, "City has no age");
    }

    #[test]
    fn sharded_build_stitches_cross_shard_edges_once() {
        use graphcore::shard::ShardOptions;
        let db = ShardedDb::create(ShardOptions::dram(48 << 20).shards(4)).unwrap();
        let mut tx = db.begin();
        // Round-robin spreads these across all four shards.
        let ids: Vec<_> = (0..8)
            .map(|i| tx.create_node("Person", &[("age", Value::Int(i))]).unwrap())
            .collect();
        // A ring: seven of the eight edges are cross-shard.
        for i in 0..8 {
            tx.create_rel(ids[i], "KNOWS", ids[(i + 1) % 8], &[]).unwrap();
        }
        tx.commit().unwrap();

        let age = db.intern("age").unwrap();
        let snap = CsrSnapshot::build_sharded(
            &db,
            SnapshotSpec {
                node_label: None,
                rel_label: None,
                node_props: vec![age],
            },
        )
        .unwrap();
        assert_eq!(snap.node_count(), 8);
        assert_eq!(snap.edge_count(), 8, "each cross-shard edge counted once");
        // Every node has exactly one out- and one in-neighbour, and the
        // adjacency matches the ring in global ids.
        for (i, &id) in ids.iter().enumerate() {
            let u = snap.index_of(id).unwrap();
            assert_eq!(snap.out_deg(u), 1);
            assert_eq!(snap.inc(u).len(), 1);
            let next = snap.index_of(ids[(i + 1) % 8]).unwrap();
            assert_eq!(snap.out(u), &[next]);
        }
        // Property columns scattered back into merged dense order.
        let col = snap.prop_col(age).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let u = snap.index_of(id).unwrap();
            assert_eq!(col[u as usize], PVal::Int(i as i64));
        }
    }

    #[test]
    fn sharded_build_single_shard_matches_plain_build() {
        use graphcore::shard::ShardOptions;
        let db = ShardedDb::create(ShardOptions::dram(48 << 20).shards(1)).unwrap();
        let mut tx = db.begin();
        let a = tx.create_node("N", &[]).unwrap();
        let b = tx.create_node("N", &[]).unwrap();
        tx.create_rel(a, "E", b, &[]).unwrap();
        tx.commit().unwrap();
        let sharded = CsrSnapshot::build_sharded(&db, SnapshotSpec::default()).unwrap();
        let plain = CsrSnapshot::build(db.shard(0), SnapshotSpec::default()).unwrap();
        assert_eq!(sharded.nodes(), plain.nodes());
        assert_eq!(sharded.edge_count(), plain.edge_count());
    }

    #[test]
    fn snapshot_aborts_retryably_under_live_inserts() {
        let db = tiny_db();
        // A writer that began *before* the snapshot's read timestamp may
        // still commit below it, so MVTO must abort the reader — as a
        // retryable error — rather than materialise a maybe-stale
        // snapshot. (Inserts by transactions *newer* than the snapshot
        // are invisible and skipped, not aborted on.)
        let mut w = db.begin();
        let d = w.create_node("Person", &[]).unwrap();
        let e = w.create_node("Person", &[]).unwrap();
        w.create_rel(d, "KNOWS", e, &[]).unwrap();
        let err = match CsrSnapshot::build(&db, SnapshotSpec::default()) {
            Ok(_) => panic!("build must abort while an older writer is live"),
            Err(e) => e,
        };
        match err {
            graphcore::GraphError::Txn(t) => assert!(t.is_retryable(), "{t:?}"),
            other => panic!("expected a retryable txn error, got {other:?}"),
        }
        w.commit().unwrap();
        // Once the writer is resolved the retry succeeds and sees its state.
        let snap = CsrSnapshot::build(&db, SnapshotSpec::default()).unwrap();
        assert_eq!(snap.node_count(), 5);
        assert_eq!(snap.edge_count(), 4);
    }
}
