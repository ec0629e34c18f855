//! DRAM read-acceleration metadata: per-chunk zone maps over the
//! persistent tables.
//!
//! The paper keeps every translation structure volatile because PMem reads
//! cost ~3× DRAM (C1); this module extends that principle to scans. For
//! each 64-record chunk it tracks, purely in DRAM:
//!
//! * a **label bitset** (bit `label & 63`) of every label ever stored in
//!   the chunk, for nodes and relationships;
//! * per registered property key, the **min/max index key** ever stored
//!   for a node in the chunk (a zone map).
//!
//! Scans with sargable leading conjuncts consult these maps to skip whole
//! chunks without touching PMem. All metadata is *widen-only*: creates and
//! property writes widen zones eagerly (before commit), commits replay the
//! staged index updates (covering keys registered while the transaction
//! was in flight), and aborts leave zones stale-wide — which can only cost
//! a false "may match", never a wrong prune. Chunks with no entry have
//! never stored a matching record since the last rebuild and are prunable.
//!
//! [`GraphDb::open`](crate::GraphDb::open) rebuilds them in its one scan
//! of the tables and index creation prefills the new key's zones, both
//! from the latest committed versions (the same source `fill_index`
//! trusts), so the maps cover everything committed before the process
//! started tracking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use gstore::chunked::CHUNK_CAP;
use gstore::AppendVec;

/// The chunk a record id lives in.
#[inline]
fn chunk_of(id: u64) -> usize {
    id as usize / CHUNK_CAP
}

#[inline]
pub(crate) fn label_bit(label: u32) -> u64 {
    1u64 << (label & 63)
}

/// Per-chunk label bitsets for one table (grow-on-demand; lookups take
/// no lock, so the pruning loop shares no written line with writers).
#[derive(Default)]
struct LabelZones {
    chunks: AppendVec<AtomicU64>,
}

impl LabelZones {
    fn note(&self, chunk: usize, label: u32) {
        self.chunks
            .get_or_extend(chunk, AtomicU64::default)
            .fetch_or(label_bit(label), Ordering::Relaxed);
    }

    /// False only when no record with this label can live in the chunk.
    fn may_match(&self, chunk: usize, label: u32) -> bool {
        self.chunks
            .get(chunk)
            .is_some_and(|c| c.load(Ordering::Relaxed) & label_bit(label) != 0)
    }
}

/// Per-chunk min/max index keys for one property key. The empty sentinel
/// is `min = u64::MAX, max = 0` (never stored ⇒ prunable for any range).
struct Zone {
    min: AtomicU64,
    max: AtomicU64,
}

impl Zone {
    fn new_empty() -> Zone {
        Zone {
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The zone map of one registered property key: a handle a scan resolves
/// once ([`ReadAccel::key_zones`]) and then asks per chunk, without going
/// back to the key registry.
#[derive(Default)]
pub struct PropZones {
    chunks: AppendVec<Zone>,
}

impl PropZones {
    fn widen(&self, chunk: usize, ikey: u64) {
        let zone = self.chunks.get_or_extend(chunk, Zone::new_empty);
        zone.min.fetch_min(ikey, Ordering::Relaxed);
        zone.max.fetch_max(ikey, Ordering::Relaxed);
    }

    /// False only when no node in the chunk can carry the key inside
    /// `[lo, hi]` (zone disjoint, or key never stored in the chunk).
    pub fn may_overlap(&self, chunk: usize, lo: u64, hi: u64) -> bool {
        self.chunks.get(chunk).is_some_and(|z| {
            let min = z.min.load(Ordering::Relaxed);
            let max = z.max.load(Ordering::Relaxed);
            min <= max && min <= hi && max >= lo
        })
    }
}

/// The read-acceleration layer of a [`GraphDb`](crate::GraphDb): label
/// bitsets for both tables plus node-property zone maps for every
/// registered (≈ indexed) key. Maintenance is always on; `enabled` only
/// gates whether scans *use* the maps, so the toggle is safe at runtime.
#[derive(Default)]
pub struct ReadAccel {
    enabled: AtomicBool,
    node_labels: LabelZones,
    rel_labels: LabelZones,
    node_props: RwLock<HashMap<u32, Arc<PropZones>>>,
}

impl ReadAccel {
    /// Gate chunk pruning on or off (fast-path claiming is gated
    /// separately by the transaction manager's flag; `GraphDb` flips both
    /// together).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// True if scans may consult the zone maps.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Start zone-tracking a property key, installing zones prefilled
    /// from `entries` (`(node_id, index_key)` pairs from the latest
    /// committed data). Prefill happens under the registry's write lock,
    /// so a concurrent scan can never observe the key registered with
    /// incomplete zones. Returns false if the key was already registered.
    pub fn register_key(&self, key: u32, entries: &[(u64, u64)]) -> bool {
        let mut g = self.node_props.write();
        if g.contains_key(&key) {
            return false;
        }
        let z = Arc::new(PropZones::default());
        for &(id, ikey) in entries {
            z.widen(chunk_of(id), ikey);
        }
        g.insert(key, z);
        true
    }

    /// True if the key has zone maps.
    pub fn key_registered(&self, key: u32) -> bool {
        self.node_props.read().contains_key(&key)
    }

    /// The zone map of `key`, or `None` for an unregistered key (nothing
    /// can be pruned on it). The one registry lookup of a scan: the
    /// per-chunk test is [`PropZones::may_overlap`] on the handle.
    pub fn key_zones(&self, key: u32) -> Option<Arc<PropZones>> {
        self.node_props.read().get(&key).cloned()
    }

    /// Record that a node with `label` lives (or lived) in `id`'s chunk.
    pub fn note_node_label(&self, id: u64, label: u32) {
        self.node_labels.note(chunk_of(id), label);
    }

    /// Record that a relationship with `label` lives in `id`'s chunk.
    pub fn note_rel_label(&self, id: u64, label: u32) {
        self.rel_labels.note(chunk_of(id), label);
    }

    /// Widen the zone of `key` in node `id`'s chunk to cover `ikey`.
    /// No-op for unregistered keys.
    pub fn note_node_prop(&self, key: u32, id: u64, ikey: u64) {
        if let Some(z) = self.key_zones(key) {
            z.widen(chunk_of(id), ikey);
        }
    }

    /// [`note_node_prop`](Self::note_node_prop) over the keys registered now
    /// (`None` if none), without the registry lock per call: for the open scan.
    pub(crate) fn prop_noter(&self) -> Option<impl Fn(u32, u64, u64) + Sync> {
        let zones = self.node_props.read().clone();
        (!zones.is_empty()).then_some(move |key: u32, id: u64, ikey: u64| {
            if let Some(z) = zones.get(&key) {
                z.widen(chunk_of(id), ikey);
            }
        })
    }

    /// May node chunk `chunk` contain a node with `label`?
    pub fn node_chunk_may_match_label(&self, chunk: usize, label: u32) -> bool {
        self.node_labels.may_match(chunk, label)
    }

    /// May relationship chunk `chunk` contain a rel with `label`?
    pub fn rel_chunk_may_match_label(&self, chunk: usize, label: u32) -> bool {
        self.rel_labels.may_match(chunk, label)
    }

    /// May node chunk `chunk` contain `key` within `[lo, hi]`? Returns
    /// true (cannot prune) for unregistered keys.
    pub fn node_chunk_may_overlap(&self, key: u32, chunk: usize, lo: u64, hi: u64) -> bool {
        self.key_zones(key)
            .is_none_or(|z| z.may_overlap(chunk, lo, hi))
    }
}
