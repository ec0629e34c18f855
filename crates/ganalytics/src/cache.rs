//! Epoch-validated, LRU-bounded snapshot cache.
//!
//! Building a CSR snapshot costs a full scan; analytic verbs typically
//! arrive in bursts against an unchanged graph. The cache keys snapshots
//! by [`SnapshotSpec`] and revalidates each hit against
//! [`GraphDb::mutation_epoch`]: any committed write transaction bumps the
//! epoch, so a hit is served only while the snapshot provably reflects the
//! latest committed state. No invalidation hooks, no staleness window —
//! the epoch comparison *is* the validity check. A stale entry is not
//! garbage but the base of its successor: [`CsrSnapshot::refresh`] merges
//! it with what the topology journal says committed since.
//!
//! Capacity: snapshots are large (flat CSR arrays), so the cache holds
//! eight specs. Inserting past the cap evicts the
//! least-recently-*used* spec — a hit refreshes recency, a refresh
//! replaces in place.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphcore::{GraphDb, Result};
use parking_lot::Mutex;

use crate::obs;
use crate::snapshot::{CsrSnapshot, SnapshotSpec};

/// Specs a [`SnapshotCache::new`] retains.
const CAPACITY: usize = 8;

struct Entry {
    snap: Arc<CsrSnapshot>,
    /// Logical LRU stamp: the cache-wide tick at last hit or insert.
    used: u64,
}

struct Inner {
    map: HashMap<SnapshotSpec, Entry>,
    tick: u64,
}

impl Inner {
    fn touch(&mut self, spec: &SnapshotSpec) -> Option<Arc<CsrSnapshot>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(spec).map(|e| {
            e.used = tick;
            e.snap.clone()
        })
    }
}

/// Snapshot cache, one per server/embedding. Cheap to share (`&self` API).
pub struct SnapshotCache {
    inner: Mutex<Inner>,
    /// Max retained specs.
    cap: usize,
    evictions: AtomicU64,
    /// Stale hits carried forward from the journal / rebuilt after all.
    refreshes: AtomicU64,
    fallbacks: AtomicU64,
}

impl Default for SnapshotCache {
    fn default() -> Self {
        SnapshotCache::new()
    }
}

impl SnapshotCache {
    /// A cache of eight specs.
    pub fn new() -> SnapshotCache {
        SnapshotCache::with_capacity(CAPACITY)
    }

    /// A cache bounded to `cap` specs (tests; the server's is [`new`](Self::new)).
    pub fn with_capacity(cap: usize) -> SnapshotCache {
        SnapshotCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            cap,
            evictions: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The cached snapshot for `spec` if it is still current (its epoch
    /// matches the database's mutation epoch). Never builds.
    pub fn get_if_current(&self, db: &GraphDb, spec: &SnapshotSpec) -> Option<Arc<CsrSnapshot>> {
        let epoch = db.mutation_epoch();
        let hit = self.inner.lock().touch(spec)?;
        (hit.epoch() == epoch).then(|| {
            obs::snapshot_reuse().inc();
            hit
        })
    }

    /// A current snapshot for `spec`: reused when its epoch still matches
    /// the database's mutation epoch, refreshed from the stale entry when
    /// there is one, built otherwise. That work runs outside the cache
    /// lock, so concurrent misses may race — the last insert wins, both
    /// snapshots are correct.
    pub fn get_or_build(&self, db: &GraphDb, spec: &SnapshotSpec) -> Result<Arc<CsrSnapshot>> {
        let epoch = db.mutation_epoch();
        let hit = self.inner.lock().touch(spec);
        let snap = match hit {
            Some(hit) if hit.epoch() == epoch => {
                obs::snapshot_reuse().inc();
                return Ok(hit);
            }
            Some(stale) => {
                let snap = stale.refresh(db);
                let merged = snap.as_ref().is_ok_and(|s| s.stats().refreshed);
                let outcome = if merged { &self.refreshes } else { &self.fallbacks };
                outcome.fetch_add(1, Ordering::Relaxed);
                snap?
            }
            None => CsrSnapshot::build(db, spec.clone())?,
        };
        let snap = Arc::new(snap);
        self.insert(spec.clone(), snap.clone());
        Ok(snap)
    }

    /// Insert a snapshot, evicting the least-recently-used spec if the
    /// cache is full and `spec` is not already present.
    fn insert(&self, spec: SnapshotSpec, snap: Arc<CsrSnapshot>) {
        let mut inner = self.inner.lock();
        if !inner.map.contains_key(&spec) && inner.map.len() >= self.cap {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.tick += 1;
        let used = inner.tick;
        inner.map.insert(spec, Entry { snap, used });
    }

    /// Snapshots evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Stale entries [`CsrSnapshot::refresh`] merged forward, no record read.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Stale entries whose refresh fell back to a full build.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Number of cached snapshots (current or stale).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DbOptions;

    #[test]
    fn reuse_until_a_commit_invalidates() {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut tx = db.begin();
        let a = tx.create_node("N", &[]).unwrap();
        let b = tx.create_node("N", &[]).unwrap();
        tx.create_rel(a, "E", b, &[]).unwrap();
        tx.commit().unwrap();

        let cache = SnapshotCache::new();
        let spec = SnapshotSpec::default();
        let s1 = cache.get_or_build(&db, &spec).unwrap();
        let s2 = cache.get_or_build(&db, &spec).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "unchanged graph reuses the snapshot");

        let mut tx = db.begin();
        tx.create_node("N", &[]).unwrap();
        tx.commit().unwrap();
        let s3 = cache.get_or_build(&db, &spec).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3), "a commit invalidates");
        assert_eq!(s3.node_count(), 3);

        // Read-only transactions do not invalidate.
        let tx = db.begin();
        tx.commit().unwrap();
        let s4 = cache.get_or_build(&db, &spec).unwrap();
        assert!(Arc::ptr_eq(&s3, &s4));
    }

    #[test]
    fn specs_cache_independently() {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut tx = db.begin();
        tx.create_node("N", &[]).unwrap();
        tx.commit().unwrap();
        let label = db.intern("N").unwrap();

        let cache = SnapshotCache::new();
        let all = cache.get_or_build(&db, &SnapshotSpec::default()).unwrap();
        let filtered = cache
            .get_or_build(
                &db,
                &SnapshotSpec {
                    node_label: Some(label),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&all, &filtered));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut tx = db.begin();
        tx.create_node("A", &[]).unwrap();
        tx.create_node("B", &[]).unwrap();
        tx.create_node("C", &[]).unwrap();
        tx.commit().unwrap();
        let spec_for = |label: &str| SnapshotSpec {
            node_label: Some(db.intern(label).unwrap()),
            ..Default::default()
        };

        let cache = SnapshotCache::with_capacity(2);
        let sa = cache.get_or_build(&db, &spec_for("A")).unwrap();
        cache.get_or_build(&db, &spec_for("B")).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);

        // Touch A so B becomes the LRU victim; C's insert evicts B.
        assert!(cache.get_if_current(&db, &spec_for("A")).is_some());
        cache.get_or_build(&db, &spec_for("C")).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);

        // A survived (same Arc), B must rebuild.
        let sa2 = cache.get_or_build(&db, &spec_for("A")).unwrap();
        assert!(Arc::ptr_eq(&sa, &sa2), "recently-used entry survived");
        assert!(
            cache.get_if_current(&db, &spec_for("B")).is_none(),
            "LRU entry was evicted"
        );
        // Rebuilding B evicts the new LRU (C).
        cache.get_or_build(&db, &spec_for("B")).unwrap();
        assert_eq!(cache.evictions(), 2);
    }
}
