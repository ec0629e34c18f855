//! On-disk compiled-code cache: `{base}.jitcache`.
//!
//! Generated code is relocation-free ([`crate::codegen::Code`]), so
//! caching it is just byte storage — no linker state to rebuild on load.
//! The file sits next to the PMem pool (`{base}.jitcache` for pool
//! `{base}`, one per shard router base) and makes compiled pipelines and
//! expressions survive restart (paper §6.2: "no further compilation is
//! required for subsequent runs"): a warm reopen probes this cache and
//! executes previously-compiled plans with **zero** Cranelift invocations.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic      [8]  "PMGJITC1"
//! engine_key [8]  fnv1a(crate version ++ target arch/os ++ FORMAT_VERSION
//!                       ++ runtime::abi_layout())
//! entry*:
//!   kind     [1]  0 = pipeline, 1 = expression
//!   key      [8]  plan fingerprint, or expr_key (pred fingerprint +
//!                 source + tier + params)
//!   stamp    [8]  logical LRU clock at last touch
//!   checksum [8]  fnv1a(code)
//!   len      [4]
//!   code     [len]
//! ```
//!
//! Invalidation is wholesale: a missing file, bad magic, a different
//! engine key (new crate version, different ISA, bumped format, any
//! layout constant generated code bakes in) or a
//! truncated/corrupt entry loads as an **empty** cache — stale native
//! code is never executed. Writes go through a temp file + rename so a
//! crash mid-write leaves either the old or the new file, never a torn
//! one. Eviction is LRU over a logical clock, bounded by total code
//! bytes (`PMEMGRAPH_CODE_CACHE_BYTES`, read at insert time).

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use gstore::hash::fnv1a;

use crate::engine::{CodeKey, CodeKind, JitError};

const MAGIC: &[u8; 8] = b"PMGJITC1";

/// Bumped whenever the generated code's ABI contract or the entry framing
/// changes. 2: the helper table grew from 5 to 20 slots and moved to the
/// second argument; entries carry a kind byte.
const FORMAT_VERSION: u32 = 2;

/// Cache key namespace: code is only reusable by the same crate version
/// on the same ISA/OS with the same ABI contract, including every record,
/// row-slot and helper-table layout constant the code bakes in.
pub fn engine_key() -> u64 {
    let id = format!(
        "{}/{}/{}/{}/{:?}",
        env!("CARGO_PKG_VERSION"),
        std::env::consts::ARCH,
        std::env::consts::OS,
        FORMAT_VERSION,
        crate::runtime::abi_layout(),
    );
    fnv1a(id.as_bytes())
}

struct Entry {
    stamp: u64,
    code: Vec<u8>,
}

/// The on-disk code cache, held in memory and rewritten on mutation.
pub struct DiskCache {
    path: PathBuf,
    entries: HashMap<CodeKey, Entry>,
    clock: u64,
}

impl DiskCache {
    /// Open (or create) the cache at `{base}.jitcache`. Any validation
    /// failure — missing file, foreign engine key, corruption — yields an
    /// empty cache rather than an error: the cache is an accelerator, not
    /// a source of truth.
    pub fn open(base: &Path) -> DiskCache {
        let mut path = base.as_os_str().to_owned();
        path.push(".jitcache");
        let path = PathBuf::from(path);
        let mut cache = DiskCache {
            path,
            entries: HashMap::new(),
            clock: 0,
        };
        if let Ok(bytes) = fs::read(&cache.path) {
            cache.load(&bytes);
        }
        cache
    }

    fn load(&mut self, bytes: &[u8]) {
        let Some(rest) = bytes.strip_prefix(&MAGIC[..]) else {
            return;
        };
        let Some((ek, mut rest)) = take_u64(rest) else {
            return;
        };
        if ek != engine_key() {
            return;
        }
        let mut entries = HashMap::new();
        let mut clock = 0u64;
        while let Some((&kind, r)) = rest.split_first() {
            let kind = match kind {
                0 => CodeKind::Pipeline,
                1 => CodeKind::Expr,
                _ => return, // unknown kind: distrust the whole file
            };
            let Some((key, r)) = take_u64(r) else {
                return; // truncated entry: distrust the whole file
            };
            let Some((stamp, r)) = take_u64(r) else {
                return;
            };
            let Some((checksum, r)) = take_u64(r) else {
                return;
            };
            let Some((len, r)) = take_u32(r) else {
                return;
            };
            let len = len as usize;
            if r.len() < len {
                return;
            }
            let (code, r) = r.split_at(len);
            if fnv1a(code) != checksum {
                return; // corrupt payload: distrust the rest of the file
            }
            clock = clock.max(stamp);
            entries.insert(
                (kind, key),
                Entry {
                    stamp,
                    code: code.to_vec(),
                },
            );
            rest = r;
        }
        self.entries = entries;
        self.clock = clock;
    }

    /// Look up code by key, touching its LRU stamp. The touch is
    /// in-memory only (persisted on the next insert) — probes must stay
    /// cheap on the hot path.
    pub fn get(&mut self, key: CodeKey) -> Option<&[u8]> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.entries.get_mut(&key)?;
        e.stamp = clock;
        Some(&e.code)
    }

    /// Insert code under `key`, evict LRU entries past the configured
    /// byte bound, and persist. Returns the number of evictions (counted
    /// into the engine's eviction stat).
    pub fn insert(&mut self, key: CodeKey, code: &[u8]) -> Result<u64, JitError> {
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                stamp: self.clock,
                code: code.to_vec(),
            },
        );
        let evicted = self.evict_to_capacity(gconfig::code_cache_bytes());
        self.persist()?;
        Ok(evicted)
    }

    /// Evict least-recently-used entries while total code bytes exceed
    /// `limit`, always keeping at least one entry (a single oversized
    /// function may still be cached).
    fn evict_to_capacity(&mut self, limit: u64) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > 1 && self.bytes() > limit {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn persist(&self) -> Result<(), JitError> {
        let mut buf = Vec::with_capacity(16 + self.bytes() as usize + self.entries.len() * 29);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&engine_key().to_le_bytes());
        // Deterministic order keeps the file stable across rewrites.
        let mut keys: Vec<&CodeKey> = self.entries.keys().collect();
        keys.sort_unstable();
        for key in keys {
            let e = &self.entries[key];
            buf.push(key.0 as u8);
            buf.extend_from_slice(&key.1.to_le_bytes());
            buf.extend_from_slice(&e.stamp.to_le_bytes());
            buf.extend_from_slice(&fnv1a(&e.code).to_le_bytes());
            buf.extend_from_slice(&(e.code.len() as u32).to_le_bytes());
            buf.extend_from_slice(&e.code);
        }
        let tmp = self.path.with_extension("jitcache.tmp");
        let io = |e: std::io::Error| JitError::Backend(format!("jitcache write: {e}"));
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(&buf).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, &self.path).map_err(io)?;
        Ok(())
    }

    /// Total cached code bytes (payload only, not framing).
    pub fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.code.len() as u64).sum()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All cached keys (the warm-up path re-maps every entry).
    pub fn keys(&self) -> Vec<CodeKey> {
        self.entries.keys().copied().collect()
    }

    /// Drop every entry and remove the file.
    pub fn clear(&mut self) -> Result<(), JitError> {
        self.entries.clear();
        self.clock = 0;
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(JitError::Backend(format!("jitcache clear: {e}"))),
        }
    }
}

fn take_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = b.split_at_checked(8)?;
    Some((u64::from_le_bytes(head.try_into().unwrap()), rest))
}

fn take_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = b.split_at_checked(4)?;
    Some((u32::from_le_bytes(head.try_into().unwrap()), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> CodeKey {
        (CodeKind::Expr, k)
    }

    fn tmpbase(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pmemgraph_jitcache_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_survives_reopen() {
        let base = tmpbase("roundtrip");
        let _ = fs::remove_file(base.with_extension("jitcache"));
        let mut path = base.as_os_str().to_owned();
        path.push(".jitcache");
        let _ = fs::remove_file(PathBuf::from(path));

        let mut c = DiskCache::open(&base);
        assert!(c.is_empty());
        c.insert(key(7), b"codebytes-a").unwrap();
        c.insert((CodeKind::Pipeline, 9), b"codebytes-b").unwrap();
        drop(c);

        let mut c = DiskCache::open(&base);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(key(7)), Some(&b"codebytes-a"[..]));
        assert_eq!(c.get((CodeKind::Pipeline, 9)), Some(&b"codebytes-b"[..]));
        assert_eq!(c.get(key(8)), None);
        assert_eq!(c.get(key(9)), None, "kind is part of the key");
        assert_eq!(c.bytes(), 22);
        c.clear().unwrap();
        drop(c);
        let c = DiskCache::open(&base);
        assert!(c.is_empty());
    }

    #[test]
    fn corruption_and_foreign_key_load_empty() {
        let base = tmpbase("corrupt");
        let mut c = DiskCache::open(&base);
        c.clear().unwrap();
        c.insert(key(1), b"x").unwrap();
        let file = {
            let mut p = base.as_os_str().to_owned();
            p.push(".jitcache");
            PathBuf::from(p)
        };
        // Flip a payload byte: checksum mismatch ⇒ empty cache.
        let mut bytes = fs::read(&file).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&file, &bytes).unwrap();
        let c2 = DiskCache::open(&base);
        assert!(c2.is_empty());
        // Foreign engine key ⇒ empty cache.
        let mut bytes = fs::read(&file).unwrap();
        bytes[8] ^= 0xFF;
        bytes[n - 1] ^= 0xFF; // restore payload so only the key differs
        fs::write(&file, &bytes).unwrap();
        let c3 = DiskCache::open(&base);
        assert!(c3.is_empty());
        let mut c = DiskCache::open(&base);
        c.clear().unwrap();
    }

    #[test]
    fn file_in_the_previous_format_loads_empty() {
        // What the parent commit wrote: FORMAT_VERSION 1 in the engine key,
        // entries without a kind byte. A valid file of that format must
        // not yield a single entry (its code expects a 5-slot helper table
        // as third argument).
        let base = tmpbase("oldformat");
        let old_key = fnv1a(
            format!(
                "{}/{}/{}/1",
                env!("CARGO_PKG_VERSION"),
                std::env::consts::ARCH,
                std::env::consts::OS
            )
            .as_bytes(),
        );
        let code = b"old-abi-code";
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&old_key.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes()); // key
        bytes.extend_from_slice(&1u64.to_le_bytes()); // stamp
        bytes.extend_from_slice(&fnv1a(code).to_le_bytes());
        bytes.extend_from_slice(&(code.len() as u32).to_le_bytes());
        bytes.extend_from_slice(code);
        let mut c = DiskCache::open(&base);
        fs::write(&c.path, &bytes).unwrap();
        assert!(DiskCache::open(&base).is_empty());
        c.clear().unwrap();
    }

    #[test]
    fn lru_eviction_respects_byte_bound() {
        let base = tmpbase("lru");
        let mut c = DiskCache::open(&base);
        c.clear().unwrap();
        std::env::set_var("PMEMGRAPH_CODE_CACHE_BYTES", "64");
        c.insert(key(1), &[1u8; 32]).unwrap();
        c.insert(key(2), &[2u8; 32]).unwrap();
        // Touch 1 so 2 is the LRU victim.
        assert!(c.get(key(1)).is_some());
        let evicted = c.insert(key(3), &[3u8; 32]).unwrap();
        std::env::remove_var("PMEMGRAPH_CODE_CACHE_BYTES");
        assert_eq!(evicted, 1);
        assert!(c.get(key(2)).is_none());
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        c.clear().unwrap();
    }
}
