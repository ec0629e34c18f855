//! The transactional property-graph engine (paper §4 + §5 assembled).
//!
//! [`GraphDb`] owns one persistent pool holding the node, relationship and
//! property chunked tables, the string dictionary, the MVTO transaction
//! manager's persistent timestamp slot, and the secondary-index directory.
//! It exposes an RAII transaction handle ([`GraphTxn`]) for all reads and
//! writes, hybrid B+-tree indexes over `(label, property)` pairs, and a
//! recovery path ([`GraphDb::open`]) that:
//!
//! 1. replays/rolls back the pool's undo log (pmem layer),
//! 2. reopens persistent structures and rebuilds the volatile parts
//!    (chunk-directory mirrors, hybrid index inner levels),
//! 3. scans the tables once: stale MVTO locks, uncommitted inserts, zone maps.
//!
//! The same engine runs in three device configurations used throughout the
//! paper's evaluation: `PMem` (file-backed pool + latency model), `DRAM`
//! (anonymous pool, no latency) — plus the separate disk-based baseline in
//! the `gdisk` crate.

pub mod accel;
mod db;
mod error;
mod index;
pub mod shard;
mod txn;
mod value;

pub use accel::ReadAccel;
pub use db::{DbOptions, GraphDb, GraphRoot, RecoveryReport};
pub use error::GraphError;
pub use index::IndexDef;
pub use shard::{ShardOptions, ShardRouter, ShardedDb, ShardedTxn};
pub use txn::{Dir, GraphTxn, PropOwner};
pub use value::Value;

/// Node identifier: a record id in the node table.
pub type NodeId = u64;
/// Relationship identifier: a record id in the relationship table.
pub type RelId = u64;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
