//! ganalytics — the OLAP lane over the transactional engine.
//!
//! The paper closes by naming complex graph analytics as the natural next
//! workload for the engine (§8); this crate supplies it without disturbing
//! the OLTP path. Three pieces:
//!
//! * [`CsrSnapshot`] materialises the adjacency (and selected property
//!   columns) visible at **one MVTO read timestamp** into flat DRAM arrays
//!   — a compressed-sparse-row copy built chunk-at-a-time, riding the
//!   single-version fast path for chunks no active writer has touched and
//!   walking version chains only for dirty ones. An epoch tag
//!   ([`graphcore::GraphDb::mutation_epoch`]) lets [`SnapshotCache`] reuse
//!   a snapshot until the next write commit, and the topology journal
//!   ([`gtxn::TopoJournal`]) lets it refresh the stale one instead of
//!   rebuilding it.
//! * [`algo`] runs BFS, PageRank, weakly-connected components and triangle
//!   counting as jobs
//!   on the existing morsel scheduler ([`gquery::parallel_for`]): flat
//!   chunked inner loops over the CSR arrays, per-morsel
//!   deadline/cancellation via [`gquery::ExecCtx`]. The kernels are
//!   deterministic — fixed gather order regardless of worker count — so
//!   their output is bit-identical to a sequential pass over the same
//!   adjacency (`tests/kernels.rs` keeps that brute-force reference).
//! * The tiered durability ladder ([`gtxn::SyncMode`]) feeds this lane's
//!   bulk-ingest side: load under `every=N`/`checkpoint`, `CHECKPOINT`,
//!   then analyse.

pub mod algo;
mod cache;
mod obs;
mod snapshot;

pub use cache::SnapshotCache;
pub use snapshot::{BuildStats, CsrSnapshot, SnapshotSpec};
