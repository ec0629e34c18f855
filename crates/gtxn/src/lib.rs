//! MVTO multi-version concurrency control for PMem (paper §5).
//!
//! The protocol follows the paper's design decisions:
//!
//! * **Timestamp ordering** (§5.1): every transaction gets a unique id from
//!   a monotonic counter; `txn_id` on each record is a CAS-acquired write
//!   lock; `bts`/`ets` bracket a version's validity; `rts` records the
//!   newest reader (updated with an un-flushed CAS — after a crash all
//!   transactions are dead, so `rts` is safely reset by recovery).
//! * **DRAM version chains** (§5.2, DG1/DG2): uncommitted new versions and
//!   superseded old versions live in a volatile side table keyed by record
//!   id (the paper's per-record volatile `pointer` field); PMem always
//!   holds the *latest committed* version, so reads hit PMem first and only
//!   fall back to DRAM for older snapshots or own writes.
//! * **Atomic commit** (§5.1, DG4): all record overwrites of one commit are
//!   staged into a [`pmem::TxBatch`] and applied inside a single PMDK-style
//!   undo-log transaction ([`pmem::Pool::tx_apply_batches`]); new version
//!   bytes embed `txn_id = 0`, so the undo-log truncation is the single
//!   commit point and recovery never sees an ambiguous lock. Inserted
//!   records are stored in PMem immediately but stay locked until the
//!   commit transaction clears their `txn_id`. Concurrent commits are
//!   merged by the group-commit pipeline ([`CommitPipeline`]): one flush
//!   pass, one fence per phase and one log truncation for the whole group
//!   (DESIGN.md §10).
//! * **Transaction-level GC** (§5.3, DG5): version-chain entries whose
//!   `ets` precedes the oldest active transaction are pruned at commit;
//!   slots of deleted/aborted-insert records are recycled through the
//!   chunk bitmaps, never deallocated.

mod chain;
mod chunkstate;
mod commitpipe;
mod error;
mod journal;
mod manager;
mod obs;
mod syncmode;

pub use chain::{ObjKey, TableTag};
pub use chunkstate::ChunkState;
pub use commitpipe::CommitPipeline;
pub use error::TxnError;
pub use journal::{JournalMiss, TopoChange, TopoJournal};
pub use manager::{PendingCommit, RecoveryFix, Txn, TxnManager, TxnStats};
pub use syncmode::SyncMode;
