//! PMem-aware graph storage structures (paper §4).
//!
//! Implements the paper's storage model on top of the [`pmem`] pool layer:
//!
//! * [`records`] — the fixed-size node / relationship / property record
//!   layouts of Fig. 1/2, with the MVCC timestamp fields of §5 and the
//!   tagged 8-byte property-value encoding.
//! * [`chunked`] — [`ChunkedTable`]: a linked list of cache-line-aligned,
//!   256-byte-multiple chunks of equal-sized records with per-chunk slot
//!   bitmaps and a sparse chunk directory (design decisions DD1/DD2).
//! * [`appendvec`] — [`AppendVec`]: the grow-only, lock-free-to-read
//!   vector behind every DRAM chunk directory on the record read path.
//! * [`dict`] — the persistent string [`Dictionary`]: two hash tables for
//!   bidirectional string↔code translation (DD3).
//! * [`btree`] — a B+-tree with pluggable node storage, yielding the three
//!   index variants of §7.4: volatile (all DRAM), persistent (all PMem) and
//!   hybrid (DRAM inner nodes + PMem leaves, rebuilt on recovery).

pub mod appendvec;
pub mod btree;
pub mod chunked;
pub mod dict;
pub mod hash;
pub mod records;

pub use appendvec::AppendVec;
pub use btree::{BPlusTree, IndexKind};
pub use chunked::ChunkedTable;
pub use dict::Dictionary;
pub use records::{NodeRecord, PropRecord, PropSlot, PVal, RelRecord, Versioned, NIL, TS_INF};

/// Logical record identifier within one chunked table: `chunk * 64 + slot`.
pub type RecId = u64;
