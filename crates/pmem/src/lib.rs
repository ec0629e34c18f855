//! Persistent-memory emulation layer.
//!
//! This crate stands in for Intel Optane DCPMMs accessed through a DAX file
//! system plus the PMDK, which the paper's system is built on. It provides:
//!
//! * [`Pool`] — a file-backed memory-mapped persistent heap with a stable
//!   base address, typed offset-based access ([`POff`]), and an explicit
//!   cache-line flush / store-fence discipline mirroring `clwb`/`sfence`.
//! * A **crash simulator**: writes are tracked at cache-line granularity and
//!   [`Pool::simulate_crash`] discards (or tears) everything that was not
//!   explicitly flushed, so recovery code is exercised against realistic
//!   torn-write semantics.
//! * A **latency model** ([`DeviceProfile`]) that injects calibrated delays
//!   on reads, flushes and fences so the DRAM/PMem performance asymmetry of
//!   the paper's characterisation (C1)–(C3) is reproduced on commodity DRAM.
//! * A persistent **chunk allocator** with size-class free lists and group
//!   allocation (design goal DG5).
//! * PMDK-style **undo-log transactions** ([`TxBatch`] through
//!   [`Pool::tx_apply_batches`]) used for the multi-word atomic commit path
//!   of the MVTO protocol (design goal DG4).
//!
//! # Characteristics modelled
//!
//! | Paper | Here |
//! |---|---|
//! | (C1) higher latency / lower bandwidth | per-touch read delay, per-line flush delay |
//! | (C2) read/write asymmetry | separate read vs flush costs + flushed-line statistics |
//! | (C3) 256-byte internal blocks | block-touch accounting in [`PoolStats`] |
//! | (C4) 8-byte failure atomicity | [`Pool::write_u64`] is the only store that survives a crash un-torn |

mod alloc;
mod error;
mod flushset;
mod latency;
mod pool;
mod pptr;
mod stats;
mod txlog;

pub use alloc::{AllocClass, SIZE_CLASSES};
pub use error::{PmemError, Result};
pub use flushset::FlushSet;
pub use latency::DeviceProfile;
pub use pool::{CrashPoint, CrashPolicy, Pool, PoolKind, CACHE_LINE, PMEM_BLOCK, POOL_HEADER_SIZE};
pub use pptr::{PPtr, POff};
pub use stats::{PoolStats, StatsSnapshot};
pub use txlog::{commit_epoch, PreparedTx, TxBatch};

/// Marker for plain-old-data types that may be stored in a pool.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]`, contain no padding-derived UB on read
/// (all bit patterns valid or writes always fully initialise), no pointers to
/// volatile memory, and no drop glue.
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for [u8; 8] {}
unsafe impl Pod for [u8; 16] {}
unsafe impl Pod for [u8; 32] {}
unsafe impl Pod for [u8; 64] {}
unsafe impl Pod for [u64; 4] {}

/// Declare a `#[repr(C)]` record type as storable in a pool.
#[macro_export]
macro_rules! impl_pod {
    ($($t:ty),+ $(,)?) => {
        $(unsafe impl $crate::Pod for $t {})+
    };
}
