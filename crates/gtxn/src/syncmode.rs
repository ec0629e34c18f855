//! The tiered durability ladder.
//!
//! OLTP traffic wants every acknowledged commit to survive a crash; bulk
//! ingest wants to amortise fences across thousands of transactions and is
//! happy to redo a lost tail. [`SyncMode`] names the three rungs and maps
//! them onto two commit points of the one `pmem` undo-log protocol (the
//! table in `pmem::txlog`'s module docs):
//!
//! * [`SyncMode::PerTxn`] — the default. Every commit (or commit group)
//!   takes the strict commit point, [`pmem::Pool::tx_apply_batches`] (four
//!   fences), and is durable when acknowledged.
//! * [`SyncMode::EveryN`]`(n)` — commits take the deferred commit point,
//!   [`pmem::Pool::tx_apply_deferred`] (two fences); after every `n`
//!   transactions the pipeline checkpoints (flush deferred data + truncate
//!   the accumulated undo log, two more fences). Amortised cost:
//!   `2 + 2/n` fences per transaction instead of 4. A crash loses at most
//!   the last `< n` transactions and recovers cleanly to the previous
//!   checkpoint.
//! * [`SyncMode::CheckpointOnly`] — like `EveryN` but nothing checkpoints
//!   automatically; durability points are the caller's explicit
//!   `CHECKPOINT` calls (server verb, [`crate::TxnManager::checkpoint`]) —
//!   plus implicit drains forced by a full undo log or a strict-path
//!   transaction.
//!
//! In the deferred rungs, the un-checkpointed tail is *atomic as a whole*:
//! recovery rolls back every transaction after the last checkpoint, never
//! a torn prefix of one.

use crate::error::TxnError;

/// Which durability rung commits run on. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Strict: every commit durable when acknowledged (4 fences/group).
    #[default]
    PerTxn,
    /// Deferred with automatic checkpoints every `n` transactions.
    EveryN(u64),
    /// Deferred; only explicit `CHECKPOINT` creates a durability point.
    CheckpointOnly,
}

impl SyncMode {
    /// Parse the `PMEMGRAPH_SYNC_MODE` surface syntax:
    /// `per_txn` | `every=N` (N ≥ 1) | `checkpoint`.
    pub fn parse(s: &str) -> Result<SyncMode, TxnError> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("per_txn") {
            return Ok(SyncMode::PerTxn);
        }
        if s.eq_ignore_ascii_case("checkpoint") {
            return Ok(SyncMode::CheckpointOnly);
        }
        if let Some(n) = s.strip_prefix("every=") {
            if let Ok(n) = n.trim().parse::<u64>() {
                if n >= 1 {
                    return Ok(SyncMode::EveryN(n));
                }
            }
        }
        Err(TxnError::Config(format!(
            "bad sync mode {s:?}: want per_txn | every=N | checkpoint"
        )))
    }

    /// Resolve the mode from `PMEMGRAPH_SYNC_MODE`, falling back to the
    /// strict default on an unparsable value (an env typo must not silently
    /// weaken durability the *other* way — weakening requires a valid
    /// opt-in string).
    pub fn from_env() -> SyncMode {
        SyncMode::parse(&gconfig::sync_mode()).unwrap_or_default()
    }

    /// True for the rungs that defer data flushes to a checkpoint.
    pub fn is_deferred(&self) -> bool {
        !matches!(self, SyncMode::PerTxn)
    }

    /// Canonical rendering, round-trips through [`SyncMode::parse`].
    pub fn render(&self) -> String {
        match self {
            SyncMode::PerTxn => "per_txn".into(),
            SyncMode::EveryN(n) => format!("every={n}"),
            SyncMode::CheckpointOnly => "checkpoint".into(),
        }
    }
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for m in [
            SyncMode::PerTxn,
            SyncMode::EveryN(1),
            SyncMode::EveryN(1000),
            SyncMode::CheckpointOnly,
        ] {
            assert_eq!(SyncMode::parse(&m.render()).unwrap(), m);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "sometimes", "every=", "every=0", "every=-3", "every=x"] {
            assert!(SyncMode::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trimmed() {
        assert_eq!(SyncMode::parse(" PER_TXN ").unwrap(), SyncMode::PerTxn);
        assert_eq!(SyncMode::parse("Checkpoint").unwrap(), SyncMode::CheckpointOnly);
        assert_eq!(SyncMode::parse("every= 5").unwrap(), SyncMode::EveryN(5));
    }
}
