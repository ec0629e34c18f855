//! The session table: one entry per live connection.
//!
//! Each entry holds a clone of the connection's `TcpStream` so that the
//! maintenance sweep and shutdown can *force* a blocked connection thread
//! out of its read by closing the socket under it (`shutdown(Both)`); the
//! thread then unwinds through its normal cleanup path, which rolls back
//! any open transaction — idle-timeout kill and client crash are the same
//! code path.
//!
//! What changes per request — last activity, whether a transaction is
//! open — lives in a per-session [`SessionCell`] the connection holds an
//! `Arc` of, so the request path never takes the table lock: with several
//! lanes answering requests (DESIGN.md §15) that lock was the one every
//! lane met on.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// The per-request half of a session, shared between the table and the
/// connection that owns the session. Outlives `deregister` harmlessly: a
/// late `touch` lands in a cell nobody sweeps any more.
pub(crate) struct SessionCell {
    /// The table's coarse clock when the session last sent a request.
    last_activity_ms: AtomicU64,
    in_txn: AtomicBool,
    /// The table's clock (milliseconds since it was built).
    clock_ms: Arc<AtomicU64>,
}

impl SessionCell {
    /// Record activity (called once per request): one relaxed load of the
    /// coarse clock and one relaxed store.
    pub(crate) fn touch(&self) {
        self.last_activity_ms
            .store(self.clock_ms.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Track whether the session has an open transaction (STATS reporting).
    pub(crate) fn set_in_txn(&self, in_txn: bool) {
        self.in_txn.store(in_txn, Ordering::Relaxed);
    }
}

struct SessionEntry {
    stream: TcpStream,
    cell: Arc<SessionCell>,
}

/// Registry of live sessions, keyed by server-assigned session id.
pub struct SessionTable {
    inner: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
    start: Instant,
    /// Milliseconds since `start`, advanced by [`SessionTable::tick`] (the
    /// maintenance thread, every 20 ms) so that `touch` reads no clock.
    clock_ms: Arc<AtomicU64>,
}

impl SessionTable {
    pub fn new() -> SessionTable {
        SessionTable {
            inner: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            start: Instant::now(),
            clock_ms: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Advance the coarse clock; returns it.
    pub(crate) fn tick(&self) -> u64 {
        let now = self.start.elapsed().as_millis().min(u64::MAX as u128) as u64;
        self.clock_ms.store(now, Ordering::Relaxed);
        now
    }

    /// Register a connection if the table is below `max`; returns the new
    /// session id and its cell, or `None` when the server is at capacity.
    pub(crate) fn try_register(
        &self,
        stream: TcpStream,
        max: usize,
    ) -> Option<(u64, Arc<SessionCell>)> {
        let now = self.tick();
        let mut inner = self.inner.lock();
        if inner.len() >= max {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(SessionCell {
            last_activity_ms: AtomicU64::new(now),
            in_txn: AtomicBool::new(false),
            clock_ms: self.clock_ms.clone(),
        });
        inner.insert(
            id,
            SessionEntry {
                stream,
                cell: cell.clone(),
            },
        );
        Some((id, cell))
    }

    /// Remove a session (connection thread cleanup).
    pub fn deregister(&self, id: u64) {
        self.inner.lock().remove(&id);
    }

    pub fn active_count(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn in_txn_count(&self) -> usize {
        self.inner
            .lock()
            .values()
            .filter(|e| e.cell.in_txn.load(Ordering::Relaxed))
            .count()
    }

    /// Force-close every session idle longer than `timeout`; returns how
    /// many sockets were shut down. The entries stay in the table until
    /// their connection threads notice the dead socket and deregister —
    /// that path is also what rolls back any open transaction.
    pub fn sweep_idle(&self, timeout: Duration) -> usize {
        let now = self.tick();
        let timeout_ms = timeout.as_millis().min(u64::MAX as u128) as u64;
        let inner = self.inner.lock();
        let mut killed = 0;
        for e in inner.values() {
            let last = e.cell.last_activity_ms.load(Ordering::Relaxed);
            if now.saturating_sub(last) >= timeout_ms {
                let _ = e.stream.shutdown(Shutdown::Both);
                killed += 1;
            }
        }
        killed
    }

    /// Force-close every session (final phase of server shutdown).
    pub fn shutdown_all(&self) -> usize {
        let inner = self.inner.lock();
        for e in inner.values() {
            let _ = e.stream.shutdown(Shutdown::Both);
        }
        inner.len()
    }
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn socket() -> TcpStream {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        TcpStream::connect(l.local_addr().unwrap()).unwrap()
    }

    #[test]
    fn touch_after_deregister_is_harmless() {
        let table = SessionTable::new();
        let (id, cell) = table.try_register(socket(), 4).unwrap();
        let (other, _other_cell) = table.try_register(socket(), 4).unwrap();
        cell.set_in_txn(true);
        assert_eq!(table.in_txn_count(), 1);
        table.deregister(id);
        // The connection still holds its cell: late stores go nowhere.
        cell.touch();
        cell.set_in_txn(true);
        assert_eq!(table.active_count(), 1);
        assert_eq!(table.in_txn_count(), 0);
        assert_eq!(table.sweep_idle(Duration::from_secs(60)), 0);
        table.deregister(other);
    }

    #[test]
    fn sweep_reads_the_cells_under_the_table_lock() {
        let table = SessionTable::new();
        let (_a, idle) = table.try_register(socket(), 4).unwrap();
        let (_b, busy) = table.try_register(socket(), 4).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        table.tick();
        busy.touch();
        // Only the session that never touched after the clock moved is
        // past a 20 ms timeout.
        assert_eq!(table.sweep_idle(Duration::from_millis(20)), 1);
        drop(idle);
    }
}
