//! A minimal epoll reactor core: the non-blocking I/O substrate of the
//! evented network front end (DESIGN.md §15).
//!
//! The container's dependency set has no `mio`/`tokio`, so this is a thin
//! safe wrapper over raw `epoll(7)` + `eventfd(2)` with our own
//! `extern "C"` declarations (the same discipline `gjit` uses for its
//! mmap bindings). Only what the server needs is wrapped:
//!
//! * [`Poller`] — one epoll instance; register/rearm/deregister fds under
//!   u64 tokens, and a `wait` that translates `epoll_event`s into
//!   [`Event`]s. Level-triggered throughout: readers drain until
//!   `WouldBlock`, writers arm `EPOLLOUT` only while a write buffer is
//!   non-empty, so the classic LT pitfalls (busy-wake on an always-ready
//!   socket) don't apply.
//! * [`Waker`] — an `eventfd` registered under [`TOKEN_WAKER`], letting
//!   other threads nudge a lane parked in `epoll_wait` (response frames
//!   ready to flush, a connection in its inbox, shutdown requested).
//!
//! On non-Linux targets [`Poller::new`] returns `Unsupported` and the
//! server falls back to the threaded front end; nothing else in gserver
//! needs platform gates.

/// Token the accept listener is registered under.
pub const TOKEN_LISTENER: u64 = 0;
/// Token the reactor's own [`Waker`] eventfd is registered under.
pub const TOKEN_WAKER: u64 = 1;
/// First token handed to accepted connections.
pub const TOKEN_FIRST_CONN: u64 = 2;

/// Which readiness a registration asks for. Hangup/error are always
/// reported (epoll semantics) and surface as `readable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest { read: true, write: false };
    pub const WRITE: Interest = Interest { read: false, write: true };
    pub const BOTH: Interest = Interest { read: true, write: true };
    pub const NONE: Interest = Interest { read: false, write: false };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// Whether the evented front end can run on this target.
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_void;
    use std::time::Duration;

    fn events_bits(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if interest.read {
            bits |= sys::EPOLLIN;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// One epoll instance. `wait` is called by the owning lane only;
    /// registration is also lane-owned, so no interior locking.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: events_bits(interest),
                data: token,
            };
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Wait for readiness, at most `timeout`. Fills `out` (cleared
        /// first) and returns the number of events. EINTR reports as zero
        /// events rather than an error.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
            out.clear();
            const CAP: usize = 256;
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAP];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in raw.iter().take(n as usize) {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    // Hangup/error surface as readable so the owner runs
                    // its read path and observes EOF/ECONNRESET there.
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                        != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                });
            }
            Ok(n as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                sys::close(self.epfd);
            }
        }
    }

    /// Cross-thread nudge for a reactor parked in `epoll_wait`.
    #[derive(Debug)]
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Create an eventfd and register it with `poller` under `token`.
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let w = Waker { fd };
            poller.register(fd, token, Interest::READ)?;
            Ok(w)
        }

        /// Wake the reactor (idempotent until drained; errors ignored —
        /// a full eventfd counter already means a pending wake).
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe {
                sys::write(self.fd, &one as *const u64 as *const c_void, 8);
            }
        }

        /// Consume pending wakes so level-triggered polling quiesces.
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            unsafe {
                sys::read(self.fd, &mut buf as *mut u64 as *mut c_void, 8);
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                sys::close(self.fd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    type RawFd = i32;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "evented net mode needs epoll (Linux); falling back to threaded",
        )
    }

    /// Stub poller so gserver compiles unchanged off-Linux; `serve`
    /// resolves the net mode to threaded before ever constructing one.
    #[derive(Debug)]
    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }
        pub fn register(&self, _fd: RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn reregister(&self, _fd: RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout: Duration) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    #[derive(Debug)]
    pub struct Waker;

    impl Waker {
        pub fn new(_poller: &Poller, _token: u64) -> io::Result<Waker> {
            Err(unsupported())
        }
        pub fn wake(&self) {}
        pub fn drain(&self) {}
    }
}

pub use imp::{Poller, Waker};

// Safety: the epoll fd and eventfd are plain kernel handles; every syscall
// made through them is thread-safe. The server's discipline is stronger
// still — only the lane that owns a poller calls `wait`/`register` on it,
// other threads only call `Waker::wake`.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn waker_roundtrip() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, TOKEN_WAKER).unwrap();
        let mut events = Vec::new();
        // Nothing ready: a short wait times out empty.
        let n = poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
        waker.wake();
        let n = poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, TOKEN_WAKER);
        assert!(events[0].readable);
        waker.drain();
        // Drained: quiesces again.
        let n = poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == TOKEN_LISTENER && e.readable));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let token = TOKEN_FIRST_CONN;
        poller
            .register(server_side.as_raw_fd(), token, Interest::READ)
            .unwrap();
        client.write_all(b"hello\n").unwrap();
        let n = poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == token && e.readable));

        // An empty write buffer + write interest reports writable at once.
        poller
            .reregister(server_side.as_raw_fd(), token, Interest::BOTH)
            .unwrap();
        let n = poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == token && e.writable));

        poller.deregister(server_side.as_raw_fd()).unwrap();
        drop(client);
        let n = poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0, "deregistered fd reports nothing");
    }
}
