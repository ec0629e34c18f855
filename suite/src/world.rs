//! The system under test: generated data, per-set-up pool copies and the
//! in-process server. Everything here goes through public functions of
//! the crates being measured.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::fd::{AsRawFd, FromRawFd};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gjit::JitEngine;
use graphcore::{DbOptions, GraphDb};
use gserver::{serve, ServerHandle};
use ldbc::SnbDb;
use pmem::DeviceProfile;

use crate::config::{self, Scale};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Fail with a message.
pub fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(msg.into().into())
}

/// `suite/out/`: result files and span files. Named from the manifest
/// directory the binary was built in, so it is inside the checkout
/// whatever the current directory is.
pub fn out_dir() -> Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The file behind one pool: an anonymous in-memory file (`memfd`),
/// named through `/proc/self/fd`, so `pmem::Pool`'s path API creates,
/// maps, closes and reopens it like any file.
///
/// Persistent memory is memory. A pool file on the container's disk put
/// the page cache's write-back between the server and its "device":
/// 47 % iowait during runs, and the same seed's throughput spread over
/// ±13 %. The pool stays file-backed as far as `pmem` can tell
/// (`PoolKind::Persistent`), contents survive close and reopen for as
/// long as this handle lives, and nothing is written outside the process.
pub struct PoolFile {
    file: File,
    path: PathBuf,
}

mod sys {
    use std::os::raw::{c_char, c_int, c_uint};

    extern "C" {
        pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    }

    pub const MFD_CLOEXEC: c_uint = 1;
}

impl PoolFile {
    pub fn new() -> Result<PoolFile> {
        // SAFETY: the name is a NUL-terminated literal; the call has no
        // other preconditions.
        let fd = unsafe { sys::memfd_create(c"suite-pool".as_ptr(), sys::MFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error().into());
        }
        // SAFETY: `fd` is a fresh descriptor nothing else owns.
        let file = unsafe { File::from_raw_fd(fd) };
        let path = PathBuf::from(format!("/proc/self/fd/{}", file.as_raw_fd()));
        Ok(PoolFile { file, path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The generated base pool: closed, ready to be copied.
pub struct BasePool {
    pub file: PoolFile,
    /// Bytes from offset 0 the allocator has handed out; the rest of the
    /// file is a hole.
    pub used_bytes: u64,
    pub generate_s: f64,
}

/// Generate the data set into a file-backed pool with the PMem device
/// profile and close it cleanly.
pub fn generate_base(scale: Scale) -> Result<BasePool> {
    let file = PoolFile::new()?;
    let start = Instant::now();
    let snb = ldbc::generate(
        &scale.params(),
        DbOptions::pmem(file.path(), config::POOL_BYTES),
    )?;
    let generate_s = start.elapsed().as_secs_f64();
    let used_bytes = config::POOL_BYTES as u64 - snb.db.pool().bytes_remaining();
    drop(snb);
    Ok(BasePool {
        file,
        used_bytes,
        generate_s,
    })
}

/// Copy the used prefix of the base pool into a new pool file of full
/// size, so every set-up starts from byte-identical state without paying
/// for 256 MiB of zeros.
pub fn copy_pool(base: &BasePool) -> Result<PoolFile> {
    let copy = PoolFile::new()?;
    let mut src = &base.file.file;
    src.seek(SeekFrom::Start(0))?;
    io::copy(&mut src.take(base.used_bytes), &mut &copy.file)?;
    copy.file.set_len(config::POOL_BYTES as u64)?;
    Ok(copy)
}

/// A running server over one pool copy.
pub struct Served {
    pub snb: Arc<SnbDb>,
    pub handle: ServerHandle,
    pool: PoolFile,
}

impl Served {
    /// Copy the base pool, reopen the copy with the PMem profile and
    /// serve it under the fixed configuration.
    pub fn start(base: &BasePool) -> Result<Served> {
        let pool = copy_pool(base)?;
        let snb = Arc::new(ldbc::reopen(pool.path(), DeviceProfile::pmem())?);
        let engine = Arc::new(JitEngine::new());
        let handle = serve(snb.clone(), engine, config::server_config())?;
        Ok(Served { snb, handle, pool })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.local_addr()
    }

    /// Stop the server and close the pool cleanly. Returns the pool file.
    pub fn stop(self) -> Result<PoolFile> {
        let Served { snb, handle, pool } = self;
        handle.shutdown();
        match Arc::try_unwrap(snb) {
            Ok(snb) => drop(snb),
            Err(_) => return err("server threads still hold the database after shutdown"),
        }
        Ok(pool)
    }
}

/// Median wall time of `n` `GraphDb::open` calls on a cleanly closed pool.
pub fn recovery_ms(pool: &PoolFile, n: usize) -> Result<f64> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let db = GraphDb::open(pool.path(), DeviceProfile::pmem())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        drop(db);
    }
    Ok(crate::stats::median(&times).expect("n > 0"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok());
    match kb {
        Some(kb) => Ok(kb / 1024.0),
        None => err("no VmHWM line in /proc/self/status"),
    }
}
