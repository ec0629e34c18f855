//! Offline stand-in for `memmap2`: shared file mappings, anonymous
//! mappings and the RW→RX flip the expression JIT needs. Real `mmap(2)`
//! through the C library `std` already links, so a pool file written by
//! one process is read back by the next exactly as with the published
//! crate. Linux only, like the evented front end.

use std::fs::File;
use std::io;
use std::ops::{Deref, DerefMut};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
}

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const PROT_EXEC: c_int = 4;
const MAP_SHARED: c_int = 0x01;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MS_SYNC: c_int = 4;

/// One `mmap` region; unmapped on drop.
struct Region {
    ptr: *mut u8,
    len: usize,
}

impl Region {
    fn map(len: usize, prot: c_int, flags: c_int, fd: c_int) -> io::Result<Region> {
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "memory map must have a non-zero length",
            ));
        }
        // SAFETY: a fresh mapping at a kernel-chosen address aliases nothing.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, fd, 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Region {
            ptr: ptr.cast(),
            len,
        })
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr..ptr+len` is exactly the mapping made in `map`.
        unsafe { munmap(self.ptr.cast(), self.len) };
    }
}

/// A writable mapping.
pub struct MmapMut(Region);

/// A read-only (here: read + execute) mapping.
pub struct Mmap(Region);

// SAFETY: the mapping is plain memory owned by this value; sharing it is
// as safe as sharing a `Vec<u8>`.
unsafe impl Send for MmapMut {}
unsafe impl Sync for MmapMut {}
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl MmapMut {
    /// Map the whole of `file` shared and writable.
    ///
    /// # Safety
    ///
    /// As for `memmap2`: the caller must not let the file be truncated
    /// or modified behind the mapping's back.
    pub unsafe fn map_mut(file: &File) -> io::Result<MmapMut> {
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        Region::map(len, PROT_READ | PROT_WRITE, MAP_SHARED, file.as_raw_fd()).map(MmapMut)
    }

    /// An anonymous, zero-filled, private mapping of `len` bytes.
    pub fn map_anon(len: usize) -> io::Result<MmapMut> {
        Region::map(len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1).map(MmapMut)
    }

    /// `msync(MS_SYNC)` over the whole mapping.
    pub fn flush(&self) -> io::Result<()> {
        // SAFETY: the range is this value's own mapping.
        if unsafe { msync(self.0.ptr.cast(), self.0.len, MS_SYNC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Drop write permission and add execute permission.
    pub fn make_exec(self) -> io::Result<Mmap> {
        // SAFETY: the range is this value's own mapping.
        if unsafe { mprotect(self.0.ptr.cast(), self.0.len, PROT_READ | PROT_EXEC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap(self.0))
    }
}

impl Deref for MmapMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` readable bytes while `self` lives.
        unsafe { std::slice::from_raw_parts(self.0.ptr, self.0.len) }
    }
}

impl DerefMut for MmapMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as above, and the mapping is writable and uniquely borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.0.ptr, self.0.len) }
    }
}

impl Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` readable bytes while `self` lives.
        unsafe { std::slice::from_raw_parts(self.0.ptr, self.0.len) }
    }
}
