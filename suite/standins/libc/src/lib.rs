//! Empty on purpose: `crates/pmem` lists `libc` as a dependency and uses no item of it.
