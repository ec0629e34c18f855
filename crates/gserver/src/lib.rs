//! gserver — the concurrent network query-serving subsystem.
//!
//! Turns the embedded engine (PMem pool → MVTO transactions → graph store
//! → adaptive JIT execution) into a multi-client server, the deployment
//! shape the paper's evaluation implies (many LDBC interactive clients
//! against one persistent graph):
//!
//! * **Wire protocol** ([`proto`]) — newline-delimited JSON frames;
//!   clients may pipeline (N requests in flight per connection) and
//!   responses come back in request order.
//! * **Sessions** ([`session`]) — one per connection, with idle-timeout
//!   kill; an open MVTO transaction belongs to its session and *provably
//!   rolls back on disconnect* (the transaction handle lives on the
//!   connection thread's stack).
//! * **Query catalog** ([`catalog`]) — clients name server-side LDBC
//!   plans (`"is1"`, `"iu8"`, `:scan` variants) or use a small ad-hoc
//!   grammar; plans never travel over the wire, so every client shares
//!   the same plan fingerprints and the same JIT code cache.
//! * **Front ends** ([`server`], [`reactor`], `evented`) — the default
//!   evented front end is a set of epoll lanes owning the sockets — each
//!   answers the requests that cannot block itself — plus a fixed
//!   net-worker pool behind lane 0 for the rest
//!   (`PMEMGRAPH_NET_MODE=evented`); the classic
//!   thread-per-connection loop remains as `threaded`. Backpressure
//!   pauses read interest (TCP pushback) instead of erroring; the
//!   bounded admission semaphore still yields a fast, retryable
//!   `SERVER_BUSY` as the last resort when the *engine* saturates;
//!   one `ExecCtx` per request carries its deadline into every step
//!   and segment, where it is checked per morsel / result batch.
//! * **Maintenance** — a background tick sweeps idle sessions and drives
//!   storage reclamation (`reclaim_deleted` + `vacuum_props`).
//! * **Observability** ([`metrics`]) — every subsystem counter joins a
//!   per-server [`gobs::Registry`] as a fn-metric; `STATS` is a JSON view
//!   over a registry snapshot, `METRICS` renders the same snapshot as
//!   Prometheus text, `SLOWLOG` drains the bounded slow-query ring, and
//!   `PMEMGRAPH_METRICS_ADDR` starts a standalone scrape endpoint.
//! * **Client** ([`client`]) — a small blocking [`Client`] used by the
//!   CLI binary, the integration tests and the bench load driver.
//!
//! See DESIGN.md §7 for the protocol reference and README.md for a
//! quickstart.

pub mod catalog;
pub mod client;
mod evented;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod session;

pub use catalog::{Catalog, NamedQuery};
pub use client::{BatchItem, Client, ClientError, Param, QueryResult};
pub use json::Json;
pub use proto::{ErrorCode, ProtoError, Request};
pub use server::{serve, NetMode, ServerConfig, ServerHandle, ServerStats};
pub use session::SessionTable;
