//! LDBC-SNB-like workload: schema, deterministic generator, and the
//! Interactive Short Read (IS1–IS7) and Interactive Update (IU1–IU8)
//! queries of the paper's evaluation (§7.2).
//!
//! The official LDBC generator and SF10 dataset are substituted by a
//! seeded synthetic social network with the same topology statistics that
//! drive these queries' costs: power-law friendship degree and forum
//! activity, message-reply trees, and dictionary-heavy string properties
//! (see DESIGN.md §1). Queries are graph-algebra plans runnable through
//! all four execution modes of the evaluation — single-threaded AOT,
//! morsel-parallel AOT, JIT, and adaptive.
//!
//! Divergences from the LDBC specification, kept because they do not
//! change the queries' cost profile (documented here once):
//!
//! * `KNOWS` is materialised in both directions (LDBC treats it as
//!   undirected), so friend expansion is a single outgoing traversal;
//! * comments carry a denormalised `rootPostId` property instead of
//!   requiring an unbounded `REPLY_OF` chain walk (IS2/IS6 use it);
//! * IU1/IU6/IU7 insert the entity with its location/container links but
//!   skip the optional tag-set and university/company sub-inserts.

pub mod gen;
pub mod queries;
pub mod schema;

pub use gen::{generate, reopen, SnbData, SnbDb, SnbParams};
pub use queries::{
    run_plan_ctx, run_spec, run_spec_ctx, run_spec_txn, slot_to_pval, IuQuery, Mode, QuerySpec,
    SrQuery, Step,
};
pub use schema::SnbCodes;
