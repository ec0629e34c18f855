//! Multi-hop pattern matching with cost-based planning (DESIGN.md §16).
//!
//! The query surface this crate adds is a Cypher-lite pattern language:
//! node/edge patterns with labels and property predicates, directed
//! variable-length paths (`*min..max`), joins on shared bindings and
//! property filters on interior nodes. A pattern is parsed ([`parse`])
//! into an AST, resolved against a database dictionary into a logical
//! *pattern graph* ([`PatternGraph`]), planned ([`plan`]) by a cost-based
//! planner that orders expansions and picks an access path per segment —
//! B+-tree index scan vs zone-mapped pruned chunk scan vs adjacency
//! expansion — and lowered onto the existing [`gquery::Plan`] operator
//! language, so the morsel scheduler, predicate pushdown, the MVTO fast
//! path and the §14 expression tier all apply unchanged.
//!
//! The cost model is fed by live statistics: table row counts, ReadAccel
//! zone-map chunk-survival fractions as selectivity estimates, index
//! presence, and — once a pattern has executed — observed per-segment
//! selectivity from the PGO table ([`gjit::PgoTable`]), which reprices
//! candidate plans on replan (the §14 feedback loop, ROADMAP item 4).
//!
//! Execution ([`exec`]) runs the scan head through any of the four
//! execution modes (interpreted / parallel / JIT / adaptive) and drives
//! each expansion segment over a binding table, with the segment's
//! residual predicate routed through the expression tier so hot patterns
//! get compiled filters. A sharded database fans the head out across
//! every pool and resolves `REMOTE` half-edges through the §13 router
//! (mirror halves are never double-walked).

pub mod exec;
pub mod parse;
pub mod pattern;
pub mod planner;
pub mod reference;
pub mod stats;

pub use exec::{execute_match, execute_match_ctx, execute_match_sharded, Backend};
pub use parse::{parse, Ast, MatchError};
pub use pattern::{DictResolver, NameResolver, PatternGraph};
pub use planner::{plan, MatchPlan, Pipeline, PlanChoice, Segment};
pub use reference::{reference_rows, RefGraph};
pub use stats::{DbStats, ShardStats, StatsSource};
