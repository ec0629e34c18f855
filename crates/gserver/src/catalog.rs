//! The server-side query catalog: named LDBC interactive queries plus a
//! small ad-hoc plan grammar for exploratory reads.
//!
//! Clients never ship plans over the wire — they name a catalog entry
//! (`"is1"`, `"iu8"`, `"is2-post:scan"`) or an ad-hoc expression
//! (`"scan Person where age >= ?0 project firstName limit 10"`). Plans are
//! therefore constructed server-side, which keeps the JIT code cache
//! effective: every client invoking the same template hits the same plan
//! fingerprint.

use std::collections::HashMap;
use std::sync::Arc;

use gquery::{CmpOp, Op, PPar, Plan, Pred, Proj};
use graphcore::GraphDb;
use gstore::PVal;
use ldbc::{IuQuery, QuerySpec, SnbCodes, SrQuery};

use crate::proto::{ErrorCode, ProtoError};

/// Immutable, shared query catalog built once at server start.
pub struct Catalog {
    by_name: HashMap<String, Arc<NamedQuery>>,
}

/// A resolved catalog entry: the spec plus the number of client-supplied
/// parameters it needs (feed-chained parameters excluded).
///
/// A `match` query carries its resolved [`gmatch::PatternGraph`] instead
/// of a fixed plan: physical planning is deferred to execution time,
/// where the cost model sees the actual parameter values and the PGO
/// table's observed per-segment selectivities (`spec` stays empty).
pub struct NamedQuery {
    pub spec: QuerySpec,
    pub n_params: usize,
    pub is_update: bool,
    pub pattern: Option<gmatch::PatternGraph>,
    /// The catalog half of the cannot-block rule (DESIGN.md §15): a
    /// read-only query with no pattern whose every step is index-headed
    /// (not [`gquery::morsel_eligible`]) touches a bounded number of
    /// records and never fans out to morsel threads, so an evented lane
    /// may run it itself. All of `is1`…`is7` are; no `:scan` variant,
    /// update, `match` or ad-hoc `scan`/`range`/`count` is.
    pub(crate) lane_runnable: bool,
}

impl NamedQuery {
    /// The one constructor, so the derived bits cannot drift between the
    /// catalog, the ad-hoc grammar and `match`.
    fn new(spec: QuerySpec, n_params: usize, pattern: Option<gmatch::PatternGraph>) -> NamedQuery {
        let is_update = spec.is_update();
        let lane_runnable = pattern.is_none()
            && !is_update
            && spec.steps.iter().all(|s| !gquery::morsel_eligible(&s.plan));
        NamedQuery {
            spec,
            n_params,
            is_update,
            pattern,
            lane_runnable,
        }
    }

    fn from_spec(spec: QuerySpec) -> NamedQuery {
        let n_params = required_params(&spec);
        NamedQuery::new(spec, n_params, None)
    }
}

/// Client-supplied parameter count: each step's `n_params` minus however
/// many values the feed chain has appended by the time it runs.
fn required_params(spec: &QuerySpec) -> usize {
    let mut feeds = 0usize;
    let mut required = 0usize;
    for step in &spec.steps {
        if step.feed_col.is_some() {
            feeds += 1;
        }
        required = required.max(step.plan.n_params.saturating_sub(feeds));
    }
    required
}

impl Catalog {
    /// Build the catalog from the schema codes: all IS/IU queries under
    /// `is*`/`iu*` names, plus `:scan` variants of the short reads (the
    /// non-indexed access path the paper's JIT benchmarks compile).
    pub fn new(codes: &SnbCodes) -> Catalog {
        let mut by_name = HashMap::new();
        for q in SrQuery::ALL {
            let spec = q.spec(codes);
            by_name.insert(
                format!("is{}:scan", q.name()),
                Arc::new(NamedQuery::from_spec(spec.scan_variant())),
            );
            by_name.insert(
                format!("is{}", q.name()),
                Arc::new(NamedQuery::from_spec(spec)),
            );
        }
        for q in IuQuery::ALL {
            by_name.insert(
                format!("iu{}", q.name()),
                Arc::new(NamedQuery::from_spec(q.spec(codes))),
            );
        }
        Catalog { by_name }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Resolve query text: a catalog name first, then the ad-hoc grammar.
    pub fn resolve(&self, db: &GraphDb, text: &str) -> Result<Arc<NamedQuery>, ProtoError> {
        let text = text.trim();
        if let Some(q) = self.by_name.get(text) {
            return Ok(q.clone());
        }
        if let Some(first) = text.split_whitespace().next() {
            if matches!(first, "count" | "scan" | "range") {
                return parse_adhoc(db, text).map(Arc::new);
            }
            if first == "match" {
                return parse_match(db, text).map(Arc::new);
            }
        }
        Err(ProtoError::new(
            ErrorCode::UnknownQuery,
            format!("no catalog query or ad-hoc form matches {text:?}"),
        ))
    }

    /// Registered names, sorted (for `hello`/diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Parse the ad-hoc grammar:
///
/// ```text
/// count nodes [Label]
/// count rels  [Type]
/// scan Label [where Key OP VALUE] [project ITEM,ITEM,...] [limit N] [count]
/// range Label Key LO HI [where ...] [project ...] [limit N] [count]
/// ```
///
/// `OP` is one of `= != < <= > >=`; `VALUE` (and `LO`/`HI`) is an integer,
/// `'string'`, `true`/`false`, or `?N` (execution-time parameter). Project
/// items are property keys on the scanned node, `@label` for its label
/// code, or `#N` for raw column `N`. `range` is the B+-tree range access
/// path: nodes with `LO <= Key <= HI`, served from the `(Label, Key)`
/// index when one exists and morsel-parallelised like a scan.
fn parse_adhoc(db: &GraphDb, text: &str) -> Result<NamedQuery, ProtoError> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut n_params = 0usize;

    let mut i = 0;
    match toks[i] {
        "count" => {
            i += 1;
            let kind = *toks
                .get(i)
                .ok_or_else(|| ProtoError::bad_request("count needs `nodes` or `rels`"))?;
            i += 1;
            let label = match toks.get(i) {
                Some(name) => {
                    i += 1;
                    Some(label_code(db, name)?)
                }
                None => None,
            };
            match kind {
                "nodes" => ops.push(Op::NodeScan { label }),
                "rels" => ops.push(Op::RelScan { label }),
                other => {
                    return Err(ProtoError::bad_request(format!(
                        "count needs `nodes` or `rels`, got {other:?}"
                    )))
                }
            }
            ops.push(Op::Count);
        }
        "scan" => {
            i += 1;
            let label = toks
                .get(i)
                .ok_or_else(|| ProtoError::bad_request("scan needs a label"))?;
            i += 1;
            ops.push(Op::NodeScan {
                label: Some(label_code(db, label)?),
            });
            i = parse_tail_clauses(db, &toks, i, &mut ops, &mut n_params)?;
        }
        "range" => {
            i += 1;
            let (Some(label), Some(key), Some(lo_raw), Some(hi_raw)) =
                (toks.get(i), toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
            else {
                return Err(ProtoError::bad_request("range needs `LABEL KEY LO HI`"));
            };
            i += 4;
            let lo = parse_value(db, lo_raw, &mut n_params)?;
            let hi = parse_value(db, hi_raw, &mut n_params)?;
            ops.push(Op::IndexRangeScan {
                label: label_code(db, label)?,
                key: key_code(db, key)?,
                lo,
                hi,
            });
            i = parse_tail_clauses(db, &toks, i, &mut ops, &mut n_params)?;
        }
        _ => unreachable!("resolve() gates on the first token"),
    }
    if i < toks.len() {
        return Err(ProtoError::bad_request(format!(
            "trailing tokens after {:?}",
            toks[i - 1]
        )));
    }

    let spec = QuerySpec {
        name: "adhoc",
        steps: vec![ldbc::Step {
            plan: Plan::new(ops, n_params),
            feed_col: None,
        }],
    };
    Ok(NamedQuery::new(spec, n_params, None))
}

/// Parse a `match` pattern (DESIGN.md §16) and resolve it against the
/// dictionary. Only the logical pattern graph is built here — the
/// cost-based planner runs per execution, against the request's actual
/// parameter values and the live PGO table.
fn parse_match(db: &GraphDb, text: &str) -> Result<NamedQuery, ProtoError> {
    let ast = gmatch::parse(text)
        .map_err(|e| ProtoError::bad_request(format!("match: {e}")))?;
    let pg = gmatch::PatternGraph::resolve(&ast, &gmatch::DictResolver(db.dict()))
        .map_err(|e| ProtoError::new(ErrorCode::UnknownQuery, format!("match: {e}")))?;
    let spec = QuerySpec {
        name: "match",
        steps: vec![],
    };
    Ok(NamedQuery::new(spec, pg.n_params, Some(pg)))
}

/// The shared tail of `scan`/`range`: `where`, `project`, `limit`, `count`
/// clauses in any order. Returns the index past the last consumed token.
fn parse_tail_clauses(
    db: &GraphDb,
    toks: &[&str],
    mut i: usize,
    ops: &mut Vec<Op>,
    n_params: &mut usize,
) -> Result<usize, ProtoError> {
    while i < toks.len() {
        match toks[i] {
            "where" => {
                let key = toks
                    .get(i + 1)
                    .ok_or_else(|| ProtoError::bad_request("where needs `KEY OP VALUE`"))?;
                let op = toks.get(i + 2).and_then(|s| cmp_op(s)).ok_or_else(|| {
                    ProtoError::bad_request("where op must be one of = != < <= > >=")
                })?;
                let raw = toks
                    .get(i + 3)
                    .ok_or_else(|| ProtoError::bad_request("where needs `KEY OP VALUE`"))?;
                let value = parse_value(db, raw, n_params)?;
                ops.push(Op::Filter(Pred::Prop {
                    col: 0,
                    key: key_code(db, key)?,
                    op,
                    value,
                }));
                i += 4;
            }
            "project" => {
                let items = toks.get(i + 1).ok_or_else(|| {
                    ProtoError::bad_request("project needs a comma-separated list")
                })?;
                let mut projs = Vec::new();
                for item in items.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        continue;
                    }
                    if item == "@label" {
                        projs.push(Proj::Label { col: 0 });
                    } else if let Some(n) = item.strip_prefix('#') {
                        let col: usize = n.parse().map_err(|_| {
                            ProtoError::bad_request(format!("bad column ref {item:?}"))
                        })?;
                        projs.push(Proj::Col(col));
                    } else {
                        projs.push(Proj::Prop {
                            col: 0,
                            key: key_code(db, item)?,
                        });
                    }
                }
                if projs.is_empty() {
                    return Err(ProtoError::bad_request("empty project list"));
                }
                ops.push(Op::Project(projs));
                i += 2;
            }
            "limit" => {
                let n: usize = toks
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ProtoError::bad_request("limit needs a number"))?;
                ops.push(Op::Limit(n));
                i += 2;
            }
            "count" => {
                ops.push(Op::Count);
                i += 1;
            }
            other => {
                return Err(ProtoError::bad_request(format!(
                    "unexpected token {other:?}"
                )))
            }
        }
    }
    Ok(i)
}

fn cmp_op(s: &str) -> Option<CmpOp> {
    Some(match s {
        "=" | "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

/// A label/type name must already exist in the dictionary: a typo should
/// be an error, not an empty scan over a label nobody has.
fn label_code(db: &GraphDb, name: &str) -> Result<u32, ProtoError> {
    db.dict().code_of(name).ok_or_else(|| {
        ProtoError::new(ErrorCode::UnknownQuery, format!("unknown label {name:?}"))
    })
}

fn key_code(db: &GraphDb, name: &str) -> Result<u32, ProtoError> {
    db.dict().code_of(name).ok_or_else(|| {
        ProtoError::new(
            ErrorCode::UnknownQuery,
            format!("unknown property key {name:?}"),
        )
    })
}

fn parse_value(db: &GraphDb, raw: &str, n_params: &mut usize) -> Result<PPar, ProtoError> {
    if let Some(n) = raw.strip_prefix('?') {
        let idx: usize = n
            .parse()
            .map_err(|_| ProtoError::bad_request(format!("bad parameter ref {raw:?}")))?;
        *n_params = (*n_params).max(idx + 1);
        return Ok(PPar::Param(idx));
    }
    if let Some(s) = raw.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        let code = db.intern(s).map_err(|e| {
            ProtoError::new(ErrorCode::Internal, format!("intern failed: {e}"))
        })?;
        return Ok(PPar::Const(PVal::Str(code)));
    }
    match raw {
        "true" => return Ok(PPar::Const(PVal::Bool(true))),
        "false" => return Ok(PPar::Const(PVal::Bool(false))),
        "null" => return Ok(PPar::Const(PVal::Null)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(PPar::Const(PVal::Int(i)));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(PPar::Const(PVal::Double(f)));
    }
    Err(ProtoError::bad_request(format!(
        "cannot parse value {raw:?} (use int, float, 'str', true/false, or ?N)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DbOptions;

    fn snb() -> ldbc::SnbDb {
        ldbc::generate(
            &ldbc::SnbParams::tiny(7),
            DbOptions::dram(96 << 20),
        )
        .unwrap()
    }

    #[test]
    fn catalog_has_all_interactive_queries() {
        let snb = snb();
        let cat = Catalog::new(&snb.codes);
        // 12 short reads x (indexed + scan) + 8 updates.
        assert_eq!(cat.len(), 32);
        for name in ["is1", "is1:scan", "is2-post", "is7-cmt", "iu1", "iu8"] {
            let q = cat.resolve(&snb.db, name).unwrap();
            assert!(q.n_params >= 1, "{name} should take parameters");
        }
        assert!(cat.resolve(&snb.db, "is99").is_err());
        let iu1 = cat.resolve(&snb.db, "iu1").unwrap();
        assert!(iu1.is_update);
        let is1 = cat.resolve(&snb.db, "is1").unwrap();
        assert!(!is1.is_update);
    }

    #[test]
    fn lane_runnable_is_exactly_the_indexed_short_reads() {
        let snb = snb();
        let cat = Catalog::new(&snb.codes);
        for name in cat.names() {
            let q = cat.resolve(&snb.db, &name).unwrap();
            let indexed_read = name.starts_with("is") && !name.ends_with(":scan");
            assert_eq!(q.lane_runnable, indexed_read, "{name}");
        }
        for text in [
            "match (a:Person {id = ?0})-[:KNOWS]->(b:Person) return b.id",
            "scan Person where id >= ?0 project firstName limit 5",
            "range Person id ?0 ?1 project firstName limit 3",
            "count nodes Person",
            "count rels",
        ] {
            assert!(!cat.resolve(&snb.db, text).unwrap().lane_runnable, "{text}");
        }
    }

    #[test]
    fn adhoc_grammar_builds_plans() {
        let snb = snb();
        let cat = Catalog::new(&snb.codes);
        let q = cat.resolve(&snb.db, "count nodes Person").unwrap();
        assert_eq!(q.n_params, 0);
        assert!(!q.is_update);

        let q = cat
            .resolve(
                &snb.db,
                "scan Person where id >= ?0 project firstName,lastName limit 5",
            )
            .unwrap();
        assert_eq!(q.n_params, 1);
        assert_eq!(q.spec.steps[0].plan.ops.len(), 4);

        let q = cat.resolve(&snb.db, "scan Person count").unwrap();
        assert_eq!(q.n_params, 0);

        assert!(cat.resolve(&snb.db, "scan Nope").is_err());
        assert!(cat.resolve(&snb.db, "scan Person where").is_err());
        assert!(cat.resolve(&snb.db, "scan Person banana").is_err());

        let q = cat
            .resolve(&snb.db, "range Person id ?0 ?1 project firstName limit 3")
            .unwrap();
        assert_eq!(q.n_params, 2);
        assert!(matches!(
            q.spec.steps[0].plan.ops.first(),
            Some(Op::IndexRangeScan { .. })
        ));

        assert!(cat.resolve(&snb.db, "range Person id 0").is_err());
        assert!(cat.resolve(&snb.db, "range Person nope 0 10").is_err());
    }

    #[test]
    fn adhoc_queries_run() {
        let snb = snb();
        let cat = Catalog::new(&snb.codes);
        let q = cat.resolve(&snb.db, "count nodes Person").unwrap();
        let rows = ldbc::run_spec(&snb.db, &q.spec, &[], &ldbc::Mode::Interp).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_pval(), Some(PVal::Int(60)));

        // A full-range count over `id` must see every Person, whether it
        // goes through the index or the fallback scan.
        let q = cat
            .resolve(&snb.db, "range Person id 0 9223372036854775807 count")
            .unwrap();
        let rows = ldbc::run_spec(&snb.db, &q.spec, &[], &ldbc::Mode::Interp).unwrap();
        assert_eq!(rows[0][0].as_pval(), Some(PVal::Int(60)));
    }
}
