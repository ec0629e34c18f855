//! Output checking: expected answers computed by a path that shares
//! neither the wire, nor the adaptive scheduler, nor generated code with
//! the server, and the post-run invariants of the write workloads.

use std::collections::HashMap;
use std::sync::Arc;

use gquery::{Row, Slot};
use graphcore::{DbOptions, GraphDb, PropOwner, Value};
use gserver::{proto, Catalog, Json, NamedQuery, Request};
use gstore::PVal;
use ldbc::SnbDb;
use pmem::{CrashPolicy, DeviceProfile};

use crate::config::{self, Scale};
use crate::gen::{DataView, Phase, Req, StreamGen, Workload};
use crate::load::{acknowledged, classify, Conn, ConnRecord, Outcome};
use crate::world::{err, PoolFile, Result};

/// What a server session knows about statements: the catalog and the
/// statements a connection of this workload prepared.
pub struct Session<'a> {
    pub db: &'a GraphDb,
    pub catalog: Catalog,
    pub prepared: HashMap<String, Arc<NamedQuery>>,
}

impl<'a> Session<'a> {
    pub fn new(snb: &'a SnbDb, workload: Workload) -> Result<Session<'a>> {
        let catalog = Catalog::new(&snb.codes);
        let mut prepared = HashMap::new();
        for (name, text) in StreamGen::prepared(workload) {
            prepared.insert(name, catalog.resolve(&snb.db, &text)?);
        }
        Ok(Session {
            db: &snb.db,
            catalog,
            prepared,
        })
    }

    /// The query an execute request names, as `do_execute` finds it.
    pub fn query(&self, name: Option<&str>, text: Option<&str>) -> Result<Arc<NamedQuery>> {
        match (name, text) {
            (Some(n), _) => match self.prepared.get(n) {
                Some(q) => Ok(q.clone()),
                None => err(format!("statement {n} was never prepared")),
            },
            (None, Some(t)) => Ok(self.catalog.resolve(self.db, t)?),
            (None, None) => err("execute frame without name or query"),
        }
    }

    pub fn params(&self, params: &[Json]) -> Result<Vec<PVal>> {
        Ok(params
            .iter()
            .map(|p| proto::json_to_pval(self.db, p))
            .collect::<std::result::Result<_, _>>()?)
    }

    /// Query and parameters of an execute frame.
    pub fn resolve(&self, frame: &str) -> Result<(Arc<NamedQuery>, Vec<PVal>)> {
        let Request::Execute {
            name,
            query,
            params,
            ..
        } = Request::parse(frame)?
        else {
            return err(format!("not an execute frame: {frame}"));
        };
        Ok((
            self.query(name.as_deref(), query.as_deref())?,
            self.params(&params)?,
        ))
    }
}

/// Answers request frames by plain interpretation.
pub struct Oracle<'a> {
    session: Session<'a>,
    /// At tiny scale match patterns are answered by
    /// `gmatch::reference_rows` over this copy of the whole graph; at
    /// bench scale that exhaustive matcher is out of reach (it is
    /// polynomial in the node count with the pattern size as exponent).
    reference: Option<gmatch::RefGraph>,
}

impl<'a> Oracle<'a> {
    pub fn new(snb: &'a SnbDb, workload: Workload, scale: Scale) -> Result<Oracle<'a>> {
        Ok(Oracle {
            session: Session::new(snb, workload)?,
            reference: match scale {
                Scale::Tiny => Some(reference_graph(snb)?),
                Scale::Bench => None,
            },
        })
    }

    /// The rows the request must return, as the server would render them,
    /// and whether they are a bag (a `match` promises no order).
    pub fn expected(&self, frame: &str) -> Result<(Vec<Json>, bool)> {
        let db = self.session.db;
        let (q, params) = self.session.resolve(frame)?;

        let rows: Vec<Row> = match (&q.pattern, &self.reference) {
            (Some(pg), Some(graph)) => gmatch::reference_rows(pg, graph, &params)
                .into_iter()
                .map(|row| row.into_iter().map(Slot::val).collect())
                .collect(),
            (Some(pg), None) => {
                let plan = gmatch::plan(
                    pg,
                    &gmatch::DbStats(db),
                    &params,
                    None,
                    gmatch::PlanChoice::Best,
                )?;
                gmatch::execute_match(&plan, db, gmatch::Backend::Interp, &params)?.0
            }
            (None, _) => {
                // The feed chain of `ldbc::run_spec_txn`, over the plain
                // interpreter (`execute_collect` arms no expression tier).
                let mut txn = db.begin();
                let mut rows: Vec<Row> = Vec::new();
                let mut cur = params;
                for step in &q.spec.steps {
                    if let Some(col) = step.feed_col {
                        let Some(first) = rows.first() else {
                            rows.clear();
                            break;
                        };
                        cur.push(ldbc::slot_to_pval(&first[col]));
                    }
                    rows = gquery::execute_collect(&step.plan, &mut txn, &cur)?;
                }
                rows
            }
        };
        let rendered = rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(|s| proto::slot_to_json(db, s)).collect()))
            .collect();
        Ok((rendered, q.pattern.is_some()))
    }

    /// Compare one wire answer with the expected rows. `Ok(())` or a
    /// one-line description of the difference.
    pub fn check(&self, req: &Req, response: &str) -> std::result::Result<(), String> {
        let wrong = |what: String| Err(format!("{what}: {}", req.frame));
        let (expected, is_bag) = match self.expected(&req.frame) {
            Ok(answer) => answer,
            Err(e) => return wrong(format!("oracle could not answer ({e})")),
        };
        let Ok(resp) = Json::parse(response.trim()) else {
            return wrong("response is not JSON".into());
        };
        let got = resp.get("rows").and_then(Json::as_array).unwrap_or(&[]);
        let count = resp.get("row_count").and_then(Json::as_i64).unwrap_or(-1);
        if count != expected.len() as i64 {
            return wrong(format!("row_count {count}, expected {}", expected.len()));
        }
        let truncated = resp
            .get("truncated")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        if !is_bag {
            // Catalog and ad-hoc plans merge morsels in scan order: the
            // answer is the expected row list, or its prefix when capped.
            if got != &expected[..got.len().min(expected.len())]
                || (!truncated && got.len() != expected.len())
            {
                return wrong("rows differ from the interpreter's".into());
            }
            return Ok(());
        }
        // Patterns promise a bag, not an order.
        let mut bag: HashMap<String, i64> = HashMap::new();
        for row in &expected {
            *bag.entry(row.to_string()).or_default() += 1;
        }
        for row in got {
            let left = bag.entry(row.to_string()).or_default();
            *left -= 1;
            if *left < 0 {
                return wrong(format!("row {row} is not in the expected bag"));
            }
        }
        if !truncated && bag.values().any(|left| *left != 0) {
            return wrong("rows missing from the answer".into());
        }
        Ok(())
    }

    /// Check every sampled answer; returns `(checked, problems)`.
    pub fn check_all(&self, samples: &[(Req, String)]) -> (usize, Vec<String>) {
        let problems = samples
            .iter()
            .filter_map(|(req, line)| self.check(req, line).err())
            .collect();
        (samples.len(), problems)
    }
}

/// The whole graph as `gmatch::reference_rows` wants it: committed nodes
/// with every schema property, committed relationships.
fn reference_graph(snb: &SnbDb) -> Result<gmatch::RefGraph> {
    let c = &snb.codes;
    let keys = [
        c.id,
        c.first_name,
        c.last_name,
        c.gender,
        c.birthday,
        c.creation_date,
        c.location_ip,
        c.browser_used,
        c.name,
        c.title,
        c.content,
        c.length,
        c.language,
        c.class_year,
        c.work_from,
        c.join_date,
        c.root_post_id,
    ];
    let txn = snb.db.begin();
    let mut graph = gmatch::RefGraph::default();
    let mut node_ids = Vec::new();
    snb.db.nodes().for_each_live(|id, _| node_ids.push(id));
    for id in node_ids {
        let Some(rec) = txn.node(id)? else { continue };
        let mut props = Vec::new();
        for key in keys {
            if let Some(v) = txn.prop_pval(PropOwner::Node(id), key)? {
                props.push((key, v));
            }
        }
        graph.add_node(id, rec.label, &props);
    }
    let mut rel_ids = Vec::new();
    snb.db.rels().for_each_live(|id, _| rel_ids.push(id));
    for id in rel_ids {
        if let Some(rec) = txn.rel(id)? {
            graph.add_edge(rec.src, rec.dst, rec.label);
        }
    }
    Ok(graph)
}

/// After a write workload: the database holds exactly what was there
/// before plus every acknowledged insert, and each inserted entity can
/// be found through its index. Returns the problems found.
pub fn check_inserts(
    db: &GraphDb,
    before: (usize, usize),
    rec: &ConnRecord,
) -> Result<Vec<String>> {
    let mut problems = Vec::new();
    let nodes = before.0 as u64 + rec.nodes_added;
    let rels = before.1 as u64 + rec.rels_added;
    if db.node_count() as u64 != nodes {
        problems.push(format!("{} nodes, expected {nodes}", db.node_count()));
    }
    if db.rel_count() as u64 != rels {
        problems.push(format!("{} relationships, expected {rels}", db.rel_count()));
    }
    let txn = db.begin();
    for (label, id) in &rec.entities {
        if txn.lookup_nodes(label, "id", &Value::Int(*id))?.len() != 1 {
            problems.push(format!("acknowledged {label} {id} is not readable"));
        }
    }
    Ok(problems)
}

/// Outcome of the durability check.
#[derive(Debug, Clone, Copy)]
pub struct Durability {
    pub acknowledged: u64,
    pub lost_writes: u64,
}

/// Replay the first `frames` requests of the `update` streams against a
/// second server whose pool tracks unflushed cache lines, drop every
/// unflushed line as a power failure would, reopen, and count the
/// acknowledged writes that are gone. Untimed: tracking costs a map
/// update per store, which is why the measured pool runs without it.
pub fn durability_check(scale: Scale, seed: u64, frames: usize) -> Result<Durability> {
    let file = PoolFile::new()?;
    let opts = DbOptions::pmem(file.path(), config::POOL_BYTES).crash_tracking(true);
    let snb = Arc::new(ldbc::generate(&scale.params(), opts)?);
    let before = (snb.db.node_count(), snb.db.rel_count());
    let view = DataView::new(&snb)?;
    let engine = Arc::new(gjit::JitEngine::new());
    let handle = gserver::serve(snb.clone(), engine, config::server_config())?;

    let mut acked = ConnRecord::default();
    let statements = StreamGen::prepared(Workload::Update);
    for conn_id in 0..config::CONNECTIONS {
        let mut conn = Conn::open(handle.local_addr(), &statements)?;
        let mut stream =
            StreamGen::new(Workload::Update, &view, &snb, seed, conn_id, Phase::Window);
        for _ in 0..frames / config::CONNECTIONS {
            let req = stream.next_req();
            let line = conn.call(&req.frame)?;
            if classify(line) == Outcome::Ok && acknowledged(&req, line) {
                acked.attempted += 1;
                acked.nodes_added += u64::from(req.effect.nodes);
                acked.rels_added += u64::from(req.effect.rels);
                acked.entities.extend(req.effect.entity);
            }
        }
    }
    handle.shutdown();

    snb.db.pool().simulate_crash(CrashPolicy::DropUnflushed)?;
    let Ok(snb) = Arc::try_unwrap(snb) else {
        return err("server threads still hold the database after shutdown");
    };
    // A crashed process runs no destructors: skip the clean-shutdown mark.
    std::mem::forget(snb);

    let db = GraphDb::open(file.path(), DeviceProfile::pmem())?;
    let problems = check_inserts(&db, before, &acked)?;
    for p in &problems {
        eprintln!("durability: {p}");
    }
    Ok(Durability {
        acknowledged: acked.attempted,
        lost_writes: problems.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Phase;

    /// What the server would answer: the same adaptive, compiling modes
    /// `do_execute` uses, not the interpreter the oracle uses.
    fn answer_as_server(snb: &SnbDb, oracle: &Oracle<'_>, frame: &str) -> String {
        let (q, params) = oracle.session.resolve(frame).unwrap();
        let engine = Arc::new(gjit::JitEngine::new());
        let rows = match &q.pattern {
            Some(pg) => {
                let plan = gmatch::plan(
                    pg,
                    &gmatch::DbStats(&snb.db),
                    &params,
                    None,
                    gmatch::PlanChoice::Best,
                )
                .unwrap();
                gmatch::execute_match(
                    &plan,
                    &snb.db,
                    gmatch::Backend::Adaptive(&engine, 2),
                    &params,
                )
                .unwrap()
                .0
            }
            None => ldbc::run_spec(&snb.db, &q.spec, &params, &ldbc::Mode::Adaptive(&engine, 2))
                .unwrap(),
        };
        let jrows: Vec<Json> = rows
            .iter()
            .map(|r| Json::Arr(r.iter().map(|s| proto::slot_to_json(&snb.db, s)).collect()))
            .collect();
        proto::ok_response(vec![
            ("rows", Json::Arr(jrows)),
            ("row_count", Json::Int(rows.len() as i64)),
            ("truncated", Json::Bool(false)),
        ])
    }

    #[test]
    fn oracle_accepts_right_answers_and_rejects_wrong_ones() {
        let snb = ldbc::generate(&ldbc::SnbParams::tiny(7), DbOptions::dram(96 << 20)).unwrap();
        let view = DataView::new(&snb).unwrap();
        // Tiny scale: match patterns go through `gmatch::reference_rows`.
        let oracle = Oracle::new(&snb, Workload::ScanHot, Scale::Tiny).unwrap();
        let mut stream = StreamGen::new(Workload::ScanHot, &view, &snb, 4, 0, Phase::Window);
        let mut nonempty = 0;
        for _ in 0..60 {
            let req = stream.next_req();
            let response = answer_as_server(&snb, &oracle, &req.frame);
            oracle.check(&req, &response).unwrap();
            let (rows, _) = oracle.expected(&req.frame).unwrap();
            if rows.is_empty() {
                continue;
            }
            nonempty += 1;
            // One row short, with a row_count to match: caught.
            let short = proto::ok_response(vec![
                ("rows", Json::Arr(rows[1..].to_vec())),
                ("row_count", Json::Int(rows.len() as i64 - 1)),
                ("truncated", Json::Bool(false)),
            ]);
            assert!(
                oracle.check(&req, &short).is_err(),
                "missing row accepted: {}",
                req.frame
            );
            // Right count, one value changed: caught.
            let mut forged = rows.clone();
            forged[0] = Json::Arr(vec![Json::Str("forged".into())]);
            let forged = proto::ok_response(vec![
                ("rows", Json::Arr(forged)),
                ("row_count", Json::Int(rows.len() as i64)),
                ("truncated", Json::Bool(false)),
            ]);
            assert!(
                oracle.check(&req, &forged).is_err(),
                "forged row accepted: {}",
                req.frame
            );
        }
        assert!(
            nonempty >= 20,
            "the sample must exercise non-empty answers, saw {nonempty}"
        );
    }

    #[test]
    fn insert_invariants_notice_a_missing_acknowledged_write() {
        let snb = ldbc::generate(&ldbc::SnbParams::tiny(7), DbOptions::dram(96 << 20)).unwrap();
        let before = (snb.db.node_count(), snb.db.rel_count());
        let mut tx = snb.db.begin();
        let n = tx
            .create_node("Person", &[("id", Value::Int(777_001))])
            .unwrap();
        let city = tx.lookup_nodes("City", "id", &Value::Int(0)).unwrap()[0];
        tx.create_rel(n, "IS_LOCATED_IN", city, &[]).unwrap();
        tx.commit().unwrap();
        let mut rec = ConnRecord {
            nodes_added: 1,
            rels_added: 1,
            entities: vec![("Person", 777_001)],
            ..ConnRecord::default()
        };
        assert!(check_inserts(&snb.db, before, &rec).unwrap().is_empty());
        // A second acknowledged insert that never happened.
        rec.nodes_added = 2;
        rec.entities.push(("Person", 777_002));
        let problems = check_inserts(&snb.db, before, &rec).unwrap();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
