//! Workloads and their request streams. A stream is a pure function of
//! `(seed, workload, connection, data ids)`: the server only ever sees
//! the frames generated here.

use std::collections::HashSet;
use std::fmt::Write as _;

use graphcore::Value;
use gstore::PVal;
use ldbc::{SnbDb, SrQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{self, Class};
use crate::world::Result;

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    PointRead,
    Update,
    ScanHot,
    AdhocCold,
    MixedOpen,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointRead,
        Workload::Update,
        Workload::ScanHot,
        Workload::AdhocCold,
        Workload::MixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::Update => "update",
            Workload::ScanHot => "scan_hot",
            Workload::AdhocCold => "adhoc_cold",
            Workload::MixedOpen => "mixed_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointRead => "closed loop of prepared is1..is7 index reads: socket, frame parse, JSON, index lookup and pmem read latency do the work; JIT and commit path idle",
            Workload::Update => "closed loop of autocommit iu1..iu8 from 2 writers: MVTO validate, commit pipe, txlog flush/fence and pmem alloc dominate; group commit arms",
            Workload::ScanHot => "closed loop over 12 prepared scan/range/match shapes, all compiled in warm-up: morsel execution in JIT code and the match planner dominate",
            Workload::AdhocCold => "closed loop where every request is a never-seen ad-hoc shape: query parsing, JIT compile, interpret-to-compiled switch and cache eviction dominate",
            Workload::MixedOpen => "open loop at 600 req/s, 85% reads 12% updates 2.5% scans 0.5% analytics, timed from due time: queueing, head-of-line blocking, snapshot rebuilds",
        }
    }

    /// The request class `p50_us`/`p99_us` of `BENCHMARK.json` report.
    pub fn primary_class(self) -> Class {
        match self {
            Workload::PointRead | Workload::MixedOpen => Class::Read,
            Workload::Update => Class::Write,
            Workload::ScanHot | Workload::AdhocCold => Class::Scan,
        }
    }

    pub fn is_open_loop(self) -> bool {
        self == Workload::MixedOpen
    }

    /// No request of the workload changes the database.
    pub fn is_read_only(self) -> bool {
        !matches!(self, Workload::Update | Workload::MixedOpen)
    }
}

/// What a successful request adds to the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effect {
    pub nodes: u8,
    pub rels: u8,
    /// `(label, LDBC id)` of the inserted node, if any.
    pub entity: Option<(&'static str, i64)>,
}

/// One request: the frame to send and what the suite knows about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub class: Class,
    /// Index into [`KINDS`].
    pub kind: u8,
    /// One JSON line, no trailing newline.
    pub frame: String,
    pub effect: Effect,
}

/// Request kinds, for per-kind numbers in the traced run.
pub const KINDS: [&str; 36] = [
    "is1",
    "is2-post",
    "is2-cmt",
    "is3",
    "is4-post",
    "is4-cmt",
    "is5-post",
    "is5-cmt",
    "is6-post",
    "is6-cmt",
    "is7-post",
    "is7-cmt",
    "iu1",
    "iu2",
    "iu3",
    "iu4",
    "iu5",
    "iu6",
    "iu7",
    "iu8",
    "hot0",
    "hot1",
    "hot2",
    "hot3",
    "hot4",
    "hot5",
    "hot6",
    "hot7",
    "hot8",
    "hot9",
    "hot10",
    "hot11",
    "adhoc-scan",
    "adhoc-range",
    "pagerank",
    "bfs",
];
const KIND_IU: u8 = 12;
const KIND_HOT: u8 = 20;
const KIND_ADHOC_SCAN: u8 = 32;
const KIND_ADHOC_RANGE: u8 = 33;
const KIND_PAGERANK: u8 = 34;
const KIND_BFS: u8 = 35;

/// The 12 `scan_hot` shapes: statement name, query text. Parameters are
/// drawn in [`StreamGen::hot`].
pub const HOT_SHAPES: [(&str, &str); 12] = [
    ("hot0", "is1:scan"),
    ("hot1", "is3:scan"),
    ("hot2", "is4-post:scan"),
    ("hot3", "is5-cmt:scan"),
    // Range predicate on an indexed key: zone maps prune chunks.
    ("hot4", "scan Person where id >= ?0 where id <= ?1 project id,firstName,lastName"),
    // Range predicate on a key without zone map: every chunk is scanned.
    ("hot5", "scan Post where length >= ?0 where length <= ?1 project id,length"),
    // Pruning on `id` plus a residual filter on `length`.
    ("hot6", "scan Post where id >= ?0 where id <= ?1 where length < ?2 project id,length,language"),
    ("hot7", "range Person id ?0 ?1 project id,firstName,lastName"),
    ("hot8", "match (a:Person {id = ?0})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) return b.id, c.id"),
    ("hot9", "match (a:Person {id = ?0})-[:KNOWS*1..2]->(b:Person) return b.id"),
    ("hot10", "match (p:Post {length < ?0})-[:HAS_CREATOR]->(a:Person) where p.id >= ?1 and p.id <= ?2 return p.id, a.id"),
    ("hot11", "match (a:Person {birthday < ?0})-[:IS_LOCATED_IN]->(c:City) return a.id, c.id"),
];

/// `adhoc_cold` forms: 3 labels × (3 `scan` + 1 `range`).
const ADHOC_FORMS: usize = 12;

/// Day-milliseconds constants of `ldbc::gen` (private there).
const DATE_BASE: i64 = 1_262_304_000_000;
const DAY_MS: i64 = 86_400_000;

/// The ids requests may name, split by connection so that two in-flight
/// requests never name the same entity: connection `c` owns the ids with
/// `id % CONNECTIONS == c`.
pub struct DataView {
    persons: Vec<Vec<i64>>,
    posts: Vec<Vec<i64>>,
    comments: Vec<Vec<i64>>,
    forums: Vec<Vec<i64>>,
    cities: Vec<Vec<i64>>,
    countries: Vec<Vec<i64>>,
    all_persons: Vec<i64>,
    all_posts: Vec<i64>,
    all_comments: Vec<i64>,
    max_message: i64,
    next_person: i64,
    next_forum: i64,
    next_message: i64,
    /// Internal node ids of some persons (`ANALYTICS bfs` sources).
    bfs_sources: Vec<u64>,
}

fn split(ids: &[i64]) -> Vec<Vec<i64>> {
    (0..config::CONNECTIONS as i64)
        .map(|c| {
            ids.iter()
                .copied()
                .filter(|id| id.rem_euclid(config::CONNECTIONS as i64) == c)
                .collect()
        })
        .collect()
}

impl DataView {
    pub fn new(snb: &SnbDb) -> Result<DataView> {
        let d = &snb.data;
        let txn = snb.db.begin();
        let mut bfs_sources = Vec::new();
        for id in d
            .person_ids
            .iter()
            .step_by((d.person_ids.len() / 64).max(1))
        {
            bfs_sources.extend(txn.lookup_nodes("Person", "id", &Value::Int(*id))?);
        }
        drop(txn);
        let view = DataView {
            persons: split(&d.person_ids),
            posts: split(&d.post_ids),
            comments: split(&d.comment_ids),
            forums: split(&d.forum_ids),
            cities: split(&d.city_ids),
            countries: split(&d.country_ids),
            all_persons: d.person_ids.clone(),
            all_posts: d.post_ids.clone(),
            all_comments: d.comment_ids.clone(),
            max_message: d
                .post_ids
                .iter()
                .chain(&d.comment_ids)
                .copied()
                .max()
                .unwrap_or(0),
            next_person: d.next_person.load(std::sync::atomic::Ordering::Relaxed),
            next_forum: d.next_forum.load(std::sync::atomic::Ordering::Relaxed),
            next_message: d.next_message.load(std::sync::atomic::Ordering::Relaxed),
            bfs_sources,
        };
        let lists = [
            &view.persons,
            &view.posts,
            &view.comments,
            &view.forums,
            &view.cities,
            &view.countries,
        ];
        if lists.iter().any(|l| l.iter().any(|part| part.len() < 2)) || view.bfs_sources.is_empty()
        {
            return crate::world::err("data set too small to split between connections");
        }
        Ok(view)
    }
}

/// Which part of a run a stream feeds. Phases draw from different seeds
/// and allocate fresh ids from different ranges, so the warm-up cannot
/// change what the measured window sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup = 1,
    Window = 0,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pval_json(out: &mut String, p: &PVal) {
    match p {
        PVal::Int(v) => write!(out, "{v}"),
        PVal::Date(v) => write!(out, "{{\"date\":{v}}}"),
        PVal::Bool(v) => write!(out, "{v}"),
        other => panic!("the suite never generates a {other:?} parameter"),
    }
    .expect("writing to a String cannot fail");
}

fn execute_frame(name: &str, params: &str) -> String {
    format!("{{\"op\":\"execute\",\"name\":\"{name}\",\"params\":[{params}]}}")
}

/// The seeded request generator of one connection.
pub struct StreamGen<'a> {
    workload: Workload,
    view: &'a DataView,
    snb: &'a SnbDb,
    conn: usize,
    rng: StdRng,
    /// Fresh-id counters: this connection's next unused id of each kind.
    next_person: i64,
    next_forum: i64,
    next_message: i64,
    /// Hashes of the ad-hoc texts emitted so far (no shape repeats).
    seen: HashSet<u64>,
    analytics_sent: u64,
    /// `mixed_open`: the rest of the current block of request classes.
    mix_block: Vec<Class>,
    /// The rest of the current block of request kinds (see [`StreamGen::kind`]).
    kind_block: Vec<usize>,
}

impl<'a> StreamGen<'a> {
    pub fn new(
        workload: Workload,
        view: &'a DataView,
        snb: &'a SnbDb,
        seed: u64,
        conn: usize,
        phase: Phase,
    ) -> StreamGen<'a> {
        let w = Workload::ALL
            .iter()
            .position(|x| *x == workload)
            .expect("listed") as u64;
        let stream_seed = mix(mix(mix(seed) ^ w) ^ ((conn as u64) << 8 | phase as u64));
        // Fresh ids: connection c takes base + c, base + c + CONNECTIONS, …;
        // the warm-up phase starts a million ids higher.
        let step = config::CONNECTIONS as i64;
        let first = |next: i64| {
            let base = next + phase as i64 * 1_000_000;
            base + (conn as i64 - base).rem_euclid(step)
        };
        StreamGen {
            workload,
            view,
            snb,
            conn,
            rng: StdRng::seed_from_u64(stream_seed),
            next_person: first(view.next_person),
            next_forum: first(view.next_forum),
            next_message: first(view.next_message),
            seen: HashSet::new(),
            analytics_sent: 0,
            mix_block: Vec::new(),
            kind_block: Vec::new(),
        }
    }

    /// Statements every connection prepares before its stream: `(name, text)`.
    pub fn prepared(workload: Workload) -> Vec<(String, String)> {
        let reads = || {
            SrQuery::ALL
                .iter()
                .map(|q| (format!("is{}", q.name()), format!("is{}", q.name())))
        };
        let writes = || (1..=8).map(|i| (format!("iu{i}"), format!("iu{i}")));
        let hot = || {
            HOT_SHAPES
                .iter()
                .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
        };
        match workload {
            Workload::PointRead => reads().collect(),
            Workload::Update => writes().collect(),
            Workload::ScanHot => hot().collect(),
            Workload::AdhocCold => Vec::new(),
            Workload::MixedOpen => reads().chain(writes()).chain(hot()).collect(),
        }
    }

    /// Fisher–Yates with the stream's generator.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.random_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Draw one of `n` request kinds uniformly, by blocks: each run of `n`
    /// draws is a seeded permutation of all `n` kinds. Every seed then
    /// sends exactly the same mix, and a percentile of the mixture (the
    /// kinds differ in cost by an order of magnitude) does not move with
    /// how many of each kind a seed happened to draw.
    fn kind(&mut self, n: usize) -> usize {
        if self.kind_block.is_empty() {
            let mut block: Vec<usize> = (0..n).collect();
            self.shuffle(&mut block);
            self.kind_block = block;
        }
        self.kind_block.pop().expect("just refilled")
    }

    pub fn next_req(&mut self) -> Req {
        match self.workload {
            Workload::PointRead => {
                let q = self.kind(SrQuery::ALL.len());
                self.read_query(q, false)
            }
            Workload::Update => {
                let q = self.kind(8);
                self.write_query(q)
            }
            Workload::ScanHot => {
                let shape = self.kind(HOT_SHAPES.len());
                self.hot(shape)
            }
            Workload::AdhocCold => {
                let form = self.kind(ADHOC_FORMS);
                self.adhoc(form)
            }
            Workload::MixedOpen => {
                if self.mix_block.is_empty() {
                    let mut block = Vec::new();
                    for (class, n) in config::MIX_BLOCK {
                        block.extend(std::iter::repeat_n(class, n));
                    }
                    self.shuffle(&mut block);
                    self.mix_block = block;
                }
                match self.mix_block.pop().expect("just refilled") {
                    Class::Read => self.read(true),
                    Class::Write => self.write(),
                    Class::Scan => {
                        let shape = self.rng.random_range(0..HOT_SHAPES.len());
                        self.hot(shape)
                    }
                    Class::Analytics => self.analytics(),
                }
            }
        }
    }

    /// One request of every prepared statement (or, for `adhoc_cold`, as
    /// many ad-hoc requests as `scan_hot` has shapes): one warm-up round.
    pub fn warmup_round(&mut self) -> Vec<Req> {
        match self.workload {
            Workload::PointRead => (0..12).map(|q| self.read_query(q, false)).collect(),
            Workload::Update => (0..8).map(|q| self.write_query(q)).collect(),
            Workload::ScanHot => (0..HOT_SHAPES.len()).map(|s| self.hot(s)).collect(),
            Workload::AdhocCold => (0..ADHOC_FORMS).map(|f| self.adhoc(f)).collect(),
            Workload::MixedOpen => {
                let mut round: Vec<Req> = (0..12).map(|q| self.read_query(q, true)).collect();
                round.extend((0..8).map(|q| self.write_query(q)));
                round.extend((0..HOT_SHAPES.len()).map(|s| self.hot(s)));
                round.extend([self.analytics(), self.analytics()]);
                round
            }
        }
    }

    fn pick(&mut self, ids: &[i64]) -> i64 {
        ids[self.rng.random_range(0..ids.len())]
    }

    fn own(&mut self, list: fn(&DataView) -> &Vec<Vec<i64>>) -> i64 {
        let view = self.view;
        self.pick(&list(view)[self.conn])
    }

    fn read(&mut self, own_ids_only: bool) -> Req {
        let q = self.rng.random_range(0..SrQuery::ALL.len());
        self.read_query(q, own_ids_only)
    }

    /// `SrQuery::ALL[q]` with a uniformly drawn id. On `mixed_open` the
    /// id comes from this connection's share, so a read never names an
    /// entity the other connection may be writing.
    fn read_query(&mut self, q: usize, own_ids_only: bool) -> Req {
        let query = SrQuery::ALL[q];
        let mut params = String::new();
        if own_ids_only {
            let id = match query {
                SrQuery::Is1 | SrQuery::Is2Post | SrQuery::Is2Cmt | SrQuery::Is3 => {
                    self.own(|v| &v.persons)
                }
                SrQuery::Is4Post | SrQuery::Is5Post | SrQuery::Is6Post | SrQuery::Is7Post => {
                    self.own(|v| &v.posts)
                }
                SrQuery::Is4Cmt | SrQuery::Is5Cmt | SrQuery::Is6Cmt | SrQuery::Is7Cmt => {
                    self.own(|v| &v.comments)
                }
            };
            pval_json(&mut params, &PVal::Int(id));
        } else {
            for (i, p) in query.params(self.snb, &mut self.rng).iter().enumerate() {
                if i > 0 {
                    params.push(',');
                }
                pval_json(&mut params, p);
            }
        }
        Req {
            class: Class::Read,
            kind: q as u8,
            frame: execute_frame(&format!("is{}", query.name()), &params),
            effect: Effect::default(),
        }
    }

    fn write(&mut self) -> Req {
        let q = self.rng.random_range(0..8usize);
        self.write_query(q)
    }

    fn fresh(counter: &mut i64) -> i64 {
        let id = *counter;
        *counter += config::CONNECTIONS as i64;
        id
    }

    /// `iu{q+1}` over this connection's entities, with the constant
    /// strings `IuQuery::params` uses.
    fn write_query(&mut self, q: usize) -> Req {
        let date = 1_600_000_000_000 + self.rng.random_range(0..1000i64) * DAY_MS;
        let (params, effect) = match q {
            0 => {
                let city = self.own(|v| &v.cities);
                let id = Self::fresh(&mut self.next_person);
                (
                    format!("{city},{id},\"Newy\",\"Person\",\"female\",{{\"date\":631152000000}},{{\"date\":{date}}},\"10.1.2.3\",\"Firefox\""),
                    Effect { nodes: 1, rels: 1, entity: Some(("Person", id)) },
                )
            }
            1 | 2 => {
                let person = self.own(|v| &v.persons);
                let msg = if q == 1 {
                    self.own(|v| &v.posts)
                } else {
                    self.own(|v| &v.comments)
                };
                (
                    format!("{person},{msg},{{\"date\":{date}}}"),
                    Effect {
                        nodes: 0,
                        rels: 1,
                        entity: None,
                    },
                )
            }
            3 => {
                let person = self.own(|v| &v.persons);
                let id = Self::fresh(&mut self.next_forum);
                (
                    format!("{person},{id},\"a new forum\",{{\"date\":{date}}}"),
                    Effect {
                        nodes: 1,
                        rels: 1,
                        entity: Some(("Forum", id)),
                    },
                )
            }
            4 => {
                let forum = self.own(|v| &v.forums);
                let person = self.own(|v| &v.persons);
                (
                    format!("{forum},{person},{{\"date\":{date}}}"),
                    Effect {
                        nodes: 0,
                        rels: 1,
                        entity: None,
                    },
                )
            }
            5 => {
                let forum = self.own(|v| &v.forums);
                let person = self.own(|v| &v.persons);
                let country = self.own(|v| &v.countries);
                let id = Self::fresh(&mut self.next_message);
                (
                    format!("{forum},{person},{country},{id},\"new post content\",64,{{\"date\":{date}}},\"en\",\"10.4.5.6\",\"Chrome\""),
                    Effect { nodes: 1, rels: 3, entity: Some(("Post", id)) },
                )
            }
            6 => {
                let post = self.own(|v| &v.posts);
                let person = self.own(|v| &v.persons);
                let country = self.own(|v| &v.countries);
                let id = Self::fresh(&mut self.next_message);
                (
                    format!("{post},{person},{country},{id},\"new comment\",24,{{\"date\":{date}}},\"10.7.8.9\",\"Safari\""),
                    Effect { nodes: 1, rels: 3, entity: Some(("Comment", id)) },
                )
            }
            7 => {
                // Two distinct persons: a self-friendship would lock one
                // node twice inside one transaction.
                let persons = &self.view.persons[self.conn];
                let a = self.rng.random_range(0..persons.len());
                let b = (a + self.rng.random_range(1..persons.len())) % persons.len();
                (
                    format!("{},{},{{\"date\":{date}}}", persons[a], persons[b]),
                    Effect {
                        nodes: 0,
                        rels: 2,
                        entity: None,
                    },
                )
            }
            _ => unreachable!("there are eight interactive updates"),
        };
        Req {
            class: Class::Write,
            kind: KIND_IU + q as u8,
            frame: execute_frame(&format!("iu{}", q + 1), &params),
            effect,
        }
    }

    /// `HOT_SHAPES[shape]` with parameters that keep its cost in the
    /// 0.5–15 ms band at bench scale.
    fn hot(&mut self, shape: usize) -> Req {
        let v = self.view;
        let params = match shape {
            0 | 1 => self.pick(&v.all_persons).to_string(),
            2 => self.pick(&v.all_posts).to_string(),
            3 => self.pick(&v.all_comments).to_string(),
            4 => {
                let lo = self
                    .rng
                    .random_range(0..(v.all_persons.len() as i64 - 50).max(1));
                format!("{lo},{}", lo + 49)
            }
            5 => {
                let len = self.rng.random_range(10..200i64);
                format!("{len},{}", len + 1)
            }
            6 => {
                let lo = self.rng.random_range(0..(v.max_message - 400).max(1));
                format!("{lo},{},{}", lo + 399, self.rng.random_range(50..150i64))
            }
            7 => {
                let lo = self
                    .rng
                    .random_range(0..(v.all_persons.len() as i64 - 100).max(1));
                format!("{lo},{}", lo + 99)
            }
            8 | 9 => self.pick(&v.all_persons).to_string(),
            10 => {
                let lo = self.rng.random_range(0..(v.max_message - 400).max(1));
                format!("{},{lo},{}", self.rng.random_range(50..150i64), lo + 399)
            }
            11 => {
                // Birthdays are DATE_BASE - U(6000..20000) days: the oldest ~5 %.
                let days = self.rng.random_range(19_000..19_800i64);
                format!("{{\"date\":{}}}", DATE_BASE - days * DAY_MS)
            }
            _ => unreachable!("there are twelve hot shapes"),
        };
        Req {
            class: Class::Scan,
            kind: KIND_HOT + shape as u8,
            frame: execute_frame(HOT_SHAPES[shape].0, &params),
            effect: Effect::default(),
        }
    }

    /// A never-seen ad-hoc `scan`/`range` text. `form` (one of
    /// [`ADHOC_FORMS`]) fixes the label and the access path; predicate
    /// keys, operators, literals, projection list and limit vary, and a
    /// text already emitted by this generator is drawn again.
    fn adhoc(&mut self, form: usize) -> Req {
        // (label, id upper bound, int keys with their value range, string
        // keys with their domain, projectable keys)
        struct Label {
            name: &'static str,
            int_keys: &'static [(&'static str, i64, i64)],
            str_keys: &'static [(&'static str, &'static [&'static str])],
            proj: &'static [&'static str],
        }
        const BROWSERS: &[&str] = &["Firefox", "Chrome", "Safari", "Opera"];
        const LABELS: [Label; 3] = [
            Label {
                name: "Person",
                int_keys: &[],
                str_keys: &[
                    ("gender", &["male", "female"]),
                    ("browserUsed", BROWSERS),
                    (
                        "firstName",
                        &[
                            "Ada", "Bob", "Chen", "Dana", "Eike", "Femi", "Gita", "Hugo", "Ines",
                            "Jan",
                        ],
                    ),
                    (
                        "lastName",
                        &[
                            "Smith", "Meyer", "Tanaka", "Okafor", "Novak", "Silva", "Kumar",
                            "Weber",
                        ],
                    ),
                ],
                proj: &[
                    "id",
                    "firstName",
                    "lastName",
                    "gender",
                    "birthday",
                    "creationDate",
                    "locationIP",
                    "browserUsed",
                    "@label",
                ],
            },
            Label {
                name: "Post",
                int_keys: &[("length", 10, 200)],
                str_keys: &[
                    ("language", &["en", "de", "zh", "es", "pt"]),
                    ("browserUsed", BROWSERS),
                ],
                proj: &[
                    "id",
                    "length",
                    "creationDate",
                    "language",
                    "locationIP",
                    "browserUsed",
                    "content",
                    "@label",
                ],
            },
            Label {
                name: "Comment",
                int_keys: &[("length", 5, 100)],
                str_keys: &[("browserUsed", BROWSERS)],
                proj: &[
                    "id",
                    "length",
                    "creationDate",
                    "rootPostId",
                    "locationIP",
                    "browserUsed",
                    "content",
                    "@label",
                ],
            },
        ];
        const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];
        // Per label: three `scan` forms and one `range` form.
        let label = &LABELS[form / 4];
        let range_head = form % 4 == 3;
        loop {
            let id_max = match label.name {
                "Person" => self.view.all_persons.len() as i64,
                _ => self.view.max_message,
            };
            let mut text = String::new();
            // An `id` window bounds the result (and lets zone maps prune);
            // the window's position and width are part of the shape.
            let lo = self.rng.random_range(0..id_max.max(2));
            let width = self.rng.random_range(20..600i64);
            if range_head {
                write!(text, "range {} id {lo} {}", label.name, lo + width)
            } else {
                write!(
                    text,
                    "scan {} where id >= {lo} where id < {}",
                    label.name,
                    lo + width
                )
            }
            .expect("writing to a String cannot fail");
            for _ in 0..self.rng.random_range(0..=2) {
                let n_int = label.int_keys.len();
                let k = self.rng.random_range(0..n_int + label.str_keys.len());
                if k < n_int {
                    let (key, min, max) = label.int_keys[k];
                    let op = OPS[self.rng.random_range(0..OPS.len())];
                    let lit = self.rng.random_range(min..max);
                    write!(text, " where {key} {op} {lit}")
                } else {
                    let (key, domain) = label.str_keys[k - n_int];
                    let op = OPS[self.rng.random_range(0..2)];
                    let lit = domain[self.rng.random_range(0..domain.len())];
                    write!(text, " where {key} {op} '{lit}'")
                }
                .expect("writing to a String cannot fail");
            }
            let n_proj = self.rng.random_range(1..=4usize);
            let first = self.rng.random_range(0..label.proj.len());
            let stride = self.rng.random_range(1..label.proj.len());
            let items: Vec<&str> = (0..n_proj)
                .map(|i| label.proj[(first + i * stride) % label.proj.len()])
                .collect();
            write!(text, " project {}", items.join(",")).expect("writing to a String cannot fail");
            if self.rng.random_bool(0.5) {
                write!(text, " limit {}", self.rng.random_range(1..200u32))
                    .expect("writing to a String cannot fail");
            }
            if !self.seen.insert(gstore::hash::fnv1a(text.as_bytes())) {
                continue;
            }
            return Req {
                class: Class::Scan,
                kind: if range_head {
                    KIND_ADHOC_RANGE
                } else {
                    KIND_ADHOC_SCAN
                },
                frame: format!("{{\"op\":\"query\",\"query\":\"{text}\"}}"),
                effect: Effect::default(),
            };
        }
    }

    /// `pagerank` (10 iterations) and `bfs`, alternating.
    fn analytics(&mut self) -> Req {
        self.analytics_sent += 1;
        if self.analytics_sent % 2 == 1 {
            Req {
                class: Class::Analytics,
                kind: KIND_PAGERANK,
                frame: "{\"op\":\"analytics\",\"algo\":\"pagerank\",\"iters\":10}".into(),
                effect: Effect::default(),
            }
        } else {
            let sources = &self.view.bfs_sources;
            let source = sources[self.rng.random_range(0..sources.len())];
            Req {
                class: Class::Analytics,
                kind: KIND_BFS,
                frame: format!("{{\"op\":\"analytics\",\"algo\":\"bfs\",\"source\":{source}}}"),
                effect: Effect::default(),
            }
        }
    }
}

/// A request with the time it is due, for the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Nanoseconds after the schedule's start.
    pub due_ns: u64,
    pub req: Req,
}

/// A Poisson schedule of `rate_rps` requests per second lasting
/// `duration_ns`, drawn from `stream` with gaps from `seed`.
pub fn open_schedule(
    stream: &mut StreamGen<'_>,
    seed: u64,
    rate_rps: f64,
    duration_ns: u64,
) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5ced_a1e5));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential gap; 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.random::<f64>()).ln() / rate_rps * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(Scheduled {
            due_ns: t as u64,
            req: stream.next_req(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DbOptions;

    fn tiny() -> SnbDb {
        ldbc::generate(&ldbc::SnbParams::tiny(7), DbOptions::dram(96 << 20)).unwrap()
    }

    fn frames(
        w: Workload,
        view: &DataView,
        snb: &SnbDb,
        seed: u64,
        conn: usize,
        n: usize,
    ) -> Vec<Req> {
        let mut s = StreamGen::new(w, view, snb, seed, conn, Phase::Window);
        (0..n).map(|_| s.next_req()).collect()
    }

    #[test]
    fn streams_are_byte_identical_for_equal_seeds_and_differ_otherwise() {
        let snb = tiny();
        let view = DataView::new(&snb).unwrap();
        for w in Workload::ALL {
            let a = frames(w, &view, &snb, 11, 0, 400);
            assert_eq!(
                a,
                frames(w, &view, &snb, 11, 0, 400),
                "{}: same seed",
                w.name()
            );
            assert_ne!(
                a,
                frames(w, &view, &snb, 12, 0, 400),
                "{}: other seed",
                w.name()
            );
            assert_ne!(
                a,
                frames(w, &view, &snb, 11, 1, 400),
                "{}: other connection",
                w.name()
            );
            // A second data set generated from the same parameters gives the same stream.
            let snb2 = tiny();
            let view2 = DataView::new(&snb2).unwrap();
            assert_eq!(
                a,
                frames(w, &view2, &snb2, 11, 0, 400),
                "{}: regenerated data",
                w.name()
            );
        }
    }

    #[test]
    fn every_frame_is_a_request_the_server_parses() {
        let snb = tiny();
        let view = DataView::new(&snb).unwrap();
        for w in Workload::ALL {
            for req in frames(w, &view, &snb, 3, 1, 300) {
                assert!(!req.frame.contains('\n'));
                gserver::Request::parse(&req.frame)
                    .unwrap_or_else(|e| panic!("{}: {e}: {}", w.name(), req.frame));
                assert!((req.kind as usize) < KINDS.len());
            }
            let mut warm = StreamGen::new(w, &view, &snb, 3, 0, Phase::Warmup);
            for req in warm.warmup_round() {
                gserver::Request::parse(&req.frame).unwrap();
            }
        }
    }

    #[test]
    fn adhoc_cold_never_repeats_a_query_text_in_20000_draws() {
        let snb = tiny();
        let view = DataView::new(&snb).unwrap();
        let mut seen = HashSet::new();
        for req in frames(Workload::AdhocCold, &view, &snb, 5, 0, 20_000) {
            assert_eq!(req.class, Class::Scan);
            assert!(seen.insert(req.frame.clone()), "repeated: {}", req.frame);
        }
    }

    /// The integers of an execute frame's parameter list.
    fn int_params(frame: &str) -> Vec<i64> {
        let gserver::Request::Execute { params, .. } = gserver::Request::parse(frame).unwrap()
        else {
            panic!("not an execute frame");
        };
        params.iter().filter_map(gserver::Json::as_i64).collect()
    }

    #[test]
    fn the_two_update_streams_name_disjoint_entities_and_fresh_ids() {
        let snb = tiny();
        let view = DataView::new(&snb).unwrap();
        let mut fresh: [HashSet<(&str, i64)>; 2] = Default::default();
        for (conn, fresh) in fresh.iter_mut().enumerate() {
            for req in frames(Workload::Update, &view, &snb, 9, conn, 2_000) {
                assert_eq!(req.class, Class::Write);
                // Every id the request names belongs to this connection
                // (the constants 64 and 24 are the post/comment lengths).
                for id in int_params(&req.frame) {
                    let owned = id.rem_euclid(2) == conn as i64;
                    assert!(
                        owned || id == 64 || id == 24,
                        "conn {conn} names {id}: {}",
                        req.frame
                    );
                }
                if let Some(entity) = req.effect.entity {
                    assert!(fresh.insert(entity), "id reused: {entity:?}");
                }
            }
        }
        assert!(fresh[0].is_disjoint(&fresh[1]));
        // Warm-up inserts use ids the window never reaches.
        let warm: Vec<Req> =
            StreamGen::new(Workload::Update, &view, &snb, 9, 0, Phase::Warmup).warmup_round();
        for req in warm {
            if let Some(entity) = req.effect.entity {
                assert!(!fresh[0].contains(&entity) && entity.1 >= 1_000_000);
            }
        }
    }

    #[test]
    fn mixed_open_follows_its_mix_and_its_schedule_is_poisson_at_the_rate() {
        let snb = tiny();
        let view = DataView::new(&snb).unwrap();
        let mut stream = StreamGen::new(Workload::MixedOpen, &view, &snb, 21, 0, Phase::Window);
        let sched = open_schedule(&mut stream, 21, 300.0, 40_000_000_000);
        // 40 s at 300/s: 12 000 requests, give or take a few hundred.
        assert!(
            (11_400..12_600).contains(&sched.len()),
            "{} requests",
            sched.len()
        );
        assert!(sched.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(sched.last().unwrap().due_ns < 40_000_000_000);
        let share = |c: Class| {
            sched.iter().filter(|s| s.req.class == c).count() as f64 / sched.len() as f64
        };
        // Exact counts per block of 200: the shares hold to a block's worth.
        assert!((share(Class::Read) - 0.85).abs() < 0.003);
        assert!((share(Class::Write) - 0.12).abs() < 0.002);
        assert!((share(Class::Scan) - 0.025).abs() < 0.001);
        assert!((share(Class::Analytics) - 0.005).abs() < 0.0005);
        // Same seed, same schedule.
        let mut again = StreamGen::new(Workload::MixedOpen, &view, &snb, 21, 0, Phase::Window);
        assert_eq!(sched, open_schedule(&mut again, 21, 300.0, 40_000_000_000));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "BENCHMARK.json caps a why at 200 characters"
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
