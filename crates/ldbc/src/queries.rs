//! The Interactive Short Read (IS) and Interactive Update (IU) queries as
//! graph-algebra plans, plus the mode driver used by every benchmark.
//!
//! Queries with a message parameter come in `post`/`cmt` variants — the
//! "2-post / 2-cmt" etc. series of the paper's Figures 5, 7 and 10.

pub use gjit::{run_plan_ctx, Mode};
use gquery::plan::{RelEnd, Row};
use gquery::{ExecCtx, Op, PPar, Plan, Proj, QueryError, Slot};
use graphcore::{Dir, GraphTxn};
use gstore::PVal;
use rand::Rng;

use crate::gen::SnbDb;
use crate::schema::SnbCodes;

/// One pipeline step of a query. Steps run in order inside one
/// transaction; `feed_col` appends a value from the previous step's first
/// result row to the parameter vector (used by IS6-cmt's root-post chain).
#[derive(Debug, Clone)]
pub struct Step {
    pub plan: Plan,
    pub feed_col: Option<usize>,
}

/// A complete query: named plan chain.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub name: &'static str,
    pub steps: Vec<Step>,
}

impl QuerySpec {
    fn single(name: &'static str, plan: Plan) -> QuerySpec {
        QuerySpec {
            name,
            steps: vec![Step {
                plan,
                feed_col: None,
            }],
        }
    }

    /// True if any step mutates the graph.
    pub fn is_update(&self) -> bool {
        self.steps.iter().any(|s| s.plan.is_update())
    }

    /// The scan variant: every `IndexScan` access path is replaced by
    /// `NodeScan(label) + Filter(key = value)`. This is how the queries run
    /// in the paper's non-indexed configurations (PMem-s/p, Fig. 5) and in
    /// the JIT/adaptive benchmarks of Fig. 7/10, where the scan-shaped
    /// pipeline is what gets compiled and morsel-parallelised.
    pub fn scan_variant(&self) -> QuerySpec {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let mut ops = s.plan.ops.clone();
                if let Some(Op::IndexScan { label, key, value }) = ops.first().cloned() {
                    ops.splice(
                        0..1,
                        [
                            Op::NodeScan { label: Some(label) },
                            Op::Filter(gquery::Pred::Prop {
                                col: 0,
                                key,
                                op: gquery::CmpOp::Eq,
                                value,
                            }),
                        ],
                    );
                }
                Step {
                    plan: Plan::new(ops, s.plan.n_params),
                    feed_col: s.feed_col,
                }
            })
            .collect();
        QuerySpec {
            name: self.name,
            steps,
        }
    }
}

/// The feed chain's one loop: run `spec`'s steps in order inside `txn`
/// under the caller's [`ExecCtx`] — its parameters, deadline and
/// cancellation flag reach every step (so expiry is observed *inside* plan
/// execution, per morsel / result batch, not just between steps), and its
/// profile accumulates across them, a failing step's partial work
/// included. A step with a `feed_col` whose predecessor returned nothing
/// breaks the chain: the result is empty.
pub fn run_spec_ctx(
    spec: &QuerySpec,
    txn: &mut GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    mode: &Mode<'_>,
) -> Result<Vec<Row>, QueryError> {
    let mut rows: Vec<Row> = Vec::new();
    let mut cur_params = ctx.params.to_vec();
    for step in &spec.steps {
        if let Some(col) = step.feed_col {
            let Some(first) = rows.first() else {
                return Ok(Vec::new());
            };
            cur_params.push(slot_to_pval(&first[col]));
        }
        rows = ctx.with_params(&cur_params, |ctx| run_plan_ctx(&step.plan, txn, ctx, mode))?;
    }
    Ok(rows)
}

/// [`run_spec_ctx`] with no deadline, inside an existing transaction (the
/// caller controls commit, so execution and commit can be timed separately
/// as in Fig. 6).
pub fn run_spec_txn(
    spec: &QuerySpec,
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    mode: &Mode<'_>,
) -> Result<Vec<Row>, QueryError> {
    run_spec_ctx(spec, txn, &mut ExecCtx::new(params), mode)
}

/// Run a query spec in a fresh transaction, committing if it updates.
pub fn run_spec(
    db: &graphcore::GraphDb,
    spec: &QuerySpec,
    params: &[PVal],
    mode: &Mode<'_>,
) -> Result<Vec<Row>, QueryError> {
    let mut txn = db.begin();
    let rows = run_spec_txn(spec, &mut txn, params, mode)?;
    if spec.is_update() {
        txn.commit().map_err(QueryError::Graph)?;
    }
    Ok(rows)
}

/// Slot → parameter value, as used by the feed chain: property slots keep
/// their typed value, node/rel slots feed their id as an Int.
pub fn slot_to_pval(s: &Slot) -> PVal {
    s.as_pval().unwrap_or(PVal::Int(s.val as i64))
}

fn p(i: usize) -> PPar {
    PPar::Param(i)
}

// ---------------------------------------------------------------------
// Interactive Short Reads
// ---------------------------------------------------------------------

/// The twelve short-read query variants (post/cmt split as in the paper's
/// figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrQuery {
    Is1,
    Is2Post,
    Is2Cmt,
    Is3,
    Is4Post,
    Is4Cmt,
    Is5Post,
    Is5Cmt,
    Is6Post,
    Is6Cmt,
    Is7Post,
    Is7Cmt,
}

impl SrQuery {
    /// All variants in figure order.
    pub const ALL: [SrQuery; 12] = [
        SrQuery::Is1,
        SrQuery::Is2Post,
        SrQuery::Is2Cmt,
        SrQuery::Is3,
        SrQuery::Is4Post,
        SrQuery::Is4Cmt,
        SrQuery::Is5Post,
        SrQuery::Is5Cmt,
        SrQuery::Is6Post,
        SrQuery::Is6Cmt,
        SrQuery::Is7Post,
        SrQuery::Is7Cmt,
    ];

    /// Figure label ("1", "2-post", ...).
    pub fn name(&self) -> &'static str {
        match self {
            SrQuery::Is1 => "1",
            SrQuery::Is2Post => "2-post",
            SrQuery::Is2Cmt => "2-cmt",
            SrQuery::Is3 => "3",
            SrQuery::Is4Post => "4-post",
            SrQuery::Is4Cmt => "4-cmt",
            SrQuery::Is5Post => "5-post",
            SrQuery::Is5Cmt => "5-cmt",
            SrQuery::Is6Post => "6-post",
            SrQuery::Is6Cmt => "6-cmt",
            SrQuery::Is7Post => "7-post",
            SrQuery::Is7Cmt => "7-cmt",
        }
    }

    /// Build the plan(s) for this query.
    pub fn spec(&self, c: &SnbCodes) -> QuerySpec {
        match self {
            // IS1: person profile + city.
            SrQuery::Is1 => QuerySpec::single(
                self.name(),
                Plan::new(
                    vec![
                        Op::IndexScan {
                            label: c.person,
                            key: c.id,
                            value: p(0),
                        },
                        Op::ForeachRel {
                            col: 0,
                            dir: Dir::Out,
                            label: Some(c.is_located_in),
                        },
                        Op::GetNode {
                            col: 1,
                            end: RelEnd::Dst,
                        },
                        Op::Project(vec![
                            Proj::Prop { col: 0, key: c.first_name },
                            Proj::Prop { col: 0, key: c.last_name },
                            Proj::Prop { col: 0, key: c.birthday },
                            Proj::Prop { col: 0, key: c.location_ip },
                            Proj::Prop { col: 0, key: c.browser_used },
                            Proj::Prop { col: 2, key: c.id },
                            Proj::Prop { col: 0, key: c.gender },
                            Proj::Prop { col: 0, key: c.creation_date },
                        ]),
                    ],
                    1,
                ),
            ),
            // IS2: the person's 10 most recent posts/comments.
            SrQuery::Is2Post | SrQuery::Is2Cmt => {
                let msg_label = if matches!(self, SrQuery::Is2Post) {
                    c.post
                } else {
                    c.comment
                };
                QuerySpec::single(
                    self.name(),
                    Plan::new(
                        vec![
                            Op::IndexScan {
                                label: c.person,
                                key: c.id,
                                value: p(0),
                            },
                            Op::ForeachRel {
                                col: 0,
                                dir: Dir::In,
                                label: Some(c.has_creator),
                            },
                            Op::GetNode {
                                col: 1,
                                end: RelEnd::Src,
                            },
                            Op::Filter(gquery::Pred::LabelIs {
                                col: 2,
                                label: msg_label,
                            }),
                            Op::Project(vec![
                                Proj::Prop { col: 2, key: c.id },
                                Proj::Prop { col: 2, key: c.content },
                                Proj::Prop { col: 2, key: c.creation_date },
                            ]),
                            Op::OrderBy {
                                key: Proj::Col(2),
                                desc: true,
                            },
                            Op::Limit(10),
                        ],
                        1,
                    ),
                )
            }
            // IS3: friends with friendship date, newest first.
            SrQuery::Is3 => QuerySpec::single(
                self.name(),
                Plan::new(
                    vec![
                        Op::IndexScan {
                            label: c.person,
                            key: c.id,
                            value: p(0),
                        },
                        Op::ForeachRel {
                            col: 0,
                            dir: Dir::Out,
                            label: Some(c.knows),
                        },
                        Op::GetNode {
                            col: 1,
                            end: RelEnd::Dst,
                        },
                        Op::Project(vec![
                            Proj::Prop { col: 2, key: c.id },
                            Proj::Prop { col: 2, key: c.first_name },
                            Proj::Prop { col: 2, key: c.last_name },
                            Proj::Prop { col: 1, key: c.creation_date },
                        ]),
                        Op::OrderBy {
                            key: Proj::Col(3),
                            desc: true,
                        },
                    ],
                    1,
                ),
            ),
            // IS4: message content + creation date.
            SrQuery::Is4Post | SrQuery::Is4Cmt => {
                let msg = if matches!(self, SrQuery::Is4Post) {
                    c.post
                } else {
                    c.comment
                };
                QuerySpec::single(
                    self.name(),
                    Plan::new(
                        vec![
                            Op::IndexScan {
                                label: msg,
                                key: c.id,
                                value: p(0),
                            },
                            Op::Project(vec![
                                Proj::Prop { col: 0, key: c.creation_date },
                                Proj::Prop { col: 0, key: c.content },
                            ]),
                        ],
                        1,
                    ),
                )
            }
            // IS5: message creator.
            SrQuery::Is5Post | SrQuery::Is5Cmt => {
                let msg = if matches!(self, SrQuery::Is5Post) {
                    c.post
                } else {
                    c.comment
                };
                QuerySpec::single(
                    self.name(),
                    Plan::new(
                        vec![
                            Op::IndexScan {
                                label: msg,
                                key: c.id,
                                value: p(0),
                            },
                            Op::ForeachRel {
                                col: 0,
                                dir: Dir::Out,
                                label: Some(c.has_creator),
                            },
                            Op::GetNode {
                                col: 1,
                                end: RelEnd::Dst,
                            },
                            Op::Project(vec![
                                Proj::Prop { col: 2, key: c.id },
                                Proj::Prop { col: 2, key: c.first_name },
                                Proj::Prop { col: 2, key: c.last_name },
                            ]),
                        ],
                        1,
                    ),
                )
            }
            // IS6: forum of a message + moderator. The comment variant
            // first resolves the denormalised root post id, then runs the
            // post plan on it.
            SrQuery::Is6Post => QuerySpec::single(self.name(), is6_post_plan(c, 0)),
            SrQuery::Is6Cmt => QuerySpec {
                name: self.name(),
                steps: vec![
                    Step {
                        plan: Plan::new(
                            vec![
                                Op::IndexScan {
                                    label: c.comment,
                                    key: c.id,
                                    value: p(0),
                                },
                                Op::Project(vec![Proj::Prop {
                                    col: 0,
                                    key: c.root_post_id,
                                }]),
                            ],
                            1,
                        ),
                        feed_col: None,
                    },
                    Step {
                        plan: is6_post_plan(c, 1),
                        feed_col: Some(0),
                    },
                ],
            },
            // IS7: replies with author and "knows original author" flag.
            SrQuery::Is7Post | SrQuery::Is7Cmt => {
                let msg = if matches!(self, SrQuery::Is7Post) {
                    c.post
                } else {
                    c.comment
                };
                QuerySpec::single(
                    self.name(),
                    Plan::new(
                        vec![
                            Op::IndexScan {
                                label: msg,
                                key: c.id,
                                value: p(0),
                            },
                            Op::ForeachRel {
                                col: 0,
                                dir: Dir::Out,
                                label: Some(c.has_creator),
                            },
                            Op::GetNode {
                                col: 1,
                                end: RelEnd::Dst,
                            }, // original author @2
                            Op::ForeachRel {
                                col: 0,
                                dir: Dir::In,
                                label: Some(c.reply_of),
                            },
                            Op::GetNode {
                                col: 3,
                                end: RelEnd::Src,
                            }, // reply comment @4
                            Op::ForeachRel {
                                col: 4,
                                dir: Dir::Out,
                                label: Some(c.has_creator),
                            },
                            Op::GetNode {
                                col: 5,
                                end: RelEnd::Dst,
                            }, // reply author @6
                            Op::Project(vec![
                                Proj::Prop { col: 4, key: c.id },
                                Proj::Prop { col: 4, key: c.content },
                                Proj::Prop { col: 4, key: c.creation_date },
                                Proj::Prop { col: 6, key: c.id },
                                Proj::Prop { col: 6, key: c.first_name },
                                Proj::Prop { col: 6, key: c.last_name },
                                Proj::ConnectedFlag {
                                    a: 6,
                                    b: 2,
                                    label: c.knows,
                                },
                            ]),
                            Op::OrderBy {
                                key: Proj::Col(2),
                                desc: true,
                            },
                        ],
                        1,
                    ),
                )
            }
        }
    }

    /// Random parameters for this query against the generated data.
    pub fn params(&self, snb: &SnbDb, rng: &mut impl Rng) -> Vec<PVal> {
        let d = &snb.data;
        let pick = |v: &Vec<i64>, rng: &mut dyn FnMut(usize) -> usize| v[rng(v.len())];
        let mut r = |n: usize| rng.random_range(0..n);
        match self {
            SrQuery::Is1 | SrQuery::Is2Post | SrQuery::Is2Cmt | SrQuery::Is3 => {
                vec![PVal::Int(pick(&d.person_ids, &mut r))]
            }
            SrQuery::Is4Post | SrQuery::Is5Post | SrQuery::Is6Post | SrQuery::Is7Post => {
                vec![PVal::Int(pick(&d.post_ids, &mut r))]
            }
            SrQuery::Is4Cmt | SrQuery::Is5Cmt | SrQuery::Is6Cmt | SrQuery::Is7Cmt => {
                vec![PVal::Int(pick(&d.comment_ids, &mut r))]
            }
        }
    }
}

fn is6_post_plan(c: &SnbCodes, param: usize) -> Plan {
    Plan::new(
        vec![
            Op::IndexScan {
                label: c.post,
                key: c.id,
                value: p(param),
            },
            Op::ForeachRel {
                col: 0,
                dir: Dir::In,
                label: Some(c.container_of),
            },
            Op::GetNode {
                col: 1,
                end: RelEnd::Src,
            }, // forum @2
            Op::ForeachRel {
                col: 2,
                dir: Dir::Out,
                label: Some(c.has_moderator),
            },
            Op::GetNode {
                col: 3,
                end: RelEnd::Dst,
            }, // moderator @4
            Op::Project(vec![
                Proj::Prop { col: 2, key: c.id },
                Proj::Prop { col: 2, key: c.title },
                Proj::Prop { col: 4, key: c.id },
                Proj::Prop { col: 4, key: c.first_name },
                Proj::Prop { col: 4, key: c.last_name },
            ]),
        ],
        param + 1,
    )
}

// ---------------------------------------------------------------------
// Interactive Updates
// ---------------------------------------------------------------------

/// The eight transactional update queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IuQuery {
    Iu1,
    Iu2,
    Iu3,
    Iu4,
    Iu5,
    Iu6,
    Iu7,
    Iu8,
}

impl IuQuery {
    /// All queries in figure order.
    pub const ALL: [IuQuery; 8] = [
        IuQuery::Iu1,
        IuQuery::Iu2,
        IuQuery::Iu3,
        IuQuery::Iu4,
        IuQuery::Iu5,
        IuQuery::Iu6,
        IuQuery::Iu7,
        IuQuery::Iu8,
    ];

    /// Figure label ("1".."8").
    pub fn name(&self) -> &'static str {
        match self {
            IuQuery::Iu1 => "1",
            IuQuery::Iu2 => "2",
            IuQuery::Iu3 => "3",
            IuQuery::Iu4 => "4",
            IuQuery::Iu5 => "5",
            IuQuery::Iu6 => "6",
            IuQuery::Iu7 => "7",
            IuQuery::Iu8 => "8",
        }
    }

    /// Build the plan for this update.
    pub fn spec(&self, c: &SnbCodes) -> QuerySpec {
        let plan = match self {
            // IU1: add person (located in a city).
            IuQuery::Iu1 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.city,
                        key: c.id,
                        value: p(0),
                    },
                    Op::CreateNode {
                        label: c.person,
                        props: vec![
                            (c.id, p(1)),
                            (c.first_name, p(2)),
                            (c.last_name, p(3)),
                            (c.gender, p(4)),
                            (c.birthday, p(5)),
                            (c.creation_date, p(6)),
                            (c.location_ip, p(7)),
                            (c.browser_used, p(8)),
                        ],
                    },
                    Op::CreateRel {
                        src_col: 1,
                        dst_col: 0,
                        label: c.is_located_in,
                        props: vec![],
                    },
                ],
                9,
            ),
            // IU2: person likes a post.
            IuQuery::Iu2 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.person,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.post,
                        key: c.id,
                        value: p(1),
                    },
                    Op::CreateRel {
                        src_col: 0,
                        dst_col: 1,
                        label: c.likes,
                        props: vec![(c.creation_date, p(2))],
                    },
                ],
                3,
            ),
            // IU3: person likes a comment.
            IuQuery::Iu3 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.person,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.comment,
                        key: c.id,
                        value: p(1),
                    },
                    Op::CreateRel {
                        src_col: 0,
                        dst_col: 1,
                        label: c.likes,
                        props: vec![(c.creation_date, p(2))],
                    },
                ],
                3,
            ),
            // IU4: add forum with moderator.
            IuQuery::Iu4 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.person,
                        key: c.id,
                        value: p(0),
                    },
                    Op::CreateNode {
                        label: c.forum,
                        props: vec![(c.id, p(1)), (c.title, p(2)), (c.creation_date, p(3))],
                    },
                    Op::CreateRel {
                        src_col: 1,
                        dst_col: 0,
                        label: c.has_moderator,
                        props: vec![],
                    },
                ],
                4,
            ),
            // IU5: forum membership.
            IuQuery::Iu5 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.forum,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.person,
                        key: c.id,
                        value: p(1),
                    },
                    Op::CreateRel {
                        src_col: 0,
                        dst_col: 1,
                        label: c.has_member,
                        props: vec![(c.join_date, p(2))],
                    },
                ],
                3,
            ),
            // IU6: add post to forum (author + country links).
            IuQuery::Iu6 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.forum,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.person,
                        key: c.id,
                        value: p(1),
                    },
                    Op::IndexProbe {
                        label: c.country,
                        key: c.id,
                        value: p(2),
                    },
                    Op::CreateNode {
                        label: c.post,
                        props: vec![
                            (c.id, p(3)),
                            (c.content, p(4)),
                            (c.length, p(5)),
                            (c.creation_date, p(6)),
                            (c.language, p(7)),
                            (c.location_ip, p(8)),
                            (c.browser_used, p(9)),
                        ],
                    },
                    Op::CreateRel {
                        src_col: 0,
                        dst_col: 3,
                        label: c.container_of,
                        props: vec![],
                    },
                    Op::CreateRel {
                        src_col: 3,
                        dst_col: 1,
                        label: c.has_creator,
                        props: vec![],
                    },
                    Op::CreateRel {
                        src_col: 3,
                        dst_col: 2,
                        label: c.is_located_in,
                        props: vec![],
                    },
                ],
                10,
            ),
            // IU7: add comment replying to a message.
            IuQuery::Iu7 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.post,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.person,
                        key: c.id,
                        value: p(1),
                    },
                    Op::IndexProbe {
                        label: c.country,
                        key: c.id,
                        value: p(2),
                    },
                    Op::CreateNode {
                        label: c.comment,
                        props: vec![
                            (c.id, p(3)),
                            (c.content, p(4)),
                            (c.length, p(5)),
                            (c.creation_date, p(6)),
                            (c.location_ip, p(7)),
                            (c.browser_used, p(8)),
                            (c.root_post_id, p(0)),
                        ],
                    },
                    Op::CreateRel {
                        src_col: 3,
                        dst_col: 0,
                        label: c.reply_of,
                        props: vec![],
                    },
                    Op::CreateRel {
                        src_col: 3,
                        dst_col: 1,
                        label: c.has_creator,
                        props: vec![],
                    },
                    Op::CreateRel {
                        src_col: 3,
                        dst_col: 2,
                        label: c.is_located_in,
                        props: vec![],
                    },
                ],
                9,
            ),
            // IU8: friendship, materialised in both directions.
            IuQuery::Iu8 => Plan::new(
                vec![
                    Op::IndexScan {
                        label: c.person,
                        key: c.id,
                        value: p(0),
                    },
                    Op::IndexProbe {
                        label: c.person,
                        key: c.id,
                        value: p(1),
                    },
                    Op::CreateRel {
                        src_col: 0,
                        dst_col: 1,
                        label: c.knows,
                        props: vec![(c.creation_date, p(2))],
                    },
                    Op::CreateRel {
                        src_col: 1,
                        dst_col: 0,
                        label: c.knows,
                        props: vec![(c.creation_date, p(2))],
                    },
                ],
                3,
            ),
        };
        QuerySpec::single(self.name(), plan)
    }

    /// Random parameters for this update against the generated data. Each
    /// call produces a *new* transaction's worth of parameters (fresh ids
    /// where the query inserts entities).
    pub fn params(&self, snb: &SnbDb, rng: &mut impl Rng) -> Vec<PVal> {
        let d = &snb.data;
        let db = &snb.db;
        let s = |s: &str| PVal::Str(db.dict().get_or_insert(s).expect("intern"));
        let date = PVal::Date(1_600_000_000_000 + (rng.random_range(0..1000i64)) * 86_400_000);
        let mut r = |v: &Vec<i64>| PVal::Int(v[rng.random_range(0..v.len())]);
        match self {
            IuQuery::Iu1 => vec![
                r(&d.city_ids),
                PVal::Int(d.fresh_person_id()),
                s("Newy"),
                s("Person"),
                s("female"),
                PVal::Date(631_152_000_000),
                date,
                s("10.1.2.3"),
                s("Firefox"),
            ],
            IuQuery::Iu2 => vec![r(&d.person_ids), r(&d.post_ids), date],
            IuQuery::Iu3 => vec![r(&d.person_ids), r(&d.comment_ids), date],
            IuQuery::Iu4 => vec![
                r(&d.person_ids),
                PVal::Int(d.fresh_forum_id()),
                s("a new forum"),
                date,
            ],
            IuQuery::Iu5 => vec![r(&d.forum_ids), r(&d.person_ids), date],
            IuQuery::Iu6 => vec![
                r(&d.forum_ids),
                r(&d.person_ids),
                r(&d.country_ids),
                PVal::Int(d.fresh_message_id()),
                s("new post content"),
                PVal::Int(64),
                date,
                s("en"),
                s("10.4.5.6"),
                s("Chrome"),
            ],
            IuQuery::Iu7 => vec![
                r(&d.post_ids),
                r(&d.person_ids),
                r(&d.country_ids),
                PVal::Int(d.fresh_message_id()),
                s("new comment"),
                PVal::Int(24),
                date,
                s("10.7.8.9"),
                s("Safari"),
            ],
            IuQuery::Iu8 => vec![r(&d.person_ids), r(&d.person_ids), date],
        }
    }
}
