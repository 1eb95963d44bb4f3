//! `adhoc_join`: one session sends literal select–join SQL through
//! `Session::query`, in the shape of the paper's §4.2 experiment.
//!
//! Why: this is the paper's own experiment made end to end. Each query
//! joins 2–8 of 8 relations (1,200–7,200 rows of 100 bytes) along a
//! random connected graph with one selection per relation, so `core`
//! search dominates and execution stays small. Shapes are drawn so they
//! rarely repeat: the plan cache mostly misses and inserts.

use std::collections::HashMap;
use std::fmt::Write as _;

use volcano_exec::{Database, Server};
use volcano_rel::{Catalog, ColumnDef, Value};

use crate::common::{padded, Digest, Op, Rng, TableInfo, Workload, FITTING_POOL_PAGES};

const RELATIONS: usize = 8;
const MIN_CARD: usize = 1_200;
const MAX_CARD: usize = 7_200;
/// Values of the two join columns: every relation has keys `0..MIN_CARD`,
/// so each value finds exactly one row of whichever relation it joins.
const JOIN_DOMAIN: i64 = MIN_CARD as i64;
const CATEGORIES: i64 = 100;
/// The golden ratio's fractional part: its multiples mod 1 spread evenly.
const GOLDEN: f64 = 0.618_033_988_749_895;
/// Four integer columns plus this filler make a 100-byte row (§4.2).
const FILLER_WIDTH: usize = 68;
/// Share of the edges that join the hub relation on its designated
/// attribute (the probability `volcano_bench::workload` uses): runs of
/// joins sharing one attribute give the search interesting orders to
/// exploit.
const SHARED_ATTR_PROBABILITY: f64 = 0.8;

/// Columns: `c0` is a unique key (a permutation of `0..card`), `c1` and
/// `c2` are join columns over `0..JOIN_DOMAIN`, `c3` is a category.
struct Relation {
    card: usize,
    cols: [Vec<i64>; 4],
}

/// Per-relation selection.
#[derive(Debug, Clone, Copy)]
enum Selection {
    /// `c0 < bound`.
    KeyBelow(i64),
    /// `c3 < bound`.
    CategoryBelow(i64),
}

/// A generated query: relations in FROM order (indices into the
/// database's eight), one selection each, and spanning-tree edges
/// `(position a, column a, position b)` joining `a.c{column} = b.c0`
/// with `a < b`, so positions `0..k` are always connected. Joining to
/// a key means no join multiplies rows: a result never exceeds the
/// first relation, so execution stays small next to search.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    rels: Vec<usize>,
    selections: Vec<Selection>,
    edges: Vec<(usize, usize, usize)>,
}

pub struct Adhoc {
    server: Server,
    relations: Vec<Relation>,
    share_start: f64,
    tables: Vec<TableInfo>,
}

const NAMES: [&str; RELATIONS] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];

impl Adhoc {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 2);
        // Cardinalities evenly spaced over the paper's range and dealt
        // to relations by the seed, so every seed has the same size mix.
        let mut cards: Vec<usize> = (0..RELATIONS)
            .map(|i| MIN_CARD + i * (MAX_CARD - MIN_CARD) / (RELATIONS - 1))
            .collect();
        for i in (1..RELATIONS).rev() {
            cards.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut catalog = Catalog::new();
        let mut relations = Vec::new();
        let mut ids = Vec::new();
        for (name, &card) in NAMES.iter().zip(&cards) {
            let distinct = [
                card as f64,
                JOIN_DOMAIN as f64,
                JOIN_DOMAIN as f64,
                CATEGORIES as f64,
            ];
            let mut key: Vec<i64> = (0..card as i64).collect();
            for i in (1..card).rev() {
                key.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut cols = [key, Vec::new(), Vec::new(), Vec::new()];
            for (c, col) in cols.iter_mut().enumerate().skip(1) {
                *col = (0..card)
                    .map(|_| rng.below(distinct[c] as u64) as i64)
                    .collect();
            }
            ids.push(catalog.add_table(name, card as f64, Self::columns(distinct, card as f64)));
            relations.push(Relation { card, cols });
        }
        let db = Database::with_pool_size(catalog, FITTING_POOL_PAGES);
        for (r, rel) in relations.iter().enumerate() {
            for row in 0..rel.card {
                db.insert(ids[r], Self::row_values(rel, row, &mut rng));
            }
        }
        let tables = (0..RELATIONS)
            .map(|r| TableInfo {
                name: NAMES[r],
                id: ids[r],
                loaded_rows: relations[r].card,
            })
            .collect();
        Adhoc {
            server: Server::new(db, crate::server_config()),
            relations,
            share_start: rng.unit(),
            tables,
        }
    }

    /// A relation's columns: `c0`..`c3` with the given distinct counts,
    /// then the filler.
    fn columns(distinct: [f64; 4], card: f64) -> Vec<ColumnDef> {
        let mut defs: Vec<ColumnDef> = (0..4)
            .map(|c| ColumnDef::int(&format!("c{c}"), distinct[c]))
            .collect();
        defs.push(ColumnDef::str("filler", FILLER_WIDTH as u32, card));
        defs
    }

    fn row_values(rel: &Relation, row: usize, rng: &mut Rng) -> Vec<Value> {
        let mut v: Vec<Value> = rel.cols.iter().map(|c| Value::Int(c[row])).collect();
        v.push(Value::Str(padded("f", rng.next_u64() >> 8, FILLER_WIDTH)));
        v
    }

    /// The `i`-th query. Its size, relations and topology follow a fixed
    /// design, so every run has the same mix: sizes cycle through 2..=8,
    /// and each size slides a window over the eight relations, so every
    /// relation is scanned equally often. The seed draws the order the
    /// others join the hub in, the join columns and the selections.
    fn draw(&self, i: u64, rng: &mut Rng) -> JoinQuery {
        let n = 2 + (i % (RELATIONS as u64 - 1)) as usize;
        let first = (i / (RELATIONS as u64 - 1)) as usize;
        let mut rels: Vec<usize> = (0..n).map(|j| (first + j) % RELATIONS).collect();
        // The window's first relation is the hub, so every relation is
        // the hub equally often; the rest join in a seeded order.
        for j in (2..n).rev() {
            rels.swap(j, 1 + rng.below(j as u64) as usize);
        }
        // Each selection keeps 20%–100% of its relation, so most results
        // are not empty. The shares follow a golden-ratio sequence from a
        // seeded start, so every run sees the same spread of result sizes.
        let selections = rels
            .iter()
            .enumerate()
            .map(|(j, &r)| {
                let k = (i * RELATIONS as u64 + j as u64) as f64;
                let share = 0.2 + 0.8 * (self.share_start + k * GOLDEN).fract();
                if rng.chance(0.85) {
                    Selection::CategoryBelow((CATEGORIES as f64 * share).ceil() as i64)
                } else {
                    Selection::KeyBelow((self.relations[r].card as f64 * share).ceil() as i64)
                }
            })
            .collect();
        // The topology decides most of the search effort, so it is fixed
        // per size: the first 80% of the edges join the hub on its
        // designated column, the rest extend a chain from the last of them.
        let hub_col = rng.range(1, 3) as usize;
        let hub_edges = (SHARED_ATTR_PROBABILITY * (n - 1) as f64).round() as usize;
        let edges = (1..n)
            .map(|b| {
                if b <= hub_edges {
                    (0, hub_col, b)
                } else {
                    (b - 1, rng.range(1, 3) as usize, b)
                }
            })
            .collect();
        JoinQuery {
            rels,
            selections,
            edges,
        }
    }

    fn sql(q: &JoinQuery) -> String {
        let names: Vec<&str> = q.rels.iter().map(|&r| NAMES[r]).collect();
        let mut s = String::from("SELECT ");
        for (i, n) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}{n}.c0").expect("writing to a String");
        }
        write!(s, " FROM {} WHERE ", names.join(", ")).expect("writing to a String");
        let mut conds: Vec<String> = q
            .edges
            .iter()
            .map(|&(a, ca, b)| format!("{}.c{ca} = {}.c0", names[a], names[b]))
            .collect();
        for (i, sel) in q.selections.iter().enumerate() {
            conds.push(match sel {
                Selection::KeyBelow(v) => format!("{}.c0 < {v}", names[i]),
                Selection::CategoryBelow(v) => format!("{}.c3 < {v}", names[i]),
            });
        }
        s.push_str(&conds.join(" AND "));
        s
    }

    fn query_op(&self, i: u64, rng: &mut Rng) -> Op {
        let join = self.draw(i, rng);
        Op::Query {
            sql: Self::sql(&join),
            join: Box::new(join),
        }
    }

    /// Rows of relation `rel` passing `sel`.
    fn filter(&self, rel: usize, sel: Selection) -> Vec<u32> {
        let r = &self.relations[rel];
        (0..r.card as u32)
            .filter(|&i| match sel {
                Selection::KeyBelow(b) => r.cols[0][i as usize] < b,
                Selection::CategoryBelow(v) => r.cols[3][i as usize] < v,
            })
            .collect()
    }
}

impl Workload for Adhoc {
    fn clients(&self) -> usize {
        1
    }

    fn server(&self) -> &Server {
        &self.server
    }

    fn statements(&self) -> &[&'static str] {
        &[]
    }

    fn warmup(&self) -> Vec<Op> {
        let mut rng = Rng::new(0);
        (0..RELATIONS as u64 - 1)
            .map(|i| self.query_op(i, &mut rng))
            .collect()
    }

    fn next_op(&self, i: u64, rng: &mut Rng) -> Op {
        self.query_op(i, rng)
    }

    /// Key lookups along the query's spanning tree over the generated
    /// columns — independent of the optimizer and every engine.
    fn expected(&self, op: &Op) -> Digest {
        let Op::Query { join: q, .. } = op else {
            unreachable!("adhoc_join reads are literal queries")
        };
        // Row of each relation by key, for the rows passing its selection.
        let passing: Vec<HashMap<i64, u32>> = q
            .rels
            .iter()
            .zip(&q.selections)
            .map(|(&r, &sel)| {
                self.filter(r, sel)
                    .into_iter()
                    .map(|i| (self.relations[r].cols[0][i as usize], i))
                    .collect()
            })
            .collect();
        let mut digest = Digest::default();
        'rows: for first in self.filter(q.rels[0], q.selections[0]) {
            let mut row = vec![first];
            for &(a, ca, b) in &q.edges {
                let value = self.relations[q.rels[a]].cols[ca][row[a] as usize];
                match passing[b].get(&value) {
                    Some(&i) => row.push(i),
                    None => continue 'rows,
                }
            }
            let out: Vec<Value> = row
                .iter()
                .zip(&q.rels)
                .map(|(&i, &r)| Value::Int(self.relations[r].cols[0][i as usize]))
                .collect();
            digest.add(&out);
        }
        digest
    }

    fn tables(&self) -> &[TableInfo] {
        &self.tables
    }

    fn pool_pages(&self) -> usize {
        FITTING_POOL_PAGES
    }
}
