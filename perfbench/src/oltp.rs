//! `oltp_mixed`: two sessions run short prepared statements over a table
//! that fits the buffer pool, with one insert in ten operations.
//!
//! Why: short operations expose the fixed per-query costs (`sql`,
//! `plan_cache`, `compile`, `serve`) next to today's full-scan access
//! path, and the writes sit beside the reads, so a read-path gain that
//! costs writes, or costs the re-costing of entries the writes make
//! stale, shows.

use std::sync::atomic::{AtomicI64, Ordering};

use volcano_exec::{Database, Server};
use volcano_rel::{Catalog, ColumnDef, Value};

use crate::common::{padded, Digest, Op, Rng, TableInfo, Workload, FITTING_POOL_PAGES};

/// Rows loaded into `orders`; ids are `0..ROWS`.
const ROWS: i64 = 50_000;
const REGIONS: i64 = 50;
const CUSTOMERS: i64 = 5_000;
const AMOUNTS: i64 = 10_000;
const NOTE_WIDTH: usize = 40;

const STATEMENTS: [&str; 3] = [
    "SELECT orders.id, orders.cust, orders.amount FROM orders WHERE orders.id = $0",
    "SELECT orders.id, orders.amount FROM orders WHERE orders.id >= $0 AND orders.id < $1",
    "SELECT orders.id, region.name FROM orders, region \
     WHERE orders.region = region.id AND orders.id >= $0 AND orders.id < $1",
];
const LOOKUP: usize = 0;
const RANGE: usize = 1;
const JOIN: usize = 2;

/// One client's repeating mix: 5 point lookups, 2 ranges, 2 joins and
/// one insert (`None`) in every ten operations.
const MIX: [Option<usize>; 10] = [
    Some(LOOKUP),
    Some(RANGE),
    Some(LOOKUP),
    Some(JOIN),
    Some(LOOKUP),
    Some(RANGE),
    Some(LOOKUP),
    Some(JOIN),
    Some(LOOKUP),
    None,
];

pub struct Oltp {
    server: Server,
    cust: Vec<i64>,
    region: Vec<i64>,
    amount: Vec<i64>,
    region_name: Vec<String>,
    next_id: AtomicI64,
    tables: Vec<TableInfo>,
}

impl Oltp {
    pub fn setup(seed: u64) -> Self {
        let mut catalog = Catalog::new();
        let orders = catalog.add_table(
            "orders",
            ROWS as f64,
            vec![
                ColumnDef::int("id", ROWS as f64).indexed(),
                ColumnDef::int("cust", CUSTOMERS as f64),
                ColumnDef::int("region", REGIONS as f64),
                ColumnDef::int("amount", AMOUNTS as f64),
                ColumnDef::str("note", NOTE_WIDTH as u32, ROWS as f64),
            ],
        );
        let region_t = catalog.add_table(
            "region",
            REGIONS as f64,
            vec![
                ColumnDef::int("id", REGIONS as f64),
                ColumnDef::str("name", 12, REGIONS as f64),
            ],
        );
        let db = Database::with_pool_size(catalog, FITTING_POOL_PAGES);
        let mut rng = Rng::fork(seed, 1);
        let region_name: Vec<String> = (0..REGIONS)
            .map(|r| padded("region-", rng.below(1 << 20) * 100 + r as u64, 12))
            .collect();
        for (r, name) in region_name.iter().enumerate() {
            db.insert(
                region_t,
                vec![Value::Int(r as i64), Value::Str(name.clone())],
            );
        }
        let (mut cust, mut region, mut amount) = (Vec::new(), Vec::new(), Vec::new());
        for id in 0..ROWS {
            cust.push(rng.range(0, CUSTOMERS));
            region.push(rng.range(0, REGIONS));
            amount.push(rng.range(0, AMOUNTS));
            db.insert(
                orders,
                vec![
                    Value::Int(id),
                    Value::Int(cust[id as usize]),
                    Value::Int(region[id as usize]),
                    Value::Int(amount[id as usize]),
                    Value::Str(padded("note-", rng.next_u64() >> 8, NOTE_WIDTH)),
                ],
            );
        }
        Oltp {
            server: Server::new(db, crate::server_config()),
            cust,
            region,
            amount,
            region_name,
            next_id: AtomicI64::new(ROWS),
            tables: vec![
                TableInfo {
                    name: "orders",
                    id: orders,
                    loaded_rows: ROWS as usize,
                },
                TableInfo {
                    name: "region",
                    id: region_t,
                    loaded_rows: REGIONS as usize,
                },
            ],
        }
    }

    fn read(stmt: usize, rng: &mut Rng) -> Op {
        let params = match stmt {
            LOOKUP => vec![Value::Int(rng.range(0, ROWS))],
            RANGE => {
                let width = rng.range(5, 50);
                let lo = rng.range(0, ROWS - width);
                vec![Value::Int(lo), Value::Int(lo + width)]
            }
            JOIN => {
                let width = rng.range(5, 20);
                let lo = rng.range(0, ROWS - width);
                vec![Value::Int(lo), Value::Int(lo + width)]
            }
            _ => unreachable!("oltp_mixed has three statements"),
        };
        Op::Execute { stmt, params }
    }

    /// A fresh order: its id is past every id a read asks for, so no
    /// read answer moves.
    fn new_row(&self, rng: &mut Rng) -> Vec<Value> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        vec![
            Value::Int(id),
            Value::Int(rng.range(0, CUSTOMERS)),
            Value::Int(rng.range(0, REGIONS)),
            Value::Int(rng.range(0, AMOUNTS)),
            Value::Str(padded("note-", rng.next_u64() >> 8, NOTE_WIDTH)),
        ]
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer parameter, got {other:?}"),
    }
}

impl Workload for Oltp {
    fn clients(&self) -> usize {
        2
    }

    fn server(&self) -> &Server {
        &self.server
    }

    fn statements(&self) -> &[&'static str] {
        &STATEMENTS
    }

    fn warmup(&self) -> Vec<Op> {
        let mut rng = Rng::new(0);
        (0..STATEMENTS.len())
            .map(|s| Self::read(s, &mut rng))
            .collect()
    }

    fn next_op(&self, i: u64, rng: &mut Rng) -> Op {
        match MIX[(i % MIX.len() as u64) as usize] {
            Some(stmt) => Self::read(stmt, rng),
            None => Op::Insert {
                table: self.tables[0].id,
                row: self.new_row(rng),
            },
        }
    }

    fn expected(&self, op: &Op) -> Digest {
        let Op::Execute { stmt, params } = op else {
            unreachable!("oltp_mixed reads are prepared executions")
        };
        let mut digest = Digest::default();
        let ids = match *stmt {
            LOOKUP => int(&params[0])..int(&params[0]) + 1,
            _ => int(&params[0])..int(&params[1]),
        };
        for id in ids {
            let i = id as usize;
            match *stmt {
                LOOKUP => digest.add(&[
                    Value::Int(id),
                    Value::Int(self.cust[i]),
                    Value::Int(self.amount[i]),
                ]),
                RANGE => digest.add(&[Value::Int(id), Value::Int(self.amount[i])]),
                _ => digest.add(&[
                    Value::Int(id),
                    Value::Str(self.region_name[self.region[i] as usize].clone()),
                ]),
            }
        }
        digest
    }

    fn mix_writes(&self) -> bool {
        true
    }

    fn tables(&self) -> &[TableInfo] {
        &self.tables
    }

    fn pool_pages(&self) -> usize {
        FITTING_POOL_PAGES
    }
}
