//! `report_scan`: one session runs prepared GROUP BY, ORDER BY and
//! 2–4-way star-join aggregates with a warm plan cache, over a fact
//! table about twice the size of the buffer pool, at parallel degree
//! `nproc`.
//!
//! Why: `exec` (hash join, aggregate, sort, morsel gather) and the
//! `store` miss path dominate. It is the larger-than-cache workload;
//! `oltp_mixed` is the one that fits.

use std::collections::BTreeMap;

use volcano_exec::{Database, Server};
use volcano_rel::{Catalog, ColumnDef, TableId, Value};

use crate::common::{padded, Digest, Op, Rng, TableInfo, Workload};

/// Fact rows; with `PAD_WIDTH` this is about twice `POOL_PAGES` pages.
const FACT_ROWS: usize = 100_000;
const POOL_PAGES: usize = 1_024;
const PAD_WIDTH: usize = 40;
const STORES: i64 = 50;
const REGIONS: i64 = 5;
const PRODUCTS: i64 = 1_000;
const CATEGORIES: i64 = 20;
const DAYS: i64 = 365;
const MONTHS: i64 = 12;
const QTY: i64 = 20;
const PRICES: i64 = 10_000;

const STATEMENTS: [&str; 5] = [
    "SELECT sales.store, COUNT(*), SUM(sales.qty) FROM sales \
     WHERE sales.day < $0 GROUP BY sales.store",
    "SELECT sales.id, sales.price FROM sales WHERE sales.price >= $0 ORDER BY sales.price",
    "SELECT store.region, SUM(sales.price) FROM sales, store \
     WHERE sales.store = store.id AND sales.qty < $0 GROUP BY store.region",
    "SELECT product.category, COUNT(*) FROM sales, store, product \
     WHERE sales.store = store.id AND sales.product = product.id AND store.region = $0 \
     GROUP BY product.category",
    "SELECT day.month, SUM(sales.qty) FROM sales, store, product, day \
     WHERE sales.store = store.id AND sales.product = product.id AND sales.day = day.id \
     AND product.category < $0 AND store.region < $1 GROUP BY day.month",
];

struct Sale {
    id: i64,
    store: i64,
    product: i64,
    day: i64,
    qty: i64,
    price: i64,
}

pub struct ReportScan {
    server: Server,
    sales: Vec<Sale>,
    store_region: Vec<i64>,
    product_category: Vec<i64>,
    day_month: Vec<i64>,
    tables: Vec<TableInfo>,
}

impl ReportScan {
    pub fn setup(seed: u64, degree: u32) -> Self {
        let mut catalog = Catalog::new();
        let sales_t = catalog.add_table(
            "sales",
            FACT_ROWS as f64,
            vec![
                ColumnDef::int("id", FACT_ROWS as f64),
                ColumnDef::int("store", STORES as f64),
                ColumnDef::int("product", PRODUCTS as f64),
                ColumnDef::int("day", DAYS as f64),
                ColumnDef::int("qty", QTY as f64),
                ColumnDef::int("price", PRICES as f64),
                ColumnDef::str("pad", PAD_WIDTH as u32, FACT_ROWS as f64),
            ],
        );
        let dim = |catalog: &mut Catalog, name: &str, attr: &str, rows: i64, values: i64| {
            catalog.add_table(
                name,
                rows as f64,
                vec![
                    ColumnDef::int("id", rows as f64),
                    ColumnDef::int(attr, values as f64),
                ],
            )
        };
        let store_t = dim(&mut catalog, "store", "region", STORES, REGIONS);
        let product_t = dim(&mut catalog, "product", "category", PRODUCTS, CATEGORIES);
        let day_t = dim(&mut catalog, "day", "month", DAYS, MONTHS);
        let db = Database::with_pool_size(catalog, POOL_PAGES);
        db.set_parallel_degree(degree);
        let mut rng = Rng::fork(seed, 3);
        let mut load_dim = |t: TableId, rows: i64, values: i64| -> Vec<i64> {
            (0..rows)
                .map(|id| {
                    let v = rng.range(0, values);
                    db.insert(t, vec![Value::Int(id), Value::Int(v)]);
                    v
                })
                .collect()
        };
        let store_region = load_dim(store_t, STORES, REGIONS);
        let product_category = load_dim(product_t, PRODUCTS, CATEGORIES);
        let day_month = load_dim(day_t, DAYS, MONTHS);
        let mut sales = Vec::with_capacity(FACT_ROWS);
        for id in 0..FACT_ROWS as i64 {
            let (row, sale) = Self::sale(id, &mut rng);
            db.insert(sales_t, row);
            sales.push(sale);
        }
        let info = |name, id, loaded_rows| TableInfo {
            name,
            id,
            loaded_rows,
        };
        ReportScan {
            server: Server::new(db, crate::server_config()),
            sales,
            store_region,
            product_category,
            day_month,
            tables: vec![
                info("sales", sales_t, FACT_ROWS),
                info("store", store_t, STORES as usize),
                info("product", product_t, PRODUCTS as usize),
                info("day", day_t, DAYS as usize),
            ],
        }
    }

    fn sale(id: i64, rng: &mut Rng) -> (Vec<Value>, Sale) {
        let s = Sale {
            id,
            store: rng.range(0, STORES),
            product: rng.range(0, PRODUCTS),
            day: rng.range(0, DAYS),
            qty: rng.range(0, QTY),
            price: rng.range(0, PRICES),
        };
        let row = vec![
            Value::Int(s.id),
            Value::Int(s.store),
            Value::Int(s.product),
            Value::Int(s.day),
            Value::Int(s.qty),
            Value::Int(s.price),
            Value::Str(padded("p", rng.next_u64() >> 8, PAD_WIDTH)),
        ];
        (row, s)
    }

    fn read(stmt: usize, rng: &mut Rng) -> Op {
        let params = match stmt {
            0 => vec![rng.range(30, DAYS)],
            // 0.5%–2% of the fact table, sorted.
            1 => vec![rng.range(PRICES - 200, PRICES - 50)],
            2 => vec![rng.range(2, QTY)],
            3 => vec![rng.range(0, REGIONS)],
            _ => vec![rng.range(5, CATEGORIES), rng.range(2, REGIONS + 1)],
        };
        Op::Execute {
            stmt,
            params: params.into_iter().map(Value::Int).collect(),
        }
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer parameter, got {other:?}"),
    }
}

/// Fold `(group, value)` pairs into `[group, count, sum]` rows.
fn groups(pairs: impl Iterator<Item = (i64, i64)>) -> BTreeMap<i64, (i64, i64)> {
    let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for (k, v) in pairs {
        let e = g.entry(k).or_default();
        e.0 += 1;
        e.1 += v;
    }
    g
}

impl Workload for ReportScan {
    fn clients(&self) -> usize {
        1
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
        Self::read((i % STATEMENTS.len() as u64) as usize, rng)
    }

    fn expected(&self, op: &Op) -> Digest {
        let Op::Execute { stmt, params } = op else {
            unreachable!("report_scan reads are prepared executions")
        };
        let p: Vec<i64> = params.iter().map(int).collect();
        let region = |s: &Sale| self.store_region[s.store as usize];
        let category = |s: &Sale| self.product_category[s.product as usize];
        let mut digest = Digest::default();
        let mut emit = |row: &[i64]| {
            let row: Vec<Value> = row.iter().map(|&v| Value::Int(v)).collect();
            digest.add(&row);
        };
        match *stmt {
            0 => {
                let g = groups(
                    self.sales
                        .iter()
                        .filter(|s| s.day < p[0])
                        .map(|s| (s.store, s.qty)),
                );
                g.iter().for_each(|(k, (n, sum))| emit(&[*k, *n, *sum]));
            }
            1 => {
                self.sales
                    .iter()
                    .filter(|s| s.price >= p[0])
                    .for_each(|s| emit(&[s.id, s.price]));
            }
            2 => {
                let g = groups(
                    self.sales
                        .iter()
                        .filter(|s| s.qty < p[0])
                        .map(|s| (region(s), s.price)),
                );
                g.iter().for_each(|(k, (_, sum))| emit(&[*k, *sum]));
            }
            3 => {
                let g = groups(
                    self.sales
                        .iter()
                        .filter(|s| region(s) == p[0])
                        .map(|s| (category(s), 0)),
                );
                g.iter().for_each(|(k, (n, _))| emit(&[*k, *n]));
            }
            _ => {
                let g = groups(
                    self.sales
                        .iter()
                        .filter(|s| category(s) < p[0] && region(s) < p[1])
                        .map(|s| (self.day_month[s.day as usize], s.qty)),
                );
                g.iter().for_each(|(k, (_, sum))| emit(&[*k, *sum]));
            }
        }
        digest
    }

    fn order_column(&self, op: &Op) -> Option<usize> {
        matches!(op, Op::Execute { stmt: 1, .. }).then_some(1)
    }

    fn tables(&self) -> &[TableInfo] {
        &self.tables
    }

    fn pool_pages(&self) -> usize {
        POOL_PAGES
    }
}
