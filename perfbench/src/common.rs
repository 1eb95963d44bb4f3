//! Pieces every workload shares: the seeded generator, operations, the
//! answer digest and the workload interface both run loops use.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use std::sync::atomic::{AtomicI64, Ordering};

use volcano_exec::{Database, Server};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, TableId, Value};

use crate::adhoc::JoinQuery;

/// SplitMix64: small, fast and fully determined by its seed, so the
/// same `--seed` always yields the same data and operations.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A string of exactly `width` bytes, distinct per `n`.
pub fn padded(prefix: &str, n: u64, width: usize) -> String {
    let mut s = format!("{prefix}{n}");
    while s.len() < width {
        s.push('_');
    }
    s
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `EXECUTE` prepared statement `stmt` with `params`.
    Execute { stmt: usize, params: Vec<Value> },
    /// A one-shot literal SQL query (`Session::query`).
    Query { sql: String, join: Box<JoinQuery> },
    /// `Database::insert` of a fresh row into one of the workload's
    /// tables.
    Insert { table: TableId, row: Vec<Value> },
    /// `Database::insert` of a fresh row into the [`Journal`].
    Journal { row: Vec<Value> },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Journal { .. })
    }
}

/// Where workloads with a read-only mix time their writes: one table in
/// a database of its own, written after every read. Its inserts take the
/// same path as any table's, but the workload's data, plan cache and
/// stats epoch never see them, so no read answer or cache verdict moves.
/// Spreading the inserts over the whole window, not timing one burst,
/// keeps the machine's slow and fast spells from deciding their median.
pub struct Journal {
    pub db: Database,
    pub table: TableId,
    next_id: AtomicI64,
}

impl Journal {
    pub const NAME: &'static str = "journal";
    const NOTE_WIDTH: usize = 40;

    pub fn new() -> Self {
        let mut catalog = Catalog::new();
        let table = catalog.add_table(
            Self::NAME,
            1.0,
            vec![
                ColumnDef::int("id", 1.0),
                ColumnDef::int("a", 1.0),
                ColumnDef::int("b", 1.0),
                ColumnDef::str("note", Self::NOTE_WIDTH as u32, 1.0),
            ],
        );
        Journal {
            db: Database::with_pool_size(catalog, FITTING_POOL_PAGES),
            table,
            next_id: AtomicI64::new(0),
        }
    }

    pub fn op(&self, rng: &mut Rng) -> Op {
        Op::Journal {
            row: vec![
                Value::Int(self.next_id.fetch_add(1, Ordering::Relaxed)),
                Value::Int(rng.range(0, 1_000)),
                Value::Int(rng.range(0, 1_000)),
                Value::Str(padded("j", rng.next_u64() >> 8, Self::NOTE_WIDTH)),
            ],
        }
    }
}

/// Order-independent digest of a multiset of rows: the row count plus
/// the wrapping sum of per-row hashes. `DefaultHasher::new()` uses fixed
/// keys, so digests agree across processes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    sum: u64,
}

impl Digest {
    pub fn add(&mut self, row: &[Value]) {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    pub fn of(rows: &[Tuple]) -> Self {
        let mut d = Digest::default();
        for r in rows {
            d.add(r);
        }
        d
    }
}

/// Whether `rows` is non-decreasing on column `col`.
pub fn sorted_on(rows: &[Tuple], col: usize) -> bool {
    rows.windows(2).all(|w| w[0][col] <= w[1][col])
}

/// A loaded table, for the run record and the final row-count check.
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub name: &'static str,
    pub id: TableId,
    pub loaded_rows: usize,
}

/// A workload: its server, prepared statements, operation stream and
/// answer oracle. The run loops never look inside.
pub trait Workload: Sync {
    /// Closed-loop clients (one session each) in untraced runs.
    fn clients(&self) -> usize;
    fn server(&self) -> &Server;
    /// SQL of the statements every session prepares, as `s0`, `s1`, ...
    fn statements(&self) -> &[&'static str];
    /// Operations run once per session during set-up, off the clock.
    fn warmup(&self) -> Vec<Op>;
    /// The `i`-th operation of a client, drawing from that client's
    /// generator. Reads and writes interleave per the workload's mix.
    fn next_op(&self, i: u64, rng: &mut Rng) -> Op;
    /// The oracle: the multiset of rows a read must return, computed
    /// from the generated data without the system under test.
    fn expected(&self, op: &Op) -> Digest;
    /// The column an ORDER BY read's rows must be sorted on.
    fn order_column(&self, _op: &Op) -> Option<usize> {
        None
    }
    /// Whether the operation mix itself writes. A read-only mix has a
    /// [`Journal`] insert timed after each read instead.
    fn mix_writes(&self) -> bool {
        false
    }
    fn tables(&self) -> &[TableInfo];
    /// Buffer-pool capacity the database was built with.
    fn pool_pages(&self) -> usize;
}

/// Buffer-pool pages of the workloads whose data fits: the size
/// `Database::in_memory` uses, passed explicitly so the record stays
/// true if that default moves.
pub const FITTING_POOL_PAGES: usize = 4096;

/// Prepared-statement names, `s0`.. (no formatting per operation).
pub const STMT_NAMES: [&str; 8] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];
