//! The repository's benchmark: SQL driven through `volcano_exec::Server`
//! sessions on three workloads, every answer checked against an oracle.
//!
//! ```text
//! perfbench --workload <oltp_mixed|adhoc_join|report_scan> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` replays the same operations through a replica that times
//! every layer boundary (see `trace.rs`) and reports per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it records the configuration the numbers were measured under.
//! See `README.md` beside this package.

mod adhoc;
mod common;
mod oltp;
mod report;
mod trace;
mod traced;

use std::collections::HashMap;
use std::mem::take;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use volcano_exec::{ServerConfig, Session, SessionError, TrafficClass};
use volcano_rel::value::Tuple;
use volcano_rel::{TableId, Value};

use common::{sorted_on, Digest, Journal, Op, Rng, Workload, STMT_NAMES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A run keeps going past `--seconds` until it has this many read
/// samples (and, when the mix writes, write samples), so that p90 has at
/// least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// The journal writer of a read-only mix inserts `JOURNAL_BURST` rows
/// every `JOURNAL_PERIOD`: many short bursts spread over the window, so
/// the machine's slow and fast spells average out of the write figures.
pub const JOURNAL_PERIOD: Duration = Duration::from_millis(100);
pub const JOURNAL_BURST: usize = 100;

pub const WORKLOADS: [&str; 3] = ["oltp_mixed", "adhoc_join", "report_scan"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A set-up workload: data generated and loaded, one session per client
/// with every statement prepared, warm-up run.
pub struct Fixture {
    pub workload: Box<dyn Workload>,
    pub sessions: Vec<Session>,
    pub journal: Journal,
}

pub fn setup(name: &str, seed: u64) -> Result<Fixture, String> {
    let workload: Box<dyn Workload> = match name {
        "oltp_mixed" => Box::new(oltp::Oltp::setup(seed)),
        "adhoc_join" => Box::new(adhoc::Adhoc::setup(seed)),
        _ => Box::new(report::ReportScan::setup(seed, nproc() as u32)),
    };
    let mut sessions = Vec::new();
    for _ in 0..workload.clients() {
        let mut s = workload.server().session(TrafficClass::Interactive);
        for (i, sql) in workload.statements().iter().enumerate() {
            s.prepare(STMT_NAMES[i], sql).map_err(|e| e.to_string())?;
        }
        for op in workload.warmup() {
            run_session(&s, &op).map_err(|e| format!("warm-up failed: {e}"))?;
        }
        sessions.push(s);
    }
    Ok(Fixture {
        workload,
        sessions,
        journal: Journal::new(),
    })
}

/// The server configuration every workload's server is built with.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// Run a read through a session.
pub fn run_session(session: &Session, op: &Op) -> Result<Vec<Tuple>, SessionError> {
    match op {
        Op::Execute { stmt, params } => session.execute(STMT_NAMES[*stmt], params),
        Op::Query { sql, .. } => session.query(sql),
        Op::Insert { .. } | Op::Journal { .. } => unreachable!("writes go to a database"),
    }
    .map(|o| o.outcome.rows)
}

/// One operation's answer as the run saw it, checked after the window.
pub enum Answer {
    Rows { digest: Digest, ordered: bool },
    Written,
    Failed(String),
}

/// Run one operation through `session` (reads) or the database
/// (writes), catching errors and panics. A write's row moves into the
/// database, leaving the operation without it.
pub fn run_op(fx: &Fixture, session: &Session, op: &mut Op) -> Answer {
    if op.is_write() {
        return write(fx, op);
    }
    match catch_unwind(AssertUnwindSafe(|| run_session(session, op))) {
        Ok(Ok(rows)) => answer(fx.workload.as_ref(), op, &rows),
        Ok(Err(e)) => Answer::Failed(e.to_string()),
        Err(_) => Answer::Failed("panicked".into()),
    }
}

/// Run one insert, catching panics.
fn write(fx: &Fixture, op: &mut Op) -> Answer {
    let result = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Insert { table, row } => fx.workload.server().db().insert(*table, take(row)),
        Op::Journal { row } => fx.journal.db.insert(fx.journal.table, take(row)),
        _ => unreachable!("only writes are written"),
    }));
    match result {
        Ok(()) => Answer::Written,
        Err(_) => Answer::Failed("panicked".into()),
    }
}

pub fn answer(w: &dyn Workload, op: &Op, rows: &[Tuple]) -> Answer {
    Answer::Rows {
        digest: Digest::of(rows),
        ordered: w.order_column(op).is_none_or(|c| sorted_on(rows, c)),
    }
}

/// Whether `answer` is what the oracle says `op` must return; `Err`
/// carries the reason it is not.
pub fn check(w: &dyn Workload, op: &Op, answer: &Answer) -> Result<(), String> {
    match answer {
        Answer::Failed(e) => Err(e.clone()),
        Answer::Written => Ok(()),
        Answer::Rows { digest, ordered } => {
            let want = w.expected(op);
            if !ordered {
                Err("rows out of order".into())
            } else if *digest != want {
                Err(format!(
                    "wrong answer: {} rows, expected {}",
                    digest.rows, want.rows
                ))
            } else {
                Ok(())
            }
        }
    }
}

/// Count every table and compare with the rows loaded plus the inserts
/// acknowledged (`written` lists each acknowledged write). Workload
/// tables are counted through a session, the journal by a heap scan.
/// Returns one failure per mismatch.
pub fn check_row_counts<'a>(fx: &Fixture, written: impl Iterator<Item = &'a Op>) -> Vec<String> {
    let mut inserted: HashMap<TableId, usize> = HashMap::new();
    let mut journaled = 0;
    for op in written {
        match op {
            Op::Insert { table, .. } => *inserted.entry(*table).or_default() += 1,
            Op::Journal { .. } => journaled += 1,
            _ => {}
        }
    }
    let mut failures = Vec::new();
    for t in fx.workload.tables() {
        let want = t.loaded_rows + inserted.get(&t.id).copied().unwrap_or(0);
        let sql = format!("SELECT COUNT(*) FROM {}", t.name);
        match fx.sessions[0].query(&sql).map(|o| o.outcome.rows) {
            Ok(rows) if rows == [vec![Value::Int(want as i64)]] => {}
            Ok(rows) => failures.push(format!("{}: counted {rows:?}, expected {want}", t.name)),
            Err(e) => failures.push(format!("{}: {e}", t.name)),
        }
    }
    let journal_rows = fx.journal.db.table(fx.journal.table).scan_all().len();
    if journal_rows != journaled {
        failures.push(format!(
            "{}: counted {journal_rows}, expected {journaled}",
            Journal::NAME
        ));
    }
    failures
}

/// Operations attempted: `ops` plus the row-count checks, one per table
/// and one for the journal.
pub fn attempted(fx: &Fixture, ops: usize) -> usize {
    ops + fx.workload.tables().len() + 1
}

/// Nearest-rank percentile of an unsorted sample (`p` in `(0, 1]`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    s[((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What a run prints: the record line and the result line.
pub struct RunResult {
    pub record: Vec<(&'static str, String)>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn print(&self) {
        let record: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"record\":{{{}}}}}", record.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        );
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The configuration every result depends on, so that a changed default
/// shows in the record instead of silently moving the numbers.
pub fn base_record(args: &Args, fx: &Fixture) -> Vec<(&'static str, String)> {
    let w = fx.workload.as_ref();
    let db = w.server().db();
    let pages: Vec<String> = w
        .tables()
        .iter()
        .map(|t| format!("\"{}\":{}", t.name, db.table(t.id).num_pages()))
        .collect();
    vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc().to_string()),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("engine", json_str(fx.sessions[0].executor().label())),
        ("clients", w.clients().to_string()),
        ("parallel_degree", db.parallel_degree().to_string()),
        ("pool_pages", w.pool_pages().to_string()),
        ("data_pages", format!("{{{}}}", pages.join(","))),
    ]
}

/// Untraced run: the end-to-end metrics.
fn run_untraced(args: &Args) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(setup(&args.workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fixture.expect("at least one set-up");
    let w = fx.workload.as_ref();
    let clients = fx.sessions.len();
    let min_per_client = MIN_SAMPLES.div_ceil(clients);
    let deadline = Duration::from_secs(args.seconds);

    // Closed loop: each client sends its next operation when the last
    // one returns. A read-only mix gets a journal writer beside its
    // clients instead, inserting every `JOURNAL_PERIOD`; its inserts are
    // timed but are not mix operations.
    let start = Instant::now();
    let clients_done = AtomicUsize::new(0);
    // The window ends when the last client stops, not when the journal
    // writer notices.
    let window_ns = AtomicU64::new(0);
    let per_thread: Vec<Vec<(Op, f64, Answer)>> = std::thread::scope(|scope| {
        let mut handles: Vec<_> = fx
            .sessions
            .iter()
            .enumerate()
            .map(|(c, session)| {
                let (fx, clients_done, window_ns) = (&fx, &clients_done, &window_ns);
                scope.spawn(move || {
                    let mut rng = Rng::fork(args.seed, 100 + c as u64);
                    let (mut log, mut reads, mut writes) = (Vec::new(), 0, 0);
                    for i in 0.. {
                        let enough = reads >= min_per_client
                            && (writes >= min_per_client || !fx.workload.mix_writes());
                        if enough && start.elapsed() >= deadline {
                            break;
                        }
                        let mut op = fx.workload.next_op(i, &mut rng);
                        let t = Instant::now();
                        let a = run_op(fx, session, &mut op);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if op.is_write() {
                            writes += 1;
                        } else {
                            reads += 1;
                        }
                        log.push((op, ms, a));
                    }
                    window_ns.fetch_max(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    clients_done.fetch_add(1, Ordering::SeqCst);
                    log
                })
            })
            .collect();
        if !w.mix_writes() {
            let (fx, clients_done) = (&fx, &clients_done);
            handles.push(scope.spawn(move || {
                let mut rng = Rng::fork(args.seed, 200);
                let mut log = Vec::new();
                while clients_done.load(Ordering::SeqCst) < clients {
                    std::thread::sleep(JOURNAL_PERIOD);
                    for _ in 0..JOURNAL_BURST {
                        let mut op = fx.journal.op(&mut rng);
                        let t = Instant::now();
                        let a = write(fx, &mut op);
                        log.push((op, t.elapsed().as_secs_f64() * 1e3, a));
                    }
                }
                log
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread panicked outside an operation")
            })
            .collect()
    });
    let window_s = window_ns.into_inner() as f64 / 1e9;
    let log: Vec<(Op, f64, Answer)> = per_thread.into_iter().flatten().collect();

    let mut failures = Vec::new();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut completed = 0;
    for (op, ms, a) in &log {
        match check(w, op, a) {
            Err(e) => failures.push(e),
            Ok(()) if !matches!(op, Op::Journal { .. }) => completed += 1,
            Ok(()) => {}
        }
        if op.is_write() {
            writes.push(*ms);
        } else {
            reads.push(*ms);
        }
    }
    let written = log
        .iter()
        .filter(|(_, _, a)| matches!(a, Answer::Written))
        .map(|(op, _, _)| op);
    failures.extend(check_row_counts(&fx, written));
    let attempted = attempted(&fx, log.len());
    for f in failures.iter().take(5) {
        eprintln!("perfbench: failed: {f}");
    }

    let mut record = base_record(args, &fx);
    record.extend([
        ("read_samples", reads.len().to_string()),
        ("write_samples", writes.len().to_string()),
        ("window_s", json_num(window_s)),
        (
            "fail_ratio",
            json_num(failures.len() as f64 / attempted as f64),
        ),
        (
            "setup_runs_s",
            format!(
                "[{}]",
                setup_s
                    .iter()
                    .map(|s| json_num(*s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ]);
    Ok(RunResult {
        record,
        attempted,
        failures,
        metrics: vec![
            ("p50_ms", median(&reads), "ms"),
            ("p90_ms", percentile(&reads, 0.9), "ms"),
            ("qps", completed as f64 / window_s, "1/s"),
            ("write_p50_ms", median(&writes), "ms"),
            ("write_p90_ms", percentile(&writes, 0.9), "ms"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ],
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced::run(&args)
    } else {
        run_untraced(&args)
    };
    match report {
        Ok(r) => r.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
