//! The traced run: the workload's operations replayed from one thread,
//! each first through the replica (a span at every layer boundary) and
//! then through its session, untraced, for the row comparison and the
//! tracing overhead. One thread makes every count repeat exactly for a
//! seed.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::common::{Op, Rng};
use crate::trace::{insert, ReadTrace, Replica, Tracer};
use crate::{
    answer, attempted, base_record, check, check_row_counts, json_num, json_str, median, run_op,
    server_config, setup, Answer, Args, Fixture, RunResult, JOURNAL_BURST, JOURNAL_PERIOD,
};

/// Count metrics come from this many leading operations, which every
/// traced run completes, so they repeat exactly for a seed.
const COUNT_PREFIX: usize = 50;

struct TracedOp {
    op: Op,
    /// Index of the operation's root span.
    root: usize,
    /// The replica's observation of a read; `None` for a write.
    replica: Result<Option<ReadTrace>, String>,
    /// The session's answer and latency (reads only).
    session: Option<(Answer, f64)>,
    disk_writes: u64,
}

fn trace_op(
    fx: &Fixture,
    replica: &Replica<'_>,
    tr: &mut Tracer,
    client: usize,
    op: Op,
    index: u32,
) -> TracedOp {
    let w = fx.workload.as_ref();
    let db = match op {
        Op::Journal { .. } => &fx.journal.db,
        _ => w.server().db(),
    };
    let writes_before = db.io_stats().1;
    let root = tr.begin_op(index);
    let replica_result = catch_unwind(AssertUnwindSafe(|| match &op {
        Op::Insert { table, row } => {
            insert(tr, db, *table, row.clone());
            Ok(None)
        }
        Op::Journal { row } => {
            insert(tr, db, fx.journal.table, row.clone());
            Ok(None)
        }
        _ => replica.read(tr, &op).map(Some),
    }))
    .unwrap_or_else(|_| Err("the replica panicked".into()));
    tr.end(root);
    let disk_writes = db.io_stats().1 - writes_before;
    let session = (!op.is_write()).then(|| {
        let t = Instant::now();
        let a = run_op(fx, &fx.sessions[client], &mut op.clone());
        (a, t.elapsed().as_secs_f64() * 1e3)
    });
    TracedOp {
        op,
        root,
        replica: replica_result,
        session,
        disk_writes,
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let t = Instant::now();
    let fx = setup(&args.workload, args.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let w = fx.workload.as_ref();
    let replica = Replica::new(
        w.server(),
        &server_config(),
        &fx.sessions[0],
        w.statements(),
    )?;
    // Warm the replica's own plan cache as set-up warmed the sessions';
    // those spans are discarded.
    let mut discarded = Tracer::new();
    for op in w.warmup() {
        replica.read(&mut discarded, &op)?;
    }

    let clients = fx.sessions.len();
    let mut rngs: Vec<Rng> = (0..clients)
        .map(|c| Rng::fork(args.seed, 100 + c as u64))
        .collect();
    let mut journal_rng = Rng::fork(args.seed, 200);
    let mut next = vec![0u64; clients];
    let mut tr = Tracer::new();
    let mut log: Vec<TracedOp> = Vec::new();
    let mut reads = 0;
    let evictions_before = replica.cache.stats().evictions;
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // The clients' operation streams, interleaved round-robin. A
    // read-only mix writes a burst of journal inserts after a read once
    // per journal period, as its journal writer does beside the clients
    // in untraced runs.
    let mut last_burst = start;
    while reads < COUNT_PREFIX || start.elapsed() < deadline {
        let c = next.iter().sum::<u64>() as usize % clients;
        let op = w.next_op(next[c], &mut rngs[c]);
        next[c] += 1;
        let mut burst = 0;
        if !w.mix_writes() && last_burst.elapsed() >= JOURNAL_PERIOD {
            last_burst = Instant::now();
            burst = JOURNAL_BURST;
        }
        let journal: Vec<Op> = (0..burst)
            .map(|_| fx.journal.op(&mut journal_rng))
            .collect();
        for op in std::iter::once(op).chain(journal) {
            reads += usize::from(!op.is_write());
            let index = log.len() as u32;
            log.push(trace_op(&fx, &replica, &mut tr, c, op, index));
        }
    }
    let evictions = replica.cache.stats().evictions - evictions_before;

    // Self time per (operation, layer); the self-check that an
    // operation's layers never add up to more than its wall time.
    let self_ns = tr.self_times();
    let mut failures = Vec::new();
    let mut layers: Vec<HashMap<&'static str, u64>> = Vec::with_capacity(log.len());
    for (i, t) in log.iter().enumerate() {
        let end = log.get(i + 1).map_or(tr.spans.len(), |n| n.root);
        let mut per_layer: HashMap<&'static str, u64> = HashMap::new();
        let inner = t.root + 1..end;
        for (s, ns) in tr.spans[inner.clone()].iter().zip(&self_ns[inner]) {
            *per_layer.entry(s.name).or_default() += ns;
        }
        let root = &tr.spans[t.root];
        if per_layer.values().sum::<u64>() > root.end - root.start {
            failures.push(format!("op {i}: layer self times exceed its wall time"));
        }
        layers.push(per_layer);
    }

    // Answers: the replica's rows must equal the session's, and both the
    // oracle's.
    for t in &log {
        match (&t.replica, &t.session) {
            (Err(e), _) => failures.push(format!("replica: {e}")),
            (Ok(None), _) => {}
            (Ok(Some(r)), Some((session, _))) => {
                let mine = answer(w, &t.op, &r.rows);
                let verdict = check(w, &t.op, session)
                    .and_then(|()| check(w, &t.op, &mine))
                    .and_then(|()| match (&mine, session) {
                        (Answer::Rows { digest: a, .. }, Answer::Rows { digest: b, .. })
                            if a == b =>
                        {
                            Ok(())
                        }
                        _ => Err("replica rows differ from the session's".into()),
                    });
                if let Err(e) = verdict {
                    failures.push(e);
                }
            }
            (Ok(Some(_)), None) => unreachable!("every read also runs through its session"),
        }
    }
    let written = log
        .iter()
        .filter(|t| matches!(t.replica, Ok(None)))
        .map(|t| &t.op);
    failures.extend(check_row_counts(&fx, written));
    for f in failures.iter().take(5) {
        eprintln!("perfbench: failed: {f}");
    }

    let path = PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // Reads the replica completed, with their per-layer self times.
    let reads: Vec<(usize, &ReadTrace)> = log
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match &t.replica {
            Ok(Some(r)) => Some((i, r)),
            _ => None,
        })
        .collect();
    let prefix: Vec<&ReadTrace> = reads.iter().take(COUNT_PREFIX).map(|(_, r)| *r).collect();
    let layer = |name: &str, unit: f64| -> f64 {
        let xs: Vec<f64> = layers
            .iter()
            .zip(&log)
            .filter_map(|(l, t)| l.get(name).filter(|_| t.replica.is_ok()))
            .map(|&ns| ns as f64 / unit)
            .collect();
        median(&xs)
    };
    let ratio = |hits: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            hits as f64 / of as f64
        }
    };
    let searched = |f: &dyn Fn(&volcano_core::SearchStats) -> f64| -> f64 {
        let xs: Vec<f64> = prefix
            .iter()
            .filter_map(|r| r.search.as_ref())
            .map(f)
            .collect();
        median(&xs)
    };
    let (pool_hits, pool_misses) = prefix
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.pool.0, m + r.pool.1));
    let wall = |i: usize| {
        let s = &log[i];
        (tr.spans[s.root].end - tr.spans[s.root].start) as f64 / 1e6
    };
    let traced_p50 = median(&reads.iter().map(|(i, _)| wall(*i)).collect::<Vec<_>>());
    let session_p50 = median(
        &log.iter()
            .filter_map(|t| t.session.as_ref().map(|s| s.1))
            .collect::<Vec<_>>(),
    );
    let (us, ms) = (1e3, 1e6);

    let n = reads.len();
    let attempted = attempted(&fx, log.len());
    let mut record = base_record(args, &fx);
    record.extend([
        ("setup_s", json_num(setup_s)),
        ("ops", log.len().to_string()),
        ("reads", n.to_string()),
        ("count_prefix", COUNT_PREFIX.to_string()),
        ("traced_p50_ms", json_num(traced_p50)),
        ("session_p50_ms", json_num(session_p50)),
        ("spans", tr.spans.len().to_string()),
        ("spans_file", json_str(&path.display().to_string())),
        (
            "fail_ratio",
            json_num(failures.len() as f64 / attempted as f64),
        ),
    ]);
    Ok(RunResult {
        record,
        attempted,
        failures,
        metrics: vec![
            ("serve.admit_us", layer("serve.admit", us), "us"),
            (
                "serve.degraded_ratio",
                ratio(reads.iter().filter(|(_, r)| r.degraded).count(), n),
                "ratio",
            ),
            ("sql.parse_us", layer("sql.parse", us), "us"),
            ("sql.parameterize_us", layer("sql.parameterize", us), "us"),
            ("sql.lower_us", layer("sql.lower", us), "us"),
            ("plan_cache.probe_us", layer("plan_cache.probe", us), "us"),
            (
                "plan_cache.stale_ratio",
                ratio(reads.iter().filter(|(_, r)| r.stale).count(), n),
                "ratio",
            ),
            (
                "plan_cache.hit_ratio",
                ratio(reads.iter().filter(|(_, r)| r.hit).count(), n),
                "ratio",
            ),
            ("plan_cache.evictions", evictions as f64, "count"),
            ("core.search_ms", layer("core.search", ms), "ms"),
            (
                "core.exprs_created",
                searched(&|s| s.exprs_created as f64),
                "count",
            ),
            (
                "core.goals_optimized",
                searched(&|s| s.goals_optimized as f64),
                "count",
            ),
            (
                "core.moves_pruned",
                searched(&|s| s.moves_pruned as f64),
                "count",
            ),
            (
                "core.memo_kb",
                searched(&|s| s.memo_bytes as f64 / 1024.0),
                "KiB",
            ),
            (
                "core.est_cost_ms",
                median(&prefix.iter().map(|r| r.est_cost_ms).collect::<Vec<_>>()),
                "ms",
            ),
            ("compile.compile_us", layer("compile.compile", us), "us"),
            ("exec.execute_ms", layer("exec.execute", ms), "ms"),
            (
                "exec.rows_out",
                median(
                    &prefix
                        .iter()
                        .map(|r| r.rows.len() as f64)
                        .collect::<Vec<_>>(),
                ),
                "count",
            ),
            (
                "store.pages_per_op",
                mean(prefix.iter().map(|r| (r.pool.0 + r.pool.1) as f64)),
                "count",
            ),
            (
                "store.misses_per_op",
                mean(prefix.iter().map(|r| r.pool.1 as f64)),
                "count",
            ),
            (
                "store.evictions_per_op",
                mean(prefix.iter().map(|r| r.pool.2 as f64)),
                "count",
            ),
            (
                "store.hit_ratio",
                ratio(pool_hits as usize, (pool_hits + pool_misses) as usize),
                "ratio",
            ),
            ("store.insert_us", layer("store.insert", us), "us"),
            (
                "store.disk_writes_per_op",
                mean(log.iter().map(|t| t.disk_writes as f64)),
                "count",
            ),
            ("trace.overhead_ms", traced_p50 - session_p50, "ms"),
        ],
    })
}
