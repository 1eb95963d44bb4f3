//! Batch-vs-fused executor benchmark.
//!
//! Runs the same optimized physical plans through the vectorized batch
//! engine (`compile_batch`) and the pipeline-fused engine
//! (`compile_fused`) and reports per-workload wall time and
//! speedup. The workloads are the batch benchmark's headline shapes —
//! scan→filter→project pipelines and hash joins — because those are
//! exactly the segments the fused compiler turns into single compiled
//! loops: projected record decode skips unused columns at the page,
//! predicate conjuncts run through monomorphized kernels, and probe +
//! project fuse into one gather, with zero `next_batch` dispatch
//! between the plan's operators.
//!
//! Per repository convention the database sits on a [`LatencyDisk`]
//! behind an undersized buffer pool, so scans keep paying per-page
//! misses. The simulated latency defaults to zero: OS sleep granularity
//! makes any nonzero `thread::sleep` cost tens of microseconds per
//! page, which turns every workload I/O-bound and buries the CPU
//! comparison this benchmark is about (`--latency-us` remains available
//! for I/O-bound runs).
//!
//! The timed region compiles a plan for one engine and drives the
//! resulting operator tree batch-to-batch — the consumer interface both
//! engines share — counting delivered rows. Materializing client-side
//! row tuples is deliberately outside the loop: both engines pay that
//! identical per-row cost, and it measures the client, not the engine.
//!
//! Each workload is verified once per run: tuple, batch, and fused
//! engines must produce the same multiset of rows, or the harness
//! panics — a speedup over a wrong answer is worthless. Every timed
//! drive must also deliver exactly the verified row count.
//!
//! Usage:
//!   exec_fused [--card N] [--reps R] [--batch-size B] [--latency-us U]
//!              [--smoke] [--json PATH] [--no-json]
//!
//! `--smoke` shrinks cardinalities and marks the export `"smoke":true`,
//! which exempts it from the ≥ 1.25× geomean gate (debug-build CI runs
//! are not representative).

use std::sync::Arc;
use std::time::{Duration, Instant};

use volcano_bench::run_plan;
use volcano_core::SearchOptions;
use volcano_exec::{
    compile_batch, compile_fused, Batch, BatchConfig, BatchOperator, Database, Engine,
};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, RelModel, RelOptimizer, RelPlan, RelProps};
use volcano_sql::plan_query;
use volcano_store::{DiskManager, LatencyDisk, MemDisk};

/// Default buffer-pool pages: smaller than every benchmarked table, so
/// scans miss continuously and pay the simulated read latency.
const POOL_PAGES: usize = 128;

struct Args {
    card: usize,
    reps: usize,
    batch_size: usize,
    latency_us: u64,
    pool_pages: usize,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        card: 200_000,
        reps: 3,
        batch_size: 1024,
        latency_us: 0,
        pool_pages: POOL_PAGES,
        smoke: false,
        json: Some("BENCH_fused.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--card" => args.card = it.next().expect("--card N").parse().expect("number"),
            "--reps" => args.reps = it.next().expect("--reps R").parse().expect("number"),
            "--batch-size" => {
                args.batch_size = it.next().expect("--batch-size B").parse().expect("number")
            }
            "--latency-us" => {
                args.latency_us = it.next().expect("--latency-us U").parse().expect("number")
            }
            "--pool-pages" => {
                args.pool_pages = it.next().expect("--pool-pages P").parse().expect("number")
            }
            "--smoke" => {
                args.smoke = true;
                args.card = 5_000;
                args.reps = 1;
            }
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One benchmark workload: a catalog, a query, and the operator shape
/// the winning plan must contain (so a planner change cannot silently
/// turn a join benchmark into something else).
struct Workload {
    name: &'static str,
    class: &'static str,
    catalog: Catalog,
    sql: String,
    expect_op: &'static str,
}

/// The batch benchmark's headline shapes: all fully fusable, so the
/// measurement is fused-loop throughput vs per-operator batch dispatch.
fn workloads(card: usize) -> Vec<Workload> {
    let card_f = card as f64;
    let scan_catalog = || {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            card_f,
            vec![
                ColumnDef::int("a", card_f),
                ColumnDef::int("b", 1000.0),
                ColumnDef::int("c", 100.0),
                ColumnDef::int("d", 10.0),
            ],
        );
        c
    };
    let join_catalog = |dim_card: f64, key_distinct: f64| {
        let mut c = Catalog::new();
        c.add_table(
            "fact",
            card_f,
            vec![
                ColumnDef::int("k", key_distinct),
                ColumnDef::int("v", 1000.0),
            ],
        );
        c.add_table(
            "dim",
            dim_card,
            vec![ColumnDef::int("id", dim_card), ColumnDef::int("r", 10.0)],
        );
        c
    };
    vec![
        Workload {
            name: "scan_project",
            class: "headline",
            catalog: scan_catalog(),
            sql: "SELECT t.a, t.b FROM t".to_string(),
            expect_op: "scan",
        },
        Workload {
            name: "scan_filter_project",
            class: "headline",
            catalog: scan_catalog(),
            sql: "SELECT t.a FROM t WHERE t.c < 30".to_string(),
            expect_op: "scan",
        },
        Workload {
            name: "scan_filter_project_low",
            class: "headline",
            catalog: scan_catalog(),
            sql: "SELECT t.a FROM t WHERE t.c < 2".to_string(),
            expect_op: "scan",
        },
        Workload {
            name: "hash_join_small_build",
            class: "headline",
            catalog: join_catalog(100.0, 100.0),
            sql: "SELECT fact.v, dim.r FROM fact, dim WHERE fact.k = dim.id".to_string(),
            expect_op: "hash_join",
        },
        Workload {
            name: "hash_join_large_build",
            class: "headline",
            catalog: join_catalog(card_f / 4.0, card_f / 4.0),
            sql: "SELECT fact.v, dim.r FROM fact, dim WHERE fact.k = dim.id".to_string(),
            expect_op: "hash_join",
        },
    ]
}

struct WorkloadResult {
    name: &'static str,
    class: &'static str,
    rows: usize,
    batch_ms: f64,
    fused_ms: f64,
    speedup: f64,
}

fn optimize(catalog: &mut Catalog, sql: &str) -> RelPlan {
    let q = plan_query(sql, catalog).expect("workload query must parse");
    let model = RelModel::with_defaults(catalog.clone());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.expr);
    opt.find_best_plan(root, RelProps::sorted(q.order_by.clone()), None)
        .expect("workload query must be satisfiable")
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

/// Run an engine's operator tree to exhaustion, returning delivered
/// rows. This is the timed engine loop: batches are consumed in place,
/// never converted to client row tuples.
fn drive(op: &mut dyn BatchOperator) -> u64 {
    let mut batch = Batch::default();
    let mut rows = 0u64;
    op.open();
    while op.next_batch(&mut batch) {
        rows += batch.live_rows() as u64;
        std::hint::black_box(&mut batch);
    }
    op.close();
    rows
}

fn run_workload(w: &Workload, args: &Args, cfg: BatchConfig) -> WorkloadResult {
    let mut catalog = w.catalog.clone();
    let plan = optimize(&mut catalog, &w.sql);
    let explained = volcano_rel::explain_plan(&catalog, &plan);
    assert!(
        explained.contains(w.expect_op),
        "{}: winning plan lost its {} (plan drift?):\n{}",
        w.name,
        w.expect_op,
        explained
    );
    let disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(
        Arc::new(MemDisk::new()),
        Duration::from_micros(args.latency_us),
    ));
    let db = Database::with_disk(catalog, disk, args.pool_pages);
    db.generate(42);

    // Correctness first: all three engines must agree before any timing.
    let tuple_rows = run_plan(&db, &plan, Engine::Tuple);
    let batch_rows = run_plan(&db, &plan, Engine::Batch(cfg));
    let fused_rows = run_plan(&db, &plan, Engine::Fused(cfg));
    assert_eq!(
        sorted_copy(&tuple_rows),
        sorted_copy(&batch_rows),
        "{}: tuple and batch engines disagree",
        w.name
    );
    assert_eq!(
        sorted_copy(&tuple_rows),
        sorted_copy(&fused_rows),
        "{}: tuple and fused engines disagree",
        w.name
    );
    let rows = tuple_rows.len();
    drop((tuple_rows, batch_rows, fused_rows));

    let mut batch_best = f64::INFINITY;
    let mut fused_best = f64::INFINITY;
    for _ in 0..args.reps.max(1) {
        let t = Instant::now();
        let mut compiled = compile_batch(&db, &plan, cfg);
        let delivered = drive(compiled.operator.as_mut());
        batch_best = batch_best.min(t.elapsed().as_secs_f64());
        assert_eq!(delivered, rows as u64, "{}: batch drive lost rows", w.name);
        let t = Instant::now();
        let mut compiled = compile_fused(&db, &plan, cfg);
        let delivered = drive(compiled.operator.as_mut());
        fused_best = fused_best.min(t.elapsed().as_secs_f64());
        assert_eq!(delivered, rows as u64, "{}: fused drive lost rows", w.name);
    }
    let batch_ms = batch_best * 1e3;
    let fused_ms = fused_best * 1e3;
    WorkloadResult {
        name: w.name,
        class: w.class,
        rows,
        batch_ms,
        fused_ms,
        speedup: batch_ms / fused_ms.max(1e-9),
    }
}

fn results_json(results: &[WorkloadResult]) -> String {
    let items: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"class\":\"{}\",\"rows\":{},",
                    "\"batch_ms\":{},\"fused_ms\":{},\"speedup\":{}}}"
                ),
                r.name, r.class, r.rows, r.batch_ms, r.fused_ms, r.speedup
            )
        })
        .collect();
    items.join(",")
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let cfg = BatchConfig::with_batch_size(args.batch_size);
    println!("batch-vs-fused executor benchmark");
    println!(
        "card {}, best of {} reps, batch size {}, latency {}us, pool {} pages{}\n",
        args.card,
        args.reps,
        args.batch_size,
        args.latency_us,
        args.pool_pages,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "workload", "class", "rows", "batch ms", "fused ms", "speedup"
    );

    let mut results = Vec::new();
    for w in workloads(args.card) {
        let r = run_workload(&w, &args, cfg);
        println!(
            "{:<26} {:>8} {:>10} {:>10.2} {:>10.2} {:>8.2}x",
            r.name, r.class, r.rows, r.batch_ms, r.fused_ms, r.speedup
        );
        results.push(r);
    }

    let g = geomean(&results.iter().map(|r| r.speedup).collect::<Vec<_>>());
    println!("\nheadline geomean speedup: {g:.2}x (fused over batch)");

    if let Some(path) = &args.json {
        let json = format!(
            concat!(
                "{{\"benchmark\":\"exec_fused\",\"card\":{},\"reps\":{},",
                "\"batch_size\":{},\"latency_us\":{},\"pool_pages\":{},",
                "\"smoke\":{},\"workloads\":[{}],\"geomean_speedup\":{}}}\n"
            ),
            args.card,
            args.reps,
            args.batch_size,
            args.latency_us,
            args.pool_pages,
            args.smoke,
            results_json(&results),
            g
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
