//! Morsel-driven parallel execution benchmark.
//!
//! Measures how the batch engine scales with the optimizer-chosen
//! parallel degree on scan-heavy and join-heavy workloads. Each
//! workload is optimized once per degree in {1, 2, 4, 8} — at degree 1
//! the model has no gather enforcer and yields the serial plan (the
//! baseline); at higher degrees the winning plan must contain a
//! `gather(n)`, or the harness panics (the optimizer silently refusing
//! to parallelize would turn this into a serial-vs-serial measurement).
//!
//! The database sits on a [`LatencyDisk`]: every page read carries a
//! fixed simulated latency, and the buffer pool is deliberately smaller
//! than the tables so sequential scans miss continuously. That models
//! the regime parallel scans exist for — I/O-latency-bound plans where
//! workers overlap their reads (the buffer pool releases its lock
//! across misses precisely to allow this) — and keeps the measurement
//! meaningful on single-core CI runners, where a CPU-bound sweep would
//! show no scaling at all.
//!
//! Each workload is verified per degree: the parallel engine must
//! produce the serial plan's row multiset, or the harness panics.
//!
//! Usage:
//!   exec_parallel [--card N] [--reps R] [--latency-us U] [--smoke]
//!                 [--json PATH] [--no-json]
//!
//! `--smoke` shrinks cardinalities/latency and marks the export
//! `"smoke":true`, which exempts it from the ≥ 3.0× scaling gate
//! (debug-build CI runs are not representative).

use std::sync::Arc;
use std::time::{Duration, Instant};

use volcano_bench::run_plan;
use volcano_core::SearchOptions;
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{
    Catalog, ColumnDef, RelAlg, RelModel, RelModelOptions, RelOptimizer, RelPlan, RelProps,
};
use volcano_sql::plan_query;
use volcano_store::{DiskManager, LatencyDisk, MemDisk};

/// The degree sweep; the first entry must be 1 (the serial baseline).
const DEGREES: [u32; 4] = [1, 2, 4, 8];

/// Buffer-pool pages: smaller than every benchmarked table, so scans
/// miss continuously and pay the simulated read latency.
const POOL_PAGES: usize = 128;

struct Args {
    card: usize,
    reps: usize,
    latency_us: u64,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        card: 60_000,
        reps: 2,
        latency_us: 300,
        smoke: false,
        json: Some("BENCH_parallel.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--card" => args.card = it.next().expect("--card N").parse().expect("number"),
            "--reps" => args.reps = it.next().expect("--reps R").parse().expect("number"),
            "--latency-us" => {
                args.latency_us = it.next().expect("--latency-us U").parse().expect("number")
            }
            "--smoke" => {
                args.smoke = true;
                args.card = 4_000;
                args.reps = 1;
                args.latency_us = 50;
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

/// One benchmark workload: a catalog and a query whose parallel plans
/// the sweep measures.
struct Workload {
    name: &'static str,
    /// "scan" (scan→filter→project pipeline) or "join" (hash join).
    class: &'static str,
    catalog: Catalog,
    sql: String,
}

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
            ],
        );
        c
    };
    let join_catalog = || {
        let mut c = Catalog::new();
        c.add_table(
            "fact",
            card_f,
            vec![
                ColumnDef::int("k", card_f / 8.0),
                ColumnDef::int("v", 1000.0),
            ],
        );
        c.add_table(
            "dim",
            card_f / 8.0,
            vec![
                ColumnDef::int("id", card_f / 8.0),
                ColumnDef::int("r", 10.0),
            ],
        );
        c
    };
    vec![
        Workload {
            name: "scan_filter_project",
            class: "scan",
            catalog: scan_catalog(),
            sql: "SELECT t.a FROM t WHERE t.c < 30".to_string(),
        },
        Workload {
            name: "scan_project",
            class: "scan",
            catalog: scan_catalog(),
            sql: "SELECT t.a, t.b FROM t".to_string(),
        },
        Workload {
            name: "hash_join",
            class: "join",
            catalog: join_catalog(),
            sql: "SELECT fact.v, dim.r FROM fact, dim WHERE fact.k = dim.id".to_string(),
        },
    ]
}

fn has_gather(plan: &RelPlan) -> bool {
    matches!(plan.alg, RelAlg::Gather(_)) || plan.inputs.iter().any(has_gather)
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

struct DegreePoint {
    threads: u32,
    ms: f64,
    speedup: f64,
}

struct WorkloadResult {
    name: &'static str,
    class: &'static str,
    rows: usize,
    serial_ms: f64,
    points: Vec<DegreePoint>,
}

fn run_workload(w: &Workload, args: &Args) -> WorkloadResult {
    // Parse once: plan_query registers attributes in the catalog, and
    // the optimizer and database must share that catalog.
    let mut catalog = w.catalog.clone();
    let q = plan_query(&w.sql, &mut catalog).expect("workload query must parse");
    let optimize = |degree: u32| -> RelPlan {
        let model = RelModel::new(
            catalog.clone(),
            RelModelOptions::default().with_parallel_degree(degree),
        );
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&q.expr);
        opt.find_best_plan(root, RelProps::sorted(q.order_by.clone()), None)
            .expect("workload query must be satisfiable")
    };

    // I/O-latency-bound setup: simulated read latency under a pool too
    // small for the tables. The latency wrapper sleeps outside any
    // lock, so parallel workers genuinely overlap their misses.
    let disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(
        Arc::new(MemDisk::new()),
        Duration::from_micros(args.latency_us),
    ));
    let db = Database::with_disk(catalog.clone(), disk, POOL_PAGES);
    db.generate(42);

    let timed = |plan: &RelPlan| {
        let mut best = f64::INFINITY;
        for _ in 0..args.reps.max(1) {
            let t = Instant::now();
            std::hint::black_box(run_plan(&db, plan, Engine::Batch(BatchConfig::default())));
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e3
    };

    let serial_plan = optimize(1);
    assert!(
        !has_gather(&serial_plan),
        "{}: degree 1 produced a gather plan",
        w.name
    );
    let batch = Engine::Batch(BatchConfig::default());
    let expected = sorted_copy(&run_plan(&db, &serial_plan, batch));
    let serial_ms = timed(&serial_plan);

    let mut points = Vec::new();
    for degree in DEGREES {
        let plan = if degree == 1 {
            serial_plan.clone()
        } else {
            let plan = optimize(degree);
            assert!(
                has_gather(&plan),
                "{}: optimizer refused to parallelize at degree {degree}:\n{}",
                w.name,
                volcano_rel::explain_plan(&catalog, &plan)
            );
            // Correctness first: a speedup over a wrong answer is
            // worthless.
            let rows = sorted_copy(&run_plan(&db, &plan, batch));
            assert_eq!(
                rows, expected,
                "{}: parallel result diverges at degree {degree}",
                w.name
            );
            plan
        };
        let ms = timed(&plan);
        points.push(DegreePoint {
            threads: degree,
            ms,
            speedup: serial_ms / ms.max(1e-9),
        });
    }
    WorkloadResult {
        name: w.name,
        class: w.class,
        rows: expected.len(),
        serial_ms,
        points,
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!("morsel-driven parallel execution benchmark");
    println!(
        "card {}, best of {} reps, read latency {} us, pool {} pages{}\n",
        args.card,
        args.reps,
        args.latency_us,
        POOL_PAGES,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<22} {:>6} {:>9} {:>9}   threads: ms (speedup)",
        "workload", "class", "rows", "serial ms"
    );

    let mut results = Vec::new();
    for w in workloads(args.card) {
        let r = run_workload(&w, &args);
        let sweep: Vec<String> = r
            .points
            .iter()
            .map(|p| format!("{}: {:.1} ({:.2}x)", p.threads, p.ms, p.speedup))
            .collect();
        println!(
            "{:<22} {:>6} {:>9} {:>9.1}   {}",
            r.name,
            r.class,
            r.rows,
            r.serial_ms,
            sweep.join("  ")
        );
        results.push(r);
    }

    // Per-degree geomean across workloads; the 8-thread figure is the
    // gated headline.
    let mut scaling = Vec::new();
    for (i, &degree) in DEGREES.iter().enumerate() {
        let g = geomean(
            &results
                .iter()
                .map(|r| r.points[i].speedup)
                .collect::<Vec<_>>(),
        );
        scaling.push((degree, g));
    }
    let geomean_8 = scaling
        .iter()
        .find(|(d, _)| *d == 8)
        .map(|(_, g)| *g)
        .expect("degree 8 in sweep");
    println!(
        "\nscaling geomean: {}",
        scaling
            .iter()
            .map(|(d, g)| format!("{d} threads: {g:.2}x"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if let Some(path) = &args.json {
        let workloads_json: Vec<String> = results
            .iter()
            .map(|r| {
                let points: Vec<String> = r
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"threads\":{},\"ms\":{},\"speedup\":{}}}",
                            p.threads, p.ms, p.speedup
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"class\":\"{}\",\"rows\":{},",
                        "\"serial_ms\":{},\"threads\":[{}]}}"
                    ),
                    r.name,
                    r.class,
                    r.rows,
                    r.serial_ms,
                    points.join(",")
                )
            })
            .collect();
        let scaling_json: Vec<String> = scaling
            .iter()
            .map(|(d, g)| format!("{{\"threads\":{d},\"geomean_speedup\":{g}}}"))
            .collect();
        let json = format!(
            concat!(
                "{{\"benchmark\":\"exec_parallel\",\"card\":{},\"reps\":{},",
                "\"latency_us\":{},\"pool_pages\":{},\"smoke\":{},",
                "\"workloads\":[{}],\"scaling\":[{}],\"geomean_8\":{}}}\n"
            ),
            args.card,
            args.reps,
            args.latency_us,
            POOL_PAGES,
            args.smoke,
            workloads_json.join(","),
            scaling_json.join(","),
            geomean_8
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
