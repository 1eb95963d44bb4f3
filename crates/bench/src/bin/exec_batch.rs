//! Tuple-vs-batch executor benchmark.
//!
//! Runs the same optimized physical plans through the tuple-at-a-time
//! engine (`Engine::Tuple`) and the vectorized batch engine
//! (`Engine::Batch`), both through `Database::run`, and reports per-workload wall time and
//! speedup. Workloads fall in two classes:
//!
//! * **headline** — scan→filter→project pipelines and hash joins, the
//!   operator shapes the batch engine vectorizes end to end. Their
//!   speedups form the headline geometric mean, which CI gates at
//!   ≥ 2.0× (see `check_schema`).
//! * **adapter** — sort- and aggregate-rooted plans, which execute the
//!   root tuple-at-a-time behind batch↔tuple adapters. Reported
//!   separately and excluded from the headline geomean; they measure
//!   adapter overhead, not kernel wins.
//!
//! Each workload is verified once per run: both engines must produce
//! the same multiset of rows, or the harness panics — a speedup over a
//! wrong answer is worthless.
//!
//! Usage:
//!   exec_batch [--card N] [--reps R] [--batch-size B] [--smoke]
//!              [--json PATH] [--no-json] [--baseline PATH]
//!
//! `--smoke` shrinks cardinalities and marks the export `"smoke":true`,
//! which exempts it from the ≥ 2.0× gate (debug-build CI runs are not
//! representative). `--baseline` (a previous `BENCH_exec.json`) adds a
//! `vs_baseline` drift block to the export.

use std::time::Instant;

use volcano_bench::{parse_json, run_plan, Json};
use volcano_core::SearchOptions;
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, RelModel, RelOptimizer, RelPlan, RelProps};
use volcano_sql::plan_query;

struct Args {
    card: usize,
    reps: usize,
    batch_size: usize,
    smoke: bool,
    json: Option<String>,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        card: 200_000,
        reps: 3,
        batch_size: 1024,
        smoke: false,
        json: Some("BENCH_exec.json".to_string()),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--card" => args.card = it.next().expect("--card N").parse().expect("number"),
            "--reps" => args.reps = it.next().expect("--reps R").parse().expect("number"),
            "--batch-size" => {
                args.batch_size = it.next().expect("--batch-size B").parse().expect("number")
            }
            "--smoke" => {
                args.smoke = true;
                args.card = 5_000;
                args.reps = 1;
            }
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            "--baseline" => args.baseline = Some(it.next().expect("--baseline PATH")),
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
    /// "headline" (vectorized end to end, gated) or "adapter".
    class: &'static str,
    catalog: Catalog,
    sql: String,
    expect_op: &'static str,
}

/// All-integer catalogs: decode cost is small, so the measured delta is
/// iterator overhead vs kernel throughput — the quantity under test.
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
        Workload {
            name: "sort",
            class: "adapter",
            catalog: scan_catalog(),
            sql: "SELECT t.b FROM t WHERE t.c < 30 ORDER BY t.b".to_string(),
            expect_op: "sort",
        },
        Workload {
            name: "aggregate",
            class: "adapter",
            catalog: scan_catalog(),
            sql: "SELECT t.d, COUNT(*) FROM t GROUP BY t.d".to_string(),
            expect_op: "aggregate",
        },
    ]
}

struct WorkloadResult {
    name: &'static str,
    class: &'static str,
    rows: usize,
    tuple_ms: f64,
    batch_ms: f64,
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

fn run_workload(w: &Workload, reps: usize, cfg: BatchConfig) -> WorkloadResult {
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
    let db = Database::in_memory(catalog);
    db.generate(42);

    // Correctness first: a speedup over a wrong answer is worthless.
    let tuple_rows = run_plan(&db, &plan, Engine::Tuple);
    let batch_rows = run_plan(&db, &plan, Engine::Batch(cfg));
    assert_eq!(
        sorted_copy(&tuple_rows),
        sorted_copy(&batch_rows),
        "{}: engines disagree on the result multiset",
        w.name
    );
    let rows = tuple_rows.len();
    drop((tuple_rows, batch_rows));

    let mut tuple_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(run_plan(&db, &plan, Engine::Tuple));
        tuple_best = tuple_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(run_plan(&db, &plan, Engine::Batch(cfg)));
        batch_best = batch_best.min(t.elapsed().as_secs_f64());
    }
    let tuple_ms = tuple_best * 1e3;
    let batch_ms = batch_best * 1e3;
    WorkloadResult {
        name: w.name,
        class: w.class,
        rows,
        tuple_ms,
        batch_ms,
        speedup: tuple_ms / batch_ms.max(1e-9),
    }
}

fn baseline_geomean(path: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v = parse_json(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
    v.get("geomean_speedup")
        .and_then(Json::as_num)
        .expect("baseline missing geomean_speedup")
}

fn results_json(results: &[&WorkloadResult]) -> String {
    let items: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"class\":\"{}\",\"rows\":{},",
                    "\"tuple_ms\":{},\"batch_ms\":{},\"speedup\":{}}}"
                ),
                r.name, r.class, r.rows, r.tuple_ms, r.batch_ms, r.speedup
            )
        })
        .collect();
    items.join(",")
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let cfg = BatchConfig::with_batch_size(args.batch_size);
    println!("tuple-vs-batch executor benchmark");
    println!(
        "card {}, best of {} reps, batch size {}{}\n",
        args.card,
        args.reps,
        args.batch_size,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "workload", "class", "rows", "tuple ms", "batch ms", "speedup"
    );

    let mut results = Vec::new();
    for w in workloads(args.card) {
        let r = run_workload(&w, args.reps, cfg);
        println!(
            "{:<26} {:>8} {:>10} {:>10.2} {:>10.2} {:>8.2}x",
            r.name, r.class, r.rows, r.tuple_ms, r.batch_ms, r.speedup
        );
        results.push(r);
    }

    let headline: Vec<&WorkloadResult> = results.iter().filter(|r| r.class == "headline").collect();
    let adapter: Vec<&WorkloadResult> = results.iter().filter(|r| r.class == "adapter").collect();
    let g = geomean(&headline.iter().map(|r| r.speedup).collect::<Vec<_>>());
    println!("\nheadline geomean speedup: {g:.2}x (adapter workloads excluded)");

    let vs_baseline = args.baseline.as_deref().map(|path| {
        let b = baseline_geomean(path);
        println!("baseline geomean ({path}): {b:.2}x, ratio {:.2}", g / b);
        (b, g / b)
    });

    if let Some(path) = &args.json {
        let vs = match vs_baseline {
            None => String::new(),
            Some((b, ratio)) => {
                format!(",\"vs_baseline\":{{\"baseline_geomean\":{b},\"ratio\":{ratio}}}")
            }
        };
        let json = format!(
            concat!(
                "{{\"benchmark\":\"exec_batch\",\"card\":{},\"reps\":{},",
                "\"batch_size\":{},\"smoke\":{},\"workloads\":[{}],",
                "\"adapter_workloads\":[{}],\"geomean_speedup\":{}{}}}\n"
            ),
            args.card,
            args.reps,
            args.batch_size,
            args.smoke,
            results_json(&headline),
            results_json(&adapter),
            g,
            vs
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
