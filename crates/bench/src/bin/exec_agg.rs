//! Serial-vs-parallel aggregation benchmark.
//!
//! Measures the combined win of the two aggregation tentpoles: the
//! batch-native vectorized aggregation kernels and the two-phase
//! parallel split (`FinalHashAggregate ← Gather(8) ←
//! PartialHashAggregate`). Each workload is optimized twice from the
//! same catalog — once under a serial model (degree 1, the plan the
//! tuple engine runs as the baseline) and once at parallel degree 8,
//! where every grouped workload's winning plan must split the aggregate
//! into per-worker partials below the gather, or the harness panics
//! (the optimizer silently keeping a one-shot aggregate would turn
//! this into a serial-vs-serial measurement).
//!
//! Reported per workload: the serial tuple engine (baseline), the
//! serial batch engine (the vectorization-only delta), and the
//! two-phase batch engine at degree 8 (the headline). The gated figure
//! is `tuple_ms / parallel_ms` — CI requires a ≥ 2.0× geometric mean
//! on full (non-smoke) runs via `check_schema`.
//!
//! Every workload is verified per engine: all-integer columns make
//! SUM/AVG exact, so the row multisets must be *identical* between the
//! serial and two-phase plans — a speedup over a wrong answer is
//! worthless.
//!
//! Usage:
//!   exec_agg [--card N] [--reps R] [--batch-size B] [--smoke]
//!            [--json PATH] [--no-json] [--baseline PATH]
//!
//! `--smoke` shrinks cardinalities and marks the export `"smoke":true`,
//! which exempts it from the ≥ 2.0× gate (debug-build CI runs are not
//! representative). `--baseline` (a previous `BENCH_agg.json`) adds a
//! `vs_baseline` drift block to the export.

use std::time::Instant;

use volcano_bench::{parse_json, run_plan, Json};
use volcano_core::SearchOptions;
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{
    Catalog, ColumnDef, RelAlg, RelModel, RelModelOptions, RelOptimizer, RelPlan, RelProps,
};
use volcano_sql::plan_query;

/// The parallel degree of the headline measurement.
const DEGREE: u32 = 8;

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
        card: 400_000,
        reps: 3,
        batch_size: 1024,
        smoke: false,
        json: Some("BENCH_agg.json".to_string()),
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

/// One benchmark workload: a catalog and an aggregate query.
struct Workload {
    name: &'static str,
    /// "grouped" (two-phase split required at degree 8) or "total"
    /// (grand totals may stay single-phase above the gather).
    class: &'static str,
    catalog: Catalog,
    sql: String,
}

/// All-integer catalogs: SUM/AVG accumulate exactly, so the serial and
/// two-phase results must be identical, and the measured delta is
/// dispatch overhead vs kernel throughput — the quantity under test.
fn workloads(card: usize) -> Vec<Workload> {
    let card_f = card as f64;
    let sales = |cust_distinct: f64| {
        let mut c = Catalog::new();
        c.add_table(
            "sales",
            card_f,
            vec![
                ColumnDef::int("cust", cust_distinct),
                ColumnDef::int("amount", 10_000.0),
            ],
        );
        c
    };
    vec![
        Workload {
            name: "grouped_sum_low_card",
            class: "grouped",
            catalog: sales(100.0),
            sql: "SELECT cust, SUM(amount) FROM sales GROUP BY cust".to_string(),
        },
        Workload {
            name: "grouped_multi_agg",
            class: "grouped",
            catalog: sales(100.0),
            sql: "SELECT cust, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) \
                  FROM sales GROUP BY cust"
                .to_string(),
        },
        // Mid cardinality: enough groups that the final merge does real
        // work, few enough that per-worker partials still collapse the
        // stream (at very high cardinality the cost model correctly
        // keeps a one-shot aggregate above the gather instead).
        Workload {
            name: "grouped_sum_mid_card",
            class: "grouped",
            catalog: sales(card_f / 200.0),
            sql: "SELECT cust, SUM(amount) FROM sales GROUP BY cust".to_string(),
        },
        Workload {
            name: "grand_total",
            class: "total",
            catalog: sales(100.0),
            sql: "SELECT COUNT(*), SUM(amount), AVG(amount) FROM sales".to_string(),
        },
    ]
}

fn has_gather(plan: &RelPlan) -> bool {
    matches!(plan.alg, RelAlg::Gather(_)) || plan.inputs.iter().any(has_gather)
}

/// A final merge above a gather above a per-worker partial aggregation.
fn is_two_phase(plan: &RelPlan) -> bool {
    fn split_gather(p: &RelPlan) -> bool {
        if let RelAlg::Gather(_) = p.alg {
            return matches!(p.inputs[0].alg, RelAlg::PartialHashAggregate(..));
        }
        p.inputs.iter().any(split_gather)
    }
    split_gather(plan)
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

struct WorkloadResult {
    name: &'static str,
    class: &'static str,
    rows: usize,
    tuple_ms: f64,
    batch_serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

fn run_workload(w: &Workload, args: &Args, cfg: BatchConfig) -> WorkloadResult {
    // Parse once: plan_query registers attributes in the catalog, and
    // both models and the database must share that catalog.
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
    let serial_plan = optimize(1);
    assert!(
        !has_gather(&serial_plan),
        "{}: degree 1 produced a gather plan",
        w.name
    );
    let parallel_plan = optimize(DEGREE);
    if w.class == "grouped" {
        assert!(
            is_two_phase(&parallel_plan),
            "{}: optimizer refused the two-phase split at degree {DEGREE}:\n{}",
            w.name,
            volcano_rel::explain_plan(&catalog, &parallel_plan)
        );
    }

    let db = Database::in_memory(catalog);
    db.generate(42);

    // Correctness first: integer columns make even SUM/AVG exact, so
    // the serial and two-phase multisets must match bit for bit.
    let expected = sorted_copy(&run_plan(&db, &serial_plan, Engine::Tuple));
    for (tag, plan, engine) in [
        ("serial batch", &serial_plan, Engine::Batch(cfg)),
        ("parallel batch", &parallel_plan, Engine::Batch(cfg)),
        ("parallel fused", &parallel_plan, Engine::Fused(cfg)),
    ] {
        assert_eq!(
            expected,
            sorted_copy(&run_plan(&db, plan, engine)),
            "{}: {tag} diverges from the serial tuple result",
            w.name
        );
    }

    let mut tuple_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    let mut parallel_best = f64::INFINITY;
    for _ in 0..args.reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(run_plan(&db, &serial_plan, Engine::Tuple));
        tuple_best = tuple_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(run_plan(&db, &serial_plan, Engine::Batch(cfg)));
        batch_best = batch_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(run_plan(&db, &parallel_plan, Engine::Batch(cfg)));
        parallel_best = parallel_best.min(t.elapsed().as_secs_f64());
    }
    let tuple_ms = tuple_best * 1e3;
    let parallel_ms = parallel_best * 1e3;
    WorkloadResult {
        name: w.name,
        class: w.class,
        rows: expected.len(),
        tuple_ms,
        batch_serial_ms: batch_best * 1e3,
        parallel_ms,
        speedup: tuple_ms / parallel_ms.max(1e-9),
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

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let cfg = BatchConfig::with_batch_size(args.batch_size);
    println!("serial-vs-parallel aggregation benchmark");
    println!(
        "card {}, best of {} reps, batch size {}, degree {DEGREE}{}\n",
        args.card,
        args.reps,
        args.batch_size,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<24} {:>8} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "workload", "class", "groups", "tuple ms", "batch@1 ms", "batch@8 ms", "speedup"
    );

    let mut results = Vec::new();
    for w in workloads(args.card) {
        let r = run_workload(&w, &args, cfg);
        println!(
            "{:<24} {:>8} {:>8} {:>10.2} {:>12.2} {:>12.2} {:>8.2}x",
            r.name, r.class, r.rows, r.tuple_ms, r.batch_serial_ms, r.parallel_ms, r.speedup
        );
        results.push(r);
    }

    let g = geomean(&results.iter().map(|r| r.speedup).collect::<Vec<_>>());
    println!("\ngeomean speedup (two-phase batch @{DEGREE} vs serial tuple): {g:.2}x");

    let vs_baseline = args.baseline.as_deref().map(|path| {
        let b = baseline_geomean(path);
        println!("baseline geomean ({path}): {b:.2}x, ratio {:.2}", g / b);
        (b, g / b)
    });

    if let Some(path) = &args.json {
        let items: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"class\":\"{}\",\"rows\":{},",
                        "\"tuple_ms\":{},\"batch_serial_ms\":{},",
                        "\"parallel_ms\":{},\"speedup\":{}}}"
                    ),
                    r.name,
                    r.class,
                    r.rows,
                    r.tuple_ms,
                    r.batch_serial_ms,
                    r.parallel_ms,
                    r.speedup
                )
            })
            .collect();
        let vs = match vs_baseline {
            None => String::new(),
            Some((b, ratio)) => {
                format!(",\"vs_baseline\":{{\"baseline_geomean\":{b},\"ratio\":{ratio}}}")
            }
        };
        let json = format!(
            concat!(
                "{{\"benchmark\":\"exec_agg\",\"card\":{},\"reps\":{},",
                "\"batch_size\":{},\"degree\":{},\"smoke\":{},",
                "\"workloads\":[{}],\"geomean_speedup\":{}{}}}\n"
            ),
            args.card,
            args.reps,
            args.batch_size,
            DEGREE,
            args.smoke,
            items.join(","),
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
