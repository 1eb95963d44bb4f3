//! The one execution path, differentially: every golden SQL query runs
//! through `Database::run` on every engine, analyzed or not, harvesting
//! feedback or not, as a physical plan and as a prepared statement, and
//! must return exactly the multiset the naive logical evaluator returns.
//!
//! The same runs pin the trace contract of the path: one
//! `PlanCacheLookup` per prepared execution, one `FeedbackApplied` per
//! harvest, and one `MorselPhase` per morsel-parallel gather region —
//! none for the regions an instrumented run executes serially.

mod common;

use common::testkit::{diff_catalog, optimize_plan, sorted_copy, SQL_QUERIES};
use volcano_core::trace::{CollectingTracer, TraceEvent};
use volcano_exec::{
    compile_batch, compile_fused, evaluate_logical, schema_of, Analysis, BatchConfig, Database,
    Engine, ExecOptions, Query,
};
use volcano_rel::value::Tuple;
use volcano_rel::{RelModel, RelModelOptions, RelPlan, RelProps};
use volcano_sql::plan_query;

/// Gather regions a plain run of `plan` executes on the morsel executor.
fn parallel_regions(db: &Database, plan: &RelPlan, engine: Engine) -> usize {
    match engine {
        Engine::Tuple => 0,
        Engine::Batch(cfg) => compile_batch(db, plan, cfg).gathers.len(),
        Engine::Fused(cfg) => compile_fused(db, plan, cfg).gathers.len(),
    }
}

#[test]
fn every_option_combination_matches_the_naive_evaluator() {
    let cfg = BatchConfig::default();
    let combos: Vec<(Engine, bool, bool)> = [Engine::Tuple, Engine::Batch(cfg), Engine::Fused(cfg)]
        .into_iter()
        .flat_map(|e| {
            [
                (e, false, false),
                (e, false, true),
                (e, true, false),
                (e, true, true),
            ]
        })
        .collect();
    let mut regions_seen = 0;
    for degree in [1u32, 2] {
        for sql in SQL_QUERIES {
            // The database holds the base catalog; lowering allocates
            // aggregate output attributes in a copy, as in the shell.
            let db = Database::in_memory(diff_catalog());
            db.generate(42);
            db.set_parallel_degree(degree);
            let mut catalog = diff_catalog();
            let q = plan_query(sql, &mut catalog).expect("query must parse");
            let options = RelModelOptions::default().with_parallel_degree(degree);
            let model = RelModel::new(catalog.clone(), options);
            let goal = RelProps::sorted(q.order_by.clone());
            let plan = optimize_plan(&model, &q.expr, goal, sql);
            let stmt = db.prepare(sql).unwrap();
            let oracle = evaluate_logical(&db, &q.expr);

            for &(engine, analyze, feedback) in &combos {
                let opts = ExecOptions::new()
                    .with_executor(engine)
                    .with_analyze(analyze)
                    .with_feedback(feedback);
                let direct = Query::Plan(&plan, Some(&catalog));
                for query in [direct, Query::Prepared(&stmt, &[])] {
                    let prepared = matches!(query, Query::Prepared(..));
                    let tag = format!(
                        "{sql} [degree {degree}, {}, analyze {analyze}, feedback {feedback}, \
                         prepared {prepared}]",
                        engine.label()
                    );
                    let tracer = CollectingTracer::new();
                    let out = db.run(query, &opts, Some(&tracer)).unwrap();

                    // Rows, re-aligned to the logical schema (join
                    // commutativity permutes physical columns).
                    let physical = schema_of(&db, &out.plan);
                    let positions: Vec<usize> = oracle
                        .schema
                        .iter()
                        .map(|a| physical.iter().position(|b| b == a).expect("attr"))
                        .collect();
                    let rows: Vec<Tuple> = out
                        .rows
                        .iter()
                        .map(|t| positions.iter().map(|&i| t[i].clone()).collect())
                        .collect();
                    assert_eq!(sorted_copy(&rows), sorted_copy(&oracle.rows), "{tag}");

                    // Per-pipeline analysis for fused, per-operator
                    // otherwise, and only when asked for.
                    let fused = matches!(engine, Engine::Fused(_));
                    let kind = out
                        .analysis
                        .as_ref()
                        .map(|a| matches!(a, Analysis::Fused(_)));
                    assert_eq!(kind, analyze.then_some(fused), "{tag}");
                    if let Some(Analysis::Operators(nodes)) = &out.analysis {
                        assert_eq!(nodes.len(), out.plan.node_count(), "{tag}");
                        assert_eq!(nodes[0].actual_rows as usize, out.rows.len(), "{tag}");
                    }

                    // Instrumented tuple and batch runs, and analyzed
                    // fused runs, execute their gathers serially;
                    // feedback keeps fused gathers parallel.
                    let serial = analyze || (feedback && !fused);
                    let regions = if serial {
                        0
                    } else {
                        parallel_regions(&db, &out.plan, engine)
                    };
                    regions_seen += regions;
                    let events = tracer.take();
                    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
                    assert_eq!(
                        (
                            count(|e| matches!(e, TraceEvent::PlanCacheLookup { .. })),
                            count(|e| matches!(e, TraceEvent::FeedbackApplied { .. })),
                            count(|e| matches!(e, TraceEvent::MorselPhase { .. })),
                        ),
                        (usize::from(prepared), usize::from(feedback), regions),
                        "{tag}: trace events (cache lookups, harvests, morsel phases)"
                    );
                }
            }
        }
    }
    assert!(
        regions_seen > 0,
        "no golden query ran a parallel gather at degree 2; the MorselPhase check tests nothing"
    );
}
