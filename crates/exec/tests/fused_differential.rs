//! Differential tests for the pipeline-fused engine (the third engine).
//!
//! Every golden SQL query and fig4-style generated plan is executed on
//! all three engines — tuple (the oracle), batch, and fused — across
//! batch sizes {1, default, 1024} and the parallel-degree ladder
//! (`VOLCANO_THREADS` pins one degree per CI leg). Whatever the
//! configuration, the fused engine must produce the identical row
//! *multiset*; at degree 1 the exact sequence must match the tuple
//! engine, and under a sort goal the delivered order must hold at every
//! degree (only sort-key ties may reorder under parallelism).
//!
//! The fallback-coverage tests pin the engine-boundary discipline:
//! non-fusable operators (sort, set ops) execute correctly through at
//! most one adapter per genuine engine boundary, with the fusable
//! segments around them still fused. Hash aggregates never fall back —
//! they terminate a fused pipeline in an aggregation sink (or run
//! batch-native over a non-fusable child).

mod common;

use common::testkit::{
    assert_same_multiset, fig4_inputs, optimize_plan, sql_cases, thread_counts, SQL_QUERIES,
};
use volcano_bench::run_plan;
use volcano_exec::{
    collect_batches, compile_fused, schema_of, BatchConfig, Database, Engine, ExecOptions, Query,
};
use volcano_rel::value::Tuple;
use volcano_rel::{RelModel, RelModelOptions, RelPlan};

/// The batch-size axis: degenerate single-row batches, the engine
/// default, and an explicit large batch.
fn batch_sizes() -> [Option<usize>; 3] {
    [Some(1), None, Some(1024)]
}

fn config(batch_size: Option<usize>) -> BatchConfig {
    match batch_size {
        Some(n) => BatchConfig::with_batch_size(n),
        None => BatchConfig::default(),
    }
}

/// Assert `rows` are non-decreasing on the given key column positions.
fn assert_sorted_on(rows: &[Tuple], key_positions: &[usize], tag: &str) {
    for pair in rows.windows(2) {
        let a: Vec<_> = key_positions.iter().map(|&p| &pair[0][p]).collect();
        let b: Vec<_> = key_positions.iter().map(|&p| &pair[1][p]).collect();
        assert!(
            a <= b,
            "{tag}: output violates the delivered sort order ({a:?} before {b:?})"
        );
    }
}

/// Run `plan` on all three engines at every batch size and assert the
/// cross-engine discipline holds.
fn assert_three_engines_agree(db: &Database, plan: &RelPlan, tag: &str, degree: u32) {
    let tuple_rows = run_plan(db, plan, Engine::Tuple);
    let key_positions: Vec<usize> = {
        let schema = schema_of(db, plan);
        plan.delivered
            .sort
            .iter()
            .map(|a| {
                schema
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("{tag}: sort key {a:?} missing from output schema"))
            })
            .collect()
    };
    for batch_size in batch_sizes() {
        let cfg = config(batch_size);
        let batch_rows = run_plan(db, plan, Engine::Batch(cfg));
        let fused_rows = run_plan(db, plan, Engine::Fused(cfg));
        let mtag = format!("{tag}: deg={degree} batch={batch_size:?}");
        assert_same_multiset(&tuple_rows, &batch_rows, &format!("{mtag} [batch]"));
        assert_same_multiset(&tuple_rows, &fused_rows, &format!("{mtag} [fused]"));
        if !key_positions.is_empty() {
            assert_sorted_on(&batch_rows, &key_positions, &format!("{mtag} [batch]"));
            assert_sorted_on(&fused_rows, &key_positions, &format!("{mtag} [fused]"));
        }
        if degree == 1 {
            assert_eq!(
                tuple_rows, fused_rows,
                "{mtag}: serial fused execution must be sequence-identical to the tuple engine"
            );
            assert_eq!(
                batch_rows, fused_rows,
                "{mtag}: serial fused execution must be sequence-identical to the batch engine"
            );
        }
    }
}

fn options(degree: u32) -> RelModelOptions {
    RelModelOptions::default().with_parallel_degree(degree)
}

#[test]
fn sql_golden_queries_agree_on_all_three_engines() {
    for degree in thread_counts() {
        for case in sql_cases(options(degree)) {
            assert_three_engines_agree(&case.db, &case.plan, &case.tag, degree);
        }
    }
}

#[test]
fn fig4_plans_agree_on_all_three_engines() {
    for input in fig4_inputs(&[2, 3], 0..2, false) {
        for degree in thread_counts() {
            let model = RelModel::new(
                input.catalog.clone(),
                RelModelOptions::paper_fig4().with_parallel_degree(degree),
            );
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert_three_engines_agree(&input.db, &plan, &tag, degree);
        }
    }
}

/// Sorted goals: the fused engine must deliver the sort order at every
/// degree — parallelism and fusion may never leak through the sort.
#[test]
fn fig4_sorted_goals_preserve_order_on_fused() {
    for input in fig4_inputs(&[2], 0..2, true) {
        for degree in thread_counts() {
            let model = RelModel::new(
                input.catalog.clone(),
                RelModelOptions::paper_fig4().with_parallel_degree(degree),
            );
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert!(
                !plan.delivered.sort.is_empty(),
                "{tag}: expected a sort-delivering plan"
            );
            assert_three_engines_agree(&input.db, &plan, &tag, degree);
        }
    }
}

/// Fallback coverage: the golden list contains sorts, an aggregate, and
/// a union. Sorts and unions are not fusable — each must execute
/// correctly on the fused engine, the fusable segments beneath/around
/// them must still fuse, and the adapter count must stay within one
/// adapter per engine boundary (a fallback operator has at most two
/// boundary edges below/above it in these unary/binary plans, plus one
/// possible boundary at the root). Hash aggregates terminate a fused
/// pipeline in an aggregation sink instead of falling back: the golden
/// aggregate query must produce an agg sink and zero adapters.
#[test]
fn fallback_operators_fuse_around_with_bounded_adapters() {
    let mut fallbacks_seen = Vec::new();
    let mut agg_sinks_seen = 0usize;
    for case in sql_cases(options(1)) {
        let compiled = compile_fused(&case.db, &case.plan, BatchConfig::default());
        let report = &compiled.report;
        let mut op = compiled.operator;
        let rows = collect_batches(op.as_mut());
        assert_eq!(
            run_plan(&case.db, &case.plan, Engine::Tuple),
            rows,
            "{}: fused execution through fallbacks diverged",
            case.tag
        );
        assert!(
            report.adapters <= 2 * report.fallback_segments() + 1,
            "{}: {} adapters for {} fallback segment(s) — more than one \
             adapter per engine boundary",
            case.tag,
            report.adapters,
            report.fallback_segments()
        );
        if report.fallback_segments() > 0 {
            assert!(
                report.pipelines_fused() >= 1,
                "{}: fusable segments under the fallback must still fuse",
                case.tag
            );
        }
        // Adapters around an agg sink can only come from *other*
        // fallback segments (e.g. a sort above it) — never from the
        // aggregate itself.
        if report.agg_sinks > 0 && report.fallback_segments() == 0 {
            assert_eq!(
                report.adapters, 0,
                "{}: a fused terminal aggregate must report 0 adapters",
                case.tag
            );
        }
        agg_sinks_seen += report.agg_sinks;
        fallbacks_seen.extend(report.fallback_ops.iter().copied());
    }
    // The golden list must actually exercise the fallback families —
    // and aggregates must never be among them.
    for family in ["sort", "union"] {
        assert!(
            fallbacks_seen.iter().any(|op| op.contains(family)),
            "golden queries produced no {family} fallback (saw {fallbacks_seen:?})"
        );
    }
    assert!(
        !fallbacks_seen.iter().any(|op| op.contains("aggregate")),
        "aggregates must not fall back to the tuple engine (saw {fallbacks_seen:?})"
    );
    assert!(
        agg_sinks_seen >= 1,
        "golden queries produced no fused aggregation sink"
    );
}

/// A fully fusable pipeline plan must compile to zero fallback segments
/// and zero adapters: one region, straight from the heap file to the
/// consumer.
#[test]
fn fusable_plans_compile_adapter_free() {
    // Join + filter + projection, no ORDER BY: every operator fuses.
    let sql = "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id";
    let case = sql_cases(options(1))
        .into_iter()
        .zip(SQL_QUERIES)
        .find(|(_, q)| **q == sql)
        .map(|(c, _)| c)
        .expect("golden join query present");
    let compiled = compile_fused(&case.db, &case.plan, BatchConfig::default());
    assert_eq!(
        compiled.report.fallback_segments(),
        0,
        "join pipeline must fuse completely: {:?}",
        compiled.report.fallback_ops
    );
    assert_eq!(compiled.report.adapters, 0, "no engine boundary expected");
    assert!(
        compiled.report.pipelines_fused() >= 2,
        "expected a build pipeline and an output pipeline"
    );
    let mut op = compiled.operator;
    let rows = collect_batches(op.as_mut());
    assert_eq!(run_plan(&case.db, &case.plan, Engine::Tuple), rows, "{sql}");
}

/// The prepared-statement / plan-cache path inherits the fused engine:
/// a cache hit re-binds the cached plan and executes it fused, with no
/// optimizer involvement, producing the same rows as the tuple engine.
#[test]
fn plan_cache_hit_executes_on_fused_engine() {
    let case = &sql_cases(options(1))[1]; // the join query
    let db = &case.db;
    let stmt = db
        .prepare("SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id")
        .unwrap();
    let opts = ExecOptions::new().with_executor(Engine::Fused(BatchConfig::default()));
    let cold = db.run(Query::Prepared(&stmt, &[]), &opts, None).unwrap();
    assert_eq!(cold.cache, "miss");
    let warm = db.run(Query::Prepared(&stmt, &[]), &opts, None).unwrap();
    assert_eq!(warm.cache, "hit");
    assert!(
        warm.search.is_none(),
        "a cache hit must not re-run the optimizer"
    );
    let oracle = db
        .run(Query::Prepared(&stmt, &[]), &ExecOptions::new(), None)
        .unwrap();
    assert_eq!(oracle.rows, cold.rows, "fused cold run diverged");
    assert_eq!(oracle.rows, warm.rows, "fused cache-hit run diverged");
}

/// Degraded (budget-tripped) optimizations still execute on the fused
/// engine — admission control degrading search quality must never
/// change what the chosen engine computes.
#[test]
fn degraded_search_executes_on_fused_engine() {
    let case = &sql_cases(options(1))[2]; // the 3-way join
    let db = &case.db;
    let stmt = db
        .prepare(
            "SELECT emp.id FROM emp, dept, region \
             WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < 50 \
             ORDER BY emp.id",
        )
        .unwrap();
    let tight = volcano_core::SearchBudget::unlimited().with_max_goals(1);
    let opts = ExecOptions::new()
        .with_executor(Engine::Fused(BatchConfig::default()))
        .with_budget(tight)
        .with_cache_bypass(true);
    let degraded = db.run(Query::Prepared(&stmt, &[]), &opts, None).unwrap();
    assert!(
        degraded
            .search
            .as_ref()
            .expect("bypass always optimizes")
            .outcome
            .is_degraded(),
        "a one-goal budget must trip on a 3-way join"
    );
    let oracle = db
        .run(
            Query::Prepared(&stmt, &[]),
            &ExecOptions::new()
                .with_budget(volcano_core::SearchBudget::unlimited().with_max_goals(1))
                .with_cache_bypass(true),
            None,
        )
        .unwrap();
    // Same (degraded) plan on both engines: identical rows, and the
    // ORDER BY makes the sequence deterministic.
    assert_eq!(oracle.rows, degraded.rows, "degraded fused run diverged");
    assert!(!degraded.rows.is_empty(), "query should return rows");
}
