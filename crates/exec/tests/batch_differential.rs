//! Differential tests: the vectorized batch engine must be observably
//! identical to the tuple engine on every plan the optimizer produces.
//!
//! Every SQL golden-plan query and a sweep of fig4-style generated
//! select–join queries are optimized once (with a serial-vs-parallel
//! exploration drift guard: both must pick the same plan) and executed
//! under the tuple engine and under the batch engine at batch sizes 1,
//! 4, and 1024. The engines must produce identical *multisets* of rows
//! always, and the identical row *sequence* whenever the root plan
//! carries a sort property. Batch size 1 is the degenerate case whose
//! behaviour must collapse to tuple-at-a-time semantics.
//!
//! The catalog, query list, and comparison discipline live in the
//! shared [`common::testkit`] so the parallel and cache suites compare
//! against the same goldens.

mod common;

use common::testkit::{assert_same_multiset, optimize_drift_guarded};
use volcano_bench::run_plan;
use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::PhysicalProps;
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::{RelModel, RelModelOptions, RelPlan, RelProps};
use volcano_sql::plan_query;

const BATCH_SIZES: [usize; 3] = [1, 4, 1024];

/// Execute `plan` under both engines and every batch size; assert the
/// outputs agree.
fn assert_engines_agree(db: &Database, plan: &RelPlan, tag: &str) {
    let tuple_rows = run_plan(db, plan, Engine::Tuple);
    let ordered = !plan.delivered.sort.is_empty();
    for bs in BATCH_SIZES {
        let batch_rows = run_plan(db, plan, Engine::Batch(BatchConfig::with_batch_size(bs)));
        if ordered {
            assert_eq!(
                tuple_rows, batch_rows,
                "{tag}: batch_size={bs}: ordered output diverged"
            );
        } else {
            assert_same_multiset(&tuple_rows, &batch_rows, &format!("{tag}: batch_size={bs}"));
        }
    }
}

// ---------------------------------------------------------------------
// SQL golden-plan queries (same catalog and query list as the golden
// plan and hotpath differential suites).
// ---------------------------------------------------------------------

#[test]
fn sql_golden_queries_agree_across_engines() {
    for sql in common::testkit::SQL_QUERIES {
        let mut catalog = common::testkit::diff_catalog();
        let q = plan_query(sql, &mut catalog).expect("query must parse");
        let model = RelModel::with_defaults(catalog.clone());
        let plan = optimize_drift_guarded(
            &model,
            &q.expr,
            RelProps::sorted(q.order_by.clone()),
            &catalog,
            sql,
        );
        let db = Database::in_memory(catalog);
        db.generate(42);
        assert_engines_agree(&db, &plan, sql);
    }
}

// ---------------------------------------------------------------------
// fig4-style generated select–join queries (paper §4.2 workload).
// ---------------------------------------------------------------------

#[test]
fn fig4_generated_plans_agree_across_engines() {
    for n in [2usize, 3] {
        for seed in 0..3u64 {
            let q = generate_query(&WorkloadConfig::relations(n), seed);
            let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
            let tag = format!("fig4 n={n} seed={seed}");
            let plan = optimize_drift_guarded(&model, &q.expr, RelProps::any(), &q.catalog, &tag);
            let db = Database::in_memory(q.catalog.clone());
            db.generate(seed);
            assert_engines_agree(&db, &plan, &tag);
        }
    }
}

/// The same fig4 workload, but demanding a sorted result: the root plan
/// carries a sort property, so the engines must agree on exact row
/// order (not just the multiset).
#[test]
fn fig4_sorted_goal_agrees_across_engines() {
    for seed in 0..2u64 {
        let q = generate_query(&WorkloadConfig::relations(2), seed);
        // Sort on the first output attribute of the join's left input.
        let table = q.catalog.table_by_name("t0").unwrap();
        let key = table.columns[0].attr;
        let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
        let tag = format!("fig4-sorted seed={seed}");
        let plan = optimize_drift_guarded(
            &model,
            &q.expr,
            RelProps::sorted(vec![key]),
            &q.catalog,
            &tag,
        );
        assert!(
            !plan.delivered.sort.is_empty(),
            "{tag}: expected a sort-delivering plan"
        );
        let db = Database::in_memory(q.catalog.clone());
        db.generate(seed);
        assert_engines_agree(&db, &plan, &tag);
    }
}
