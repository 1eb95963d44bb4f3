//! EXPLAIN ANALYZE support: execute a plan with per-operator
//! instrumentation — row counts, open/next invocation counts and
//! wall-clock time — and report the actuals next to the optimizer's
//! estimated cardinalities and costs, a direct check of the
//! selectivity and cost models. An analyzed run is a
//! [`crate::Database::run`] with [`crate::ExecOptions::analyze`] set; the
//! feedback loop harvests from the same instrumented runs.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, Observation, RelPlan};

use crate::batch::{collect_batches, Batch, BatchOperator, BoxedBatchOperator};
use crate::compile::{compile_batch_node, compile_node_at, schema_of_at, BatchConfig, Built};
use crate::database::{Database, SchemaSnapshot};
use crate::fused::FusedReport;
use crate::iterator::{collect, BoxedOperator, Operator};

/// Shared measurement cell for one plan node.
#[derive(Default)]
struct Cell {
    rows: AtomicU64,
    opens: AtomicU64,
    next_calls: AtomicU64,
    elapsed_ns: AtomicU64,
    extra: Mutex<Vec<(&'static str, u64)>>,
}

impl Cell {
    /// Run `f`, adding its wall-clock to the node's inclusive time.
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

/// Pass-through operator measuring the operator beneath it: rows
/// produced, open/next invocations, inclusive wall-clock, and — at
/// close — a snapshot of the operator's own counters
/// ([`Operator::metrics`]).
struct Instrumented {
    child: BoxedOperator,
    cell: Arc<Cell>,
}

impl Operator for Instrumented {
    fn open(&mut self) {
        self.cell.time(|| self.child.open());
        self.cell.opens.fetch_add(1, Ordering::Relaxed);
    }

    fn next(&mut self) -> Option<Tuple> {
        let t = self.cell.time(|| self.child.next());
        self.cell.next_calls.fetch_add(1, Ordering::Relaxed);
        if t.is_some() {
            self.cell.rows.fetch_add(1, Ordering::Relaxed);
        }
        t
    }

    fn close(&mut self) {
        self.cell.time(|| self.child.close());
        // The operator tree is torn down after execution; capture the
        // operator's counters while they are still reachable. Operators
        // that are closed more than once just overwrite with the latest
        // (cumulative) values.
        *self.cell.extra.lock().unwrap() = self.child.metrics();
    }

    fn name(&self) -> &'static str {
        self.child.name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.child.metrics()
    }
}

/// Pass-through batch operator measuring the batch operator beneath it.
/// Counts *live* rows (so `actual_rows` is comparable across engines)
/// and, at close, appends batch-shape statistics — batches produced,
/// average rows per batch, selection-vector density — ahead of the
/// operator's own kernel counters.
struct InstrumentedBatch {
    child: BoxedBatchOperator,
    cell: Arc<Cell>,
    batches: u64,
    live_rows: u64,
    physical_rows: u64,
}

impl BatchOperator for InstrumentedBatch {
    fn open(&mut self) {
        self.cell.time(|| self.child.open());
        self.cell.opens.fetch_add(1, Ordering::Relaxed);
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        let more = self.cell.time(|| self.child.next_batch(out));
        self.cell.next_calls.fetch_add(1, Ordering::Relaxed);
        if more {
            let live = out.live_rows() as u64;
            self.batches += 1;
            self.live_rows += live;
            self.physical_rows += out.physical_rows() as u64;
            self.cell.rows.fetch_add(live, Ordering::Relaxed);
        }
        more
    }

    fn close(&mut self) {
        self.cell.time(|| self.child.close());
        let mut extra = vec![("batches", self.batches)];
        if let Some(avg) = self.live_rows.checked_div(self.batches) {
            extra.push(("avg_batch_rows", avg));
        }
        if let Some(pct) = (self.live_rows * 100).checked_div(self.physical_rows) {
            extra.push(("sel_density_pct", pct));
        }
        extra.extend(self.child.metrics());
        *self.cell.extra.lock().unwrap() = extra;
    }

    fn name(&self) -> &'static str {
        self.child.name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.child.metrics()
    }
}

/// Per-operator measurement, in plan pre-order.
#[derive(Debug, Clone)]
pub struct NodeMeasurement {
    /// Operator description (with catalog names).
    pub description: String,
    /// Executable operator name (e.g. `hash_join`).
    pub operator: &'static str,
    /// Depth in the plan tree.
    pub depth: usize,
    /// Rows the optimizer's logical-property model predicted.
    pub est_rows: f64,
    /// Cumulative estimated cost of this subtree (`RelCost::total`).
    pub est_cost: f64,
    /// Rows actually produced by this operator.
    pub actual_rows: u64,
    /// Times `open` was invoked.
    pub opens: u64,
    /// Times `next` was invoked.
    pub next_calls: u64,
    /// Inclusive wall-clock spent in this subtree.
    pub elapsed: Duration,
    /// Operator-specific counters (e.g. `build_rows`, `runs_spilled`).
    pub extra: Vec<(&'static str, u64)>,
}

/// Measurements of one analyzed run (see [`crate::ExecOptions::analyze`]).
#[derive(Debug)]
pub enum Analysis {
    /// Per-operator measurements in plan pre-order (tuple and batch
    /// engines).
    Operators(Vec<NodeMeasurement>),
    /// The fused engine's report, its per-pipeline counters populated.
    /// A fused region is a single compiled loop with no per-plan-node
    /// seams to instrument, so the fused analysis is per pipeline.
    Fused(FusedReport),
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1_000.0;
    if us < 1_000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Inclusive-minus-children ("self") time for each node, derived from
/// the pre-order depth vector.
fn self_times(nodes: &[NodeMeasurement]) -> Vec<Duration> {
    let mut out: Vec<Duration> = nodes.iter().map(|n| n.elapsed).collect();
    for (i, n) in nodes.iter().enumerate() {
        let mut j = i + 1;
        while j < nodes.len() && nodes[j].depth > n.depth {
            if nodes[j].depth == n.depth + 1 {
                out[i] = out[i].saturating_sub(nodes[j].elapsed);
            }
            j += 1;
        }
    }
    out
}

impl Analysis {
    /// Selectivity observations for the feedback loop: per-operator
    /// actual rows attributed to `plan`'s predicate terms and join
    /// pairs, or the fused report's per-pipeline harvest.
    pub(crate) fn observations(&self, catalog: &Catalog, plan: &RelPlan) -> Vec<Observation> {
        match self {
            Analysis::Operators(nodes) => {
                // The harvest walk and the instrumentation share the
                // same pre-order.
                let actual: Vec<u64> = nodes.iter().map(|n| n.actual_rows).collect();
                volcano_rel::observations(catalog, plan, &actual)
            }
            Analysis::Fused(report) => report.observations(),
        }
    }

    /// Render an `EXPLAIN ANALYZE`-style report: one line per operator,
    /// estimated cost and rows next to actual rows and timings (or one
    /// line per fused pipeline).
    pub fn report(&self) -> String {
        let nodes = match self {
            Analysis::Operators(nodes) => nodes,
            Analysis::Fused(report) => {
                return report.lines().into_iter().map(|l| l + "\n").collect();
            }
        };
        let mut out = String::new();
        for (n, self_time) in nodes.iter().zip(self_times(nodes)) {
            let _ = write!(
                out,
                "{:indent$}{}  (cost={:.2} est {:.0} rows) (actual {} rows, {} nexts, {} total, {} self)",
                "",
                n.description,
                n.est_cost,
                n.est_rows,
                n.actual_rows,
                n.next_calls,
                fmt_dur(n.elapsed),
                fmt_dur(self_time),
                indent = n.depth * 2
            );
            if !n.extra.is_empty() {
                let _ = write!(out, " [");
                for (i, (k, v)) in n.extra.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}{k}={v}");
                }
                let _ = write!(out, "]");
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable export as one JSON object:
    /// `{"result_rows": N, "nodes": [...]}` with nodes in plan pre-order,
    /// or `{"result_rows": N, "fused": {...}}` for the fused report.
    pub fn to_json(&self, result_rows: usize) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"result_rows\":{result_rows},");
        match self {
            Analysis::Operators(nodes) => write_nodes_json(&mut out, nodes),
            Analysis::Fused(report) => write_fused_json(&mut out, report),
        }
        out.push('}');
        out
    }
}

fn write_nodes_json(out: &mut String, nodes: &[NodeMeasurement]) {
    out.push_str("\"nodes\":[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"operator\":\"{}\",\"description\":\"{}\",\"depth\":{},\
             \"est_rows\":{},\"est_cost\":{},\"actual_rows\":{},\
             \"opens\":{},\"next_calls\":{},\"elapsed_us\":{}",
            json_escape(n.operator),
            json_escape(&n.description),
            n.depth,
            finite(n.est_rows),
            finite(n.est_cost),
            n.actual_rows,
            n.opens,
            n.next_calls,
            n.elapsed.as_micros()
        );
        let _ = write!(out, ",\"metrics\":{{");
        for (j, (k, v)) in n.extra.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        let _ = write!(out, "}}}}");
    }
    out.push(']');
}

fn write_fused_json(out: &mut String, report: &FusedReport) {
    let fallback: Vec<String> = report
        .fallback_ops
        .iter()
        .map(|op| format!("\"{}\"", json_escape(op)))
        .collect();
    let pipelines: Vec<String> = report
        .pipelines
        .iter()
        .map(|p| {
            let (rows, batches, ns) = (p.stats.rows(), p.stats.batches(), p.stats.ns());
            let label = json_escape(&p.label);
            format!(
                "{{\"label\":\"{label}\",\"operators\":{},\"build\":{},\"rows\":{rows},\
                 \"batches\":{batches},\"ns\":{ns}}}",
                p.operators, p.build
            )
        })
        .collect();
    let _ = write!(
        out,
        "\"fused\":{{\"adapters\":{},\"parallel_regions\":{},\"agg_sinks\":{},\
         \"fallback_ops\":[{}],\"pipelines\":[{}]}}",
        report.adapters,
        report.parallel_regions,
        report.agg_sinks,
        fallback.join(","),
        pipelines.join(",")
    );
}

/// Build the instrumented tree, measurements recorded in pre-order
/// (parent before children). Each plan node is wrapped in the
/// instrumentation matching its engine; the adapters the batch lowering
/// inserts at engine boundaries are not plan nodes, so their cost lands
/// in the parent's self time.
fn instrument(
    db: &Database,
    sch: &SchemaSnapshot,
    catalog: &Catalog,
    plan: &RelPlan,
    depth: usize,
    cfg: Option<BatchConfig>,
    counters: &mut Vec<(NodeMeasurement, Arc<Cell>)>,
) -> Built {
    let cell = Arc::new(Cell::default());
    let slot = counters.len();
    counters.push((
        NodeMeasurement {
            description: volcano_rel::explain::alg_description(catalog, &plan.alg),
            operator: "",
            depth,
            est_rows: volcano_rel::estimate::estimated_rows(catalog, plan),
            est_cost: plan.cost.total(),
            actual_rows: 0,
            opens: 0,
            next_calls: 0,
            elapsed: Duration::ZERO,
            extra: Vec::new(),
        },
        cell.clone(),
    ));
    let children: Vec<Built> = plan
        .inputs
        .iter()
        .map(|c| instrument(db, sch, catalog, c, depth + 1, cfg, counters))
        .collect();
    let built = match cfg {
        Some(cfg) => compile_batch_node(db, sch, plan, children, cfg),
        None => {
            let children = children.into_iter().map(Built::into_tuple).collect();
            Built::T(compile_node_at(db, sch, plan, children))
        }
    };
    match built {
        Built::B(op) => {
            counters[slot].0.operator = op.name();
            Built::B(Box::new(InstrumentedBatch {
                child: op,
                cell,
                batches: 0,
                live_rows: 0,
                physical_rows: 0,
            }))
        }
        Built::T(op) => {
            counters[slot].0.operator = op.name();
            Built::T(Box::new(Instrumented { child: op, cell }))
        }
    }
}

/// Run `plan` under per-operator instrumentation on the tuple engine
/// (`cfg` = `None`) or the batch engine; `catalog`, the one the plan was
/// lowered with, names the operators and supplies the estimates. Gathers
/// run serially ([`compile_batch_node`]): a parallel pipeline has no
/// per-node seams to measure.
pub(crate) fn run_instrumented(
    db: &Database,
    sch: &SchemaSnapshot,
    catalog: &Catalog,
    plan: &RelPlan,
    cfg: Option<BatchConfig>,
) -> (Vec<Tuple>, Analysis) {
    let mut counters = Vec::new();
    let built = instrument(db, sch, catalog, plan, 0, cfg, &mut counters);
    let rows = match cfg {
        Some(cfg) => {
            let arity = schema_of_at(sch, plan).len();
            collect_batches(built.into_batch(arity, cfg.batch_size).as_mut())
        }
        None => collect(built.into_tuple().as_mut()),
    };
    let nodes = counters
        .into_iter()
        .map(|(mut m, cell)| {
            m.actual_rows = cell.rows.load(Ordering::Relaxed);
            m.opens = cell.opens.load(Ordering::Relaxed);
            m.next_calls = cell.next_calls.load(Ordering::Relaxed);
            m.elapsed = Duration::from_nanos(cell.elapsed_ns.load(Ordering::Relaxed));
            m.extra = std::mem::take(&mut cell.extra.lock().unwrap());
            m
        })
        .collect();
    (rows, Analysis::Operators(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Engine;
    use crate::database::{ExecOptions, Outcome, Query};
    use volcano_core::{PhysicalProps, SearchOptions};
    use volcano_rel::builder::{join_on, select_one};
    use volcano_rel::{Cmp, ColumnDef, QueryBuilder, RelModel, RelOptimizer, RelProps};

    fn analyzed(db: &Database, catalog: &Catalog, plan: &RelPlan, engine: Engine) -> Outcome {
        let opts = ExecOptions::new().with_executor(engine).with_analyze(true);
        db.run(Query::Plan(plan, Some(catalog)), &opts, None)
            .unwrap()
    }

    #[test]
    fn analyzed_execution_counts_every_operator() {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            300.0,
            vec![ColumnDef::int("id", 300.0), ColumnDef::int("dept", 10.0)],
        );
        c.add_table("dept", 10.0, vec![ColumnDef::int("id", 10.0)]);
        let db = Database::in_memory(c.clone());
        db.generate(9);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "id"), 100i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        );
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();

        let analyzed = analyzed(&db, &c, &plan, Engine::Tuple);
        let Some(Analysis::Operators(nodes)) = &analyzed.analysis else {
            panic!("expected a per-operator analysis");
        };
        // One measurement per plan node, root first.
        assert_eq!(nodes.len(), plan.node_count());
        assert_eq!(nodes[0].depth, 0);
        // The root's actual row count equals the result size.
        assert_eq!(nodes[0].actual_rows as usize, analyzed.rows.len());
        // Every node has an operator name, an estimate, and was opened.
        for n in nodes {
            assert!(!n.operator.is_empty(), "{n:?}");
            assert!(n.est_rows > 0.0, "{n:?}");
            assert!(n.opens >= 1, "{n:?}");
            // next is called at least once more than rows produced (the
            // final None), except operators short-circuited by parents.
            assert!(n.next_calls >= n.actual_rows, "{n:?}");
        }
        // The root's estimated cost equals the winner's total cost.
        assert!((nodes[0].est_cost - plan.cost.total()).abs() < 1e-9);
        // Some operator surfaced its own counters (a scan always does).
        assert!(
            nodes.iter().any(|n| !n.extra.is_empty()),
            "no operator-specific metrics were captured"
        );
        // Instrumented execution returns the same rows as the plain one.
        let plain = db.run(&plan, &ExecOptions::new(), None).unwrap();
        assert!(plain.analysis.is_none(), "plain runs carry no analysis");
        crate::naive::assert_same_rows(analyzed.rows.clone(), plain.rows);
        // The report shows estimates next to actuals.
        let report = analyzed.analysis.as_ref().unwrap().report();
        assert!(report.contains("actual"), "{report}");
        assert!(report.contains("cost="), "{report}");
        assert!(
            report.contains("dept") || report.contains("emp"),
            "{report}"
        );
    }

    #[test]
    fn analyzed_json_export_is_well_formed() {
        let mut c = Catalog::new();
        c.add_table("t", 50.0, vec![ColumnDef::int("a", 50.0)]);
        let db = Database::in_memory(c.clone());
        db.generate(4);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = q.scan("t");
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();

        let json = |out: Outcome| out.analysis.unwrap().to_json(out.rows.len());
        let tuple = json(analyzed(&db, &c, &plan, Engine::Tuple));
        assert!(tuple.contains("\"operator\":\"file_scan\""), "{tuple}");
        assert!(tuple.contains("\"est_rows\":50"), "{tuple}");
        assert!(tuple.contains("\"metrics\":{"), "{tuple}");
        let fused = json(analyzed(
            &db,
            &c,
            &plan,
            Engine::Fused(BatchConfig::default()),
        ));
        assert!(fused.contains("\"fused\":{"), "{fused}");
        assert!(fused.contains("\"pipelines\":[{\"label\""), "{fused}");
        for json in [tuple, fused] {
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains("\"result_rows\":50"), "{json}");
            // Balanced braces/brackets (no string values contain either).
            let opens = json.matches('{').count();
            let closes = json.matches('}').count();
            assert_eq!(opens, closes, "{json}");
            assert_eq!(
                json.matches('[').count(),
                json.matches(']').count(),
                "{json}"
            );
        }
    }
}
