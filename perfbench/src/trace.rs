//! The traced run's two halves: an in-memory span recorder, and a
//! replica of one session execution that calls each layer's public
//! function itself, so every layer boundary gets a span without any
//! tracing inside the program.

use std::io::Write as _;
use std::time::{Duration, Instant};

use volcano_core::{SearchBudget, SearchOptions, SearchStats};
use volcano_exec::plan_cache::{drift_validation, CacheEntry, Validation};
use volcano_exec::{
    collect, collect_batches, compile, compile_batch, compile_fused, AdmissionControl,
    BoxedBatchOperator, BoxedOperator, CacheOutcome, Database, Engine, PlanCache, Server,
    ServerConfig, Session, TrafficClass, DEFAULT_PLAN_CACHE_CAPACITY,
};
use volcano_rel::value::Tuple;
use volcano_rel::{RelModel, RelOptimizer, RelPlan, RelProps, TableId, Value};
use volcano_sql::{lower_with_params, parameterize, parse, shape_key, ParamQuery};

use crate::common::Op;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span; `None` for an operation's root.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u32,
}

/// Records spans in memory; they are written out once, at exit.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of operation `op`.
    pub fn begin_op(&mut self, op: u32) -> usize {
        self.op = op;
        self.begin("op")
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, and any span still open inside it (left open by
    /// a panic that unwound past its end).
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children's intervals cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// What the replica observed while running one read.
#[derive(Debug)]
pub struct ReadTrace {
    pub rows: Vec<Tuple>,
    pub degraded: bool,
    pub hit: bool,
    /// The probe found an entry from an older stats epoch and re-costed
    /// it.
    pub stale: bool,
    pub search: Option<SearchStats>,
    /// Estimated cost of the executed plan (ms of the cost model).
    pub est_cost_ms: f64,
    /// Buffer-pool (hits, misses, evictions) during execution.
    pub pool: (u64, u64, u64),
}

enum Executable {
    Tuple(BoxedOperator),
    Batch(BoxedBatchOperator),
}

/// One session's execution path, rebuilt from public calls: admission,
/// parse, parameterize, bind + lower + shape key, plan-cache probe,
/// search, compile, execute. It owns its plan cache, so its hits and
/// misses are those of a cache that sees only its own probes.
pub struct Replica<'a> {
    db: &'a Database,
    admission: &'a AdmissionControl,
    class: TrafficClass,
    patience: Duration,
    degraded_budget: SearchBudget,
    budget: Option<SearchBudget>,
    engine: Engine,
    pub cache: PlanCache,
    statements: Vec<ParamQuery>,
}

impl<'a> Replica<'a> {
    /// Mirror `session` on `server` (built with `config`). The replica
    /// models the cached, feedback-free path only: a session default
    /// that leaves it is an error, so a changed default shows here
    /// instead of silently skewing the trace.
    pub fn new(
        server: &'a Server,
        config: &ServerConfig,
        session: &Session,
        statements: &[&str],
    ) -> Result<Self, String> {
        let db = server.db().as_ref();
        if !session.plan_cache_enabled() || !db.plan_cache_enabled() {
            return Err("the replica models the plan-cache path; the cache is off".into());
        }
        if session.feedback_enabled() || db.feedback_enabled() {
            return Err("the replica does not model feedback, which is on".into());
        }
        let statements = statements
            .iter()
            .map(|sql| parse(sql).map(|ast| parameterize(&ast)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Replica {
            db,
            admission: server.admission(),
            class: session.class(),
            patience: config.batch_patience,
            degraded_budget: config.degraded_budget.clone(),
            budget: session.budget().cloned(),
            engine: session.executor(),
            cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            statements,
        })
    }

    pub fn read(&self, tr: &mut Tracer, op: &Op) -> Result<ReadTrace, String> {
        let admission = tr.span("serve.admit", || {
            self.admission.admit(self.class, self.patience)
        });
        let parsed;
        let (query, params): (&ParamQuery, &[Value]) = match op {
            Op::Execute { stmt, params } => (&self.statements[*stmt], params),
            Op::Query { sql, .. } => {
                let ast = tr
                    .span("sql.parse", || parse(sql))
                    .map_err(|e| e.to_string())?;
                parsed = tr.span("sql.parameterize", || parameterize(&ast));
                (&parsed, &[])
            }
            Op::Insert { .. } | Op::Journal { .. } => return Err("a write is not a read".into()),
        };
        let (snapshot, full, catalog, lowered, goal, shape) = tr.span("sql.lower", || {
            let snapshot = self.db.catalog();
            let full = query.bind(params).map_err(|e| e.to_string())?;
            let mut catalog = (*snapshot).clone();
            let lowered =
                lower_with_params(&query.shape, &mut catalog, &full).map_err(|e| e.to_string())?;
            let goal = RelProps::sorted(lowered.order_by.clone());
            let shape = shape_key(&lowered.expr, &lowered.order_by);
            Ok::<_, String>((snapshot, full, catalog, lowered, goal, shape))
        })?;
        let epoch = self.db.epoch();
        let drift = self.db.drift_factor();
        let options = self.db.model_options();
        let mut stale = false;
        let cached: Option<(RelPlan, f64)> = tr.span("plan_cache.probe", || {
            let outcome = self.cache.lookup(shape, &goal, |entry| {
                if entry.epoch == epoch {
                    Validation::Valid
                } else {
                    stale = true;
                    drift_validation(entry, &snapshot, &options, &full, epoch, drift)
                }
            });
            match outcome {
                CacheOutcome::Hit(entry) => Some((
                    volcano_exec::rebind_plan(&entry.plan, &full),
                    entry.cost.total(),
                )),
                CacheOutcome::Miss | CacheOutcome::Invalidated => None,
            }
        });
        let hit = cached.is_some();
        let (plan, est_cost_ms, search) = match cached {
            Some((plan, cost)) => (plan, cost, None),
            None => {
                let budget = if admission.degraded() {
                    Some(self.degraded_budget.clone())
                } else {
                    self.budget.clone()
                };
                let (plan, stats) = tr.span("core.search", || {
                    let model = RelModel::new(catalog.clone(), options.clone());
                    let mut search = SearchOptions::default();
                    if let Some(b) = budget {
                        search.budget = b;
                    }
                    let mut opt = RelOptimizer::new(&model, search);
                    let root = opt.insert_tree(&lowered.expr);
                    let plan = opt
                        .find_best_plan(root, goal.clone(), None)
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((plan, opt.stats().clone()))
                })?;
                if !stats.outcome.is_degraded() {
                    tr.span("plan_cache.insert", || {
                        self.cache.insert(
                            shape,
                            goal,
                            CacheEntry {
                                plan: plan.clone(),
                                cost: plan.cost,
                                epoch,
                            },
                        )
                    });
                }
                let cost = plan.cost.total();
                (plan, cost, Some(stats))
            }
        };
        let executable = tr.span("compile.compile", || match self.engine {
            Engine::Tuple => Executable::Tuple(compile(self.db, &plan).operator),
            Engine::Batch(cfg) => Executable::Batch(compile_batch(self.db, &plan, cfg).operator),
            Engine::Fused(cfg) => Executable::Batch(compile_fused(self.db, &plan, cfg).operator),
        });
        let before = self.db.pool().stats();
        let rows = tr.span("exec.execute", || match executable {
            Executable::Tuple(mut op) => collect(op.as_mut()),
            Executable::Batch(mut op) => collect_batches(op.as_mut()),
        });
        let after = self.db.pool().stats();
        let degraded = admission.degraded();
        drop(admission);
        Ok(ReadTrace {
            rows,
            degraded,
            hit,
            stale,
            search,
            est_cost_ms,
            pool: (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        })
    }
}

/// `Database::insert`, under the `store.insert` span.
pub fn insert(tr: &mut Tracer, db: &Database, table: TableId, row: Vec<Value>) {
    tr.span("store.insert", || db.insert(table, row));
}
