//! # volcano-exec — the Volcano execution engine
//!
//! The demand-driven iterator model of the Volcano query processor \[4\]:
//! every physical operator implements `open` / `next` / `close`
//! ([`iterator::Operator`]), consuming and producing streams of tuples,
//! with data pipelined between operators.
//!
//! * [`ops`] — the algorithms the optimizer chooses among: table scan,
//!   filtered scan, filter, project, sort, merge join, hash join, nested
//!   loops, set operations, and aggregation.
//! * [`database`] — tables as heap files behind a buffer pool, with data
//!   generation that honours the catalog's statistics, and the one
//!   execution entry point, [`Database::run`]: a physical plan or a
//!   prepared statement (through the plan cache) on any engine, plain,
//!   analyzed ([`analyze`]), or harvesting feedback.
//! * [`compile()`] — lowers an optimized [`volcano_rel::RelPlan`] to an
//!   executable operator tree, resolving attributes to positions.
//! * [`batch`] / [`kernels`] — a second, vectorized executor over the
//!   same physical plans: columnar batches with selection vectors,
//!   column-at-a-time kernels, and tuple↔batch adapters so every plan
//!   runs end-to-end under either engine with identical results
//!   ([`compile_batch()`]).
//! * [`fused`] — a third, pipeline-fused executor: maximal
//!   scan→filter→project→probe plan segments compiled into single
//!   fused-region operators with monomorphized predicate kernels and
//!   projected record decoding ([`compile_fused()`]). Hash aggregates
//!   end a fused pipeline in an aggregation sink or run batch-native;
//!   every other non-fusable node runs on the tuple engine's operator,
//!   one adapter per genuine engine boundary.
//! * [`morsel`] — morsel-driven parallel execution of `gather(n)`
//!   regions ([`ParallelGather`], the exchange operator of this engine):
//!   page-range morsels, work-stealing workers, partitioned parallel
//!   hash joins, results streamed to the consumer over a bounded
//!   channel.
//! * [`serve`] — the multi-session serving layer: sessions with their
//!   own prepared statements and `SET` state over one shared
//!   `Send + Sync` [`database::Database`], with admission control that
//!   degrades overloaded search to greedy completion instead of
//!   queueing unboundedly.
//! * [`naive`] — a direct evaluator for *logical* algebra expressions:
//!   the correctness oracle that every optimized-and-executed plan is
//!   tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod batch;
pub mod compile;
pub mod database;
pub mod fused;
pub mod iterator;
pub mod kernels;
pub mod morsel;
pub mod naive;
pub mod ops;
pub mod plan_cache;
pub mod serve;

pub use analyze::{Analysis, NodeMeasurement};
pub use batch::{collect_batches, Batch, BatchOperator, BoxedBatchOperator, Column};
pub use compile::{
    compile, compile_batch, compile_node, compile_node_at, schema_of, schema_of_at, BatchConfig,
    Compiled, CompiledBatch, Engine,
};
pub use database::{
    Database, ExecOptions, FeedbackStats, Outcome, PrepareError, PreparedStatement, Query,
    SchemaSnapshot, DEFAULT_DRIFT_FACTOR, DEFAULT_PLAN_CACHE_CAPACITY, FEEDBACK_MATERIAL_RATIO,
};
pub use fused::{compile_fused, CompiledFused, FusedRegion, FusedReport};
pub use iterator::{collect, BoxedOperator, Operator};
pub use morsel::{MorselStats, ParallelGather};
pub use naive::{assert_same_rows, evaluate_logical, Evaluated};
pub use plan_cache::{rebind_plan, CacheOutcome, PlanCache, PlanCacheStats};
pub use serve::{
    Admission, AdmissionControl, AdmissionStats, Server, ServerConfig, Session, SessionError,
    SessionOutcome, Ticket, TrafficClass,
};
