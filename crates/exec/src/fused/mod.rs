//! The pipeline-fused execution engine (the third engine).
//!
//! Where the tuple engine interprets the plan one `next()` call per row
//! and the batch engine one `next_batch()` call per operator, the fused
//! engine compiles each maximal fusable plan segment — scans, filters,
//! projections, hash joins — into a single [`FusedRegion`] operator at
//! plan-compile time. Inside a region there is no virtual dispatch and
//! no adapter: each pipeline is one loop per batch that decodes only
//! the columns it touches, evaluates predicate conjuncts through
//! kernels monomorphized over the column types ([`FusedPred`]), and
//! probes join hash tables directly. Hash aggregates end a pipeline in
//! an aggregation sink or run batch-native; gathers run on the morsel
//! executor; other non-fusable operators (sort, set ops,
//! merge/nested/multiway joins, index scans) run on the tuple engine's
//! operators, with at most one adapter per genuine engine boundary.
//!
//! Semantics are identical to the other two engines by construction:
//! the kernels defer to the batch engine's on any unexpected column
//! shape, and probe output replicates the serial hash join's order
//! contract. The differential suite (`tests/fused_differential.rs`)
//! pins this across engines, batch sizes, and parallel degrees.

mod compile;
mod pred;
mod region;

pub(crate) use compile::compile_fused_with;
pub use compile::{compile_fused, CompiledFused, FusedReport, PipelineInfo};
pub use pred::FusedPred;
pub use region::{FusedRegion, PipelineStats};
