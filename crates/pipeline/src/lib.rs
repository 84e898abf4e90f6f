//! # vliw-pipeline — end-to-end driver and experiment harness
//!
//! Glues the substrates into the paper's five-step flow (§4) and regenerates
//! every table and figure of the evaluation (§6):
//!
//! * [`driver::run_loop`] — ideal schedule → RCG partition → copy insertion →
//!   clustered reschedule → per-bank colouring → simulation oracle, for one
//!   loop on one machine;
//! * [`stats`] — arithmetic/harmonic means and the degradation histogram
//!   buckets of Figures 5–7;
//! * [`experiments`] — Table 1 (IPC), Table 2 (normalised degradation),
//!   Figures 5–7 (degradation histograms), the partitioner ablation, the
//!   copy-latency sweep, and the iterated-greedy extension;
//! * the `repro` binary prints any of them as ASCII tables.
//!
//! Corpus evaluation is embarrassingly parallel across loops and uses rayon.

#![warn(missing_docs)]

pub mod driver;
pub mod encode;
pub mod experiments;
pub mod function;
pub mod stats;

pub use driver::{
    run_loop, run_loop_within, schedule_with, schedule_with_ctx, ExactOutcome, JointOutcome,
    LintMode, LoopResult, PartitionerKind, PipelineConfig, SchedulerKind,
};
pub use encode::{format_pipeline_config, parse_pipeline_config, ConfigParseError};
pub use experiments::{
    ablation, aggregate_gap_row, fig_histogram, fig_histogram_with, gap_table, gap_table_with,
    joint_gap_table, joint_gap_table_with, joint_scaling_table, joint_scaling_table_with,
    latency_sweep, paper_example, paper_machines, render_ablation, render_scheduler_compare,
    run_corpus, run_corpus_grid, run_corpus_grid_with, scheduler_compare, table1, table1_with,
    table2, table2_with, whole_programs, AblationRow, GapObs, GapRow, GapTable, HistogramRow,
    JointGapRow, JointGapTable, LoopRunner, PaperExample, SchedulerRow, SolveOutcome, Table1,
    Table2,
};
pub use function::{run_function, BlockResult, FunctionResult};
pub use stats::DiagSummary;
pub use stats::{arith_mean, degradation_bucket, harmonic_mean, Histogram, BUCKET_LABELS};
