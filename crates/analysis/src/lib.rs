//! # vliw-analysis — cross-stage pipeline sanitizer
//!
//! A static-analysis/lint framework over every artifact the §4 pipeline
//! produces between stages: the register component graph, the bank
//! assignment, the copy-inserted clustered loop, the modulo schedules, the
//! flat prelude/kernel/postlude expansion, and (opt-in) the dynamic
//! equivalence oracle.
//!
//! The pieces:
//!
//! * [`diag`] — the unified diagnostics currency: [`Severity`], stable
//!   [`LintCode`]s (`BANK001 foreign-bank-operand-without-copy`, `PRES002
//!   maxlive-exceeds-bank-capacity`, …), [`SourceLoc`] anchors (op, vreg,
//!   cycle, cluster), and text/JSON renderers on [`Diagnostic`] and
//!   [`Report`];
//! * [`artifacts`] — the borrowed [`Artifacts`] bundle passes inspect;
//!   optional fields let the same analyzer gate a half-finished pipeline;
//! * [`passes`] — the [`LintPass`] trait and the [`Analyzer`] registry;
//! * the lint modules — [`ir_lints`], [`normal_lints`], [`rcg_lints`],
//!   [`bank_lints`], [`copy_lints`], [`sched_lints`], [`joint_lints`],
//!   [`equiv_lints`].
//!
//! The schedule lints subsume `vliw_sched::verify_schedule`; this crate
//! re-exports that API (and the IR verifier) so downstream code has one
//! import surface for "is this artifact sane?".

#![warn(missing_docs)]

pub mod artifacts;
pub mod bank_lints;
pub mod copy_lints;
pub mod diag;
pub mod equiv_lints;
pub mod ir_lints;
pub mod joint_lints;
pub mod normal_lints;
pub mod passes;
pub mod rcg_lints;
pub mod sched_lints;

pub use artifacts::Artifacts;
pub use diag::{Diagnostic, LintCode, Report, Severity, SourceLoc, Stage};
pub use equiv_lints::{equiv_diagnostic, DynamicOraclePass};
pub use joint_lints::{JointClaim, JointPass};
pub use normal_lints::{canonical_semantics_diags, normal_form_audit, NormalFormPass};
pub use passes::{analyze, Analyzer, LintPass};
pub use sched_lints::{check_expansion, schedule_diag};

// Re-exported verifiers the lint passes subsume, so callers need only this
// crate to validate artifacts.
pub use vliw_ir::{verify_loop, VerifyError};
pub use vliw_sched::{verify_schedule, verify_schedule_all, ScheduleError};
