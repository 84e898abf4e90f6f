//! # vliw-ir — three-address intermediate representation for clustered-VLIW code generation
//!
//! This crate defines the loop-body IR the rest of the workspace consumes:
//!
//! * [`VReg`] / [`RegClass`] — symbolic (virtual) registers on an infinite
//!   register file, split into integer and floating-point classes,
//! * [`Opcode`] / [`Operation`] — three-address operations with explicit
//!   def/use sets and optional memory-reference metadata for dependence
//!   analysis,
//! * [`Loop`] — a single-block innermost loop body (the unit of software
//!   pipelining in the paper), including live-in/live-out sets, per-array
//!   simulation metadata, and nesting depth,
//! * [`LoopBuilder`] — an ergonomic builder that keeps the def/use,
//!   register-class and memory metadata consistent by construction,
//! * [`DefUseIndex`] — every register's defining and reading operations,
//!   built in linear time for the dependence builder and copy insertion.
//!
//! The paper (Hiser, Carr, Sweany, Beaty; IPPS 2000) runs its experiments on
//! single-block innermost loops extracted from Spec95 Fortran, represented as
//! three-address intermediate code over symbolic registers, "assuming a single
//! infinite register bank" (§4, step 1). This IR is that representation.
//!
//! Program order is semantically meaningful: a use of a virtual register that
//! textually precedes every def of that register in the body reads the value
//! produced by the *previous* iteration (or the live-in value on the first
//! iteration). This is exactly how non-SSA three-address code expresses
//! loop-carried recurrences, and the dependence builder in `vliw-ddg` derives
//! cross-iteration distances from it.

#![warn(missing_docs)]

pub mod builder;
pub mod defuse;
pub mod func;
pub mod looprep;
pub mod op;
pub mod parser;
pub mod printer;
pub mod reg;
pub mod verify;

pub use builder::LoopBuilder;
pub use defuse::DefUseIndex;
pub use func::{Function, FunctionBuilder};
pub use looprep::{ArrayId, ArrayInfo, InitVal, Loop};
pub use op::{AluKind, MemRef, OpId, Opcode, Operation};
pub use parser::{format_loop_full, parse_loop, ParseError};
pub use reg::{RegClass, VReg};
pub use verify::{verify_loop, VerifyError};
