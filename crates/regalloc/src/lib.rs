//! # vliw-regalloc — Chaitin/Briggs register assignment over kernel live ranges
//!
//! Step 5 of the paper's framework (§4): "with functional units specified and
//! registers allocated to banks, perform 'standard' Chaitin/Briggs graph
//! coloring register assignment for each register bank."
//!
//! A software-pipelined kernel complicates classic coloring in one way:
//! values live longer than one initiation interval, so a register name is
//! redefined before its previous value dies. The standard fix — and what
//! this crate implements — is **modulo variable expansion** (MVE): unroll the
//! kernel `K = max_v ⌈lifetime(v)/II⌉` times, give every loop-variant value
//! `K` renamed instances, and colour the resulting *cyclic* live ranges on a
//! circle of `K·II` cycles. Loop invariants occupy their register for the
//! whole circle.
//!
//! Colouring itself is Chaitin's simplify/spill scheme with Briggs'
//! optimistic push: nodes of degree `< R` are removed; otherwise the
//! cheapest node (spill cost / degree) is pushed optimistically and may
//! still receive a colour when popped. Uncoloured pops are counted as
//! spills — the paper's experiments never spill (32 registers per class per
//! bank), and ours confirm that, but the machinery is exercised by tests
//! with tiny banks.

#![warn(missing_docs)]

pub mod alloc;
pub mod color;
pub mod interfere;
pub mod live;
pub mod spill;

pub use alloc::{allocate, validate_allocation, AllocResult, BankClassStats, RegisterFiles};
pub use color::{color_graph, ColorOutcome};
pub use interfere::InterferenceGraph;
pub use live::{kernel_live_ranges, max_pressure, CyclicInterval, LiveRange};
pub use spill::{insert_spill_code, spillable, SpillOutcome};
