//! Allocation counts of the flat expansion and of the dependence builder.
//!
//! A counting global allocator (std only) tallies the blocks each thread
//! asks for. [`expand`] fills one issue list and one offset array, so its
//! count must not move with the trip count; [`build_ddg`] sizes its edge
//! list up front from one def/use index, so its count must not move with
//! the number of ops or registers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vliw_ddg::build_ddg;
use vliw_ir::Loop;
use vliw_loopgen::Family;
use vliw_machine::MachineDesc;
use vliw_sched::{expand, schedule_loop, ImsConfig, SchedProblem, Schedule};

/// Counts allocations (and reallocations, which may move a block) made by
/// the calling thread, then defers to the system allocator.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the count is a `const`-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Blocks the current thread allocates while running `f`.
fn blocks<R>(f: impl FnOnce() -> R) -> u64 {
    let before = BLOCKS.with(Cell::get);
    let r = f();
    let after = BLOCKS.with(Cell::get);
    drop(r);
    after - before
}

fn ideal_schedule(l: &Loop, m: &MachineDesc) -> Schedule {
    let twin = MachineDesc::monolithic(m.issue_width()).with_latencies(m.latencies.clone());
    let g = build_ddg(l, &m.latencies);
    schedule_loop(&SchedProblem::ideal(l, &twin), &g, &ImsConfig::default()).unwrap()
}

#[test]
fn expansion_allocates_the_same_at_any_trip_count() {
    let m = MachineDesc::embedded(4, 4);
    let mut l = Family::Daxpy.build(0, 4, 8);
    let s = ideal_schedule(&l, &m);
    let short = blocks(|| expand(&l, &s));
    l.trip_count = 512;
    let long = blocks(|| expand(&l, &s));
    assert_eq!(expand(&l, &s).n_issues(), 512 * l.n_ops());
    assert_eq!(short, 2, "one issue list and one offset array");
    assert_eq!(long, short, "trip 8 vs trip 512");
}

#[test]
fn dependence_builder_allocates_the_same_at_any_size() {
    let m = MachineDesc::embedded(4, 4);
    let small = Family::Daxpy.build(0, 1, 64);
    let large = Family::Daxpy.build(0, 8, 64);
    assert!(large.n_ops() >= 8 * small.n_ops() && large.n_vregs() > 4 * small.n_vregs());
    let a = blocks(|| build_ddg(&small, &m.latencies));
    let b = blocks(|| build_ddg(&large, &m.latencies));
    assert_eq!(a, b, "unroll 1 vs unroll 8");
    // The stencil's loads and stores of one array with equal strides stay
    // within the same reservation.
    let stencil = Family::Stencil.build(0, 8, 64);
    assert_eq!(blocks(|| build_ddg(&stencil, &m.latencies)), a, "stencil");
}
