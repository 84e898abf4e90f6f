//! Brute-force oracle for the joint solver on tiny loops.
//!
//! For every loop with ≤ 6 ops and ≤ 6 vregs, enumerate *all* `banks^vregs`
//! partitions, find each one's minimum feasible II with the complete
//! fixed-II scheduler (itself exhaustive), and check that [`solve_joint`]
//! with an unlimited budget lands on exactly the global minimum and claims
//! optimality. A small corpus slice then checks the solver's invariants on
//! machine-generated loops.

use vliw_core::{insert_copies, Partition, PartitionConfig};
use vliw_ddg::build_ddg;
use vliw_governor::Budget;
use vliw_ir::{Loop, LoopBuilder, RegClass};
use vliw_joint::{schedule_fixed_ii, solve_joint, FixedIiOutcome, FixedIiStats, JointConfig};
use vliw_machine::{ClusterId, MachineDesc};
use vliw_sched::{verify_schedule, SchedProblem};

/// Minimum feasible II of `body` under `part`, by ascending exhaustive
/// fixed-II searches (capped; every tiny loop here closes far below it).
fn min_ii_of_partition(body: &Loop, machine: &MachineDesc, part: &Partition) -> u32 {
    let cl = insert_copies(body, part);
    let cddg = build_ddg(&cl.body, &machine.latencies);
    let problem = SchedProblem::clustered(&cl.body, machine, &cl.cluster_of);
    let mut stats = FixedIiStats::default();
    for ii in 1..=64 {
        match schedule_fixed_ii(&problem, &cddg, ii, &Budget::default(), &mut stats) {
            FixedIiOutcome::Found(s) => {
                verify_schedule(&problem, &cddg, &s).unwrap();
                return ii;
            }
            FixedIiOutcome::Infeasible => continue,
            FixedIiOutcome::TimedOut => unreachable!("the budget has no limit"),
        }
    }
    panic!("no II up to 64 for {}", body.name);
}

/// Global minimum II over every complete bank assignment.
fn brute_force_min_ii(body: &Loop, machine: &MachineDesc) -> u32 {
    let n_banks = machine.n_clusters();
    let n_vregs = body.n_vregs();
    assert!(n_vregs <= 6, "oracle is exponential in vregs");
    let mut best = u32::MAX;
    for mask in 0..n_banks.pow(n_vregs as u32) {
        let mut m = mask;
        let bank_of: Vec<ClusterId> = (0..n_vregs)
            .map(|_| {
                let b = ClusterId((m % n_banks) as u32);
                m /= n_banks;
                b
            })
            .collect();
        let part = Partition { bank_of, n_banks };
        best = best.min(min_ii_of_partition(body, machine, &part));
    }
    best
}

fn tiny_loops() -> Vec<Loop> {
    let mut out = Vec::new();

    // daxpy, unroll 1: 5 ops, 5 vregs.
    let mut b = LoopBuilder::new("tiny_daxpy");
    let x = b.array("x", RegClass::Float, 64);
    let y = b.array("y", RegClass::Float, 64);
    let a = b.live_in_float("a");
    let xv = b.load(x, 0, 1);
    let yv = b.load(y, 0, 1);
    let p = b.fmul(a, xv);
    let s = b.fadd(yv, p);
    b.store(y, 0, 1, s);
    out.push(b.finish(64));

    // Square-and-store chain: 3 ops, 2 vregs.
    let mut b = LoopBuilder::new("tiny_square");
    let x = b.array("x", RegClass::Float, 64);
    let v = b.load(x, 0, 1);
    let sq = b.fmul(v, v);
    b.store(x, 0, 1, sq);
    out.push(b.finish(64));

    // Recurrence s = a*s + x[i]: 3 ops, 4 vregs.
    let mut b = LoopBuilder::new("tiny_rec");
    let x = b.array("x", RegClass::Float, 64);
    let a = b.live_in_float("a");
    let s = b.live_in_float_val("s", 0.0);
    let xv = b.load(x, 0, 1);
    let t = b.fmul(a, s);
    b.fadd_into(s, t, xv);
    b.live_out(s);
    out.push(b.finish(64));

    // Two independent chains that want separate banks: 6 ops, 4 vregs.
    let mut b = LoopBuilder::new("tiny_twochain");
    let x = b.array("x", RegClass::Float, 64);
    let y = b.array("y", RegClass::Float, 64);
    let v1 = b.load(x, 0, 1);
    let m1 = b.fmul(v1, v1);
    b.store(x, 0, 1, m1);
    let v2 = b.load(y, 0, 1);
    let m2 = b.fadd(v2, v2);
    b.store(y, 0, 1, m2);
    out.push(b.finish(64));

    out
}

#[test]
fn joint_matches_brute_force_on_tiny_loops() {
    let machines = [
        MachineDesc::embedded(2, 1),
        MachineDesc::embedded(2, 2),
        MachineDesc::copy_unit(2, 1),
        MachineDesc::copy_unit(2, 2),
    ];
    for l in tiny_loops() {
        for machine in &machines {
            let oracle = brute_force_min_ii(&l, machine);
            let r = solve_joint(
                &l,
                machine,
                &PartitionConfig::default(),
                &JointConfig::default(),
            );
            assert!(
                r.optimal,
                "{} on {}: unlimited budget must close",
                l.name, machine.name
            );
            assert_eq!(
                r.ii, oracle,
                "{} on {}: joint said II={} but brute force found II={}",
                l.name, machine.name, r.ii, oracle
            );
            // The witness really schedules the copy-inserted body at that II.
            let cl = insert_copies(&l, &r.partition);
            let cddg = build_ddg(&cl.body, &machine.latencies);
            let problem = SchedProblem::clustered(&cl.body, machine, &cl.cluster_of);
            verify_schedule(&problem, &cddg, &r.schedule).unwrap();
        }
    }
}

#[test]
fn corpus_slice_invariants_hold() {
    // Machine-generated loops, tight budget: whatever happens, the contract
    // holds — witness verifies, II never loses to greedy, bounds are honest.
    let corpus = vliw_loopgen::corpus_with(&vliw_loopgen::CorpusSpec {
        n: 24,
        ..Default::default()
    });
    let machine = MachineDesc::embedded(4, 4);
    let cfg = JointConfig { budget_ms: 250 };
    for l in &corpus {
        let r = solve_joint(l, &machine, &PartitionConfig::default(), &cfg);
        assert!(r.ii <= r.greedy_ii, "{}: joint II regressed", l.name);
        assert!(r.lower_bound_ii <= r.ii, "{}: bound above answer", l.name);
        if r.optimal {
            assert_eq!(r.lower_bound_ii, r.ii, "{}: optimal but gapped", l.name);
        }
        let cl = insert_copies(l, &r.partition);
        let cddg = build_ddg(&cl.body, &machine.latencies);
        let problem = SchedProblem::clustered(&cl.body, &machine, &cl.cluster_of);
        assert_eq!(r.schedule.times.len(), cl.body.n_ops(), "{}", l.name);
        verify_schedule(&problem, &cddg, &r.schedule).unwrap();
    }
}
