//! Flat code expansion: prelude, kernel, postlude.
//!
//! A modulo schedule issues operation `o` of iteration `i` at cycle
//! `i·II + time(o)`. Expanding that over the loop's trip count yields the
//! flat instruction stream of §2: `(SC−1)·II` cycles of prelude filling the
//! pipeline, a steady-state kernel executed while whole iterations overlap,
//! and a postlude draining the final `SC−1` stages (SC = stage count).

use crate::schedule::Schedule;
use vliw_ir::{Loop, OpId};

/// One issued operation instance in the flat program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// Which body operation.
    pub op: OpId,
    /// Which loop iteration it belongs to.
    pub iter: u32,
}

/// The fully expanded (prelude + kernel repetitions + postlude) program.
///
/// One flat issue list, cycle after cycle, plus one offset per cycle:
/// cycle `c` issues `issues[starts[c]..starts[c + 1]]`, in (iteration, op)
/// order. `starts` holds one entry per cycle plus a final one equal to
/// `issues.len()` (it is empty, like `issues`, for a zero-trip loop).
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// Every issued operation instance, grouped by cycle.
    pub issues: Vec<Issue>,
    /// Offset of each cycle's first issue in `issues`, then `issues.len()`.
    pub starts: Vec<u32>,
    /// The initiation interval the program was expanded from.
    pub ii: u32,
    /// Pipeline stage count.
    pub stage_count: u32,
    /// Cycles of prelude before the first steady-state kernel instruction
    /// (0 when the trip count is too small for the pipeline to fill).
    pub prelude_cycles: usize,
    /// Number of steady-state kernel repetitions.
    pub kernel_reps: u32,
}

impl FlatProgram {
    /// Total cycle count of the expanded program.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True when no cycles were generated (zero-trip loop).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total dynamic operation count.
    pub fn n_issues(&self) -> usize {
        self.issues.len()
    }

    /// True when `starts` is a layout of `issues`: empty with no issues,
    /// or from 0 to `issues.len()` without stepping back. [`expand`]
    /// always builds one; the lint that audits an expansion checks it
    /// before slicing.
    pub fn is_well_formed(&self) -> bool {
        match (self.starts.first(), self.starts.last()) {
            (None, None) => self.issues.is_empty(),
            (Some(&first), Some(&last)) => {
                first == 0
                    && last as usize == self.issues.len()
                    && self.starts.windows(2).all(|w| w[0] <= w[1])
            }
            _ => unreachable!("first and last exist together"),
        }
    }

    /// Every cycle's issues, in cycle order.
    pub fn cycles(&self) -> impl ExactSizeIterator<Item = &[Issue]> + '_ {
        self.starts
            .windows(2)
            .map(move |w| &self.issues[w[0] as usize..w[1] as usize])
    }
}

/// Expand `s` over `body.trip_count` iterations.
///
/// Counts the issues of each cycle, turns the counts into offsets, then
/// fills each cycle's slots with its (iteration, op) instances: two
/// allocations, whatever the trip count. `s` must be a schedule of `body`
/// with II ≥ 1 and no negative issue time (what `verify_schedule`
/// accepts), and the program may hold at most `u32::MAX` issues.
pub fn expand(body: &Loop, s: &Schedule) -> FlatProgram {
    let trip = body.trip_count;
    let sc = s.stage_count();
    if trip == 0 || body.n_ops() == 0 {
        return FlatProgram {
            issues: Vec::new(),
            starts: Vec::new(),
            ii: s.ii,
            stage_count: sc,
            prelude_cycles: 0,
            kernel_reps: 0,
        };
    }
    let n_issues = u32::try_from(s.times.len() as u64 * trip as u64)
        .expect("a flat program holds at most u32::MAX issues");
    // Last issue happens at (trip-1)·II + max(time).
    let max_t = s.times.iter().copied().max().unwrap_or(0);
    let total = ((trip as i64 - 1) * s.ii as i64 + max_t + 1) as usize;
    let ii = s.ii as usize;
    // Running sums of the per-cycle counts give each cycle's end; placing
    // the instances last to first walks every end back to its start, so
    // each cycle keeps (iteration, op) order.
    let mut starts = vec![0u32; total + 1];
    for &t in &s.times {
        for iter in 0..trip as usize {
            starts[iter * ii + t as usize] += 1;
        }
    }
    let mut acc = 0u32;
    for c in &mut starts[..total] {
        acc += *c;
        *c = acc;
    }
    starts[total] = n_issues;
    let mut issues = vec![
        Issue {
            op: OpId(0),
            iter: 0
        };
        n_issues as usize
    ];
    for iter in (0..trip).rev() {
        for (i, &t) in s.times.iter().enumerate().rev() {
            let c = iter as usize * ii + t as usize;
            starts[c] -= 1;
            issues[starts[c] as usize] = Issue {
                op: OpId(i as u32),
                iter,
            };
        }
    }
    let (prelude_cycles, kernel_reps) = if trip >= sc {
        (((sc - 1) * s.ii) as usize, trip - sc + 1)
    } else {
        (0, 0)
    };
    FlatProgram {
        issues,
        starts,
        ii: s.ii,
        stage_count: sc,
        prelude_cycles,
        kernel_reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::ClusterId;

    /// The expansion [`expand`] replaced, kept as its oracle: one vector of
    /// issues per cycle, filled iteration by iteration.
    fn expand_per_cycle(body: &Loop, s: &Schedule) -> Vec<Vec<Issue>> {
        let trip = body.trip_count;
        if trip == 0 || body.n_ops() == 0 {
            return Vec::new();
        }
        let max_t = s.times.iter().copied().max().unwrap_or(0);
        let total = (trip as i64 - 1) * s.ii as i64 + max_t + 1;
        let mut cycles: Vec<Vec<Issue>> = vec![Vec::new(); total as usize];
        for iter in 0..trip {
            for (i, &t) in s.times.iter().enumerate() {
                let cycle = iter as i64 * s.ii as i64 + t;
                cycles[cycle as usize].push(Issue {
                    op: OpId(i as u32),
                    iter,
                });
            }
        }
        cycles
    }

    fn assert_matches_oracle(body: &Loop, s: &Schedule, what: &str) {
        let p = expand(body, s);
        let want = expand_per_cycle(body, s);
        assert!(p.is_well_formed(), "{what}");
        assert_eq!(p.len(), want.len(), "{what}: cycle count");
        for (c, (got, want)) in p.cycles().zip(&want).enumerate() {
            assert_eq!(got, &want[..], "{what}: cycle {c}");
        }
        assert_eq!(p.n_issues(), want.iter().map(Vec::len).sum::<usize>());
    }

    /// Both schedules of every corpus loop on the six paper machines: the
    /// ideal one of the body and the clustered one of the copy-inserted
    /// body, each expanded at the loop's own trip count.
    #[test]
    fn flat_expansion_matches_the_per_cycle_oracle() {
        use vliw_core::{assign_banks_caps, build_rcg, insert_copies, LoopContext};
        let mut machines = vliw_machine::MachineDesc::paper_models(true);
        machines.extend(vliw_machine::MachineDesc::paper_models(false));
        let cfg = vliw_core::PartitionConfig::default();
        for m in &machines {
            let caps: Vec<usize> = m.clusters.iter().map(|c| c.n_fus).collect();
            for l in &vliw_loopgen::corpus() {
                let ctx = LoopContext::new(l, m);
                // The context's schedule comes from vliw-core's own build of
                // this crate; rebuild it from its fields.
                let ideal = Schedule {
                    ii: ctx.ideal.ii,
                    times: ctx.ideal.times.clone(),
                    clusters: ctx.ideal.clusters.clone(),
                };
                assert_matches_oracle(l, &ideal, &l.name);
                let rcg = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
                let c = insert_copies(l, &assign_banks_caps(&rcg, &caps, &cfg));
                let cddg = vliw_ddg::build_ddg(&c.body, &m.latencies);
                let problem = crate::SchedProblem::clustered(&c.body, m, &c.cluster_of);
                let s = crate::schedule_loop(&problem, &cddg, &crate::ImsConfig::default())
                    .expect("clustered schedules");
                let what = format!("{} clustered on {}", l.name, m.name);
                assert_matches_oracle(&c.body, &s, &what);
            }
        }
    }

    fn body(n_ops: usize, trip: u32) -> Loop {
        let mut b = vliw_ir::LoopBuilder::new("e");
        for _ in 0..n_ops {
            b.fconst_new(1.0);
        }
        b.finish(trip)
    }

    fn sched(ii: u32, times: Vec<i64>) -> Schedule {
        let clusters = vec![ClusterId(0); times.len()];
        Schedule {
            ii,
            times,
            clusters,
        }
    }

    #[test]
    fn expansion_covers_every_issue() {
        let l = body(3, 5);
        let s = sched(2, vec![0, 1, 3]);
        let p = expand(&l, &s);
        assert_eq!(p.n_issues(), 15);
        // length = 4·2 + 3 + 1 = 12
        assert_eq!(p.len(), 12);
        // stage count = floor(3/2)+1 = 2; prelude = 1·2 = 2 cycles.
        assert_eq!(p.stage_count, 2);
        assert_eq!(p.prelude_cycles, 2);
        assert_eq!(p.kernel_reps, 4);
        // First cycle issues op0 of iteration 0 only.
        assert_eq!(
            p.cycles().next().unwrap(),
            [Issue {
                op: OpId(0),
                iter: 0
            }]
        );
        // Cycle 2 overlaps iteration 1's op0 with iteration 0's op... op2 of
        // iter 0 issues at cycle 3; cycle 2 has op0/iter1 only.
        assert_eq!(
            p.cycles().nth(2).unwrap(),
            [Issue {
                op: OpId(0),
                iter: 1
            }]
        );
        assert!(p.cycles().nth(3).unwrap().contains(&Issue {
            op: OpId(2),
            iter: 0
        }));
        assert!(p.cycles().nth(3).unwrap().contains(&Issue {
            op: OpId(1),
            iter: 1
        }));
    }

    #[test]
    fn short_trip_never_fills_pipeline() {
        let l = body(2, 1);
        let s = sched(1, vec![0, 4]); // 5 stages
        let p = expand(&l, &s);
        assert_eq!(p.kernel_reps, 0);
        assert_eq!(p.prelude_cycles, 0);
        assert_eq!(p.n_issues(), 2);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn zero_trip_is_empty() {
        let l = body(2, 0);
        let s = sched(1, vec![0, 1]);
        let p = expand(&l, &s);
        assert!(p.is_empty());
    }

    #[test]
    fn issues_ordered_by_cycle() {
        let l = body(4, 3);
        let s = sched(3, vec![0, 1, 2, 5]);
        let p = expand(&l, &s);
        // Every issue's cycle matches iter·II + time.
        for (c, issues) in p.cycles().enumerate() {
            for iss in issues {
                assert_eq!(
                    c as i64,
                    iss.iter as i64 * 3 + s.time(iss.op),
                    "misplaced issue"
                );
            }
        }
    }
}
