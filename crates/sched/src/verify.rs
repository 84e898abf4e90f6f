//! Legality checking for modulo schedules — the oracle the property tests
//! and the end-to-end pipeline lean on.

use crate::mrt::ModuloReservationTable;
use crate::problem::{OpPlacement, SchedProblem};
use crate::schedule::Schedule;
use std::fmt;
use vliw_ddg::Ddg;
use vliw_ir::OpId;

/// A legality violation in a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Wrong number of entries.
    Shape,
    /// The initiation interval is 0: no kernel row exists.
    ZeroIi,
    /// An issue time is negative.
    NegativeTime(OpId),
    /// A dependence edge is violated modulo II.
    Dependence {
        /// Source op of the violated edge.
        from: OpId,
        /// Sink op of the violated edge.
        to: OpId,
        /// Required minimum separation in cycles.
        need: i64,
        /// Actual separation in cycles.
        got: i64,
    },
    /// A kernel row over-subscribes a resource.
    Resource(OpId),
    /// An op landed on a cluster other than its pinned one.
    WrongCluster(OpId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Shape => write!(f, "schedule shape mismatch"),
            ScheduleError::ZeroIi => write!(f, "initiation interval is 0"),
            ScheduleError::NegativeTime(o) => write!(f, "{o} scheduled at negative time"),
            ScheduleError::Dependence {
                from,
                to,
                need,
                got,
            } => write!(
                f,
                "dependence {from}→{to} violated: need separation {need}, got {got}"
            ),
            ScheduleError::Resource(o) => write!(f, "{o} over-subscribes a resource"),
            ScheduleError::WrongCluster(o) => write!(f, "{o} placed on the wrong cluster"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Check that `s` is a legal modulo schedule for `problem` under `ddg`,
/// stopping at the first violation.
pub fn verify_schedule(
    problem: &SchedProblem<'_>,
    ddg: &Ddg,
    s: &Schedule,
) -> Result<(), ScheduleError> {
    match verify_schedule_all(problem, ddg, s).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Collect **every** legality violation of `s`, in a stable order: shape,
/// a zero II, negative times, dependences, then resource/cluster replay
/// (skipped under a zero II or a negative time, where rows are undefined).
/// The lint framework (`vliw-analysis`) reports through this so one
/// corrupted schedule yields its full list of findings rather than just
/// the first.
pub fn verify_schedule_all(
    problem: &SchedProblem<'_>,
    ddg: &Ddg,
    s: &Schedule,
) -> Vec<ScheduleError> {
    let n = problem.n_ops();
    if s.times.len() != n || s.clusters.len() != n || ddg.n_ops() != n {
        return vec![ScheduleError::Shape];
    }
    let mut out = Vec::new();
    if s.ii == 0 {
        out.push(ScheduleError::ZeroIi);
    }
    let mut any_negative = false;
    for (i, &t) in s.times.iter().enumerate() {
        if t < 0 {
            any_negative = true;
            out.push(ScheduleError::NegativeTime(OpId(i as u32)));
        }
    }
    // Dependences: cycle(to) ≥ cycle(from) + latency − II·distance.
    for e in ddg.edges() {
        let need = e.latency - (s.ii as i64) * (e.distance as i64);
        let got = s.time(e.to) - s.time(e.from);
        if got < need {
            out.push(ScheduleError::Dependence {
                from: e.from,
                to: e.to,
                need,
                got,
            });
        }
    }
    // Resources: replay every placement into a fresh MRT. Skipped when II
    // is 0 or any issue time is negative — rows are undefined there.
    if s.ii == 0 || any_negative {
        return out;
    }
    let mut mrt = ModuloReservationTable::new(problem.machine, s.ii, n);
    for i in 0..n {
        let op = OpId(i as u32);
        let placement = problem.placement[i];
        // The op must sit on its recorded cluster; for pinned placements the
        // recorded cluster must equal the pin.
        match placement {
            OpPlacement::FuIn(c) | OpPlacement::CopyVia(c) => {
                if s.cluster(op) != c {
                    out.push(ScheduleError::WrongCluster(op));
                }
            }
            OpPlacement::AnyFu => {}
        }
        // Re-place pinned to the recorded cluster so capacity counts match.
        let eff = match placement {
            OpPlacement::AnyFu => OpPlacement::FuIn(s.cluster(op)),
            other => other,
        };
        // An op that doesn't fit is reported and left unplaced, so the ops
        // after it are judged against the legally placed prefix.
        if mrt.fits(eff, s.time(op)).is_none() {
            out.push(ScheduleError::Resource(op));
        } else {
            mrt.place(op, eff, s.time(op));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::build_ddg;
    use vliw_ir::{LoopBuilder, RegClass};
    use vliw_machine::{ClusterId, MachineDesc};

    fn setup() -> (vliw_ir::Loop, MachineDesc) {
        let mut b = LoopBuilder::new("v");
        let x = b.array("x", RegClass::Float, 64);
        let v = b.load(x, 0, 1);
        let c = b.fconst_new(2.0);
        let m = b.fmul(v, c);
        b.store(x, 0, 1, m);
        (b.finish(64), MachineDesc::monolithic(4))
    }

    #[test]
    fn catches_dependence_violation() {
        let (l, m) = setup();
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        // fmul at 0 but its load also at 0: violates load latency 2.
        let s = Schedule {
            ii: 4,
            times: vec![0, 0, 0, 5],
            clusters: vec![ClusterId(0); 4],
        };
        assert!(matches!(
            verify_schedule(&p, &g, &s),
            Err(ScheduleError::Dependence { .. })
        ));
    }

    #[test]
    fn catches_resource_overflow() {
        let (l, m1) = setup();
        let m = MachineDesc::monolithic(1); // 1-wide
        let _ = m1;
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        // Two ops share row 0 of a 1-wide machine (times 0 and 0, ii 4).
        let s = Schedule {
            ii: 4,
            times: vec![0, 0, 2, 7],
            clusters: vec![ClusterId(0); 4],
        };
        assert!(matches!(
            verify_schedule(&p, &g, &s),
            Err(ScheduleError::Resource(_))
        ));
    }

    #[test]
    fn accepts_legal_schedule() {
        let (l, m) = setup();
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let s = Schedule {
            ii: 1,
            times: vec![0, 0, 2, 4],
            clusters: vec![ClusterId(0); 4],
        };
        // ii=1, 4-wide: row 0 holds all four ops — fits.
        verify_schedule(&p, &g, &s).unwrap();
    }

    #[test]
    fn zero_ii_is_reported_not_divided_by() {
        let (l, m) = setup();
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let s = Schedule {
            ii: 0,
            times: vec![0, 0, 2, 4],
            clusters: vec![ClusterId(0); 4],
        };
        let errs = verify_schedule_all(&p, &g, &s);
        assert_eq!(errs.first(), Some(&ScheduleError::ZeroIi));
        assert!(!errs.iter().any(|e| matches!(e, ScheduleError::Resource(_))));
    }

    #[test]
    fn catches_wrong_cluster() {
        let (l, _) = setup();
        let m = MachineDesc::embedded(2, 2);
        let g = build_ddg(&l, &m.latencies);
        let pins = vec![ClusterId(1); 4];
        let p = SchedProblem::clustered(&l, &m, &pins);
        let s = Schedule {
            ii: 2,
            times: vec![0, 0, 2, 4],
            clusters: vec![ClusterId(0); 4], // recorded on the wrong cluster
        };
        assert!(matches!(
            verify_schedule(&p, &g, &s),
            Err(ScheduleError::WrongCluster(_))
        ));
    }
}
