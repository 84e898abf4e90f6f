//! The interactive and heavy lanes, and the one rule between them.
//!
//! A lane is chosen from what a request decodes to, once every cache tier
//! has missed: a hit needs no lane of its own, however hard the instance
//! behind it. An exact or joint solve with at least
//! [`HEAVY_VREG_THRESHOLD`] virtual registers is heavy; every other miss,
//! a smaller solve included, is interactive. The ≤12-vreg slice closes in
//! milliseconds, so only the larger instances deserve isolation.

/// Exact/joint requests with at least this many vregs are heavy (the
/// smaller slice closes optimally in ~15 ms).
pub const HEAVY_VREG_THRESHOLD: usize = 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Interactive,
    Heavy,
}

impl Lane {
    pub fn as_str(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Heavy => "heavy",
        }
    }
}

/// The lane rule, on a decoded request: whether it runs an exact or joint
/// solve, and how many vregs its loop has. `None` when there is no solve
/// (such a miss runs on the interactive lane with no pool grant);
/// otherwise the lane the solve runs on and draws its grant against.
pub fn solve_lane(solves: bool, n_vregs: usize) -> Option<Lane> {
    match (solves, n_vregs >= HEAVY_VREG_THRESHOLD) {
        (false, _) => None,
        (true, false) => Some(Lane::Interactive),
        (true, true) => Some(Lane::Heavy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_or_greedy_requests_are_interactive() {
        assert_eq!(solve_lane(false, 40), None, "greedy never solves");
        assert_eq!(solve_lane(true, 8), Some(Lane::Interactive));
        assert_eq!(
            solve_lane(true, HEAVY_VREG_THRESHOLD - 1),
            Some(Lane::Interactive)
        );
    }

    #[test]
    fn big_exact_and_joint_requests_are_heavy() {
        assert_eq!(solve_lane(true, 25), Some(Lane::Heavy));
        assert_eq!(solve_lane(true, HEAVY_VREG_THRESHOLD), Some(Lane::Heavy));
    }
}
