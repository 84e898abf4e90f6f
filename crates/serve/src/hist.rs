//! Lock-free log-linear latency histograms.
//!
//! The serve tier used to keep a mutex-guarded ring of raw latency samples
//! and sort a copy per snapshot; that had two problems the reactor core
//! makes acute. First, every request took the mutex on the hot path.
//! Second — worse — percentiles of a ring cannot be merged across peers,
//! so the sharded `stats --aggregate` view "merged" them by taking the max,
//! which systematically overstates the fleet-wide p50/p99.
//!
//! [`Hist`] fixes both: values land in fixed log-linear buckets
//! (`fetch_add` on a relaxed atomic, no lock), and bucket counts are
//! additive, so any number of peers' histograms sum into one honest
//! distribution. Resolution is exact below `LINEAR_MAX` and within
//! 1/`SUB_BUCKETS` (≈6%) above it, which is far inside the noise floor
//! of a latency percentile.
//!
//! Bucket layout (values are `u64` microseconds, but the type is unit-
//! agnostic): values `< 32` map to bucket `v` exactly; above that, each
//! power-of-two octave splits into 16 equal sub-buckets. A bucket's
//! reported value is its midpoint.

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this land in exact single-value buckets.
const LINEAR_MAX: u64 = 32;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BUCKETS: usize = 16;
/// Octaves covered above the linear range (up to `32 * 2^31`, ~19 hours in
/// microseconds); larger values clamp into the top bucket.
const OCTAVES: usize = 32;
/// Total bucket count.
pub const NBUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUB_BUCKETS;

/// Bucket index for a value.
fn index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // v >= 32, so the leading bit is at position >= 5.
    let lz = 63 - v.leading_zeros() as usize; // v in [2^lz, 2^(lz+1))
    let octave = (lz - 5).min(OCTAVES - 1);
    let sub = if octave == OCTAVES - 1 && lz - 5 >= OCTAVES {
        SUB_BUCKETS - 1 // clamp: beyond the covered range
    } else {
        ((v >> (lz - 4)) & 0xF) as usize
    };
    LINEAR_MAX as usize + octave * SUB_BUCKETS + sub
}

/// The midpoint value a bucket reports.
fn midpoint(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_MAX as usize;
    let octave = rel / SUB_BUCKETS;
    let sub = (rel % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave + 1); // octave range / SUB_BUCKETS
    let lo = (1u64 << (octave + 5)) + sub * width;
    lo + width / 2
}

/// A fixed-size, lock-free histogram.
pub struct Hist {
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
        }
    }

    /// Record one value (relaxed atomics; safe from any thread).
    pub fn record(&self, v: u64) {
        self.buckets[index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The `p`-quantile (0.0..=1.0) of the recorded distribution, or 0 when
    /// empty. Reported as the containing bucket's midpoint.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        percentile_of(&counts, p)
    }

    /// Sparse `(bucket, count)` pairs for the wire (only non-empty buckets).
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect()
    }
}

/// Percentile over a dense bucket-count array (shared by [`Hist`] and the
/// merged multi-peer path). Matches the nearest-rank convention the old
/// sorted-ring implementation used: the element at index
/// `round((n-1) * p)` of the sorted sample list.
pub fn percentile_of(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen > rank {
            return midpoint(i);
        }
    }
    midpoint(NBUCKETS - 1)
}

/// Fold sparse `(bucket, count)` pairs from one peer into a dense
/// accumulator (out-of-range indices are ignored rather than trusted).
pub fn merge_sparse(acc: &mut [u64; NBUCKETS], sparse: &[(u32, u64)]) {
    for &(i, c) in sparse {
        if let Some(slot) = acc.get_mut(i as usize) {
            *slot = slot.saturating_add(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_linear_max() {
        let h = Hist::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        assert_eq!(h.count(), LINEAR_MAX);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), LINEAR_MAX - 1);
    }

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        // index() must be monotone non-decreasing in v, and midpoint(index(v))
        // must stay within ~7% of v across the whole range.
        let mut last = 0usize;
        let mut v = 1u64;
        while v < 1 << 40 {
            let i = index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < NBUCKETS);
            last = i;
            if v < 1 << 36 {
                // Inside the covered range the midpoint tracks the value;
                // beyond it values clamp into the top bucket.
                let mid = midpoint(i);
                let err = (mid as f64 - v as f64).abs() / v as f64;
                assert!(err <= 0.07, "v={v} mid={mid} err={err}");
            }
            v = v * 13 / 11 + 1;
        }
    }

    #[test]
    fn percentiles_of_uniform_1_to_100() {
        let h = Hist::new();
        for v in 1..=100 {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!((49..=51).contains(&p50), "p50={p50}");
        assert!((89..=91).contains(&p90), "p90={p90}");
        assert!((98..=100).contains(&p99), "p99={p99}");
    }

    #[test]
    fn huge_values_clamp_into_top_bucket() {
        let h = Hist::new();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) > 1u64 << 35);
    }

    #[test]
    fn sparse_merge_reproduces_the_sum_distribution() {
        let a = Hist::new();
        let b = Hist::new();
        for v in 1..=50 {
            a.record(v);
        }
        for v in 51..=100 {
            b.record(v);
        }
        let mut acc = [0u64; NBUCKETS];
        merge_sparse(&mut acc, &a.sparse());
        merge_sparse(&mut acc, &b.sparse());
        let merged_p50 = percentile_of(&acc, 0.50);
        assert!(
            (49..=51).contains(&merged_p50),
            "merged p50={merged_p50} (max-merge would have said ~75)"
        );
        // A bogus out-of-range bucket index is dropped, not a panic.
        merge_sparse(&mut acc, &[(u32::MAX, 5)]);
        assert_eq!(percentile_of(&acc, 0.50), merged_p50);
    }

    #[test]
    fn empty_hist_reports_zero() {
        let h = Hist::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.count(), 0);
    }
}
