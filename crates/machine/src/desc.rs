//! Machine descriptions: clusters, register banks, copy models.

use crate::latency::LatencyTable;
use std::fmt;

/// Identifier of a cluster (and of its register bank — they are one-to-one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Dense index of this cluster.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One cluster: a group of general-purpose functional units sharing a
/// register bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterDesc {
    /// Number of general-purpose functional units in the cluster.
    pub n_fus: usize,
    /// Integer registers in the bank (per-class capacity used by the
    /// Chaitin/Briggs allocator).
    pub int_regs: usize,
    /// Floating-point registers in the bank.
    pub float_regs: usize,
}

/// How cross-bank copies are supported (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyModel {
    /// Explicit copy operations scheduled on the destination cluster's
    /// functional units, consuming issue slots.
    Embedded,
    /// Dedicated copy hardware: `busses` system-wide busses, and
    /// `ports_per_cluster` extra register-bank ports per cluster through
    /// which incoming copies are written. A copy reserves one bus and one
    /// destination-cluster port for its issue cycle; no functional-unit slot
    /// is consumed.
    CopyUnit {
        /// System-wide copy busses (the paper uses one per cluster).
        busses: usize,
        /// Extra write ports per register bank devoted to incoming copies.
        ports_per_cluster: usize,
    },
}

impl CopyModel {
    /// True for the embedded-copies model.
    pub fn is_embedded(self) -> bool {
        matches!(self, CopyModel::Embedded)
    }
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDesc {
    /// Name for reports, e.g. `16w-4x4-copyunit`.
    pub name: String,
    /// The clusters. A monolithic machine is a single cluster.
    pub clusters: Vec<ClusterDesc>,
    /// Copy support. Irrelevant for a monolithic machine.
    pub copy_model: CopyModel,
    /// Operation latencies.
    pub latencies: LatencyTable,
}

impl MachineDesc {
    /// Default register-bank capacity per class, per functional unit in the
    /// cluster. The paper never states its bank sizes; 8 registers per class
    /// per FU (so 32+32 in a 4-FU cluster, 64+64 in an 8-FU cluster) keeps
    /// bank capacity proportional to the value traffic the cluster's units
    /// generate, and the paper-scale experiments never spill under it.
    pub const REGS_PER_CLASS_PER_FU: usize = 8;

    /// A `width`-wide machine with a single monolithic multi-ported bank —
    /// the "ideal" model every result is normalised against.
    pub fn monolithic(width: usize) -> Self {
        MachineDesc {
            name: format!("{width}w-ideal"),
            clusters: vec![ClusterDesc {
                n_fus: width,
                int_regs: Self::REGS_PER_CLASS_PER_FU * width,
                float_regs: Self::REGS_PER_CLASS_PER_FU * width,
            }],
            copy_model: CopyModel::Embedded,
            latencies: LatencyTable::paper(),
        }
    }

    /// `n_clusters` clusters of `fus_per_cluster` units each, embedded-copy
    /// model, paper latencies.
    pub fn embedded(n_clusters: usize, fus_per_cluster: usize) -> Self {
        MachineDesc {
            name: format!(
                "{}w-{}x{}-embedded",
                n_clusters * fus_per_cluster,
                n_clusters,
                fus_per_cluster
            ),
            clusters: vec![
                ClusterDesc {
                    n_fus: fus_per_cluster,
                    int_regs: Self::REGS_PER_CLASS_PER_FU * fus_per_cluster,
                    float_regs: Self::REGS_PER_CLASS_PER_FU * fus_per_cluster,
                };
                n_clusters
            ],
            copy_model: CopyModel::Embedded,
            latencies: LatencyTable::paper(),
        }
    }

    /// `n_clusters` clusters of `fus_per_cluster` units each, copy-unit
    /// model: `n_clusters` busses and `log2(n_clusters)` copy ports per bank.
    ///
    /// The per-cluster port count reconstructs the paper's (OCR-garbled)
    /// formula from its worked consequences: §6.2 states 1 port per cluster
    /// on the 2-cluster machine and 3 ports per cluster on the 8-cluster
    /// machine, i.e. `log2(N)`.
    pub fn copy_unit(n_clusters: usize, fus_per_cluster: usize) -> Self {
        let ports = Self::copy_ports_for(n_clusters);
        MachineDesc {
            name: format!(
                "{}w-{}x{}-copyunit",
                n_clusters * fus_per_cluster,
                n_clusters,
                fus_per_cluster
            ),
            clusters: vec![
                ClusterDesc {
                    n_fus: fus_per_cluster,
                    int_regs: Self::REGS_PER_CLASS_PER_FU * fus_per_cluster,
                    float_regs: Self::REGS_PER_CLASS_PER_FU * fus_per_cluster,
                };
                n_clusters
            ],
            copy_model: CopyModel::CopyUnit {
                busses: n_clusters,
                ports_per_cluster: ports,
            },
            latencies: LatencyTable::paper(),
        }
    }

    /// Copy ports per cluster for an `n`-cluster copy-unit machine:
    /// `log2(n)`, clamped to at least 1.
    pub fn copy_ports_for(n_clusters: usize) -> usize {
        (usize::BITS - 1 - n_clusters.max(2).leading_zeros()) as usize
    }

    /// The three 16-wide clustered models evaluated in §6 (2×8, 4×4, 8×2),
    /// under the given copy model kind.
    pub fn paper_models(embedded: bool) -> Vec<MachineDesc> {
        [(2, 8), (4, 4), (8, 2)]
            .into_iter()
            .map(|(n, m)| {
                if embedded {
                    Self::embedded(n, m)
                } else {
                    Self::copy_unit(n, m)
                }
            })
            .collect()
    }

    /// Total issue width (functional units across all clusters).
    pub fn issue_width(&self) -> usize {
        self.clusters.iter().map(|c| c.n_fus).sum()
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Is this a single monolithic bank?
    pub fn is_monolithic(&self) -> bool {
        self.clusters.len() == 1
    }

    /// Functional units in cluster `c`.
    pub fn fus_in(&self, c: ClusterId) -> usize {
        self.clusters[c.index()].n_fus
    }

    /// Iterate over cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters.len() as u32).map(ClusterId)
    }

    /// Replace the latency table (builder-style).
    pub fn with_latencies(mut self, lat: LatencyTable) -> Self {
        self.latencies = lat;
        self
    }

    /// Replace per-class register capacity in every bank (builder-style).
    pub fn with_regs_per_bank(mut self, int_regs: usize, float_regs: usize) -> Self {
        for c in &mut self.clusters {
            c.int_regs = int_regs;
            c.float_regs = float_regs;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_shape() {
        let m = MachineDesc::monolithic(16);
        assert!(m.is_monolithic());
        assert_eq!(m.issue_width(), 16);
        assert_eq!(m.n_clusters(), 1);
    }

    #[test]
    fn paper_models_are_16_wide() {
        for emb in [true, false] {
            let models = MachineDesc::paper_models(emb);
            assert_eq!(models.len(), 3);
            for m in &models {
                assert_eq!(m.issue_width(), 16, "{}", m.name);
                assert_eq!(m.copy_model.is_embedded(), emb);
            }
            assert_eq!(models[0].n_clusters(), 2);
            assert_eq!(models[1].n_clusters(), 4);
            assert_eq!(models[2].n_clusters(), 8);
        }
    }

    #[test]
    fn copy_ports_match_section_6_2() {
        // §6.2: 1 port/cluster at N=2, 3 ports/cluster at N=8.
        assert_eq!(MachineDesc::copy_ports_for(2), 1);
        assert_eq!(MachineDesc::copy_ports_for(4), 2);
        assert_eq!(MachineDesc::copy_ports_for(8), 3);
    }

    #[test]
    fn copy_unit_has_one_bus_per_cluster() {
        let m = MachineDesc::copy_unit(4, 4);
        match m.copy_model {
            CopyModel::CopyUnit {
                busses,
                ports_per_cluster,
            } => {
                assert_eq!(busses, 4);
                assert_eq!(ports_per_cluster, 2);
            }
            _ => panic!("expected copy-unit model"),
        }
    }

    #[test]
    fn builders_modify_in_place() {
        let m = MachineDesc::embedded(2, 8)
            .with_latencies(LatencyTable::unit())
            .with_regs_per_bank(16, 8);
        assert_eq!(m.latencies, LatencyTable::unit());
        assert!(m.clusters.iter().all(|c| c.int_regs == 16));
        assert!(m.clusters.iter().all(|c| c.float_regs == 8));
    }

    #[test]
    fn cluster_ids_are_dense() {
        let m = MachineDesc::embedded(8, 2);
        let ids: Vec<_> = m.cluster_ids().collect();
        assert_eq!(ids.len(), 8);
        assert_eq!(ids[0], ClusterId(0));
        assert_eq!(ids[7], ClusterId(7));
        assert_eq!(m.fus_in(ClusterId(3)), 2);
    }
}
