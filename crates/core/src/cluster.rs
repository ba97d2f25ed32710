//! Cluster summaries — the unit Phase I hands to Phase II.

use crate::acf::Acf;
use crate::bbox::BoundingBox;
use crate::schema::SetId;
use std::fmt;

/// Globally unique cluster identifier within one mining run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A discovered cluster `C_X`: its identifier, home attribute set, and ACF
/// summary (which embeds the home bounding box used for descriptions).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Unique id within the mining run.
    pub id: ClusterId,
    /// The attribute set the cluster is defined on.
    pub set: SetId,
    /// The association clustering feature summarizing the member tuples.
    pub acf: Acf,
}

impl ClusterSummary {
    /// Numbers per-set cluster lists with sequential ids in set order,
    /// set 0's clusters first. Every producer of cluster lists numbers
    /// them this way, so ids and rule keys compare across the one-shot
    /// pipeline, engine epochs and snapshots.
    pub fn number(per_set: impl IntoIterator<Item = Vec<Acf>>) -> Vec<ClusterSummary> {
        let mut clusters = Vec::new();
        for (set, acfs) in per_set.into_iter().enumerate() {
            for acf in acfs {
                clusters.push(ClusterSummary { id: ClusterId(clusters.len() as u32), set, acf });
            }
        }
        clusters
    }

    /// Number of member tuples (`|C_X|`, the frequency of Dfn 4.2).
    pub fn support(&self) -> u64 {
        self.acf.n()
    }

    /// Home-set diameter (the density measure of Dfn 4.2).
    pub fn diameter(&self) -> f64 {
        self.acf.diameter()
    }

    /// Smallest bounding box on the home set.
    pub fn bbox(&self) -> &BoundingBox {
        self.acf.bbox()
    }

    /// Whether the cluster meets the frequency threshold `|C_X| ≥ s0`.
    pub fn is_frequent(&self, s0: u64) -> bool {
        self.support() >= s0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::AcfLayout;

    #[test]
    fn summary_accessors() {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, 0);
        acf.add_row(&[1.0, 5.0]);
        acf.add_row(&[2.0, 6.0]);
        let c = ClusterSummary { id: ClusterId(7), set: 0, acf };
        assert_eq!(c.support(), 2);
        assert!(c.is_frequent(2));
        assert!(!c.is_frequent(3));
        assert!((c.diameter() - 1.0).abs() < 1e-12);
        assert_eq!(c.bbox().interval(0).lo, 1.0);
        assert_eq!(c.id.to_string(), "c7");
    }
}
