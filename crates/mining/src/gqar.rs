//! Generalized quantitative association rules (Definition 4.4, Section 4.3).
//!
//! The intermediate formulation between classical rules and DARs: Phase I
//! clusters become *items*, each tuple is assigned to the nearest cluster
//! per attribute set ([`crate::assign`]), and the classical Apriori engine
//! mines the resulting transactions with plain support/confidence. This is
//! "classical association rules over interval data" — it meets Goal 1 but
//! not Goals 2/3, which is exactly the gap DARs close (Section 5).

use crate::assign::CentroidIndex;
use classic::{apriori, generate_rules, AprioriConfig, ItemId, TransactionSet};
use dar_core::{ClusterSummary, Partitioning, Relation};

/// Configuration of the GQAR miner.
#[derive(Debug, Clone, PartialEq)]
pub struct GqarConfig {
    /// Absolute minimum support for cluster itemsets.
    pub min_support: u64,
    /// Minimum rule confidence.
    pub min_confidence: f64,
    /// Cap on itemset size (0 = unbounded).
    pub max_len: usize,
}

impl Default for GqarConfig {
    fn default() -> Self {
        GqarConfig { min_support: 2, min_confidence: 0.5, max_len: 4 }
    }
}

/// A generalized quantitative association rule: cluster indices (into the
/// caller's cluster slice) with classical support/confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct GqarRule {
    /// Antecedent cluster positions.
    pub antecedent: Vec<usize>,
    /// Consequent cluster positions.
    pub consequent: Vec<usize>,
    /// Absolute support of the combined itemset.
    pub support: u64,
    /// Classical confidence.
    pub confidence: f64,
}

/// Mines GQARs: assigns every tuple to its nearest cluster per attribute
/// set, then runs Apriori + rule generation over the cluster items.
pub fn mine_gqar(
    relation: &Relation,
    partitioning: &Partitioning,
    clusters: &[ClusterSummary],
    config: &GqarConfig,
) -> Vec<GqarRule> {
    if relation.is_empty() || clusters.is_empty() {
        return Vec::new();
    }
    let indexes: Vec<CentroidIndex> = (0..partitioning.num_sets())
        .map(|set| CentroidIndex::new(clusters, set, partitioning.set(set).metric))
        .collect();

    let mut tx = TransactionSet::new();
    let mut buf = Vec::new();
    let mut items = Vec::new();
    for row in 0..relation.len() {
        items.clear();
        for (set, index) in indexes.iter().enumerate() {
            relation.project_into(row, &partitioning.set(set).attrs, &mut buf);
            if let Some((pos, _)) = index.nearest(&buf) {
                items.push(ItemId(pos as u32));
            }
        }
        tx.push(items.clone());
    }

    let freq =
        apriori(&tx, &AprioriConfig { min_support: config.min_support, max_len: config.max_len });
    generate_rules(&freq, config.min_confidence)
        .into_iter()
        .map(|r| GqarRule {
            antecedent: r.antecedent.iter().map(|i| i.0 as usize).collect(),
            consequent: r.consequent.iter().map(|i| i.0 as usize).collect(),
            support: r.support,
            confidence: r.confidence,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId, Metric, RelationBuilder, Schema};

    /// Two correlated blocks on two attributes.
    fn blocks() -> Relation {
        let mut b = RelationBuilder::new(Schema::interval_attrs(2));
        for i in 0..30 {
            let j = (i % 5) as f64 * 0.01;
            b.push_row(&[j, 100.0 + j]).unwrap();
            b.push_row(&[50.0 + j, 200.0 + j]).unwrap();
        }
        b.finish()
    }

    fn clusters_for(values: &[(usize, f64)]) -> Vec<ClusterSummary> {
        // Build single-point clusters (centroids) per (set, center).
        let layout = AcfLayout::new(vec![1, 1]);
        values
            .iter()
            .enumerate()
            .map(|(i, &(set, v))| {
                let mut acf = Acf::empty(&layout, set);
                let mut p = vec![0.0, 0.0];
                p[set] = v;
                acf.add_row(&p);
                ClusterSummary { id: ClusterId(i as u32), set, acf }
            })
            .collect()
    }

    #[test]
    fn mines_cross_attribute_cluster_rules() {
        let r = blocks();
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        // Clusters: set 0 at 0 and 50; set 1 at 100 and 200.
        let clusters = clusters_for(&[(0, 0.0), (0, 50.0), (1, 100.0), (1, 200.0)]);
        let rules = mine_gqar(
            &r,
            &p,
            &clusters,
            &GqarConfig { min_support: 20, min_confidence: 0.9, max_len: 2 },
        );
        assert!(!rules.is_empty());
        // Cluster 0 (x≈0) implies cluster 2 (y≈100) with confidence 1.
        let found = rules
            .iter()
            .any(|r| r.antecedent == vec![0] && r.consequent == vec![2] && r.confidence > 0.99);
        assert!(found, "expected 0 ⇒ 2, got {rules:?}");
        // Supports are plausible: each block has 30 tuples.
        for rule in &rules {
            assert!(rule.support >= 20);
        }
    }

    #[test]
    fn empty_inputs() {
        let r = RelationBuilder::new(Schema::interval_attrs(1)).finish();
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        assert!(mine_gqar(&r, &p, &[], &GqarConfig::default()).is_empty());
    }
}
