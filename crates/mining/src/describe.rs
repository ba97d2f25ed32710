//! Human-readable descriptions of clusters and rules.
//!
//! Section 7.2: "A cluster can be described by its centroid, but we have
//! found that this is not the most meaningful description. ... we have
//! chosen to describe a cluster by its smallest bounding box."

use crate::rules::Dar;
use dar_core::{ClusterSummary, Partitioning, Schema};
use std::fmt::Write as _;

/// Renders one cluster as `Attr∈[lo, hi]` (joined with `∧` for
/// multi-attribute sets), using the schema's attribute names.
pub fn describe_cluster(
    cluster: &ClusterSummary,
    schema: &Schema,
    partitioning: &Partitioning,
) -> String {
    let attrs = &partitioning.set(cluster.set).attrs;
    let bbox = cluster.bbox();
    let mut out = String::new();
    for (d, &attr) in attrs.iter().enumerate() {
        if d > 0 {
            out.push_str(" ∧ ");
        }
        let name = schema.attribute(attr).map(|a| a.name.as_str()).unwrap_or("?");
        let iv = bbox.interval(d);
        if iv.lo == iv.hi {
            let _ = write!(out, "{name}={}", round3(iv.lo));
        } else {
            let _ = write!(out, "{name}∈[{}, {}]", round3(iv.lo), round3(iv.hi));
        }
    }
    out
}

/// Renders a DAR as `A ∧ B ⇒ C (degree 0.31, support ≥ 42)`.
pub fn describe_rule(
    rule: &Dar,
    clusters: &[ClusterSummary],
    schema: &Schema,
    partitioning: &Partitioning,
) -> String {
    let side = |ids: &[usize]| {
        ids.iter()
            .map(|&i| describe_cluster(&clusters[i], schema, partitioning))
            .collect::<Vec<_>>()
            .join(" ∧ ")
    };
    format!(
        "{} ⇒ {} (degree {:.3}, support ≥ {})",
        side(&rule.antecedent),
        side(&rule.consequent),
        rule.degree,
        rule.min_cluster_support
    )
}

/// Serializes rules as tab-separated values: one row per rule with
/// `antecedent`, `consequent`, `degree`, `min_support`, and optionally the
/// exact `frequency` (pass the rescan output, or `&[]`). Machine-friendly
/// counterpart of [`describe_rule`]; the header row comes first.
pub fn rules_to_tsv(
    rules: &[Dar],
    frequencies: &[u64],
    clusters: &[ClusterSummary],
    schema: &Schema,
    partitioning: &Partitioning,
) -> String {
    let mut out = String::from("antecedent\tconsequent\tdegree\tmin_support\tfrequency\n");
    let side = |ids: &[usize]| {
        ids.iter()
            .map(|&i| describe_cluster(&clusters[i], schema, partitioning))
            .collect::<Vec<_>>()
            .join(" ∧ ")
    };
    for (i, rule) in rules.iter().enumerate() {
        let freq = frequencies.get(i).map(u64::to_string).unwrap_or_default();
        let _ = writeln!(
            out,
            "{}\t{}\t{:.6}\t{}\t{freq}",
            side(&rule.antecedent),
            side(&rule.consequent),
            rule.degree,
            rule.min_cluster_support,
        );
    }
    out
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, Attribute, ClusterId, Metric, Schema};

    fn setup() -> (Schema, Partitioning, Vec<ClusterSummary>) {
        let schema = Schema::new(vec![Attribute::interval("Age"), Attribute::interval("Claims")]);
        let p = Partitioning::per_attribute(&schema, Metric::Euclidean);
        let layout = AcfLayout::from_partitioning(&p);
        let mut age = Acf::empty(&layout, 0);
        age.add_row(&[41.0, 10_000.0]);
        age.add_row(&[47.0, 14_000.0]);
        let mut claims = Acf::empty(&layout, 1);
        claims.add_row(&[41.0, 12_000.0]);
        let clusters = vec![
            ClusterSummary { id: ClusterId(0), set: 0, acf: age },
            ClusterSummary { id: ClusterId(1), set: 1, acf: claims },
        ];
        (schema, p, clusters)
    }

    #[test]
    fn cluster_descriptions_use_names_and_bboxes() {
        let (schema, p, clusters) = setup();
        assert_eq!(describe_cluster(&clusters[0], &schema, &p), "Age∈[41, 47]");
        assert_eq!(describe_cluster(&clusters[1], &schema, &p), "Claims=12000");
    }

    #[test]
    fn rule_description_joins_sides() {
        let (schema, p, clusters) = setup();
        let rule =
            Dar { antecedent: vec![0], consequent: vec![1], degree: 0.25, min_cluster_support: 1 };
        let s = describe_rule(&rule, &clusters, &schema, &p);
        assert_eq!(s, "Age∈[41, 47] ⇒ Claims=12000 (degree 0.250, support ≥ 1)");
    }

    #[test]
    fn tsv_export_with_and_without_frequencies() {
        let (schema, p, clusters) = setup();
        let rules = vec![Dar {
            antecedent: vec![0],
            consequent: vec![1],
            degree: 0.25,
            min_cluster_support: 2,
        }];
        let tsv = rules_to_tsv(&rules, &[42], &clusters, &schema, &p);
        let mut lines = tsv.lines();
        assert_eq!(lines.next().unwrap(), "antecedent\tconsequent\tdegree\tmin_support\tfrequency");
        let row = lines.next().unwrap();
        assert_eq!(row, "Age∈[41, 47]\tClaims=12000\t0.250000\t2\t42");
        // Without frequencies the last column is empty.
        let tsv = rules_to_tsv(&rules, &[], &clusters, &schema, &p);
        assert!(tsv.lines().nth(1).unwrap().ends_with('\t'));
    }
}
