//! `dar rules` — re-run Phase II from persisted cluster summaries, no data
//! access. This is the workflow the ACF design enables (Theorem 6.1):
//! scan once with `dar cluster --save`, then sweep thresholds offline.

use crate::args::Args;
use crate::CliError;
use dar_core::ClusterSummary;
use mining::clique::{maximal_cliques, non_trivial};
use mining::describe::describe_rule;
use mining::graph::{ClusterDistance, ClusteringGraph, GraphConfig};
use mining::pipeline::auto_density_thresholds;
use mining::rules::{generate_dars_capped, RuleConfig};
use std::fmt::Write as _;

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args.required("clusters")?;
    let bytes = std::fs::read(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    // Lenient unseal (legacy unsealed files pass through), then decode
    // the persist-v2 body; pre-v2 text is refused naming `dar migrate`.
    let (body, _) =
        dar_durable::unseal_bytes(&bytes).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let clusters = mining::persist::decode_clusters(body, &dar_par::ThreadPool::resolve(0))?;
    if clusters.is_empty() {
        return Ok("no clusters in the file; nothing to mine\n".to_string());
    }
    let num_sets = clusters[0].acf.num_sets();

    // |r| per set = every tuple lives in exactly one cluster of each set.
    let tuples: u64 = clusters.iter().filter(|c| c.set == 0).map(|c| c.support()).sum();
    let support: f64 = args.number("support", 0.05)?;
    let s0 = ((support * tuples as f64).ceil() as u64).max(1);
    let density_factor: f64 = args.number("density-factor", 1.5)?;
    let degree_factor: f64 = args.number("degree-factor", 2.0)?;
    let top: usize = args.number("top", 20)?;

    let frequent: Vec<ClusterSummary> =
        clusters.iter().filter(|c| c.is_frequent(s0)).cloned().collect();
    let density = auto_density_thresholds(&clusters, &[], num_sets, density_factor);
    let graph = ClusteringGraph::build(
        frequent,
        &GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: density.clone(),
            prune_poor_density: true,
        },
    );
    let (cliques, _) = maximal_cliques(graph.adjacency(), 100_000);
    let (rules, truncated) = generate_dars_capped(
        &graph,
        &cliques,
        &RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: density.iter().map(|d| d * degree_factor).collect(),
            max_antecedent: args.number("max-antecedent", 2)?,
            max_consequent: args.number("max-consequent", 1)?,
            ..RuleConfig::default()
        },
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} clusters loaded ({} frequent at s0={s0}, inferred |r|={tuples}); \
         {} edges, {} non-trivial cliques, {} rules{}\n",
        clusters.len(),
        graph.len(),
        graph.edges,
        non_trivial(&cliques),
        rules.len(),
        if truncated { " (truncated)" } else { "" },
    );
    // Without the original schema, synthesize attribute names a0..aN from
    // the layout so descriptions stay readable.
    let max_attr: usize = (0..num_sets).map(|s| clusters[0].acf.image(s).dims()).sum();
    let schema = dar_core::Schema::interval_attrs(max_attr);
    let partitioning = synth_partitioning(&schema, &clusters, num_sets);
    for rule in rules.iter().take(top) {
        let _ = writeln!(out, "{}", describe_rule(rule, graph.clusters(), &schema, &partitioning));
    }
    Ok(out)
}

/// Reconstructs a partitioning shape (set → consecutive attribute ids)
/// from the cluster layout; names are positional, not original.
fn synth_partitioning(
    schema: &dar_core::Schema,
    clusters: &[ClusterSummary],
    num_sets: usize,
) -> dar_core::Partitioning {
    let mut sets = Vec::with_capacity(num_sets);
    let mut next = 0usize;
    for s in 0..num_sets {
        let dims = clusters[0].acf.image(s).dims();
        sets.push(dar_core::AttrSet {
            attrs: (next..next + dims).collect(),
            metric: dar_core::Metric::Euclidean,
        });
        next += dims;
    }
    dar_core::Partitioning::new(schema, sets).expect("consecutive sets are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn phase2_from_saved_clusters() {
        // Save clusters via the cluster command, then mine rules from them.
        let dir = std::env::temp_dir().join("dar_cli_rules_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("ins.csv");
        let acf = dir.join("clusters.acf");
        let relation = datagen::insurance::insurance_relation(3_000, 3);
        datagen::csv::write_csv(&relation, &csv).unwrap();

        let a = parse(&argv(&[
            "--input",
            csv.to_str().unwrap(),
            "--threshold-frac",
            "0.1",
            "--save",
            acf.to_str().unwrap(),
        ]))
        .unwrap();
        crate::commands::cluster::run(&a).unwrap();

        let a =
            parse(&argv(&["--clusters", acf.to_str().unwrap(), "--support", "0.1", "--top", "5"]))
                .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("clusters loaded"), "{out}");
        assert!(out.contains("inferred |r|=3000"), "{out}");
        assert!(out.contains('⇒'), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_errors() {
        let a = parse(&argv(&["--clusters", "/nonexistent.acf"])).unwrap();
        assert!(run(&a).is_err());
    }
}
