//! `dar cluster` — run Phase I only and print the per-attribute clusters.

use crate::args::Args;
use crate::commands::{default_partitioning, load};
use crate::CliError;
use birch::{AcfForest, BirchConfig};
use dar_core::{suggest_initial_thresholds, ClusterId, ClusterSummary};
use std::fmt::Write as _;

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let relation = load(args.required("input")?)?;
    let partitioning = default_partitioning(&relation);
    let threshold_frac: f64 = args.number("threshold-frac", 0.05)?;
    let memory_kb: usize = args.number("memory-kb", 1024)?;

    let thresholds = suggest_initial_thresholds(&relation, &partitioning, threshold_frac)?;
    let config = BirchConfig { memory_budget: memory_kb << 10, ..BirchConfig::default() };
    let mut forest = AcfForest::with_initial_thresholds(partitioning.clone(), &config, &thresholds);
    forest.scan(&relation);
    let stats = forest.stats();
    let per_set = forest.finish();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} rows scanned; {} clusters across {} attributes ({} rebuilds, {:.2} MB)\n",
        relation.len(),
        per_set.iter().map(Vec::len).sum::<usize>(),
        per_set.len(),
        stats.total_rebuilds(),
        stats.total_memory_bytes() as f64 / (1 << 20) as f64,
    );
    for (set, clusters) in per_set.iter().enumerate() {
        let name = partitioning.set(set).attrs[0];
        let name = &relation.schema().attribute(name)?.name;
        let _ = writeln!(out, "{name} ({} clusters):", clusters.len());
        let mut sorted: Vec<_> = clusters.iter().collect();
        sorted.sort_by_key(|a| std::cmp::Reverse(a.n()));
        for acf in sorted.iter().take(8) {
            let _ = writeln!(
                out,
                "  n={:<8} bbox {}  diameter {:.4}",
                acf.n(),
                acf.bbox(),
                acf.diameter(),
            );
        }
        if sorted.len() > 8 {
            let _ = writeln!(out, "  … {} more", sorted.len() - 8);
        }
    }
    if let Some(path) = args.optional("save") {
        let mut summaries = Vec::new();
        let mut next_id = 0u32;
        for (set, clusters) in per_set.into_iter().enumerate() {
            for acf in clusters {
                summaries.push(ClusterSummary { id: ClusterId(next_id), set, acf });
                next_id += 1;
            }
        }
        let bytes = mining::persist::encode_clusters(&summaries, &dar_par::ThreadPool::resolve(0))?;
        // Sealed + atomic: the file carries a checksum footer verified on
        // load, and a crash never leaves a torn file. The body is the
        // persist-v2 binary format `dar rules` reads.
        dar_durable::snapshot::install(
            &dar_durable::DiskStorage,
            std::path::Path::new(path),
            &bytes,
            0,
        )
        .map_err(|e| CliError::new(e.to_string()))?;
        let _ = writeln!(out, "saved {} cluster summaries to {path}", summaries.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    #[test]
    fn clusters_the_insurance_workload() {
        let dir = std::env::temp_dir().join("dar_cli_cluster_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("ins.csv");
        let relation = datagen::insurance::insurance_relation(2_000, 3);
        datagen::csv::write_csv(&relation, &csv).unwrap();
        let a = parse(&[
            "--input".to_string(),
            csv.to_str().unwrap().to_string(),
            "--threshold-frac".to_string(),
            "0.1".to_string(),
        ])
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("2000 rows"), "{out}");
        assert!(out.contains("Age ("));
        assert!(out.contains("bbox"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
