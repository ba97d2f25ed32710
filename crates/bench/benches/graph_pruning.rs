//! Criterion bench for ABL-PRUNE: clustering-graph construction with the
//! Section 6.2 poor-density pruning heuristic on vs. off, over synthetic
//! cluster populations with a controlled fraction of poor-density images.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use datagen::SeededRng;
use mining::graph::{ClusterDistance, ClusteringGraph, GraphConfig};
use std::hint::black_box;

/// Builds `n` clusters over 4 attribute sets; `poor_frac` of them have a
/// scattered image on every foreign set.
fn synthetic_clusters(n: usize, poor_frac: f64, seed: u64) -> Vec<ClusterSummary> {
    let num_sets = 4;
    let layout = AcfLayout::new(vec![1; num_sets]);
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|i| {
            let set = i % num_sets;
            let poor = rng.uniform() < poor_frac;
            let center = 10.0 * rng.index(8) as f64;
            let mut acf = Acf::empty(&layout, set);
            for _ in 0..20 {
                let projections: Vec<f64> = (0..num_sets)
                    .map(|s| {
                        if s == set {
                            center + rng.normal(0.0, 0.3)
                        } else if poor {
                            rng.uniform_in(-100.0, 100.0)
                        } else {
                            center + rng.normal(0.0, 0.3)
                        }
                    })
                    .collect();
                acf.add_row(&projections);
            }
            ClusterSummary { id: ClusterId(i as u32), set, acf }
        })
        .collect()
}

fn graph_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_pruning");
    for &n in &[200usize, 600] {
        let clusters = synthetic_clusters(n, 0.5, 7);
        for (label, prune) in [("off", false), ("on", true)] {
            let config = GraphConfig {
                metric: ClusterDistance::D2,
                density_thresholds: vec![2.0; 4],
                prune_poor_density: prune,
            };
            group.bench_with_input(BenchmarkId::new(format!("prune_{label}"), n), &n, |b, _| {
                b.iter(|| {
                    let g = ClusteringGraph::build(black_box(clusters.clone()), &config);
                    black_box((g.edges, g.comparisons))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, graph_pruning);
criterion_main!(benches);
