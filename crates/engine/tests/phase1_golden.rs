//! Golden Phase I bytes on real-valued rows. The answer goldens
//! (`wire_golden`, `ranked_golden`, `window_golden`, the v1 fixture) pin
//! what Phase II answers; this suite pins the forest itself — the
//! FNV-64 of the engine's v2 snapshot bytes and its rebuild count — at the
//! ledger's rebuild-heavy budget (30 WBCD attributes, 10% outliers, 3%
//! support, 170 KB per tree, initial threshold 0, 20 × 1,000-row batches).
//! The values were written by the per-`Vec` ACF layout that preceded the
//! flat moment buffer; any change to the ACF storage, the tree's insert
//! path or the memory charge must reproduce them bit for bit, at every
//! thread count and through a shard merge.

use dar_core::{Metric, Partitioning};
use dar_engine::snapshot::parse_snapshot_bytes;
use dar_engine::{DarEngine, EngineConfig};
use datagen::wbcd::wbcd_relation;

/// FNV-64 of the single engine's snapshot after all 20 batches.
const SINGLE_DIGEST: u64 = 7291679941890662074;
/// Rebuilds the single engine's forest performed.
const SINGLE_REBUILDS: usize = 183;
/// FNV-64 of the engine merged from the two alternate-batch shards.
const MERGED_DIGEST: u64 = 3586056689551700594;
/// Rebuilds each shard's forest performed while ingesting its batches.
const SHARD_REBUILDS: [usize; 2] = [179, 185];
/// Rebuilds the merged forest performed: absorbing summaries re-inserts
/// entries without a memory check, so none.
const MERGED_REBUILDS: usize = 0;

/// The ledger's engine knobs (the paper's §7.2 setup).
fn config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig { min_support_frac: 0.03, threads, ..EngineConfig::default() };
    config.birch.memory_budget = 170 << 10;
    config.birch.initial_threshold = 0.0;
    config
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The ledger's relation (data seed 1997) in 1,000-row batches.
fn batches() -> (Partitioning, Vec<Vec<Vec<f64>>>) {
    let relation = wbcd_relation(20_000, 0.1, 1997);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    (partitioning, rows.chunks(1_000).map(<[Vec<f64>]>::to_vec).collect())
}

/// `(snapshot digest, forest rebuilds)` of an engine.
fn pin(engine: &mut DarEngine) -> (u64, usize) {
    let digest = fnv64(&engine.snapshot().expect("snapshot"));
    (digest, engine.stats().forest_rebuilds)
}

#[test]
fn single_engine_forest_matches_the_golden_bytes() {
    let (partitioning, batches) = batches();
    for threads in [1, 2] {
        let mut engine = DarEngine::new(partitioning.clone(), config(threads)).expect("config");
        for batch in &batches {
            engine.ingest(batch).expect("ingest");
        }
        assert_eq!(pin(&mut engine), (SINGLE_DIGEST, SINGLE_REBUILDS), "threads={threads}");
    }
}

#[test]
fn merged_shard_forest_matches_the_golden_bytes() {
    let (partitioning, batches) = batches();
    for threads in [1, 2] {
        let pool = dar_par::ThreadPool::new(threads);
        let mut shards: Vec<DarEngine> = (0..2)
            .map(|_| DarEngine::new(partitioning.clone(), config(threads)).expect("config"))
            .collect();
        for (i, batch) in batches.iter().enumerate() {
            shards[i % 2].ingest(batch).expect("ingest");
        }
        let rebuilds: Vec<usize> = shards.iter().map(|s| s.stats().forest_rebuilds).collect();
        assert_eq!(rebuilds, SHARD_REBUILDS, "threads={threads}");
        let snaps: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                parse_snapshot_bytes(&shard.snapshot().expect("snapshot"), &pool).expect("parse")
            })
            .collect();
        let mut merged =
            DarEngine::merge_parsed_snapshots(snaps, 0, config(threads)).expect("merge");
        assert_eq!(pin(&mut merged), (MERGED_DIGEST, MERGED_REBUILDS), "threads={threads}");
    }
}
