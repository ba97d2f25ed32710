//! `dar migrate`: every committed pre-v2 (text) fixture converts to v2,
//! and the converted file restores to answers byte-equal to a control
//! built from the same rows, keeping the sealed WAL seq — so a kill -9
//! recovery across the upgrade (migrated snapshot on disk, newer WAL tail
//! on top) replays exactly the tail. Unmigrated v1 files are refused by
//! every runtime reader, naming `dar migrate`, and left untouched.

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::storage::scratch_dir;
use dar_durable::{DiskStorage, FaultPlan, FaultyStorage};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{recover_backend, Client, ServeConfig, Server, ServerError, WindowSpec};
use mining::RuleQuery;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn partitioning() -> Partitioning {
    Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean)
}

fn engine() -> DarEngine {
    DarEngine::new(partitioning(), config()).unwrap()
}

/// Dyadic jitter: exact fp sums in any grouping, so restored rules are
/// byte-equal, not merely close. The fixtures were written from these
/// rows.
fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let jitter = ((i + offset) % 4) as f64 * 0.25;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

/// The control the engine and cluster-file fixtures were written from:
/// two 30-row batches.
fn two_batch_engine() -> DarEngine {
    let mut e = engine();
    e.ingest(&rows(30, 0)).unwrap();
    e.ingest(&rows(30, 1)).unwrap();
    e
}

/// The control the ring fixture migrates to: a 2-batch x 2-slot ring
/// after the five 20-row batches the fixture's v1 ring was fed. Each of
/// that ring's per-window forests held the same clusters as the window's
/// columns hold now, so the bytes match.
fn five_batch_ring() -> DarEngine {
    let spec = WindowSpec { batches: 2, slots: 2 };
    let mut ring = DarEngine::with_window(partitioning(), config(), Some(spec)).unwrap();
    for b in 0..5 {
        ring.ingest(&rows(20, b)).unwrap();
    }
    ring
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/tests/fixtures").join(name)
}

fn migrate(input: &Path, out: &Path) -> Result<String, dar_cli::CliError> {
    let argv = ["migrate", "--input", input.to_str().unwrap(), "--out", out.to_str().unwrap()];
    dar_cli::run(&argv.map(String::from))
}

/// Migrates `input` into `dir` and returns the output's body and seq.
fn migrated(input: &Path, dir: &Path) -> (Vec<u8>, u64) {
    let out = dir.join("migrated.snap");
    migrate(input, &out).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    let (body, seq) = dar_durable::unseal_strict_bytes(&bytes).unwrap();
    (body.to_vec(), seq)
}

fn assert_same_answer(got: &mut DarEngine, want: &mut DarEngine) {
    let got = got.query(&RuleQuery::default()).unwrap();
    let want = want.query(&RuleQuery::default()).unwrap();
    assert!(!want.rules.is_empty(), "the planted blocks must yield rules");
    assert_eq!(got.rules, want.rules, "rules diverged");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.values), bits(&want.values), "measure values diverged");
}

/// The committed engine fixture, sealed at seq 3 and with its footer
/// stripped, migrates to exactly the v2 bytes the control writes, keeping
/// the seq (0 for the unsealed copy).
#[test]
fn engine_fixture_migrates_sealed_and_unsealed_byte_equal() {
    let dir = scratch_dir("cli_migrate_engine");
    let sealed = std::fs::read(fixture("v1_engine.snap")).unwrap();
    let unsealed_path = dir.join("unsealed_v1.snap");
    std::fs::write(&unsealed_path, dar_durable::unseal_strict_bytes(&sealed).unwrap().0).unwrap();

    let mut control = two_batch_engine();
    let want_body = control.snapshot().unwrap();
    for (input, want_seq) in [(fixture("v1_engine.snap"), 3), (unsealed_path, 0)] {
        let (body, seq) = migrated(&input, &dir);
        assert_eq!(seq, want_seq, "{}: sealed seq", input.display());
        assert_eq!(body, want_body, "{}: migrated bytes", input.display());
        let mut restored = DarEngine::restore(&body, config(), false).unwrap();
        assert_eq!(restored.tuples(), 60);
        assert_same_answer(&mut restored, &mut two_batch_engine());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The ring fixture migrates to the live ring's own v2 snapshot bytes and
/// restores to its horizon and answer.
#[test]
fn ring_fixture_migrates_byte_equal() {
    let dir = scratch_dir("cli_migrate_ring");
    let mut live = five_batch_ring();
    let (body, seq) = migrated(&fixture("v1_ring.snap"), &dir);
    assert_eq!(seq, 5);
    assert_eq!(body, live.snapshot().unwrap());
    let mut restored = DarEngine::restore(&body, config(), true).unwrap();
    assert_eq!(restored.window_span(), live.window_span());
    assert_eq!(restored.tuples(), live.tuples());
    assert_same_answer(&mut restored, &mut live);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `cluster --save` fixture migrates to the control's persist-v2
/// encoding of the same summaries.
#[test]
fn cluster_file_fixture_migrates_byte_equal() {
    let dir = scratch_dir("cli_migrate_clusters");
    let mut control = two_batch_engine();
    let pool = dar_par::ThreadPool::serial();
    let (body, seq) = migrated(&fixture("v1_clusters.acf"), &dir);
    assert_eq!(seq, 0);
    assert_eq!(body, mining::persist::encode_clusters(control.clusters(), &pool).unwrap());
    assert_eq!(mining::persist::decode_clusters(&body, &pool).unwrap(), control.clusters());
    std::fs::remove_dir_all(&dir).ok();
}

/// A v2 input is refused and no output file appears.
#[test]
fn migrate_refuses_v2_input_without_output() {
    let dir = scratch_dir("cli_migrate_refusals");
    let v2 = dir.join("v2.snap");
    dar_durable::snapshot::install(&DiskStorage, &v2, &two_batch_engine().snapshot().unwrap(), 2)
        .unwrap();
    let out = dir.join("out.snap");
    let err = migrate(&v2, &out).unwrap_err().to_string();
    assert!(err.contains("already v2"), "{err}");
    assert!(!out.exists(), "a refused migration must not create its output");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill -9 across the upgrade: the pre-upgrade process booted on the v1
/// snapshot (sealed at seq 3) and logged one more batch (seq 4) before
/// dying. After `dar migrate` rewrites the snapshot in place, recovery
/// loads it, replays only the newer batch, and answers exactly like an
/// uncrashed engine over the same batches.
#[test]
fn migrated_snapshot_with_newer_wal_tail_recovers_exactly() {
    let dir = scratch_dir("cli_migrate_boundary");
    let snap_path = dir.join("epoch.snap");
    let wal_path = dir.join("ingest.wal");
    std::fs::copy(fixture("v1_engine.snap"), &snap_path).unwrap();
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut store, _) = dar_durable::DurableStore::open(
        storage.clone(),
        Some(snap_path.clone()),
        Some(wal_path.clone()),
    )
    .unwrap();
    assert_eq!(store.log_batch(&rows(30, 2)).unwrap(), 4);
    drop(store);

    migrate(&snap_path, &snap_path).unwrap();
    let (mut recovered, report) =
        recover_backend(engine(), storage, Some(&snap_path), Some(&wal_path)).unwrap();
    assert!(report.snapshot_source.is_some(), "the migrated snapshot must load");
    assert_eq!(report.wal_batches_replayed, 1, "only the post-snapshot tail replays");
    assert_eq!(recovered.tuples(), 90);

    let mut control = two_batch_engine();
    control.ingest(&rows(30, 2)).unwrap();
    assert_same_answer(&mut recovered, &mut control);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery over an unmigrated v1 snapshot — engine or ring — fails with
/// the `dar migrate` message and leaves the file byte-identical.
#[test]
fn unmigrated_v1_snapshots_fail_recovery_naming_migrate_and_stay_on_disk() {
    let dir = scratch_dir("cli_migrate_unmigrated");
    let spec = WindowSpec { batches: 2, slots: 2 };
    let cases = [
        ("v1_engine.snap", engine()),
        ("v1_ring.snap", DarEngine::with_window(partitioning(), config(), Some(spec)).unwrap()),
    ];
    for (name, fresh) in cases {
        let path = dir.join(name);
        std::fs::copy(fixture(name), &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let storage = FaultyStorage::new(FaultPlan::default());
        let err = recover_backend(fresh, storage, Some(&path), Some(&dir.join("ingest.wal")))
            .err()
            .unwrap_or_else(|| panic!("{name}: a v1 snapshot must not restore"));
        assert!(err.to_string().contains("dar migrate"), "{name}: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "{name} changed on disk");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `shard_rescan` takes its clusters as base64 persist-v2 only: raw v1
/// cluster text is a `bad-request`.
#[test]
fn shard_rescan_refuses_raw_v1_cluster_text() {
    let dir = scratch_dir("cli_migrate_rescan");
    let serve = ServeConfig { wal_path: Some(dir.join("ingest.wal")), ..ServeConfig::default() };
    let handle = Server::start(engine(), "127.0.0.1:0", serve).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    client.ingest(rows(30, 0)).unwrap();
    let sealed = std::fs::read(fixture("v1_clusters.acf")).unwrap();
    let text = std::str::from_utf8(dar_durable::unseal_strict_bytes(&sealed).unwrap().0).unwrap();
    let err = client.shard_rescan(text, &[vec![0]]).unwrap_err();
    let server = ServerError::of(&err).unwrap_or_else(|| panic!("not a server error: {err}"));
    assert_eq!(server.code, "bad-request", "{server}");
    drop(client);
    handle.shutdown();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
