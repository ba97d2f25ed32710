//! A durable boot is one pass over the store: `Server::start` over an
//! existing snapshot chain and WAL reads the WAL file once and each
//! snapshot slot at most once, and `dar session --wal-path` reads its WAL
//! once before its first replay. A restart with a fresh engine on a WAL of
//! acknowledged batches serves exactly those tuples, none twice.

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::{DiskStorage, DurableStore, Storage};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{protocol, Client, ServeConfig, Server};
use mining::RuleQuery;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// [`DiskStorage`] that counts whole-file reads per path.
#[derive(Debug, Default)]
struct CountingStorage {
    reads: Mutex<HashMap<PathBuf, usize>>,
}

impl CountingStorage {
    fn reads(&self, path: &Path) -> usize {
        self.reads.lock().unwrap().get(path).copied().unwrap_or(0)
    }
}

impl Storage for CountingStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        *self.reads.lock().unwrap().entry(path.to_path_buf()).or_default() += 1;
        DiskStorage.read(path)
    }
    fn exists(&self, path: &Path) -> bool {
        DiskStorage.exists(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        DiskStorage.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        DiskStorage.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        DiskStorage.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        DiskStorage.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        DiskStorage.sync_dir(dir)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        DiskStorage.remove(path)
    }
}

fn engine() -> DarEngine {
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    DarEngine::new(partitioning, config).unwrap()
}

fn batch(offset: usize) -> Vec<Vec<f64>> {
    (0..30)
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dar_cli_boot_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_config(dir: &Path, storage: Arc<dyn Storage>, snapshot: bool) -> ServeConfig {
    ServeConfig {
        threads: 2,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        snapshot_path: snapshot.then(|| dir.join("epoch.snap")),
        wal_path: Some(dir.join("ingest.wal")),
        storage,
        ..ServeConfig::default()
    }
}

/// Writes a primary snapshot (seq 3), a `.prev` one (seq 2) and a WAL
/// holding seqs 3 and 4, as a server that sealed twice and then crashed
/// leaves them. Returns the tuples acknowledged.
fn crashed_store(dir: &Path) -> u64 {
    let (mut store, _) = DurableStore::open(
        Arc::new(DiskStorage),
        Some(dir.join("epoch.snap")),
        Some(dir.join("ingest.wal")),
    )
    .unwrap();
    let mut live = engine();
    for offset in 0..4 {
        live.ingest(&batch(offset)).unwrap();
        store.log_batch(&batch(offset)).unwrap();
        if offset == 1 || offset == 2 {
            store.install_snapshot(&live.snapshot().unwrap()).unwrap();
        }
    }
    live.tuples()
}

#[test]
fn server_start_reads_the_wal_and_each_snapshot_slot_once() {
    let snap = |dir: &Path| dir.join("epoch.snap");
    let prev = |dir: &Path| dar_durable::snapshot::prev_path(&snap(dir));
    for corrupt_primary in [false, true] {
        let dir = temp_dir(if corrupt_primary { "reads_corrupt" } else { "reads" });
        let acked = crashed_store(&dir);
        if corrupt_primary {
            let mut bytes = std::fs::read(snap(&dir)).unwrap();
            bytes[10] ^= 0xff;
            std::fs::write(snap(&dir), bytes).unwrap();
        }
        let storage = Arc::new(CountingStorage::default());
        let handle =
            Server::start(engine(), "127.0.0.1:0", serve_config(&dir, storage.clone(), true))
                .unwrap();

        let case = if corrupt_primary { "corrupt primary" } else { "healthy primary" };
        assert_eq!(storage.reads(&dir.join("ingest.wal")), 1, "{case}: WAL reads");
        assert_eq!(storage.reads(&snap(&dir)), 1, "{case}: primary slot reads");
        assert_eq!(storage.reads(&prev(&dir)), usize::from(corrupt_primary), "{case}: .prev");
        let report = handle.recovery().expect("durable boot reports its recovery");
        assert_eq!(report.corrupt_snapshots_skipped, u32::from(corrupt_primary), "{case}");
        assert_eq!(report.wal_batches_replayed, if corrupt_primary { 2 } else { 1 }, "{case}");
        assert_eq!(handle.shared().tuples(), acked, "{case}: every acked tuple, once");

        handle.shutdown();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Three restarts of a WAL-only server, each with a fresh engine: every
/// boot serves exactly the acknowledged batches, answers as an uncrashed
/// engine over them, and appends nothing to the log by booting.
#[test]
fn fresh_engine_restart_serves_each_acked_batch_once() {
    let dir = temp_dir("once");
    let wal = dir.join("ingest.wal");
    let config = || serve_config(&dir, Arc::new(DiskStorage), false);
    let mut control = engine();
    for (round, offsets) in [[0, 1], [2, 3], [4, 5]].iter().enumerate() {
        let before = std::fs::read(&wal).unwrap_or_default();
        let handle = Server::start(engine(), "127.0.0.1:0", config()).unwrap();
        assert_eq!(std::fs::read(&wal).unwrap_or_default(), before, "booting appended");
        assert_eq!(handle.recovery().unwrap().wal_batches_replayed, 2 * round);
        assert_eq!(handle.shared().tuples(), control.tuples(), "round {round}");

        let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
        if round > 0 {
            let served = client.query(RuleQuery::default()).unwrap().get("rules").unwrap().encode();
            let expected = protocol::query_response(&control.query(&RuleQuery::default()).unwrap());
            assert!(served.contains("antecedent"), "round {round}: no rules to compare");
            assert_eq!(served, expected.get("rules").unwrap().encode(), "round {round}");
        }
        for &offset in offsets {
            control.ingest(&batch(offset)).unwrap();
            assert_eq!(client.ingest(batch(offset)).unwrap(), control.tuples());
        }
        drop(client);
        handle.shutdown();
        handle.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn write_csv(dir: &Path, i: u64) -> String {
    let path = dir.join(format!("batch{i}.csv"));
    let relation = datagen::insurance::insurance_relation(500, 10 + i);
    datagen::csv::write_csv(&relation, &path).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn session_reads_its_wal_once_before_the_first_replay() {
    let dir = temp_dir("session");
    let wal = dir.join("s.wal");
    let snap = dir.join("s.snap");
    let batches: Vec<String> = (0..3).map(|i| write_csv(&dir, i)).collect();
    let args = dar_cli::args::parse(&[
        "--support".to_string(),
        "0.1".into(),
        "--wal-path".into(),
        wal.to_str().unwrap().into(),
    ])
    .unwrap();
    let script = format!(
        "ingest {}\ningest {}\nsnapshot {}\ningest {}\n",
        batches[0],
        batches[1],
        snap.display(),
        batches[2]
    );
    dar_cli::commands::session::run_script(&script, &args).unwrap();

    // First replay on a fresh engine's first `ingest`.
    let storage = Arc::new(CountingStorage::default());
    let script = format!("ingest {}\nstats\n", batches[0]);
    let out = dar_cli::commands::session::run_script_on(&script, &args, storage.clone()).unwrap();
    assert!(out.contains("wal: replayed 3 committed batches"), "{out}");
    assert_eq!(storage.reads(&wal), 1, "fresh-engine replay: {out}");

    // First replay on `restore`: only the post-snapshot suffix (the third
    // batch and the fourth the previous run appended).
    let storage = Arc::new(CountingStorage::default());
    let script = format!("restore {}\n", snap.display());
    let out = dar_cli::commands::session::run_script_on(&script, &args, storage.clone()).unwrap();
    assert!(out.contains("2 wal batches replayed"), "{out}");
    assert_eq!(storage.reads(&wal), 1, "restore replay: {out}");
    std::fs::remove_dir_all(&dir).ok();
}
