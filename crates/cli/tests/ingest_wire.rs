//! JSON `rows` and binary `rows_b64` ingest are one batch to the server.
//! The same WBCD-like batches go as JSON rows to one durable `dar serve`
//! and as `rows_b64` (what `Request::to_json` sends) to another, static
//! and windowed: the acks, query answers, write-ahead logs and sealed
//! snapshots must be byte-identical. Through two 2-shard coordinators the
//! shard logs must be byte-identical too. Non-finite values, which only
//! the binary form can carry, are refused as `rejected` without touching
//! the log.

#![cfg(unix)]

use dar_serve::{Client, Json, Request};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const ENGINE_FLAGS: &[&str] =
    &["--support", "0.03", "--memory-kb", "170", "--initial-threshold", "0", "--threads", "1"];

/// Six batches of 150 WBCD-like tuples (30 attributes, 10% outliers).
fn batches() -> Vec<Vec<Vec<f64>>> {
    let relation = datagen::wbcd::wbcd_relation(900, 0.1, 1997);
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|i| relation.row(i)).collect();
    rows.chunks(150).map(<[Vec<f64>]>::to_vec).collect()
}

/// The ingest line a shell or hand-written client sends: JSON `rows`.
fn json_line(rows: &[Vec<f64>]) -> String {
    let rows = rows.iter().map(|r| Json::Arr(r.iter().map(|&v| Json::Num(v)).collect())).collect();
    Json::obj(vec![("verb", Json::Str("ingest".into())), ("rows", Json::Arr(rows))]).encode()
}

/// The ingest line the library sends: `rows_b64`.
fn binary_line(rows: &[Vec<f64>]) -> String {
    let line = Request::Ingest { rows: rows.to_vec() }.to_json().encode();
    assert!(line.contains("\"rows_b64\":") && !line.contains("\"rows\":"), "{line}");
    line
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dar_cli_ingest_wire_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spawned `dar` process, killed on drop so a failed assertion leaves
/// no server behind.
struct Dar(Child);

impl Drop for Dar {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Spawns `dar <args>` and returns the process plus the address it
/// announced on stderr.
fn spawn(args: &[&str]) -> (Dar, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dar"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dar");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    while let Some(line) = stderr.next() {
        let line = line.expect("read child stderr");
        if let Some(rest) = line.split_once(": listening on ").map(|(_, rest)| rest) {
            let addr = rest.split_whitespace().next().unwrap().to_string();
            // Keep draining, so a later stderr line never meets a closed pipe.
            std::thread::spawn(move || stderr.for_each(drop));
            return (Dar(child), addr);
        }
    }
    child.kill().ok();
    child.wait().ok();
    panic!("dar {args:?} exited without announcing an address");
}

fn spawn_serve(dir: &Path, extra: &[&str]) -> (Dar, String) {
    let wal = dir.join("ingest.wal");
    let snap = dir.join("epoch.snap");
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--attrs", "30"];
    args.extend_from_slice(ENGINE_FLAGS);
    args.extend_from_slice(&["--wal-path", wal.to_str().unwrap()]);
    args.extend_from_slice(&["--snapshot-path", snap.to_str().unwrap()]);
    args.extend_from_slice(extra);
    spawn(&args)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(30)).unwrap()
}

fn shut_down(mut client: Client, mut dar: Dar) {
    client.shutdown().unwrap();
    assert!(dar.0.wait().unwrap().success());
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

const QUERIES: &[&str] = &[
    r#"{"verb":"query"}"#,
    r#"{"verb":"query","degree_factor":3}"#,
    r#"{"verb":"query","measure":"lift","top_k":10}"#,
    r#"{"verb":"clusters"}"#,
];

fn json_and_binary_leave_the_same_state(name: &str, extra: &[&str]) {
    let (dir_json, dir_binary) =
        (scratch(&format!("{name}_json")), scratch(&format!("{name}_b64")));
    let (child_json, addr_json) = spawn_serve(&dir_json, extra);
    let (child_binary, addr_binary) = spawn_serve(&dir_binary, extra);
    let (mut json, mut binary) = (connect(&addr_json), connect(&addr_binary));
    for (i, batch) in batches().iter().enumerate() {
        let (a, b) = (json_line(batch), binary_line(batch));
        assert!(b.len() * 3 < a.len() * 2, "binary {} vs JSON {} bytes", b.len(), a.len());
        let ack = json.round_trip_line(&a).unwrap();
        assert!(ack.contains("\"ok\":true"), "{ack}");
        assert_eq!(binary.round_trip_line(&b).unwrap(), ack);
        if i % 3 != 2 {
            continue;
        }
        for query in QUERIES {
            let answer = json.round_trip_line(query).unwrap();
            assert!(answer.contains("\"ok\":true"), "{answer}");
            assert_eq!(binary.round_trip_line(query).unwrap(), answer, "{query}");
        }
    }

    // NaN and ±inf only fit the binary form; they are refused whole and
    // never reach the log.
    let wal = dir_binary.join("ingest.wal");
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    let mut good = batches()[0][0].clone();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        good[3] = bad;
        let ack = binary.round_trip_line(&binary_line(&[good.clone()])).unwrap();
        assert!(ack.contains("\"error\":\"rejected\""), "{bad}: {ack}");
    }
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len, "a refused batch was logged");

    let sealed = json.round_trip_line(r#"{"verb":"snapshot"}"#).unwrap();
    assert!(sealed.contains("\"ok\":true"), "{sealed}");
    let again = binary.round_trip_line(r#"{"verb":"snapshot"}"#).unwrap();
    let strip = |line: &str, dir: &Path| line.replace(&dir.display().to_string(), "<dir>");
    assert_eq!(strip(&again, &dir_binary), strip(&sealed, &dir_json));
    shut_down(json, child_json);
    shut_down(binary, child_binary);

    let (a, b) = (files(&dir_json), files(&dir_binary));
    assert!(a.iter().any(|(f, _)| f == "ingest.wal"), "{:?}", a.iter().map(|f| &f.0));
    assert!(a.iter().any(|(f, _)| f.starts_with("epoch.snap")), "{:?}", a.iter().map(|f| &f.0));
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert!(bytes_a == bytes_b, "{name_a} differs between JSON and binary ingest");
    }
    std::fs::remove_dir_all(&dir_json).ok();
    std::fs::remove_dir_all(&dir_binary).ok();
}

#[test]
fn static_servers_write_identical_logs_snapshots_and_answers() {
    json_and_binary_leave_the_same_state("static", &[]);
}

#[test]
fn windowed_servers_write_identical_logs_snapshots_and_answers() {
    json_and_binary_leave_the_same_state(
        "windowed",
        &["--window-batches", "2", "--window-slots", "2"],
    );
}

/// Two `dar serve` shards with write-ahead logs under `dir` and a
/// coordinator over them.
fn spawn_cluster(dir: &Path) -> Vec<(Dar, String)> {
    let mut procs: Vec<(Dar, String)> = (0..2)
        .map(|i| {
            let wal = dir.join(format!("shard{i}.wal"));
            let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--attrs", "30"];
            args.extend_from_slice(ENGINE_FLAGS);
            args.extend_from_slice(&["--wal-path", wal.to_str().unwrap()]);
            spawn(&args)
        })
        .collect();
    let shards = format!("{},{}", procs[0].1, procs[1].1);
    let mut args = vec!["cluster-coordinator", "--addr", "127.0.0.1:0", "--shards", &shards];
    args.extend_from_slice(ENGINE_FLAGS);
    procs.push(spawn(&args));
    procs
}

#[test]
fn coordinators_forward_json_and_binary_ingest_to_identical_shard_logs() {
    let (dir_json, dir_binary) = (scratch("cluster_json"), scratch("cluster_b64"));
    let cluster_json = spawn_cluster(&dir_json);
    let cluster_binary = spawn_cluster(&dir_binary);
    let (mut json, mut binary) = (connect(&cluster_json[2].1), connect(&cluster_binary[2].1));
    for batch in batches() {
        let ack = json.round_trip_line(&json_line(&batch)).unwrap();
        assert!(ack.contains("\"ok\":true"), "{ack}");
        assert_eq!(binary.round_trip_line(&binary_line(&batch)).unwrap(), ack);
    }
    for query in QUERIES {
        let answer = json.round_trip_line(query).unwrap();
        assert!(answer.contains("\"ok\":true"), "{answer}");
        assert_eq!(binary.round_trip_line(query).unwrap(), answer, "{query}");
    }
    // `--threads 1` gives each front door one worker, which an idle
    // connection would hold until its read timeout.
    drop((json, binary));
    for cluster in [cluster_json, cluster_binary] {
        for (child, addr) in cluster.into_iter().rev() {
            shut_down(connect(&addr), child);
        }
    }
    let (a, b) = (files(&dir_json), files(&dir_binary));
    assert_eq!(a.iter().map(|f| &f.0).collect::<Vec<_>>(), ["shard0.wal", "shard1.wal"]);
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert!(!bytes_a.is_empty(), "{name} is empty");
        assert!(bytes_a == bytes_b, "{name} differs between JSON and binary ingest");
    }
    std::fs::remove_dir_all(&dir_json).ok();
    std::fs::remove_dir_all(&dir_binary).ok();
}
