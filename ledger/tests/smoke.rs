//! `ledger --smoke`: the in-process traced path of all four workloads at
//! tiny sizes (no `dar` processes). Every result line must be correct and
//! name only metrics the benchmark declaration (`BENCHMARK.json`) lists,
//! so the harness cannot drift from what it promises.

use dar_serve::json::{self, Json};
use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the ledger");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a metric name").to_string())
        .collect()
}

#[test]
fn smoke_runs_every_workload_and_prints_only_declared_metrics() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_ledger")).arg("--smoke").output().expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let per_layer = declared("per_layer");
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    for result in &results {
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics object") };
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, per_layer, "printed metrics must be exactly the declared per-layer set");
    }
}
