//! Streaming end-to-end over real TCP: sliding-window mining through the
//! wire equals one-shot mining of exactly the live rows at any worker
//! count; the window-tagged WAL rebuilds the ring across a crash restart;
//! and churn subscribers reconstruct the live rule set from event diffs,
//! including after resuming with `from_epoch`.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{protocol, Backoff, Client, EngineBackend, Json, ServeConfig, Server, WindowSpec};
use mining::RuleQuery;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
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

/// Dyadic jitter (0.25 steps): fp sums are exact in any grouping, so
/// windowed column folds match the one-shot scan bit for bit.
fn dyadic_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
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

fn windowed(spec: WindowSpec) -> EngineBackend {
    EngineBackend::new(partitioning(), config(), Some(spec)).unwrap()
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// The deterministic byte encoding of a rule set — the same one the
/// server uses in query responses and event frames. Under the default
/// (degree) measure each rule's value is its degree.
fn encode_rules(rules: &[mining::rules::Dar]) -> String {
    Json::Arr(rules.iter().map(|r| protocol::rule_json(r, r.degree)).collect()).encode()
}

#[test]
fn windowed_wire_rules_equal_oneshot_over_live_rows_across_thread_counts() {
    // slots 3 = open window + two sealed: after 5 one-batch windows the
    // live horizon is batches 3 and 4 exactly.
    let spec = WindowSpec { batches: 1, slots: 3 };
    let batches: Vec<Vec<Vec<f64>>> = (0..5).map(|b| dyadic_rows(40, 7 * b)).collect();

    let mut answers = Vec::new();
    for threads in [1usize, 2, 4] {
        let handle = Server::start(windowed(spec), "127.0.0.1:0", serve_config(threads)).unwrap();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
        let mut total = 0;
        for batch in &batches {
            total += batch.len() as u64;
            client.ingest(batch.clone()).unwrap();
        }
        assert_eq!(handle.shared().tuples(), 80, "ingested {total}, live horizon holds 2 batches");
        assert_eq!(handle.shared().window_span(), Some((3, 5)));
        let response = client.query(RuleQuery::default()).unwrap();
        answers.push(response.get("rules").unwrap().encode());

        // A static server refuses the streaming verbs with a structured
        // error instead of a hangup.
        drop(client);
        handle.shutdown();
        handle.join().unwrap();
    }
    assert_eq!(answers[0], answers[1], "threads 1 vs 2 diverge");
    assert_eq!(answers[0], answers[2], "threads 1 vs 4 diverge");

    // Ground truth: one-shot mining of exactly the live rows (batches 3
    // and 4), byte-identical through the wire codec.
    let mut oneshot = DarEngine::new(partitioning(), config()).unwrap();
    oneshot.ingest(&batches[3]).unwrap();
    oneshot.ingest(&batches[4]).unwrap();
    let expected = oneshot.query(&RuleQuery::default()).unwrap().rules;
    assert!(!expected.is_empty(), "the planted blocks must yield rules");
    assert_eq!(answers[0], encode_rules(&expected), "windowed wire rules != one-shot live rules");
}

#[test]
fn static_server_refuses_streaming_verbs_with_structured_errors() {
    let engine = DarEngine::new(partitioning(), config()).unwrap();
    let handle = Server::start(engine, "127.0.0.1:0", serve_config(2)).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let advance = client.advance().unwrap_err();
    assert_eq!(dar_serve::ServerError::of(&advance).unwrap().code, "unsupported");
    let line = client.round_trip_line(r#"{"verb":"subscribe"}"#).unwrap();
    assert!(line.contains("unsupported"), "got: {line}");
    drop(client);
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn tagged_wal_rebuilds_the_ring_across_crash_restart() {
    let dir = std::env::temp_dir().join("dar_serve_stream_crash");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("stream.wal");
    let _ = std::fs::remove_file(&wal_path);

    // WAL only — no snapshot: everything the restart knows comes from
    // the tagged frame log, exactly like a kill -9 after the last ack.
    let spec = WindowSpec { batches: 2, slots: 2 };
    let mut cfg = serve_config(2);
    cfg.wal_path = Some(wal_path.clone());
    let handle = Server::start(windowed(spec), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

    // Half-fill window 0, seal it explicitly, then fill window 1 — the
    // log interleaves tagged batches with an explicit-advance marker.
    client.ingest(dyadic_rows(40, 0)).unwrap();
    let advance = client.advance().unwrap();
    assert_eq!(advance.get("sealed").unwrap().as_u64(), Some(0));
    assert_eq!(advance.get("opened").unwrap().as_u64(), Some(1));
    client.ingest(dyadic_rows(40, 3)).unwrap();
    client.ingest(dyadic_rows(40, 5)).unwrap();

    let pre_rules = client.query(RuleQuery::default()).unwrap().get("rules").unwrap().encode();
    let pre_span = handle.shared().window_span().unwrap();
    let pre_tuples = handle.shared().tuples();
    assert_eq!(pre_span, (1, 2), "two-slot ring: window 0 retired when window 1 sealed");
    assert_eq!(pre_tuples, 80);

    // "Crash": stop without writing any snapshot.
    drop(client);
    handle.shutdown();
    handle.join().unwrap();

    // Restart: recover the backend from the tagged WAL alone.
    let (backend, report) = dar_serve::recover_backend(
        windowed(spec),
        Arc::new(dar_durable::DiskStorage),
        None,
        Some(Path::new(&wal_path)),
    )
    .unwrap();
    assert_eq!(report.wal_records, 4, "3 tagged batches + 1 advance marker");
    assert_eq!(backend.window_span(), Some(pre_span), "ring shape must survive the restart");
    assert_eq!(backend.engine().tuples(), pre_tuples);

    // Serve from the recovered backend; the wire answer matches pre-crash.
    let handle = Server::start(backend, "127.0.0.1:0", serve_config(2)).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let post_rules = client.query(RuleQuery::default()).unwrap().get("rules").unwrap().encode();
    assert_eq!(post_rules, pre_rules, "recovered rules diverge from pre-crash");
    drop(client);
    handle.shutdown();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A windowed recovery counts its replayed batches exactly as an
/// all-history one does: three tagged frames that retire no window show
/// up as `engine.wal_batches_replayed: 3` on the `stats` verb.
#[test]
fn windowed_recovery_counts_replayed_batches() {
    let dir = std::env::temp_dir().join(format!("dar_serve_stream_count_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("stream.wal");

    // Two-batch windows in a three-slot ring: the third batch seals
    // nothing new and nothing retires, so no counter restarts.
    let spec = WindowSpec { batches: 2, slots: 3 };
    let mut cfg = serve_config(2);
    cfg.wal_path = Some(wal_path.clone());
    let handle = Server::start(windowed(spec), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    for offset in 0..3 {
        client.ingest(dyadic_rows(40, offset)).unwrap();
    }
    drop(client);
    handle.shutdown();
    handle.join().unwrap();

    let (backend, report) = dar_serve::recover_backend(
        windowed(spec),
        Arc::new(dar_durable::DiskStorage),
        None,
        Some(Path::new(&wal_path)),
    )
    .unwrap();
    assert_eq!(report.wal_batches_replayed, 3);
    assert_eq!(backend.window_span(), Some((0, 1)), "window 0 sealed, none retired");

    let handle = Server::start(backend, "127.0.0.1:0", serve_config(2)).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let stats = client.stats().unwrap();
    let engine_stats = stats.get("engine").unwrap();
    assert_eq!(engine_stats.get("wal_batches_replayed").and_then(Json::as_u64), Some(3));
    drop(client);
    handle.shutdown();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file in `dir` with its bytes, sorted by name.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Recovery refuses a snapshot of the other kind in both directions — a
/// windowed snapshot under an all-history configuration and the reverse —
/// with the `match --window-batches` hint, and leaves the snapshot and
/// WAL on disk byte for byte as it found them.
#[test]
fn recovery_refuses_a_snapshot_of_the_other_kind_and_leaves_the_files() {
    let backend = |ring: bool| match ring {
        true => windowed(WindowSpec { batches: 2, slots: 2 }),
        false => EngineBackend::from(DarEngine::new(partitioning(), config()).unwrap()),
    };
    for ring in [true, false] {
        let written = if ring { "windowed" } else { "static" };
        let dir = std::env::temp_dir()
            .join(format!("dar_serve_stream_mismatch_{written}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (snap_path, wal_path) = (dir.join("epoch.snap"), dir.join("ingest.wal"));

        // A server of kind `written` logs two batches and seals a final
        // snapshot on shutdown.
        let mut cfg = serve_config(2);
        cfg.snapshot_path = Some(snap_path.clone());
        cfg.wal_path = Some(wal_path.clone());
        let handle = Server::start(backend(ring), "127.0.0.1:0", cfg).unwrap();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
        client.ingest(dyadic_rows(40, 0)).unwrap();
        client.ingest(dyadic_rows(40, 1)).unwrap();
        drop(client);
        handle.shutdown();
        handle.join().unwrap();
        let before = dir_bytes(&dir);
        assert!(before.iter().any(|(name, _)| name == "epoch.snap"), "{written}: no snapshot");

        // Recover under the other configuration.
        let err = dar_serve::recover_backend(
            backend(!ring),
            Arc::new(dar_durable::DiskStorage),
            Some(&snap_path),
            Some(&wal_path),
        )
        .err()
        .unwrap_or_else(|| panic!("{written} snapshot: mismatched recovery must fail"));
        let text = err.to_string();
        assert!(text.contains(&format!("snapshot is a {written} engine")), "{text}");
        assert!(text.contains("match --window-batches"), "{text}");
        assert_eq!(dir_bytes(&dir), before, "{written}: recovery touched the files");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Applies one event frame's diff to a rule set keyed by encoded rule.
fn apply_event(set: &mut BTreeSet<String>, event: &Json) {
    if event.get("resync").and_then(Json::as_bool) == Some(true) {
        set.clear();
    }
    if let Some(Json::Arr(dropped)) = event.get("dropped") {
        for rule in dropped {
            set.remove(&rule.encode());
        }
    }
    if let Some(Json::Arr(added)) = event.get("added") {
        for rule in added {
            set.insert(rule.encode());
        }
    }
}

#[test]
fn subscribers_reconstruct_live_rules_from_churn_events_and_resume() {
    // One-batch windows, two slots: every ingest advances the window and
    // publishes churn. Distinct batch sizes change min_cluster_support,
    // so every advance really churns the rule set.
    let spec = WindowSpec { batches: 1, slots: 2 };
    let handle = Server::start(windowed(spec), "127.0.0.1:0", serve_config(2)).unwrap();
    let addr = handle.addr();
    let timeout = Duration::from_secs(10);

    // Subscribe before any churn exists.
    let subscriber = Client::connect(addr, timeout).unwrap();
    let mut subscription = subscriber.subscribe(None, Backoff::default()).unwrap();
    assert_eq!(subscription.last_epoch(), 0, "nothing published yet");

    let mut writer = Client::connect(addr, timeout).unwrap();
    for (i, n) in [40usize, 60, 80].iter().enumerate() {
        writer.ingest(dyadic_rows(*n, 7 * i)).unwrap();
    }
    // The final live rule set, straight from the server. publish_churn
    // already closed this epoch, so the query is answered from cache at
    // the same epoch the last event carries.
    let final_response = writer.query(RuleQuery::default()).unwrap();
    let final_epoch = final_response.get("epoch").unwrap().as_u64().unwrap();
    let final_rules: BTreeSet<String> = match final_response.get("rules") {
        Some(Json::Arr(rules)) => rules.iter().map(Json::encode).collect(),
        _ => BTreeSet::new(),
    };
    assert!(!final_rules.is_empty());

    // Events were enqueued synchronously before each ingest ack, so
    // reading up to final_epoch terminates.
    let mut reconstructed = BTreeSet::new();
    let mut events = Vec::new();
    loop {
        let event = subscription.next_event().unwrap();
        apply_event(&mut reconstructed, &event);
        let epoch = event.get("epoch").unwrap().as_u64().unwrap();
        events.push(event);
        if epoch >= final_epoch {
            break;
        }
    }
    assert!(events.len() >= 2, "three distinct-support advances must churn at least twice");
    assert_eq!(reconstructed, final_rules, "replayed diffs diverge from the live rule set");
    assert_eq!(subscription.last_epoch(), final_epoch);
    assert_eq!(
        subscription.window_span(),
        handle.shared().window_span(),
        "events carry the live horizon"
    );

    // Resume: a second subscriber seen through event 1 replays only the
    // newer events and lands on the same final set.
    let first_epoch = events[0].get("epoch").unwrap().as_u64().unwrap();
    let mut resumed: BTreeSet<String> = BTreeSet::new();
    apply_event(&mut resumed, &events[0]);
    let resumer = Client::connect(addr, timeout).unwrap();
    let mut resumed_sub = resumer.subscribe(Some(first_epoch), Backoff::default()).unwrap();
    loop {
        let event = resumed_sub.next_event().unwrap();
        let epoch = event.get("epoch").unwrap().as_u64().unwrap();
        assert!(epoch > first_epoch, "replay must start after the seen epoch");
        apply_event(&mut resumed, &event);
        if epoch >= final_epoch {
            break;
        }
    }
    assert_eq!(resumed, final_rules, "resumed replay diverges from the live rule set");

    // Hang up first: an open client would hold a worker in its read
    // timeout and keep `join` waiting for it.
    drop((writer, subscription, resumed_sub));
    handle.shutdown();
    handle.join().unwrap();
}

/// At most 64 subscribers are registered at once: the 65th `subscribe`
/// gets a structured `overloaded` error on a connection that keeps
/// serving, and a subscriber that hung up frees its place once an event
/// has been pushed at it.
#[test]
fn subscribers_are_capped_and_a_hung_up_one_frees_its_place() {
    let spec = WindowSpec { batches: 1, slots: 2 };
    let handle = Server::start(windowed(spec), "127.0.0.1:0", serve_config(2)).unwrap();
    let addr = handle.addr();
    let timeout = Duration::from_secs(10);
    let subscribe = |client: &mut Client| {
        let line = client.round_trip_line(r#"{"verb":"subscribe"}"#).unwrap();
        dar_serve::json::parse(&line).unwrap()
    };

    let mut subscribers: Vec<Client> = (0..64)
        .map(|i| {
            let mut client = Client::connect(addr, timeout).unwrap();
            let handshake = subscribe(&mut client);
            assert_eq!(handshake.get("ok").and_then(Json::as_bool), Some(true), "subscriber {i}");
            client
        })
        .collect();

    let mut extra = Client::connect(addr, timeout).unwrap();
    let refused = subscribe(&mut extra);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(refused.get("error").and_then(Json::as_str), Some("overloaded"));
    let stats = extra.stats().expect("the refused connection keeps serving");
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("subscribe_requests").and_then(Json::as_u64), Some(65));

    // One subscriber hangs up; the next window seal pushes an event at it.
    drop(subscribers.pop());
    let mut writer = Client::connect(addr, timeout).unwrap();
    writer.ingest(dyadic_rows(40, 0)).unwrap();
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let reply = subscribe(&mut extra);
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("overloaded"));
        assert!(std::time::Instant::now() < deadline, "the hung-up subscriber kept its place");
        std::thread::sleep(Duration::from_millis(20));
    }

    drop((subscribers, extra, writer));
    handle.shutdown();
    handle.join().unwrap();
}
