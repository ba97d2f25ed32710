//! The rule-churn feed: diffing the canonical rule artifact across
//! epochs and fanning the diffs out to `subscribe` connections.
//!
//! One feed per server. After every window advance the serving layer
//! re-mines the canonical query ([`mining::RuleQuery::default`]), encodes
//! each rule through the deterministic wire codec, and hands the encoded
//! set here. The feed diffs it against the previous epoch's set
//! ([`dar_stream::diff`]), renders one `event` frame, and pushes the
//! frame's line into every subscriber's **bounded** queue:
//!
//! * a subscriber that keeps up receives every event, in epoch order,
//!   byte-identical across runs (the codec is deterministic end to end);
//! * a subscriber whose queue is full is *dropped* — the publisher never
//!   blocks and never buffers unboundedly — and its connection thread
//!   writes a final structured `lagged` frame before hanging up;
//! * at most `MAX_SUBSCRIBERS` (64) subscribers are registered at once; a
//!   subscriber whose connection thread has ended (its client hung up)
//!   no longer counts;
//! * a bounded history of recent events lets a reconnecting subscriber
//!   resume from its last seen epoch without replaying everything; a gap
//!   beyond the history is bridged with a `resync` baseline frame
//!   carrying the full current rule set, so replaying the stream always
//!   reconstructs the live rules.

use crate::json::{self, Json};
use crate::protocol;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Event frames retained for resuming subscribers.
const HISTORY_DEPTH: usize = 64;
/// Per-subscriber bounded queue depth (event lines). Overflow drops the
/// subscriber, never delays the publisher.
const QUEUE_DEPTH: usize = 256;
/// Registered subscribers one feed serves at most; each holds a pusher
/// thread and up to [`QUEUE_DEPTH`] event lines. A `subscribe` past the
/// cap is refused with `overloaded`.
pub(crate) const MAX_SUBSCRIBERS: usize = 64;

/// Why a subscriber's stream ended, shared between the publisher (which
/// decides) and the connection thread (which tells the client).
pub(crate) struct SubscriberCut {
    lagged: AtomicBool,
    /// The epoch of the event that overflowed the queue.
    at_epoch: AtomicU64,
}

impl SubscriberCut {
    /// Whether the publisher cut this subscriber for lagging (as opposed
    /// to a server shutdown closing the feed).
    pub fn is_lagged(&self) -> bool {
        self.lagged.load(Ordering::SeqCst)
    }

    /// The epoch whose event overflowed the queue.
    pub fn epoch(&self) -> u64 {
        self.at_epoch.load(Ordering::SeqCst)
    }
}

struct Subscriber {
    tx: SyncSender<String>,
    cut: Arc<SubscriberCut>,
}

struct DiffEvent {
    epoch: u64,
    line: String,
}

struct ChurnState {
    /// The previous epoch's canonical rule set, each rule pre-encoded
    /// through the wire codec (the byte-stable diff unit).
    prev_rules: Vec<String>,
    prev_epoch: u64,
    prev_span: Option<(u64, u64)>,
    history: VecDeque<DiffEvent>,
    /// The epoch of the newest event evicted from `history` (0 = nothing
    /// evicted yet): a resume point below this needs a resync baseline.
    history_floor: u64,
    subscribers: Vec<Subscriber>,
    closed: bool,
}

/// What [`ChurnFeed::subscribe`] hands the connection thread.
pub(crate) struct SubscriptionRx {
    /// The bounded event-line queue (catch-up frames already enqueued).
    pub rx: Receiver<String>,
    /// The cut reason, set by the publisher before dropping the sender.
    pub cut: Arc<SubscriberCut>,
    /// The epoch the stream starts after (for the handshake).
    pub epoch: u64,
    /// The window span at subscription time (for the handshake).
    pub window_span: Option<(u64, u64)>,
}

/// The per-server churn feed (see module docs).
pub(crate) struct ChurnFeed {
    state: Mutex<ChurnState>,
    /// Subscriber connection threads still running, joined on close.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ChurnFeed {
    pub fn new() -> Self {
        ChurnFeed {
            state: Mutex::new(ChurnState {
                prev_rules: Vec::new(),
                prev_epoch: 0,
                prev_span: None,
                history: VecDeque::new(),
                history_floor: 0,
                subscribers: Vec::new(),
                closed: false,
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChurnState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publishes one epoch's canonical rule artifact. Diffs against the
    /// previous epoch, fans the event out, and becomes the new baseline.
    /// Stale epochs (at or below the last published) are ignored, so
    /// racing writers cannot reorder the stream. No-churn epochs advance
    /// the baseline without emitting an event.
    pub fn publish(&self, epoch: u64, window_span: Option<(u64, u64)>, rules: Vec<String>) {
        let mut state = self.lock();
        if state.closed || (state.prev_epoch != 0 && epoch <= state.prev_epoch) {
            return;
        }
        let d = dar_stream::diff(&state.prev_rules, &rules);
        state.prev_rules = rules;
        state.prev_epoch = epoch;
        state.prev_span = window_span;
        if d.is_empty() {
            return;
        }
        let line = protocol::event_frame(
            epoch,
            window_span,
            parse_rules(&d.added),
            parse_rules(&d.dropped),
            false,
        )
        .encode();
        if state.history.len() >= HISTORY_DEPTH {
            if let Some(evicted) = state.history.pop_front() {
                state.history_floor = evicted.epoch;
            }
        }
        state.history.push_back(DiffEvent { epoch, line: line.clone() });
        fan_out(&mut state, epoch, &line);
    }

    /// Registers a subscriber, enqueueing its catch-up frames under the
    /// same lock that orders live publishes — no event can fall between
    /// catch-up and the live stream. `None` when [`MAX_SUBSCRIBERS`] are
    /// already registered.
    pub fn subscribe(&self, from_epoch: Option<u64>) -> Option<SubscriptionRx> {
        let mut state = self.lock();
        let metrics = dar_stream::metrics::metrics();
        // A subscriber whose receiving half is gone (its connection thread
        // ended) holds the only reference left to its cut.
        let before = state.subscribers.len();
        state.subscribers.retain(|sub| Arc::strong_count(&sub.cut) > 1);
        metrics.subscribers.add(-((before - state.subscribers.len()) as i64));
        if state.subscribers.len() >= MAX_SUBSCRIBERS {
            return None;
        }
        let (tx, rx) = std::sync::mpsc::sync_channel::<String>(QUEUE_DEPTH);
        match from_epoch {
            // Resume: replay retained events newer than the subscriber's
            // last seen epoch, if the history still covers the gap.
            Some(seen) if seen >= state.history_floor => {
                for event in state.history.iter().filter(|e| e.epoch > seen) {
                    let _ = tx.try_send(event.line.clone());
                    metrics.events_pushed.inc();
                }
            }
            // Fresh subscriber, or a gap beyond the history: baseline the
            // stream with the full current rule set so replay reconstructs
            // the live rules.
            _ => {
                if state.prev_epoch != 0 {
                    let line = protocol::event_frame(
                        state.prev_epoch,
                        state.prev_span,
                        parse_rules(&state.prev_rules),
                        Vec::new(),
                        true,
                    )
                    .encode();
                    let _ = tx.try_send(line);
                    metrics.events_pushed.inc();
                }
            }
        }
        let cut =
            Arc::new(SubscriberCut { lagged: AtomicBool::new(false), at_epoch: AtomicU64::new(0) });
        state.subscribers.push(Subscriber { tx, cut: Arc::clone(&cut) });
        metrics.subscribers.add(1);
        Some(SubscriptionRx { rx, cut, epoch: state.prev_epoch, window_span: state.prev_span })
    }

    /// Tracks a subscriber connection thread for join-on-close, dropping
    /// the handles of threads that already ended.
    pub fn track(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock().unwrap_or_else(|p| p.into_inner());
        threads.retain(|thread| !thread.is_finished());
        threads.push(handle);
    }

    /// Closes the feed: drops every subscriber sender (their connection
    /// threads see the disconnect and hang up) and joins the threads.
    pub fn close(&self) {
        let dropped = {
            let mut state = self.lock();
            state.closed = true;
            std::mem::take(&mut state.subscribers)
        };
        dar_stream::metrics::metrics().subscribers.add(-(dropped.len() as i64));
        drop(dropped);
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// Pushes one event line into every subscriber queue; a full queue cuts
/// that subscriber (lagged), a disconnected one is reaped silently.
fn fan_out(state: &mut ChurnState, epoch: u64, line: &str) {
    let metrics = dar_stream::metrics::metrics();
    state.subscribers.retain(|sub| match sub.tx.try_send(line.to_string()) {
        Ok(()) => {
            metrics.events_pushed.inc();
            true
        }
        Err(TrySendError::Full(_)) => {
            sub.cut.at_epoch.store(epoch, Ordering::SeqCst);
            sub.cut.lagged.store(true, Ordering::SeqCst);
            metrics.events_dropped.inc();
            metrics.subscribers.add(-1);
            false
        }
        Err(TrySendError::Disconnected(_)) => {
            metrics.subscribers.add(-1);
            false
        }
    });
}

/// Re-parses pre-encoded rule lines into wire values for embedding in an
/// event frame. The lines came out of the deterministic encoder, so this
/// cannot fail on real input; a hypothetically malformed line is carried
/// as a string rather than dropped.
fn parse_rules(rules: &[String]) -> Vec<Json> {
    rules.iter().map(|r| json::parse(r).unwrap_or_else(|_| Json::Str(r.clone()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(tags: &[u64]) -> Vec<String> {
        tags.iter().map(|t| format!("{{\"rule\":{t}}}")).collect()
    }

    fn added_tags(line: &str) -> Vec<u64> {
        let frame = json::parse(line).unwrap();
        match frame.get("added").unwrap() {
            Json::Arr(items) => {
                items.iter().map(|r| r.get("rule").unwrap().as_u64().unwrap()).collect()
            }
            _ => panic!("added is an array"),
        }
    }

    #[test]
    fn events_flow_in_epoch_order_and_skip_no_churn_epochs() {
        let feed = ChurnFeed::new();
        let sub = feed.subscribe(None).unwrap();
        feed.publish(1, Some((0, 0)), rules(&[1, 2]));
        feed.publish(2, Some((0, 1)), rules(&[1, 2])); // no churn: no event
        feed.publish(3, Some((1, 2)), rules(&[2, 3]));
        let first = sub.rx.try_recv().unwrap();
        assert_eq!(added_tags(&first), vec![1, 2]);
        let second = sub.rx.try_recv().unwrap();
        assert_eq!(added_tags(&second), vec![3]);
        let frame = json::parse(&second).unwrap();
        assert_eq!(frame.get("epoch").unwrap().as_u64(), Some(3));
        assert!(sub.rx.try_recv().is_err(), "no-churn epoch emitted nothing");
    }

    #[test]
    fn late_subscriber_gets_a_resync_baseline() {
        let feed = ChurnFeed::new();
        feed.publish(1, None, rules(&[1, 2]));
        feed.publish(2, None, rules(&[2, 3]));
        let sub = feed.subscribe(None).unwrap();
        assert_eq!(sub.epoch, 2);
        let baseline = sub.rx.try_recv().unwrap();
        let frame = json::parse(&baseline).unwrap();
        assert_eq!(frame.get("resync").unwrap().as_bool(), Some(true));
        assert_eq!(added_tags(&baseline), vec![2, 3], "baseline carries the full live set");
    }

    #[test]
    fn resuming_from_a_seen_epoch_replays_only_newer_events() {
        let feed = ChurnFeed::new();
        feed.publish(1, None, rules(&[1]));
        feed.publish(2, None, rules(&[1, 2]));
        feed.publish(3, None, rules(&[1, 2, 3]));
        let sub = feed.subscribe(Some(1)).unwrap();
        let lines: Vec<String> = sub.rx.try_iter().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(added_tags(&lines[0]), vec![2]);
        assert_eq!(added_tags(&lines[1]), vec![3]);
        let frames: Vec<Json> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        assert!(frames.iter().all(|f| f.get("resync").unwrap().as_bool() == Some(false)));
    }

    #[test]
    fn stale_epochs_are_ignored() {
        let feed = ChurnFeed::new();
        let sub = feed.subscribe(None).unwrap();
        feed.publish(5, None, rules(&[1]));
        feed.publish(4, None, rules(&[9])); // stale racing writer
        let lines: Vec<String> = sub.rx.try_iter().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(added_tags(&lines[0]), vec![1]);
    }

    #[test]
    fn a_full_queue_cuts_the_subscriber_not_the_publisher() {
        let feed = ChurnFeed::new();
        let sub = feed.subscribe(None).unwrap();
        // Overflow the bounded queue: one event per epoch, never draining.
        for epoch in 1..=(QUEUE_DEPTH as u64 + 8) {
            feed.publish(epoch, None, rules(&[epoch]));
        }
        assert!(sub.cut.is_lagged());
        assert!(sub.cut.epoch() > QUEUE_DEPTH as u64);
        // The queue still drains what was delivered before the cut, then
        // reports the disconnect the dropped sender left behind.
        let delivered = sub.rx.try_iter().count();
        assert_eq!(delivered, QUEUE_DEPTH);
        assert!(sub.rx.try_recv().is_err());
    }

    #[test]
    fn subscribers_are_capped_and_gone_ones_free_their_place() {
        let feed = ChurnFeed::new();
        let mut subs: Vec<SubscriptionRx> =
            (0..MAX_SUBSCRIBERS).map(|_| feed.subscribe(None).unwrap()).collect();
        assert!(feed.subscribe(None).is_none(), "one past the cap is refused");
        drop(subs.pop());
        let replacement = feed.subscribe(None);
        assert!(replacement.is_some(), "a dropped subscriber frees its place");
        assert!(feed.subscribe(None).is_none());
    }
}
