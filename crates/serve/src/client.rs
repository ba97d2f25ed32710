//! A small blocking client for the newline-delimited JSON protocol —
//! used by the bench load generator, the CI smoke test, and anyone
//! scripting a `dar serve` instance from Rust.
//!
//! Structured server errors surface as a typed [`ServerError`] inside the
//! returned `io::Error` (recover it with [`ServerError::of`]), so callers
//! can distinguish transient conditions — `overloaded` backpressure,
//! `degraded` read-only mode — from hard failures.
//! [`Client::request_with_retry`] does that automatically under a
//! bounded-exponential [`Backoff`] with deterministic jitter, reconnecting
//! between attempts (a refused connection is answered and then hung up
//! on, so the old socket is dead).

use crate::json::{self, Json};
use crate::protocol::{self, Request};
use mining::RuleQuery;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A structured error response from the server, carried inside the
/// `io::Error` that request methods return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The machine-readable error code (`overloaded`, `degraded`,
    /// `rejected`, `bad-query`, …).
    pub code: String,
    /// The human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

impl ServerError {
    /// Recovers the structured error from an `io::Error`, if that is what
    /// it carries.
    pub fn of(err: &io::Error) -> Option<&ServerError> {
        err.get_ref()?.downcast_ref::<ServerError>()
    }

    /// Whether retrying (after a backoff delay) can plausibly succeed:
    /// `overloaded` clears when the accept queue drains, and `degraded`
    /// clears when an operator restarts the server on healthy storage.
    pub fn is_transient(&self) -> bool {
        matches!(self.code.as_str(), "overloaded" | "degraded")
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Delay for attempt *n* is `base · 2ⁿ` capped at `cap`, then jittered
/// into `[d/2, d]` by a hash of `seed` and *n* — deterministic, so tests
/// reproduce, but distinct across clients given distinct seeds (hand each
/// load-generator thread its index as the seed).
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Retries after the initial attempt.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter stream selector.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            attempts: 5,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl Backoff {
    /// The jittered delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(20)).min(self.cap);
        let d = exp.as_nanos().min(u64::MAX as u128) as u64;
        if d == 0 {
            return Duration::ZERO;
        }
        // SplitMix64 over (seed, attempt): cheap, deterministic jitter.
        let mut z = self.seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Duration::from_nanos(d / 2 + z % (d / 2 + 1))
    }
}

/// One connection to a `dar serve` instance.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with the given I/O timeouts. The dial itself is bounded
    /// by `timeout` too, so an unreachable (e.g. blackholed) address
    /// fails within the budget instead of hanging in `connect(2)`.
    ///
    /// # Errors
    /// Connection/setup failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout.max(Duration::from_millis(1)))?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Every frame goes out in one write; don't hold its tail for an ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { addr, timeout, reader, writer: stream })
    }

    /// Temporarily clamps the socket's I/O timeouts to
    /// `min(limit, self.timeout)` — how the deadline-budgeted path keeps
    /// a single blocked read from overrunning the caller's budget.
    fn clamp_io_timeout(&self, limit: Duration) {
        let limit = limit.min(self.timeout).max(Duration::from_millis(1));
        let stream = self.reader.get_ref();
        let _ = stream.set_read_timeout(Some(limit));
        let _ = stream.set_write_timeout(Some(limit));
    }

    /// Sends one raw line and returns the raw response line — the
    /// byte-exact surface, for tests asserting byte-identical answers.
    ///
    /// # Errors
    /// I/O failures, or a server that hung up without responding.
    pub fn round_trip_line(&mut self, line: &str) -> io::Result<String> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        protocol::write_frame(&mut self.writer, frame)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        let line_len = response.trim_end_matches('\n').len();
        response.truncate(line_len);
        Ok(response)
    }

    /// Sends a [`Request`] and returns the decoded response.
    ///
    /// # Errors
    /// I/O failures or an undecodable response.
    pub fn request(&mut self, request: &Request) -> io::Result<Json> {
        let line = self.round_trip_line(&request.to_json().encode())?;
        json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {line}")))
    }

    /// Sends a [`Request`], retrying transient failures — `overloaded`
    /// backpressure, `degraded` mode, or a connection the server hung up
    /// on — under `backoff`, reconnecting before each retry. Without a
    /// `deadline` a read timeout is not retried: a plain `ingest` is not
    /// idempotent, so resending it after a timeout could apply it twice.
    ///
    /// With a `deadline`, the total spent across attempts, socket reads,
    /// and backoff sleeps stays within the budget: each attempt's socket
    /// timeout is clamped to the remaining budget, read timeouts count as
    /// transient (the next attempt redials, escaping a blackholed
    /// connection), and the loop never sleeps past the deadline.
    ///
    /// # Errors
    /// The last failure once retries are exhausted, immediately on a
    /// non-transient error, or a `deadline` [`ServerError`] when the
    /// budget ran out first.
    pub fn request_with_retry(
        &mut self,
        request: &Request,
        backoff: &Backoff,
        deadline: Option<Instant>,
    ) -> io::Result<Json> {
        let remaining = || deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let mut attempt = 0;
        let result = loop {
            if let Some(remaining) = remaining() {
                if remaining.is_zero() {
                    break Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        ServerError {
                            code: "deadline".into(),
                            message: "request deadline exhausted before an attempt".into(),
                        },
                    ));
                }
                self.clamp_io_timeout(remaining);
            }
            match self.expect_ok(request) {
                Ok(response) => break Ok(response),
                Err(e) => {
                    let transient = ServerError::of(&e).is_some_and(ServerError::is_transient)
                        || e.kind() == io::ErrorKind::UnexpectedEof
                        || (deadline.is_some()
                            && matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ));
                    if !transient || attempt >= backoff.attempts {
                        break Err(e);
                    }
                    let delay = backoff.delay(attempt);
                    if remaining().is_some_and(|remaining| delay >= remaining) {
                        // The budget, not the retry policy, ended the
                        // request: surface the structured deadline error
                        // so callers can tell a stall from a refusal.
                        break Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            ServerError {
                                code: "deadline".into(),
                                message: format!(
                                    "request deadline exhausted after {} attempt(s): {e}",
                                    attempt + 1
                                ),
                            },
                        ));
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                    // A refused connection was hung up on; start clean,
                    // within what is left of the budget. A failed dial
                    // surfaces on the next attempt's write.
                    let limit = remaining().map_or(self.timeout, |r| r.min(self.timeout));
                    if let Ok(fresh) = Client::connect(self.addr, limit) {
                        let timeout = self.timeout;
                        *self = fresh;
                        self.timeout = timeout;
                    }
                }
            }
        };
        if deadline.is_some() {
            self.clamp_io_timeout(self.timeout);
        }
        result
    }

    /// `ingest` a batch; returns the server's total tuple count.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn ingest(&mut self, rows: Vec<Vec<f64>>) -> io::Result<u64> {
        let response = self.expect_ok(&Request::Ingest { rows })?;
        Ok(response.get("total").and_then(Json::as_u64).unwrap_or(0))
    }

    /// `query`; returns the decoded response object.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn query(&mut self, query: RuleQuery) -> io::Result<Json> {
        self.expect_ok(&Request::Query { query })
    }

    /// `stats`; returns the decoded response object.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.expect_ok(&Request::Stats)
    }

    /// `metrics`; returns the decoded response object (the full `dar-obs`
    /// registry under `"registry"`).
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.expect_ok(&Request::Metrics)
    }

    /// `snapshot`; returns the decoded response object.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn snapshot(&mut self) -> io::Result<Json> {
        self.expect_ok(&Request::Snapshot)
    }

    /// `advance`: seals the open window explicitly (windowed servers
    /// only); returns the decoded response (`sealed`, `opened`,
    /// `retired`, `window_span`).
    ///
    /// # Errors
    /// I/O failures or a structured server error (`unsupported` on a
    /// non-windowed server).
    pub fn advance(&mut self) -> io::Result<Json> {
        self.expect_ok(&Request::Advance)
    }

    /// `shutdown`; returns once the server has acknowledged.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.expect_ok(&Request::Shutdown).map(|_| ())
    }

    /// `shard_stats`; returns the decoded response object (epoch, tuples,
    /// row width, degraded flag, last committed coordinator seq).
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn shard_stats(&mut self) -> io::Result<Json> {
        self.expect_ok(&Request::ShardStats)
    }

    /// `shard_rescan`: the SON verify pass — the shard replays its WAL
    /// against the coordinator's merged clusters and counts, per candidate
    /// rule, the rows matching every position. Returns `(rows_scanned,
    /// counts)` with `counts[i]` for `rules[i]`.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn shard_rescan(
        &mut self,
        clusters: &str,
        rules: &[Vec<usize>],
    ) -> io::Result<(u64, Vec<u64>)> {
        let request =
            Request::ShardRescan { clusters: clusters.to_string(), rules: rules.to_vec() };
        let response = self.expect_ok(&request)?;
        let rows_scanned = response.get("rows_scanned").and_then(Json::as_u64).unwrap_or(0);
        let counts = match response.get("counts") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
            _ => Vec::new(),
        };
        Ok((rows_scanned, counts))
    }

    /// Sends any [`Request`], mapping a non-`ok` response to a typed
    /// [`ServerError`] — the building block the verb helpers share, public
    /// so the cluster coordinator can drive shard verbs generically.
    ///
    /// # Errors
    /// I/O failures or a structured server error.
    pub fn expect_ok(&mut self, request: &Request) -> io::Result<Json> {
        let response = self.request(request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response)
        } else {
            let code = response.get("error").and_then(Json::as_str).unwrap_or("unknown");
            let message = response.get("message").and_then(Json::as_str).unwrap_or("");
            Err(io::Error::other(ServerError { code: code.into(), message: message.into() }))
        }
    }

    /// `subscribe`: converts this connection into a live rule-churn
    /// [`Subscription`] (windowed servers only). The connection stops
    /// being request/response — the server pushes one newline-JSON
    /// `event` frame per window advance from here on, so the client is
    /// consumed. Pass `from_epoch` to resume after the given epoch (the
    /// server replays retained history, or sends a `resync` baseline
    /// frame when the gap exceeds it).
    ///
    /// # Errors
    /// I/O failures or a structured server error (`unsupported` on a
    /// non-windowed server).
    pub fn subscribe(
        mut self,
        from_epoch: Option<u64>,
        backoff: Backoff,
    ) -> io::Result<Subscription> {
        let (epoch, window_span) = self.subscribe_handshake(from_epoch)?;
        Ok(Subscription {
            addr: self.addr,
            timeout: self.timeout,
            reader: self.reader,
            backoff,
            // Resuming later from `from_epoch` (not the handshake epoch)
            // keeps any still-unread catch-up frames replayable.
            last_epoch: from_epoch.unwrap_or(epoch),
            window_span,
            reconnect_attempts: 0,
            lost: false,
        })
    }

    /// Sends the `subscribe` line and decodes the handshake, leaving the
    /// connection positioned at the event stream.
    fn subscribe_handshake(&mut self, from_epoch: Option<u64>) -> io::Result<SubscribeHandshake> {
        let response = self.expect_ok(&Request::Subscribe { from_epoch })?;
        let epoch = response.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        Ok((epoch, decode_span(response.get("window_span"))))
    }
}

/// `(epoch, window_span)` from the `subscribe` handshake.
type SubscribeHandshake = (u64, Option<(u64, u64)>);

fn decode_span(value: Option<&Json>) -> Option<(u64, u64)> {
    match value {
        Some(Json::Arr(items)) if items.len() == 2 => {
            Some((items[0].as_u64()?, items[1].as_u64()?))
        }
        _ => None,
    }
}

/// A live rule-churn subscription: one `event` frame per window advance,
/// with `{added, dropped, epoch, window_span}` diffs in the server's
/// deterministic rule encoding.
///
/// The subscription self-heals: when the server cuts it (a `lagged` final
/// frame after its bounded queue overflowed) or the connection drops, the
/// next [`Subscription::next_event`] redials and resubscribes with
/// `from_epoch` set to the last epoch actually delivered, under the
/// bounded [`Backoff`] — so the caller sees a gapless event sequence (or
/// one `resync` baseline frame when the outage outlived the server's
/// retained history).
///
/// The self-healing is *bounded across calls*: the reconnect budget is
/// `backoff.attempts` consecutive failed redials, counted across
/// [`Subscription::next_event`] invocations and reset only when an event
/// is actually delivered. Once spent, the subscription is terminally
/// lost: the call (and every later call) returns a structured
/// `subscription-lost` [`ServerError`] instead of retrying forever
/// against a dead server.
pub struct Subscription {
    addr: SocketAddr,
    timeout: Duration,
    reader: BufReader<TcpStream>,
    backoff: Backoff,
    /// The resume point: the last epoch delivered to the caller (or the
    /// subscribe baseline before any event arrived).
    last_epoch: u64,
    window_span: Option<(u64, u64)>,
    /// Consecutive failed redials since the last delivered event —
    /// persists across `next_event` calls so a dead server cannot be
    /// retried indefinitely one call at a time.
    reconnect_attempts: u32,
    /// Terminal: the reconnect budget was exhausted.
    lost: bool,
}

impl Subscription {
    /// The last epoch delivered (the handshake baseline before any event).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The live window horizon `(oldest seq, open seq)` as of the last
    /// frame.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.window_span
    }

    /// Whether the reconnect budget has been exhausted — once true, every
    /// [`Subscription::next_event`] call fails fast with the structured
    /// `subscription-lost` error.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Blocks for the next event frame, transparently reconnecting (and
    /// resuming from [`Subscription::last_epoch`]) on a lagged cut or a
    /// dropped connection.
    ///
    /// # Errors
    /// A read timeout (the feed idled past the client timeout — retrying
    /// is safe, nothing was lost), or — terminally — a structured
    /// `subscription-lost` [`ServerError`] once `backoff.attempts`
    /// consecutive reconnects have failed (across calls). After that the
    /// subscription never retries again; build a fresh one to resume.
    pub fn next_event(&mut self) -> io::Result<Json> {
        loop {
            if self.lost {
                return Err(self.lost_error());
            }
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => {} // EOF: server shut down or cut us — reconnect
                Ok(_) => {
                    let trimmed = line.trim_end_matches('\n');
                    if trimmed.is_empty() {
                        continue;
                    }
                    let frame = json::parse(trimmed).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {trimmed}"))
                    })?;
                    if frame.get("ok").and_then(Json::as_bool) == Some(true) {
                        if let Some(epoch) = frame.get("epoch").and_then(Json::as_u64) {
                            self.last_epoch = epoch;
                        }
                        if let Some(span) = decode_span(frame.get("window_span")) {
                            self.window_span = Some(span);
                        }
                        self.reconnect_attempts = 0; // delivery refills the budget
                        return Ok(frame);
                    }
                    // A structured final frame (`lagged`) — fall through
                    // to resubscribe from the last delivered epoch.
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    // An idle feed, not a failure: the caller may retry.
                    return Err(e);
                }
                Err(_) => {} // broken socket — reconnect
            }
            if self.reconnect_attempts >= self.backoff.attempts {
                self.lost = true;
                return Err(self.lost_error());
            }
            std::thread::sleep(self.backoff.delay(self.reconnect_attempts));
            self.reconnect_attempts += 1;
            // A failed redial just consumes the attempt; the next loop
            // iteration's read sees EOF-like state and retries.
            let _ = self.resubscribe();
        }
    }

    /// The terminal error for an exhausted reconnect budget — structured,
    /// so callers can match `ServerError::of(&e)` on `subscription-lost`.
    fn lost_error(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            ServerError {
                code: "subscription-lost".into(),
                message: format!(
                    "subscription to {} lost: {} consecutive reconnects failed (last delivered epoch {})",
                    self.addr, self.backoff.attempts, self.last_epoch
                ),
            },
        )
    }

    /// Redials and resubscribes from the last delivered epoch.
    fn resubscribe(&mut self) -> io::Result<()> {
        let mut client = Client::connect(self.addr, self.timeout)?;
        let (_, window_span) = client.subscribe_handshake(Some(self.last_epoch))?;
        self.reader = client.reader;
        self.window_span = window_span.or(self.window_span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_errors_survive_the_io_error_wrapper() {
        let inner = ServerError { code: "degraded".into(), message: "read-only".into() };
        let err = io::Error::other(inner.clone());
        let back = ServerError::of(&err).expect("downcast");
        assert_eq!(back, &inner);
        assert!(back.is_transient());
        assert!(!ServerError { code: "bad-query".into(), message: String::new() }.is_transient());
        assert!(ServerError::of(&io::Error::other("plain string")).is_none());
    }

    #[test]
    fn backoff_is_bounded_deterministic_and_jittered() {
        let b = Backoff { attempts: 8, base: Duration::from_millis(10), ..Backoff::default() };
        for attempt in 0..b.attempts {
            let d = b.delay(attempt);
            assert!(d <= b.cap, "attempt {attempt}: {d:?} exceeds cap");
            let exp = b.base.saturating_mul(1 << attempt).min(b.cap);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} below half of {exp:?}");
            assert_eq!(d, b.delay(attempt), "same seed and attempt must repeat");
        }
        // Distinct seeds give distinct jitter streams (with overwhelming
        // probability for any particular attempt).
        let other = Backoff { seed: 1, ..b.clone() };
        assert!((0..8).any(|a| b.delay(a) != other.delay(a)));
    }
}
