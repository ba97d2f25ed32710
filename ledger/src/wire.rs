//! The untraced run's client side: one blocking connection per caller,
//! closed loop (each request waits for its reply).
//!
//! Each request leaves in a single `write` on a `TCP_NODELAY` socket, so
//! the load generator adds no Nagle / delayed-ACK stall of its own: a
//! request written apart from its newline waits ≈40 ms on Linux loopback
//! whenever the receiver delays its ACK, which made ingest latencies
//! bimodal. Stalls inside the system under test (coordinator → shard
//! hops, the servers' own replies) are measured as they are.

use dar_serve::json::{self, Json};
use dar_serve::protocol::Request;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket timeout for every ledger connection.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// One connection to a `dar` process.
pub struct Wire {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    /// Connects.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let dial = || -> io::Result<Wire> {
            let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            Ok(Wire { addr, reader: BufReader::new(stream.try_clone()?), writer: stream })
        };
        dial().map_err(|e| format!("{addr}: {e}"))
    }

    fn round_trip(&mut self, line: String) -> io::Result<String> {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        if response.ends_with('\n') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends one request and returns the reply line — `None` for a failed
    /// call: `"ok":false`, an undecodable reply or a transport failure —
    /// with its latency in ms: from encoding the request to having decoded
    /// the reply, as a client using the protocol would. Failures are
    /// reported on stderr; after a transport failure the connection is
    /// redialled, since a late reply would otherwise answer the next
    /// request.
    ///
    /// # Errors
    /// The connection is lost and cannot be redialled: the process is gone.
    pub fn call(&mut self, request: &Request) -> Result<(Option<String>, f64), String> {
        let start = Instant::now();
        let reply = self.round_trip(request.to_json().encode());
        let failure = match &reply {
            Ok(line) => match json::parse(line) {
                Ok(parsed) if parsed.get("ok").and_then(Json::as_bool) == Some(true) => None,
                Ok(_) => Some(format!("refused: {}", truncate(line))),
                Err(e) => Some(format!("undecodable reply ({e}): {}", truncate(line))),
            },
            Err(e) => Some(e.to_string()),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let Some(why) = failure else {
            return Ok((reply.ok(), ms));
        };
        eprintln!("ledger: request to {} failed: {why}", self.addr);
        if reply.is_err() {
            *self = Wire::connect(self.addr)?;
        }
        Ok((None, ms))
    }

    /// The server's `metrics` response (its whole `dar-obs` registry).
    ///
    /// # Errors
    /// As [`Wire::call`], or a failed `metrics` call.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let line = self.call(&Request::Metrics)?.0.ok_or("the metrics request failed")?;
        json::parse(&line).map_err(|e| e.to_string())
    }
}

/// Opens a churn subscription that ends (rather than redials) when the
/// server goes away.
///
/// # Errors
/// Connection or handshake failures.
pub fn subscribe(addr: SocketAddr) -> Result<dar_serve::Subscription, String> {
    let once = dar_serve::Backoff { attempts: 0, ..dar_serve::Backoff::default() };
    dar_serve::Client::connect(addr, TIMEOUT)
        .and_then(|client| client.subscribe(None, once))
        .map_err(|e| e.to_string())
}

/// The first 200 bytes of a line, for error messages.
pub fn truncate(line: &str) -> &str {
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}
