//! The `dar` processes the untraced run starts: spawn, wait until
//! listening, read peak RSS, stop — and a watchdog that kills every one of
//! them if the run overstays its budget.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// PIDs of live children, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How long a `dar` process may take to boot (recovery included).
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `dar` process. Dropping it kills and reaps it.
pub struct Proc {
    child: Child,
    /// The address it announced on stderr.
    pub addr: SocketAddr,
}

impl Proc {
    /// Starts `dar <args…>` with stderr captured to `<dir>/<name>.err`
    /// and blocks until it announces its listening address.
    ///
    /// # Errors
    /// Spawn failures, an early exit, or no announcement within the boot
    /// timeout.
    pub fn spawn(dar: &Path, args: &[String], dir: &Path, name: &str) -> io::Result<Proc> {
        let err_path: PathBuf = dir.join(format!("{name}.err"));
        let child = Command::new(dar)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&err_path)?)
            .spawn()?;
        live().push(child.id());
        let mut proc = Proc { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            if let Some(addr) = announced(&err_path)? {
                proc.addr = addr;
                return Ok(proc);
            }
            if let Some(status) = proc.child.try_wait()? {
                let log = std::fs::read_to_string(&err_path).unwrap_or_default();
                return Err(io::Error::other(format!("{name} exited early ({status}): {log}")));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!("{name} did not start listening")));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// `kill -9` and reap (what dropping does; named for the call sites).
    pub fn kill(self) {}
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let id = self.child.id();
        live().retain(|&p| p != id);
    }
}

/// The address from a `… listening on <addr> …` stderr line, once written.
fn announced(err_path: &Path) -> io::Result<Option<SocketAddr>> {
    let reader = BufReader::new(File::open(err_path)?);
    for line in reader.lines() {
        let line = line?;
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or("");
            if let Ok(addr) = addr.parse() {
                return Ok(Some(addr));
            }
        }
    }
    Ok(None)
}

/// Kills every live child and exits with code 3 once `budget` has passed,
/// so a hung run still ends in bounded time with nothing left running.
pub fn arm_watchdog(budget: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        let pids: Vec<String> = live().iter().map(u32::to_string).collect();
        eprintln!("ledger: run exceeded {budget:?}; killing {} process(es)", pids.len());
        if !pids.is_empty() {
            let _ = Command::new("kill").arg("-9").args(&pids).status();
        }
        std::process::exit(3);
    });
}
