//! The scoped thread pool.
//!
//! The pool is deliberately minimal: it owns nothing but a worker count.
//! Every parallel region spawns scoped workers (`std::thread::scope`),
//! drains a shared chunked queue with the caller as one of the workers
//! (so a `w`-worker region spawns `w − 1` threads), and joins before
//! returning — so borrowed data (`&mut` ACF trees, `&` adjacency bitsets)
//! flows into tasks without `unsafe`, `'static` bounds, or channels, and
//! a panicking task panics the caller at the join. Workers tag every result with its input index
//! and the caller reassembles them in input order: scheduling is
//! non-deterministic, results never are.

use crate::metrics::{metrics, region_ns};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The number of workers [`ThreadPool::resolve`] uses for `threads = 0`:
/// whatever parallelism the host advertises (1 when it advertises nothing).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed-width scoped thread pool.
///
/// ```
/// use dar_par::ThreadPool;
/// let pool = ThreadPool::new(4);
/// let mut items = vec![1u64, 2, 3, 4, 5];
/// let doubled = pool.run_mut("example", &mut items, |i, x| {
///     *x *= 2;
///     (i, *x)
/// });
/// assert_eq!(items, vec![2, 4, 6, 8, 10]);
/// assert_eq!(doubled, vec![(0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ThreadPool { workers: workers.max(1) }
    }

    /// The single-worker pool: every region runs inline on the caller's
    /// thread — the serial reference every parallel result must match.
    pub fn serial() -> Self {
        ThreadPool::new(1)
    }

    /// Resolves a configured thread count: `0` means "use the host's
    /// available parallelism", anything else is taken literally.
    pub fn resolve(threads: usize) -> Self {
        match threads {
            0 => ThreadPool::new(available_parallelism()),
            n => ThreadPool::new(n),
        }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether regions run inline on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Runs `f(index, item)` over every item of a mutable slice — one task
    /// per item, claimed from a shared queue — and returns the results in
    /// input order. This is the Phase I shape: one ACF tree per task, each
    /// task seeing the whole row batch.
    ///
    /// # Panics
    /// Re-panics on the caller's thread if any task panics.
    pub fn run_mut<T, R, F>(&self, region: &'static str, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let (m, t0) = self.region_start(region, n);
        if self.is_serial() || n <= 1 {
            let out = items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect();
            self.region_end(region, t0);
            return out;
        }
        let queue = Mutex::new(items.iter_mut().enumerate());
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let work = || {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let claimed = queue.lock().expect("queue lock").next();
                let Some((i, item)) = claimed else { break };
                m.queue_depth.add(-1);
                local.push((i, f(i, item)));
            }
            results.lock().expect("results lock").extend(local);
        };
        fan_out(self.workers.min(n), &work);
        let out = ordered(results.into_inner().expect("no live workers"), n);
        self.region_end(region, t0);
        out
    }

    /// Runs `f(index)` for `0..n`, claiming indices in chunks of `chunk`
    /// from an atomic cursor, and returns the results in index order. This
    /// is the Phase II shape: pure per-index work (a distance-matrix row,
    /// a connected component) over shared read-only state captured in `f`.
    ///
    /// # Panics
    /// Re-panics on the caller's thread if any task panics.
    pub fn map_indexed<R, F>(&self, region: &'static str, n: usize, chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let (m, t0) = self.region_start(region, n.div_ceil(chunk));
        if self.is_serial() || n <= chunk {
            let out = (0..n).map(&f).collect();
            self.region_end(region, t0);
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let work = || {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                m.queue_depth.add(-1);
                for i in start..(start + chunk).min(n) {
                    local.push((i, f(i)));
                }
            }
            results.lock().expect("results lock").extend(local);
        };
        fan_out(self.workers.min(n.div_ceil(chunk)), &work);
        let out = ordered(results.into_inner().expect("no live workers"), n);
        self.region_end(region, t0);
        out
    }

    fn region_start(
        &self,
        _region: &'static str,
        tasks: usize,
    ) -> (&'static crate::metrics::ParMetrics, Instant) {
        let m = metrics();
        m.regions.inc();
        m.tasks.add(tasks as u64);
        m.workers.set(self.workers as i64);
        m.queue_depth.set(tasks as i64);
        (m, Instant::now())
    }

    fn region_end(&self, region: &'static str, t0: Instant) {
        metrics().queue_depth.set(0);
        region_ns(region).observe_duration(t0.elapsed());
    }
}

impl Default for ThreadPool {
    /// The host's available parallelism ([`ThreadPool::resolve`] of 0).
    fn default() -> Self {
        ThreadPool::resolve(0)
    }
}

/// Runs `work` on `workers` threads: `workers − 1` spawned ones and the
/// caller's own, joining them all before returning. A panic in any of
/// them, the caller's included, panics the caller once every spawned
/// thread has joined.
fn fan_out(workers: usize, work: &(impl Fn() + Sync)) {
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Reassembles index-tagged results into input order.
fn ordered<R>(mut tagged: Vec<(usize, R)>, n: usize) -> Vec<R> {
    debug_assert_eq!(tagged.len(), n, "every task must produce exactly one result");
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_available_parallelism() {
        assert_eq!(ThreadPool::resolve(0).workers(), available_parallelism());
        assert_eq!(ThreadPool::resolve(3).workers(), 3);
        assert_eq!(ThreadPool::new(0).workers(), 1, "zero clamps to one worker");
        assert!(ThreadPool::serial().is_serial());
    }

    #[test]
    fn run_mut_mutates_every_item_and_orders_results() {
        for workers in [1, 2, 4, 8] {
            let pool = ThreadPool::new(workers);
            let mut items: Vec<u64> = (0..100).collect();
            let squares = pool.run_mut("test_run_mut", &mut items, |i, x| {
                *x += 1;
                (i as u64) * (i as u64)
            });
            assert_eq!(items, (1..=100).collect::<Vec<u64>>(), "workers={workers}");
            assert_eq!(squares, (0..100).map(|i: u64| i * i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn map_indexed_matches_serial_at_every_width_and_chunk() {
        let serial: Vec<usize> = (0..57).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 3, 8] {
            for chunk in [1, 4, 16, 64] {
                let pool = ThreadPool::new(workers);
                let got = pool.map_indexed("test_map", 57, chunk, |i| i * 3 + 1);
                assert_eq!(got, serial, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn empty_and_single_item_regions_work() {
        let pool = ThreadPool::new(4);
        let mut empty: Vec<u8> = Vec::new();
        assert!(pool.run_mut("test_empty", &mut empty, |_, _| ()).is_empty());
        assert!(pool.map_indexed("test_empty", 0, 8, |i| i).is_empty());
        assert_eq!(pool.map_indexed("test_empty", 1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let pool = ThreadPool::new(4);
            pool.map_indexed("test_panic", 64, 1, |i| {
                if i == 13 {
                    panic!("task 13 failed");
                }
                i
            });
        });
        assert!(result.is_err(), "a panicking task must panic the region");
    }

    #[test]
    fn a_panic_in_a_task_the_caller_runs_panics_the_caller() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        // Spawned workers hold their first task until the caller has
        // claimed one, so the caller always runs a task; only the
        // caller's tasks panic, and the payload shows the panic that
        // surfaced is the caller's own, not the scope's "a scoped thread
        // panicked".
        let caller = std::thread::current().id();
        let deadline = Instant::now() + Duration::from_secs(10);
        let task = |caller_ran: &AtomicBool| {
            if std::thread::current().id() == caller {
                caller_ran.store(true, Ordering::SeqCst);
                std::panic::panic_any("caller task failed");
            }
            while !caller_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        let payload = |result: std::thread::Result<()>| {
            result.expect_err("the caller's panic must surface").downcast::<&str>().ok()
        };
        for workers in [2, 4] {
            let caller_ran = AtomicBool::new(false);
            let result = std::panic::catch_unwind(|| {
                ThreadPool::new(workers).map_indexed("test_panic", 64, 1, |_| {
                    task(&caller_ran);
                });
            });
            assert_eq!(payload(result).as_deref(), Some(&"caller task failed"), "map_indexed");
            let caller_ran = AtomicBool::new(false);
            let mut items = vec![0u8; 64];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ThreadPool::new(workers).run_mut("test_panic", &mut items, |_, _| {
                    task(&caller_ran);
                });
            }));
            assert_eq!(payload(result).as_deref(), Some(&"caller task failed"), "run_mut");
        }
    }

    #[test]
    fn serial_worker_panic_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            let mut items = vec![1, 2, 3];
            ThreadPool::serial().run_mut("test_panic", &mut items, |i, _| {
                assert_ne!(i, 2, "task 2 failed");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_regions_record_metrics() {
        let before = dar_obs::global()
            .snapshot()
            .into_iter()
            .find(|s| s.name == "dar_par_regions_total")
            .map_or(0, |s| match s.value {
                dar_obs::MetricValue::Counter(v) => v,
                _ => 0,
            });
        ThreadPool::new(2).map_indexed("test_metrics", 8, 2, |i| i);
        let snap = dar_obs::global().snapshot();
        let counter = |name: &str| {
            snap.iter()
                .filter(|s| s.name == name)
                .map(|s| match s.value {
                    dar_obs::MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert!(counter("dar_par_regions_total") > before);
        assert!(counter("dar_par_tasks_total") >= 4);
        assert!(
            snap.iter().any(|s| s.name == "dar_par_region_ns"
                && s.labels.iter().any(|(k, v)| k == "region" && v == "test_metrics")),
            "region-labelled wall-time histogram must be registered"
        );
    }
}
