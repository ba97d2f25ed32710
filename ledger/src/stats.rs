//! Order statistics, span arithmetic and registry deltas — the few
//! numerical rules every ledger figure goes through.

use dar_serve::Json;

/// Nearest-rank percentile of an ascending, non-empty sample: the
/// smallest value with at least `p` percent of the sample at or below it.
/// No interpolation, so every reported percentile is a latency that was
/// actually observed.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100).clamp(1, n)
}

/// The tail a sample of `n` supports: p95 when at least ten samples lie
/// beyond it (n ≥ 200), else p90 under the same rule (n ≥ 100), else none.
pub fn supported_tail(n: usize) -> Option<u32> {
    [95, 90].into_iter().find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// The `p`-th nearest-rank percentile, refused (`None`) when fewer than
/// ten samples lie beyond it — a tail the sample cannot support.
pub fn tail(sorted: &[f64], p: u32) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), p) >= 10)
        .then(|| nearest_rank(sorted, f64::from(p)))
}

/// Sorts a sample ascending (total order; the ledger never records NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The three quartiles by Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so `--repeat` spreads match the ones
/// the benchmark's acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// A span's self time: its duration minus the union of its children's
/// intervals (each clipped to the parent), so overlapping children are
/// not subtracted twice.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// The `sum`/`count` movement of one histogram family between two reads —
/// exact, unlike the registry's bucket-bound quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistDelta {
    /// Observations recorded between the reads.
    pub count: u64,
    /// Sum of those observations (nanoseconds for `_ns` families).
    pub sum: u64,
}

impl HistDelta {
    /// The delta between two `(count, sum)` reads of one family.
    pub fn between(before: (u64, u64), after: (u64, u64)) -> HistDelta {
        HistDelta { count: after.0 - before.0, sum: after.1 - before.1 }
    }

    /// Mean observation in milliseconds (for `_ns` families), if any.
    pub fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64 / 1e6)
    }
}

/// Reads `(count, sum)` of histogram `name` from this process's registry.
pub fn local_hist(name: &str) -> (u64, u64) {
    let snap = dar_obs::global().histogram(name).snapshot();
    (snap.count, snap.sum)
}

/// Reads `(count, sum)` of histogram `name` from the registry JSON a
/// server returns for the `metrics` verb: the series whose `verb` label is
/// `verb`, or the sum across label sets when `verb` is `None`.
pub fn wire_hist(metrics_response: &Json, name: &str, verb: Option<&str>) -> (u64, u64) {
    let series = metrics_response
        .get("registry")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    series
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .filter(|m| {
            verb.is_none_or(|v| {
                m.get("labels").and_then(|l| l.get("verb")).and_then(Json::as_str) == Some(v)
            })
        })
        .fold((0, 0), |(count, sum), m| {
            let field = |key| m.get(key).and_then(Json::as_u64).unwrap_or(0);
            (count + field("count"), sum + field("sum"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_values() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&data, 50.0), 5.0);
        assert_eq!(nearest_rank(&data, 90.0), 9.0);
        assert_eq!(nearest_rank(&data, 91.0), 10.0);
        assert_eq!(nearest_rank(&data, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(nearest_rank(&data, 100.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(5_000), Some(95));
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&ninety_nine, 90), None, "a p90 of 99 samples is refused");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 90), Some(90.0));
        assert_eq!(tail(&hundred, 95), None, "only 5 samples lie beyond p95");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlap [15, 20) is covered once, not twice.
        assert_eq!(self_time((0, 100), &[(10, 20), (15, 40)]), 70);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((0, 10), &[(0, 10), (2, 8)]), 0);
    }

    #[test]
    fn registry_deltas_are_exact_sums_and_counts() {
        let registry = dar_obs::Registry::new();
        let h = registry.histogram("dar_ledger_test_ns");
        h.observe(1_000_000);
        let read = |h: &dar_obs::Histogram| {
            let s = h.snapshot();
            (s.count, s.sum)
        };
        let before = read(&h);
        h.observe(3_000_000);
        h.observe(5_000_000);
        let delta = HistDelta::between(before, read(&h));
        assert_eq!(delta, HistDelta { count: 2, sum: 8_000_000 });
        assert_eq!(delta.mean_ms(), Some(4.0));
        assert_eq!(HistDelta::default().mean_ms(), None);

        // The same family read back from a `metrics` verb response, with
        // label sets summed.
        let wire = dar_serve::json::parse(
            r#"{"ok":true,"registry":{"metrics":[
                {"name":"dar_x_ns","labels":{"verb":"a"},"type":"histogram","count":2,"sum":30},
                {"name":"dar_x_ns","labels":{"verb":"b"},"type":"histogram","count":1,"sum":12},
                {"name":"dar_y_ns","labels":{},"type":"histogram","count":9,"sum":99}]}}"#,
        )
        .expect("valid json");
        assert_eq!(wire_hist(&wire, "dar_x_ns", None), (3, 42));
        assert_eq!(wire_hist(&wire, "dar_x_ns", Some("b")), (1, 12));
        assert_eq!(wire_hist(&wire, "dar_missing_ns", None), (0, 0));
    }
}
