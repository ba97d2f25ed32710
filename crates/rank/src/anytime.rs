//! Anytime rule mining: sample clique pairs under a wall-clock budget.
//!
//! Rule generation is quadratic in the clique count; on degenerate graphs
//! a caller with a latency budget would rather have *most* of the answer
//! now than all of it late. Following the interval-pattern-sampling
//! literature, the sampler walks the clique-pair space in a fixed
//! low-discrepancy order (a golden-ratio stride, coprime with the pair
//! count, so early prefixes spread across the space instead of dwelling on
//! one consequent clique) and stops at the budget, reporting the exact
//! fraction of pairs it examined.
//!
//! The honesty contract mirrors `--allow-partial`: which pairs are
//! examined for a given coverage is deterministic, the answer is sorted in
//! canonical rule order, and the caller is told `coverage < 1.0` whenever
//! the enumeration was cut short — never a silently-partial answer. With
//! enough budget the sampler visits every pair and converges to the exact
//! rule set. In anytime mode the wall-clock budget *replaces*
//! `max_pair_work` as the work bound; `max_rules` still caps the final
//! (sorted) answer.

use crate::metrics::metrics;
use dar_par::ThreadPool;
use mining::{sort_rules, Dar};
use mining::{Phase2Artifacts, RuleQuery};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// The result of one budgeted mining pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeOutcome {
    /// The sampled rules, in canonical `(degree, identity)` order.
    pub rules: Vec<Dar>,
    /// Whether the answer is incomplete (budget cut the walk short, or
    /// `max_rules` truncated the sorted answer).
    pub truncated: bool,
    /// Fraction of clique pairs examined, in `[0, 1]`. `1.0` means every
    /// pair was seen and `rules` equals the exact uncapped answer.
    pub coverage: f64,
}

/// Mines rules from cached Phase II artifacts under a wall-clock budget.
///
/// The first clique pair is always examined in full, so the coverage
/// fraction is strictly positive even under a zero budget — unless that
/// pair alone yields `max_rules` rules and keeps going past the deadline.
/// Any pair is then cut at the deadline, between two of its rules, and a
/// pair cut short does not count toward coverage (its rules are kept).
/// The sample holds at most about `2·max_rules` rules at any time.
pub fn mine_budgeted(
    artifacts: &Phase2Artifacts,
    query: &RuleQuery,
    budget: Duration,
) -> AnytimeOutcome {
    let m = metrics();
    m.anytime_queries.inc();
    let start = Instant::now();
    let len = artifacts.cliques.len();
    let total = len * len;
    if total == 0 {
        m.anytime_coverage_permille.observe(1000);
        return AnytimeOutcome { rules: Vec::new(), truncated: false, coverage: 1.0 };
    }
    let stride = coprime_stride(total);
    let mut sample = Sample::new(query.max_rules);
    let processed = artifacts.with_kernel(query, &ThreadPool::serial(), |kernel| {
        let mut walk = kernel.walker();
        let mut idx = 0usize;
        let mut processed = 0usize;
        let mut emitted = 0usize;
        for _ in 0..total {
            let (q2, q1) = (idx / len, idx % len);
            let first = processed == 0;
            let flow = walk.pair(q1, q2, &mut |dar| {
                sample.push(dar);
                emitted += 1;
                let may_cut = !first || (query.max_rules != 0 && emitted >= query.max_rules);
                if may_cut && start.elapsed() >= budget {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if flow.is_break() {
                break;
            }
            processed += 1;
            idx = (idx + stride) % total;
            if processed < total && start.elapsed() >= budget {
                break;
            }
        }
        processed
    });
    m.anytime_pairs.add(processed as u64);

    let (rules, overflowed) = sample.finish();
    let truncated = processed < total || overflowed;
    let coverage = processed as f64 / total as f64;
    m.anytime_coverage_permille.observe((coverage * 1000.0).round() as u64);
    AnytimeOutcome { rules, truncated, coverage }
}

/// The sampled rules: duplicates across pairs allowed until compaction,
/// which sorts, deduplicates and keeps the best `cap` (0 = all) in
/// canonical order — exactly what the final sorted, truncated answer
/// keeps, since a rule's degree is a function of its identity.
struct Sample {
    rules: Vec<Dar>,
    cap: usize,
    /// Whether compaction dropped a distinct rule past `cap`.
    overflowed: bool,
}

impl Sample {
    fn new(cap: usize) -> Self {
        Sample { rules: Vec::new(), cap, overflowed: false }
    }

    fn push(&mut self, dar: Dar) {
        self.rules.push(dar);
        if self.cap != 0 && self.rules.len() >= 2 * self.cap.max(1024) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        sort_rules(&mut self.rules);
        self.rules.dedup_by(|a, b| a.antecedent == b.antecedent && a.consequent == b.consequent);
        if self.cap != 0 && self.rules.len() > self.cap {
            self.rules.truncate(self.cap);
            self.overflowed = true;
        }
    }

    fn finish(mut self) -> (Vec<Dar>, bool) {
        self.compact();
        (self.rules, self.overflowed)
    }
}

/// A stride coprime with `total`, near the golden-ratio fraction of it, so
/// the walk `idx ← (idx + stride) mod total` visits every pair exactly
/// once with a well-spread prefix.
fn coprime_stride(total: usize) -> usize {
    if total <= 2 {
        return 1;
    }
    let mut stride = ((total as f64) * 0.618_033_988_749_894_9) as usize;
    stride = stride.max(1);
    while gcd(stride, total) != 1 {
        stride += 1;
    }
    stride
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_coprime_and_spread() {
        for total in [1usize, 2, 3, 4, 9, 16, 100, 1024, 3600] {
            let s = coprime_stride(total);
            assert_eq!(gcd(s, total), 1, "total={total} stride={s}");
            // The walk is a permutation of 0..total.
            let mut seen = vec![false; total];
            let mut idx = 0;
            for _ in 0..total {
                assert!(!seen[idx]);
                seen[idx] = true;
                idx = (idx + s) % total;
            }
        }
    }
}
