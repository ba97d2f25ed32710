//! Bound-and-skip top-k: emit rule triples best-bound-first and stop
//! below the post-prune k-th rule.
//!
//! A top-k answer keeps `k` rules of the thousands the exhaustive walk
//! generates. Under the proxy statistics of [`RuleStats::for_rule`] every
//! rule of one triple `(Q1, S)` (see [`mining::RuleKernel`]) shares its
//! consequent support `c`, and its antecedent support is one of its
//! candidates' supports. Its value is therefore one of the values of the
//! triple's single-candidate rules — for degree, a maximum of `D / D0`
//! ratios is at least the single candidates' — so the best of those is a
//! bound on every rule the triple can yield, computed before any of them
//! is built.
//!
//! The search scans every triple in the exact walk's order and budget,
//! bounds each one, then emits triples best-bound-first. It tracks `τ`,
//! the k-th best key among the best keys seen per redundancy signature
//! (per rule without pruning), and stops at the first triple whose bound
//! is strictly worse than `τ` or fails `min_measure`. It then ranks only
//! the rules it emitted. DESIGN.md §15 has the argument that the answer is
//! the exhaustive one.

use crate::measure::{evaluate, value, RuleStats};
use crate::metrics::metrics;
use crate::prune::signature;
use crate::rank::{passes, rank, score, RankSpec, Ranked};
use dar_par::ThreadPool;
use mining::{Dar, Measure, Phase2Artifacts, RuleKernel, RuleQuery, Triple};
use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::ops::ControlFlow;

/// Mines and ranks a top-k query (`query.top_k > 0`) from cached Phase II
/// artifacts, emitting only the triples that can reach the answer. The
/// rules and values equal `rank` over the exhaustive generator's output;
/// `rules_in` and `pruned` count the rules it scored. Returns the ranked
/// answer and whether a budget truncated generation.
pub fn mine_top_k(
    artifacts: &Phase2Artifacts,
    query: &RuleQuery,
    pool: &ThreadPool,
    n: u64,
) -> (Ranked, bool) {
    let spec = RankSpec::from_query(query, artifacts.graph.clusters(), n);
    let (rules, truncated) = artifacts.mine_with(query, pool, |kernel| select(kernel, &spec, pool));
    (rank(rules, &spec), truncated)
}

/// The rules a top-k answer can draw from: every rule of every triple
/// emitted before the stop. Falls back to the exhaustive generator when
/// `max_rules` could bind, because the cap keeps the first rules in scan
/// order, not the best ones.
fn select(kernel: &RuleKernel<'_>, spec: &RankSpec<'_>, pool: &ThreadPool) -> (Vec<Dar>, bool) {
    let m = metrics();
    m.topk_queries.inc();
    let scan = kernel.scan(pool, |triple| bound(kernel, spec, triple));
    let Some(mut triples) = scan.triples else {
        m.topk_fallbacks.inc();
        return kernel.generate(pool);
    };
    for (index, pending) in triples.iter_mut().enumerate() {
        pending.index = index;
    }
    let total = triples.len() as u64;
    let mut queue: BinaryHeap<Reverse<Pending>> = triples.into_iter().map(Reverse).collect();
    let mut emitter = kernel.emitter();
    let mut threshold = Threshold::new(spec.top_k, spec.prune_redundant);
    let (mut rules, mut candidates, mut emitted) = (Vec::new(), Vec::new(), 0);
    while let Some(Reverse(next)) = queue.pop() {
        if !passes(spec, next.value)
            || threshold.tau().is_some_and(|tau| next.order(tau) == Ordering::Greater)
        {
            break;
        }
        kernel.candidates_into(next.q1, &next.consequent, &mut candidates);
        let triple = Triple { q1: next.q1, consequent: &next.consequent, candidates: &candidates };
        let _ = emitter.emit(triple, &mut |dar| {
            let stats = RuleStats::for_rule(&dar, spec.clusters, spec.n);
            let value = evaluate(spec.measure, &dar, &stats);
            if passes(spec, value) {
                let key = Key {
                    score: score(spec.measure, value),
                    antecedent: dar.antecedent.clone(),
                    consequent: dar.consequent.clone(),
                };
                threshold.offer(key, || signature(&dar, spec.clusters));
            }
            rules.push(dar);
            ControlFlow::Continue(())
        });
        emitted += 1;
    }
    m.topk_triples_emitted.add(emitted);
    m.topk_triples_skipped.add(total - emitted);
    (rules, scan.truncated)
}

/// `triple`'s bound: the best value any of its rules can score, with the
/// best key one can have — that score, the lowest antecedent
/// `[first candidate]` and `S`.
///
/// A rule's antecedent support is its least-supported member's, so its
/// value under a classical measure equals that member's single-candidate
/// rule's; its degree is at least any member's single-candidate degree.
/// The best single-candidate value is therefore the best value of the
/// triple, and every rule `(A, S)` of it has a key at or after the bound.
fn bound(kernel: &RuleKernel<'_>, spec: &RankSpec<'_>, triple: Triple<'_>) -> Pending {
    let clusters = spec.clusters;
    let cons_support = triple.consequent.iter().map(|&y| clusters[y].support()).min().unwrap_or(0);
    let single = |x: usize| match spec.measure {
        Measure::Degree => {
            triple.consequent.iter().fold(0.0f64, |worst, &y| worst.max(kernel.ratio(y, x)))
        }
        measure => {
            let support = clusters[x].support();
            let stats = RuleStats {
                n: spec.n,
                antecedent: support,
                consequent: cons_support,
                joint: support.min(cons_support),
            };
            value(measure, 0.0, &stats)
        }
    };
    let value = triple
        .candidates
        .iter()
        .map(|&x| single(x))
        .min_by(|a, b| score(spec.measure, *a).total_cmp(&score(spec.measure, *b)))
        .expect("a productive triple has a candidate");
    Pending {
        score: score(spec.measure, value),
        value,
        first: triple.candidates[0],
        consequent: triple.consequent.to_vec(),
        q1: triple.q1,
        index: 0,
    }
}

/// `rank`'s comparator on `(score, antecedent, consequent)` keys.
fn order(a: (f64, &[usize], &[usize]), b: (f64, &[usize], &[usize])) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)).then_with(|| a.2.cmp(b.2))
}

/// A place in the ranked order.
#[derive(Debug, Clone)]
struct Key {
    score: f64,
    antecedent: Vec<usize>,
    consequent: Vec<usize>,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        order(
            (self.score, &self.antecedent, &self.consequent),
            (other.score, &other.antecedent, &other.consequent),
        )
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// A scanned triple awaiting emission: its bound key
/// `(score, [first], consequent)`, then its scan position, order it (so
/// the emission order is deterministic).
struct Pending {
    score: f64,
    /// The best value the triple's rules can score.
    value: f64,
    /// The triple's first candidate.
    first: usize,
    consequent: Vec<usize>,
    q1: usize,
    index: usize,
}

impl Pending {
    /// The bound key against a rule's key.
    fn order(&self, key: &Key) -> Ordering {
        order(
            (self.score, std::slice::from_ref(&self.first), &self.consequent),
            (key.score, &key.antecedent, &key.consequent),
        )
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        order(
            (self.score, std::slice::from_ref(&self.first), &self.consequent),
            (other.score, std::slice::from_ref(&other.first), &other.consequent),
        )
        .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// `τ`: the k-th best of the keys offered, counting only each group's best
/// key. With pruning a group is a redundancy signature: the greedy prune
/// keeps every signature's best rule, so at least `k` kept rules rank at or
/// before `τ`. Without pruning every rule is its own group.
struct Threshold {
    k: usize,
    /// The best key of each of the `k` best groups.
    top: BTreeSet<Key>,
    /// Each signature's best key so far; `None` without pruning.
    groups: Option<HashMap<Vec<usize>, Key>>,
}

impl Threshold {
    fn new(k: usize, prune: bool) -> Self {
        Threshold { k, top: BTreeSet::new(), groups: prune.then(HashMap::new) }
    }

    /// `τ`, once `k` groups have been seen.
    fn tau(&self) -> Option<&Key> {
        if self.top.len() == self.k {
            self.top.last()
        } else {
            None
        }
    }

    /// Offers one rule's key; `group` names its signature. A key at or
    /// after `τ` cannot move `τ` and is dropped unrecorded: a later, better
    /// key of its group then enters as a new group, which is sound because
    /// the dropped key was not among the `k` best.
    fn offer(&mut self, key: Key, group: impl FnOnce() -> Vec<usize>) {
        if self.tau().is_some_and(|tau| key >= *tau) {
            return;
        }
        if let Some(groups) = &mut self.groups {
            match groups.entry(group()) {
                Entry::Occupied(mut best) => {
                    if key >= *best.get() {
                        return;
                    }
                    let old = best.insert(key.clone());
                    if self.top.remove(&old) {
                        self.top.insert(key);
                        return;
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(key.clone());
                }
            }
        }
        self.top.insert(key);
        if self.top.len() > self.k {
            self.top.pop_last();
        }
    }
}
