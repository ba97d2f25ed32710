//! The ranking pipeline: evaluate → filter → order → prune → top-k.
//!
//! The output is a pure function of the (already canonically-sorted) rule
//! list and the knobs, with a stable total order — measure value first,
//! rule identity `(antecedent, consequent)` as the tie-break — so ranked
//! artifacts are byte-identical however the rules were produced (any
//! worker count, any shard layout).

use crate::measure::{evaluate, RuleStats};
use crate::metrics::metrics;
use crate::prune;
use dar_core::ClusterSummary;
use dar_obs::Span;
use mining::{Dar, Measure};

/// One ranking request: the `RuleQuery` rank knobs plus the context the
/// measures are evaluated against.
#[derive(Debug, Clone, Copy)]
pub struct RankSpec<'a> {
    /// The measure to rank by.
    pub measure: Measure,
    /// Measure floor: rules scoring below it are dropped. For `degree`,
    /// where *lower* is stronger, this is an upper bound on degree
    /// instead.
    pub min_measure: Option<f64>,
    /// Keep only the best `top_k` rules (0 = all).
    pub top_k: usize,
    /// Collapse redundant rules to one representative per cluster.
    pub prune_redundant: bool,
    /// The cluster summaries the rules index into.
    pub clusters: &'a [ClusterSummary],
    /// Relation size (tuples scanned), for the frequency-based measures.
    pub n: u64,
}

impl<'a> RankSpec<'a> {
    /// Builds a spec from a query's rank knobs plus evaluation context.
    pub fn from_query(
        query: &mining::RuleQuery,
        clusters: &'a [ClusterSummary],
        n: u64,
    ) -> RankSpec<'a> {
        RankSpec {
            measure: query.measure,
            min_measure: query.min_measure,
            top_k: query.top_k,
            prune_redundant: query.prune_redundant,
            clusters,
            n,
        }
    }
}

/// A ranked rule set: rules and their measure values, aligned index-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    /// The surviving rules, best first.
    pub rules: Vec<Dar>,
    /// `rules[i]`'s value under the ranking measure.
    pub values: Vec<f64>,
    /// Rules the ranker scored: every rule entering the pipeline (before
    /// filter/prune/top-k). The top-k search scores only the rules it
    /// emitted, so there this is at most the exhaustive rule count.
    pub rules_in: usize,
    /// Scored rules dropped as redundant.
    pub pruned: usize,
    /// Redundancy clusters that absorbed at least one duplicate.
    pub prune_clusters: usize,
}

/// `value` as a sort score: ranked answers run in ascending score, then
/// rule identity. Degree (lower is stronger) scores as itself, every
/// other measure as its negation, which reverses `f64::total_cmp` exactly.
pub(crate) fn score(measure: Measure, value: f64) -> f64 {
    if measure == Measure::Degree {
        value
    } else {
        -value
    }
}

/// Whether `value` passes `spec.min_measure`: a ceiling for degree, where
/// lower is stronger, a floor otherwise.
pub(crate) fn passes(spec: &RankSpec, value: f64) -> bool {
    match (spec.min_measure, spec.measure) {
        (None, _) => true,
        (Some(floor), Measure::Degree) => value <= floor,
        (Some(floor), _) => value >= floor,
    }
}

/// Ranks a rule list under `spec`.
///
/// With default knobs (`degree` measure, no floor, no prune, no top-k)
/// this returns the input rules in their historical order with their
/// degrees as values — the legacy output, byte for byte.
pub fn rank(mut rules: Vec<Dar>, spec: &RankSpec) -> Ranked {
    let m = metrics();
    let _t = Span::new(m.rank_ns.clone());
    let rules_in = rules.len();
    m.rules_in.add(rules_in as u64);

    let values: Vec<f64> = rules
        .iter()
        .map(|rule| evaluate(spec.measure, rule, &RuleStats::for_rule(rule, spec.clusters, spec.n)))
        .collect();
    let mut order: Vec<usize> = (0..rules.len()).collect();

    if spec.min_measure.is_some() {
        order.retain(|&i| passes(spec, values[i]));
    }

    // Stable total order: measure value (degree ascending, everything
    // else descending), rule identity as the tie-break.
    order.sort_by(|&a, &b| {
        score(spec.measure, values[a])
            .total_cmp(&score(spec.measure, values[b]))
            .then_with(|| rules[a].antecedent.cmp(&rules[b].antecedent))
            .then_with(|| rules[a].consequent.cmp(&rules[b].consequent))
    });

    let (mut pruned, mut prune_clusters) = (0, 0);
    if spec.prune_redundant {
        let ranked: Vec<&Dar> = order.iter().map(|&i| &rules[i]).collect();
        let outcome = prune::prune(&ranked, spec.clusters);
        pruned = outcome.pruned;
        prune_clusters = outcome.clusters;
        m.pruned_rules.add(pruned as u64);
        m.prune_clusters.add(prune_clusters as u64);
        order = outcome.kept.iter().map(|&k| order[k]).collect();
    }

    if spec.top_k != 0 && order.len() > spec.top_k {
        order.truncate(spec.top_k);
    }
    m.rules_out.add(order.len() as u64);

    // Move the survivors out; each index occurs once in `order`.
    let mut survivors = Vec::with_capacity(order.len());
    for &i in &order {
        let empty = Dar {
            antecedent: Vec::new(),
            consequent: Vec::new(),
            degree: 0.0,
            min_cluster_support: 0,
        };
        survivors.push(std::mem::replace(&mut rules[i], empty));
    }
    let values = order.iter().map(|&i| values[i]).collect();
    Ranked { rules: survivors, values, rules_in, pruned, prune_clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    fn cluster(id: u32, set: usize, x: f64, n: usize) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        for _ in 0..n {
            acf.add_row(&[x, x]);
        }
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    fn rule(ant: Vec<usize>, cons: Vec<usize>, degree: f64, support: u64) -> Dar {
        Dar { antecedent: ant, consequent: cons, degree, min_cluster_support: support }
    }

    fn fixture() -> (Vec<ClusterSummary>, Vec<Dar>) {
        let clusters = vec![
            cluster(0, 0, 1.0, 40),
            cluster(1, 1, 2.0, 30),
            cluster(2, 0, 50.0, 10),
            cluster(3, 1, 60.0, 20),
        ];
        // Canonical (degree, identity) order, as the generator emits.
        let rules = vec![
            rule(vec![0], vec![1], 0.1, 30),
            rule(vec![2], vec![3], 0.2, 10),
            rule(vec![3], vec![2], 0.3, 10),
        ];
        (clusters, rules)
    }

    #[test]
    fn default_knobs_reproduce_the_legacy_order() {
        let (clusters, rules) = fixture();
        let spec = RankSpec {
            measure: Measure::Degree,
            min_measure: None,
            top_k: 0,
            prune_redundant: false,
            clusters: &clusters,
            n: 100,
        };
        let ranked = rank(rules.clone(), &spec);
        assert_eq!(ranked.rules, rules);
        assert_eq!(ranked.values, vec![0.1, 0.2, 0.3]);
        assert_eq!(ranked.rules_in, 3);
        assert_eq!(ranked.pruned, 0);
    }

    #[test]
    fn lift_reorders_and_top_k_truncates() {
        let (clusters, rules) = fixture();
        let spec = RankSpec {
            measure: Measure::Lift,
            min_measure: None,
            top_k: 2,
            prune_redundant: false,
            clusters: &clusters,
            n: 100,
        };
        let ranked = rank(rules, &spec);
        assert_eq!(ranked.rules.len(), 2);
        // lift(r0) = 30·100/(40·30) = 2.5; lift(r1) = 10·100/(10·20) = 5;
        // lift(r2) = 5 as well — identity breaks the tie ([2]⇒[3] first).
        assert_eq!(ranked.rules[0].antecedent, vec![2]);
        assert_eq!(ranked.values[0], 5.0);
        assert_eq!(ranked.rules[1].antecedent, vec![3]);
    }

    #[test]
    fn min_measure_is_a_ceiling_for_degree_and_a_floor_otherwise() {
        let (clusters, rules) = fixture();
        let base = RankSpec {
            measure: Measure::Degree,
            min_measure: Some(0.15),
            top_k: 0,
            prune_redundant: false,
            clusters: &clusters,
            n: 100,
        };
        let ranked = rank(rules.clone(), &base);
        assert_eq!(ranked.rules.len(), 1, "only degree ≤ 0.15 survives");
        let spec = RankSpec { measure: Measure::Lift, min_measure: Some(3.0), ..base };
        let ranked = rank(rules, &spec);
        assert_eq!(ranked.rules.len(), 2, "lift ≥ 3 keeps the two strong rules");
        assert!(ranked.values.iter().all(|v| *v >= 3.0));
    }
}
