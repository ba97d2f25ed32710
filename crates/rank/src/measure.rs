//! Interestingness measures evaluated from per-rule support statistics.
//!
//! The classical measures (lift, conviction, leverage, Jaccard) are all
//! functions of four counts: the relation size `n`, the antecedent and
//! consequent frequencies, and the joint frequency. For DARs the engine
//! does not know exact frequencies without the optional rescan (Section
//! 6.2), so [`RuleStats::for_rule`] substitutes the tightest statistics
//! the ACF summaries provide:
//!
//! * antecedent / consequent frequency ≈ the smallest member-cluster
//!   support on that side (an upper bound on the true side frequency);
//! * joint frequency ≈ the rule's `min_cluster_support` (the tightest
//!   upper bound available without a rescan).
//!
//! The substitution is deterministic — a pure function of the rule and the
//! cluster summaries — which is what keeps ranked artifacts byte-identical
//! across worker counts and shards. When exact joint frequencies *are*
//! available (rescan mode), [`RuleStats::with_joint`] swaps them in.

use dar_core::ClusterSummary;
use mining::{Dar, Measure};

/// Finite ceiling for conviction: the measure diverges to `+∞` as
/// confidence approaches 1, but the wire codec renders non-finite floats
/// as `null`, so perfectly-confident rules report this value instead.
pub const CONVICTION_CAP: f64 = 1e6;

/// The support statistics one rule is scored from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleStats {
    /// Relation size (tuples scanned).
    pub n: u64,
    /// Antecedent frequency (or its member-support proxy).
    pub antecedent: u64,
    /// Consequent frequency (or its member-support proxy).
    pub consequent: u64,
    /// Joint frequency (or its member-support proxy).
    pub joint: u64,
}

impl RuleStats {
    /// Derives the proxy statistics for `rule` from the cluster summaries
    /// it references and the relation size `n`.
    pub fn for_rule(rule: &Dar, clusters: &[ClusterSummary], n: u64) -> RuleStats {
        let side =
            |members: &[usize]| members.iter().map(|&i| clusters[i].support()).min().unwrap_or(0);
        RuleStats {
            n,
            antecedent: side(&rule.antecedent),
            consequent: side(&rule.consequent),
            joint: rule.min_cluster_support,
        }
    }

    /// The same statistics with an exact joint frequency (rescan mode).
    pub fn with_joint(self, joint: u64) -> RuleStats {
        RuleStats { joint, ..self }
    }
}

/// Evaluates one measure for one rule.
///
/// * `Degree` returns the rule's own degree of association unchanged
///   (lower is stronger — the ranking layer sorts it ascending, all other
///   measures descending).
/// * The classical measures return `0.0` when the statistics are vacuous
///   (`n == 0` or an empty side), so degenerate rules sink to the bottom
///   of a descending ranking rather than poisoning it with NaN.
pub fn evaluate(measure: Measure, rule: &Dar, stats: &RuleStats) -> f64 {
    value(measure, rule.degree, stats)
}

/// [`evaluate`] for a rule of degree `degree` scored from `stats`.
pub(crate) fn value(measure: Measure, degree: f64, stats: &RuleStats) -> f64 {
    if measure == Measure::Degree {
        return degree;
    }
    let (n, ant, cons, joint) =
        (stats.n as f64, stats.antecedent as f64, stats.consequent as f64, stats.joint as f64);
    if stats.n == 0 || stats.antecedent == 0 || stats.consequent == 0 {
        return 0.0;
    }
    match measure {
        Measure::Degree => unreachable!("handled above"),
        // P(XY) / (P(X)·P(Y)) = joint·n / (ant·cons).
        Measure::Lift => (joint * n) / (ant * cons),
        // (1 − P(Y)) / (1 − conf); conf = joint/ant. Capped, not ∞.
        Measure::Conviction => {
            let confidence = joint / ant;
            if confidence >= 1.0 {
                CONVICTION_CAP
            } else {
                ((1.0 - cons / n) / (1.0 - confidence)).clamp(0.0, CONVICTION_CAP)
            }
        }
        // P(XY) − P(X)·P(Y).
        Measure::Leverage => joint / n - (ant / n) * (cons / n),
        // P(XY) / P(X ∨ Y) = joint / (ant + cons − joint).
        Measure::Jaccard => {
            let union = ant + cons - joint;
            if union <= 0.0 {
                0.0
            } else {
                joint / union
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(degree: f64, joint: u64) -> Dar {
        Dar { antecedent: vec![0], consequent: vec![1], degree, min_cluster_support: joint }
    }

    fn stats(n: u64, ant: u64, cons: u64, joint: u64) -> RuleStats {
        RuleStats { n, antecedent: ant, consequent: cons, joint }
    }

    #[test]
    fn degree_passes_through() {
        assert_eq!(evaluate(Measure::Degree, &rule(0.25, 5), &stats(0, 0, 0, 0)), 0.25);
    }

    #[test]
    fn independent_sides_score_neutral() {
        // joint = P(X)·P(Y)·n: lift 1, leverage 0, conviction 1.
        let s = stats(100, 50, 40, 20);
        let r = rule(0.5, 20);
        assert!((evaluate(Measure::Lift, &r, &s) - 1.0).abs() < 1e-12);
        assert!(evaluate(Measure::Leverage, &r, &s).abs() < 1e-12);
        assert!((evaluate(Measure::Conviction, &r, &s) - 1.0).abs() < 1e-12);
        assert!((evaluate(Measure::Jaccard, &r, &s) - 20.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_confidence_hits_the_conviction_cap() {
        let s = stats(100, 20, 30, 20);
        assert_eq!(evaluate(Measure::Conviction, &rule(0.1, 20), &s), CONVICTION_CAP);
    }

    #[test]
    fn vacuous_statistics_score_zero_not_nan() {
        let r = rule(0.1, 0);
        for m in [Measure::Lift, Measure::Conviction, Measure::Leverage, Measure::Jaccard] {
            assert_eq!(evaluate(m, &r, &stats(0, 0, 0, 0)), 0.0, "{m}");
            assert_eq!(evaluate(m, &r, &stats(10, 0, 5, 0)), 0.0, "{m}");
        }
    }

    #[test]
    fn with_joint_replaces_the_proxy() {
        let s = stats(100, 50, 40, 40).with_joint(10);
        assert_eq!(s.joint, 10);
        assert_eq!(s.antecedent, 50);
    }
}
