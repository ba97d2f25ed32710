//! Shared ranked answers: the rule list a [`crate::QueryOutcome`] hands
//! out, and the encode memo a rank-cache entry carries.
//!
//! [`SharedRules`] shares a ranked answer's allocation, so a rank-cache
//! hit costs a reference-count bump however many rules it holds, not a
//! clone of every rule (two small vectors each). The same allocation
//! carries the answer's values and, for cached answers, a lazily filled
//! memo of whatever encoding a caller derives from `(rules, values)`: the
//! serving layer keeps the wire bytes of the `rules` array there, so a
//! repeated full answer is encoded once per epoch, not once per request.

use mining::rules::Dar;
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One ranked answer's rules and values, and (for a rank-cache entry) its
/// encode memo.
struct Answer {
    rules: Vec<Dar>,
    values: Vec<f64>,
    /// `Some` only on rank-cache entries: anytime answers are never
    /// cached, so they are never memoized either.
    memo: Option<OnceLock<Box<dyn Any + Send + Sync>>>,
}

/// The ranked rules of a query answer, shared with the epoch's rank cache
/// and with every other outcome the same cached answer served: cloning
/// one is a reference-count bump.
///
/// It dereferences to `[Dar]`, iterates by reference, and compares by
/// content (to another rule list or a `Vec<Dar>`), so it reads like a
/// `Vec<Dar>`. A list built from a `Vec<Dar>` (say, for a struct-updated
/// [`crate::QueryOutcome`]) carries no memo.
#[derive(Clone)]
pub struct SharedRules(Arc<Answer>);

impl SharedRules {
    /// Wraps a ranked answer; `memoize` gives it an (empty) encode memo.
    pub(crate) fn new(rules: Vec<Dar>, values: Vec<f64>, memoize: bool) -> SharedRules {
        SharedRules(Arc::new(Answer { rules, values, memo: memoize.then(OnceLock::new) }))
    }

    /// The values the answer was ranked with, `values()[i]` scoring
    /// `self[i]`.
    pub(crate) fn values(&self) -> &[f64] {
        &self.0.values
    }

    /// `encode(rules, values)`, memoized on the cached answer this list
    /// came from when `values` are that answer's own (bit for bit) and
    /// the memo holds a `T` or is still empty; computed afresh otherwise.
    /// `encode` must be a pure function of its arguments: the first call
    /// on an answer fixes what every later one returns.
    pub(crate) fn encoded<T, F>(&self, values: &[f64], encode: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(&[Dar], &[f64]) -> T,
    {
        let own_values = || {
            self.0.values.len() == values.len()
                && self.0.values.iter().zip(values).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        let Some(memo) = self.0.memo.as_ref().filter(|_| own_values()) else {
            return encode(&self.0.rules, values);
        };
        if let Some(stored) = memo.get() {
            return match stored.downcast_ref::<T>() {
                Some(value) => value.clone(),
                None => encode(&self.0.rules, values),
            };
        }
        // Two first callers racing both encode; `encode` is pure, so
        // whichever result lands in the memo is the same.
        let value = encode(&self.0.rules, values);
        let _ = memo.set(Box::new(value.clone()));
        value
    }
}

impl From<Vec<Dar>> for SharedRules {
    fn from(rules: Vec<Dar>) -> Self {
        SharedRules::new(rules, Vec::new(), false)
    }
}

impl Deref for SharedRules {
    type Target = [Dar];

    fn deref(&self) -> &[Dar] {
        &self.0.rules
    }
}

impl<'a> IntoIterator for &'a SharedRules {
    type Item = &'a Dar;
    type IntoIter = std::slice::Iter<'a, Dar>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.rules.iter()
    }
}

impl fmt::Debug for SharedRules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.rules.fmt(f)
    }
}

impl PartialEq for SharedRules {
    fn eq(&self, other: &SharedRules) -> bool {
        self.0.rules == other.0.rules
    }
}

impl PartialEq<Vec<Dar>> for SharedRules {
    fn eq(&self, other: &Vec<Dar>) -> bool {
        self.0.rules == *other
    }
}

impl PartialEq<SharedRules> for Vec<Dar> {
    fn eq(&self, other: &SharedRules) -> bool {
        *self == other.0.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dar(degree: f64) -> Dar {
        Dar { antecedent: vec![0], consequent: vec![1], degree, min_cluster_support: 5 }
    }

    fn count_encodes(rules: &SharedRules, values: &[f64], calls: &mut usize) -> String {
        rules.encoded(values, |r, v| {
            *calls += 1;
            format!("{}:{v:?}", r.len())
        })
    }

    #[test]
    fn a_memoized_answer_encodes_once_for_its_own_values() {
        let shared = SharedRules::new(vec![dar(0.5), dar(0.25)], vec![1.0, 0.0], true);
        let mut calls = 0;
        let first = count_encodes(&shared, &[1.0, 0.0], &mut calls);
        let again = count_encodes(&shared.clone(), &[1.0, 0.0], &mut calls);
        assert_eq!((first.as_str(), again.as_str(), calls), ("2:[1.0, 0.0]", "2:[1.0, 0.0]", 1));
        // Other values bypass the memo, even ones that compare equal.
        assert_eq!(count_encodes(&shared, &[1.0, -0.0], &mut calls), "2:[1.0, -0.0]");
        assert_eq!(count_encodes(&shared, &[1.0], &mut calls), "2:[1.0]");
        assert_eq!(calls, 3);
        // A different output type never reads another type's memo.
        assert_eq!(shared.encoded(&[1.0, 0.0], |r, _| r.len()), 2);
    }

    #[test]
    fn unmemoized_lists_always_encode_and_compare_by_content() {
        let plain = SharedRules::from(vec![dar(0.5)]);
        let mut calls = 0;
        count_encodes(&plain, &[], &mut calls);
        count_encodes(&plain, &[], &mut calls);
        assert_eq!(calls, 2);
        let cached = SharedRules::new(vec![dar(0.5)], vec![3.0], true);
        assert_eq!(plain, cached);
        assert_eq!(cached, vec![dar(0.5)]);
        assert_eq!(vec![dar(0.5)], cached);
        assert_eq!(&cached[..], &[dar(0.5)][..]);
        assert_eq!((&cached).into_iter().count(), 1);
    }
}
