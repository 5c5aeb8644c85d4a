//! Labelling oracles.
//!
//! The oracle abstracts the (expensive) source of ground-truth labels: a crowd
//! of human annotators, an expert, or — in simulation — the hidden true
//! resolution.  The paper models it as a randomised function
//! `Oracle : Z → {0, 1}` with response probabilities `p(1|z)` (Definition 4).
//!
//! Two crucial accounting rules from the paper's experiments (footnote 5):
//!
//! * Samplers draw **with replacement**, but a pair only consumes label budget
//!   the *first* time it is sent to the oracle — subsequent queries reuse the
//!   cached label.
//! * The deterministic oracle used in the experiments has
//!   `p(1|z) ∈ {0, 1}` (one label per pair in the ground truth).

use crate::bitset::BitSet;
use crate::error::{Error, Result};
use rand::Rng;

/// A source of ground-truth labels for record pairs, addressed by pool index.
pub trait Oracle {
    /// Query the label of item `index`.  Returns `true` for a match.
    ///
    /// Implementations must cache responses so that repeated queries of the
    /// same item do not consume additional label budget.
    fn query<R: Rng + ?Sized>(&mut self, index: usize, rng: &mut R) -> Result<bool>;

    /// Query a batch of items in order, returning one label per index.
    ///
    /// This is the batch path used behind the engine boundary, where label
    /// requests are shipped to remote/human annotators in groups.  The
    /// default implementation loops over [`query`](Oracle::query), so the
    /// footnote-5 budget accounting is preserved automatically: an index
    /// repeated within the batch (or already labelled earlier) is served
    /// from the cache and charges no additional budget.
    fn query_many<R: Rng + ?Sized>(&mut self, indices: &[usize], rng: &mut R) -> Result<Vec<bool>> {
        indices
            .iter()
            .map(|&index| self.query(index, rng))
            .collect()
    }

    /// Number of *distinct* items labelled so far (the consumed label budget).
    fn labels_consumed(&self) -> usize;

    /// Total number of queries issued, including repeats that hit the cache.
    fn queries_issued(&self) -> usize;

    /// Reset the budget accounting and the response cache.
    fn reset(&mut self);
}

/// A deterministic oracle backed by a known ground-truth vector.
///
/// This is the oracle used throughout the paper's experiments (Section 6.1.1):
/// each pair has exactly one true label, so `p(1|z) ∈ {0, 1}`.
#[derive(Debug, Clone)]
pub struct GroundTruthOracle {
    truth: Vec<bool>,
    queried: BitSet,
    labels_consumed: usize,
    queries_issued: usize,
}

impl GroundTruthOracle {
    /// Create an oracle that answers according to `truth` (indexed like the
    /// pool).
    pub fn new(truth: Vec<bool>) -> Self {
        let queried = BitSet::new(truth.len());
        GroundTruthOracle {
            truth,
            queried,
            labels_consumed: 0,
            queries_issued: 0,
        }
    }

    /// The hidden ground truth. Exposed for computing the target `F_α` when
    /// evaluating the evaluator itself; real deployments would not have this.
    pub fn ground_truth(&self) -> &[bool] {
        &self.truth
    }

    /// Number of items the oracle knows about.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// Whether the oracle knows about zero items.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Number of true matches in the ground truth.
    pub fn match_count(&self) -> usize {
        self.truth.iter().filter(|&&t| t).count()
    }

    /// Which items have been labelled so far (the budget), for
    /// checkpointing.  Restore with [`GroundTruthOracle::from_state`].
    pub fn queried(&self) -> &BitSet {
        &self.queried
    }

    /// Charge the footnote-5 budget for `index` without issuing a query —
    /// used when a label for the item was obtained out of band (e.g. a
    /// client-supplied label behind the engine boundary) so budget
    /// accounting stays consistent while `queries_issued` keeps meaning
    /// "queries actually answered by this oracle".
    ///
    /// # Errors
    /// [`Error::OracleOutOfBounds`] if `index` is outside the truth.
    pub fn mark_queried(&mut self, index: usize) -> Result<()> {
        if index >= self.truth.len() {
            return Err(Error::OracleOutOfBounds {
                index,
                len: self.truth.len(),
            });
        }
        if self.queried.insert(index) {
            self.labels_consumed += 1;
        }
        Ok(())
    }

    /// Rebuild an oracle mid-run from checkpointed state: the ground truth,
    /// the already-labelled set and the total query count.
    /// `labels_consumed` is recomputed from the set, so the footnote-5
    /// budget accounting cannot be corrupted by a hand-edited checkpoint.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if the set does not cover the truth.
    pub fn from_state(truth: Vec<bool>, queried: BitSet, queries_issued: usize) -> Result<Self> {
        if truth.len() != queried.len() {
            return Err(Error::InvalidParameter {
                name: "queried",
                message: format!(
                    "queried set covers {} items but the truth has {}",
                    queried.len(),
                    truth.len()
                ),
            });
        }
        let labels_consumed = queried.count();
        Ok(GroundTruthOracle {
            truth,
            queried,
            labels_consumed,
            queries_issued,
        })
    }
}

impl Oracle for GroundTruthOracle {
    fn query<R: Rng + ?Sized>(&mut self, index: usize, _rng: &mut R) -> Result<bool> {
        let label = *self.truth.get(index).ok_or(Error::OracleOutOfBounds {
            index,
            len: self.truth.len(),
        })?;
        self.queries_issued += 1;
        if self.queried.insert(index) {
            self.labels_consumed += 1;
        }
        Ok(label)
    }

    fn labels_consumed(&self) -> usize {
        self.labels_consumed
    }

    fn queries_issued(&self) -> usize {
        self.queries_issued
    }

    fn reset(&mut self) {
        self.queried.clear();
        self.labels_consumed = 0;
        self.queries_issued = 0;
    }
}

/// A noisy oracle whose response for item `z` is `Bernoulli(p(1|z))`.
///
/// The first response for each item is drawn once and then cached, modelling a
/// single (possibly erroneous) annotation per pair.  This exercises the
/// general `p(1|z) ∈ [0, 1]` regime of Definition 4 that the deterministic
/// experiments do not.
#[derive(Debug, Clone)]
pub struct NoisyOracle {
    probabilities: Vec<f64>,
    cached: Vec<Option<bool>>,
    labels_consumed: usize,
    queries_issued: usize,
}

impl NoisyOracle {
    /// Create a noisy oracle with per-item match probabilities `p(1|z)`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if any probability lies outside `[0, 1]`.
    pub fn new(probabilities: Vec<f64>) -> Result<Self> {
        if let Some(p) = probabilities
            .iter()
            .find(|p| !(0.0..=1.0).contains(*p) || p.is_nan())
        {
            return Err(Error::InvalidParameter {
                name: "probabilities",
                message: format!("oracle probability {p} outside [0, 1]"),
            });
        }
        let cached = vec![None; probabilities.len()];
        Ok(NoisyOracle {
            probabilities,
            cached,
            labels_consumed: 0,
            queries_issued: 0,
        })
    }

    /// Build a noisy oracle by flipping a deterministic ground truth with the
    /// given error rate: `p(1|z) = 1 − error_rate` for true matches and
    /// `error_rate` for true non-matches.
    pub fn from_ground_truth(truth: &[bool], error_rate: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&error_rate) || error_rate.is_nan() {
            return Err(Error::InvalidParameter {
                name: "error_rate",
                message: format!("error rate {error_rate} outside [0, 1]"),
            });
        }
        let probabilities = truth
            .iter()
            .map(|&t| if t { 1.0 - error_rate } else { error_rate })
            .collect();
        Self::new(probabilities)
    }

    /// The per-item match probabilities `p(1|z)`.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }
}

impl Oracle for NoisyOracle {
    fn query<R: Rng + ?Sized>(&mut self, index: usize, rng: &mut R) -> Result<bool> {
        let p = *self
            .probabilities
            .get(index)
            .ok_or(Error::OracleOutOfBounds {
                index,
                len: self.probabilities.len(),
            })?;
        self.queries_issued += 1;
        if let Some(label) = self.cached[index] {
            return Ok(label);
        }
        let label = rng.gen_bool(p);
        self.cached[index] = Some(label);
        self.labels_consumed += 1;
        Ok(label)
    }

    fn labels_consumed(&self) -> usize {
        self.labels_consumed
    }

    fn queries_issued(&self) -> usize {
        self.queries_issued
    }

    fn reset(&mut self) {
        self.cached.iter_mut().for_each(|c| *c = None);
        self.labels_consumed = 0;
        self.queries_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ground_truth_oracle_answers_correctly() {
        let mut oracle = GroundTruthOracle::new(vec![true, false, true]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(oracle.query(0, &mut rng).unwrap());
        assert!(!oracle.query(1, &mut rng).unwrap());
        assert!(oracle.query(2, &mut rng).unwrap());
        assert_eq!(oracle.match_count(), 2);
        assert_eq!(oracle.len(), 3);
        assert!(!oracle.is_empty());
    }

    #[test]
    fn repeat_queries_do_not_consume_budget() {
        let mut oracle = GroundTruthOracle::new(vec![true, false, true, false]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            oracle.query(2, &mut rng).unwrap();
        }
        oracle.query(0, &mut rng).unwrap();
        assert_eq!(oracle.labels_consumed(), 2);
        assert_eq!(oracle.queries_issued(), 11);
    }

    #[test]
    fn reset_clears_budget() {
        let mut oracle = GroundTruthOracle::new(vec![true, false]);
        let mut rng = StdRng::seed_from_u64(1);
        oracle.query(0, &mut rng).unwrap();
        oracle.reset();
        assert_eq!(oracle.labels_consumed(), 0);
        assert_eq!(oracle.queries_issued(), 0);
        oracle.query(0, &mut rng).unwrap();
        assert_eq!(oracle.labels_consumed(), 1);
    }

    #[test]
    fn query_many_returns_labels_in_order() {
        let mut oracle = GroundTruthOracle::new(vec![true, false, true, false]);
        let mut rng = StdRng::seed_from_u64(2);
        let labels = oracle.query_many(&[3, 0, 2], &mut rng).unwrap();
        assert_eq!(labels, vec![false, true, true]);
        assert_eq!(oracle.labels_consumed(), 3);
        assert_eq!(oracle.queries_issued(), 3);
    }

    #[test]
    fn batched_queries_never_double_charge_the_budget() {
        // Footnote 5: an item charges budget only on its first query, whether
        // the repeat happens within one batch, across batches, or mixed with
        // single queries.
        let mut oracle = GroundTruthOracle::new(vec![true, false, true, false, true]);
        let mut rng = StdRng::seed_from_u64(2);
        oracle.query_many(&[1, 1, 1, 4], &mut rng).unwrap();
        assert_eq!(oracle.labels_consumed(), 2, "repeats inside one batch");
        oracle.query_many(&[4, 1, 0], &mut rng).unwrap();
        assert_eq!(oracle.labels_consumed(), 3, "repeats across batches");
        oracle.query(0, &mut rng).unwrap();
        oracle.query_many(&[0, 2], &mut rng).unwrap();
        assert_eq!(oracle.labels_consumed(), 4, "mixed single/batch repeats");
        assert_eq!(oracle.queries_issued(), 10);
    }

    #[test]
    fn noisy_batched_queries_cache_and_charge_once() {
        let mut oracle = NoisyOracle::new(vec![0.5; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let first = oracle.query_many(&[2, 2, 5, 2], &mut rng).unwrap();
        assert_eq!(first[0], first[1]);
        assert_eq!(first[1], first[3]);
        assert_eq!(oracle.labels_consumed(), 2);
        let again = oracle.query_many(&[2, 5], &mut rng).unwrap();
        assert_eq!(again, vec![first[0], first[2]]);
        assert_eq!(oracle.labels_consumed(), 2);
    }

    #[test]
    fn query_many_propagates_out_of_bounds() {
        let mut oracle = GroundTruthOracle::new(vec![true]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(oracle.query_many(&[0, 9], &mut rng).is_err());
    }

    #[test]
    fn ground_truth_state_round_trip() {
        let mut oracle = GroundTruthOracle::new(vec![true, false, true]);
        let mut rng = StdRng::seed_from_u64(3);
        oracle.query(2, &mut rng).unwrap();
        oracle.query(2, &mut rng).unwrap();
        let restored = GroundTruthOracle::from_state(
            oracle.ground_truth().to_vec(),
            oracle.queried().clone(),
            oracle.queries_issued(),
        )
        .unwrap();
        assert_eq!(restored.labels_consumed(), 1);
        assert_eq!(restored.queries_issued(), 2);
        assert_eq!(restored.queried(), oracle.queried());
        assert!(GroundTruthOracle::from_state(vec![true], BitSet::new(0), 0).is_err());
    }

    #[test]
    fn out_of_bounds_query_errors() {
        let mut oracle = GroundTruthOracle::new(vec![true]);
        let mut rng = StdRng::seed_from_u64(1);
        let err = oracle.query(5, &mut rng).unwrap_err();
        assert_eq!(err, Error::OracleOutOfBounds { index: 5, len: 1 });
    }

    #[test]
    fn noisy_oracle_rejects_bad_probabilities() {
        assert!(NoisyOracle::new(vec![0.5, 1.2]).is_err());
        assert!(NoisyOracle::new(vec![f64::NAN]).is_err());
        assert!(NoisyOracle::from_ground_truth(&[true], 1.5).is_err());
    }

    #[test]
    fn noisy_oracle_caches_first_response() {
        let mut oracle = NoisyOracle::new(vec![0.5; 4]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let first = oracle.query(1, &mut rng).unwrap();
        for _ in 0..20 {
            assert_eq!(oracle.query(1, &mut rng).unwrap(), first);
        }
        assert_eq!(oracle.labels_consumed(), 1);
        assert_eq!(oracle.queries_issued(), 21);
    }

    #[test]
    fn noisy_oracle_deterministic_extremes() {
        let mut oracle = NoisyOracle::new(vec![1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(oracle.query(0, &mut rng).unwrap());
        assert!(!oracle.query(1, &mut rng).unwrap());
    }

    #[test]
    fn noisy_oracle_from_ground_truth_matches_error_rate_statistically() {
        let truth = vec![true; 2000];
        let mut oracle = NoisyOracle::from_ground_truth(&truth, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut wrong = 0usize;
        for i in 0..truth.len() {
            if !oracle.query(i, &mut rng).unwrap() {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / truth.len() as f64;
        assert!((rate - 0.1).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn noisy_oracle_exposes_probabilities_and_resets() {
        let mut oracle = NoisyOracle::new(vec![0.25, 0.75]).unwrap();
        assert_eq!(oracle.probabilities(), &[0.25, 0.75]);
        let mut rng = StdRng::seed_from_u64(5);
        oracle.query(0, &mut rng).unwrap();
        oracle.reset();
        assert_eq!(oracle.labels_consumed(), 0);
    }
}
