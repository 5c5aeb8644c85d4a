//! The pool of record pairs to be evaluated.
//!
//! A [`ScoredPool`] holds, for each candidate record pair `z` in the pool `P`,
//! the ER system's similarity score `s(z)` and predicted label `ℓ̂(z)`.  The
//! true labels are *not* part of the pool — they live behind the
//! [`crate::oracle::Oracle`] abstraction, mirroring the paper's setup where
//! labels must be purchased one at a time.

use crate::error::{Error, Result};
use std::fmt;
use std::sync::OnceLock;

/// A pool of record pairs with similarity scores and predicted labels.
///
/// Items are addressed by their index `0..len()`.  Callers that need to map
/// indices back to concrete record pairs (e.g. `(record_a, record_b)` ids)
/// should keep that mapping alongside the pool; the sampling machinery only
/// ever needs scores and predictions.
///
/// A pool never changes after construction, so its content
/// [fingerprint](ScoredPool::fingerprint) is computed once and cached.
#[derive(Clone)]
pub struct ScoredPool {
    scores: Vec<f64>,
    predictions: Vec<bool>,
    fingerprint: OnceLock<u64>,
}

/// Pools are equal when their contents are; the fingerprint cache is not
/// content.
impl PartialEq for ScoredPool {
    fn eq(&self, other: &Self) -> bool {
        self.scores == other.scores && self.predictions == other.predictions
    }
}

impl fmt::Debug for ScoredPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScoredPool")
            .field("scores", &self.scores)
            .field("predictions", &self.predictions)
            .finish()
    }
}

impl ScoredPool {
    /// Create a pool from parallel vectors of similarity scores and predicted
    /// labels.
    ///
    /// # Errors
    /// * [`Error::EmptyPool`] if the vectors are empty.
    /// * [`Error::LengthMismatch`] if the vectors have different lengths.
    /// * [`Error::NonFiniteScore`] if any score is NaN or infinite.
    pub fn new(scores: Vec<f64>, predictions: Vec<bool>) -> Result<Self> {
        if scores.is_empty() {
            return Err(Error::EmptyPool);
        }
        if scores.len() != predictions.len() {
            return Err(Error::LengthMismatch {
                scores: scores.len(),
                predictions: predictions.len(),
            });
        }
        if let Some((index, &value)) = scores
            .iter()
            .enumerate()
            .find(|(_, value)| !value.is_finite())
        {
            return Err(Error::NonFiniteScore { index, value });
        }
        Ok(ScoredPool {
            scores,
            predictions,
            fingerprint: OnceLock::new(),
        })
    }

    /// FNV-1a content fingerprint of the pool (each item's score bits, then
    /// its prediction).  Checkpoints record it so a restore can verify it
    /// runs against the pool it was captured on.  One pass over the pool on
    /// the first call; later calls return the cached value.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut hash = OFFSET;
            let mut eat = |byte: u8| {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            };
            for (&score, &prediction) in self.scores.iter().zip(self.predictions.iter()) {
                for byte in score.to_bits().to_le_bytes() {
                    eat(byte);
                }
                eat(u8::from(prediction));
            }
            hash
        })
    }

    /// Number of record pairs in the pool (`N = |P|`).
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the pool is empty. Always `false` for a successfully
    /// constructed pool, provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Similarity score of item `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn score(&self, index: usize) -> f64 {
        self.scores[index]
    }

    /// Predicted label of item `index` (`true` = predicted match).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn prediction(&self, index: usize) -> bool {
        self.predictions[index]
    }

    /// All similarity scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// All predicted labels.
    pub fn predictions(&self) -> &[bool] {
        &self.predictions
    }

    /// Number of predicted matches in the pool (`TP + FP`, known exactly
    /// without any oracle queries).
    pub fn predicted_match_count(&self) -> usize {
        self.predictions.iter().filter(|&&p| p).count()
    }

    /// Whether all scores already lie in the unit interval `[0, 1]`.
    ///
    /// OASIS uses this to decide whether initial oracle-probability guesses can
    /// use the scores directly or must first squash them through a logistic
    /// transform (paper Algorithm 2, lines 3–5).
    pub fn scores_are_probabilities(&self) -> bool {
        self.scores.iter().all(|&s| (0.0..=1.0).contains(&s))
    }

    /// Minimum and maximum score in the pool.
    pub fn score_range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in &self.scores {
            if s < min {
                min = s;
            }
            if s > max {
                max = s;
            }
        }
        (min, max)
    }

    /// The uniform marginal probability `p(z) = 1/N` the paper uses as the
    /// underlying distribution on the pool (Remark 3).
    pub fn uniform_mass(&self) -> f64 {
        1.0 / self.scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ScoredPool {
        ScoredPool::new(
            vec![0.9, 0.8, 0.1, 0.3, 0.05],
            vec![true, true, false, false, false],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = pool();
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.score(0), 0.9);
        assert!(p.prediction(1));
        assert!(!p.prediction(4));
        assert_eq!(p.predicted_match_count(), 2);
        assert_eq!(p.scores().len(), 5);
        assert_eq!(p.predictions().len(), 5);
        assert!((p.uniform_mass() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_rejected() {
        assert_eq!(ScoredPool::new(vec![], vec![]), Err(Error::EmptyPool));
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = ScoredPool::new(vec![0.5, 0.6], vec![true]).unwrap_err();
        assert_eq!(
            err,
            Error::LengthMismatch {
                scores: 2,
                predictions: 1
            }
        );
    }

    #[test]
    fn non_finite_scores_rejected() {
        let err = ScoredPool::new(vec![0.5, f64::NAN], vec![true, false]).unwrap_err();
        match err {
            Error::NonFiniteScore { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected error {other:?}"),
        }
        let err = ScoredPool::new(vec![f64::INFINITY], vec![true]).unwrap_err();
        assert!(matches!(err, Error::NonFiniteScore { index: 0, .. }));
    }

    #[test]
    fn probability_detection() {
        assert!(pool().scores_are_probabilities());
        let raw = ScoredPool::new(vec![-2.0, 0.3, 5.1], vec![false, false, true]).unwrap();
        assert!(!raw.scores_are_probabilities());
    }

    #[test]
    fn score_range() {
        let (lo, hi) = pool().score_range();
        assert_eq!(lo, 0.05);
        assert_eq!(hi, 0.9);
    }

    #[test]
    fn serde_round_trip() {
        let p = pool();
        let json = serde_json_like(&p);
        assert!(json.contains("0.9"));
    }

    // Despite the name, no serializer is involved: this renders the pool
    // through its `Debug` impl and checks that a score shows up.
    fn serde_json_like(p: &ScoredPool) -> String {
        format!("{:?}", p)
    }
}
