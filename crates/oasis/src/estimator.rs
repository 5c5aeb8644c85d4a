//! The bias-corrected AIS estimator of the F-measure (paper Definition 5).
//!
//! The estimator accumulates importance-weighted sums of the numerator
//! (`ℓ·ℓ̂`) and denominator components (`ℓ̂` and `ℓ`) of Eqn. 3,
//!
//! ```text
//!           Σ_t w_t ℓ_t ℓ̂_t
//! F̂_α = ─────────────────────────────────
//!        α Σ_t w_t ℓ̂_t + (1−α) Σ_t w_t ℓ_t
//! ```
//!
//! which also yields the weighted precision (`α = 1`) and recall (`α = 0`).
//! Passive sampling is the special case of unit weights.

use crate::error::{Error, Result};
use crate::measures::Measures;

/// A point estimate of the ER evaluation measures plus sampling metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated α-weighted F-measure.  `NaN` while undefined (no weighted
    /// positives observed yet).
    pub f_measure: f64,
    /// Estimated precision.  `NaN` while undefined.
    pub precision: f64,
    /// Estimated recall.  `NaN` while undefined.
    pub recall: f64,
    /// The α the F-measure was computed at.
    pub alpha: f64,
    /// Number of sampling iterations that produced this estimate.
    pub iterations: usize,
}

impl Estimate {
    /// Whether the F-measure is currently well defined.
    pub fn is_defined(&self) -> bool {
        self.f_measure.is_finite()
    }

    /// Convert to a [`Measures`] value, mapping undefined entries to 0.
    pub fn to_measures(&self) -> Measures {
        Measures {
            precision: if self.precision.is_finite() {
                self.precision
            } else {
                0.0
            },
            recall: if self.recall.is_finite() {
                self.recall
            } else {
                0.0
            },
            f_measure: if self.f_measure.is_finite() {
                self.f_measure
            } else {
                0.0
            },
            alpha: self.alpha,
        }
    }
}

/// Accumulator for the adaptive importance sampling estimator of Eqn. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct AisEstimator {
    alpha: f64,
    /// Σ w·ℓ·ℓ̂ — weighted true positives.
    weighted_tp: f64,
    /// Σ w·ℓ̂ — weighted predicted positives.
    weighted_predicted: f64,
    /// Σ w·ℓ — weighted actual positives.
    weighted_actual: f64,
    /// Σ w — total weight (for the sample-average normalisation).
    total_weight: f64,
    /// Σ w² — second moment of the weights, feeding the ground-truth-free
    /// effective-sample-size diagnostic.  `None` when the weight history is
    /// unknown: the estimator was rebuilt from a snapshot written before the
    /// second moment was tracked, so reporting a fabricated ESS would be
    /// worse than reporting none.
    weight_sq: Option<f64>,
    iterations: usize,
}

impl AisEstimator {
    /// Create an estimator for the α-weighted F-measure.
    pub fn new(alpha: f64) -> Self {
        AisEstimator {
            alpha,
            weighted_tp: 0.0,
            weighted_predicted: 0.0,
            weighted_actual: 0.0,
            total_weight: 0.0,
            weight_sq: Some(0.0),
            iterations: 0,
        }
    }

    /// The α this estimator targets.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rebuild an estimator from a previously captured snapshot: the four
    /// weighted sums returned by [`AisEstimator::sums`], the optional weight
    /// second moment (`None` for snapshots written before it was tracked —
    /// the ESS diagnostic then stays unavailable rather than fabricated),
    /// plus the iteration count.  The restored accumulator continues
    /// bit-for-bit.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `alpha` lies outside `[0, 1]` or any
    /// sum is non-finite or negative — snapshots come from untrusted
    /// checkpoint documents, and corrupt sums would silently poison every
    /// later estimate.
    pub fn from_parts(
        alpha: f64,
        weighted_tp: f64,
        weighted_predicted: f64,
        weighted_actual: f64,
        total_weight: f64,
        weight_sq: Option<f64>,
        iterations: usize,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in [0, 1], got {alpha}"),
            });
        }
        if [
            weighted_tp,
            weighted_predicted,
            weighted_actual,
            total_weight,
        ]
        .iter()
        .any(|x| !x.is_finite() || *x < 0.0)
        {
            return Err(Error::InvalidParameter {
                name: "sums",
                message: format!(
                    "estimator sums must be finite and non-negative, got \
                     ({weighted_tp}, {weighted_predicted}, {weighted_actual}, {total_weight})"
                ),
            });
        }
        if let Some(sq) = weight_sq {
            if !sq.is_finite() || sq < 0.0 {
                return Err(Error::InvalidParameter {
                    name: "weight_sq",
                    message: format!("must be finite and non-negative, got {sq}"),
                });
            }
        }
        Ok(AisEstimator {
            alpha,
            weighted_tp,
            weighted_predicted,
            weighted_actual,
            total_weight,
            weight_sq,
            iterations,
        })
    }

    /// Record one sampled item with importance weight `weight`, predicted
    /// label `prediction` and oracle label `label`.
    pub fn observe(&mut self, weight: f64, prediction: bool, label: bool) {
        let l_hat = f64::from(u8::from(prediction));
        let l = f64::from(u8::from(label));
        self.weighted_tp += weight * l * l_hat;
        self.weighted_predicted += weight * l_hat;
        self.weighted_actual += weight * l;
        self.total_weight += weight;
        if let Some(sq) = self.weight_sq.as_mut() {
            *sq += weight * weight;
        }
        self.iterations += 1;
    }

    /// Number of sampling iterations observed (not the label budget — repeats
    /// of the same pool item each count as an iteration).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The current F-measure estimate, or `None` while undefined.
    pub fn f_measure(&self) -> Option<f64> {
        let denom =
            self.alpha * self.weighted_predicted + (1.0 - self.alpha) * self.weighted_actual;
        if denom > 0.0 {
            Some(self.weighted_tp / denom)
        } else {
            None
        }
    }

    /// The current precision estimate (`α = 1`), or `None` while undefined.
    pub fn precision(&self) -> Option<f64> {
        if self.weighted_predicted > 0.0 {
            Some(self.weighted_tp / self.weighted_predicted)
        } else {
            None
        }
    }

    /// The current recall estimate (`α = 0`), or `None` while undefined.
    pub fn recall(&self) -> Option<f64> {
        if self.weighted_actual > 0.0 {
            Some(self.weighted_tp / self.weighted_actual)
        } else {
            None
        }
    }

    /// Snapshot of the full estimate (undefined quantities become `NaN`).
    pub fn estimate(&self) -> Estimate {
        Estimate {
            f_measure: self.f_measure().unwrap_or(f64::NAN),
            precision: self.precision().unwrap_or(f64::NAN),
            recall: self.recall().unwrap_or(f64::NAN),
            alpha: self.alpha,
            iterations: self.iterations,
        }
    }

    /// The accumulated weighted sums `(Σ wℓℓ̂, Σ wℓ̂, Σ wℓ, Σ w)` — exposed for
    /// diagnostics and tests.
    pub fn sums(&self) -> (f64, f64, f64, f64) {
        (
            self.weighted_tp,
            self.weighted_predicted,
            self.weighted_actual,
            self.total_weight,
        )
    }

    /// The accumulated weight second moment `Σ w²`, or `None` when the
    /// estimator was restored from a snapshot that predates its tracking.
    pub fn weight_sq(&self) -> Option<f64> {
        self.weight_sq
    }

    /// Kish effective sample size of the importance weights,
    /// `(Σ w)² / Σ w²` — a ground-truth-free convergence proxy (Delyon &
    /// Portier): it equals the iteration count under unit weights and shrinks
    /// as the weights grow uneven.  `None` before any observation, or when
    /// the weight history is unknown (see [`AisEstimator::weight_sq`]).
    pub fn effective_sample_size(&self) -> Option<f64> {
        let sq = self.weight_sq?;
        if sq > 0.0 {
            Some(self.total_weight * self.total_weight / sq)
        } else {
            None
        }
    }

    /// Normalized variance of the importance weights,
    /// `Var(w) / mean(w)² = n·Σw²/(Σw)² − 1` — zero under unit weights,
    /// growing with weight imbalance.  `None` whenever
    /// [`AisEstimator::effective_sample_size`] is.
    pub fn normalized_weight_variance(&self) -> Option<f64> {
        let ess = self.effective_sample_size()?;
        Some(self.iterations as f64 / ess - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::exhaustive_measures;

    #[test]
    fn unit_weights_recover_the_plain_f_measure() {
        let predictions = vec![true, true, true, false, false, false];
        let truth = vec![true, false, true, true, false, false];
        let mut est = AisEstimator::new(0.5);
        for (&p, &t) in predictions.iter().zip(truth.iter()) {
            est.observe(1.0, p, t);
        }
        let expected = exhaustive_measures(&predictions, &truth, 0.5);
        assert!((est.f_measure().unwrap() - expected.f_measure).abs() < 1e-12);
        assert!((est.precision().unwrap() - expected.precision).abs() < 1e-12);
        assert!((est.recall().unwrap() - expected.recall).abs() < 1e-12);
        assert_eq!(est.iterations(), 6);
    }

    #[test]
    fn undefined_until_a_positive_is_seen() {
        let mut est = AisEstimator::new(0.5);
        assert!(est.f_measure().is_none());
        est.observe(1.0, false, false);
        assert!(est.f_measure().is_none());
        assert!(!est.estimate().is_defined());
        est.observe(1.0, true, false);
        // A predicted positive defines the denominator even without a true positive.
        assert_eq!(est.f_measure(), Some(0.0));
        assert!(est.estimate().is_defined());
    }

    #[test]
    fn importance_weights_correct_sampling_bias() {
        // Population: 1000 items, 10 predicted+true matches, the rest true negatives.
        // Sample matches 50x more often than non-matches but weight by p/q; the
        // estimate must still recover the population F-measure exactly because
        // within each group all items are identical.
        let n = 1000.0;
        let matches = 10.0;
        let p_uniform = 1.0 / n;
        let q_match = 0.5 / matches; // half the proposal mass on the matches
        let q_non = 0.5 / (n - matches);
        let mut est = AisEstimator::new(0.5);
        // Sample 200 match draws and 200 non-match draws.
        for _ in 0..200 {
            est.observe(p_uniform / q_match, true, true);
            est.observe(p_uniform / q_non, false, false);
        }
        // Population: TP = 10, FP = 0, FN = 0 → F = 1.
        assert!((est.f_measure().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mixture_matches_hand_computation() {
        let mut est = AisEstimator::new(0.5);
        est.observe(2.0, true, true); // wTP += 2, wPred += 2, wAct += 2
        est.observe(4.0, true, false); // wPred += 4
        est.observe(1.0, false, true); // wAct += 1
        let f = est.f_measure().unwrap();
        let expected = 2.0 / (0.5 * 6.0 + 0.5 * 3.0);
        assert!((f - expected).abs() < 1e-12);
        let (tp, pred, act, w) = est.sums();
        assert_eq!((tp, pred, act, w), (2.0, 6.0, 3.0, 7.0));
    }

    #[test]
    fn alpha_one_is_precision_alpha_zero_is_recall() {
        let mut prec = AisEstimator::new(1.0);
        let mut rec = AisEstimator::new(0.0);
        let data = [
            (1.0, true, true),
            (1.0, true, false),
            (1.0, false, true),
            (1.0, false, true),
        ];
        for &(w, p, t) in &data {
            prec.observe(w, p, t);
            rec.observe(w, p, t);
        }
        assert!((prec.f_measure().unwrap() - 0.5).abs() < 1e-12);
        assert!((rec.f_measure().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(prec.alpha(), 1.0);
    }

    #[test]
    fn ess_equals_iterations_under_unit_weights() {
        let mut est = AisEstimator::new(0.5);
        assert_eq!(est.effective_sample_size(), None);
        for i in 0..40 {
            est.observe(1.0, i % 3 == 0, i % 2 == 0);
        }
        assert_eq!(est.effective_sample_size(), Some(40.0));
        assert_eq!(est.normalized_weight_variance(), Some(0.0));
    }

    #[test]
    fn ess_shrinks_with_uneven_weights() {
        // Two observations with weights (1, 9): ESS = 100/82 ≈ 1.22 < 2.
        let mut est = AisEstimator::new(0.5);
        est.observe(1.0, true, true);
        est.observe(9.0, false, false);
        let ess = est.effective_sample_size().unwrap();
        assert!((ess - 100.0 / 82.0).abs() < 1e-12);
        assert!(ess > 0.0 && ess < 2.0);
        // Normalized weight variance = n/ESS − 1 = 2·82/100 − 1 = 0.64.
        let cv2 = est.normalized_weight_variance().unwrap();
        assert!((cv2 - 0.64).abs() < 1e-12);
    }

    #[test]
    fn snapshots_without_a_weight_history_report_no_ess() {
        // A pre-observability snapshot restores without Σw²: the estimate is
        // exact but the ESS stays unavailable, before and after continuing.
        let mut est = AisEstimator::from_parts(0.5, 2.0, 3.0, 2.0, 5.0, None, 4).unwrap();
        assert_eq!(est.weight_sq(), None);
        assert_eq!(est.effective_sample_size(), None);
        est.observe(1.0, true, true);
        assert_eq!(est.effective_sample_size(), None);
        assert!(est.f_measure().is_some());
        // A corrupt second moment is rejected like every other sum.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(AisEstimator::from_parts(0.5, 0.0, 0.0, 0.0, 0.0, Some(bad), 0).is_err());
        }
    }

    #[test]
    fn estimate_to_measures_maps_nan_to_zero() {
        let est = AisEstimator::new(0.5);
        let snapshot = est.estimate();
        assert!(snapshot.f_measure.is_nan());
        let m = snapshot.to_measures();
        assert_eq!(m.f_measure, 0.0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
    }
}
