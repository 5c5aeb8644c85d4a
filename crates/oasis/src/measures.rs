//! Evaluation measures for entity resolution: the pairwise F-measure family.
//!
//! The paper (Section 2.2) evaluates ER with the α-weighted F-measure
//!
//! ```text
//! F_α = TP / (α (TP + FP) + (1 − α) (TP + FN))
//! ```
//!
//! where `α = 1` recovers precision, `α = 0` recall and `α = ½` the balanced
//! F-measure (F1).  The F-measure is invariant to true negatives, which is what
//! makes it robust to the extreme class imbalance inherent in ER.

/// Raw confusion-matrix counts accumulated over labelled record pairs.
///
/// Counts are stored as `f64` so the same type can hold both integer counts
/// (exhaustive evaluation) and importance-weighted counts (AIS estimation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfusionCounts {
    /// Weighted count of true positives (predicted match, truly a match).
    pub tp: f64,
    /// Weighted count of false positives (predicted match, truly a non-match).
    pub fp: f64,
    /// Weighted count of false negatives (predicted non-match, truly a match).
    pub fn_: f64,
    /// Weighted count of true negatives (predicted non-match, truly a non-match).
    pub tn: f64,
}

impl ConfusionCounts {
    /// An empty set of counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one labelled pair with the given importance weight.
    ///
    /// `predicted` is the ER system's output, `truth` the oracle's label.
    pub fn observe_weighted(&mut self, predicted: bool, truth: bool, weight: f64) {
        match (predicted, truth) {
            (true, true) => self.tp += weight,
            (true, false) => self.fp += weight,
            (false, true) => self.fn_ += weight,
            (false, false) => self.tn += weight,
        }
    }

    /// Record one labelled pair with unit weight.
    pub fn observe(&mut self, predicted: bool, truth: bool) {
        self.observe_weighted(predicted, truth, 1.0);
    }

    /// Total weight observed.
    pub fn total(&self) -> f64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Number of predicted positives (TP + FP).
    pub fn predicted_positives(&self) -> f64 {
        self.tp + self.fp
    }

    /// Number of actual positives (TP + FN).
    pub fn actual_positives(&self) -> f64 {
        self.tp + self.fn_
    }

    /// Precision: TP / (TP + FP). Returns `None` when undefined (no predicted
    /// positives observed yet).
    pub fn precision(&self) -> Option<f64> {
        let denom = self.predicted_positives();
        if denom > 0.0 {
            Some(self.tp / denom)
        } else {
            None
        }
    }

    /// Recall: TP / (TP + FN). Returns `None` when undefined (no actual
    /// positives observed yet).
    pub fn recall(&self) -> Option<f64> {
        let denom = self.actual_positives();
        if denom > 0.0 {
            Some(self.tp / denom)
        } else {
            None
        }
    }

    /// α-weighted F-measure (paper Eqn. 1).  `alpha = 0.5` gives the balanced
    /// F-measure, `alpha = 1` precision and `alpha = 0` recall.  Returns `None`
    /// when the denominator is zero (no positives of either kind observed).
    pub fn f_measure(&self, alpha: f64) -> Option<f64> {
        let denom = alpha * self.predicted_positives() + (1.0 - alpha) * self.actual_positives();
        if denom > 0.0 {
            Some(self.tp / denom)
        } else {
            None
        }
    }

    /// Accuracy: (TP + TN) / total. Included for completeness; the paper argues
    /// it is inappropriate under class imbalance.
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        if total > 0.0 {
            Some((self.tp + self.tn) / total)
        } else {
            None
        }
    }

    /// Merge another set of counts into this one.
    pub fn merge(&mut self, other: &ConfusionCounts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }
}

/// The triple of headline ER evaluation measures at a given α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measures {
    /// Precision = F_{α=1}.
    pub precision: f64,
    /// Recall = F_{α=0}.
    pub recall: f64,
    /// α-weighted F-measure.
    pub f_measure: f64,
    /// The weight α at which `f_measure` was computed.
    pub alpha: f64,
}

impl Measures {
    /// Compute the measure triple from confusion counts, treating undefined
    /// quantities as 0 (the convention used when reporting on full pools where
    /// positives always exist).
    pub fn from_counts(counts: &ConfusionCounts, alpha: f64) -> Self {
        Measures {
            precision: counts.precision().unwrap_or(0.0),
            recall: counts.recall().unwrap_or(0.0),
            f_measure: counts.f_measure(alpha).unwrap_or(0.0),
            alpha,
        }
    }
}

/// Compute the exact measures of a prediction vector against ground truth over
/// an entire pool (the `T → ∞` target the samplers try to estimate).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn exhaustive_measures(predictions: &[bool], truth: &[bool], alpha: f64) -> Measures {
    assert_eq!(
        predictions.len(),
        truth.len(),
        "predictions and truth must have equal length"
    );
    let mut counts = ConfusionCounts::new();
    for (&p, &t) in predictions.iter().zip(truth.iter()) {
        counts.observe(p, t);
    }
    Measures::from_counts(&counts, alpha)
}

/// Convert the β parametrisation of the F-measure to the paper's α
/// parametrisation: `α = 1 / (1 + β²)` (paper footnote 1).
pub fn alpha_from_beta(beta: f64) -> f64 {
    1.0 / (1.0 + beta * beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_counts() -> ConfusionCounts {
        // 8 TP, 2 FP, 4 FN, 100 TN
        let mut c = ConfusionCounts::new();
        for _ in 0..8 {
            c.observe(true, true);
        }
        for _ in 0..2 {
            c.observe(true, false);
        }
        for _ in 0..4 {
            c.observe(false, true);
        }
        for _ in 0..100 {
            c.observe(false, false);
        }
        c
    }

    #[test]
    fn precision_recall_f1_basic() {
        let c = example_counts();
        let p = c.precision().unwrap();
        let r = c.recall().unwrap();
        assert!((p - 0.8).abs() < 1e-12);
        assert!((r - 8.0 / 12.0).abs() < 1e-12);
        let f1 = c.f_measure(0.5).unwrap();
        let harmonic = 2.0 * p * r / (p + r);
        assert!(
            (f1 - harmonic).abs() < 1e-12,
            "F1/2 must equal the harmonic mean"
        );
    }

    #[test]
    fn alpha_one_is_precision_alpha_zero_is_recall() {
        let c = example_counts();
        assert!((c.f_measure(1.0).unwrap() - c.precision().unwrap()).abs() < 1e-12);
        assert!((c.f_measure(0.0).unwrap() - c.recall().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn undefined_measures_return_none() {
        let c = ConfusionCounts::new();
        assert!(c.precision().is_none());
        assert!(c.recall().is_none());
        assert!(c.f_measure(0.5).is_none());
        assert!(c.accuracy().is_none());

        // Only true negatives: F-measure still undefined.
        let mut c = ConfusionCounts::new();
        c.observe(false, false);
        assert!(c.f_measure(0.5).is_none());
        assert_eq!(c.accuracy(), Some(1.0));
    }

    #[test]
    fn f_measure_invariant_to_true_negatives() {
        let mut a = example_counts();
        let f_before = a.f_measure(0.5).unwrap();
        for _ in 0..10_000 {
            a.observe(false, false);
        }
        let f_after = a.f_measure(0.5).unwrap();
        assert!((f_before - f_after).abs() < 1e-12);
    }

    #[test]
    fn accuracy_is_sensitive_to_true_negatives() {
        let mut a = example_counts();
        let acc_before = a.accuracy().unwrap();
        for _ in 0..10_000 {
            a.observe(false, false);
        }
        assert!(a.accuracy().unwrap() > acc_before);
    }

    #[test]
    fn weighted_observation_scales_counts() {
        let mut c = ConfusionCounts::new();
        c.observe_weighted(true, true, 2.5);
        c.observe_weighted(true, false, 0.5);
        assert!((c.tp - 2.5).abs() < 1e-12);
        assert!((c.fp - 0.5).abs() < 1e-12);
        assert!((c.precision().unwrap() - 2.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = example_counts();
        let b = example_counts();
        a.merge(&b);
        assert!((a.tp - 16.0).abs() < 1e-12);
        assert!((a.total() - 2.0 * b.total()).abs() < 1e-12);
        // measures are unchanged by doubling all counts
        assert!((a.f_measure(0.5).unwrap() - b.f_measure(0.5).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_measures_matches_manual_computation() {
        let predictions = vec![true, true, false, false, true];
        let truth = vec![true, false, true, false, true];
        let m = exhaustive_measures(&predictions, &truth, 0.5);
        // TP = 2, FP = 1, FN = 1
        assert!((m.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f_measure - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn exhaustive_measures_panics_on_length_mismatch() {
        exhaustive_measures(&[true], &[true, false], 0.5);
    }

    #[test]
    fn alpha_from_beta_special_cases() {
        assert!((alpha_from_beta(1.0) - 0.5).abs() < 1e-12);
        assert!((alpha_from_beta(0.0) - 1.0).abs() < 1e-12);
        // β → ∞ weights recall only
        assert!(alpha_from_beta(1e6) < 1e-11);
    }

    #[test]
    fn measures_from_counts_uses_zero_for_undefined() {
        let c = ConfusionCounts::new();
        let m = Measures::from_counts(&c, 0.5);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f_measure, 0.0);
    }
}
