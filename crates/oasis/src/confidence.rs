//! Variance estimates and confidence intervals for the AIS F-measure
//! estimator.
//!
//! The OASIS design objective is *minimal asymptotic variance* (paper
//! Sec. 4.1.1).  This module makes that variance observable: it estimates the
//! sampling variance of the ratio estimator `F̂ = N̂ / D̂` (Eqn. 3) with the
//! delta method, treating the weighted numerator and denominator sums as a
//! bivariate sample mean,
//!
//! ```text
//! Var(F̂) ≈ (1/T) · [ Var(n) − 2·F̂·Cov(n, d) + F̂²·Var(d) ] / D̄²
//! ```
//!
//! where `n_t = w_t ℓ_t ℓ̂_t`, `d_t = w_t (α ℓ̂_t + (1−α) ℓ_t)` and `D̄` is the
//! mean of the `d_t`.  The same construction yields normal-approximation
//! confidence intervals, which practitioners use as a stopping rule ("stop
//! labelling once the interval is ±0.02").
//!
//! The estimate is a practical diagnostic, not a proof artefact: with adaptive
//! weights the draws are not i.i.d., but (as in the paper's consistency
//! argument) the per-draw terms form a martingale difference sequence once
//! centred, and the plug-in variance tracks the Monte-Carlo spread well in
//! practice (see the tests below and the `experiments` crate).

use crate::error::{Error, Result};

/// A normal-approximation confidence interval for the F-measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound (clamped to `[0, 1]`).
    pub lower: f64,
    /// Upper bound (clamped to `[0, 1]`).
    pub upper: f64,
    /// Estimated standard error of the point estimate.
    pub standard_error: f64,
    /// The confidence level the interval was built for (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Whether a value is inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Tracks the per-iteration numerator/denominator terms of the AIS estimator
/// and produces variance estimates and confidence intervals.
///
/// Feed it the same `(weight, prediction, label)` triples the
/// [`crate::estimator::AisEstimator`] receives (or use
/// [`crate::samplers::TrackedSampler`] which does both).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarianceTracker {
    alpha: f64,
    count: f64,
    sum_n: f64,
    sum_d: f64,
    sum_nn: f64,
    sum_dd: f64,
    sum_nd: f64,
}

impl VarianceTracker {
    /// Create a tracker for the α-weighted F-measure.
    pub fn new(alpha: f64) -> Self {
        VarianceTracker {
            alpha,
            ..Default::default()
        }
    }

    /// Record one sampled item.
    pub fn observe(&mut self, weight: f64, prediction: bool, label: bool) {
        let l_hat = f64::from(u8::from(prediction));
        let l = f64::from(u8::from(label));
        let n = weight * l * l_hat;
        let d = weight * (self.alpha * l_hat + (1.0 - self.alpha) * l);
        self.count += 1.0;
        self.sum_n += n;
        self.sum_d += d;
        self.sum_nn += n * n;
        self.sum_dd += d * d;
        self.sum_nd += n * d;
    }

    /// Rebuild a tracker from previously captured sums (see
    /// [`VarianceTracker::sums`]).  The restored tracker continues its
    /// variance accumulation bit-for-bit — this is the restore half of the
    /// checkpoint path ([`crate::samplers::TrackerState`]).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on corrupt values: non-finite numbers,
    /// negative counts or sums (every per-draw term `n_t`, `d_t` is
    /// non-negative, so all running sums must be too), an `alpha` outside
    /// `[0, 1]`, or non-zero sums claimed for a zero observation count.
    pub fn from_parts(
        alpha: f64,
        count: f64,
        sum_n: f64,
        sum_d: f64,
        sum_nn: f64,
        sum_dd: f64,
        sum_nd: f64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in [0, 1], got {alpha}"),
            });
        }
        let sums = [count, sum_n, sum_d, sum_nn, sum_dd, sum_nd];
        if sums.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(Error::InvalidParameter {
                name: "tracker",
                message: format!(
                    "running sums must be finite and non-negative \
                     (count {count}, sum_n {sum_n}, sum_d {sum_d}, \
                     sum_nn {sum_nn}, sum_dd {sum_dd}, sum_nd {sum_nd})"
                ),
            });
        }
        if count == 0.0 && sums.iter().any(|&v| v != 0.0) {
            return Err(Error::InvalidParameter {
                name: "tracker",
                message: "non-zero sums with a zero observation count".to_string(),
            });
        }
        Ok(VarianceTracker {
            alpha,
            count,
            sum_n,
            sum_d,
            sum_nn,
            sum_dd,
            sum_nd,
        })
    }

    /// The F-measure weight α the tracker was built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The raw running sums, in the order [`VarianceTracker::from_parts`]
    /// takes them: `(count, sum_n, sum_d, sum_nn, sum_dd, sum_nd)`.  This is
    /// the capture half of the checkpoint path.
    pub fn sums(&self) -> (f64, f64, f64, f64, f64, f64) {
        (
            self.count,
            self.sum_n,
            self.sum_d,
            self.sum_nn,
            self.sum_dd,
            self.sum_nd,
        )
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The current point estimate of the F-measure, or `None` while undefined.
    pub fn f_measure(&self) -> Option<f64> {
        if self.sum_d > 0.0 {
            Some(self.sum_n / self.sum_d)
        } else {
            None
        }
    }

    /// Delta-method estimate of the variance of the F-measure estimator, or
    /// `None` while the estimator (or its variance) is undefined.
    pub fn variance(&self) -> Option<f64> {
        let t = self.count;
        if t < 2.0 || self.sum_d <= 0.0 {
            return None;
        }
        let f = self.sum_n / self.sum_d;
        let mean_n = self.sum_n / t;
        let mean_d = self.sum_d / t;
        let var_n = (self.sum_nn / t - mean_n * mean_n).max(0.0);
        let var_d = (self.sum_dd / t - mean_d * mean_d).max(0.0);
        let cov_nd = self.sum_nd / t - mean_n * mean_d;
        let numerator = var_n - 2.0 * f * cov_nd + f * f * var_d;
        let variance = numerator.max(0.0) / (t * mean_d * mean_d);
        Some(variance)
    }

    /// Estimated standard error of the F-measure estimate.
    pub fn standard_error(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Normal-approximation confidence interval at the given level
    /// (`0 < level < 1`), or `None` while undefined.
    pub fn confidence_interval(&self, level: f64) -> Option<ConfidenceInterval> {
        if !(0.0 < level && level < 1.0) {
            return None;
        }
        let estimate = self.f_measure()?;
        let standard_error = self.standard_error()?;
        let z = normal_quantile(0.5 + level / 2.0);
        Some(ConfidenceInterval {
            estimate,
            lower: (estimate - z * standard_error).max(0.0),
            upper: (estimate + z * standard_error).min(1.0),
            standard_error,
            level,
        })
    }
}

/// Quantile function (inverse CDF) of the standard normal distribution, using
/// the Acklam rational approximation (absolute error < 1.2e-9 over (0, 1)).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile requires p in (0, 1), got {p}"
    );
    // Coefficients of the Acklam approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::pool::ScoredPool;
    use crate::samplers::{OasisConfig, OasisSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn normal_quantile_matches_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-4);
        assert!((normal_quantile(0.0001) + 3.719016).abs() < 1e-3);
        // Symmetry.
        for p in [0.01, 0.1, 0.3, 0.45] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn normal_quantile_rejects_out_of_range() {
        normal_quantile(1.0);
    }

    #[test]
    fn undefined_until_positive_denominator() {
        let mut tracker = VarianceTracker::new(0.5);
        assert!(tracker.f_measure().is_none());
        assert!(tracker.variance().is_none());
        assert!(tracker.confidence_interval(0.95).is_none());
        tracker.observe(1.0, false, false);
        assert!(tracker.variance().is_none());
        tracker.observe(1.0, true, true);
        assert!(tracker.f_measure().is_some());
        assert!(tracker.variance().is_some());
        assert_eq!(tracker.count(), 2);
    }

    #[test]
    fn from_parts_round_trips_bitwise_and_rejects_corrupt_sums() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut tracker = VarianceTracker::new(0.5);
        for _ in 0..300 {
            let label = rng.gen_bool(0.3);
            let prediction = rng.gen_bool(if label { 0.8 } else { 0.1 });
            tracker.observe(0.5 + rng.gen::<f64>(), prediction, label);
        }
        let (count, sum_n, sum_d, sum_nn, sum_dd, sum_nd) = tracker.sums();
        let restored = VarianceTracker::from_parts(
            tracker.alpha(),
            count,
            sum_n,
            sum_d,
            sum_nn,
            sum_dd,
            sum_nd,
        )
        .unwrap();
        assert_eq!(restored, tracker);
        assert_eq!(
            restored.variance().unwrap().to_bits(),
            tracker.variance().unwrap().to_bits()
        );
        let a = tracker.confidence_interval(0.95).unwrap();
        let b = restored.confidence_interval(0.95).unwrap();
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());

        for bad_alpha in [f64::NAN, -0.1, 1.5] {
            assert!(
                VarianceTracker::from_parts(bad_alpha, count, sum_n, sum_d, sum_nn, sum_dd, sum_nd)
                    .is_err(),
                "alpha {bad_alpha}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(
                VarianceTracker::from_parts(0.5, bad, sum_n, sum_d, sum_nn, sum_dd, sum_nd)
                    .is_err(),
                "count {bad}"
            );
            assert!(
                VarianceTracker::from_parts(0.5, count, sum_n, sum_d, bad, sum_dd, sum_nd).is_err(),
                "sum_nn {bad}"
            );
        }
        // Zero observations cannot have accumulated anything.
        assert!(VarianceTracker::from_parts(0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert_eq!(
            VarianceTracker::from_parts(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0).unwrap(),
            VarianceTracker::new(0.5)
        );
    }

    #[test]
    fn invalid_confidence_level_rejected() {
        let mut tracker = VarianceTracker::new(0.5);
        tracker.observe(1.0, true, true);
        tracker.observe(1.0, true, false);
        assert!(tracker.confidence_interval(0.0).is_none());
        assert!(tracker.confidence_interval(1.0).is_none());
        assert!(tracker.confidence_interval(0.9).is_some());
    }

    #[test]
    fn variance_shrinks_with_sample_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tracker = VarianceTracker::new(0.5);
        let mut checkpoints = Vec::new();
        for i in 1..=10_000usize {
            let label = rng.gen_bool(0.3);
            let prediction = rng.gen_bool(if label { 0.8 } else { 0.1 });
            tracker.observe(1.0, prediction, label);
            if i == 100 || i == 1000 || i == 10_000 {
                checkpoints.push(tracker.variance().unwrap());
            }
        }
        assert!(checkpoints[0] > checkpoints[1]);
        assert!(checkpoints[1] > checkpoints[2]);
        // Roughly 1/T scaling.
        assert!(checkpoints[0] / checkpoints[2] > 20.0);
    }

    #[test]
    fn interval_width_matches_level_ordering() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tracker = VarianceTracker::new(0.5);
        for _ in 0..500 {
            let label = rng.gen_bool(0.4);
            let prediction = rng.gen_bool(if label { 0.7 } else { 0.2 });
            tracker.observe(1.0, prediction, label);
        }
        let narrow = tracker.confidence_interval(0.8).unwrap();
        let wide = tracker.confidence_interval(0.99).unwrap();
        assert!(wide.half_width() > narrow.half_width());
        assert!(narrow.contains(narrow.estimate));
        assert_eq!(narrow.level, 0.8);
        assert!(narrow.lower >= 0.0 && wide.upper <= 1.0);
    }

    /// The headline property: the nominal 95% interval built from one OASIS
    /// run should cover the true pool F-measure most of the time when the run
    /// is long enough for the normal approximation to hold.
    #[test]
    fn oasis_confidence_intervals_have_reasonable_coverage() {
        // An imbalanced pool with a mid-range F-measure.
        let n = 6000usize;
        let mut rng = StdRng::seed_from_u64(3);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let is_match = rng.gen_bool(0.03);
            let p: f64 = if is_match {
                0.5 + 0.5 * rng.gen::<f64>()
            } else {
                0.45 * rng.gen::<f64>()
            };
            scores.push(p);
            predictions.push(p > 0.6);
            truth.push(is_match);
        }
        let pool = ScoredPool::new(scores, predictions.clone()).unwrap();
        let target = crate::measures::exhaustive_measures(&predictions, &truth, 0.5).f_measure;

        let runs = 30;
        let mut covered = 0usize;
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + r);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut sampler =
                OasisSampler::new(&pool, OasisConfig::default().with_strata_count(20)).unwrap();
            let mut tracker = VarianceTracker::new(0.5);
            for _ in 0..1500 {
                let outcome = sampler.step(&pool, &mut oracle, &mut rng).unwrap();
                tracker.observe(outcome.weight, outcome.prediction, outcome.label);
            }
            let interval = tracker.confidence_interval(0.95).unwrap();
            if interval.contains(target) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / runs as f64;
        assert!(
            coverage >= 0.7,
            "95% intervals should cover the truth most of the time; observed {coverage}"
        );
    }
}
