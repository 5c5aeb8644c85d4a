//! The stratified Beta–Bernoulli model of the oracle probabilities.
//!
//! Section 4.2.2 of the paper: within stratum `P_k` the oracle's labels are
//! modelled as `ℓ ∼ Bernoulli(π_k)` with a conjugate prior
//! `π_k ∼ Beta(γ⁽⁰⁾_{0,k}, γ⁽⁰⁾_{1,k})`.  Each stratum is modelled
//! independently, so the joint posterior factorises and the posterior update
//! after observing a label from stratum `k*` is a single increment of the
//! corresponding hyperparameter (Eqn. 10).  Point estimates use the posterior
//! mean (Eqn. 11).
//!
//! The model also implements the practical modification of Remark 4: the prior
//! pseudo-counts of a stratum are down-weighted by the number of real labels
//! observed there, which speeds convergence and adds robustness to
//! misspecified priors.

use crate::error::{Error, Result};

/// Per-stratum Beta–Bernoulli posterior over the match probabilities `π`.
///
/// Hyperparameter naming follows the paper: row 0 (`gamma0`) counts matches
/// (label 1), row 1 (`gamma1`) counts non-matches (label 0), so the posterior
/// mean of stratum `k` is `γ₀ₖ / (γ₀ₖ + γ₁ₖ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaBernoulliModel {
    /// Prior pseudo-counts for label 1 (matches), one entry per stratum.
    prior_gamma0: Vec<f64>,
    /// Prior pseudo-counts for label 0 (non-matches), one entry per stratum.
    prior_gamma1: Vec<f64>,
    /// Observed counts of label 1 per stratum.
    observed_matches: Vec<f64>,
    /// Observed counts of label 0 per stratum.
    observed_non_matches: Vec<f64>,
    /// Whether to decay the prior by the number of observations (Remark 4).
    decay_prior: bool,
}

impl BetaBernoulliModel {
    /// Construct the model from an initial guess `π̂⁽⁰⁾` of the per-stratum
    /// match probabilities and a prior strength `η > 0`, setting
    /// `Γ⁽⁰⁾ = η [π̂⁽⁰⁾ ; 1 − π̂⁽⁰⁾]` as in Algorithm 3, line 1.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `eta` is not positive and finite, if the
    /// guess is empty, or if any guessed probability lies outside `[0, 1]`.
    pub fn from_prior_guess(pi_guess: &[f64], eta: f64, decay_prior: bool) -> Result<Self> {
        if pi_guess.is_empty() {
            return Err(Error::InvalidParameter {
                name: "pi_guess",
                message: "initial probability guess must not be empty".to_string(),
            });
        }
        if eta <= 0.0 || !eta.is_finite() {
            return Err(Error::InvalidParameter {
                name: "eta",
                message: format!("prior strength must be positive and finite, got {eta}"),
            });
        }
        if let Some(p) = pi_guess.iter().find(|p| !(0.0..=1.0).contains(*p)) {
            return Err(Error::InvalidParameter {
                name: "pi_guess",
                message: format!("guessed probability {p} outside [0, 1]"),
            });
        }
        let k = pi_guess.len();
        let prior_gamma0: Vec<f64> = pi_guess.iter().map(|&p| eta * p).collect();
        let prior_gamma1: Vec<f64> = pi_guess.iter().map(|&p| eta * (1.0 - p)).collect();
        Ok(BetaBernoulliModel {
            prior_gamma0,
            prior_gamma1,
            observed_matches: vec![0.0; k],
            observed_non_matches: vec![0.0; k],
            decay_prior,
        })
    }

    /// Construct the model with explicit prior hyperparameters.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on empty or mismatching vectors, or on
    /// non-positive hyperparameters.
    pub fn from_hyperparameters(
        gamma0: Vec<f64>,
        gamma1: Vec<f64>,
        decay_prior: bool,
    ) -> Result<Self> {
        if gamma0.is_empty() || gamma0.len() != gamma1.len() {
            return Err(Error::InvalidParameter {
                name: "gamma",
                message: format!(
                    "hyperparameter rows must be non-empty and equal length (got {} and {})",
                    gamma0.len(),
                    gamma1.len()
                ),
            });
        }
        if gamma0
            .iter()
            .chain(gamma1.iter())
            .any(|&g| g < 0.0 || !g.is_finite())
        {
            return Err(Error::InvalidParameter {
                name: "gamma",
                message: "hyperparameters must be finite and non-negative".to_string(),
            });
        }
        let k = gamma0.len();
        Ok(BetaBernoulliModel {
            prior_gamma0: gamma0,
            prior_gamma1: gamma1,
            observed_matches: vec![0.0; k],
            observed_non_matches: vec![0.0; k],
            decay_prior,
        })
    }

    /// Rebuild a model from a previously captured snapshot (see
    /// [`BetaBernoulliModel::snapshot`]): prior pseudo-counts *and* observed
    /// counts.  The restored model continues bit-for-bit where the snapshot
    /// was taken.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on empty, mismatched or non-finite vectors.
    pub fn from_state(
        prior_gamma0: Vec<f64>,
        prior_gamma1: Vec<f64>,
        observed_matches: Vec<f64>,
        observed_non_matches: Vec<f64>,
        decay_prior: bool,
    ) -> Result<Self> {
        let k = prior_gamma0.len();
        if k == 0
            || prior_gamma1.len() != k
            || observed_matches.len() != k
            || observed_non_matches.len() != k
        {
            return Err(Error::InvalidParameter {
                name: "state",
                message: format!(
                    "state rows must be non-empty and equal length (got {}, {}, {}, {})",
                    k,
                    prior_gamma1.len(),
                    observed_matches.len(),
                    observed_non_matches.len()
                ),
            });
        }
        if prior_gamma0
            .iter()
            .chain(prior_gamma1.iter())
            .chain(observed_matches.iter())
            .chain(observed_non_matches.iter())
            .any(|&g| g < 0.0 || !g.is_finite())
        {
            return Err(Error::InvalidParameter {
                name: "state",
                message: "state counts must be finite and non-negative".to_string(),
            });
        }
        Ok(BetaBernoulliModel {
            prior_gamma0,
            prior_gamma1,
            observed_matches,
            observed_non_matches,
            decay_prior,
        })
    }

    /// The full internal state as `(prior γ₀, prior γ₁, observed matches,
    /// observed non-matches)`, for checkpointing.  Feed the rows back through
    /// [`BetaBernoulliModel::from_state`] to restore.
    pub fn snapshot(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (
            &self.prior_gamma0,
            &self.prior_gamma1,
            &self.observed_matches,
            &self.observed_non_matches,
        )
    }

    /// Number of strata `K`.
    pub fn strata_count(&self) -> usize {
        self.prior_gamma0.len()
    }

    /// Record an oracle label for stratum `stratum` (Eqn. 10).
    ///
    /// # Panics
    /// Panics if `stratum` is out of bounds.
    pub fn observe(&mut self, stratum: usize, label: bool) {
        if label {
            self.observed_matches[stratum] += 1.0;
        } else {
            self.observed_non_matches[stratum] += 1.0;
        }
    }

    /// Number of labels observed in stratum `k` so far.
    pub fn observations(&self, stratum: usize) -> f64 {
        self.observed_matches[stratum] + self.observed_non_matches[stratum]
    }

    /// Effective posterior hyperparameters `(γ₀ₖ, γ₁ₖ)` of stratum `k`,
    /// including the prior decay of Remark 4 when enabled.
    pub fn posterior_hyperparameters(&self, stratum: usize) -> (f64, f64) {
        let n_k = self.observations(stratum);
        let prior_scale = if self.decay_prior && n_k > 0.0 {
            1.0 / n_k
        } else {
            1.0
        };
        let g0 = self.prior_gamma0[stratum] * prior_scale + self.observed_matches[stratum];
        let g1 = self.prior_gamma1[stratum] * prior_scale + self.observed_non_matches[stratum];
        (g0, g1)
    }

    /// Posterior mean estimate `π̂_k` of stratum `k` (Eqn. 11).
    pub fn posterior_mean(&self, stratum: usize) -> f64 {
        let (g0, g1) = self.posterior_hyperparameters(stratum);
        let total = g0 + g1;
        if total > 0.0 {
            g0 / total
        } else {
            // Completely uninformative: fall back to ½.
            0.5
        }
    }

    /// Posterior means of all strata.
    pub fn posterior_means(&self) -> Vec<f64> {
        (0..self.strata_count())
            .map(|k| self.posterior_mean(k))
            .collect()
    }

    /// Posterior variance of `π_k` (useful for diagnostics / uncertainty
    /// reporting): `g0·g1 / ((g0+g1)²·(g0+g1+1))`.
    pub fn posterior_variance(&self, stratum: usize) -> f64 {
        let (g0, g1) = self.posterior_hyperparameters(stratum);
        let total = g0 + g1;
        if total > 0.0 {
            g0 * g1 / (total * total * (total + 1.0))
        } else {
            0.25
        }
    }

    /// Whether prior decay (Remark 4) is enabled.
    pub fn decays_prior(&self) -> bool {
        self.decay_prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_guess_initialises_posterior_mean() {
        let model = BetaBernoulliModel::from_prior_guess(&[0.1, 0.5, 0.9], 4.0, false).unwrap();
        assert_eq!(model.strata_count(), 3);
        assert!((model.posterior_mean(0) - 0.1).abs() < 1e-12);
        assert!((model.posterior_mean(1) - 0.5).abs() < 1e-12);
        assert!((model.posterior_mean(2) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn observations_shift_posterior_towards_data() {
        let mut model = BetaBernoulliModel::from_prior_guess(&[0.5], 2.0, false).unwrap();
        for _ in 0..98 {
            model.observe(0, true);
        }
        for _ in 0..2 {
            model.observe(0, false);
        }
        // prior Beta(1,1), observations 98/2 → mean 99/102
        let expected = 99.0 / 102.0;
        assert!((model.posterior_mean(0) - expected).abs() < 1e-12);
        assert_eq!(model.observations(0), 100.0);
    }

    #[test]
    fn prior_decay_reduces_prior_influence() {
        let mut with_decay = BetaBernoulliModel::from_prior_guess(&[0.9], 100.0, true).unwrap();
        let mut without_decay = BetaBernoulliModel::from_prior_guess(&[0.9], 100.0, false).unwrap();
        // The data say the true rate is 0, contradicting the strong prior of 0.9.
        for _ in 0..20 {
            with_decay.observe(0, false);
            without_decay.observe(0, false);
        }
        assert!(
            with_decay.posterior_mean(0) < 0.2,
            "decayed prior should defer to data, got {}",
            with_decay.posterior_mean(0)
        );
        assert!(
            without_decay.posterior_mean(0) > 0.7,
            "undecayed strong prior should still dominate, got {}",
            without_decay.posterior_mean(0)
        );
        assert!(with_decay.decays_prior());
        assert!(!without_decay.decays_prior());
    }

    #[test]
    fn posterior_variance_shrinks_with_data() {
        let mut model = BetaBernoulliModel::from_prior_guess(&[0.5], 2.0, false).unwrap();
        let before = model.posterior_variance(0);
        for i in 0..200 {
            model.observe(0, i % 2 == 0);
        }
        let after = model.posterior_variance(0);
        assert!(after < before);
        assert!(after > 0.0);
    }

    #[test]
    fn explicit_hyperparameters_round_trip() {
        let model = BetaBernoulliModel::from_hyperparameters(vec![2.0, 1.0], vec![8.0, 1.0], false)
            .unwrap();
        assert!((model.posterior_mean(0) - 0.2).abs() < 1e-12);
        assert!((model.posterior_mean(1) - 0.5).abs() < 1e-12);
        let (g0, g1) = model.posterior_hyperparameters(0);
        assert_eq!((g0, g1), (2.0, 8.0));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BetaBernoulliModel::from_prior_guess(&[], 2.0, false).is_err());
        assert!(BetaBernoulliModel::from_prior_guess(&[0.5], 0.0, false).is_err());
        assert!(BetaBernoulliModel::from_prior_guess(&[0.5], f64::NAN, false).is_err());
        assert!(BetaBernoulliModel::from_prior_guess(&[1.5], 2.0, false).is_err());
        assert!(BetaBernoulliModel::from_hyperparameters(vec![], vec![], false).is_err());
        assert!(
            BetaBernoulliModel::from_hyperparameters(vec![1.0], vec![1.0, 2.0], false).is_err()
        );
        assert!(BetaBernoulliModel::from_hyperparameters(vec![-1.0], vec![1.0], false).is_err());
    }

    #[test]
    fn extreme_prior_guesses_are_allowed() {
        // π̂ = 0 or 1 is legitimate (e.g. an empty-looking stratum); the model
        // must not produce NaN.
        let mut model = BetaBernoulliModel::from_prior_guess(&[0.0, 1.0], 2.0, false).unwrap();
        assert_eq!(model.posterior_mean(0), 0.0);
        assert_eq!(model.posterior_mean(1), 1.0);
        model.observe(0, true);
        assert!(model.posterior_mean(0) > 0.0);
        assert!(model.posterior_mean(0).is_finite());
    }

    #[test]
    fn posterior_means_vector_matches_individual_queries() {
        let mut model = BetaBernoulliModel::from_prior_guess(&[0.2, 0.8], 2.0, true).unwrap();
        model.observe(0, true);
        model.observe(1, false);
        let means = model.posterior_means();
        assert_eq!(means.len(), 2);
        assert!((means[0] - model.posterior_mean(0)).abs() < 1e-15);
        assert!((means[1] - model.posterior_mean(1)).abs() < 1e-15);
    }
}
