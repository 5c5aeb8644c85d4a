//! The OASIS sampler — the paper's contribution (Algorithms 2 and 3).

use super::state::{EstimatorState, OasisState, SamplerMethod, SamplerState, StrataState};
use super::{InteractiveSampler, Sampler, SamplerDiagnostics};
use crate::bayes::BetaBernoulliModel;
use crate::error::{Error, Result};
use crate::estimator::{AisEstimator, Estimate};
use crate::instrumental::{epsilon_greedy, stratified_optimal, stratified_optimal_mass};
use crate::pool::ScoredPool;
use crate::samplers::importance::logistic;
use crate::strata::{Strata, StrataKey, StratifierChoice};
use rand::Rng;
use std::sync::Arc;

/// Configuration of the OASIS sampler.
///
/// Defaults follow the paper's experiments (Section 6.3): `α = ½`,
/// `ε = 10⁻³`, `K = 30`, `η = 2K`, prior decay enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct OasisConfig {
    /// F-measure weight `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Greediness parameter `ε ∈ (0, 1]`; the fraction of proposal mass that
    /// always follows the underlying (uniform) distribution.
    pub epsilon: f64,
    /// Desired number of strata `K`.
    pub strata_count: usize,
    /// Prior strength `η > 0`.  `None` uses the paper's default `η = 2K`.
    pub prior_strength: Option<f64>,
    /// Whether to decay the prior with the per-stratum label count (Remark 4).
    pub decay_prior: bool,
    /// Decision threshold `τ` used to squash raw (non-probability) scores
    /// through the logistic function during initialisation.
    pub score_threshold: f64,
    /// Stratification rule.
    pub stratifier: StratifierChoice,
}

impl Default for OasisConfig {
    fn default() -> Self {
        OasisConfig {
            alpha: 0.5,
            epsilon: 1e-3,
            strata_count: 30,
            prior_strength: None,
            decay_prior: true,
            score_threshold: 0.0,
            stratifier: StratifierChoice::Csf,
        }
    }
}

impl OasisConfig {
    /// Set the F-measure weight α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the greediness parameter ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the desired number of strata K.
    pub fn with_strata_count(mut self, strata_count: usize) -> Self {
        self.strata_count = strata_count;
        self
    }

    /// Set the prior strength η explicitly (default is `2K`).
    pub fn with_prior_strength(mut self, eta: f64) -> Self {
        self.prior_strength = Some(eta);
        self
    }

    /// Enable or disable prior decay (Remark 4).
    pub fn with_prior_decay(mut self, decay: bool) -> Self {
        self.decay_prior = decay;
        self
    }

    /// Set the score threshold τ used when scores are not probabilities.
    pub fn with_score_threshold(mut self, tau: f64) -> Self {
        self.score_threshold = tau;
        self
    }

    /// Choose the stratification rule.
    pub fn with_stratifier(mut self, stratifier: StratifierChoice) -> Self {
        self.stratifier = stratifier;
        self
    }

    pub(super) fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha.is_nan() {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in [0, 1], got {}", self.alpha),
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "epsilon",
                message: format!("must be in (0, 1], got {}", self.epsilon),
            });
        }
        if self.strata_count == 0 {
            return Err(Error::InvalidParameter {
                name: "strata_count",
                message: "must be at least 1".to_string(),
            });
        }
        if let Some(eta) = self.prior_strength {
            if eta <= 0.0 || !eta.is_finite() {
                return Err(Error::InvalidParameter {
                    name: "prior_strength",
                    message: format!("must be positive and finite, got {eta}"),
                });
            }
        }
        Ok(())
    }
}

/// The initial quantities produced by Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Initialisation {
    /// Initial guess of the per-stratum oracle probabilities `π̂⁽⁰⁾`.
    pub pi_guess: Vec<f64>,
    /// Initial guess of the F-measure `F̂⁽⁰⁾_α`.
    pub f_guess: f64,
}

/// Run Algorithm 2: derive `π̂⁽⁰⁾` and `F̂⁽⁰⁾` from the scores, predictions and
/// stratification.
pub fn initialise(pool: &ScoredPool, strata: &Strata, alpha: f64, tau: f64) -> Initialisation {
    let scores_are_probabilities = pool.scores_are_probabilities();
    // Lines 2–5: mean score per stratum, squashed to [0, 1] if necessary.
    let pi_guess: Vec<f64> = strata
        .mean_scores()
        .iter()
        .map(|&mean| {
            if scores_are_probabilities {
                mean.clamp(0.0, 1.0)
            } else {
                logistic(mean, tau)
            }
        })
        .collect();
    // Lines 6 & 8: F̂⁽⁰⁾ from the guessed probabilities and the known mean
    // predictions per stratum.
    let mut tp = 0.0;
    let mut predicted = 0.0;
    let mut actual = 0.0;
    for (k, &pi) in pi_guess.iter().enumerate() {
        let size = strata.size(k) as f64;
        let lambda = strata.mean_predictions()[k];
        tp += size * pi * lambda;
        predicted += size * lambda;
        actual += size * pi;
    }
    let denom = alpha * predicted + (1.0 - alpha) * actual;
    let f_guess = if denom > 0.0 {
        (tp / denom).clamp(0.0, 1.0)
    } else {
        0.5
    };
    Initialisation { pi_guess, f_guess }
}

/// A proposed oracle query: the output of [`OasisSampler::propose`], waiting
/// for a label.
///
/// This is the suspension point of the sampler's explicit state machine: a
/// driver (in-process loop, human annotation queue, remote evaluation
/// session) holds the proposal while the label is produced, then feeds it
/// back through [`OasisSampler::apply_label`].  The importance weight is
/// fixed at proposal time — it depends only on the instrumental distribution
/// used for the draw — so labels may arrive late or in batches without
/// changing the estimator's maths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// Index of the proposed pool item.
    pub item: usize,
    /// The stratum the item was drawn from.
    pub stratum: usize,
    /// The ER system's predicted label for the item.
    pub prediction: bool,
    /// Importance weight `w_t = ω_k / v⁽ᵗ⁾_k` locked in at proposal time.
    pub weight: f64,
}

/// The OASIS adaptive importance sampler (paper Algorithm 3).
///
/// Each [`step`](Sampler::step):
/// 1. recomputes the ε-greedy stratified instrumental distribution `v⁽ᵗ⁾`
///    from the current posterior means `π̂⁽ᵗ⁻¹⁾` and F-measure estimate,
/// 2. draws a stratum from `v⁽ᵗ⁾` and an item uniformly within it,
/// 3. queries the oracle,
/// 4. updates the Beta–Bernoulli posterior (Eqn. 10) and the AIS estimator
///    (Eqn. 3) with importance weight `w_t = ω_k / v⁽ᵗ⁾_k`.
///
/// The loop is also exposed as an explicit state machine —
/// [`propose`](InteractiveSampler::propose) /
/// [`apply_label`](InteractiveSampler::apply_label) — so the oracle does not
/// have to be an in-process callback: a driver can suspend at the label
/// request and resume when labels arrive, possibly in batches
/// ([`apply_labels`](InteractiveSampler::apply_labels)).  [`Sampler::step`]
/// is the provided trait method running that state machine without
/// suspension, so the two code paths cannot drift apart.
#[derive(Debug, Clone)]
pub struct OasisSampler {
    config: OasisConfig,
    /// Shared with every sampler over the same pool and [`StrataKey`].
    strata: Arc<Strata>,
    model: BetaBernoulliModel,
    estimator: AisEstimator,
    initial_f_guess: f64,
    /// The instrumental distribution used at the most recent step.
    current_proposal: Vec<f64>,
    /// Reusable scratch for the cumulative proposal weights, so the per-step
    /// binary-search draw allocates nothing after the first step.  Transient:
    /// not part of [`SamplerState`].
    cdf_scratch: Vec<f64>,
    /// Whether the posterior has changed since `current_proposal` /
    /// `cdf_scratch` were computed.  The instrumental distribution is a pure
    /// function of the posterior and the running estimate, both of which
    /// move only on `apply_label`, so consecutive proposals without
    /// intervening labels reuse the cached CDF instead of paying the O(K)
    /// refit per draw.  Captured in [`SamplerState`] so a restored sampler
    /// refits exactly when the captured one would have.
    proposal_dirty: bool,
    /// How many times the instrumental distribution (and its CDF) has been
    /// refit — the cache-miss count behind the batched-proposal win, exposed
    /// through [`InteractiveSampler::diagnostics`].  Serialized with the
    /// state so diagnostics stay stable across checkpoint/restore.
    cdf_rebuilds: u64,
}

impl OasisSampler {
    /// Build an OASIS sampler for `pool`: stratify (through the pool's
    /// [shared strata](ScoredPool::shared_strata)), initialise (Algorithm 2),
    /// and set up the Bayesian model (Algorithm 3, line 1).
    pub fn new(pool: &ScoredPool, config: OasisConfig) -> Result<Self> {
        config.validate()?;
        let strata = pool.shared_strata(StrataKey {
            stratifier: config.stratifier,
            strata_count: config.strata_count,
        })?;
        Self::with_shared_strata(pool, strata, config)
    }

    /// Build an OASIS sampler with a pre-computed stratification (useful to
    /// share one stratification across repeated experiment runs).
    pub fn with_strata(pool: &ScoredPool, strata: Strata, config: OasisConfig) -> Result<Self> {
        Self::with_shared_strata(pool, Arc::new(strata), config)
    }

    /// [`OasisSampler::with_strata`] for strata other samplers may hold too.
    fn with_shared_strata(
        pool: &ScoredPool,
        strata: Arc<Strata>,
        config: OasisConfig,
    ) -> Result<Self> {
        config.validate()?;
        let init = initialise(pool, &strata, config.alpha, config.score_threshold);
        let eta = config.prior_strength.unwrap_or(2.0 * strata.len() as f64);
        let model = BetaBernoulliModel::from_prior_guess(&init.pi_guess, eta, config.decay_prior)?;
        let estimator = AisEstimator::new(config.alpha);
        let k = strata.len();
        Ok(OasisSampler {
            config,
            strata,
            model,
            estimator,
            initial_f_guess: init.f_guess,
            current_proposal: vec![1.0 / k as f64; k],
            cdf_scratch: Vec::new(),
            proposal_dirty: true,
            cdf_rebuilds: 0,
        })
    }

    /// The stratification in use.
    pub fn strata(&self) -> &Strata {
        &self.strata
    }

    /// The Bayesian oracle-probability model.
    pub fn model(&self) -> &BetaBernoulliModel {
        &self.model
    }

    /// Current posterior means `π̂⁽ᵗ⁾` over the strata.
    pub fn pi_estimates(&self) -> Vec<f64> {
        self.model.posterior_means()
    }

    /// The initial F-measure guess `F̂⁽⁰⁾` produced by Algorithm 2.
    pub fn initial_f_guess(&self) -> f64 {
        self.initial_f_guess
    }

    /// The configuration the sampler was built with.
    pub fn config(&self) -> &OasisConfig {
        &self.config
    }

    /// The ε-greedy instrumental distribution used at the most recent step
    /// (uniform over strata before the first step).
    pub fn current_proposal(&self) -> &[f64] {
        &self.current_proposal
    }

    /// The F-measure value fed into the instrumental distribution: the current
    /// AIS estimate if defined, otherwise the initial guess.
    fn working_f_estimate(&self) -> f64 {
        self.estimator
            .f_measure()
            .filter(|f| f.is_finite())
            .unwrap_or(self.initial_f_guess)
    }

    /// Compute the ε-greedy stratified proposal `v⁽ᵗ⁾` (Eqn. 12) from the
    /// current model state.
    pub fn compute_proposal(&self) -> Vec<f64> {
        let pi = self.model.posterior_means();
        let optimal = stratified_optimal(
            self.strata.weights(),
            self.strata.mean_predictions(),
            &pi,
            self.working_f_estimate(),
            self.config.alpha,
        );
        epsilon_greedy(self.strata.weights(), &optimal, self.config.epsilon)
    }

    /// Refresh the cached instrumental distribution and its cumulative
    /// weights if any label has arrived since they were last computed.
    fn refresh_proposal_cache(&mut self) {
        if self.proposal_dirty {
            // Line 3: v⁽ᵗ⁾ from Eqn. 12, plus its CDF in the reusable
            // scratch buffer (no allocation on the hot path).
            self.current_proposal = self.compute_proposal();
            super::fill_cumulative(self.current_proposal.iter().copied(), &mut self.cdf_scratch);
            self.proposal_dirty = false;
            self.cdf_rebuilds += 1;
        }
    }

    /// How many times the instrumental distribution and its CDF have been
    /// refit so far (the cache-miss count; see
    /// [`InteractiveSampler::propose_batch`] for why batches pay one).
    pub fn cdf_rebuilds(&self) -> u64 {
        self.cdf_rebuilds
    }

    /// Draw a stratum and a position within it from the (already
    /// refreshed) cached distribution.
    fn draw_from_cache<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        debug_assert!(!self.proposal_dirty);
        // Line 4: draw a stratum — binary search over the cached CDF.
        let stratum = super::sample_from_cumulative(rng, &self.cdf_scratch);
        // Line 5: draw an item uniformly within the stratum.
        (
            stratum,
            rng.gen_range(0..self.strata.members(stratum).len()),
        )
    }

    /// The proposal for the member at `position` of `stratum`.
    fn proposal_at(&self, pool: &ScoredPool, stratum: usize, position: usize) -> Proposal {
        let item = self.strata.members(stratum)[position] as usize;
        // Line 6: importance weight w_t = ω_k / v_k.
        let weight = self.strata.weights()[stratum] / self.current_proposal[stratum];
        Proposal {
            item,
            stratum,
            prediction: pool.prediction(item),
            weight,
        }
    }

    /// The AIS estimator's running sums — read by the sharded merge.
    pub(crate) fn estimator(&self) -> &AisEstimator {
        &self.estimator
    }

    /// Assemble a sampler from restored components; shared by
    /// [`OasisState::rebuild`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_parts(
        config: OasisConfig,
        strata: Arc<Strata>,
        model: BetaBernoulliModel,
        estimator: AisEstimator,
        initial_f_guess: f64,
        current_proposal: Vec<f64>,
        proposal_current: bool,
        cdf_rebuilds: u64,
    ) -> Result<Self> {
        config.validate()?;
        let k = strata.len();
        if model.strata_count() != k || current_proposal.len() != k {
            return Err(Error::InvalidParameter {
                name: "state",
                message: format!(
                    "inconsistent strata counts: strata {k}, model {}, proposal {}",
                    model.strata_count(),
                    current_proposal.len()
                ),
            });
        }
        // A proposal fit since the last label is the one the next draw uses:
        // rebuilding its CDF here is not a refit, so it is not counted.
        let mut cdf_scratch = Vec::new();
        if proposal_current {
            let valid = current_proposal.iter().all(|p| p.is_finite() && *p >= 0.0)
                && current_proposal.iter().sum::<f64>() > 0.0;
            if !valid {
                return Err(Error::InvalidParameter {
                    name: "state",
                    message: "current_proposal is not a distribution".to_string(),
                });
            }
            super::fill_cumulative(current_proposal.iter().copied(), &mut cdf_scratch);
        }
        Ok(OasisSampler {
            config,
            strata,
            model,
            estimator,
            initial_f_guess,
            current_proposal,
            cdf_scratch,
            proposal_dirty: !proposal_current,
            cdf_rebuilds,
        })
    }
}

impl InteractiveSampler for OasisSampler {
    /// Algorithm 3, lines 3–6: refresh the instrumental distribution (if any
    /// label arrived since the last refresh), draw a stratum and an item,
    /// and lock in the importance weight.
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        self.refresh_proposal_cache();
        let (stratum, position) = self.draw_from_cache(rng);
        self.proposal_at(pool, stratum, position)
    }

    /// Batch form: one refresh of the instrumental distribution serves all
    /// `count` draws.  Because no labels can intervene inside the batch, the
    /// posterior — and therefore the distribution — is identical for every
    /// draw, so this produces the same proposals (bit-for-bit, same RNG
    /// stream) as calling `propose` `count` times while paying the O(K)
    /// distribution/CDF refit at most once.  Every draw's stratum and
    /// position come first, then the member and prediction loads, whose
    /// cache misses no longer wait behind the next draw's RNG work.
    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        if count == 0 {
            return Vec::new();
        }
        self.refresh_proposal_cache();
        let picks: Vec<(usize, usize)> = (0..count).map(|_| self.draw_from_cache(rng)).collect();
        picks
            .into_iter()
            .map(|(stratum, position)| self.proposal_at(pool, stratum, position))
            .collect()
    }

    /// Algorithm 3, lines 9–11: fold an oracle label for a pending
    /// [`Proposal`] into the Beta–Bernoulli posterior (Eqn. 10) and the AIS
    /// estimator (Eqn. 3), invalidating the cached instrumental
    /// distribution.
    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        self.model.observe(proposal.stratum, label);
        self.estimator
            .observe(proposal.weight, proposal.prediction, label);
        self.proposal_dirty = true;
    }

    fn estimate(&self) -> Estimate {
        self.estimator.estimate()
    }

    /// The un-normalised total mass of the current stratified-optimal
    /// instrumental distribution — a pure function of the posterior and the
    /// running estimate, recomputed in O(K) without touching the cached
    /// proposal.  A sharded driver uses it to steer shard selection toward
    /// the shards whose strata currently want the most sampling effort.
    fn proposal_mass(&self) -> f64 {
        let pi = self.model.posterior_means();
        let mass = stratified_optimal_mass(
            self.strata.weights(),
            self.strata.mean_predictions(),
            &pi,
            self.working_f_estimate(),
            self.config.alpha,
        );
        if mass > 0.0 {
            mass
        } else {
            // Degenerate posterior (no predicted positives and F̂ = 0):
            // fall back to the neutral unit mass, mirroring
            // `stratified_optimal`'s fallback to the stratum weights.
            1.0
        }
    }

    fn name(&self) -> &'static str {
        "OASIS"
    }

    fn method(&self) -> SamplerMethod {
        SamplerMethod::Oasis
    }

    fn strata_len(&self) -> usize {
        self.strata.len()
    }

    /// Ground-truth-free health report: ESS and weight variance from the AIS
    /// estimator's running sums, per-stratum label counts from the posterior's
    /// observation tallies, and the instrumental distribution of the most
    /// recent step — all pure functions of the serialized state, so the
    /// report is bit-stable across checkpoint/restore.
    fn diagnostics(&self) -> SamplerDiagnostics {
        let (_, _, observed_matches, observed_non_matches) = self.model.snapshot();
        let stratum_labels = observed_matches
            .iter()
            .zip(observed_non_matches.iter())
            .map(|(&m, &n)| m + n)
            .collect();
        SamplerDiagnostics {
            method: SamplerMethod::Oasis,
            iterations: self.estimator.iterations(),
            effective_sample_size: self.estimator.effective_sample_size(),
            normalized_weight_variance: self.estimator.normalized_weight_variance(),
            stratum_labels,
            instrumental: self.current_proposal.clone(),
            cdf_rebuilds: self.cdf_rebuilds,
        }
    }

    /// Capture the full serializable state (strata, posterior, estimator
    /// sums, initialisation products); see [`OasisState`].
    fn state(&self) -> SamplerState {
        let (prior_gamma0, prior_gamma1, observed_matches, observed_non_matches) =
            self.model.snapshot();
        SamplerState::Oasis(OasisState {
            config: self.config.clone(),
            strata: StrataState::capture(&self.strata),
            prior_gamma0: prior_gamma0.to_vec(),
            prior_gamma1: prior_gamma1.to_vec(),
            observed_matches: observed_matches.to_vec(),
            observed_non_matches: observed_non_matches.to_vec(),
            decay_prior: self.model.decays_prior(),
            estimator: EstimatorState::capture(&self.estimator),
            initial_f_guess: self.initial_f_guess,
            current_proposal: self.current_proposal.clone(),
            proposal_current: !self.proposal_dirty,
            cdf_rebuilds: self.cdf_rebuilds,
            tracker: None,
        })
    }

    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        match state {
            SamplerState::Oasis(state) => state.rebuild(pool),
            other => Err(other.method_mismatch(SamplerMethod::Oasis)),
        }
    }
}

impl Sampler for OasisSampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::exhaustive_measures;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use crate::samplers::PassiveSampler;
    use crate::strata::{CsfStratifier, Stratifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An imbalanced pool whose scores correlate with (but don't perfectly
    /// predict) the truth — the regime OASIS is designed for.
    fn imbalanced_pool(
        n: usize,
        match_rate: f64,
        seed: u64,
        calibrated: bool,
    ) -> (ScoredPool, Vec<bool>) {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let is_match = rng.gen_bool(match_rate);
            let p: f64 = if is_match {
                0.55 + 0.45 * rng.gen::<f64>()
            } else {
                0.5 * rng.gen::<f64>().powi(2)
            };
            let score = if calibrated { p } else { (p - 0.5) * 6.0 };
            scores.push(score);
            predictions.push(p > 0.5);
            truth.push(is_match);
        }
        (ScoredPool::new(scores, predictions).unwrap(), truth)
    }

    #[test]
    fn config_builder_and_validation() {
        let config = OasisConfig::default()
            .with_alpha(0.7)
            .with_epsilon(0.01)
            .with_strata_count(40)
            .with_prior_strength(10.0)
            .with_prior_decay(false)
            .with_score_threshold(1.0)
            .with_stratifier(StratifierChoice::EqualSize);
        assert_eq!(config.alpha, 0.7);
        assert_eq!(config.strata_count, 40);
        assert!(config.validate().is_ok());

        assert!(OasisConfig::default().with_alpha(1.5).validate().is_err());
        assert!(OasisConfig::default().with_epsilon(0.0).validate().is_err());
        assert!(OasisConfig::default().with_epsilon(1.5).validate().is_err());
        assert!(OasisConfig::default()
            .with_strata_count(0)
            .validate()
            .is_err());
        assert!(OasisConfig::default()
            .with_prior_strength(-1.0)
            .validate()
            .is_err());
    }

    #[test]
    fn initialisation_matches_algorithm_2() {
        let (pool, _) = imbalanced_pool(1000, 0.05, 21, true);
        let strata = CsfStratifier::new(10).stratify(&pool).unwrap();
        let init = initialise(&pool, &strata, 0.5, 0.0);
        assert_eq!(init.pi_guess.len(), strata.len());
        assert!(init.pi_guess.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!((0.0..=1.0).contains(&init.f_guess));
        // π̂⁽⁰⁾ must equal mean score per stratum for probability scores.
        for (k, &pi) in init.pi_guess.iter().enumerate() {
            assert!((pi - strata.mean_scores()[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn initialisation_squashes_uncalibrated_scores() {
        let (pool, _) = imbalanced_pool(1000, 0.05, 22, false);
        assert!(!pool.scores_are_probabilities());
        let strata = CsfStratifier::new(10).stratify(&pool).unwrap();
        let init = initialise(&pool, &strata, 0.5, 0.0);
        assert!(init.pi_guess.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn proposal_is_a_distribution_with_no_starving_stratum() {
        let (pool, _) = imbalanced_pool(2000, 0.02, 23, true);
        let sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(20)).unwrap();
        let v = sampler.compute_proposal();
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // ε-greedy guarantees every stratum keeps at least ε·ω_k mass.
        for (k, &mass) in v.iter().enumerate() {
            let floor = sampler.config().epsilon * sampler.strata().weights()[k];
            assert!(
                mass >= floor - 1e-15,
                "stratum {k} starved: {mass} < {floor}"
            );
        }
    }

    #[test]
    fn weights_are_correct_ratio_of_stratum_weight_to_proposal() {
        let (pool, truth) = imbalanced_pool(500, 0.1, 24, true);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(25);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(8)).unwrap();
        for _ in 0..50 {
            let outcome = sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            let k = sampler.strata().stratum_of(outcome.item).unwrap();
            let expected = sampler.strata().weights()[k] / sampler.current_proposal()[k];
            assert!((outcome.weight - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_true_f_measure() {
        let (pool, truth) = imbalanced_pool(5000, 0.02, 26, true);
        let target = exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(27);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(30)).unwrap();
        let estimate = sampler.run(&pool, &mut oracle, &mut rng, 3000).unwrap();
        assert!(
            (estimate.f_measure - target).abs() < 0.06,
            "estimate {} vs target {target}",
            estimate.f_measure
        );
        // Precision and recall estimates are also produced and sane.
        assert!((0.0..=1.0 + 1e-9).contains(&estimate.precision));
        assert!((0.0..=1.0 + 1e-9).contains(&estimate.recall));
    }

    #[test]
    fn beats_passive_sampling_under_imbalance() {
        // The headline claim: at a fixed (small) label budget, OASIS's error is
        // lower than passive sampling's, averaged over repeats.
        let (pool, truth) = imbalanced_pool(20_000, 0.005, 28, true);
        let target = exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;
        let budget = 300;
        let repeats = 15;
        let mut oasis_err = 0.0;
        let mut passive_err = 0.0;
        for r in 0..repeats {
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(1000 + r);
            let mut sampler =
                OasisSampler::new(&pool, OasisConfig::default().with_strata_count(30)).unwrap();
            let est = sampler
                .run_until_budget(&pool, &mut oracle, &mut rng, budget, 200_000)
                .unwrap();
            oasis_err += (est.to_measures().f_measure - target).abs();

            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(2000 + r);
            let mut passive = PassiveSampler::new(0.5);
            let est = passive
                .run_until_budget(&pool, &mut oracle, &mut rng, budget, 200_000)
                .unwrap();
            passive_err += (est.to_measures().f_measure - target).abs();
        }
        assert!(
            oasis_err < passive_err,
            "OASIS mean abs err {} should beat passive {}",
            oasis_err / repeats as f64,
            passive_err / repeats as f64
        );
    }

    #[test]
    fn posterior_means_track_true_stratum_rates() {
        let (pool, truth) = imbalanced_pool(5000, 0.05, 29, true);
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut rng = StdRng::seed_from_u64(30);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(10)).unwrap();
        sampler.run(&pool, &mut oracle, &mut rng, 4000).unwrap();
        let true_rates = sampler.strata().true_match_rates(&truth);
        let estimates = sampler.pi_estimates();
        let mae: f64 = true_rates
            .iter()
            .zip(estimates.iter())
            .map(|(&t, &e)| (t - e).abs())
            .sum::<f64>()
            / true_rates.len() as f64;
        assert!(mae < 0.15, "π estimates should approach truth, MAE = {mae}");
    }

    #[test]
    fn works_with_equal_size_stratifier_and_uncalibrated_scores() {
        let (pool, truth) = imbalanced_pool(3000, 0.02, 31, false);
        let target = exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(32);
        let config = OasisConfig::default()
            .with_strata_count(20)
            .with_stratifier(StratifierChoice::EqualSize)
            .with_score_threshold(0.0);
        let mut sampler = OasisSampler::new(&pool, config).unwrap();
        let estimate = sampler.run(&pool, &mut oracle, &mut rng, 2500).unwrap();
        assert!(
            (estimate.f_measure - target).abs() < 0.1,
            "estimate {} vs target {target}",
            estimate.f_measure
        );
        assert_eq!(sampler.name(), "OASIS");
    }

    #[test]
    fn single_item_pool_is_handled() {
        let pool = ScoredPool::new(vec![0.9], vec![true]).unwrap();
        let mut oracle = GroundTruthOracle::new(vec![true]);
        let mut rng = StdRng::seed_from_u64(33);
        let mut sampler = OasisSampler::new(&pool, OasisConfig::default()).unwrap();
        let est = sampler.run(&pool, &mut oracle, &mut rng, 10).unwrap();
        assert!((est.f_measure - 1.0).abs() < 1e-12);
        assert_eq!(oracle.labels_consumed(), 1);
    }
}
