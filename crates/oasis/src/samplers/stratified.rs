//! Proportional stratified sampling (Druck & McCallum style) — the
//! "Stratified" baseline of Section 6.2.

use super::state::{SamplerMethod, SamplerState, StrataState, StratifiedState};
use super::{CategoricalCdf, InteractiveSampler, Proposal, Sampler, SamplerDiagnostics};
use crate::error::Result;
use crate::estimator::Estimate;
use crate::pool::ScoredPool;
use crate::strata::{Strata, StrataKey, StratifierChoice};
use rand::Rng;
use std::sync::Arc;

/// Per-stratum running sums used by the stratified estimator.
#[derive(Debug, Clone, Default)]
struct StratumTally {
    /// Number of labelled draws from this stratum.
    samples: f64,
    /// Sum of `ℓ·ℓ̂` over the draws.
    true_positives: f64,
    /// Sum of `ℓ` over the draws.
    actual_positives: f64,
}

/// Proportional stratified sampler.
///
/// Strata are drawn with probability equal to their weight `ω_k = |P_k|/N`
/// (so the marginal item distribution is uniform, i.e. the sampling is *not*
/// biased), and the F-measure is estimated with a stratified estimator that
/// transfers per-stratum rates to the whole stratum:
///
/// ```text
/// TP ≈ Σ_k |P_k| · mean_k(ℓ ℓ̂)      TP + FN ≈ Σ_k |P_k| · mean_k(ℓ)
/// TP + FP  = Σ_k |P_k| · λ_k         (known exactly, no labels needed)
/// ```
///
/// Only strata with at least one labelled draw contribute to the estimated
/// sums; this matches the proportional (non-adaptive, non-biased) method the
/// paper attributes to Druck & McCallum for F-measure estimation.
#[derive(Debug, Clone)]
pub struct StratifiedSampler {
    /// Shared with every sampler over the same pool and [`StrataKey`].
    strata: Arc<Strata>,
    alpha: f64,
    tallies: Vec<StratumTally>,
    iterations: usize,
    /// Per-stratum item counts as f64, cached for the estimator.
    stratum_sizes: Vec<f64>,
    /// Cumulative stratum weights, precomputed for O(log K) draws (the
    /// proportional proposal never changes).
    weight_cdf: CategoricalCdf,
}

impl StratifiedSampler {
    /// Create a proportional stratified sampler with `strata_count` CSF strata
    /// (the paper uses `K = 30`), shared through the pool's
    /// [shared strata](ScoredPool::shared_strata).
    pub fn new(pool: &ScoredPool, alpha: f64, strata_count: usize) -> Result<Self> {
        let strata = pool.shared_strata(StrataKey {
            stratifier: StratifierChoice::Csf,
            strata_count,
        })?;
        Ok(Self::with_shared_strata(strata, alpha))
    }

    /// Create the sampler from a pre-computed stratification.
    pub fn with_strata(strata: Strata, alpha: f64) -> Self {
        Self::with_shared_strata(Arc::new(strata), alpha)
    }

    /// [`StratifiedSampler::with_strata`] for strata other samplers may hold
    /// too.
    fn with_shared_strata(strata: Arc<Strata>, alpha: f64) -> Self {
        let k = strata.len();
        let stratum_sizes = (0..k).map(|i| strata.size(i) as f64).collect();
        let weight_cdf = CategoricalCdf::new(strata.weights());
        StratifiedSampler {
            strata,
            alpha,
            tallies: vec![StratumTally::default(); k],
            iterations: 0,
            stratum_sizes,
            weight_cdf,
        }
    }

    /// The stratification in use.
    pub fn strata(&self) -> &Strata {
        &self.strata
    }

    /// Assemble a sampler from restored tallies; shared by
    /// [`StratifiedState::rebuild`] (which validates the rows first).
    pub(super) fn from_parts(
        strata: Arc<Strata>,
        alpha: f64,
        samples: Vec<f64>,
        true_positives: Vec<f64>,
        actual_positives: Vec<f64>,
        iterations: usize,
    ) -> Result<Self> {
        let mut sampler = StratifiedSampler::with_shared_strata(strata, alpha);
        for (k, tally) in sampler.tallies.iter_mut().enumerate() {
            tally.samples = samples[k];
            tally.true_positives = true_positives[k];
            tally.actual_positives = actual_positives[k];
        }
        sampler.iterations = iterations;
        Ok(sampler)
    }

    /// Draw a stratum by its weight and a position within it.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        let stratum = self.weight_cdf.sample(rng);
        (
            stratum,
            rng.gen_range(0..self.strata.members(stratum).len()),
        )
    }

    /// The proposal for the member at `position` of `stratum`.
    fn proposal_at(&self, pool: &ScoredPool, stratum: usize, position: usize) -> Proposal {
        let item = self.strata.members(stratum)[position] as usize;
        Proposal {
            item,
            stratum,
            prediction: pool.prediction(item),
            weight: 1.0,
        }
    }

    /// The transferred-mass sums the stratified estimator is built from:
    /// `(Σ_k |P_k|·tp_k/n_k, Σ_k |P_k|·λ_k, Σ_k |P_k|·act_k/n_k, any
    /// observed stratum)`.  All three sums are in *absolute item counts*
    /// (stratum sizes, not weights), so sums from disjoint sub-pools add
    /// exactly — this is what lets a sharded run merge per-shard stratified
    /// estimates without bias (see `ShardedSampler`).
    pub(crate) fn mass_sums(&self) -> (f64, f64, f64, bool) {
        let mut est_tp = 0.0;
        let mut est_actual = 0.0;
        let mut est_predicted = 0.0;
        let mut any_observed_stratum = false;
        for (k, tally) in self.tallies.iter().enumerate() {
            let size = self.stratum_sizes[k];
            // Predicted positives are known exactly for every stratum.
            est_predicted += size * self.strata.mean_predictions()[k];
            if tally.samples > 0.0 {
                any_observed_stratum = true;
                est_tp += size * tally.true_positives / tally.samples;
                est_actual += size * tally.actual_positives / tally.samples;
            }
        }
        (est_tp, est_predicted, est_actual, any_observed_stratum)
    }

    /// Labels folded in so far — read by the sharded merge alongside
    /// [`StratifiedSampler::mass_sums`].
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    fn stratified_estimate(&self) -> Estimate {
        let (est_tp, est_predicted, est_actual, any_observed_stratum) = self.mass_sums();
        finish_stratified_estimate(
            self.alpha,
            est_tp,
            est_predicted,
            est_actual,
            any_observed_stratum,
            self.iterations,
        )
    }
}

/// Turn transferred-mass sums into an [`Estimate`] — the single place the
/// stratified estimator's final arithmetic lives, shared by
/// [`StratifiedSampler`] and the sharded merge so a one-shard sharded run is
/// bit-identical to the unsharded sampler.
pub(crate) fn finish_stratified_estimate(
    alpha: f64,
    est_tp: f64,
    est_predicted: f64,
    est_actual: f64,
    any_observed_stratum: bool,
    iterations: usize,
) -> Estimate {
    let denom = alpha * est_predicted + (1.0 - alpha) * est_actual;
    let f_measure = if any_observed_stratum && denom > 0.0 {
        est_tp / denom
    } else {
        f64::NAN
    };
    let precision = if any_observed_stratum && est_predicted > 0.0 {
        est_tp / est_predicted
    } else {
        f64::NAN
    };
    let recall = if any_observed_stratum && est_actual > 0.0 {
        est_tp / est_actual
    } else {
        f64::NAN
    };
    Estimate {
        f_measure,
        precision,
        recall,
        alpha,
        iterations,
    }
}

impl InteractiveSampler for StratifiedSampler {
    /// Draw a stratum proportionally to its weight, then an item uniformly
    /// within it; the marginal item distribution is uniform, so the
    /// importance weight is 1.
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        let (stratum, position) = self.draw(rng);
        self.proposal_at(pool, stratum, position)
    }

    /// The same draws as `count` calls of [`propose`](Self::propose), from
    /// the same RNG calls: every draw's stratum and position within it
    /// first, then the member and prediction loads, whose cache misses no
    /// longer wait behind the next draw's RNG work.
    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        let picks: Vec<(usize, usize)> = (0..count).map(|_| self.draw(rng)).collect();
        picks
            .into_iter()
            .map(|(stratum, position)| self.proposal_at(pool, stratum, position))
            .collect()
    }

    /// Fold the label into the proposal's stratum tally.
    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        let tally = &mut self.tallies[proposal.stratum];
        tally.samples += 1.0;
        tally.true_positives += f64::from(u8::from(label && proposal.prediction));
        tally.actual_positives += f64::from(u8::from(label));
        self.iterations += 1;
    }

    fn estimate(&self) -> Estimate {
        self.stratified_estimate()
    }

    fn name(&self) -> &'static str {
        "Stratified"
    }

    fn method(&self) -> SamplerMethod {
        SamplerMethod::Stratified
    }

    fn strata_len(&self) -> usize {
        self.strata.len()
    }

    /// Every draw carries weight 1, so the effective sample size equals the
    /// iteration count exactly and the normalized weight variance is zero;
    /// the proportional proposal never changes, so no CDF rebuilds occur.
    fn diagnostics(&self) -> SamplerDiagnostics {
        let (ess, variance) = if self.iterations > 0 {
            (Some(self.iterations as f64), Some(0.0))
        } else {
            (None, None)
        };
        SamplerDiagnostics {
            method: SamplerMethod::Stratified,
            iterations: self.iterations,
            effective_sample_size: ess,
            normalized_weight_variance: variance,
            stratum_labels: self.tallies.iter().map(|t| t.samples).collect(),
            instrumental: self.strata.weights().to_vec(),
            cdf_rebuilds: 0,
        }
    }

    fn state(&self) -> SamplerState {
        let mut samples = Vec::with_capacity(self.tallies.len());
        let mut true_positives = Vec::with_capacity(self.tallies.len());
        let mut actual_positives = Vec::with_capacity(self.tallies.len());
        for tally in &self.tallies {
            samples.push(tally.samples);
            true_positives.push(tally.true_positives);
            actual_positives.push(tally.actual_positives);
        }
        SamplerState::Stratified(StratifiedState {
            alpha: self.alpha,
            strata: StrataState::capture(&self.strata),
            samples,
            true_positives,
            actual_positives,
            iterations: self.iterations,
            tracker: None,
        })
    }

    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        match state {
            SamplerState::Stratified(state) => state.rebuild(pool),
            other => Err(other.method_mismatch(SamplerMethod::Stratified)),
        }
    }
}

impl Sampler for StratifiedSampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::exhaustive_measures;
    use crate::oracle::GroundTruthOracle;
    use crate::strata::{CsfStratifier, Stratifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn imbalanced_pool(n: usize, match_rate: f64, seed: u64) -> (ScoredPool, Vec<bool>) {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let is_match = rng.gen_bool(match_rate);
            // Matches score high with some noise; non-matches score low.
            let score: f64 = if is_match {
                (0.75 + 0.25 * rng.gen::<f64>()).min(1.0)
            } else {
                0.6 * rng.gen::<f64>()
            };
            scores.push(score);
            predictions.push(score > 0.65);
            truth.push(is_match);
        }
        (ScoredPool::new(scores, predictions).unwrap(), truth)
    }

    #[test]
    fn converges_to_true_f_measure() {
        let (pool, truth) = imbalanced_pool(4000, 0.05, 11);
        let target = exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(12);
        let mut sampler = StratifiedSampler::new(&pool, 0.5, 30).unwrap();
        let estimate = sampler.run(&pool, &mut oracle, &mut rng, 6000).unwrap();
        assert!(
            (estimate.f_measure - target).abs() < 0.08,
            "estimate {} vs target {target}",
            estimate.f_measure
        );
    }

    #[test]
    fn marginal_item_distribution_is_uniform() {
        // With proportional stratum weights the chance of drawing any single
        // item is 1/N; check the aggregate draw counts are roughly flat across
        // strata relative to their sizes.
        let (pool, truth) = imbalanced_pool(1000, 0.1, 13);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(14);
        let mut sampler = StratifiedSampler::new(&pool, 0.5, 10).unwrap();
        let mut draws_per_stratum = vec![0usize; sampler.strata().len()];
        for _ in 0..20_000 {
            let outcome = sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            let k = sampler.strata().stratum_of(outcome.item).unwrap();
            draws_per_stratum[k] += 1;
        }
        for (k, &draws) in draws_per_stratum.iter().enumerate() {
            let expected = 20_000.0 * sampler.strata().weights()[k];
            assert!(
                (draws as f64 - expected).abs() < 4.0 * expected.sqrt() + 20.0,
                "stratum {k}: {draws} draws vs expected {expected}"
            );
        }
    }

    #[test]
    fn predicted_positive_total_is_exact_from_start() {
        let (pool, truth) = imbalanced_pool(500, 0.1, 15);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(16);
        let mut sampler = StratifiedSampler::new(&pool, 1.0, 10).unwrap();
        // α = 1 → precision. After enough samples precision should be in [0, 1].
        let estimate = sampler.run(&pool, &mut oracle, &mut rng, 500).unwrap();
        assert!(estimate.precision >= 0.0 && estimate.precision <= 1.0 + 1e-9);
        assert_eq!(sampler.name(), "Stratified");
    }

    #[test]
    fn with_strata_constructor_matches_new() {
        let (pool, _) = imbalanced_pool(300, 0.1, 17);
        let strata = CsfStratifier::new(8).stratify(&pool).unwrap();
        let a = StratifiedSampler::with_strata(strata.clone(), 0.5);
        let b = StratifiedSampler::new(&pool, 0.5, 8).unwrap();
        assert_eq!(a.strata().len(), b.strata().len());
    }
}
