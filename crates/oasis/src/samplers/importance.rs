//! Static (non-adaptive) importance sampling — the "IS" baseline of
//! Section 6.2, after Sawade et al. (NIPS 2010).
//!
//! The instrumental distribution approximates the asymptotically optimal form
//! of Eqn. 5 by plugging in the similarity scores (mapped to the unit
//! interval) in place of the oracle probabilities, and an initial guess in
//! place of the true F-measure.  It is fixed before any label is observed and
//! never adapts, so its efficiency hinges entirely on how well calibrated the
//! scores are (paper Section 6.3.2).
//!
//! The distribution lives over the *entire pool* of `N` items.  The paper's
//! reference implementation (`numpy.random.choice`) pays `O(N)` per draw,
//! which is what makes IS an order of magnitude slower than OASIS in the
//! paper's Table 3; because the distribution is static, this implementation
//! precomputes its cumulative weights once and draws in `O(log N)` via
//! binary search ([`CategoricalCdf`]); a batch runs its searches
//! interleaved, so their cache misses overlap.  "Once" is once per pool,
//! α and τ: the pool shares the proposal between samplers as it shares
//! strata.
//!
//! The cumulative weights are the only pool-sized array the proposal keeps
//! (8 bytes per item).  A drawn item's probability `q_i` and importance
//! weight `(1/N)/q_i` are recomputed from its score and prediction with the
//! arithmetic the build used, so they carry the bits a stored array would.
//! The build streams over the pool and allocates nothing else pool-sized.

use super::state::{EstimatorState, ImportanceState, SamplerMethod, SamplerState};
use super::{
    unstratified_diagnostics, CategoricalCdf, InteractiveSampler, Proposal, Sampler,
    SamplerDiagnostics,
};
use crate::error::{Error, Result};
use crate::estimator::{AisEstimator, Estimate};
use crate::instrumental::optimal_mass;
use crate::pool::ScoredPool;
use rand::Rng;
use std::sync::Arc;

/// Map an arbitrary real-valued score to `(0, 1)` via the logistic function,
/// shifted so the decision threshold `tau` maps to ½.
pub(crate) fn logistic(score: f64, tau: f64) -> f64 {
    1.0 / (1.0 + (-(score - tau)).exp())
}

/// The static instrumental distribution of one pool, α and τ, with what
/// draws need from it.  A pure function of those three, so a pool builds
/// it once and every sampler with that α and τ shares it
/// ([`ScoredPool::shared_proposal`]).
#[derive(Debug)]
pub(crate) struct StaticProposal {
    /// Cumulative probabilities over the pool items, for O(log N) draws.
    cdf: CategoricalCdf,
    /// What a drawn item's probability and weight are recomputed from.
    masses: OptimalMasses,
}

/// The scalars the pointwise optimal masses of one pool are a function of.
#[derive(Debug)]
struct OptimalMasses {
    /// The τ raw scores are squashed with, or `None` when the scores are
    /// already probabilities.
    squash: Option<f64>,
    /// The F-measure weight α.
    alpha: f64,
    /// The plug-in F-measure guess.
    f_guess: f64,
    /// The sum of the un-normalised masses.
    total: f64,
    /// Whether that sum was zero or not finite, so the proposal fell back to
    /// uniform.
    uniform: bool,
}

impl OptimalMasses {
    /// The score as a stand-in for the oracle probability.
    fn oracle_probability(&self, score: f64) -> f64 {
        match self.squash {
            Some(tau) => logistic(score, tau),
            None => score,
        }
    }

    /// The un-normalised pointwise optimal mass of `item` (paper Eqn. 5).
    fn mass(&self, pool: &ScoredPool, item: usize) -> f64 {
        optimal_mass(
            pool.prediction(item),
            self.oracle_probability(pool.score(item)),
            self.f_guess,
            self.alpha,
        )
    }

    /// The normalised instrumental probability `q_i` of `item`.
    fn probability(&self, pool: &ScoredPool, item: usize) -> f64 {
        if self.uniform {
            1.0 / pool.len() as f64
        } else {
            self.mass(pool, item) / self.total
        }
    }
}

impl StaticProposal {
    /// Build the proposal in three streaming passes over the pool (the
    /// F-measure guess, the total mass, the CDF); `alpha` must already be
    /// validated.
    pub(crate) fn build(pool: &ScoredPool, alpha: f64, score_threshold: f64) -> Self {
        let mut masses = OptimalMasses {
            squash: (!pool.scores_are_probabilities()).then_some(score_threshold),
            alpha,
            f_guess: 0.0,
            total: 0.0,
            uniform: false,
        };
        // Initial F-measure guess from the same plug-in quantities.
        masses.f_guess = initial_f_guess(
            pool.predictions()
                .iter()
                .zip(pool.scores())
                .map(|(&prediction, &score)| (prediction, masses.oracle_probability(score))),
            alpha,
        );
        masses.total = (0..pool.len()).map(|item| masses.mass(pool, item)).sum();
        masses.uniform = !(masses.total > 0.0 && masses.total.is_finite());
        let cdf = CategoricalCdf::from_weights(
            (0..pool.len()).map(|item| masses.probability(pool, item)),
        );
        StaticProposal { cdf, masses }
    }

    /// The importance weight `p(z)/q(z) = (1/N)/q_i` of `item`.
    fn weight(&self, pool: &ScoredPool, item: usize) -> f64 {
        let q = self.masses.probability(pool, item);
        if q > 0.0 {
            pool.uniform_mass() / q
        } else {
            0.0
        }
    }
}

/// Static importance sampler over the whole pool.
#[derive(Debug, Clone)]
pub struct ImportanceSampler {
    /// The pool's shared proposal for this sampler's α and τ.
    proposal: Arc<StaticProposal>,
    /// The decision threshold τ the proposal was built with (kept for
    /// serializable state; a restore looks the proposal up again).
    score_threshold: f64,
    estimator: AisEstimator,
}

impl ImportanceSampler {
    /// Build the static IS sampler, sharing the pool's proposal for this
    /// `alpha` and `score_threshold` when another sampler already holds it.
    ///
    /// * `alpha` — F-measure weight.
    /// * `score_threshold` — decision threshold `τ` used to squash raw scores
    ///   through the logistic function when they are not already
    ///   probabilities.  Ignored for probability scores.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `alpha` lies outside `[0, 1]`.
    pub fn new(pool: &ScoredPool, alpha: f64, score_threshold: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in [0, 1], got {alpha}"),
            });
        }
        Ok(ImportanceSampler {
            proposal: pool.shared_proposal(alpha, score_threshold)?,
            score_threshold,
            estimator: AisEstimator::new(alpha),
        })
    }

    /// The (normalised) static instrumental probability of pool item
    /// `item`; `pool` must be the pool the sampler was built on.
    pub fn probability(&self, pool: &ScoredPool, item: usize) -> f64 {
        self.proposal.masses.probability(pool, item)
    }

    /// The AIS estimator's running sums — read by the sharded merge.
    pub(crate) fn estimator(&self) -> &AisEstimator {
        &self.estimator
    }

    /// Assemble a sampler from a restored estimator and the pool's proposal
    /// (shared, or recomputed: a pure deterministic function of the scores,
    /// so the recomputation is bit-exact); shared by
    /// [`ImportanceState::rebuild`].
    pub(super) fn from_parts(
        pool: &ScoredPool,
        score_threshold: f64,
        estimator: AisEstimator,
    ) -> Result<Self> {
        let mut sampler = ImportanceSampler::new(pool, estimator.alpha(), score_threshold)?;
        sampler.estimator = estimator;
        Ok(sampler)
    }

    /// The proposal for a drawn `item`: its prediction and importance
    /// weight; the stratum slot is unused (0).
    fn proposal_of(&self, pool: &ScoredPool, item: usize) -> Proposal {
        Proposal {
            item,
            stratum: 0,
            prediction: pool.prediction(item),
            weight: self.proposal.weight(pool, item),
        }
    }
}

/// Plug-in initial guess of the F-measure from `(prediction, probability)`
/// pairs, scores treated as probabilities (the same construction as paper
/// Algorithm 2, but without strata).
fn initial_f_guess(items: impl Iterator<Item = (bool, f64)>, alpha: f64) -> f64 {
    let mut tp = 0.0;
    let mut predicted = 0.0;
    let mut actual = 0.0;
    for (pred, p) in items {
        let l_hat = f64::from(u8::from(pred));
        tp += p * l_hat;
        predicted += l_hat;
        actual += p;
    }
    let denom = alpha * predicted + (1.0 - alpha) * actual;
    if denom > 0.0 {
        (tp / denom).clamp(0.0, 1.0)
    } else {
        0.5
    }
}

impl InteractiveSampler for ImportanceSampler {
    /// Draw one item from the static instrumental distribution; the
    /// importance weight is `(1/N)/q_i` and the stratum slot is unused (0).
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        let item = self.proposal.cdf.sample(rng);
        self.proposal_of(pool, item)
    }

    /// The same draws as `count` calls of [`propose`](Self::propose), from
    /// the same RNG calls, with the binary searches over the pool-sized CDF
    /// interleaved ([`CategoricalCdf::sample_many`]).
    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        self.proposal
            .cdf
            .sample_many(rng, count)
            .into_iter()
            .map(|item| self.proposal_of(pool, item))
            .collect()
    }

    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        self.estimator
            .observe(proposal.weight, proposal.prediction, label);
    }

    fn estimate(&self) -> Estimate {
        self.estimator.estimate()
    }

    fn name(&self) -> &'static str {
        "IS"
    }

    fn method(&self) -> SamplerMethod {
        SamplerMethod::Importance
    }

    fn diagnostics(&self) -> SamplerDiagnostics {
        unstratified_diagnostics(SamplerMethod::Importance, &self.estimator)
    }

    fn state(&self) -> SamplerState {
        SamplerState::Importance(ImportanceState {
            score_threshold: self.score_threshold,
            estimator: EstimatorState::capture(&self.estimator),
            tracker: None,
        })
    }

    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        match state {
            SamplerState::Importance(state) => state.rebuild(pool),
            other => Err(other.method_mismatch(SamplerMethod::Importance)),
        }
    }
}

impl Sampler for ImportanceSampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::exhaustive_measures;
    use crate::oracle::GroundTruthOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn calibrated_pool(n: usize, match_rate: f64, seed: u64) -> (ScoredPool, Vec<bool>) {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            // Draw a "probability" then the label from it → perfectly calibrated.
            let p: f64 = if rng.gen_bool(match_rate) {
                0.5 + 0.5 * rng.gen::<f64>()
            } else {
                0.35 * rng.gen::<f64>()
            };
            let is_match = rng.gen_bool(p);
            scores.push(p);
            predictions.push(p > 0.5);
            truth.push(is_match);
        }
        (ScoredPool::new(scores, predictions).unwrap(), truth)
    }

    /// Every pool item's instrumental probability, in pool order.
    fn probabilities(sampler: &ImportanceSampler, pool: &ScoredPool) -> Vec<f64> {
        (0..pool.len())
            .map(|item| sampler.probability(pool, item))
            .collect()
    }

    #[test]
    fn logistic_maps_threshold_to_half() {
        assert!((logistic(2.0, 2.0) - 0.5).abs() < 1e-12);
        assert!(logistic(10.0, 0.0) > 0.99);
        assert!(logistic(-10.0, 0.0) < 0.01);
    }

    #[test]
    fn initial_f_guess_bounds() {
        let g = initial_f_guess([(true, 0.9), (false, 0.1)].into_iter(), 0.5);
        assert!((0.0..=1.0).contains(&g));
        // No predictions and no probability mass → fallback ½.
        assert_eq!(initial_f_guess([(false, 0.0)].into_iter(), 0.5), 0.5);
    }

    #[test]
    fn rejects_bad_alpha() {
        let (pool, _) = calibrated_pool(50, 0.2, 1);
        assert!(ImportanceSampler::new(&pool, -0.1, 0.0).is_err());
        assert!(ImportanceSampler::new(&pool, 1.1, 0.0).is_err());
        assert!(ImportanceSampler::new(&pool, f64::NAN, 0.0).is_err());
    }

    #[test]
    fn proposal_is_normalised_and_favours_predicted_matches() {
        let (pool, _) = calibrated_pool(2000, 0.05, 2);
        let sampler = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        let proposal = probabilities(&sampler, &pool);
        let total: f64 = proposal.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Average proposal mass on predicted matches should exceed the uniform mass.
        let uniform = pool.uniform_mass();
        let mut match_mass = 0.0;
        let mut match_count = 0usize;
        for (i, &q) in proposal.iter().enumerate() {
            if pool.prediction(i) {
                match_mass += q;
                match_count += 1;
            }
        }
        assert!(match_count > 0);
        assert!(match_mass / match_count as f64 > uniform);
    }

    #[test]
    fn converges_to_true_f_measure_with_fewer_labels_than_passive() {
        let (pool, truth) = calibrated_pool(5000, 0.02, 3);
        let target = exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;

        // Run IS and passive with the same modest label budget; IS should land closer.
        let budget = 400;
        let repeats = 20;
        let mut is_err = 0.0;
        let mut passive_err = 0.0;
        for r in 0..repeats {
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(100 + r);
            let mut is = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
            let est = is
                .run_until_budget(&pool, &mut oracle, &mut rng, budget, 100_000)
                .unwrap();
            is_err += (est.to_measures().f_measure - target).abs();

            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(500 + r);
            let mut passive = super::super::PassiveSampler::new(0.5);
            let est = passive
                .run_until_budget(&pool, &mut oracle, &mut rng, budget, 100_000)
                .unwrap();
            passive_err += (est.to_measures().f_measure - target).abs();
        }
        assert!(
            is_err < passive_err,
            "IS mean abs err {} should beat passive {}",
            is_err / repeats as f64,
            passive_err / repeats as f64
        );
    }

    #[test]
    fn samplers_on_one_pool_share_one_proposal_per_alpha_and_threshold() {
        let (pool, _) = calibrated_pool(300, 0.1, 5);
        let a = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        let b = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        assert!(Arc::ptr_eq(&a.proposal, &b.proposal));
        // Another α, or another τ, is another proposal.
        let other_alpha = ImportanceSampler::new(&pool, 0.7, 0.5).unwrap();
        let other_tau = ImportanceSampler::new(&pool, 0.5, 0.25).unwrap();
        assert!(!Arc::ptr_eq(&a.proposal, &other_alpha.proposal));
        assert!(!Arc::ptr_eq(&a.proposal, &other_tau.proposal));
        assert_ne!(probabilities(&a, &pool), probabilities(&other_alpha, &pool));
    }

    #[test]
    fn a_proposal_lives_only_while_held() {
        let (pool, _) = calibrated_pool(300, 0.1, 6);
        let first = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        let copy = first.clone();
        let held = Arc::downgrade(&first.proposal);
        let bits: Vec<u64> = probabilities(&first, &pool)
            .iter()
            .map(|q| q.to_bits())
            .collect();
        drop(first);
        assert!(held.upgrade().is_some(), "the clone still holds it");
        drop(copy);
        assert!(
            held.upgrade().is_none(),
            "the memo holds no strong reference"
        );
        // The next build is fresh, and lands on the same bits.
        let fresh = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        assert_eq!(Arc::weak_count(&fresh.proposal), 1);
        let again: Vec<u64> = probabilities(&fresh, &pool)
            .iter()
            .map(|q| q.to_bits())
            .collect();
        assert_eq!(again, bits);
    }

    #[test]
    fn a_clone_of_the_pool_shares_the_memo() {
        let (pool, _) = calibrated_pool(300, 0.1, 7);
        let a = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        let copy = pool.clone();
        let b = ImportanceSampler::new(&copy, 0.5, 0.5).unwrap();
        assert!(Arc::ptr_eq(&a.proposal, &b.proposal));
        // Built on the clone first, shared with the original too.
        let c = ImportanceSampler::new(&copy, 0.3, 0.5).unwrap();
        let d = ImportanceSampler::new(&pool, 0.3, 0.5).unwrap();
        assert!(Arc::ptr_eq(&c.proposal, &d.proposal));
    }

    #[test]
    fn restores_on_an_empty_and_a_populated_memo_draw_the_same() {
        let (pool, truth) = calibrated_pool(400, 0.1, 8);
        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let mut sampler = ImportanceSampler::new(&pool, 0.5, 0.5).unwrap();
        sampler.run(&pool, &mut oracle, &mut rng, 60).unwrap();
        let state = sampler.state();

        // `pool` still holds the proposal; `fresh` has never built one.
        let fresh = ScoredPool::new(pool.scores().to_vec(), pool.predictions().to_vec()).unwrap();
        let run_on = |pool: &ScoredPool| {
            let mut restored = ImportanceSampler::from_state(pool, state.clone()).unwrap();
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(10);
            let estimate = restored.run(pool, &mut oracle, &mut rng, 80).unwrap();
            format!("{estimate:?} {:?}", restored.state())
        };
        let populated = run_on(&pool);
        assert!(Arc::ptr_eq(
            &sampler.proposal,
            &ImportanceSampler::from_state(&pool, state.clone())
                .unwrap()
                .proposal
        ));
        assert_eq!(run_on(&fresh), populated);
    }

    #[test]
    fn works_with_uncalibrated_scores() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(4);
        let n = 500;
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let is_match = rng.gen_bool(0.1);
            let margin: f64 = if is_match {
                rng.gen::<f64>() * 3.0
            } else {
                -rng.gen::<f64>() * 3.0
            };
            scores.push(margin);
            predictions.push(margin > 0.0);
            truth.push(is_match);
        }
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let mut oracle = GroundTruthOracle::new(truth);
        let mut sampler = ImportanceSampler::new(&pool, 0.5, 0.0).unwrap();
        let est = sampler.run(&pool, &mut oracle, &mut rng, 500).unwrap();
        assert!(est.f_measure.is_finite());
        assert!(
            est.f_measure > 0.5,
            "classifier is near-perfect, estimate {}",
            est.f_measure
        );
        assert_eq!(sampler.name(), "IS");
    }
}
