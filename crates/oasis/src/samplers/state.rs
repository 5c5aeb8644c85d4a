//! Serializable sampler state for checkpoint/resume.
//!
//! Every sampler implementing [`InteractiveSampler`](super::InteractiveSampler)
//! exposes its full resumable state through the method-tagged [`SamplerState`]
//! enum: [`OasisState`] for the adaptive sampler, and the lighter
//! [`PassiveState`] / [`ImportanceState`] / [`StratifiedState`] for the
//! baselines.  A state captures everything a sampler needs to continue a run
//! bit-for-bit; the caller's RNG is *not* part of it — samplers borrow their
//! generator — so resumable drivers (the `oasis-engine` crate) persist the
//! RNG words alongside.
//!
//! The states are plain data types; JSON conversion lives in
//! [`crate::serial`].  States may come from untrusted checkpoint documents,
//! so every `rebuild` validates before constructing (overlapping strata
//! allocations, corrupt estimator sums, mismatched row lengths are all
//! rejected rather than silently skewing later estimates).

use super::importance::ImportanceSampler;
use super::oasis_sampler::{OasisConfig, OasisSampler};
use super::passive::PassiveSampler;
use super::stratified::StratifiedSampler;
use crate::bayes::BetaBernoulliModel;
use crate::confidence::VarianceTracker;
use crate::error::{Error, Result};
use crate::estimator::AisEstimator;
use crate::pool::ScoredPool;
use crate::strata::Strata;

/// The sampling method a state (or a live sampler) belongs to.
///
/// This is the tag that makes sessions, checkpoints and the `oasis-serve`
/// wire protocol method-agnostic: everywhere a concrete sampler type used to
/// be named, a `SamplerMethod` value travels instead.  The string forms
/// (`"oasis"`, `"passive"`, `"importance"`, `"stratified"`) are the wire
/// names used by the protocol's `create_session` command and the JSON
/// encoding of [`SamplerState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerMethod {
    /// The paper's adaptive sampler ([`OasisSampler`]).
    Oasis,
    /// Uniform i.i.d. sampling ([`PassiveSampler`]).
    Passive,
    /// Static importance sampling ([`ImportanceSampler`]).
    Importance,
    /// Proportional stratified sampling ([`StratifiedSampler`]).
    Stratified,
}

impl SamplerMethod {
    /// All methods, in the order the paper compares them (Section 6.2).
    pub const ALL: [SamplerMethod; 4] = [
        SamplerMethod::Oasis,
        SamplerMethod::Passive,
        SamplerMethod::Importance,
        SamplerMethod::Stratified,
    ];

    /// The wire name (`"oasis"`, `"passive"`, `"importance"`,
    /// `"stratified"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SamplerMethod::Oasis => "oasis",
            SamplerMethod::Passive => "passive",
            SamplerMethod::Importance => "importance",
            SamplerMethod::Stratified => "stratified",
        }
    }

    /// Parse a wire name.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] naming the offending value and the
    /// accepted set, so protocol layers can surface a structured error.
    pub fn parse(name: &str) -> Result<SamplerMethod> {
        match name {
            "oasis" => Ok(SamplerMethod::Oasis),
            "passive" => Ok(SamplerMethod::Passive),
            "importance" => Ok(SamplerMethod::Importance),
            "stratified" => Ok(SamplerMethod::Stratified),
            other => Err(Error::InvalidParameter {
                name: "method",
                message: format!(
                    "unknown sampling method {other:?} (expected one of \
                     \"oasis\", \"passive\", \"importance\", \"stratified\")"
                ),
            }),
        }
    }
}

impl std::fmt::Display for SamplerMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Snapshot of an [`AisEstimator`]: the four weighted sums of Eqn. 3 plus the
/// iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// F-measure weight α.
    pub alpha: f64,
    /// Σ w·ℓ·ℓ̂ — weighted true positives.
    pub weighted_tp: f64,
    /// Σ w·ℓ̂ — weighted predicted positives.
    pub weighted_predicted: f64,
    /// Σ w·ℓ — weighted actual positives.
    pub weighted_actual: f64,
    /// Σ w — total weight.
    pub total_weight: f64,
    /// Σ w² — the weight second moment behind the ground-truth-free ESS
    /// diagnostic.  `None` for snapshots written before it was tracked; such
    /// documents restore exactly but report no ESS (never a fabricated one).
    pub weight_sq: Option<f64>,
    /// Number of observations folded in.
    pub iterations: usize,
}

impl EstimatorState {
    /// Capture an estimator's accumulated sums.
    pub fn capture(estimator: &AisEstimator) -> Self {
        let (weighted_tp, weighted_predicted, weighted_actual, total_weight) = estimator.sums();
        EstimatorState {
            alpha: estimator.alpha(),
            weighted_tp,
            weighted_predicted,
            weighted_actual,
            total_weight,
            weight_sq: estimator.weight_sq(),
            iterations: estimator.iterations(),
        }
    }

    /// Rebuild the estimator; the restored accumulator continues bit-for-bit.
    ///
    /// # Errors
    /// Propagates [`AisEstimator::from_parts`] validation (corrupt sums).
    pub fn rebuild(&self) -> Result<AisEstimator> {
        AisEstimator::from_parts(
            self.alpha,
            self.weighted_tp,
            self.weighted_predicted,
            self.weighted_actual,
            self.total_weight,
            self.weight_sq,
            self.iterations,
        )
    }
}

/// Snapshot of a [`VarianceTracker`]: the bivariate running sums behind the
/// delta-method variance estimate (see [`crate::confidence`]), plus the
/// observation count and α.
///
/// Every sampler state payload carries an *optional* tracker
/// (`tracker: Option<TrackerState>`): [`super::TrackedSampler`] attaches one
/// when it captures state, while bare samplers (and pre-tracker checkpoint
/// documents) leave it `None`.  An absent tracker restores into a
/// [`super::TrackedSampler`] whose variance history is *incomplete* — the
/// wrapper flags that instead of reporting intervals as if nothing were
/// missing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState {
    /// F-measure weight α.
    pub alpha: f64,
    /// Number of observations (stored as f64, exactly as accumulated).
    pub count: f64,
    /// Σ n_t where `n_t = w·ℓ·ℓ̂`.
    pub sum_n: f64,
    /// Σ d_t where `d_t = w·(α·ℓ̂ + (1−α)·ℓ)`.
    pub sum_d: f64,
    /// Σ n_t².
    pub sum_nn: f64,
    /// Σ d_t².
    pub sum_dd: f64,
    /// Σ n_t·d_t.
    pub sum_nd: f64,
}

impl TrackerState {
    /// Capture a tracker's accumulated sums.
    pub fn capture(tracker: &VarianceTracker) -> Self {
        let (count, sum_n, sum_d, sum_nn, sum_dd, sum_nd) = tracker.sums();
        TrackerState {
            alpha: tracker.alpha(),
            count,
            sum_n,
            sum_d,
            sum_nn,
            sum_dd,
            sum_nd,
        }
    }

    /// Rebuild the tracker; the restored accumulator continues bit-for-bit.
    ///
    /// # Errors
    /// Propagates [`VarianceTracker::from_parts`] validation (corrupt sums).
    pub fn rebuild(&self) -> Result<VarianceTracker> {
        VarianceTracker::from_parts(
            self.alpha,
            self.count,
            self.sum_n,
            self.sum_d,
            self.sum_nn,
            self.sum_dd,
            self.sum_nd,
        )
    }
}

/// Reject allocations that place one pool item in more than one slot (within
/// or across strata) — such a state would silently skew the stratum weights
/// and every later estimate.  Out-of-range indices are rejected separately by
/// [`Strata::from_allocations`].
fn validate_allocations_disjoint(pool: &ScoredPool, allocations: &[Vec<usize>]) -> Result<()> {
    let mut seen = vec![false; pool.len()];
    for stratum in allocations {
        for &item in stratum {
            if let Some(flag) = seen.get_mut(item) {
                if *flag {
                    return Err(Error::InvalidParameter {
                        name: "allocations",
                        message: format!("pool item {item} allocated to more than one slot"),
                    });
                }
                *flag = true;
            }
        }
    }
    Ok(())
}

/// Full serializable state of an [`OasisSampler`].
///
/// Produced by [`InteractiveSampler::state`](super::InteractiveSampler::state)
/// (as [`SamplerState::Oasis`]), consumed by
/// [`OasisSampler::from_state`](super::InteractiveSampler::from_state).  A
/// round trip through this type (and through its JSON form,
/// [`crate::serial`]) is exact: resuming a restored sampler with a restored
/// RNG produces the same estimates, bit-for-bit, as never having stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct OasisState {
    /// The sampler configuration.
    pub config: OasisConfig,
    /// The exact stratification: pool indices per stratum.
    pub allocations: Vec<Vec<usize>>,
    /// Prior pseudo-counts for label 1, per stratum.
    pub prior_gamma0: Vec<f64>,
    /// Prior pseudo-counts for label 0, per stratum.
    pub prior_gamma1: Vec<f64>,
    /// Observed label-1 counts per stratum.
    pub observed_matches: Vec<f64>,
    /// Observed label-0 counts per stratum.
    pub observed_non_matches: Vec<f64>,
    /// Whether prior decay (Remark 4) is enabled.
    pub decay_prior: bool,
    /// The AIS estimator accumulator.
    pub estimator: EstimatorState,
    /// The Algorithm 2 initial F-measure guess.
    pub initial_f_guess: f64,
    /// The instrumental distribution used at the most recent step.
    pub current_proposal: Vec<f64>,
    /// Whether `current_proposal` was fit after the last label, so the next
    /// draw uses it without a refit.  `false` for documents written before
    /// the flag existed: a restored sampler then refits on its first draw.
    pub proposal_current: bool,
    /// How many times the instrumental CDF had been refit when the state was
    /// captured (0 for documents written before the counter existed).
    pub cdf_rebuilds: u64,
    /// Variance-tracker sums, when captured through a
    /// [`super::TrackedSampler`]; `None` for bare samplers and pre-tracker
    /// documents.
    pub tracker: Option<TrackerState>,
}

impl OasisState {
    /// Rebuild a sampler against `pool`.
    ///
    /// The pool must be the one the state was captured against (the engine
    /// layer verifies this with a fingerprint); `Strata::from_allocations`
    /// recomputes the per-stratum summary statistics from the pool, which
    /// reproduces the original values exactly because the summation order is
    /// identical.
    ///
    /// # Errors
    /// Propagates validation failures from the config, strata and model
    /// constructors (e.g. allocations referencing items outside the pool).
    pub fn rebuild(self, pool: &ScoredPool) -> Result<OasisSampler> {
        validate_allocations_disjoint(pool, &self.allocations)?;
        let strata = Strata::from_allocations(pool, self.allocations)?;
        let model = BetaBernoulliModel::from_state(
            self.prior_gamma0,
            self.prior_gamma1,
            self.observed_matches,
            self.observed_non_matches,
            self.decay_prior,
        )?;
        OasisSampler::from_parts(
            self.config,
            strata,
            model,
            self.estimator.rebuild()?,
            self.initial_f_guess,
            self.current_proposal,
            self.proposal_current,
            self.cdf_rebuilds,
        )
    }
}

/// Full serializable state of a [`PassiveSampler`]: the estimator
/// accumulator is the whole sampler (draws are uniform, so nothing else is
/// adaptive or random beyond the caller's RNG).
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveState {
    /// The (unit-weight) estimator accumulator.
    pub estimator: EstimatorState,
    /// Variance-tracker sums, when captured through a
    /// [`super::TrackedSampler`].
    pub tracker: Option<TrackerState>,
}

impl PassiveState {
    /// Rebuild the sampler.
    ///
    /// # Errors
    /// Propagates estimator validation (corrupt sums).
    pub fn rebuild(self) -> Result<PassiveSampler> {
        Ok(PassiveSampler::from_parts(self.estimator.rebuild()?))
    }
}

/// Full serializable state of an [`ImportanceSampler`].
///
/// The static instrumental distribution is *not* embedded: it is a pure
/// deterministic function of the pool's scores, `alpha` (carried inside the
/// estimator state) and `score_threshold`, so `rebuild` recomputes it with
/// identical IEEE-754 operations and lands on identical bits.  The engine
/// layer's pool fingerprint guarantees the pool is the one the state was
/// captured against.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceState {
    /// Decision threshold τ used to squash non-probability scores.
    pub score_threshold: f64,
    /// The AIS estimator accumulator.
    pub estimator: EstimatorState,
    /// Variance-tracker sums, when captured through a
    /// [`super::TrackedSampler`].
    pub tracker: Option<TrackerState>,
}

impl ImportanceState {
    /// Rebuild the sampler against `pool` (see type docs for why the
    /// proposal is recomputed rather than stored).
    ///
    /// # Errors
    /// Propagates estimator/constructor validation.
    pub fn rebuild(self, pool: &ScoredPool) -> Result<ImportanceSampler> {
        let estimator = self.estimator.rebuild()?;
        ImportanceSampler::from_parts(pool, self.score_threshold, estimator)
    }
}

/// Full serializable state of a [`StratifiedSampler`]: the exact
/// stratification plus the per-stratum tallies of the stratified estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedState {
    /// F-measure weight α.
    pub alpha: f64,
    /// The exact stratification: pool indices per stratum.
    pub allocations: Vec<Vec<usize>>,
    /// Labelled draw counts per stratum.
    pub samples: Vec<f64>,
    /// Σ ℓ·ℓ̂ per stratum.
    pub true_positives: Vec<f64>,
    /// Σ ℓ per stratum.
    pub actual_positives: Vec<f64>,
    /// Total sampling iterations folded in.
    pub iterations: usize,
    /// Variance-tracker sums, when captured through a
    /// [`super::TrackedSampler`].
    pub tracker: Option<TrackerState>,
}

impl StratifiedState {
    /// Rebuild the sampler against `pool`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on overlapping allocations, tally rows
    /// that do not cover the strata, or corrupt (non-finite, negative, or
    /// inconsistent) tally values.
    pub fn rebuild(self, pool: &ScoredPool) -> Result<StratifiedSampler> {
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha.is_nan() {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in [0, 1], got {}", self.alpha),
            });
        }
        validate_allocations_disjoint(pool, &self.allocations)?;
        let strata = Strata::from_allocations(pool, self.allocations)?;
        let k = strata.len();
        if self.samples.len() != k
            || self.true_positives.len() != k
            || self.actual_positives.len() != k
        {
            return Err(Error::InvalidParameter {
                name: "tallies",
                message: format!(
                    "tally rows must cover all {k} strata (got {}, {}, {})",
                    self.samples.len(),
                    self.true_positives.len(),
                    self.actual_positives.len()
                ),
            });
        }
        for ((&n, &tp), &actual) in self
            .samples
            .iter()
            .zip(self.true_positives.iter())
            .zip(self.actual_positives.iter())
        {
            // tp counts ℓ·ℓ̂ and actual counts ℓ over the same draws, so
            // 0 ≤ tp ≤ actual ≤ samples for any genuine tally.
            let sane = n.is_finite()
                && tp.is_finite()
                && actual.is_finite()
                && n >= 0.0
                && (0.0..=n).contains(&actual)
                && (0.0..=actual).contains(&tp);
            if !sane {
                return Err(Error::InvalidParameter {
                    name: "tallies",
                    message: format!(
                        "corrupt stratum tally (samples {n}, true positives {tp}, \
                         actual positives {actual})"
                    ),
                });
            }
        }
        StratifiedSampler::from_parts(
            strata,
            self.alpha,
            self.samples,
            self.true_positives,
            self.actual_positives,
            self.iterations,
        )
    }
}

/// Full serializable state of a [`ShardedSampler`](super::ShardedSampler):
/// the inner method tag, one [`SamplerState`] per shard (in shard order), and
/// the per-shard RNG streams.
///
/// Unlike the flat sampler states, the sharded sampler *owns* its per-shard
/// generators (the caller's RNG only selects shards), so those streams are
/// part of the resumable state: `shard_rngs[i]` holds the four
/// [`rand::rngs::StdRng`] state words of shard `i`.  The shard partition
/// itself is not stored — it is the canonical contiguous split of the pool
/// into `shards.len()` pieces, recomputed exactly on rebuild.
///
/// The rebuild path lives next to the sampler, in
/// [`ShardedSampler`](super::ShardedSampler); this type is plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedState {
    /// The method every shard runs (shards are homogeneous).
    pub method: SamplerMethod,
    /// Per-shard RNG state words, in shard order.
    pub shard_rngs: Vec<[u64; 4]>,
    /// Per-shard sampler states, in shard order.  Each is a flat (non-sharded)
    /// state; inner trackers are unused — the session-level tracker rides in
    /// `tracker` below.
    pub shards: Vec<SamplerState>,
    /// Variance-tracker sums, when captured through a
    /// [`super::TrackedSampler`].
    pub tracker: Option<TrackerState>,
}

/// Method-tagged serializable sampler state — the type that makes sessions,
/// checkpoints and the wire protocol method-agnostic.
///
/// Produced by [`InteractiveSampler::state`](super::InteractiveSampler::state),
/// consumed by [`InteractiveSampler::from_state`](super::InteractiveSampler::from_state)
/// (which rejects a variant for the wrong sampler) or by
/// [`AnySampler`](super::AnySampler)'s `from_state` (which dispatches
/// on the tag).  The JSON encoding carries the tag as a `"method"` field;
/// documents without one predate the tagged form and are read as OASIS states
/// for backward compatibility.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerState {
    /// State of an [`OasisSampler`].
    Oasis(OasisState),
    /// State of a [`PassiveSampler`].
    Passive(PassiveState),
    /// State of an [`ImportanceSampler`].
    Importance(ImportanceState),
    /// State of a [`StratifiedSampler`].
    Stratified(StratifiedState),
    /// State of a [`ShardedSampler`](super::ShardedSampler) — a vector of
    /// per-shard states plus per-shard RNG streams.
    Sharded(ShardedState),
}

impl SamplerState {
    /// The method tag.
    ///
    /// A sharded state reports the method its *shards* run — sharding is an
    /// execution topology, not a sampling method, so sessions and the wire
    /// protocol keep echoing `"oasis"` (or whichever) for sharded runs.
    /// Restore paths that need to distinguish the topology match on the
    /// [`SamplerState::Sharded`] variant itself.
    pub fn method(&self) -> SamplerMethod {
        match self {
            SamplerState::Oasis(_) => SamplerMethod::Oasis,
            SamplerState::Passive(_) => SamplerMethod::Passive,
            SamplerState::Importance(_) => SamplerMethod::Importance,
            SamplerState::Stratified(_) => SamplerMethod::Stratified,
            SamplerState::Sharded(s) => s.method,
        }
    }

    /// The F-measure weight α the state's estimator targets.
    pub fn alpha(&self) -> f64 {
        match self {
            SamplerState::Oasis(s) => s.estimator.alpha,
            SamplerState::Passive(s) => s.estimator.alpha,
            SamplerState::Importance(s) => s.estimator.alpha,
            SamplerState::Stratified(s) => s.alpha,
            SamplerState::Sharded(s) => s.shards.first().map_or(f64::NAN, SamplerState::alpha),
        }
    }

    /// Observations the estimator has folded in — used to tell "no tracker
    /// because nothing happened yet" from "no tracker because the document
    /// predates tracker serialization".
    pub fn iterations(&self) -> usize {
        match self {
            SamplerState::Oasis(s) => s.estimator.iterations,
            SamplerState::Passive(s) => s.estimator.iterations,
            SamplerState::Importance(s) => s.estimator.iterations,
            SamplerState::Stratified(s) => s.iterations,
            SamplerState::Sharded(s) => s.shards.iter().map(SamplerState::iterations).sum(),
        }
    }

    /// The variance-tracker snapshot, if one was captured.
    pub fn tracker(&self) -> Option<&TrackerState> {
        match self {
            SamplerState::Oasis(s) => s.tracker.as_ref(),
            SamplerState::Passive(s) => s.tracker.as_ref(),
            SamplerState::Importance(s) => s.tracker.as_ref(),
            SamplerState::Stratified(s) => s.tracker.as_ref(),
            SamplerState::Sharded(s) => s.tracker.as_ref(),
        }
    }

    /// Attach (or clear) the variance-tracker snapshot.
    pub fn set_tracker(&mut self, tracker: Option<TrackerState>) {
        match self {
            SamplerState::Oasis(s) => s.tracker = tracker,
            SamplerState::Passive(s) => s.tracker = tracker,
            SamplerState::Importance(s) => s.tracker = tracker,
            SamplerState::Stratified(s) => s.tracker = tracker,
            SamplerState::Sharded(s) => s.tracker = tracker,
        }
    }

    /// How the state describes itself in mismatch errors: the method tag,
    /// with the sharded topology spelled out.
    fn tag_description(&self) -> String {
        match self {
            SamplerState::Sharded(s) => format!("sharded {:?}", s.method.as_str()),
            other => format!("{:?}", other.method().as_str()),
        }
    }

    /// The error every `from_state` raises when handed a state whose tag
    /// names a different method.
    pub(super) fn method_mismatch(&self, expected: SamplerMethod) -> Error {
        Error::InvalidParameter {
            name: "state",
            message: format!(
                "state is tagged {} but the sampler is {:?}",
                self.tag_description(),
                expected.as_str()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::samplers::{InteractiveSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_and_truth(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
        crate::test_fixtures::pool_and_truth(n, seed, 0.08)
    }

    #[test]
    fn method_names_round_trip() {
        for method in SamplerMethod::ALL {
            assert_eq!(SamplerMethod::parse(method.as_str()).unwrap(), method);
            assert_eq!(format!("{method}"), method.as_str());
        }
        assert!(SamplerMethod::parse("bogus").is_err());
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let (pool, truth) = pool_and_truth(1500, 4);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(12)).unwrap();
        for _ in 0..200 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        let state = sampler.state();
        assert_eq!(state.method(), SamplerMethod::Oasis);
        let restored = OasisSampler::from_state(&pool, state.clone()).unwrap();

        // The restored sampler is indistinguishable: same estimate bits, same
        // posterior, same proposal.
        let a = sampler.estimate();
        let b = restored.estimate();
        assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits());
        assert_eq!(a.precision.to_bits(), b.precision.to_bits());
        assert_eq!(a.recall.to_bits(), b.recall.to_bits());
        assert_eq!(sampler.pi_estimates(), restored.pi_estimates());
        assert_eq!(sampler.current_proposal(), restored.current_proposal());
        assert_eq!(sampler.compute_proposal(), restored.compute_proposal());

        // Continuing both sides with the same RNG stays identical.
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut oracle_a = GroundTruthOracle::new(vec![true; pool.len()]);
        let mut oracle_b = GroundTruthOracle::new(vec![true; pool.len()]);
        let mut sampler_b = restored;
        let mut sampler_a = sampler;
        for _ in 0..100 {
            let oa = sampler_a.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
            let ob = sampler_b.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
            assert_eq!(oa.item, ob.item);
            assert_eq!(oa.weight.to_bits(), ob.weight.to_bits());
        }
    }

    #[test]
    fn restore_refits_only_where_the_captured_sampler_would_have() {
        let (pool, truth) = pool_and_truth(400, 13);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(8);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(6)).unwrap();
        for _ in 0..20 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        // A label leaves the proposal stale; a propose leaves it current.
        for propose_first in [false, true] {
            let mut live = sampler.clone();
            if propose_first {
                live.propose(&pool, &mut rng);
            }
            let mut restored = OasisSampler::from_state(&pool, live.state()).unwrap();
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let a = live.propose(&pool, &mut rng_a);
            let b = restored.propose(&pool, &mut rng_b);
            assert_eq!(a.item, b.item);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(
                live.cdf_rebuilds(),
                restored.cdf_rebuilds(),
                "{propose_first}"
            );
            assert_eq!(live.state(), restored.state(), "{propose_first}");
        }

        // A current proposal is drawn from as is, so it must be one.
        let mut stale = oasis_state(&sampler);
        sampler.propose(&pool, &mut rng);
        let mut current = oasis_state(&sampler);
        assert!(current.proposal_current && !stale.proposal_current);
        current.current_proposal[0] = f64::NAN;
        assert!(current.rebuild(&pool).is_err());
        stale.current_proposal[0] = f64::NAN;
        assert!(stale.rebuild(&pool).is_ok(), "a stale proposal is refit");
    }

    #[test]
    fn propose_batch_matches_repeated_propose_bitwise() {
        let (pool, _) = pool_and_truth(600, 8);
        let mut a = OasisSampler::new(&pool, OasisConfig::default().with_strata_count(8)).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(55);
        let mut rng_b = StdRng::seed_from_u64(55);
        let batch = a.propose_batch(&pool, &mut rng_a, 20);
        let singles: Vec<_> = (0..20).map(|_| b.propose(&pool, &mut rng_b)).collect();
        assert_eq!(batch.len(), 20);
        for (x, y) in batch.iter().zip(singles.iter()) {
            assert_eq!(x.item, y.item);
            assert_eq!(x.stratum, y.stratum);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        assert_eq!(a.current_proposal(), b.current_proposal());
        assert!(a.propose_batch(&pool, &mut rng_a, 0).is_empty());
    }

    fn oasis_state(sampler: &OasisSampler) -> OasisState {
        match sampler.state() {
            SamplerState::Oasis(state) => state,
            other => panic!("unexpected tag {:?}", other.method()),
        }
    }

    #[test]
    fn rebuild_rejects_overlapping_allocations() {
        let (pool, _) = pool_and_truth(50, 9);
        let sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(4)).unwrap();
        // Duplicate within one stratum.
        let mut state = oasis_state(&sampler);
        let item = state.allocations[0][0];
        state.allocations[0].push(item);
        assert!(state.rebuild(&pool).is_err());
        // Duplicate across strata.
        let mut state = oasis_state(&sampler);
        let item = state.allocations[0][0];
        state.allocations[1].push(item);
        assert!(state.rebuild(&pool).is_err());
    }

    #[test]
    fn rebuild_rejects_allocations_outside_the_pool() {
        let (pool, _) = pool_and_truth(50, 6);
        let sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(4)).unwrap();
        let mut state = oasis_state(&sampler);
        state.allocations[0].push(10_000);
        assert!(state.rebuild(&pool).is_err());
    }

    #[test]
    fn rebuild_rejects_corrupt_model_rows() {
        let (pool, _) = pool_and_truth(50, 7);
        let sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(4)).unwrap();
        let mut state = oasis_state(&sampler);
        state.observed_matches.pop();
        assert!(state.rebuild(&pool).is_err());
    }

    #[test]
    fn from_state_rejects_mismatched_tags() {
        let (pool, _) = pool_and_truth(60, 11);
        let passive = PassiveSampler::new(0.5);
        let state = passive.state();
        assert!(OasisSampler::from_state(&pool, state.clone()).is_err());
        assert!(ImportanceSampler::from_state(&pool, state.clone()).is_err());
        assert!(StratifiedSampler::from_state(&pool, state).is_err());
    }

    #[test]
    fn stratified_rebuild_rejects_corrupt_tallies() {
        let (pool, truth) = pool_and_truth(200, 12);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = StratifiedSampler::new(&pool, 0.5, 6).unwrap();
        for _ in 0..40 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        let good = match sampler.state() {
            SamplerState::Stratified(state) => state,
            other => panic!("unexpected tag {:?}", other.method()),
        };
        assert!(good.clone().rebuild(&pool).is_ok());

        let mut short = good.clone();
        short.samples.pop();
        assert!(short.rebuild(&pool).is_err());

        // Tallies claiming more positives than draws are impossible.
        let mut inflated = good.clone();
        inflated.true_positives[0] = inflated.samples[0] + 1.0;
        assert!(inflated.rebuild(&pool).is_err());

        // As are more true positives than actual positives (tp counts ℓ·ℓ̂,
        // actual counts ℓ) — that tally would restore into recall > 1.
        let mut impossible = good.clone();
        impossible.samples[0] = 10.0;
        impossible.true_positives[0] = 10.0;
        impossible.actual_positives[0] = 1.0;
        assert!(impossible.rebuild(&pool).is_err());

        for corrupt in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = good.clone();
            bad.samples[0] = corrupt;
            assert!(bad.rebuild(&pool).is_err(), "samples {corrupt}");
        }

        // Alpha outside [0, 1] must be rejected like every other method's
        // restore path does.
        for corrupt in [f64::NAN, -0.1, 1.5] {
            let mut bad = good.clone();
            bad.alpha = corrupt;
            assert!(bad.rebuild(&pool).is_err(), "alpha {corrupt}");
        }
    }
}
