//! Label-efficient samplers for ER evaluation.
//!
//! All samplers implement two layered traits:
//!
//! * [`InteractiveSampler`] — the propose/apply-label *state machine*.  A
//!   driver asks for a [`Proposal`] (or a batch), hands it to whatever
//!   produces labels (an in-process oracle, a human annotation queue, a
//!   remote `oasis-serve` client), and feeds each label back through
//!   [`apply_label`](InteractiveSampler::apply_label).  Every sampler —
//!   adaptive or not — speaks this interface, which is what lets sessions,
//!   checkpoints and the wire protocol stay method-agnostic.
//! * [`Sampler`] — the classic in-process loop.  Its
//!   [`step`](Sampler::step) is a *provided* method that runs the state
//!   machine without suspension (propose → query the oracle → apply), so the
//!   two code paths cannot drift apart: with the same seed, a propose/apply
//!   driver and a `step` loop produce bit-identical draws and estimates.
//!
//! # The interactive state-machine contract
//!
//! * **Proposals are self-contained.**  A [`Proposal`] locks in the item,
//!   the prediction and the importance weight at proposal time; the weight
//!   depends only on the instrumental distribution used for the draw, never
//!   on the eventual label.
//! * **Pending proposals do not constrain new ones.**  Any number of
//!   proposals may be outstanding; consecutive proposals without intervening
//!   labels draw from the same (frozen) distribution, because a sampler only
//!   adapts on [`apply_label`](InteractiveSampler::apply_label).  This is
//!   what makes batched annotation sound, and what
//!   [`propose_batch`](InteractiveSampler::propose_batch) exploits to pay
//!   any per-refresh cost once per batch.
//! * **Labels may arrive late, batched, or out of order.**  Applying the
//!   same set of (proposal, label) pairs in a different order may reach a
//!   different (equally valid) posterior for adaptive samplers, so drivers
//!   that need bit-reproducibility apply labels in ascending proposal order
//!   — the `oasis-engine` session layer does exactly that.
//! * **Draws are with replacement.**  The same item may be proposed many
//!   times; the *label budget* (distinct items labelled, paper footnote 5)
//!   is tracked by the oracle or the driving session, not the sampler.
//!
//! Implemented samplers, matching the paper's experimental comparison
//! (Section 6.2):
//!
//! | Sampler | Method tag | Proposal | Estimator | Adaptive |
//! |---|---|---|---|---|
//! | [`PassiveSampler`] | `passive` | uniform over the pool | plain F-measure (Eqn. 1) | no |
//! | [`StratifiedSampler`] | `stratified` | proportional to stratum size | stratified F-measure | no |
//! | [`ImportanceSampler`] | `importance` | static pointwise optimal (scores as probabilities) | AIS (Eqn. 3) | no |
//! | [`OasisSampler`] | `oasis` | ε-greedy stratified optimal, refit each iteration | AIS (Eqn. 3) | yes |
//!
//! [`AnySampler`] dispatches over the concrete types behind one value, and
//! the method-tagged [`SamplerState`] serializes any of them for
//! exact-resume checkpointing.
//!
//! On top of the concrete methods sits the sharding layer ([`ShardedPool`] /
//! [`ShardedSampler`]): a partition of the pool into K contiguous shards,
//! one inner sampler per shard, exposed as a single `InteractiveSampler`
//! whose estimate is the *exact* merged AIS estimate.  Shard selection runs
//! on an incremental [`FenwickTree`] so the per-label proposal cost is
//! O(log K) instead of an O(N) CDF rebuild.

mod any;
mod fenwick;
mod importance;
mod oasis_sampler;
mod passive;
mod sharding;
mod state;
mod stratified;

pub use any::AnySampler;
pub use fenwick::FenwickTree;
pub use importance::ImportanceSampler;
pub use oasis_sampler::{OasisConfig, OasisSampler, Proposal, StratifierChoice};
pub use passive::PassiveSampler;
pub use sharding::{ShardedPool, ShardedSampler};
pub use state::{
    EstimatorState, ImportanceState, OasisState, PassiveState, SamplerMethod, SamplerState,
    ShardedState, StratifiedState, TrackerState,
};
pub use stratified::StratifiedSampler;

use crate::error::Result;
use crate::estimator::{AisEstimator, Estimate};
use crate::oracle::Oracle;
use crate::pool::ScoredPool;
use rand::Rng;

/// Diagnostics for an unstratified, AIS-estimated sampler: a single stratum
/// holds every label and all the instrumental mass, and weight health comes
/// straight off the estimator.  Shared by [`PassiveSampler`] and
/// [`ImportanceSampler`].
pub(crate) fn unstratified_diagnostics(
    method: SamplerMethod,
    estimator: &AisEstimator,
) -> SamplerDiagnostics {
    SamplerDiagnostics {
        method,
        iterations: estimator.iterations(),
        effective_sample_size: estimator.effective_sample_size(),
        normalized_weight_variance: estimator.normalized_weight_variance(),
        stratum_labels: vec![estimator.iterations() as f64],
        instrumental: vec![1.0],
        cdf_rebuilds: 0,
    }
}

/// Ground-truth-free diagnostics of a sampler run, reportable live from any
/// method — unlike the oracle-referenced tools in [`crate::diagnostics`],
/// nothing here needs the hidden truth, so a serving layer can export these
/// for dashboards while labels are still being collected.
///
/// Captured by [`InteractiveSampler::diagnostics`] for every sampler, so
/// drivers (sessions, the wire protocol) stay method-agnostic: static
/// samplers report degenerate-but-honest values (unit-weight ESS equals the
/// iteration count; unstratified samplers report a single stratum holding
/// all mass) rather than being excluded.
///
/// All values are pure functions of the sampler's serialized state, so
/// diagnostics are bit-stable across a checkpoint/restore round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerDiagnostics {
    /// The reporting sampler's method tag.
    pub method: SamplerMethod,
    /// Sampling iterations folded into the estimator (label applications,
    /// not distinct items).
    pub iterations: usize,
    /// Kish effective sample size of the importance weights,
    /// `(Σw)²/Σw²` — the Delyon & Portier-style convergence proxy.  In
    /// `(0, iterations]` once a label has been applied; `None` before any
    /// observation or when the weight history predates its tracking.
    pub effective_sample_size: Option<f64>,
    /// Normalized weight variance `Var(w)/mean(w)²` (zero under unit
    /// weights); `None` exactly when `effective_sample_size` is.
    pub normalized_weight_variance: Option<f64>,
    /// Labels applied per stratum so far (one entry per stratum; a single
    /// entry holding every label for unstratified samplers).
    pub stratum_labels: Vec<f64>,
    /// The *current* instrumental distribution over the same strata — what
    /// the sampler would draw from next.  Comparing against the label
    /// allocation shows how far the realized allocation lags the adaptive
    /// target.
    pub instrumental: Vec<f64>,
    /// How many times an instrumental-distribution CDF has been refit
    /// (OASIS's cache-miss count; 0 forever for static methods).
    pub cdf_rebuilds: u64,
}

/// The record of a single sampling iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Index of the sampled pool item.
    pub item: usize,
    /// The ER system's predicted label for the item.
    pub prediction: bool,
    /// The oracle's label for the item.
    pub label: bool,
    /// The importance weight applied to the observation (1 for unbiased
    /// samplers).
    pub weight: f64,
}

/// The propose/apply-label state machine every sampler exposes.
///
/// See the [module docs](self) for the full contract.  Implementors only
/// provide the two halves of an iteration ([`propose`](Self::propose) and
/// [`apply_label`](Self::apply_label)) plus estimate/state plumbing; the
/// batch forms have defaults that are bit-identical to repeated single
/// calls, and [`Sampler::step`] rides on the two halves.
pub trait InteractiveSampler {
    /// The first half of an iteration: draw one item from the sampler's
    /// current instrumental distribution and lock in its importance weight.
    /// The sampler then waits (conceptually) for
    /// [`apply_label`](Self::apply_label); no oracle is consulted.
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal;

    /// Draw `count` proposals.  Because no labels can intervene inside the
    /// batch, the instrumental distribution is identical for every draw, so
    /// this produces the same proposals (bit-for-bit, same RNG stream) as
    /// calling [`propose`](Self::propose) `count` times; adaptive samplers
    /// override it to pay their per-refresh cost once per batch.
    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        (0..count).map(|_| self.propose(pool, rng)).collect()
    }

    /// The second half of an iteration: fold an oracle label for a pending
    /// [`Proposal`] into the estimator (and, for adaptive samplers, the
    /// model the next proposal is computed from).
    fn apply_label(&mut self, proposal: &Proposal, label: bool);

    /// Apply a batch of labels in order.  Equivalent to calling
    /// [`apply_label`](Self::apply_label) once per pair; provided so batch
    /// oracle responses (crowd pushes, engine `label` commands) have a
    /// single entry point.
    fn apply_labels<'a, I>(&mut self, labelled: I)
    where
        I: IntoIterator<Item = (&'a Proposal, bool)>,
    {
        for (proposal, label) in labelled {
            self.apply_label(proposal, label);
        }
    }

    /// The current estimate of the evaluation measures.
    fn estimate(&self) -> Estimate;

    /// A short human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// The method tag (used by sessions, checkpoints and the wire protocol).
    fn method(&self) -> SamplerMethod;

    /// Number of strata the sampler's proposals index into — `1` for
    /// unstratified samplers, whose proposals always carry stratum `0`.
    /// Drivers use this to validate untrusted pending proposals.
    fn strata_len(&self) -> usize {
        1
    }

    /// Ground-truth-free diagnostics of the run so far (see
    /// [`SamplerDiagnostics`]).  Every method reports: adaptive samplers
    /// expose their live instrumental distribution and weight health,
    /// static ones their degenerate equivalents — so drivers never need to
    /// downcast to a concrete sampler type.
    fn diagnostics(&self) -> SamplerDiagnostics;

    /// The *current* instrumental distribution over the sampler's strata —
    /// what the next proposal would draw from.  Method-agnostic (every
    /// sampler has one: OASIS its ε-greedy adaptive proposal, stratified the
    /// static stratum weights, unstratified samplers a single entry holding
    /// all mass), so merged/sharded diagnostics never special-case a
    /// concrete sampler type.  Defaults to the diagnostics' instrumental
    /// vector.
    fn instrumental_snapshot(&self) -> Vec<f64> {
        self.diagnostics().instrumental
    }

    /// A scalar summary of how much un-normalised proposal mass the sampler
    /// currently "wants" — the normalising constant of its instrumental
    /// distribution before mixing/normalisation.  A sharded driver
    /// multiplies this by the shard's pool weight to steer shard selection;
    /// any positive value keeps the merged estimator unbiased (the shard
    /// weight is divided back out), so static samplers simply report the
    /// neutral `1.0`.  Must be a pure function of the serialized state and
    /// strictly positive and finite.
    fn proposal_mass(&self) -> f64 {
        1.0
    }

    /// Capture the full serializable state of the sampler for
    /// checkpointing, tagged with its method.
    fn state(&self) -> SamplerState;

    /// Rebuild a sampler from a captured [`SamplerState`] against the pool
    /// it was captured on.  Exact-resume: the restored sampler continues
    /// bit-for-bit.
    ///
    /// # Errors
    /// A state tagged for a different method, or any validation failure
    /// while reconstructing (allocations outside the pool, corrupt
    /// estimator sums, …).
    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self>
    where
        Self: Sized;
}

/// A sequential sampler that spends oracle labels to estimate the F-measure.
///
/// `Sampler` extends [`InteractiveSampler`] with the classic in-process
/// driving loops; [`step`](Self::step) is a provided method running the
/// state machine without suspension, so implementors typically write only
/// `impl Sampler for X {}`.
pub trait Sampler: InteractiveSampler {
    /// Perform one sampling iteration: choose an item, query the oracle, and
    /// update the estimate.  This is exactly
    /// [`propose`](InteractiveSampler::propose) → [`Oracle::query`] →
    /// [`apply_label`](InteractiveSampler::apply_label), so a `step` loop
    /// and a suspend/resume driver with the same seed are bit-identical.
    fn step<O: Oracle, R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        oracle: &mut O,
        rng: &mut R,
    ) -> Result<StepOutcome> {
        let proposal = self.propose(pool, rng);
        let label = oracle.query(proposal.item, rng)?;
        self.apply_label(&proposal, label);
        Ok(StepOutcome {
            item: proposal.item,
            prediction: proposal.prediction,
            label,
            weight: proposal.weight,
        })
    }

    /// Run `iterations` steps, returning the final estimate.
    fn run<O: Oracle, R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        oracle: &mut O,
        rng: &mut R,
        iterations: usize,
    ) -> Result<Estimate> {
        for _ in 0..iterations {
            self.step(pool, oracle, rng)?;
        }
        Ok(self.estimate())
    }

    /// Run steps until the oracle has consumed `label_budget` labels (or
    /// `max_iterations` steps have elapsed, whichever comes first), returning
    /// the final estimate.  Because draws are with replacement, several
    /// iterations may be needed per consumed label.
    fn run_until_budget<O: Oracle, R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        oracle: &mut O,
        rng: &mut R,
        label_budget: usize,
        max_iterations: usize,
    ) -> Result<Estimate> {
        let mut iterations = 0usize;
        while oracle.labels_consumed() < label_budget && iterations < max_iterations {
            self.step(pool, oracle, rng)?;
            iterations += 1;
        }
        Ok(self.estimate())
    }
}

/// A wrapper that runs any sampler while also feeding a
/// [`VarianceTracker`](crate::confidence::VarianceTracker), so callers get
/// standard errors and confidence intervals alongside the point estimate.
///
/// The tracker observes every applied label, so the wrapper works through
/// both driving styles (`step` loops and propose/apply drivers).  Its
/// [`state`](InteractiveSampler::state) is the inner sampler's with the
/// tracker's running sums attached ([`TrackerState`]),
/// so a restored `TrackedSampler` resumes both the estimate *and* its
/// variance accumulation bit-for-bit — the confidence interval after
/// checkpoint → restore → continue is identical to an uninterrupted run.
///
/// Documents written before tracker serialization carry no tracker state
/// (`tracker: null`).  Restoring one starts a fresh tracker and marks it
/// *incomplete* ([`TrackedSampler::tracker_complete`] returns `false`):
/// [`TrackedSampler::confidence_interval`] then returns `None` rather than
/// reporting an interval computed from a silently truncated history.
///
/// ```
/// use oasis::{GroundTruthOracle, OasisConfig, OasisSampler, Sampler, ScoredPool, TrackedSampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pool = ScoredPool::new(vec![0.9, 0.8, 0.1, 0.05], vec![true, true, false, false]).unwrap();
/// let mut oracle = GroundTruthOracle::new(vec![true, false, false, false]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let inner = OasisSampler::new(&pool, OasisConfig::default().with_strata_count(2)).unwrap();
/// let mut sampler = TrackedSampler::new(inner, 0.5);
/// for _ in 0..20 {
///     sampler.step(&pool, &mut oracle, &mut rng).unwrap();
/// }
/// let interval = sampler.confidence_interval(0.95).unwrap();
/// assert!(interval.lower <= interval.estimate && interval.estimate <= interval.upper);
/// ```
#[derive(Debug, Clone)]
pub struct TrackedSampler<S> {
    inner: S,
    tracker: crate::confidence::VarianceTracker,
    /// Whether the tracker has observed *every* label the inner estimator
    /// folded in.  `false` only after restoring a state with no tracker
    /// snapshot (a pre-tracker-serialization document).
    tracker_complete: bool,
}

impl<S: InteractiveSampler> TrackedSampler<S> {
    /// Wrap a sampler, tracking variance for the α-weighted F-measure.
    pub fn new(inner: S, alpha: f64) -> Self {
        TrackedSampler {
            inner,
            tracker: crate::confidence::VarianceTracker::new(alpha),
            tracker_complete: true,
        }
    }

    /// The wrapped sampler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The variance tracker accumulated so far.
    pub fn tracker(&self) -> &crate::confidence::VarianceTracker {
        &self.tracker
    }

    /// Whether the variance history covers the whole run.  `false` after
    /// restoring a document that carried no tracker snapshot; such a
    /// tracker only covers the labels applied since the restore, so its
    /// intervals would be misleading and are suppressed.
    pub fn tracker_complete(&self) -> bool {
        self.tracker_complete
    }

    /// A normal-approximation confidence interval at the given level, or
    /// `None` while the estimate is undefined — or while the variance
    /// history is incomplete (see [`TrackedSampler::tracker_complete`]).
    pub fn confidence_interval(&self, level: f64) -> Option<crate::confidence::ConfidenceInterval> {
        if !self.tracker_complete {
            return None;
        }
        self.tracker.confidence_interval(level)
    }
}

impl<S: InteractiveSampler> InteractiveSampler for TrackedSampler<S> {
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        self.inner.propose(pool, rng)
    }

    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        self.inner.propose_batch(pool, rng, count)
    }

    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        self.inner.apply_label(proposal, label);
        self.tracker
            .observe(proposal.weight, proposal.prediction, label);
    }

    fn estimate(&self) -> Estimate {
        self.inner.estimate()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn method(&self) -> SamplerMethod {
        self.inner.method()
    }

    fn strata_len(&self) -> usize {
        self.inner.strata_len()
    }

    fn diagnostics(&self) -> SamplerDiagnostics {
        self.inner.diagnostics()
    }

    fn instrumental_snapshot(&self) -> Vec<f64> {
        self.inner.instrumental_snapshot()
    }

    fn proposal_mass(&self) -> f64 {
        self.inner.proposal_mass()
    }

    fn state(&self) -> SamplerState {
        let mut state = self.inner.state();
        // An incomplete tracker is not serialized: restoring it as if it
        // covered the run would launder a truncated variance history into a
        // trusted one.  Writing `None` keeps the absence explicit end to end.
        state.set_tracker(if self.tracker_complete {
            Some(state::TrackerState::capture(&self.tracker))
        } else {
            None
        });
        state
    }

    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        let alpha = state.alpha();
        let tracker_state = state.tracker().cloned();
        // A document with no tracker *and* no observations is trivially
        // complete — nothing has happened that the tracker could have missed.
        let trivially_complete = state.iterations() == 0;
        let inner = S::from_state(pool, state)?;
        Ok(match tracker_state {
            Some(snapshot) => TrackedSampler {
                inner,
                tracker: snapshot.rebuild()?,
                tracker_complete: true,
            },
            None => TrackedSampler {
                inner,
                tracker: crate::confidence::VarianceTracker::new(alpha),
                tracker_complete: trivially_complete,
            },
        })
    }
}

impl<S: InteractiveSampler> Sampler for TrackedSampler<S> {}

/// Write the running cumulative sums of `probabilities` into `cumulative`
/// (cleared first), reusing its capacity.  Shared by the one-shot sampler,
/// [`CategoricalCdf`] and the adaptive samplers' scratch buffers.
pub(crate) fn fill_cumulative(probabilities: &[f64], cumulative: &mut Vec<f64>) {
    cumulative.clear();
    cumulative.reserve(probabilities.len());
    let mut running = 0.0;
    for &p in probabilities {
        running += p;
        cumulative.push(running);
    }
}

/// Draw an index from a categorical distribution given by `probabilities`
/// (assumed non-negative; they need not be exactly normalised).  Uses a single
/// uniform variate and O(log K) binary search over the cumulative weights.
///
/// The original implementation subtracted weights in a linear scan (the cost
/// profile of `numpy.random.choice(p=...)` used by the paper's reference
/// implementation).  This one-shot form still pays an O(K) cumulative-sum
/// construction per draw; samplers on hot paths avoid that by caching the
/// sums — [`CategoricalCdf`] for static distributions, a reusable scratch
/// buffer inside [`OasisSampler`] for the adaptive one.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, probabilities: &[f64]) -> usize {
    debug_assert!(!probabilities.is_empty());
    let mut cumulative = Vec::new();
    fill_cumulative(probabilities, &mut cumulative);
    sample_from_cumulative(rng, &cumulative)
}

/// Draw an index given the *cumulative* weights `cumulative[i] = p_0 + … + p_i`
/// (left-to-right partial sums).  Shared by [`sample_categorical`] and
/// [`CategoricalCdf`].
pub fn sample_from_cumulative<R: Rng + ?Sized>(rng: &mut R, cumulative: &[f64]) -> usize {
    debug_assert!(!cumulative.is_empty());
    let total = *cumulative.last().unwrap();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate distribution: fall back to uniform.
        return rng.gen_range(0..cumulative.len());
    }
    let target = rng.gen::<f64>() * total;
    // First index whose cumulative weight reaches the target.  `partition_point`
    // is a binary search: all entries `< target` precede all entries `>= target`
    // because the cumulative sums are non-decreasing.
    let index = cumulative.partition_point(|&c| c < target);
    index.min(cumulative.len() - 1)
}

/// A categorical distribution with precomputed cumulative weights, for
/// repeated O(log K) draws from the same (frozen) distribution.
///
/// This is what makes the binary-search representation pay off: the static
/// samplers ([`ImportanceSampler`] over all N pool items,
/// [`StratifiedSampler`] over stratum weights) build their CDF once at
/// construction and every subsequent draw is logarithmic, where the original
/// subtractive scan paid O(N) (resp. O(K)) per draw.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalCdf {
    cumulative: Vec<f64>,
}

impl CategoricalCdf {
    /// Precompute the cumulative weights of `probabilities` (non-negative,
    /// not necessarily normalised).
    ///
    /// # Panics
    /// Panics if `probabilities` is empty.
    pub fn new(probabilities: &[f64]) -> Self {
        assert!(
            !probabilities.is_empty(),
            "categorical distribution needs at least one weight"
        );
        let mut cumulative = Vec::new();
        fill_cumulative(probabilities, &mut cumulative);
        CategoricalCdf { cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are zero categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw one index using a single uniform variate and binary search.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_from_cumulative(rng, &self.cumulative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn categorical_sampling_respects_probabilities() {
        let mut rng = StdRng::seed_from_u64(123);
        let probs = [0.1, 0.6, 0.3];
        let mut counts = [0usize; 3];
        let draws = 60_000;
        for _ in 0..draws {
            counts[sample_categorical(&mut rng, &probs)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / draws as f64;
            assert!(
                (freq - probs[i]).abs() < 0.02,
                "index {i}: frequency {freq} vs probability {}",
                probs[i]
            );
        }
    }

    #[test]
    fn categorical_sampling_handles_unnormalised_and_degenerate_input() {
        let mut rng = StdRng::seed_from_u64(9);
        // Unnormalised input is fine.
        let idx = sample_categorical(&mut rng, &[2.0, 0.0, 0.0]);
        assert_eq!(idx, 0);
        // All-zero mass falls back to uniform over the support.
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_categorical(&mut rng, &[0.0, 0.0, 0.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn categorical_sampling_single_element() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_categorical(&mut rng, &[1.0]), 0);
    }

    /// The legacy subtractive linear scan, kept as the reference
    /// implementation the binary-search version is audited against.
    fn linear_scan_reference(target: f64, probabilities: &[f64]) -> usize {
        let mut remaining = target;
        for (index, &p) in probabilities.iter().enumerate() {
            remaining -= p;
            if remaining <= 0.0 {
                return index;
            }
        }
        probabilities.len() - 1
    }

    /// Linear scan over the *cumulative* weights — exactly the quantity the
    /// binary search partitions, so the two must agree on every draw.
    fn cumulative_scan_reference(target: f64, cumulative: &[f64]) -> usize {
        for (index, &c) in cumulative.iter().enumerate() {
            if c >= target {
                return index;
            }
        }
        cumulative.len() - 1
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Exact audit: for any weights and any uniform draw, binary search
        /// over the cumulative weights picks the same index as a linear scan
        /// over the same cumulative weights.
        #[test]
        fn binary_search_matches_cumulative_linear_scan(
            weights in proptest::collection::vec(0.0f64..1e6, 1..200),
            unit in 0.0f64..1.0,
        ) {
            let cdf = CategoricalCdf::new(&weights);
            let total = *cdf.cumulative.last().unwrap();
            proptest::prop_assume!(total > 0.0 && total.is_finite());
            let target = unit * total;
            let by_search = cdf.cumulative.partition_point(|&c| c < target)
                .min(weights.len() - 1);
            let by_scan = cumulative_scan_reference(target, &cdf.cumulative);
            proptest::prop_assert_eq!(by_search, by_scan);
        }

        /// Distributional audit under fixed seeds: driving the legacy
        /// subtractive scan and the new binary search with the *same* RNG
        /// stream yields empirical frequencies that agree to sampling noise.
        #[test]
        fn binary_search_agrees_distributionally_with_legacy_scan(
            weights in proptest::collection::vec(0.01f64..10.0, 2..20),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let draws = 4000usize;
            let total: f64 = weights.iter().sum();
            let mut old_counts = vec![0usize; weights.len()];
            let mut new_counts = vec![0usize; weights.len()];
            let mut rng_old = StdRng::seed_from_u64(seed);
            let mut rng_new = StdRng::seed_from_u64(seed);
            for _ in 0..draws {
                let target = rng_old.gen::<f64>() * total;
                old_counts[linear_scan_reference(target, &weights)] += 1;
                new_counts[sample_categorical(&mut rng_new, &weights)] += 1;
            }
            for (k, (&o, &n)) in old_counts.iter().zip(new_counts.iter()).enumerate() {
                let diff = (o as f64 - n as f64).abs() / draws as f64;
                // Same seed → same uniform stream; the implementations can
                // only disagree on rounding-boundary draws, which are
                // vanishingly rare, so frequencies must be near-identical.
                proptest::prop_assert!(
                    diff < 0.01,
                    "stratum {} frequency drift {} (old {}, new {})", k, diff, o, n
                );
            }
        }
    }

    #[test]
    fn cdf_caches_and_samples_like_the_one_shot_path() {
        let weights = [0.2, 0.5, 0.3];
        let cdf = CategoricalCdf::new(&weights);
        assert_eq!(cdf.len(), 3);
        assert!(!cdf.is_empty());
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        for _ in 0..500 {
            assert_eq!(cdf.sample(&mut a), sample_categorical(&mut b, &weights));
        }
    }

    #[test]
    fn tracked_sampler_observes_through_the_interactive_path() {
        use crate::oracle::GroundTruthOracle;
        let (pool, truth) = crate::test_fixtures::pool_and_truth(200, 3, 0.2);
        let inner = PassiveSampler::new(0.5);
        let mut tracked = TrackedSampler::new(inner, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        // Drive through propose/apply rather than step.
        for _ in 0..60 {
            let proposal = tracked.propose(&pool, &mut rng);
            tracked.apply_label(&proposal, truth[proposal.item]);
        }
        assert_eq!(tracked.tracker().count(), 60);
        assert_eq!(tracked.method(), SamplerMethod::Passive);

        // State restore keeps the estimate AND the tracker: the confidence
        // interval after a checkpoint/restore round-trip is bit-identical.
        let state = tracked.state();
        let restored = TrackedSampler::<PassiveSampler>::from_state(&pool, state).unwrap();
        assert_eq!(
            restored.estimate().f_measure.to_bits(),
            tracked.estimate().f_measure.to_bits()
        );
        assert!(restored.tracker_complete());
        assert_eq!(restored.tracker().count(), 60);
        let before = tracked.confidence_interval(0.95).unwrap();
        let after = restored.confidence_interval(0.95).unwrap();
        assert_eq!(before.lower.to_bits(), after.lower.to_bits());
        assert_eq!(before.upper.to_bits(), after.upper.to_bits());
        assert_eq!(
            before.standard_error.to_bits(),
            after.standard_error.to_bits()
        );
        let mut oracle = GroundTruthOracle::new(truth);
        let mut restored = restored;
        restored.step(&pool, &mut oracle, &mut rng).unwrap();
        assert_eq!(restored.tracker().count(), 61);
    }
}
