//! Sharded pools: one logical evaluation spread across K sub-pools.
//!
//! A [`ShardedPool`] partitions a [`ScoredPool`] into K contiguous shards; a
//! [`ShardedSampler`] runs one independent inner sampler (any
//! [`SamplerMethod`]) per shard and exposes the whole ensemble as a single
//! [`InteractiveSampler`].  Nothing upstream changes: sessions, checkpoints
//! and the wire protocol drive a sharded sampler exactly like a flat one.
//!
//! # Exact merge
//!
//! The merged estimate is not an average of per-shard estimates — it is the
//! *exact* global estimate, computed from summed sufficient statistics:
//!
//! * **AIS methods** (`oasis`, `passive`, `importance`): a proposal drawn
//!   from shard `s` carries the *global* importance weight
//!   `w = w_local · ω_s · M/m_s`, where `ω_s = N_s/N` is the shard's share
//!   of the pool, `m_s` its current selection mass and `M = Σ m_s`.  Since
//!   the shard was selected with probability `q_s = m_s/M` and the inner
//!   sampler drew the item with its local probability `p_s(j)`, the global
//!   draw probability is `q_s·p_s(j)` and `w = (1/N)/(q_s·p_s(j))` up to the
//!   target's constant — precisely the flat AIS weight for the combined
//!   instrumental distribution.  Inner estimators accumulate these global
//!   weights, so summing their four weighted sums (Eqn. 3) over shards gives
//!   the same accumulator a single global sampler would hold, and the merged
//!   estimate falls out of the ordinary [`AisEstimator`] arithmetic.
//! * **Stratified**: the transferred-mass sums of
//!   [`StratifiedSampler::mass_sums`] are in absolute item counts, so sums
//!   over disjoint shards add exactly; the shared
//!   [`finish_stratified_estimate`] turns the merged sums into the estimate.
//!
//! With K = 1 every merge above degenerates to the flat computation
//! bit-for-bit: `ω_1 = 1`, `M/m_1 = 1`, the weight multiplication is by
//! exactly `1.0`, and the merged sums start from `+0.0` — so a one-shard
//! sharded session is bit-identical to an unsharded one (estimate *and*
//! confidence interval), which is pinned by tests.
//!
//! # Shard selection
//!
//! Shard masses `m_s = ω_s · proposal_mass_s` live in a [`FenwickTree`]:
//! applying a label re-weights only the routed shard (O(log K)), and a draw
//! is one uniform variate plus an O(log K) descent.  The flat alternative —
//! rebuilding a K-entry CDF per label — is O(K); at a fixed shard size the
//! Fenwick path makes per-label proposal cost logarithmic in the pool size
//! instead of linear.
//!
//! # Randomness
//!
//! The caller's RNG is consumed *only* for shard selection; each shard owns
//! a private `StdRng` (seeded `seed + s`) for its inner draws.  This keeps
//! shard streams independent of how selection interleaves them — and makes
//! the K = 1 parity above hold: shard 0's stream is exactly the stream an
//! unsharded session would have used.  The per-shard generators are part of
//! the serialized [`ShardedState`], so exact-resume covers them too.

use super::any::AnySampler;
use super::state::{SamplerMethod, SamplerState, ShardedState};
use super::stratified::finish_stratified_estimate;
use super::{FenwickTree, InteractiveSampler, OasisConfig, Proposal, Sampler, SamplerDiagnostics};
use crate::error::{Error, Result};
use crate::estimator::{AisEstimator, Estimate};
use crate::pool::ScoredPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A contiguous partition of a [`ScoredPool`] into K shards.
///
/// Shard `s` holds the items `[s·N/K, (s+1)·N/K)` of the source pool, so the
/// partition is a pure function of `(N, K)` — checkpoints never store it,
/// they recompute it, and samplers share it through
/// [`ScoredPool::shared_shards`].  Every shard is non-empty (K ≤ N is
/// enforced), and each is a view that shares the source pool's storage
/// instead of copying its items (see [`ScoredPool`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPool {
    /// The per-shard sub-pools, in pool order.
    shards: Vec<ScoredPool>,
    /// Start index of each shard in the source pool.
    item_offsets: Vec<usize>,
    /// Shard share of the pool, `ω_s = N_s/N`.
    weights: Vec<f64>,
    /// Total item count of the source pool.
    total_len: usize,
}

impl ShardedPool {
    /// Partition `pool` into `shard_count` contiguous shards.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `shard_count` is zero or exceeds the
    /// pool size (every shard must hold at least one item).
    pub fn partition(pool: &ScoredPool, shard_count: usize) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::InvalidParameter {
                name: "shards",
                message: "shard count must be at least 1".to_string(),
            });
        }
        let n = pool.len();
        if shard_count > n {
            return Err(Error::InvalidParameter {
                name: "shards",
                message: format!("shard count {shard_count} exceeds pool size {n}"),
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        let mut item_offsets = Vec::with_capacity(shard_count);
        let mut weights = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let start = s * n / shard_count;
            let end = (s + 1) * n / shard_count;
            item_offsets.push(start);
            weights.push((end - start) as f64 / n as f64);
            shards.push(pool.view(start..end));
        }
        Ok(ShardedPool {
            shards,
            item_offsets,
            weights,
            total_len: n,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total item count of the source pool.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// Whether the source pool was empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// The sub-pool of shard `s`.
    pub fn shard(&self, s: usize) -> &ScoredPool {
        &self.shards[s]
    }

    /// Start index of shard `s` in the source pool.
    pub fn item_offset(&self, s: usize) -> usize {
        self.item_offsets[s]
    }

    /// Shard share of the pool, `ω_s = N_s/N` (exactly `1.0` for K = 1).
    pub fn shard_weight(&self, s: usize) -> f64 {
        self.weights[s]
    }

    /// The shard containing global item index `item`.
    pub fn shard_of_item(&self, item: usize) -> usize {
        debug_assert!(item < self.total_len);
        // First offset strictly beyond the item, minus one.
        self.item_offsets.partition_point(|&start| start <= item) - 1
    }
}

/// K independent inner samplers over a [`ShardedPool`], presented as one
/// [`InteractiveSampler`] whose estimate is the exact merged global estimate
/// (the weight algebra is derived in this module's source docs).
#[derive(Debug, Clone)]
pub struct ShardedSampler {
    /// The method every shard runs.
    method: SamplerMethod,
    /// F-measure weight α (shared by all shards).
    alpha: f64,
    /// The source pool's shared partition.
    pool: Arc<ShardedPool>,
    inners: Vec<AnySampler>,
    /// Private per-shard RNG streams (see module docs on randomness).
    shard_rngs: Vec<StdRng>,
    /// Shard selection masses `m_s = ω_s · proposal_mass_s`.
    fenwick: FenwickTree,
    /// Start of each shard's stratum range in the global stratum numbering.
    stratum_offsets: Vec<usize>,
    /// Total strata across shards.
    strata_total: usize,
}

/// The guarded shard mass `ω_s · proposal_mass_s`: any non-positive or
/// non-finite product falls back to the neutral `ω_s`, so selection masses
/// are always strictly positive and the tree total stays finite.  Must stay
/// a pure function of `(ω_s, proposal_mass_s)` — restore recomputes it.
fn guarded_mass(shard_weight: f64, proposal_mass: f64) -> f64 {
    let mass = shard_weight * proposal_mass;
    if mass.is_finite() && mass > 0.0 {
        mass
    } else {
        shard_weight
    }
}

impl ShardedSampler {
    /// Build a sharded sampler: partition `pool` into `shard_count` shards
    /// and construct one fresh `method` sampler per shard from the shared
    /// `config`.  Shard `s` draws from a private RNG seeded
    /// `seed.wrapping_add(s)`.
    ///
    /// # Errors
    /// Invalid shard count (zero, or more shards than items), invalid
    /// config, or any inner constructor failure (e.g. a shard too small for
    /// the configured stratifier).
    pub fn new(
        method: SamplerMethod,
        pool: &ScoredPool,
        config: &OasisConfig,
        shard_count: usize,
        seed: u64,
    ) -> Result<Self> {
        let sharded = pool.shared_shards(shard_count)?;
        let mut inners = Vec::with_capacity(shard_count);
        let mut shard_rngs = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            inners.push(AnySampler::build(method, sharded.shard(s), config)?);
            shard_rngs.push(StdRng::seed_from_u64(seed.wrapping_add(s as u64)));
        }
        Self::assemble(method, config.alpha, sharded, inners, shard_rngs)
    }

    /// Wire up the derived structures (stratum offsets, selection tree)
    /// around constructed parts; shared by [`ShardedSampler::new`] and the
    /// restore path.
    fn assemble(
        method: SamplerMethod,
        alpha: f64,
        pool: Arc<ShardedPool>,
        inners: Vec<AnySampler>,
        shard_rngs: Vec<StdRng>,
    ) -> Result<Self> {
        let mut stratum_offsets = Vec::with_capacity(inners.len());
        let mut strata_total = 0usize;
        let mut masses = Vec::with_capacity(inners.len());
        for (s, inner) in inners.iter().enumerate() {
            stratum_offsets.push(strata_total);
            strata_total += inner.strata_len();
            masses.push(guarded_mass(pool.shard_weight(s), inner.proposal_mass()));
        }
        let fenwick = FenwickTree::from_weights(&masses);
        Ok(ShardedSampler {
            method,
            alpha,
            pool,
            inners,
            shard_rngs,
            fenwick,
            stratum_offsets,
            strata_total,
        })
    }

    /// Rebuild from a captured [`ShardedState`] against the source pool.
    fn rebuild(pool: &ScoredPool, state: ShardedState) -> Result<Self> {
        let k = state.shards.len();
        if k == 0 {
            return Err(Error::InvalidParameter {
                name: "state",
                message: "sharded state holds no shards".to_string(),
            });
        }
        if state.shard_rngs.len() != k {
            return Err(Error::InvalidParameter {
                name: "state",
                message: format!(
                    "sharded state holds {k} shards but {} RNG streams",
                    state.shard_rngs.len()
                ),
            });
        }
        let sharded = pool.shared_shards(k)?;
        let alpha = state.shards.first().map_or(f64::NAN, SamplerState::alpha);
        let mut inners = Vec::with_capacity(k);
        for (s, inner_state) in state.shards.into_iter().enumerate() {
            if matches!(inner_state, SamplerState::Sharded(_)) {
                return Err(Error::InvalidParameter {
                    name: "state",
                    message: format!("shard {s} holds a nested sharded state"),
                });
            }
            if inner_state.method() != state.method {
                return Err(Error::InvalidParameter {
                    name: "state",
                    message: format!(
                        "shard {s} is tagged {:?} but the sharded state says {:?}",
                        inner_state.method().as_str(),
                        state.method.as_str()
                    ),
                });
            }
            inners.push(AnySampler::from_state(sharded.shard(s), inner_state)?);
        }
        let shard_rngs = state
            .shard_rngs
            .into_iter()
            .map(StdRng::from_state_words)
            .collect();
        Self::assemble(state.method, alpha, sharded, inners, shard_rngs)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inners.len()
    }

    /// The partitioned pool, shared with every sampler that partitions the
    /// same source pool into as many shards.
    pub fn pool(&self) -> &Arc<ShardedPool> {
        &self.pool
    }

    /// The inner sampler of shard `s`.
    pub fn shard_sampler(&self, s: usize) -> &AnySampler {
        &self.inners[s]
    }

    /// Current shard selection probabilities `q_s = m_s/M` (uniform when the
    /// tree total is degenerate, which the mass guard makes unreachable in
    /// practice).
    pub fn shard_selection(&self) -> Vec<f64> {
        let total = self.fenwick.total();
        if total > 0.0 && total.is_finite() {
            (0..self.inners.len())
                .map(|s| self.fenwick.weight(s) / total)
                .collect()
        } else {
            vec![1.0 / self.inners.len() as f64; self.inners.len()]
        }
    }

    /// The factor turning shard `s`'s local importance weight into the
    /// global one: `ω_s · M/m_s` (exactly `1.0` for K = 1).
    fn weight_scale(&self, s: usize) -> f64 {
        let mass = self.fenwick.weight(s);
        let total = self.fenwick.total();
        if mass > 0.0 && total > 0.0 && total.is_finite() {
            self.pool.shard_weight(s) * (total / mass)
        } else {
            // Degenerate tree ⇒ the draw fell back to uniform, q_s = 1/K.
            self.pool.shard_weight(s) * self.inners.len() as f64
        }
    }

    /// The merged global AIS accumulator: per-shard weighted sums (already
    /// on the global weight scale) summed in shard order.
    fn merged_estimator(&self) -> Result<AisEstimator> {
        let mut weighted_tp = 0.0;
        let mut weighted_predicted = 0.0;
        let mut weighted_actual = 0.0;
        let mut total_weight = 0.0;
        let mut weight_sq = Some(0.0);
        let mut iterations = 0usize;
        for inner in &self.inners {
            let estimator = match inner {
                AnySampler::Passive(s) => s.estimator(),
                AnySampler::Importance(s) => s.estimator(),
                AnySampler::Oasis(s) => s.estimator(),
                AnySampler::Stratified(_) | AnySampler::Sharded(_) => {
                    return Err(Error::InvalidParameter {
                        name: "state",
                        message: "merged AIS estimator over a non-AIS shard".to_string(),
                    })
                }
            };
            let (tp, predicted, actual, weight) = estimator.sums();
            weighted_tp += tp;
            weighted_predicted += predicted;
            weighted_actual += actual;
            total_weight += weight;
            weight_sq = match (weight_sq, estimator.weight_sq()) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            iterations += estimator.iterations();
        }
        AisEstimator::from_parts(
            self.alpha,
            weighted_tp,
            weighted_predicted,
            weighted_actual,
            total_weight,
            weight_sq,
            iterations,
        )
    }

    /// The merged stratified estimate: transferred-mass sums (absolute item
    /// counts) summed across shards, finished by the same arithmetic the
    /// flat sampler uses.
    fn merged_stratified_estimate(&self) -> Estimate {
        let mut est_tp = 0.0;
        let mut est_predicted = 0.0;
        let mut est_actual = 0.0;
        let mut any_observed = false;
        let mut iterations = 0usize;
        for inner in &self.inners {
            if let AnySampler::Stratified(s) = inner {
                let (tp, predicted, actual, observed) = s.mass_sums();
                est_tp += tp;
                est_predicted += predicted;
                est_actual += actual;
                any_observed |= observed;
                iterations += s.iterations();
            }
        }
        finish_stratified_estimate(
            self.alpha,
            est_tp,
            est_predicted,
            est_actual,
            any_observed,
            iterations,
        )
    }

    /// Lift shard `s`'s local proposal to global indices and the global
    /// weight scale.
    fn lift(&self, s: usize, local: Proposal) -> Proposal {
        Proposal {
            item: self.pool.item_offsets[s] + local.item,
            stratum: self.stratum_offsets[s] + local.stratum,
            prediction: local.prediction,
            weight: local.weight * self.weight_scale(s),
        }
    }

    /// Hand a label to the shard that owns its item, with indices
    /// translated back to local and the global weight kept; returns the
    /// shard.  Its selection mass is left to the caller.
    fn route_label(&mut self, proposal: &Proposal, label: bool) -> usize {
        let s = self.pool.shard_of_item(proposal.item);
        let local = Proposal {
            item: proposal.item - self.pool.item_offsets[s],
            stratum: proposal.stratum.saturating_sub(self.stratum_offsets[s]),
            prediction: proposal.prediction,
            weight: proposal.weight,
        };
        self.inners[s].apply_label(&local, label);
        s
    }

    /// Recompute shard `s`'s selection mass from its inner sampler.
    fn refresh_mass(&mut self, s: usize) {
        let mass = guarded_mass(self.pool.shard_weight(s), self.inners[s].proposal_mass());
        self.fenwick.set(s, mass);
    }
}

impl InteractiveSampler for ShardedSampler {
    /// Select a shard from the Fenwick masses (one variate off the caller's
    /// RNG), draw within the shard from its private RNG, then lift the local
    /// proposal to global indices and the global weight scale.
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        debug_assert_eq!(pool.len(), self.pool.len());
        let s = self.fenwick.sample(rng);
        let local = self.inners[s].propose(&self.pool.shards[s], &mut self.shard_rngs[s]);
        self.lift(s, local)
    }

    /// The same proposals as `count` calls of [`propose`](Self::propose):
    /// every shard selection is drawn first, off the caller's RNG in the
    /// same order, then each selected shard draws its whole share in one
    /// inner batch from its private RNG, and the results are put back in
    /// selection order.  Nothing a draw reads changes inside a batch.
    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        debug_assert_eq!(pool.len(), self.pool.len());
        let selections: Vec<usize> = (0..count).map(|_| self.fenwick.sample(rng)).collect();
        let mut shares = vec![0usize; self.inners.len()];
        for &s in &selections {
            shares[s] += 1;
        }
        let mut drawn: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(s, &share)| {
                // An unselected shard is not asked at all, as singles would not.
                if share == 0 {
                    return Vec::new().into_iter();
                }
                self.inners[s]
                    .propose_batch(&self.pool.shards[s], &mut self.shard_rngs[s], share)
                    .into_iter()
            })
            .collect();
        selections
            .into_iter()
            .map(|s| {
                let local = drawn[s].next().expect("one draw per selection");
                self.lift(s, local)
            })
            .collect()
    }

    /// Route the label to the owning shard (translating indices back to
    /// local, keeping the global weight), then refresh only that shard's
    /// selection mass — O(inner apply + log K), independent of pool size.
    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        let s = self.route_label(proposal, label);
        self.refresh_mass(s);
    }

    /// Route every label first, then refresh each touched shard's selection
    /// mass once.  A shard's mass depends only on its own labels, and
    /// [`FenwickTree::set`] is canonical, so the state is the one
    /// [`apply_label`](Self::apply_label) per label leaves.
    fn apply_labels<'a, I>(&mut self, labelled: I)
    where
        I: IntoIterator<Item = (&'a Proposal, bool)>,
    {
        let mut touched = vec![false; self.inners.len()];
        for (proposal, label) in labelled {
            touched[self.route_label(proposal, label)] = true;
        }
        for s in (0..touched.len()).filter(|&s| touched[s]) {
            self.refresh_mass(s);
        }
    }

    /// A proposal's stratum must lie in the stratum range of the shard that
    /// owns its item, and be one that shard's sampler admits.
    fn admits(&self, proposal: &Proposal) -> bool {
        if proposal.item >= self.pool.len() {
            return false;
        }
        let s = self.pool.shard_of_item(proposal.item);
        let Some(stratum) = proposal.stratum.checked_sub(self.stratum_offsets[s]) else {
            return false;
        };
        self.inners[s].admits(&Proposal {
            item: proposal.item - self.pool.item_offsets[s],
            stratum,
            ..*proposal
        })
    }

    fn estimate(&self) -> Estimate {
        if self.method == SamplerMethod::Stratified {
            self.merged_stratified_estimate()
        } else {
            match self.merged_estimator() {
                Ok(estimator) => estimator.estimate(),
                // Unreachable for genuinely accumulated sums; stay total.
                Err(_) => AisEstimator::new(self.alpha).estimate(),
            }
        }
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }

    /// Sharding is a topology, not a method: report what the shards run, so
    /// sessions and the wire protocol echo the method the caller asked for.
    fn method(&self) -> SamplerMethod {
        self.method
    }

    fn strata_len(&self) -> usize {
        self.strata_total
    }

    /// Merged diagnostics: per-shard stratum vectors concatenate in shard
    /// order (matching the global stratum numbering), with each shard's
    /// instrumental distribution scaled by its selection probability so the
    /// merged vector is the true global instrumental.
    fn diagnostics(&self) -> SamplerDiagnostics {
        let selection = self.shard_selection();
        let mut iterations = 0usize;
        let mut cdf_rebuilds = 0u64;
        let mut stratum_labels = Vec::with_capacity(self.strata_total);
        let mut instrumental = Vec::with_capacity(self.strata_total);
        for (s, inner) in self.inners.iter().enumerate() {
            let inner_diagnostics = inner.diagnostics();
            iterations += inner_diagnostics.iterations;
            cdf_rebuilds += inner_diagnostics.cdf_rebuilds;
            stratum_labels.extend(inner_diagnostics.stratum_labels);
            instrumental.extend(
                inner_diagnostics
                    .instrumental
                    .into_iter()
                    .map(|p| p * selection[s]),
            );
        }
        let (effective_sample_size, normalized_weight_variance) =
            if self.method == SamplerMethod::Stratified {
                if iterations > 0 {
                    (Some(iterations as f64), Some(0.0))
                } else {
                    (None, None)
                }
            } else {
                match self.merged_estimator() {
                    Ok(estimator) => (
                        estimator.effective_sample_size(),
                        estimator.normalized_weight_variance(),
                    ),
                    Err(_) => (None, None),
                }
            };
        SamplerDiagnostics {
            method: self.method,
            iterations,
            effective_sample_size,
            normalized_weight_variance,
            stratum_labels,
            instrumental,
            cdf_rebuilds,
        }
    }

    /// Total selection mass — lets a higher-level driver treat this sampler
    /// like any other (though nesting sharded states is rejected on restore).
    fn proposal_mass(&self) -> f64 {
        let total = self.fenwick.total();
        if total.is_finite() && total > 0.0 {
            total
        } else {
            1.0
        }
    }

    fn state(&self) -> SamplerState {
        SamplerState::Sharded(ShardedState {
            method: self.method,
            shard_rngs: self.shard_rngs.iter().map(StdRng::state_words).collect(),
            shards: self.inners.iter().map(InteractiveSampler::state).collect(),
            tracker: None,
        })
    }

    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        match state {
            SamplerState::Sharded(state) => ShardedSampler::rebuild(pool, state),
            other => Err(Error::InvalidParameter {
                name: "state",
                message: format!(
                    "state is tagged {:?} but the sampler is sharded",
                    other.method().as_str()
                ),
            }),
        }
    }
}

impl Sampler for ShardedSampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use crate::samplers::TrackedSampler;
    use crate::strata::{StrataKey, StratifierChoice};

    fn pool_and_truth(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
        crate::test_fixtures::pool_and_truth(n, seed, 0.15)
    }

    fn config() -> OasisConfig {
        OasisConfig::default().with_strata_count(6)
    }

    #[test]
    fn partition_is_contiguous_and_covers_the_pool() {
        let (pool, _) = pool_and_truth(103, 1);
        for k in [1usize, 2, 3, 7, 103] {
            let sharded = ShardedPool::partition(&pool, k).unwrap();
            assert_eq!(sharded.shard_count(), k);
            assert_eq!(sharded.len(), pool.len());
            assert!(!sharded.is_empty());
            let mut reassembled = 0usize;
            let mut weight_sum = 0.0;
            for s in 0..k {
                let shard = sharded.shard(s);
                assert!(!shard.is_empty(), "shard {s} empty at K={k}");
                assert_eq!(sharded.item_offset(s), reassembled);
                for j in 0..shard.len() {
                    let global = reassembled + j;
                    assert_eq!(shard.score(j), pool.score(global));
                    assert_eq!(shard.prediction(j), pool.prediction(global));
                    assert_eq!(sharded.shard_of_item(global), s);
                }
                reassembled += shard.len();
                weight_sum += sharded.shard_weight(s);
            }
            assert_eq!(reassembled, pool.len());
            assert!((weight_sum - 1.0).abs() < 1e-12);
        }
        assert!(ShardedPool::partition(&pool, 0).is_err());
        assert!(ShardedPool::partition(&pool, pool.len() + 1).is_err());
    }

    /// The copying partition that views replaced: shard `s` as a pool of
    /// its own copied items.
    fn copied_shards(pool: &ScoredPool, shard_count: usize) -> Vec<ScoredPool> {
        let n = pool.len();
        (0..shard_count)
            .map(|s| {
                let (start, end) = (s * n / shard_count, (s + 1) * n / shard_count);
                ScoredPool::new(
                    pool.scores()[start..end].to_vec(),
                    pool.predictions()[start..end].to_vec(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn shards_are_views_of_the_source_pool() {
        let (pool, _) = pool_and_truth(301, 4);
        let scores = pool.scores().as_ptr_range();
        let predictions = pool.predictions().as_ptr_range();
        for k in [1usize, 2, 7] {
            let sharded = pool.shared_shards(k).unwrap();
            for s in 0..k {
                let shard = sharded.shard(s);
                let start = sharded.item_offset(s);
                assert_eq!(shard.scores().as_ptr(), pool.scores()[start..].as_ptr());
                assert!(scores.contains(&shard.scores().as_ptr()));
                assert!(shard.scores().as_ptr_range().end <= scores.end);
                assert_eq!(
                    shard.predictions().as_ptr(),
                    pool.predictions()[start..].as_ptr()
                );
                assert!(shard.predictions().as_ptr_range().end <= predictions.end);
            }
        }
        // A clone shares the storage too.
        assert_eq!(pool.clone().scores().as_ptr(), pool.scores().as_ptr());
        assert_eq!(
            pool.clone().predictions().as_ptr(),
            pool.predictions().as_ptr()
        );
    }

    #[test]
    fn shard_views_match_the_copying_partition_bit_for_bit() {
        // Fingerprint, strata, and every method's draws and estimates on
        // the same labels, shard by shard.
        let (pool, truth) = pool_and_truth(600, 6);
        for k in [1usize, 3, 4] {
            let sharded = ShardedPool::partition(&pool, k).unwrap();
            for (s, copy) in copied_shards(&pool, k).iter().enumerate() {
                let view = sharded.shard(s);
                assert_eq!(view, copy);
                assert_eq!(view.fingerprint(), copy.fingerprint(), "K={k} shard {s}");
                for stratifier in [StratifierChoice::Csf, StratifierChoice::EqualSize] {
                    let key = StrataKey {
                        stratifier,
                        strata_count: 5,
                    };
                    assert_eq!(
                        *view.shared_strata(key).unwrap(),
                        *copy.shared_strata(key).unwrap()
                    );
                }
                let truth = &truth[sharded.item_offset(s)..][..view.len()];
                for method in SamplerMethod::ALL {
                    let mut on_view = TrackedSampler::new(
                        AnySampler::build(method, view, &config()).unwrap(),
                        config().alpha,
                    );
                    let mut on_copy = TrackedSampler::new(
                        AnySampler::build(method, copy, &config()).unwrap(),
                        config().alpha,
                    );
                    let mut rng_view = StdRng::seed_from_u64(s as u64);
                    let mut rng_copy = StdRng::seed_from_u64(s as u64);
                    for _ in 0..120 {
                        let a = on_view.propose(view, &mut rng_view);
                        let b = on_copy.propose(copy, &mut rng_copy);
                        assert_eq!((a.item, a.stratum), (b.item, b.stratum), "{method}");
                        assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{method}");
                        on_view.apply_label(&a, truth[a.item]);
                        on_copy.apply_label(&b, truth[b.item]);
                    }
                    let (ea, eb) = (on_view.estimate(), on_copy.estimate());
                    assert_eq!(ea.f_measure.to_bits(), eb.f_measure.to_bits(), "{method}");
                    assert_eq!(ea.precision.to_bits(), eb.precision.to_bits(), "{method}");
                    assert_eq!(ea.recall.to_bits(), eb.recall.to_bits(), "{method}");
                }
            }
        }
    }

    #[test]
    fn one_shard_run_is_bit_identical_to_the_flat_sampler() {
        // The K = 1 parity the module docs promise: same seed, same labels ⇒
        // same proposals (item/weight bits), same estimate bits, same
        // confidence-interval bits — for every method.
        let (pool, truth) = pool_and_truth(600, 2);
        for method in SamplerMethod::ALL {
            let seed = 41u64;
            let mut flat = TrackedSampler::new(
                AnySampler::build(method, &pool, &config()).unwrap(),
                config().alpha,
            );
            let mut sharded = TrackedSampler::new(
                ShardedSampler::new(method, &pool, &config(), 1, seed).unwrap(),
                config().alpha,
            );
            // The flat sampler draws from the session stream directly; the
            // sharded one burns the session stream on shard selection and
            // draws from its private shard stream, seeded identically.
            let mut rng_flat = StdRng::seed_from_u64(seed);
            let mut rng_session = StdRng::seed_from_u64(seed ^ 0xdead_beef);
            for _ in 0..300 {
                let a = flat.propose(&pool, &mut rng_flat);
                let b = sharded.propose(&pool, &mut rng_session);
                assert_eq!(a.item, b.item, "{method}");
                assert_eq!(a.stratum, b.stratum, "{method}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{method}");
                let label = truth[a.item];
                flat.apply_label(&a, label);
                sharded.apply_label(&b, label);
            }
            let ea = flat.estimate();
            let eb = sharded.estimate();
            assert_eq!(ea.f_measure.to_bits(), eb.f_measure.to_bits(), "{method}");
            assert_eq!(ea.precision.to_bits(), eb.precision.to_bits(), "{method}");
            assert_eq!(ea.recall.to_bits(), eb.recall.to_bits(), "{method}");
            assert_eq!(ea.iterations, eb.iterations, "{method}");
            let ca = flat.confidence_interval(0.95).unwrap();
            let cb = sharded.confidence_interval(0.95).unwrap();
            assert_eq!(ca.lower.to_bits(), cb.lower.to_bits(), "{method}");
            assert_eq!(ca.upper.to_bits(), cb.upper.to_bits(), "{method}");
            assert_eq!(
                ca.standard_error.to_bits(),
                cb.standard_error.to_bits(),
                "{method}"
            );
        }
    }

    #[test]
    fn merged_estimate_matches_exhaustive_measures_when_fully_labelled() {
        // Label every item in every shard: the stratified merge and the AIS
        // merges must all land on (or tightly around) the exhaustive truth.
        let (pool, truth) = pool_and_truth(400, 3);
        let target =
            crate::measures::exhaustive_measures(pool.predictions(), &truth, 0.5).f_measure;
        for method in SamplerMethod::ALL {
            let mut sampler = ShardedSampler::new(method, &pool, &config(), 4, 9).unwrap();
            let mut rng = StdRng::seed_from_u64(10);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            sampler.run(&pool, &mut oracle, &mut rng, 12_000).unwrap();
            let estimate = sampler.estimate();
            assert!(
                (estimate.f_measure - target).abs() < 0.06,
                "{method}: merged {} vs exhaustive {target}",
                estimate.f_measure
            );
        }
    }

    #[test]
    fn proposals_cover_all_shards_and_weights_stay_consistent() {
        let (pool, truth) = pool_and_truth(500, 5);
        let shard_count = 5;
        let mut sampler =
            ShardedSampler::new(SamplerMethod::Oasis, &pool, &config(), shard_count, 7).unwrap();
        assert_eq!(sampler.shard_count(), shard_count);
        assert_eq!(
            sampler.strata_len(),
            (0..shard_count)
                .map(|s| sampler.shard_sampler(s).strata_len())
                .sum::<usize>()
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = vec![false; shard_count];
        for _ in 0..600 {
            let proposal = sampler.propose(&pool, &mut rng);
            assert!(proposal.item < pool.len());
            assert!(proposal.stratum < sampler.strata_len());
            assert!(proposal.weight.is_finite() && proposal.weight > 0.0);
            assert_eq!(proposal.prediction, pool.prediction(proposal.item));
            seen[sampler.pool().shard_of_item(proposal.item)] = true;
            sampler.apply_label(&proposal, truth[proposal.item]);
        }
        assert!(seen.iter().all(|&s| s), "all shards proposed from");
        let selection = sampler.shard_selection();
        assert_eq!(selection.len(), shard_count);
        assert!((selection.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(selection.iter().all(|&q| q > 0.0));
    }

    #[test]
    fn state_round_trip_resumes_bit_for_bit() {
        let (pool, truth) = pool_and_truth(400, 6);
        for method in SamplerMethod::ALL {
            let mut sampler = ShardedSampler::new(method, &pool, &config(), 3, 21).unwrap();
            let mut rng = StdRng::seed_from_u64(22);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..150 {
                sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            }
            let state = sampler.state();
            assert_eq!(state.method(), method);
            assert!(matches!(state, SamplerState::Sharded(_)));
            let mut restored = ShardedSampler::from_state(&pool, state).unwrap();
            assert_eq!(
                restored.estimate().f_measure.to_bits(),
                sampler.estimate().f_measure.to_bits(),
                "{method}"
            );
            // Continuing both with the same session stream stays identical —
            // including the private shard streams restored from state words.
            let mut rng_a = StdRng::seed_from_u64(23);
            let mut rng_b = StdRng::seed_from_u64(23);
            let mut oracle_a = GroundTruthOracle::new(truth.clone());
            let mut oracle_b = GroundTruthOracle::new(truth.clone());
            for _ in 0..100 {
                let a = sampler.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
                let b = restored.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
                assert_eq!(a.item, b.item, "{method}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{method}");
            }
            assert_eq!(
                sampler.estimate().f_measure.to_bits(),
                restored.estimate().f_measure.to_bits(),
                "{method}"
            );
        }
    }

    #[test]
    fn restore_rejects_corrupt_sharded_states() {
        let (pool, _) = pool_and_truth(200, 7);
        let sampler = ShardedSampler::new(SamplerMethod::Passive, &pool, &config(), 2, 1).unwrap();
        let good = match sampler.state() {
            SamplerState::Sharded(state) => state,
            other => panic!("unexpected tag {:?}", other.method()),
        };

        // RNG stream count must match the shard count.
        let mut bad = good.clone();
        bad.shard_rngs.pop();
        assert!(ShardedSampler::from_state(&pool, SamplerState::Sharded(bad)).is_err());

        // Shard tags must agree with the outer method tag.
        let mut bad = good.clone();
        bad.method = SamplerMethod::Oasis;
        assert!(ShardedSampler::from_state(&pool, SamplerState::Sharded(bad)).is_err());

        // No shards at all.
        let mut bad = good.clone();
        bad.shards.clear();
        bad.shard_rngs.clear();
        assert!(ShardedSampler::from_state(&pool, SamplerState::Sharded(bad)).is_err());

        // Nested sharded states are refused.
        let mut bad = good.clone();
        bad.shards[0] = SamplerState::Sharded(good.clone());
        assert!(ShardedSampler::from_state(&pool, SamplerState::Sharded(bad)).is_err());

        // A flat state is not a sharded one.
        let flat = crate::samplers::PassiveSampler::new(0.5).state();
        assert!(ShardedSampler::from_state(&pool, flat).is_err());
    }

    #[test]
    fn oracle_driven_run_consumes_the_session_stream_only_for_selection() {
        // Two sharded samplers over different session seeds but identical
        // shard seeds: shard-private streams mean per-shard draw sequences
        // depend only on how often each shard is selected, not on the
        // session stream's values between selections.  (Sanity check that
        // the RNG separation is really wired up.)
        let (pool, truth) = pool_and_truth(300, 8);
        let mut a = ShardedSampler::new(SamplerMethod::Passive, &pool, &config(), 3, 5).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(100);
        let mut rng_b = StdRng::seed_from_u64(200);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut selections_a = Vec::new();
        let mut selections_b = Vec::new();
        for _ in 0..60 {
            let pa = a.propose(&pool, &mut rng_a);
            let pb = b.propose(&pool, &mut rng_b);
            selections_a.push(a.pool().shard_of_item(pa.item));
            selections_b.push(b.pool().shard_of_item(pb.item));
            let la = oracle.query(pa.item, &mut rng_a).unwrap();
            a.apply_label(&pa, la);
            let lb = oracle.query(pb.item, &mut rng_b).unwrap();
            b.apply_label(&pb, lb);
        }
        // Different session streams select different shard sequences…
        assert_ne!(selections_a, selections_b);
        // …but whenever both runs visit the same shard for the k-th time,
        // the item drawn inside the shard is identical (same private
        // stream).  Compare the first visit to shard 0 in each run.
        let first_a = selections_a.iter().position(|&s| s == 0);
        let first_b = selections_b.iter().position(|&s| s == 0);
        if let (Some(_), Some(_)) = (first_a, first_b) {
            // Re-run to capture items (clone fresh samplers).
            let mut a2 =
                ShardedSampler::new(SamplerMethod::Passive, &pool, &config(), 3, 5).unwrap();
            let mut b2 =
                ShardedSampler::new(SamplerMethod::Passive, &pool, &config(), 3, 5).unwrap();
            let mut rng_a2 = StdRng::seed_from_u64(100);
            let mut rng_b2 = StdRng::seed_from_u64(200);
            let mut first_item_a = None;
            let mut first_item_b = None;
            for _ in 0..60 {
                let pa = a2.propose(&pool, &mut rng_a2);
                if first_item_a.is_none() && a2.pool().shard_of_item(pa.item) == 0 {
                    first_item_a = Some(pa.item);
                }
                let pb = b2.propose(&pool, &mut rng_b2);
                if first_item_b.is_none() && b2.pool().shard_of_item(pb.item) == 0 {
                    first_item_b = Some(pb.item);
                }
            }
            assert_eq!(first_item_a, first_item_b);
        }
    }
}
