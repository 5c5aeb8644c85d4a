//! [`AnySampler`] — enum dispatch over the four sampling methods.
//!
//! The [`Sampler`]/[`InteractiveSampler`] traits have generic methods and are
//! therefore not object-safe; `AnySampler` is the concrete dispatcher that
//! lets method-agnostic drivers (the experiment runner, the `oasis-engine`
//! session layer, the `oasis-serve` protocol) hold "some sampler" as a plain
//! value, construct one from a [`SamplerMethod`] tag, and round-trip it
//! through the method-tagged [`SamplerState`].

use super::sharding::ShardedSampler;
use super::state::{SamplerMethod, SamplerState};
use super::{
    ImportanceSampler, InteractiveSampler, OasisConfig, OasisSampler, PassiveSampler, Proposal,
    Sampler, SamplerDiagnostics, StratifiedSampler,
};
use crate::error::Result;
use crate::estimator::Estimate;
use crate::pool::ScoredPool;
use rand::Rng;

/// Enum dispatcher over the concrete sampler types.
// The OASIS variant is a few hundred bytes bigger than the baselines
// (posterior tallies + cached proposal CDF).  Samplers are few and
// long-lived — one per session, never moved on the propose/apply hot
// path — so boxing the variant would buy nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnySampler {
    /// Passive sampler.
    Passive(PassiveSampler),
    /// Proportional stratified sampler.
    Stratified(StratifiedSampler),
    /// Static importance sampler.
    Importance(ImportanceSampler),
    /// OASIS sampler.
    Oasis(OasisSampler),
    /// Sharded ensemble of any of the above (one inner sampler per shard);
    /// see [`ShardedSampler`].
    Sharded(ShardedSampler),
}

/// One `match` arm per variant, delegating an expression to the inner
/// sampler — keeps the trait impl below free of 5× repetition.
macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnySampler::Passive($inner) => $body,
            AnySampler::Stratified($inner) => $body,
            AnySampler::Importance($inner) => $body,
            AnySampler::Oasis($inner) => $body,
            AnySampler::Sharded($inner) => $body,
        }
    };
}

impl AnySampler {
    /// Build a fresh sampler of the given method over `pool`.
    ///
    /// All methods draw their hyperparameters from the one [`OasisConfig`]
    /// (the paper uses the same α, K and τ across the comparison, so the
    /// shared config doubles as the method-agnostic wire config):
    ///
    /// | method | uses |
    /// |---|---|
    /// | `oasis` | every field |
    /// | `passive` | `alpha` |
    /// | `importance` | `alpha`, `score_threshold` |
    /// | `stratified` | `alpha`, `strata_count` |
    ///
    /// # Errors
    /// Invalid configuration (the full config is validated regardless of
    /// method, so a bad field never silently rides along) or a degenerate
    /// pool.
    pub fn build(method: SamplerMethod, pool: &ScoredPool, config: &OasisConfig) -> Result<Self> {
        config.validate()?;
        Ok(match method {
            SamplerMethod::Passive => AnySampler::Passive(PassiveSampler::new(config.alpha)),
            SamplerMethod::Stratified => AnySampler::Stratified(StratifiedSampler::new(
                pool,
                config.alpha,
                config.strata_count,
            )?),
            SamplerMethod::Importance => AnySampler::Importance(ImportanceSampler::new(
                pool,
                config.alpha,
                config.score_threshold,
            )?),
            SamplerMethod::Oasis => AnySampler::Oasis(OasisSampler::new(pool, config.clone())?),
        })
    }

    /// Build a sharded sampler: `pool` partitioned into `shards` contiguous
    /// shards, one fresh `method` sampler per shard (see
    /// [`ShardedSampler::new`] for the seed discipline).  `shards == 1` is
    /// valid and bit-identical to the flat [`AnySampler::build`] sampler.
    ///
    /// # Errors
    /// Invalid shard count, invalid config, or any inner constructor
    /// failure.
    pub fn build_sharded(
        method: SamplerMethod,
        pool: &ScoredPool,
        config: &OasisConfig,
        shards: usize,
        seed: u64,
    ) -> Result<Self> {
        Ok(AnySampler::Sharded(ShardedSampler::new(
            method, pool, config, shards, seed,
        )?))
    }

    /// Number of shards the sampler runs over — `1` for every flat sampler.
    pub fn shard_count(&self) -> usize {
        match self {
            AnySampler::Sharded(s) => s.shard_count(),
            _ => 1,
        }
    }
}

impl InteractiveSampler for AnySampler {
    fn propose<R: Rng + ?Sized>(&mut self, pool: &ScoredPool, rng: &mut R) -> Proposal {
        dispatch!(self, s => s.propose(pool, rng))
    }

    fn propose_batch<R: Rng + ?Sized>(
        &mut self,
        pool: &ScoredPool,
        rng: &mut R,
        count: usize,
    ) -> Vec<Proposal> {
        dispatch!(self, s => s.propose_batch(pool, rng, count))
    }

    fn apply_label(&mut self, proposal: &Proposal, label: bool) {
        dispatch!(self, s => s.apply_label(proposal, label))
    }

    fn apply_labels<'a, I>(&mut self, labelled: I)
    where
        I: IntoIterator<Item = (&'a Proposal, bool)>,
    {
        dispatch!(self, s => s.apply_labels(labelled))
    }

    fn estimate(&self) -> Estimate {
        dispatch!(self, s => s.estimate())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn method(&self) -> SamplerMethod {
        dispatch!(self, s => s.method())
    }

    fn strata_len(&self) -> usize {
        dispatch!(self, s => s.strata_len())
    }

    fn admits(&self, proposal: &Proposal) -> bool {
        dispatch!(self, s => s.admits(proposal))
    }

    fn diagnostics(&self) -> SamplerDiagnostics {
        dispatch!(self, s => s.diagnostics())
    }

    fn instrumental_snapshot(&self) -> Vec<f64> {
        dispatch!(self, s => s.instrumental_snapshot())
    }

    fn proposal_mass(&self) -> f64 {
        dispatch!(self, s => s.proposal_mass())
    }

    fn state(&self) -> SamplerState {
        dispatch!(self, s => s.state())
    }

    /// Rebuild whichever sampler the state's method tag names.  The sharded
    /// topology is matched on the variant first — its `method()` reports the
    /// *inner* method, so tag dispatch alone would mis-route it.
    fn from_state(pool: &ScoredPool, state: SamplerState) -> Result<Self> {
        if let SamplerState::Sharded(_) = &state {
            return Ok(AnySampler::Sharded(ShardedSampler::from_state(
                pool, state,
            )?));
        }
        Ok(match state.method() {
            SamplerMethod::Passive => AnySampler::Passive(PassiveSampler::from_state(pool, state)?),
            SamplerMethod::Stratified => {
                AnySampler::Stratified(StratifiedSampler::from_state(pool, state)?)
            }
            SamplerMethod::Importance => {
                AnySampler::Importance(ImportanceSampler::from_state(pool, state)?)
            }
            SamplerMethod::Oasis => AnySampler::Oasis(OasisSampler::from_state(pool, state)?),
        })
    }
}

impl Sampler for AnySampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_and_truth(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
        crate::test_fixtures::pool_and_truth(n, seed, 0.15)
    }

    fn config() -> OasisConfig {
        OasisConfig::default().with_strata_count(6)
    }

    #[test]
    fn build_covers_every_method_and_reports_it() {
        let (pool, _) = pool_and_truth(300, 1);
        for method in SamplerMethod::ALL {
            let sampler = AnySampler::build(method, &pool, &config()).unwrap();
            assert_eq!(sampler.method(), method);
            assert!(sampler.strata_len() >= 1);
        }
        assert!(AnySampler::build(
            SamplerMethod::Passive,
            &pool,
            &config().with_alpha(f64::NAN)
        )
        .is_err());
    }

    #[test]
    fn any_dispatch_is_bit_identical_to_the_concrete_sampler() {
        let (pool, truth) = pool_and_truth(800, 2);
        for method in SamplerMethod::ALL {
            let mut any = AnySampler::build(method, &pool, &config()).unwrap();
            let mut rng_any = StdRng::seed_from_u64(7);
            let mut oracle_any = GroundTruthOracle::new(truth.clone());

            let mut rng_raw = StdRng::seed_from_u64(7);
            let mut oracle_raw = GroundTruthOracle::new(truth.clone());
            // The concrete counterpart, driven through its own Sampler impl.
            let mut concrete = AnySampler::build(method, &pool, &config()).unwrap();

            for _ in 0..120 {
                let a = any.step(&pool, &mut oracle_any, &mut rng_any).unwrap();
                let b = match &mut concrete {
                    AnySampler::Passive(s) => s.step(&pool, &mut oracle_raw, &mut rng_raw),
                    AnySampler::Stratified(s) => s.step(&pool, &mut oracle_raw, &mut rng_raw),
                    AnySampler::Importance(s) => s.step(&pool, &mut oracle_raw, &mut rng_raw),
                    AnySampler::Oasis(s) => s.step(&pool, &mut oracle_raw, &mut rng_raw),
                    AnySampler::Sharded(s) => s.step(&pool, &mut oracle_raw, &mut rng_raw),
                }
                .unwrap();
                assert_eq!(a.item, b.item, "{method}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{method}");
            }
            let ea = any.estimate();
            let eb = concrete.estimate();
            assert_eq!(ea.f_measure.to_bits(), eb.f_measure.to_bits(), "{method}");
        }
    }

    #[test]
    fn state_round_trips_through_the_tagged_enum_for_every_method() {
        let (pool, truth) = pool_and_truth(600, 3);
        for method in SamplerMethod::ALL {
            let mut sampler = AnySampler::build(method, &pool, &config()).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..80 {
                sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            }
            let state = sampler.state();
            assert_eq!(state.method(), method);
            let mut restored = AnySampler::from_state(&pool, state).unwrap();
            assert_eq!(restored.method(), method);
            assert_eq!(
                restored.estimate().f_measure.to_bits(),
                sampler.estimate().f_measure.to_bits(),
                "{method}"
            );

            // Continuing both with the same RNG stream stays identical.
            let mut rng_a = StdRng::seed_from_u64(13);
            let mut rng_b = StdRng::seed_from_u64(13);
            let mut oracle_a = GroundTruthOracle::new(truth.clone());
            let mut oracle_b = GroundTruthOracle::new(truth.clone());
            for _ in 0..50 {
                let a = sampler.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
                let b = restored.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
                assert_eq!(a.item, b.item, "{method}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{method}");
            }
        }
    }

    #[test]
    fn instrumental_snapshot_is_method_agnostic() {
        // Every method reports a live instrumental distribution over its
        // strata — the method-agnostic replacement for downcasting to the
        // OASIS sampler.
        let (pool, _) = pool_and_truth(100, 4);
        for method in SamplerMethod::ALL {
            let sampler = AnySampler::build(method, &pool, &config()).unwrap();
            let snapshot = sampler.instrumental_snapshot();
            assert_eq!(snapshot.len(), sampler.strata_len(), "{method}");
            assert!(
                snapshot.iter().all(|&p| p.is_finite() && p >= 0.0),
                "{method}"
            );
            assert!(
                (snapshot.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{method}"
            );
            // The snapshot is exactly what diagnostics expose.
            assert_eq!(snapshot, sampler.diagnostics().instrumental, "{method}");
        }
    }

    #[test]
    fn sharded_build_round_trips_through_the_enum() {
        let (pool, truth) = pool_and_truth(400, 5);
        let mut sampler =
            AnySampler::build_sharded(SamplerMethod::Oasis, &pool, &config(), 4, 17).unwrap();
        assert_eq!(sampler.shard_count(), 4);
        assert_eq!(sampler.method(), SamplerMethod::Oasis);
        let flat = AnySampler::build(SamplerMethod::Oasis, &pool, &config()).unwrap();
        assert_eq!(flat.shard_count(), 1);

        let mut rng = StdRng::seed_from_u64(18);
        let mut oracle = GroundTruthOracle::new(truth);
        for _ in 0..120 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        let state = sampler.state();
        // The tag reports the inner method; the variant carries the topology.
        assert_eq!(state.method(), SamplerMethod::Oasis);
        let restored = AnySampler::from_state(&pool, state).unwrap();
        assert_eq!(restored.shard_count(), 4);
        assert_eq!(
            restored.estimate().f_measure.to_bits(),
            sampler.estimate().f_measure.to_bits()
        );
    }
}
