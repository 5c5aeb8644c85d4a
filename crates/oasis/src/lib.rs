//! # OASIS — Optimal Asymptotic Sequential Importance Sampling
//!
//! A Rust implementation of the OASIS algorithm of Marchant & Rubinstein
//! (*"In Search of an Entity Resolution OASIS: Optimal Asymptotic Sequential
//! Importance Sampling"*, PVLDB 10(11), 2017) for label-efficient evaluation of
//! entity-resolution (ER) systems.
//!
//! ## The problem
//!
//! Evaluating an ER system means estimating its pairwise F-measure, precision
//! and recall against ground truth.  Ground truth labels come from an *oracle*
//! (typically human annotators) and are expensive, while the space of record
//! pairs is both enormous and extremely imbalanced (non-matches can outnumber
//! matches by more than 1000:1).  Uniform ("passive") sampling therefore wastes
//! almost every label on uninformative non-matches.
//!
//! ## The OASIS approach
//!
//! OASIS is an *adaptive importance sampler*:
//!
//! 1. The pool of record pairs is partitioned into `K` strata by similarity
//!    score using the cumulative-√F (CSF) rule ([`strata::CsfStratifier`]).
//! 2. A Beta–Bernoulli model per stratum ([`bayes::BetaBernoulliModel`]) tracks
//!    the posterior over each stratum's match probability, initialised from the
//!    similarity scores ([`samplers::OasisSampler::new`], paper Algorithm 2).
//! 3. Each iteration samples a stratum from the ε-greedy asymptotically optimal
//!    instrumental distribution ([`instrumental`]), queries the oracle for one
//!    pair, and updates both the posterior and the bias-corrected AIS
//!    F-measure estimate ([`estimator::AisEstimator`], paper Algorithm 3).
//!
//! The resulting estimates of F-measure, precision and recall are statistically
//! consistent (paper Theorem 3) and in practice need up to 83% fewer labels
//! than passive sampling.
//!
//! ## Quick example
//!
//! ```
//! use oasis::pool::ScoredPool;
//! use oasis::oracle::{GroundTruthOracle, Oracle};
//! use oasis::samplers::{InteractiveSampler, OasisConfig, OasisSampler, Sampler};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A tiny pool: similarity scores in [0, 1], predictions from some ER system,
//! // and (hidden) ground-truth labels that only the oracle may see.
//! let scores = vec![0.95, 0.9, 0.8, 0.2, 0.15, 0.1, 0.05, 0.02];
//! let predictions = vec![true, true, true, false, false, false, false, false];
//! let truth = vec![true, true, false, false, false, false, false, false];
//!
//! let pool = ScoredPool::new(scores, predictions).unwrap();
//! let mut oracle = GroundTruthOracle::new(truth);
//! let mut rng = StdRng::seed_from_u64(42);
//!
//! let config = OasisConfig::default().with_strata_count(4);
//! let mut sampler = OasisSampler::new(&pool, config).unwrap();
//! for _ in 0..50 {
//!     sampler.step(&pool, &mut oracle, &mut rng).unwrap();
//! }
//! let estimate = sampler.estimate();
//! assert!(estimate.f_measure.is_finite());
//! println!("F-measure ≈ {:.3} after {} labels", estimate.f_measure, oracle.labels_consumed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bayes;
pub mod bitset;
pub mod confidence;
pub mod diagnostics;
pub mod error;
pub mod estimator;
pub mod instrumental;
pub mod measures;
pub mod oracle;
pub mod pool;
pub mod samplers;
pub mod serial;
pub mod strata;

pub use bitset::BitSet;
pub use confidence::{ConfidenceInterval, VarianceTracker};
pub use error::{Error, Result};
pub use estimator::{AisEstimator, Estimate};
pub use measures::{ConfusionCounts, Measures};
pub use oracle::{GroundTruthOracle, NoisyOracle, Oracle};
pub use pool::ScoredPool;
pub use samplers::{
    AnySampler, CategoricalCdf, EstimatorState, FenwickTree, ImportanceSampler, ImportanceState,
    InteractiveSampler, OasisConfig, OasisSampler, OasisState, PassiveSampler, PassiveState,
    Proposal, Sampler, SamplerDiagnostics, SamplerMethod, SamplerState, ShardedPool,
    ShardedSampler, ShardedState, StrataState, StratifiedSampler, StratifiedState, TrackedSampler,
    TrackerState,
};
pub use strata::{
    CsfStratifier, EqualSizeStratifier, Strata, StrataKey, Stratifier, StratifierChoice,
    MAX_STRATA_COUNT,
};

#[cfg(any(test, feature = "test-util"))]
#[doc(hidden)]
pub mod test_fixtures {
    //! Shared fixtures for this crate's unit tests, also exported (behind
    //! the `test-util` feature, hidden from docs) so downstream crates'
    //! test suites — notably `oasis-engine` — can reuse the same synthetic
    //! pools instead of carrying copies.  Not a stable API.

    use crate::pool::ScoredPool;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    /// A deterministic imbalanced pool plus its hidden truth: calibrated
    /// scores that correlate with (but don't perfectly predict) the labels —
    /// the regime OASIS targets.
    pub fn pool_and_truth(n: usize, seed: u64, match_rate: f64) -> (ScoredPool, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let is_match = rng.gen_bool(match_rate);
            let p: f64 = if is_match {
                0.5 + 0.5 * rng.gen::<f64>()
            } else {
                0.5 * rng.gen::<f64>()
            };
            scores.push(p);
            predictions.push(p > 0.5);
            truth.push(is_match);
        }
        (ScoredPool::new(scores, predictions).unwrap(), truth)
    }
}
