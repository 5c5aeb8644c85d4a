//! Property-based tests of the OASIS crate's core invariants.

use oasis::bayes::BetaBernoulliModel;
use oasis::diagnostics::kl_divergence;
use oasis::estimator::AisEstimator;
use oasis::instrumental::{
    epsilon_greedy, normalise_or_uniform, optimal_mass, pointwise_optimal, stratified_optimal,
};
use oasis::measures::{exhaustive_measures, ConfusionCounts};
use oasis::oracle::{GroundTruthOracle, Oracle};
use oasis::pool::ScoredPool;
use oasis::samplers::{
    AnySampler, InteractiveSampler, OasisConfig, OasisSampler, PassiveSampler, Sampler,
    SamplerMethod, SamplerState, StratifiedSampler, TrackedSampler,
};
use oasis::strata::{CsfStratifier, EqualSizeStratifier, Stratifier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{FromJson, Json, ToJson};

/// Strategy: a pool of (score, prediction, truth) triples with scores in [0, 1].
fn pool_strategy(
    min_len: usize,
    max_len: usize,
) -> impl Strategy<Value = (Vec<f64>, Vec<bool>, Vec<bool>)> {
    prop::collection::vec(
        (0.0f64..=1.0, any::<bool>(), any::<bool>()),
        min_len..max_len,
    )
    .prop_map(|items| {
        let scores = items.iter().map(|(s, _, _)| *s).collect();
        let predictions = items.iter().map(|(_, p, _)| *p).collect();
        let truth = items.iter().map(|(_, _, t)| *t).collect();
        (scores, predictions, truth)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----- measures -----

    #[test]
    fn f_measure_always_within_unit_interval(
        (scores, predictions, truth) in pool_strategy(1, 200),
        alpha in 0.0f64..=1.0,
    ) {
        let _ = scores;
        let m = exhaustive_measures(&predictions, &truth, alpha);
        prop_assert!((0.0..=1.0).contains(&m.f_measure));
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
    }

    #[test]
    fn f_measure_is_between_precision_and_recall(
        (_, predictions, truth) in pool_strategy(1, 200),
    ) {
        let m = exhaustive_measures(&predictions, &truth, 0.5);
        let lo = m.precision.min(m.recall);
        let hi = m.precision.max(m.recall);
        // F_{1/2} is the harmonic mean, hence between precision and recall
        // (when both are defined; undefined values map to 0 and the bound
        // still holds with slack for that edge case).
        prop_assert!(m.f_measure <= hi + 1e-12);
        if m.precision > 0.0 && m.recall > 0.0 {
            prop_assert!(m.f_measure >= lo - 1e-12);
        }
    }

    #[test]
    fn confusion_counts_scale_invariance(
        tp in 0.0f64..100.0, fp in 0.0f64..100.0, fn_ in 0.0f64..100.0,
        scale in 0.1f64..10.0, alpha in 0.0f64..=1.0,
    ) {
        let counts = ConfusionCounts { tp, fp, fn_, tn: 5.0 };
        let scaled = ConfusionCounts { tp: tp * scale, fp: fp * scale, fn_: fn_ * scale, tn: 5.0 * scale };
        match (counts.f_measure(alpha), scaled.f_measure(alpha)) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "definedness must be scale-invariant"),
        }
    }

    // ----- estimator -----

    #[test]
    fn ais_estimator_with_unit_weights_matches_exhaustive(
        (_, predictions, truth) in pool_strategy(1, 200),
        alpha in 0.0f64..=1.0,
    ) {
        let mut est = AisEstimator::new(alpha);
        for (&p, &t) in predictions.iter().zip(truth.iter()) {
            est.observe(1.0, p, t);
        }
        let expected = exhaustive_measures(&predictions, &truth, alpha);
        if let Some(f) = est.f_measure() {
            prop_assert!((f - expected.f_measure).abs() < 1e-9);
        }
    }

    #[test]
    fn ais_estimate_stays_in_unit_interval_for_positive_weights(
        observations in prop::collection::vec((0.001f64..100.0, any::<bool>(), any::<bool>()), 1..300),
        alpha in 0.0f64..=1.0,
    ) {
        let mut est = AisEstimator::new(alpha);
        for &(w, p, t) in &observations {
            est.observe(w, p, t);
        }
        if let Some(f) = est.f_measure() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&f), "f = {f}");
        }
        if let Some(p) = est.precision() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
        }
        if let Some(r) = est.recall() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r));
        }
    }

    // ----- instrumental distributions -----

    #[test]
    fn optimal_mass_is_nonnegative_and_finite(
        prediction in any::<bool>(),
        p in -0.5f64..1.5,
        f in -0.5f64..1.5,
        alpha in 0.0f64..=1.0,
    ) {
        let mass = optimal_mass(prediction, p, f, alpha);
        prop_assert!(mass.is_finite());
        prop_assert!(mass >= 0.0);
    }

    #[test]
    fn stratified_optimal_is_normalised(
        strata in prop::collection::vec((0.01f64..1.0, 0.0f64..=1.0, 0.0f64..=1.0), 1..50),
        f in 0.0f64..=1.0,
        alpha in 0.0f64..=1.0,
    ) {
        let raw_weights: Vec<f64> = strata.iter().map(|(w, _, _)| *w).collect();
        let weights = normalise_or_uniform(&raw_weights);
        let lambdas: Vec<f64> = strata.iter().map(|(_, l, _)| *l).collect();
        let pis: Vec<f64> = strata.iter().map(|(_, _, p)| *p).collect();
        let v = stratified_optimal(&weights, &lambdas, &pis, f, alpha);
        let total: f64 = v.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        prop_assert!(v.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn epsilon_greedy_lower_bounds_every_entry(
        weights in prop::collection::vec(0.01f64..1.0, 1..50),
        epsilon in 0.0001f64..=1.0,
    ) {
        let underlying = normalise_or_uniform(&weights);
        // Adversarial optimal distribution: all mass on index 0.
        let mut optimal = vec![0.0; underlying.len()];
        optimal[0] = 1.0;
        let mixed = epsilon_greedy(&underlying, &optimal, epsilon);
        for (i, (&m, &u)) in mixed.iter().zip(underlying.iter()).enumerate() {
            prop_assert!(m >= epsilon * u - 1e-15, "entry {i} starved");
        }
        let total: f64 = mixed.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pointwise_optimal_is_normalised(
        items in prop::collection::vec((any::<bool>(), 0.0f64..=1.0), 1..200),
        f in 0.0f64..=1.0,
    ) {
        let predictions: Vec<bool> = items.iter().map(|(p, _)| *p).collect();
        let probabilities: Vec<f64> = items.iter().map(|(_, q)| *q).collect();
        let q = pointwise_optimal(&predictions, &probabilities, f, 0.5);
        let total: f64 = q.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    // ----- KL divergence -----

    #[test]
    fn kl_divergence_nonnegative_and_zero_on_self(
        weights in prop::collection::vec(0.01f64..1.0, 1..50),
    ) {
        let p = normalise_or_uniform(&weights);
        prop_assert!(kl_divergence(&p, &p).abs() < 1e-12);
        let q = normalise_or_uniform(&weights.iter().rev().cloned().collect::<Vec<_>>());
        prop_assert!(kl_divergence(&p, &q) >= -1e-12);
    }

    // ----- Bayesian model -----

    #[test]
    fn posterior_means_stay_in_unit_interval(
        guesses in prop::collection::vec(0.0f64..=1.0, 1..30),
        eta in 0.1f64..100.0,
        observations in prop::collection::vec((0usize..30, any::<bool>()), 0..200),
        decay in any::<bool>(),
    ) {
        let mut model = BetaBernoulliModel::from_prior_guess(&guesses, eta, decay).unwrap();
        for &(stratum, label) in &observations {
            if stratum < guesses.len() {
                model.observe(stratum, label);
            }
        }
        for k in 0..model.strata_count() {
            let mean = model.posterior_mean(k);
            prop_assert!((0.0..=1.0).contains(&mean), "stratum {k} mean {mean}");
            prop_assert!(model.posterior_variance(k) >= 0.0);
        }
    }

    #[test]
    fn posterior_mean_converges_to_empirical_rate(
        rate_num in 0usize..=20,
        observations in 50usize..200,
    ) {
        let rate = rate_num as f64 / 20.0;
        let mut model = BetaBernoulliModel::from_prior_guess(&[0.5], 2.0, false).unwrap();
        let positives = (observations as f64 * rate).round() as usize;
        for i in 0..observations {
            model.observe(0, i < positives);
        }
        let empirical = positives as f64 / observations as f64;
        prop_assert!((model.posterior_mean(0) - empirical).abs() < 0.05);
    }

    // ----- stratification -----

    #[test]
    fn csf_stratification_is_a_partition(
        (scores, predictions, _) in pool_strategy(2, 300),
        k in 1usize..40,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let strata = CsfStratifier::new(k).stratify(&pool).unwrap();
        let mut seen = vec![false; pool.len()];
        for s in 0..strata.len() {
            for i in strata.members(s).iter().map(|&i| i as usize) {
                prop_assert!(!seen[i], "item {i} in two strata");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some item unallocated");
        prop_assert!(strata.len() <= k);
        let weight_sum: f64 = strata.weights().iter().sum();
        prop_assert!((weight_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equal_size_stratification_is_balanced_partition(
        (scores, predictions, _) in pool_strategy(2, 300),
        k in 1usize..40,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let strata = EqualSizeStratifier::new(k).stratify(&pool).unwrap();
        let sizes: Vec<usize> = (0..strata.len()).map(|s| strata.size(s)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {sizes:?}");
        prop_assert_eq!(sizes.iter().sum::<usize>(), pool.len());
    }

    // ----- samplers -----

    #[test]
    fn oasis_importance_weights_are_bounded_by_one_over_epsilon(
        (scores, predictions, truth) in pool_strategy(5, 150),
        epsilon in 0.01f64..=1.0,
        seed in any::<u64>(),
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = OasisConfig::default()
            .with_strata_count(5)
            .with_epsilon(epsilon);
        let mut sampler = OasisSampler::new(&pool, config).unwrap();
        for _ in 0..30 {
            let outcome = sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            // w = ω_k / v_k ≤ ω_k / (ε ω_k) = 1/ε  (paper, proof of Theorem 3)
            prop_assert!(outcome.weight <= 1.0 / epsilon + 1e-9,
                "weight {} exceeds 1/ε = {}", outcome.weight, 1.0 / epsilon);
            prop_assert!(outcome.weight > 0.0);
        }
    }

    #[test]
    fn samplers_never_exceed_pool_bounds_and_respect_budget_accounting(
        (scores, predictions, truth) in pool_strategy(3, 100),
        seed in any::<u64>(),
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let n = pool.len();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut oracle = GroundTruthOracle::new(truth.clone());
        let mut passive = PassiveSampler::new(0.5);
        let mut stratified = StratifiedSampler::new(&pool, 0.5, 5).unwrap();
        let mut oasis = OasisSampler::new(&pool, OasisConfig::default().with_strata_count(5)).unwrap();
        for _ in 0..40 {
            let a = passive.step(&pool, &mut oracle, &mut rng).unwrap();
            let b = stratified.step(&pool, &mut oracle, &mut rng).unwrap();
            let c = oasis.step(&pool, &mut oracle, &mut rng).unwrap();
            prop_assert!(a.item < n && b.item < n && c.item < n);
        }
        // Budget accounting: distinct labels ≤ min(pool size, total queries).
        prop_assert!(oracle.labels_consumed() <= n);
        prop_assert!(oracle.labels_consumed() <= oracle.queries_issued());
        prop_assert_eq!(oracle.queries_issued(), 120);
    }

    #[test]
    fn exhausting_the_pool_recovers_exact_measures_for_oasis(
        (scores, predictions, truth) in pool_strategy(3, 60),
        seed in any::<u64>(),
    ) {
        // With enough iterations on a small pool every item gets labelled; the
        // OASIS estimate must then be close to the exact pool F-measure
        // (consistency, Theorem 3, in its finite-pool form).
        let pool = ScoredPool::new(scores, predictions.clone()).unwrap();
        let target = exhaustive_measures(&predictions, &truth, 0.5);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = OasisConfig::default().with_strata_count(4).with_epsilon(0.2);
        let mut sampler = OasisSampler::new(&pool, config).unwrap();
        let iterations = pool.len() * 400;
        let est = sampler.run(&pool, &mut oracle, &mut rng, iterations).unwrap();
        if target.f_measure > 0.0 {
            prop_assert!((est.to_measures().f_measure - target.f_measure).abs() < 0.25,
                "estimate {} vs target {}", est.to_measures().f_measure, target.f_measure);
        }
    }

    // ----- the InteractiveSampler contract, for all four methods -----

    /// Same seed ⇒ a `Sampler::step` loop and a propose/apply-label driver
    /// produce bit-identical draws, weights and estimates.  This is the
    /// invariant the engine's session layer (and therefore `oasis-serve`)
    /// rests on, checked for every method.
    #[test]
    fn propose_apply_matches_step_bitwise_for_every_method(
        (scores, predictions, truth) in pool_strategy(20, 120),
        seed in any::<u64>(),
        steps in 1usize..60,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let config = OasisConfig::default().with_strata_count(4);
        for method in SamplerMethod::ALL {
            let mut stepped = AnySampler::build(method, &pool, &config).unwrap();
            let mut driven = AnySampler::build(method, &pool, &config).unwrap();
            let mut rng_step = StdRng::seed_from_u64(seed);
            let mut rng_drive = StdRng::seed_from_u64(seed);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..steps {
                let outcome = stepped.step(&pool, &mut oracle, &mut rng_step).unwrap();
                let proposal = driven.propose(&pool, &mut rng_drive);
                prop_assert_eq!(outcome.item, proposal.item, "{}", method);
                prop_assert_eq!(
                    outcome.weight.to_bits(), proposal.weight.to_bits(), "{}", method
                );
                // The oracle consumed one extra RNG-free query on the step
                // side; mirror its label without touching the drive stream.
                driven.apply_label(&proposal, truth[proposal.item]);
                // Keep the two RNG streams aligned: GroundTruthOracle does
                // not draw from the RNG, so nothing else to consume.
            }
            let a = stepped.estimate();
            let b = driven.estimate();
            prop_assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits(), "{}", method);
            prop_assert_eq!(a.precision.to_bits(), b.precision.to_bits(), "{}", method);
            prop_assert_eq!(a.recall.to_bits(), b.recall.to_bits(), "{}", method);
            prop_assert_eq!(a.iterations, b.iterations, "{}", method);
        }
    }

    /// `propose_batch` is bit-identical to repeated `propose` on the same
    /// RNG stream, and leaves the same RNG words, for every method, flat and
    /// sharded (the adaptive sampler refreshes its distribution once per
    /// batch; the stratified ones draw every position before loading any
    /// member; a sharded one draws every shard selection first).
    #[test]
    fn propose_batch_matches_singles_bitwise_for_every_method(
        (scores, predictions, _) in pool_strategy(20, 120),
        seed in any::<u64>(),
        count in 0usize..40,
        shards in 1usize..=4,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let config = OasisConfig::default().with_strata_count(4);
        for method in SamplerMethod::ALL {
            for sharded in [false, true] {
                let build = || if sharded {
                    AnySampler::build_sharded(method, &pool, &config, shards, seed).unwrap()
                } else {
                    AnySampler::build(method, &pool, &config).unwrap()
                };
                let mut batched = build();
                let mut single = build();
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let batch = batched.propose_batch(&pool, &mut rng_a, count);
                prop_assert_eq!(batch.len(), count);
                for proposal in batch {
                    let reference = single.propose(&pool, &mut rng_b);
                    prop_assert_eq!(proposal.item, reference.item, "{} {}", method, sharded);
                    prop_assert_eq!(proposal.stratum, reference.stratum, "{} {}", method, sharded);
                    prop_assert_eq!(
                        proposal.prediction, reference.prediction, "{} {}", method, sharded
                    );
                    prop_assert_eq!(
                        proposal.weight.to_bits(), reference.weight.to_bits(),
                        "{} {}", method, sharded
                    );
                }
                prop_assert_eq!(rng_a.state_words(), rng_b.state_words(), "{} {}", method, sharded);
                // The shards' private streams moved alike too.
                prop_assert_eq!(
                    batched.state().to_json().render(),
                    single.state().to_json().render(),
                    "{} {}", method, sharded
                );
            }
        }
    }

    /// `apply_labels` of a batch leaves the state that `apply_label` per
    /// label leaves, byte for byte in the state's JSON (estimator, posterior,
    /// shard selection masses and variance tracker), for every method, flat
    /// and sharded, over several propose/label rounds.
    #[test]
    fn apply_labels_matches_single_applies_for_every_method(
        (scores, predictions, truth) in pool_strategy(20, 120),
        seed in any::<u64>(),
        batches in prop::collection::vec(0usize..40, 1..5),
        shards in 1usize..=4,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let config = OasisConfig::default().with_strata_count(4);
        for method in SamplerMethod::ALL {
            for sharded in [false, true] {
                let build = || {
                    let inner = if sharded {
                        AnySampler::build_sharded(method, &pool, &config, shards, seed).unwrap()
                    } else {
                        AnySampler::build(method, &pool, &config).unwrap()
                    };
                    TrackedSampler::new(inner, config.alpha)
                };
                let mut batched = build();
                let mut single = build();
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                for &count in &batches {
                    let batch = batched.propose_batch(&pool, &mut rng_a, count);
                    let singles = single.propose_batch(&pool, &mut rng_b, count);
                    batched.apply_labels(batch.iter().map(|p| (p, truth[p.item])));
                    for proposal in &singles {
                        single.apply_label(proposal, truth[proposal.item]);
                    }
                    prop_assert_eq!(
                        batched.state().to_json().render(),
                        single.state().to_json().render(),
                        "{} {}", method, sharded
                    );
                }
                let a = batched.estimate();
                let b = single.estimate();
                prop_assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits(), "{}", method);
                prop_assert_eq!(a.iterations, b.iterations, "{}", method);
            }
        }
    }

    /// Checkpoint/restore round trip through the tagged state's JSON text:
    /// the restored sampler continues bit-identically to one that never
    /// stopped, for every method.
    #[test]
    fn tagged_state_json_round_trip_resumes_bitwise_for_every_method(
        (scores, predictions, truth) in pool_strategy(20, 120),
        seed in any::<u64>(),
        cut in 1usize..40,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let config = OasisConfig::default().with_strata_count(4);
        for method in SamplerMethod::ALL {
            let mut sampler = AnySampler::build(method, &pool, &config).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..cut {
                sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            }
            let text = sampler.state().to_json().render();
            let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(parsed.method(), method);
            let mut restored = AnySampler::from_state(&pool, parsed).unwrap();

            // Continue both with identical RNG streams and oracles.
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut oracle_a = GroundTruthOracle::new(truth.clone());
            let mut oracle_b = GroundTruthOracle::new(truth.clone());
            for _ in 0..20 {
                let a = sampler.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
                let b = restored.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
                prop_assert_eq!(a.item, b.item, "{}", method);
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{}", method);
            }
            let ea = sampler.estimate();
            let eb = restored.estimate();
            prop_assert_eq!(ea.f_measure.to_bits(), eb.f_measure.to_bits(), "{}", method);
            prop_assert_eq!(ea.iterations, eb.iterations, "{}", method);
        }
    }

    /// Confidence intervals survive resume: for every method, the
    /// `confidence_interval(0.95)` of a tracked sampler that is checkpointed
    /// mid-run, serialized to JSON text, restored and continued is
    /// bit-identical to the interval of a run that never stopped.
    #[test]
    fn confidence_interval_survives_checkpoint_restore_for_every_method(
        (scores, predictions, truth) in pool_strategy(20, 120),
        seed in any::<u64>(),
        cut in 1usize..40,
        tail in 2usize..30,
    ) {
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let config = OasisConfig::default().with_strata_count(4);
        for method in SamplerMethod::ALL {
            let inner = AnySampler::build(method, &pool, &config).unwrap();
            let mut uninterrupted = TrackedSampler::new(inner, config.alpha);
            let inner = AnySampler::build(method, &pool, &config).unwrap();
            let mut resumed = TrackedSampler::new(inner, config.alpha);

            // Both runs share one RNG stream per arm, seeded identically; the
            // resumed arm crosses a JSON checkpoint boundary at `cut`.
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut oracle_a = GroundTruthOracle::new(truth.clone());
            let mut oracle_b = GroundTruthOracle::new(truth.clone());
            for _ in 0..cut {
                uninterrupted.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
                resumed.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
            }

            let text = resumed.state().to_json().render();
            let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
            let mut resumed = TrackedSampler::<AnySampler>::from_state(&pool, parsed).unwrap();
            prop_assert!(resumed.tracker_complete(), "{}", method);

            for _ in 0..tail {
                uninterrupted.step(&pool, &mut oracle_a, &mut rng_a).unwrap();
                resumed.step(&pool, &mut oracle_b, &mut rng_b).unwrap();
            }
            prop_assert_eq!(
                uninterrupted.tracker().count(), resumed.tracker().count(), "{}", method
            );
            match (
                uninterrupted.confidence_interval(0.95),
                resumed.confidence_interval(0.95),
            ) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{}", method);
                    prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "{}", method);
                    prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "{}", method);
                    prop_assert_eq!(
                        a.standard_error.to_bits(), b.standard_error.to_bits(), "{}", method
                    );
                }
                (None, None) => {}
                (a, b) => prop_assert!(
                    false, "{}: interval definedness diverged: {:?} vs {:?}", method, a, b
                ),
            }
        }
    }
}

/// The batch sizes around the 16 interleaved searches of a batched draw.
const BATCH_SIZES: [usize; 6] = [0, 1, 15, 16, 17, 256];

/// Strategy: a pool with ties (four distinct scores) and zero-weight items
/// (a predicted non-match scored 0 gets no importance mass).
fn tied_pool_strategy() -> impl Strategy<Value = ScoredPool> {
    prop::collection::vec((0usize..4, any::<bool>()), 1..300).prop_map(|items| {
        const SCORES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        let scores = items.iter().map(|&(s, _)| SCORES[s]).collect();
        let predictions = items.iter().map(|&(_, p)| p).collect();
        ScoredPool::new(scores, predictions).unwrap()
    })
}

/// What `CategoricalCdf::sample` drew before batched draws existed: one
/// uniform, then `partition_point` over the left-to-right partial sums, or a
/// uniform index when the total is degenerate.
fn reference_draw(weights: &[f64], rng: &mut StdRng) -> usize {
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |running, &w| {
            *running += w;
            Some(*running)
        })
        .collect();
    let total = *cumulative.last().unwrap();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..cumulative.len());
    }
    let target = rng.gen::<f64>() * total;
    cumulative
        .partition_point(|&c| c < target)
        .min(cumulative.len() - 1)
}

/// The static importance proposal as it was built when it kept three
/// pool-sized arrays: the scores as probabilities (squashed through τ
/// unless they already are), a plug-in F-measure guess, the normalised
/// pointwise optimal distribution, and the weights `(1/N)/q_i`.  Its draws
/// were [`reference_draw`]s over the distribution.
fn three_array_proposal(pool: &ScoredPool, alpha: f64, tau: f64) -> (Vec<f64>, Vec<f64>) {
    let probabilities: Vec<f64> = if pool.scores_are_probabilities() {
        pool.scores().to_vec()
    } else {
        pool.scores()
            .iter()
            .map(|&s| 1.0 / (1.0 + (-(s - tau)).exp()))
            .collect()
    };
    let (mut tp, mut predicted, mut actual) = (0.0, 0.0, 0.0);
    for (&prediction, &p) in pool.predictions().iter().zip(&probabilities) {
        let l_hat = f64::from(u8::from(prediction));
        tp += p * l_hat;
        predicted += l_hat;
        actual += p;
    }
    let denom = alpha * predicted + (1.0 - alpha) * actual;
    let f_guess = if denom > 0.0 {
        (tp / denom).clamp(0.0, 1.0)
    } else {
        0.5
    };
    let proposal = pointwise_optimal(pool.predictions(), &probabilities, f_guess, alpha);
    let uniform = pool.uniform_mass();
    let weights = proposal
        .iter()
        .map(|&q| if q > 0.0 { uniform / q } else { 0.0 })
        .collect();
    (proposal, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An importance sampler's `propose_batch(n)` is `n` successive
    /// `propose` calls: the same proposals, and the same RNG words after.
    #[test]
    fn importance_batches_equal_successive_proposes(
        pool in tied_pool_strategy(),
        seed in any::<u64>(),
        alpha in 0.0f64..=1.0,
    ) {
        let mut batched = oasis::ImportanceSampler::new(&pool, alpha, 0.5).unwrap();
        let mut single = batched.clone();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for count in BATCH_SIZES {
            let batch = batched.propose_batch(&pool, &mut rng_a, count);
            prop_assert_eq!(batch.len(), count);
            for proposal in batch {
                let reference = single.propose(&pool, &mut rng_b);
                prop_assert_eq!(proposal.item, reference.item, "count {}", count);
                prop_assert_eq!(proposal.prediction, reference.prediction);
                prop_assert_eq!(proposal.weight.to_bits(), reference.weight.to_bits());
            }
            prop_assert_eq!(rng_a.state_words(), rng_b.state_words(), "count {}", count);
        }
    }

    /// The importance proposal, which keeps only its CDF and recomputes a
    /// drawn item's probability and weight, draws the items and weights the
    /// three-array build drew, with the same RNG words: over probability
    /// and raw scores, ties, zero-mass items and an all-zero total.
    #[test]
    fn importance_draws_match_the_three_array_build(
        items in prop::collection::vec((0usize..4, any::<bool>()), 1..300),
        raw_scores in any::<bool>(),
        zero_mass in any::<bool>(),
        alpha in 0.0f64..=1.0,
        tau in -1.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // Raw scores leave [0, 1], so they are squashed through τ.
        const SCORES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        let scale = if raw_scores { 6.0 } else { 1.0 };
        let scores: Vec<f64> = items
            .iter()
            .map(|&(s, _)| if zero_mass { 0.0 } else { (SCORES[s] - 0.5) * scale + 0.5 })
            .collect();
        let predictions = items.iter().map(|&(_, p)| p && !zero_mass).collect();
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let (proposal, weights) = three_array_proposal(&pool, alpha, tau);

        let mut sampler = oasis::ImportanceSampler::new(&pool, alpha, tau).unwrap();
        for (item, q) in proposal.iter().enumerate() {
            prop_assert_eq!(sampler.probability(&pool, item).to_bits(), q.to_bits());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rng_reference = StdRng::seed_from_u64(seed);
        for count in BATCH_SIZES {
            let mut drawn = sampler.propose_batch(&pool, &mut rng, count);
            drawn.push(sampler.propose(&pool, &mut rng));
            for draw in drawn {
                let item = reference_draw(&proposal, &mut rng_reference);
                prop_assert_eq!(draw.item, item, "count {}", count);
                prop_assert_eq!(draw.weight.to_bits(), weights[item].to_bits());
            }
            prop_assert_eq!(rng.state_words(), rng_reference.state_words());
        }
    }

    /// `CategoricalCdf::sample_many(n)` is `n` calls of `sample`, and both
    /// draw what a single `partition_point` search drew — over zero weights,
    /// ties and a zero total — leaving the same RNG words.
    #[test]
    fn batched_cdf_draws_equal_single_and_reference_draws(
        picks in prop::collection::vec(0usize..4, 1..300),
        zero_total in any::<bool>(),
        seed in any::<u64>(),
    ) {
        const WEIGHTS: [f64; 4] = [0.0, 1.0, 1.0, 2.5];
        let weights: Vec<f64> = picks
            .iter()
            .map(|&w| if zero_total { 0.0 } else { WEIGHTS[w] })
            .collect();
        let cdf = oasis::CategoricalCdf::new(&weights);
        let mut rng_many = StdRng::seed_from_u64(seed);
        let mut rng_one = StdRng::seed_from_u64(seed);
        let mut rng_reference = StdRng::seed_from_u64(seed);
        for count in BATCH_SIZES {
            let many = cdf.sample_many(&mut rng_many, count);
            prop_assert_eq!(many.len(), count);
            for index in many {
                prop_assert_eq!(index, cdf.sample(&mut rng_one), "count {}", count);
                prop_assert_eq!(index, reference_draw(&weights, &mut rng_reference));
            }
            prop_assert_eq!(rng_many.state_words(), rng_one.state_words());
            prop_assert_eq!(rng_many.state_words(), rng_reference.state_words());
        }
    }
}
