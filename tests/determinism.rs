//! Deterministic-seed regression tests: a fixed seed on a fixed pool must
//! reproduce the same estimates run after run, guarding against silent
//! RNG-stream drift (a re-seeded generator, a reordered draw, a changed
//! stratification tie-break all show up here as a loud failure).

use er_core::datasets::score_model::{DirectPoolConfig, DirectPoolModel};
use oasis::oracle::GroundTruthOracle;
use oasis::samplers::{OasisConfig, OasisSampler, Sampler};
use oasis::Estimate;
use oasis_engine::{LabelSource, Session, SessionCheckpoint, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The fixed synthetic pool every run of these tests evaluates against.
fn fixed_pool() -> (oasis::ScoredPool, Vec<bool>) {
    let config = DirectPoolConfig {
        pool_size: 4000,
        match_count: 60,
        match_logit_mean: 1.2,
        non_match_logit_mean: -3.0,
        logit_noise: 1.4,
        decision_threshold: 0.5,
        uncalibrated_scores: false,
    };
    let mut rng = StdRng::seed_from_u64(90210);
    DirectPoolModel::new(config).generate(&mut rng)
}

/// One complete OASIS run with a fixed sampling seed.
fn run_oasis(seed: u64) -> Estimate {
    let (pool, truth) = fixed_pool();
    let mut oracle = GroundTruthOracle::new(truth);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler =
        OasisSampler::new(&pool, OasisConfig::default().with_strata_count(25)).unwrap();
    sampler
        .run_until_budget(&pool, &mut oracle, &mut rng, 700, 1_000_000)
        .unwrap()
}

#[test]
fn same_seed_reproduces_the_estimate_exactly() {
    let first = run_oasis(42);
    let second = run_oasis(42);
    assert!(first.is_defined());
    assert!(
        (first.f_measure - second.f_measure).abs() <= 1e-9,
        "same-seed F-measure drifted: {} vs {}",
        first.f_measure,
        second.f_measure
    );
    assert!((first.precision - second.precision).abs() <= 1e-9);
    assert!((first.recall - second.recall).abs() <= 1e-9);
}

#[test]
fn different_seeds_explore_different_streams() {
    // Complements the reproducibility check: the seed genuinely steers the
    // sampling path, so identical estimates cannot come from a sampler that
    // ignores its RNG.
    let a = run_oasis(42);
    let b = run_oasis(43);
    assert!(
        (a.f_measure - b.f_measure).abs() > 0.0,
        "two seeds produced bit-identical estimates; is the RNG being used?"
    );
}

/// An engine session on the fixed pool with the given seed.
fn engine_session(seed: u64) -> Session {
    let (pool, truth) = fixed_pool();
    Session::new(
        SessionSpec {
            config: OasisConfig::default().with_strata_count(25),
            ..SessionSpec::new(
                "determinism",
                "fixed",
                seed,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
            )
        },
        Arc::new(pool),
    )
    .unwrap()
}

#[test]
fn engine_session_reproduces_the_library_run_exactly() {
    // The engine's session layer must not perturb the RNG stream: a session
    // with seed s lands on the very same bits as the library loop with seed s.
    let library = run_oasis(42);
    let mut session = engine_session(42);
    let estimate = session
        .run_until_budget(700, 1_000_000)
        .expect("session run");
    assert_eq!(estimate.f_measure.to_bits(), library.f_measure.to_bits());
    assert_eq!(estimate.precision.to_bits(), library.precision.to_bits());
    assert_eq!(estimate.recall.to_bits(), library.recall.to_bits());
    assert_eq!(estimate.iterations, library.iterations);
}

#[test]
fn interrupted_checkpoint_resume_is_bit_identical_to_uninterrupted() {
    // Uninterrupted reference: 600 steps straight through.
    let mut straight = engine_session(2017);
    let expected = straight.step(600).expect("straight run");

    // Interrupted at step 217 (deliberately not a round number): snapshot to
    // JSON text, drop everything, restore, continue.
    let mut interrupted = engine_session(2017);
    interrupted.step(217).expect("first leg");
    let checkpoint_text = interrupted.checkpoint().to_json_string();
    drop(interrupted);

    let (pool, _) = fixed_pool();
    let checkpoint = SessionCheckpoint::from_json_string(&checkpoint_text).expect("parse");
    let mut resumed = Session::restore(checkpoint, Arc::new(pool)).expect("restore");
    let estimate = resumed.step(600 - 217).expect("second leg");

    assert_eq!(
        estimate.f_measure.to_bits(),
        expected.f_measure.to_bits(),
        "resumed F-measure drifted: {} vs {}",
        estimate.f_measure,
        expected.f_measure
    );
    assert_eq!(estimate.precision.to_bits(), expected.precision.to_bits());
    assert_eq!(estimate.recall.to_bits(), expected.recall.to_bits());
    assert_eq!(estimate.iterations, expected.iterations);
    assert_eq!(resumed.labels_consumed(), straight.labels_consumed());
}

#[test]
fn double_checkpointing_changes_nothing() {
    // Checkpointing is read-only: snapshot twice, interleaved with a resumed
    // copy, and all three runs land on the same bits.
    let mut session = engine_session(9);
    session.step(100).unwrap();
    let first = session.checkpoint().to_json_string();
    let second = session.checkpoint().to_json_string();
    assert_eq!(first, second, "checkpoint must not mutate the session");
    let continued = session.step(100).unwrap();

    let (pool, _) = fixed_pool();
    let mut resumed = Session::restore(
        SessionCheckpoint::from_json_string(&first).unwrap(),
        Arc::new(pool),
    )
    .unwrap();
    let resumed_estimate = resumed.step(100).unwrap();
    assert_eq!(
        continued.f_measure.to_bits(),
        resumed_estimate.f_measure.to_bits()
    );
}

#[test]
fn pinned_seed_reproduces_the_golden_estimate() {
    // Golden value recorded when the workspace was bootstrapped. It changes
    // only if the RNG stream, the stratification, or the sampling logic
    // changes — all of which must be deliberate, reviewed decisions. Update
    // the constant (and say why in the commit) if such a change is intended.
    const GOLDEN_F_MEASURE: f64 = 0.510022036087039;
    let estimate = run_oasis(2017);
    assert!(
        (estimate.f_measure - GOLDEN_F_MEASURE).abs() <= 1e-9,
        "RNG-stream drift: golden {GOLDEN_F_MEASURE:.12} vs observed {:.12}",
        estimate.f_measure
    );
}
