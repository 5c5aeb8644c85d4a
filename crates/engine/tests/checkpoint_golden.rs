//! Checkpoint byte identity.  Store envelopes of sessions covering every
//! sampler method (OASIS, passive, importance, stratified and sharded
//! OASIS), both oracle kinds, pending tickets and lease fields are pinned
//! to `golden/checkpoints-v2.jsonl`: each capture must render to its golden
//! line byte for byte, and each golden line must parse back to the
//! checkpoint it was rendered from.  A change to the JSON layer or to any
//! state encoding that moves one byte fails here.
//!
//! `golden/checkpoints.jsonl` holds the same captures as `store-v1`
//! envelopes; `restore_golden.rs` keeps them restoring.

use oasis::{GroundTruthOracle, OasisConfig, SamplerMethod, ScoredPool};
use oasis_engine::store::{parse_envelope, render_envelope};
use oasis_engine::{LabelSource, Session, SessionCheckpoint, SessionLimits, SessionSpec};
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/checkpoints-v2.jsonl");

/// The captures, in golden-file order, with the WAL watermark each
/// envelope carries.
fn captures() -> Vec<(SessionCheckpoint, u64)> {
    let (pool, truth) = oasis::test_fixtures::pool_and_truth(48, 2024, 0.2);
    let pool: Arc<ScoredPool> = Arc::new(pool);
    let config = OasisConfig::default().with_strata_count(4);
    let oracle = || LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone()));
    let session = |method, shards, seed, source, limits| {
        let spec = SessionSpec {
            method,
            config: config.clone(),
            shards,
            limits,
            ..SessionSpec::new(format!("{method:?}-{seed}"), "p", seed, source)
        };
        Session::new(spec, Arc::clone(&pool)).unwrap()
    };
    let mut captures = Vec::new();

    // External OASIS with leases: tickets issued at two lease-clock times,
    // some answered, one expired, the rest pending.
    let limits = SessionLimits {
        lease_timeout_us: Some(5_000),
        max_pending: Some(16),
    };
    let mut leased = session(
        SamplerMethod::Oasis,
        None,
        11,
        LabelSource::external(pool.len()),
        limits,
    );
    leased.expire_leases(1_000);
    let early = leased.propose(3).unwrap();
    leased.expire_leases(4_000);
    let late = leased.propose(4).unwrap();
    leased
        .apply_labels(&[(early[1].id, true), (late[0].id, false)])
        .unwrap();
    assert_eq!(leased.expire_leases(6_500), vec![early[0].id, early[2].id]);
    captures.push((leased.checkpoint(), 7));

    // External OASIS without limits, one propose batch left pending.
    let mut external = session(
        SamplerMethod::Oasis,
        None,
        12,
        LabelSource::external(pool.len()),
        SessionLimits::default(),
    );
    let tickets = external.propose(5).unwrap();
    external.apply_labels(&[(tickets[2].id, true)]).unwrap();
    captures.push((external.checkpoint(), 0));

    // Every method against the ground-truth oracle, sharded OASIS included.
    for (method, shards, seed) in [
        (SamplerMethod::Oasis, None, 13),
        (SamplerMethod::Passive, None, 14),
        (SamplerMethod::Importance, None, 15),
        (SamplerMethod::Stratified, None, 16),
        (SamplerMethod::Oasis, Some(2), 17),
    ] {
        let mut run = session(method, shards, seed, oracle(), SessionLimits::default());
        run.step(20).unwrap();
        run.propose(2).unwrap();
        captures.push((run.checkpoint(), seed));
    }
    captures
}

#[test]
fn checkpoints_render_to_the_golden_bytes() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let captures = captures();
    assert_eq!(golden.len(), captures.len(), "one golden line per capture");
    for (i, ((checkpoint, wal_seq), expected)) in captures.iter().zip(&golden).enumerate() {
        let rendered = render_envelope(checkpoint, *wal_seq);
        assert!(
            rendered == *expected,
            "capture {i} ({}) moved:\n  rendered {rendered}\n  golden   {expected}",
            checkpoint.session_id
        );
    }
}

#[test]
fn golden_envelopes_parse_back_to_their_checkpoints() {
    for ((checkpoint, wal_seq), line) in captures().into_iter().zip(GOLDEN.lines()) {
        let (parsed, parsed_seq) = parse_envelope(line).unwrap();
        assert_eq!(parsed, checkpoint, "{}", checkpoint.session_id);
        assert_eq!(parsed_seq, wal_seq);
    }
}
