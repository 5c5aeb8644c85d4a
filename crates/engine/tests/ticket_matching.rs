//! `Session::apply_labels` against the hashed matcher it replaced.
//!
//! Pending queues come from fresh proposes, lease expiries, answered
//! batches and restored checkpoints whose pending order is not ascending.
//! Label batches are subsets of the queue in any order, or carry repeated,
//! never-issued or stale (answered or expired) ids, or are empty.  For
//! every batch the sorted matcher must give the same `Ok(n)` or the same
//! error variant and id as the reference below — the matcher as it was: a
//! `HashMap` of the batch, then a `HashSet` of the pending ids — and leave
//! a checkpoint byte-identical to a twin session that was sent the
//! reference's answers one label at a time, in queue order.

use oasis::pool::ScoredPool;
use oasis::samplers::OasisConfig;
use oasis::test_fixtures::pool_and_truth;
use oasis_engine::{
    EngineError, LabelSource, Session, SessionCheckpoint, SessionLimits, SessionSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The labels the old matcher applies for `labels` against a queue holding
/// `pending` (ids, queue order): in queue order, or its error.
fn hashed_matcher(
    pending: &[u64],
    labels: &[(u64, bool)],
) -> Result<Vec<(u64, bool)>, EngineError> {
    let mut by_ticket: HashMap<u64, bool> = HashMap::with_capacity(labels.len());
    for &(ticket_id, label) in labels {
        if by_ticket.insert(ticket_id, label).is_some() {
            return Err(EngineError::DuplicateTicket(ticket_id));
        }
    }
    let pending_ids: HashSet<u64> = pending.iter().copied().collect();
    for &(ticket_id, _) in labels {
        if !pending_ids.contains(&ticket_id) {
            return Err(EngineError::UnknownTicket(ticket_id));
        }
    }
    Ok(pending
        .iter()
        .filter_map(|id| by_ticket.get(id).map(|&label| (*id, label)))
        .collect())
}

fn new_session(pool: &Arc<ScoredPool>, seed: u64, lease: bool) -> Session {
    let spec = SessionSpec::new("s", "p", seed, LabelSource::external(pool.len()));
    let limits = SessionLimits {
        lease_timeout_us: lease.then_some(1_000),
        max_pending: None,
    };
    Session::new(
        SessionSpec {
            config: OasisConfig::default().with_strata_count(4),
            limits,
            ..spec
        },
        Arc::clone(pool),
    )
    .unwrap()
}

fn pending_ids(session: &Session) -> Vec<u64> {
    session.pending().map(|ticket| ticket.id).collect()
}

/// Restore `session` from its own checkpoint with the pending queue
/// shuffled, and sometimes with `next_ticket` moved further on.
fn reorder_pending(session: &Session, rng: &mut StdRng) -> Session {
    let mut checkpoint = session.checkpoint();
    checkpoint.pending.shuffle(rng);
    if rng.gen_bool(0.3) {
        checkpoint.next_ticket += rng.gen_range(1..1u64 << 40);
    }
    let text = checkpoint.to_json_string();
    Session::restore(
        SessionCheckpoint::from_json_string(&text).unwrap(),
        Arc::clone(session.pool()),
    )
    .unwrap()
}

/// A label batch for a queue holding `pending`, with ids that were issued
/// once but are no longer pending in `stale`.
fn batch(rng: &mut StdRng, pending: &[u64], stale: &[u64], next_ticket: u64) -> Vec<(u64, bool)> {
    let mut ids: Vec<u64> = pending
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.6))
        .collect();
    match rng.gen_range(0..6) {
        0 => ids.clear(),
        1 if !ids.is_empty() => {
            for _ in 0..rng.gen_range(1..3) {
                let repeat = ids[rng.gen_range(0..ids.len())];
                ids.insert(rng.gen_range(0..=ids.len()), repeat);
            }
        }
        2 => {
            let unknown = if rng.gen_bool(0.5) {
                next_ticket + rng.gen_range(0..4u64)
            } else {
                rng.gen()
            };
            ids.insert(rng.gen_range(0..=ids.len()), unknown);
        }
        3 if !stale.is_empty() => {
            let id = stale[rng.gen_range(0..stale.len())];
            ids.insert(rng.gen_range(0..=ids.len()), id);
        }
        _ => {}
    }
    // Any order: as issued, shuffled, or reversed.
    match rng.gen_range(0..3) {
        0 => ids.sort_unstable(),
        1 => ids.shuffle(rng),
        _ => ids.sort_unstable_by(|a, b| b.cmp(a)),
    }
    ids.into_iter().map(|id| (id, rng.gen_bool(0.5))).collect()
}

/// Run one generated history, checking every label batch on the way.
fn check_history(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pool, _) = pool_and_truth(rng.gen_range(40..120), seed, 0.2);
    let pool = Arc::new(pool);
    let mut session = new_session(&pool, seed, rng.gen_bool(0.5));
    let mut stale: Vec<u64> = Vec::new();
    let mut now_us = 0u64;
    for _ in 0..rng.gen_range(4..12) {
        match rng.gen_range(0..5) {
            0 | 1 => {
                session.propose(rng.gen_range(0..24)).unwrap();
            }
            2 => {
                now_us += rng.gen_range(0..800u64);
                stale.extend(session.expire_leases(now_us));
            }
            3 => session = reorder_pending(&session, &mut rng),
            _ => {}
        }
        let pending = pending_ids(&session);
        let next_ticket = session.checkpoint().next_ticket;
        let labels = batch(&mut rng, &pending, &stale, next_ticket);
        let expected = hashed_matcher(&pending, &labels);
        let mut twin = session.clone();
        let before = session.checkpoint().to_json_string();
        let outcome = session.apply_labels(&labels);
        match &expected {
            Ok(applied) => {
                prop_assert_eq!(&outcome, &Ok(applied.len()), "labels {:?}", labels);
                for &answer in applied {
                    twin.apply_labels(&[answer]).unwrap();
                    stale.push(answer.0);
                }
                prop_assert_eq!(
                    session.checkpoint().to_json_string(),
                    twin.checkpoint().to_json_string()
                );
            }
            Err(error) => {
                prop_assert_eq!(&outcome, &Err(error.clone()), "labels {:?}", labels);
                prop_assert_eq!(session.checkpoint().to_json_string(), before);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sorted_matching_agrees_with_the_hashed_matcher(seed in any::<u64>()) {
        check_history(seed)?;
    }
}

#[test]
fn errors_name_the_earliest_offender_in_batch_order() {
    let (pool, _) = pool_and_truth(60, 1, 0.2);
    let pool = Arc::new(pool);
    let mut session = new_session(&pool, 2, false);
    session.propose(6).unwrap();
    // Ticket 4 repeats before ticket 1 does; a repeat outranks an unknown id.
    let labels = [(1, true), (4, false), (99, true), (4, true), (1, false)];
    assert_eq!(
        session.apply_labels(&labels),
        Err(EngineError::DuplicateTicket(4))
    );
    let labels = [(5, true), (77, false), (2, true), (66, false)];
    assert_eq!(
        session.apply_labels(&labels),
        Err(EngineError::UnknownTicket(77))
    );
    assert_eq!(session.pending_count(), 6);
}
