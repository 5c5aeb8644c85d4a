//! Read compatibility of stored checkpoints.  Every envelope in
//! `golden/checkpoints.jsonl` and every `checkpoint` response in
//! `golden/wire.jsonl` is parsed, restored against the pool it was captured
//! on, driven a fixed number of further steps, and its estimate and 95%
//! interval are pinned to `golden/restored.jsonl`.  The two source files are
//! read fixtures: documents a store or a client already holds must restore
//! and continue to the same bytes, whatever format later versions write.

use oasis::test_fixtures::pool_and_truth;
use oasis::ScoredPool;
use oasis_engine::store::parse_envelope;
use oasis_engine::Session;
use serde::json::{Json, ToJson};
use std::sync::Arc;

const CHECKPOINTS: &str = include_str!("golden/checkpoints.jsonl");
const WIRE: &str = include_str!("golden/wire.jsonl");
const GOLDEN: &str = include_str!("golden/restored.jsonl");

/// Propose/label rounds (external sessions) or step batches (oracle
/// sessions) run after the restore.
const ROUNDS: usize = 6;
/// Tickets per round, or steps per batch.
const PER_ROUND: usize = 4;

/// A label that needs no ground truth: even items match.
fn label_of(item: usize) -> bool {
    item.is_multiple_of(2)
}

/// Answer the pending tickets, run the further rounds, and render the
/// result as one line.
fn continue_and_render(mut session: Session) -> String {
    let pending: Vec<(u64, bool)> = session
        .pending()
        .map(|ticket| (ticket.id, label_of(ticket.proposal.item)))
        .collect();
    session.apply_labels(&pending).unwrap();
    for _ in 0..ROUNDS {
        if session.has_oracle() {
            session.step(PER_ROUND).unwrap();
        } else {
            let labels: Vec<(u64, bool)> = session
                .propose(PER_ROUND)
                .unwrap()
                .iter()
                .map(|ticket| (ticket.id, label_of(ticket.proposal.item)))
                .collect();
            session.apply_labels(&labels).unwrap();
        }
    }
    let mut line = Json::object();
    line.set("session", Json::String(session.id().to_string()));
    line.set("estimate", session.estimate().to_json());
    line.set(
        "confidence_interval",
        session.confidence_interval(0.95).to_json(),
    );
    line.set("labels_consumed", session.labels_consumed().to_json());
    line.render()
}

fn restore(document: &str, pool: &Arc<ScoredPool>) -> Session {
    let (checkpoint, _) = parse_envelope(document).unwrap();
    Session::restore(checkpoint, Arc::clone(pool)).unwrap()
}

/// One rendered line per fixture document, in file order: the store
/// envelopes first, then the wire responses.
fn rendered() -> Vec<String> {
    let store_pool = Arc::new(pool_and_truth(48, 2024, 0.2).0);
    let wire_pool = Arc::new(pool_and_truth(40, 2027, 0.25).0);
    let mut lines: Vec<String> = CHECKPOINTS
        .lines()
        .map(|document| continue_and_render(restore(document, &store_pool)))
        .collect();
    for response in WIRE.lines() {
        let value = Json::parse(response).unwrap();
        if let Some(document) = value.get("checkpoint") {
            lines.push(continue_and_render(restore(&document.render(), &wire_pool)));
        }
    }
    lines
}

#[test]
fn stored_checkpoints_restore_and_continue_to_the_golden_estimates() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let rendered = rendered();
    assert_eq!(golden.len(), rendered.len(), "one golden line per document");
    assert_eq!(rendered.len(), CHECKPOINTS.lines().count() + 2);
    for (i, (line, expected)) in rendered.iter().zip(&golden).enumerate() {
        assert!(
            line == expected,
            "document {i} moved:\n  rendered {line}\n  golden   {expected}"
        );
    }
}
