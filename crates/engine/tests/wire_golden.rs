//! Wire and WAL byte identity for the per-label records.  A scripted run
//! through `Request::parse` → `dispatch` → `render` pins the exact response
//! bytes of `propose` (tickets with and without `issued_at_us`, expired
//! leases, ticket ids past 2^53), `label`, `estimate` and `checkpoint`
//! (whose `pending` carries tickets too), and `WalRecord::render` pins one
//! log line per `WalEntry` variant, with and without `now_us`.  Every line
//! must match `golden/wire.jsonl` byte for byte, except the `checkpoint`
//! responses, which match `golden/wire-checkpoints-v2.jsonl` (the v1 bytes
//! in `wire.jsonl` stay as read fixtures of `restore_golden.rs`), and every
//! WAL line must parse back to the record it was rendered from.

use oasis::test_fixtures::pool_and_truth;
use oasis_engine::protocol::{dispatch, error_response, Request};
use oasis_engine::{Engine, ManualClock, WalEntry, WalRecord};
use serde::json::{Json, ToJson};
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/wire.jsonl");
const CHECKPOINTS_V2: &str = include_str!("golden/wire-checkpoints-v2.jsonl");

/// Whether a golden line is a `checkpoint` response, pinned by
/// `CHECKPOINTS_V2` instead.
fn is_checkpoint_response(line: &str) -> bool {
    line.starts_with(r#"{"checkpoint":"#)
}

/// 2^53 + 1: the first ticket id an `f64` cannot hold.
const BIG_TICKET: u64 = (1 << 53) + 1;

fn answer(engine: &Engine, line: &str) -> String {
    match Request::parse(line) {
        Ok(request) => dispatch(engine, request).response.render(),
        Err(error) => error_response(&error).render(),
    }
}

/// The ticket ids of a `propose` response, in order.
fn ticket_ids(response: &str) -> Vec<u64> {
    let value = Json::parse(response).unwrap();
    let proposals = value.require("proposals").unwrap().as_array().unwrap();
    proposals
        .iter()
        .map(|ticket| ticket.require("ticket").unwrap().as_u64().unwrap())
        .collect()
}

/// The scripted responses, in golden-file order.
fn responses() -> Vec<String> {
    let (pool, _) = pool_and_truth(40, 2027, 0.25);
    let clock = Arc::new(ManualClock::new());
    let engine = Engine::new().with_lease_clock(Arc::clone(&clock) as _);
    let mut out = Vec::new();
    let mut send = |line: &str| {
        let response = answer(&engine, line);
        out.push(response.clone());
        response
    };

    let mut load = Json::object();
    load.set("cmd", Json::String("load_pool".to_string()));
    load.set("pool", Json::String("p".to_string()));
    load.set("scores", pool.scores().to_vec().to_json());
    load.set("predictions", pool.predictions().to_vec().to_json());
    let loaded = answer(&engine, &load.render());
    assert!(loaded.contains(r#""ok":true"#), "{loaded}");
    send(
        r#"{"cmd":"create_session","session":"plain","pool":"p","seed":5,"config":{"strata_count":4}}"#,
    );
    send(
        r#"{"cmd":"create_session","session":"leased","pool":"p","seed":6,"config":{"strata_count":4},"lease_timeout_us":1000}"#,
    );

    // Without leases: no `issued_at_us`.
    let plain = ticket_ids(&send(r#"{"cmd":"propose","session":"plain","count":4}"#));
    // With leases, at a nonzero lease clock: `issued_at_us` on every ticket.
    clock.advance(2_500);
    send(r#"{"cmd":"propose","session":"leased","count":3}"#);
    // Past the timeout: the next propose reports the expired ids.
    clock.advance(5_000);
    send(r#"{"cmd":"propose","session":"leased","count":1}"#);

    // Labels quoting ticket ids as numbers and as decimal strings, in either
    // key order.
    send(&format!(
        r#"{{"cmd":"label","session":"plain","labels":[{{"ticket":{},"label":true}},{{"label":false,"ticket":"{}"}}]}}"#,
        plain[0], plain[2]
    ));
    send(r#"{"cmd":"estimate","session":"plain"}"#);

    // A session whose ticket ids start past 2^53: restore a checkpoint with
    // `next_ticket` moved there.
    let checkpoint = send(r#"{"cmd":"checkpoint","session":"plain"}"#);
    let mut document = Json::parse(&checkpoint)
        .unwrap()
        .require("checkpoint")
        .unwrap()
        .clone();
    document.set("next_ticket", BIG_TICKET.to_json());
    let mut restore = Json::object();
    restore.set("cmd", Json::String("restore".to_string()));
    restore.set("session", Json::String("big".to_string()));
    restore.set("checkpoint", document);
    send(&restore.render());
    let big = ticket_ids(&send(r#"{"cmd":"propose","session":"big","count":2}"#));
    assert_eq!(big, [BIG_TICKET, BIG_TICKET + 1]);
    send(&format!(
        r#"{{"cmd":"label","session":"big","labels":[{{"ticket":"{}","label":true}},{{"ticket":"{}","label":false}}]}}"#,
        big[1], plain[1]
    ));
    send(r#"{"cmd":"estimate","session":"big"}"#);
    send(r#"{"cmd":"checkpoint","session":"big"}"#);
    out
}

/// One record per `WalEntry` variant, `propose` with and without `now_us`,
/// `label` empty and with ids past 2^53.
fn wal_records() -> Vec<WalRecord> {
    let entries = [
        WalEntry::Propose {
            count: 4,
            now_us: None,
        },
        WalEntry::Propose {
            count: 256,
            now_us: Some(2_500),
        },
        WalEntry::Expire { now_us: 7_500 },
        WalEntry::Label {
            labels: vec![(0, true), (BIG_TICKET, false), (u64::MAX, true)],
        },
        WalEntry::Label { labels: Vec::new() },
        WalEntry::Step { steps: 40 },
        WalEntry::RunBudget {
            label_budget: 100,
            max_steps: 1_000_000,
        },
    ];
    entries
        .into_iter()
        .zip([0, 1, 2, 3, BIG_TICKET, u64::MAX - 1, u64::MAX])
        .map(|(entry, seq)| WalRecord { seq, entry })
        .collect()
}

fn rendered() -> Vec<String> {
    let mut lines = responses();
    lines.extend(wal_records().iter().map(WalRecord::render));
    lines
}

#[test]
fn responses_and_wal_lines_render_to_the_golden_bytes() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let rendered = rendered();
    assert_eq!(golden.len(), rendered.len(), "one golden line per output");
    let mut checkpoints = CHECKPOINTS_V2.lines();
    for (i, (line, &expected)) in rendered.iter().zip(&golden).enumerate() {
        let expected = if is_checkpoint_response(expected) {
            checkpoints
                .next()
                .expect("one v2 line per checkpoint response")
        } else {
            expected
        };
        assert!(
            line == expected,
            "line {i} moved:\n  rendered {line}\n  golden   {expected}"
        );
    }
    assert_eq!(
        checkpoints.next(),
        None,
        "one checkpoint response per v2 line"
    );
}

#[test]
fn golden_wal_lines_parse_back_to_their_records() {
    let records = wal_records();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let wal_lines = &lines[lines.len() - records.len()..];
    for (record, line) in records.iter().zip(wal_lines) {
        assert_eq!(&WalRecord::parse(line).unwrap(), record, "{line}");
    }
}

/// The golden covers what it claims: a ticket weight that needs all 17
/// significant digits, tickets with and without `issued_at_us`, expired
/// leases, and ticket ids past 2^53 on the wire and in the log.
#[test]
fn the_golden_covers_the_edge_cases() {
    let proposes: Vec<Json> = GOLDEN
        .lines()
        .filter(|line| line.contains(r#""proposals":"#))
        .map(|line| Json::parse(line).unwrap())
        .collect();
    let tickets: Vec<Json> = proposes
        .iter()
        .flat_map(|response| {
            response
                .require("proposals")
                .unwrap()
                .as_array()
                .unwrap()
                .into_owned()
        })
        .collect();
    let digits = |weight: f64| {
        format!("{weight:?}")
            .trim_start_matches(['0', '.'])
            .chars()
            .filter(char::is_ascii_digit)
            .count()
    };
    assert!(tickets
        .iter()
        .any(|t| digits(t.require("weight").unwrap().as_f64().unwrap()) == 17));
    assert!(tickets.iter().any(|t| t.get("issued_at_us").is_some()));
    assert!(tickets.iter().any(|t| t.get("issued_at_us").is_none()));
    assert!(proposes.iter().any(|r| r.get("expired").is_some()));
    let big = format!(r#""ticket":"{BIG_TICKET}""#);
    assert!(GOLDEN
        .lines()
        .any(|l| l.contains(r#""proposals":"#) && l.contains(&big)));
    assert!(GOLDEN
        .lines()
        .any(|l| l.contains(r#""op":"label""#) && l.contains(&big)));
    assert!(GOLDEN
        .lines()
        .any(|l| l.contains(r#""now_us":"#) && l.contains(r#""op":"propose""#)));
}
