//! The typed label-batch decoder against the tree decoder it replaced.
//!
//! `Request::parse` and `WalRecord::parse` read a line's `labels` array
//! straight off the text.  Generated `label` request lines and WAL lines —
//! keys reordered, repeated and unknown, whitespace between tokens, ticket
//! ids as numbers and as quoted decimals, malformed entries, odd `labels`
//! values on other commands, and truncated or corrupted text — must get the
//! same verdict from both decoders and decode to the same `Request` /
//! `WalRecord`.  A rejected line keeps its error `kind`; a rejected request
//! also keeps its message.  The reference decoders below are the tree
//! decoders as they were: `Json::parse`, then field by field.

use oasis_engine::protocol::Request;
use oasis_engine::{EngineError, EngineResult, WalEntry, WalRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{FromJson, Json, JsonError, JsonResult};

/// The tree decoder of `label`, `estimate` and `propose` request lines.
fn reference_request(line: &str) -> EngineResult<Request> {
    let value = Json::parse(line)?;
    let cmd = value.require("cmd")?.as_str()?.to_string();
    let session = || -> EngineResult<String> { Ok(String::from_json(value.require("session")?)?) };
    match cmd.as_str() {
        "label" => {
            let labels = value.require("labels")?.map_array(|entry| {
                Ok::<_, EngineError>((
                    entry.require("ticket")?.as_u64()?,
                    entry.require("label")?.as_bool()?,
                ))
            })?;
            Ok(Request::Label {
                session: session()?,
                labels,
            })
        }
        "estimate" => Ok(Request::Estimate {
            session: session()?,
        }),
        "propose" => Ok(Request::Propose {
            session: session()?,
            count: match value.get("count") {
                Some(count) => count.as_usize()?,
                None => 1,
            },
        }),
        other => Err(EngineError::Protocol(format!("unknown cmd {other:?}"))),
    }
}

/// The tree decoder of WAL lines.
fn reference_record(line: &str) -> EngineResult<WalRecord> {
    let bad = |e: JsonError| EngineError::Store(format!("bad WAL line: {e}"));
    let value = Json::parse(line).map_err(bad)?;
    reference_record_fields(&value).map_err(bad)
}

fn reference_record_fields(value: &Json) -> JsonResult<WalRecord> {
    let seq = value.require("seq")?.as_u64()?;
    let entry = match value.require("op")?.as_str()? {
        "propose" => WalEntry::Propose {
            count: value.require("count")?.as_usize()?,
            now_us: match value.get("now_us") {
                Some(now) => Some(now.as_u64()?),
                None => None,
            },
        },
        "step" => WalEntry::Step {
            steps: value.require("steps")?.as_usize()?,
        },
        "label" => {
            let raw = value.require("labels")?;
            let Ok(items) = raw.as_array() else {
                return Err(JsonError::new(format!(
                    "labels must be an array, got {raw:?}"
                )));
            };
            let mut labels = Vec::with_capacity(items.len());
            for item in items.iter() {
                labels.push((
                    item.require("ticket")?.as_u64()?,
                    item.require("label")?.as_bool()?,
                ));
            }
            WalEntry::Label { labels }
        }
        other => return Err(JsonError::new(format!("unknown WAL op {other:?}"))),
    };
    Ok(WalRecord { seq, entry })
}

/// The two decoders agree on `line`: both accept it with equal values, or
/// both reject it with the same `kind` (and, when `same_message`, the same
/// message).
fn agree<T: PartialEq + std::fmt::Debug>(
    line: &str,
    typed: EngineResult<T>,
    tree: EngineResult<T>,
    same_message: bool,
) -> Result<(), String> {
    match (typed, tree) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(a), Err(b))
            if a.kind() == b.kind() && (!same_message || a.to_string() == b.to_string()) =>
        {
            Ok(())
        }
        (a, b) => Err(format!("{line}\n  typed {a:?}\n  tree  {b:?}")),
    }
}

fn check_request(line: &str) -> Result<(), String> {
    agree(line, Request::parse(line), reference_request(line), true)
}

fn check_record(line: &str) -> Result<(), String> {
    agree(line, WalRecord::parse(line), reference_record(line), false)
}

/// A JSON value to render: literal text, an array, or an object whose keys
/// may repeat.
#[derive(Clone)]
enum Node {
    Text(String),
    Array(Vec<Node>),
    Object(Vec<(String, Node)>),
}

fn text(s: &str) -> Node {
    Node::Text(s.to_string())
}

fn pick<'a>(rng: &mut StdRng, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0..choices.len())]
}

/// Render `node` with random whitespace around every token.
fn render(node: &Node, rng: &mut StdRng, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_range(0..4) == 0 {
            out.push_str(pick(rng, &[" ", "\t", "\n", "\r\n ", "  "]));
        }
    };
    ws(rng, out);
    match node {
        Node::Text(s) => out.push_str(s),
        Node::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Node::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(key);
                ws(rng, out);
                out.push(':');
                render(value, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// A ticket id: usually a valid number or quoted decimal, sometimes one of
/// the forms `as_u64` rejects or reads surprisingly.
fn ticket(rng: &mut StdRng) -> Node {
    match rng.gen_range(0..10) {
        0..=3 => Node::Text(rng.gen_range(0..1_000u64).to_string()),
        4..=7 => Node::Text(format!("\"{}\"", rng.gen::<u64>())),
        _ => text(pick(
            rng,
            &[
                "9007199254740992",
                "9007199254740993",
                "1e3",
                "-0",
                "-1",
                "1.5",
                "1e400",
                "\"+5\"",
                "\"\\u0031\\u0032\"",
                "\"18446744073709551616\"",
                "\"abc\"",
                "\"\"",
                "true",
                "null",
                "[1]",
                "{}",
            ],
        )),
    }
}

fn label(rng: &mut StdRng) -> Node {
    match rng.gen_range(0..12) {
        0..=10 => text(pick(rng, &["true", "false"])),
        _ => text(pick(rng, &["1", "\"true\"", "null", "[true]"])),
    }
}

/// Any small value, for unknown keys and odd entries.
fn junk(rng: &mut StdRng, depth: usize) -> Node {
    match rng.gen_range(0..if depth > 2 { 6 } else { 8 }) {
        0 => Node::Text(rng.gen_range(-50..50i64).to_string()),
        1 => text(pick(rng, &["0.25", "-1.5e-3", "1E2"])),
        2 => text(pick(
            rng,
            &["\"x\"", "\"a\\\"b\"", "\"\\ud83e\\udd80\"", "\"é\""],
        )),
        3 => text(pick(rng, &["true", "false"])),
        4 => text("null"),
        5 => text("\"ticket\""),
        6 => Node::Array(
            (0..rng.gen_range(0..3))
                .map(|_| junk(rng, depth + 1))
                .collect(),
        ),
        _ => Node::Object(
            (0..rng.gen_range(0..3))
                .map(|_| ("\"k\"".to_string(), junk(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One `labels` entry: an object with `ticket`, `label`, maybe repeats of
/// either, maybe unknown keys, in any order — or, rarely, not an object.
fn entry(rng: &mut StdRng) -> Node {
    if rng.gen_range(0..25) == 0 {
        return junk(rng, 2);
    }
    let mut members = Vec::new();
    if rng.gen_range(0..30) != 0 {
        members.push(("\"ticket\"".to_string(), ticket(rng)));
    }
    if rng.gen_range(0..30) != 0 {
        members.push(("\"label\"".to_string(), label(rng)));
    }
    for _ in 0..rng.gen_range(0..3) {
        let key = pick(
            rng,
            &[
                "\"ticket\"",
                "\"label\"",
                "\"extra\"",
                "\"\"",
                "\"tick\\u0065t\"",
            ],
        );
        let value = match key {
            "\"ticket\"" => ticket(rng),
            "\"label\"" => label(rng),
            _ => junk(rng, 3),
        };
        members.push((key.to_string(), value));
    }
    shuffle(rng, &mut members);
    Node::Object(members)
}

/// A `labels` value: mostly an array of entries.
fn labels(rng: &mut StdRng) -> Node {
    if rng.gen_range(0..20) == 0 {
        return junk(rng, 1);
    }
    Node::Array((0..rng.gen_range(0..6)).map(|_| entry(rng)).collect())
}

/// A top-level object from `members`, with unknown keys and repeats mixed
/// in and the order shuffled, rendered, and sometimes corrupted.
fn line(rng: &mut StdRng, mut members: Vec<(String, Node)>) -> String {
    if rng.gen_range(0..6) == 0 {
        members.push(("\"labels\"".to_string(), labels(rng)));
    }
    if rng.gen_range(0..4) == 0 {
        members.push(("\"note\"".to_string(), junk(rng, 1)));
    }
    shuffle(rng, &mut members);
    let mut out = String::new();
    render(&Node::Object(members), rng, &mut out);
    match rng.gen_range(0..12) {
        // Truncated mid-line, as a torn WAL tail is.
        0 => {
            let mut cut = rng.gen_range(0..out.len());
            while !out.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
        }
        // A stray byte somewhere.
        1 => {
            let mut at = rng.gen_range(0..=out.len());
            while !out.is_char_boundary(at) {
                at -= 1;
            }
            out.insert_str(
                at,
                pick(rng, &["{", "}", "]", ",", ":", "\"", "x", "\u{1}", "\\"]),
            );
        }
        _ => {}
    }
    out
}

fn request_line(rng: &mut StdRng) -> String {
    let mut members = Vec::new();
    if rng.gen_range(0..40) != 0 {
        let cmd = match rng.gen_range(0..10) {
            0 => pick(rng, &["\"estimate\"", "\"propose\"", "\"bogus\"", "7"]),
            _ => "\"label\"",
        };
        members.push(("\"cmd\"".to_string(), text(cmd)));
    }
    if rng.gen_range(0..30) != 0 {
        members.push((
            "\"session\"".to_string(),
            text(pick(rng, &["\"s\"", "\"a\\tb\"", "1"])),
        ));
    }
    if rng.gen_range(0..20) != 0 {
        members.push(("\"labels\"".to_string(), labels(rng)));
    }
    line(rng, members)
}

fn wal_line(rng: &mut StdRng) -> String {
    let mut members = Vec::new();
    if rng.gen_range(0..40) != 0 {
        let seq = match rng.gen_range(0..10) {
            0 => text(pick(rng, &["3", "-1", "\"x\""])),
            _ => Node::Text(format!("\"{}\"", rng.gen::<u64>())),
        };
        members.push(("\"seq\"".to_string(), seq));
    }
    match rng.gen_range(0..10) {
        0 => {
            members.push(("\"op\"".to_string(), text("\"propose\"")));
            members.push(("\"count\"".to_string(), text("4")));
        }
        1 => {
            members.push((
                "\"op\"".to_string(),
                text(pick(rng, &["\"step\"", "\"bogus\"", "1"])),
            ));
            members.push(("\"steps\"".to_string(), text("9")));
        }
        _ => members.push(("\"op\"".to_string(), text("\"label\""))),
    }
    if rng.gen_range(0..20) != 0 {
        members.push(("\"labels\"".to_string(), labels(rng)));
    }
    line(rng, members)
}

#[test]
fn hand_written_edge_cases_agree() {
    let requests = [
        r#"{"cmd":"label","session":"s","labels":[]}"#,
        r#"{"labels":[{"label":true,"ticket":"9007199254740993"}],"session":"s","cmd":"label"}"#,
        r#" { "cmd" : "label" , "session" : "s" , "labels" : [ { "ticket" : 1 , "label" : false } ] } "#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":"x","ticket":2,"label":true}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":2,"label":true,"ticket":"x"}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":1,"label":true,"extra":[{"a":null}]}]}"#,
        r#"{"cmd":"label","session":"s","labels":"nope"}"#,
        r#"{"cmd":"label","session":"s","labels":[1,2]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"label":true}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":1}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":1,"label":1}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":-1,"label":true}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":"x","label":true},]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":"x","label":true}],"x":}"#,
        r#"{"cmd":"label","session":"s","labels":"nope","labels":[]}"#,
        r#"{"cmd":"label","session":"s"}"#,
        r#"{"cmd":"label","labels":[{"ticket":"x","label":true}]}"#,
        r#"{"cmd":"estimate","session":"s","labels":{"odd":true}}"#,
        r#"{"cmd":"propose","session":"s","labels":[{"ticket":"x"}]}"#,
        r#"{"cmd":"label","session":"s","labels":[{"ticket":1,"label":true}]} x"#,
        r#"[{"cmd":"label"}]"#,
        r#""label""#,
        "",
    ];
    for line in requests {
        check_request(line).unwrap();
    }
    let records = [
        r#"{"labels":[{"label":true,"ticket":"0"}],"op":"label","seq":"3"}"#,
        r#"{"seq":"3","op":"label","labels":[{"ticket":5,"label":false,"ticket":"6"}]}"#,
        r#"{"labels":"nope","op":"label","seq":"3"}"#,
        r#"{"labels":[{"label":true}],"op":"label","seq":"3"}"#,
        r#"{"op":"label","seq":"3"}"#,
        r#"{"count":4,"labels":"odd","op":"propose","seq":"1"}"#,
        r#"{"labels":[{"label":true,"ticket":"0"}],"op":"la"#,
    ];
    for line in records {
        check_record(line).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_lines_decode_as_the_tree_decoder_did(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let line = request_line(&mut rng);
            if let Err(diff) = check_request(&line) {
                prop_assert!(false, "{}", diff);
            }
        }
    }

    #[test]
    fn wal_lines_decode_as_the_tree_decoder_did(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let line = wal_line(&mut rng);
            if let Err(diff) = check_record(&line) {
                prop_assert!(false, "{}", diff);
            }
        }
    }
}
