//! Request lines longer than the line loop's 64 KiB head, pinned byte for
//! byte.  Each case is one long line (mostly a `load_pool`) followed by two
//! short pipelined lines, a `create_session` on the case's pool and a
//! `propose`, so a pool that loaded shows the items its content draws.  The
//! long lines are generated here from a fixed seed; their responses are
//! pinned in `golden/load_pool_lines.jsonl`, one line per case.  The same
//! bytes must come back through `serve_lines` and through the TCP server,
//! one connection per case, and every long line that is an object must be
//! counted as decoded while it arrived (`streamed_line`).
//!
//! The cases cover both key orders, repeated keys (the last one wins), CRLF
//! and Unicode whitespace around the object, syntax errors in the middle of
//! an array, strings, nested arrays and `1e999` among the scores, a length
//! mismatch, a missing key, bytes that are not UTF-8 before and after a
//! syntax error, a line at the cap and one byte past it, and a last line
//! without its newline.  A few long lines of other commands ride along: a
//! `create_session` with a pool-sized `truth`, label batches behind a long
//! string and with a bad entry, an array, and nothing but whitespace.

use oasis_engine::server::{serve_lines, serve_listener_guarded, MAX_LINE_BYTES};
use oasis_engine::{Counter, Engine};
use serde::json::write_number;
use std::io::{Cursor, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/load_pool_lines.jsonl");

/// Items of a generated pool: its `load_pool` line is ~150 KB.
const POOL_LEN: usize = 6_000;

/// One long request line and the pool its pipelined lines address.
struct Case {
    name: &'static str,
    pool: &'static str,
    /// The long line, with its terminator (none for the last case).
    line: Vec<u8>,
    /// Pad the line with spaces to this many bytes before its newline
    /// (built only when sent: such a line is 64 MiB).
    pad_to: Option<usize>,
}

/// SplitMix64: a fixed stream of words, so the lines are the same on every
/// run.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The members of a generated `load_pool` line, as text.
struct Pool {
    scores: Vec<String>,
    predictions: Vec<String>,
}

impl Pool {
    fn generate(seed: u64) -> Pool {
        let mut words = Words(seed);
        let mut scores = Vec::with_capacity(POOL_LEN);
        let mut predictions = Vec::with_capacity(POOL_LEN);
        for i in 0..POOL_LEN {
            let score = (words.next() >> 11) as f64 / (1u64 << 53) as f64;
            let mut text = String::new();
            // A few integers and exponents among the decimals.
            match i % 97 {
                0 => text.push_str(if score < 0.5 { "0" } else { "1" }),
                1 => text = format!("{score:e}"),
                2 => text = format!("{:E}", score * 1e-3),
                _ => write_number(score, &mut text),
            }
            scores.push(text);
            predictions.push((score > 0.8).to_string());
        }
        Pool {
            scores,
            predictions,
        }
    }

    fn scores(&self) -> String {
        format!("[{}]", self.scores.join(","))
    }

    fn predictions(&self) -> String {
        format!("[{}]", self.predictions.join(","))
    }

    /// A `load_pool` object with `members` in the given order.
    fn object(members: &[(&str, String)]) -> String {
        let members: Vec<String> = members
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// The usual `load_pool` line for `pool`, newline-terminated.
    fn line(&self, pool: &str) -> Vec<u8> {
        let mut line = Pool::object(&[
            ("cmd", "\"load_pool\"".to_string()),
            ("pool", format!("\"{pool}\"")),
            ("scores", self.scores()),
            ("predictions", self.predictions()),
        ])
        .into_bytes();
        line.push(b'\n');
        line
    }

    /// `line(pool)` with the score at `index` replaced by `element`.
    fn with_score(&self, pool: &str, index: usize, element: &str) -> Vec<u8> {
        let mut pool_text = Pool {
            scores: self.scores.clone(),
            predictions: self.predictions.clone(),
        };
        pool_text.scores[index] = element.to_string();
        pool_text.line(pool)
    }
}

/// Replace the first occurrence of `from` in `line` by `to`.
fn splice(line: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at = line
        .windows(from.len())
        .position(|window| window == from)
        .expect("pattern in line");
    [&line[..at], to, &line[at + from.len()..]].concat()
}

/// `line` padded with spaces after the `[` of its scores to exactly `len`
/// bytes before its newline.
fn padded(line: &[u8], len: usize) -> Vec<u8> {
    let key = b"\"scores\":[";
    let at = line.windows(key.len()).position(|w| w == key).unwrap() + key.len();
    let pad = len - (line.len() - 1);
    let mut padded = Vec::with_capacity(len + 1);
    padded.extend_from_slice(&line[..at]);
    padded.resize(at + pad, b' ');
    padded.extend_from_slice(&line[at..]);
    padded
}

fn cases() -> Vec<Case> {
    let pool = Pool::generate(2026);
    let other = Pool::generate(7);
    let mut cases = Vec::new();
    let mut case = |name, pool, line| {
        cases.push(Case {
            name,
            pool,
            line,
            pad_to: None,
        })
    };

    case("keys_in_wire_order", "ordered", pool.line("ordered"));
    let mut reversed = Pool::object(&[
        ("predictions", pool.predictions()),
        ("scores", pool.scores()),
        ("pool", "\"reversed\"".to_string()),
        ("cmd", "\"load_pool\"".to_string()),
    ])
    .into_bytes();
    reversed.push(b'\n');
    case("keys_in_reverse_order", "reversed", reversed);
    let mut repeated = Pool::object(&[
        ("cmd", "\"load_pool\"".to_string()),
        ("pool", "\"discarded\"".to_string()),
        ("scores", other.scores()),
        ("predictions", "[true]".to_string()),
        ("pool", "\"repeated\"".to_string()),
        ("scores", pool.scores()),
        ("predictions", pool.predictions()),
        ("cmd", "\"load_pool\"".to_string()),
    ])
    .into_bytes();
    repeated.push(b'\n');
    case("repeated_keys_last_wins", "repeated", repeated);
    let mut crlf = pool.line("crlf");
    crlf.insert(crlf.len() - 1, b'\r');
    case("crlf_terminated", "crlf", crlf);
    let line = pool.line("unicode_space");
    let mut spaced = " \u{a0}\t\u{3000}".as_bytes().to_vec();
    spaced.extend_from_slice(&line[..line.len() - 1]);
    spaced.extend_from_slice(" \u{2028}\u{85}\r\n".as_bytes());
    case("unicode_whitespace_around", "unicode_space", spaced);
    let mut head_of_spaces = vec![b' '; 70_000];
    head_of_spaces.extend_from_slice(&pool.line("spaces_first"));
    case("head_of_whitespace", "spaces_first", head_of_spaces);
    let escaped = splice(&pool.line("escaped"), b"\"scores\"", b"\"sc\\u006fres\"");
    case("escaped_key", "escaped", escaped);
    case(
        "scores_without_predictions",
        "no_predictions",
        splice(
            &pool.line("no_predictions"),
            b"\"predictions\"",
            b"\"prediction\"",
        ),
    );
    case(
        "missing_scores",
        "no_scores",
        splice(&pool.line("no_scores"), b"\"scores\"", b"\"score\""),
    );
    let mut mismatched = Pool {
        scores: pool.scores.clone(),
        predictions: pool.predictions.clone(),
    };
    mismatched.predictions.pop();
    case(
        "length_mismatch",
        "mismatched",
        mismatched.line("mismatched"),
    );
    case(
        "double_comma_in_scores",
        "double_comma",
        pool.with_score("double_comma", 3_000, "0.5,"),
    );
    case(
        "missing_comma_in_predictions",
        "missing_comma",
        splice(&pool.line("missing_comma"), b",false,", b",false "),
    );
    case(
        "string_among_scores",
        "string_score",
        pool.with_score("string_score", 4_000, "\"0.25\""),
    );
    case(
        "infinity_string_among_scores",
        "inf_score",
        pool.with_score("inf_score", 4_000, "\"inf\""),
    );
    case(
        "nested_array_among_scores",
        "nested_score",
        pool.with_score("nested_score", 5_000, "[0.5,[true]]"),
    );
    case(
        "bool_among_scores",
        "bool_score",
        pool.with_score("bool_score", 2, "true"),
    );
    case(
        "overflowing_score",
        "overflow",
        pool.with_score("overflow", 5_500, "1e999"),
    );
    case(
        "bad_number_in_scores",
        "bad_number",
        pool.with_score("bad_number", 100, "0.5e+"),
    );
    case(
        "bad_literal_in_predictions",
        "bad_literal",
        splice(&pool.line("bad_literal"), b",false,", b",fals,"),
    );
    let invalid_before = pool.with_score("invalid_before", 1_000, "\"xQy\"");
    let invalid_before = splice(&invalid_before, b"xQy", b"x\xffy");
    let invalid_before = splice(&invalid_before, b",true,", b",true,,");
    case(
        "invalid_utf8_before_syntax_error",
        "invalid_before",
        invalid_before,
    );
    let mut invalid_after = splice(&pool.line("invalid_after"), b",true,", b",true,,");
    let tail = invalid_after.len() - 20;
    invalid_after.splice(tail..tail, b"\xc3\x28".iter().copied());
    case(
        "invalid_utf8_after_syntax_error",
        "invalid_after",
        invalid_after,
    );
    let mut truncated_char = pool.line("truncated_char");
    truncated_char.truncate(truncated_char.len() - 3);
    truncated_char.extend_from_slice(b"\xe2\x80\n");
    case(
        "incomplete_utf8_at_the_end",
        "truncated_char",
        truncated_char,
    );
    let mut unclosed = pool.line("unclosed");
    unclosed.truncate(unclosed.len() - 3);
    unclosed.extend_from_slice(" \u{a0}\n".as_bytes());
    case("unclosed_object_then_whitespace", "unclosed", unclosed);
    let mut trailing = pool.line("trailing");
    trailing.insert(trailing.len() - 1, b'x');
    case("trailing_characters", "trailing", trailing);
    let mut inner_space = pool.line("inner_space");
    let comma = inner_space.iter().position(|&b| b == b',').unwrap();
    inner_space.splice(comma..comma, "\u{a0}".bytes());
    case(
        "unicode_whitespace_between_members",
        "inner_space",
        inner_space,
    );
    let mut array_line = pool.scores().into_bytes();
    array_line.push(b'\n');
    case("array_instead_of_object", "array", array_line);
    let mut blank = vec![b' '; 70_000];
    blank.extend_from_slice("\u{3000}\t\n".as_bytes());
    case("whitespace_only", "blank", blank);
    let mut truth = format!(
        "{{\"cmd\":\"create_session\",\"session\":\"truth\",\"pool\":\"ordered\",\"seed\":3,\"truth\":[{}],\"method\":\"passive\"}}",
        // Spaced out past the 64 KiB head.
        pool.predictions.join(",          ")
    )
    .into_bytes();
    truth.push(b'\n');
    case("create_session_with_truth", "truth", truth);
    let mut note = format!(
        "{{\"cmd\":\"label\",\"session\":\"ordered\",\"note\":\"{}\",\"labels\":[{{\"ticket\":\"0\",\"label\":true}},{{\"label\":false,\"ticket\":1}}]}}",
        "x\\\"y".repeat(20_000)
    )
    .into_bytes();
    note.push(b'\n');
    case("labels_after_a_long_string", "ordered", note);
    let mut entries = vec![r#"{"ticket":"2","label":true}"#; 3_000];
    entries[2_000] = r#"{"ticket":"2","label":"yes"}"#;
    let mut bad_entry = format!(
        "{{\"cmd\":\"label\",\"session\":\"ordered\",\"labels\":[{}]}}",
        entries.join(",")
    )
    .into_bytes();
    bad_entry.push(b'\n');
    case("label_batch_with_a_bad_entry", "ordered", bad_entry);
    case("at_the_cap", "at_cap", pool.line("at_cap"));
    case("one_byte_past_the_cap", "past_cap", pool.line("past_cap"));
    let mut last = pool.line("last");
    last.pop();
    case("last_line_without_newline", "last", last);
    let count = cases.len();
    cases[count - 3].pad_to = Some(MAX_LINE_BYTES);
    cases[count - 2].pad_to = Some(MAX_LINE_BYTES + 1);
    cases
}

/// The short lines pipelined after a case's long line.
fn pipelined(case: &Case) -> Vec<u8> {
    format!(
        "{{\"cmd\":\"create_session\",\"session\":\"{0}\",\"pool\":\"{0}\",\"seed\":11}}\n\
         {{\"cmd\":\"propose\",\"session\":\"{0}\",\"count\":3}}\n",
        case.pool
    )
    .into_bytes()
}

/// The bytes one case's connection sends.
fn request_bytes(case: &Case, last: bool) -> Vec<u8> {
    let mut bytes = match case.pad_to {
        Some(len) => padded(&case.line, len),
        None => case.line.clone(),
    };
    if !last {
        bytes.extend_from_slice(&pipelined(case));
    }
    bytes
}

/// One golden line: the case's name and its responses, in order.
fn golden_line(name: &str, output: &[u8]) -> String {
    let output = String::from_utf8(output.to_vec()).expect("responses are UTF-8");
    let responses: Vec<&str> = output.lines().collect();
    format!(
        "{{\"case\":\"{name}\",\"responses\":[{}]}}",
        responses.join(",")
    )
}

/// Every case's golden line, with `serve` answering one connection's bytes.
fn golden_lines(mut serve: impl FnMut(&[u8]) -> Vec<u8>) -> Vec<String> {
    let cases = cases();
    let count = cases.len();
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| golden_line(case.name, &serve(&request_bytes(case, i + 1 == count))))
        .collect()
}

fn assert_golden(actual: &[String]) {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), actual.len(), "one golden line per case");
    for (actual, expected) in actual.iter().zip(&golden) {
        assert_eq!(actual, expected);
    }
}

/// How many cases' long lines are objects, which the line loop decodes
/// as they arrive.
fn streamed_cases() -> u64 {
    let objects = cases()
        .into_iter()
        .filter(|case| {
            String::from_utf8_lossy(&case.line)
                .trim_start()
                .starts_with('{')
        })
        .count();
    objects as u64
}

#[test]
fn long_lines_through_serve_lines_match_the_golden() {
    let engine = Engine::new();
    let actual = golden_lines(|bytes| {
        let mut output = Vec::new();
        serve_lines(&engine, Cursor::new(bytes), &mut output).unwrap();
        output
    });
    assert_golden(&actual);
    // Every long object took the streamed path: buffering them whole would
    // give the same bytes and save nothing.
    assert_eq!(
        engine.metrics().counter(Counter::StreamedLine),
        streamed_cases()
    );
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(_) => std::thread::yield_now(),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

#[test]
fn long_lines_through_the_tcp_server_match_the_golden() {
    let engine = Engine::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let actual = std::thread::scope(|scope| {
        let engine = &engine;
        let server = scope.spawn(move || serve_listener_guarded(engine, listener, None, None));
        let actual = golden_lines(|bytes| {
            let stream = connect(addr);
            let mut reader = stream.try_clone().unwrap();
            // Read while writing: the server answers the long line before
            // the client has sent the lines behind it.
            let output = std::thread::scope(|scope| {
                let read = scope.spawn(move || {
                    let mut output = Vec::new();
                    reader.read_to_end(&mut output).unwrap();
                    output
                });
                (&stream).write_all(bytes).unwrap();
                stream.shutdown(Shutdown::Write).unwrap();
                read.join().unwrap()
            });
            output
        });
        let mut stop = connect(addr);
        stop.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        let mut answer = Vec::new();
        let _ = stop.read_to_end(&mut answer);
        server.join().unwrap().unwrap();
        actual
    });
    assert_golden(&actual);
    assert_eq!(
        engine.metrics().counter(Counter::StreamedLine),
        streamed_cases()
    );
}
