//! Properties of the vendored JSON codec's scalar arrays.  `Json::parse`
//! stores an array of all numbers or all bools packed (`Json::Numbers` /
//! `Json::Bools`); that choice must be invisible.  For arrays of integers up
//! to 2^53, `-0.0`, floats that need `{:?}`, bools, strings, nested and
//! empty arrays, and mixes of these:
//!
//! * parse then render is the identity on canonical text;
//! * the parsed value equals, renders like and prints (`Debug`) like the
//!   general `Json::Array` of the same elements;
//! * `Vec<f64>`, `Vec<usize>` and `Vec<bool>` decode both forms to the same
//!   values or the same error, and encode to the same bytes.
//!
//! The parser's verdicts on a few malformed arrays are pinned exactly.

use proptest::prelude::*;
use serde::json::{FromJson, Json, ToJson, MAX_PARSE_DEPTH};

/// 2^53: the largest integer in the exact-integer range the writer prints
/// without a fraction.
const EXACT: u64 = 1 << 53;

#[derive(Debug, Clone)]
enum Element {
    Number(f64),
    Bool(bool),
    Text(String),
    Nested(Vec<Element>),
}

impl Element {
    /// The general-form value, built without the parser.
    fn json(&self) -> Json {
        match self {
            Element::Number(x) => Json::Number(*x),
            Element::Bool(b) => Json::Bool(*b),
            Element::Text(s) => Json::String(s.clone()),
            Element::Nested(items) => Json::Array(items.iter().map(Element::json).collect()),
        }
    }

    /// The canonical text: integral numbers in the exact range print as
    /// integers, every other number (`-0.0` included) as `{:?}`.
    fn text(&self) -> String {
        match self {
            Element::Number(x) if *x == 0.0 && x.is_sign_negative() => "-0.0".to_string(),
            Element::Number(x) if x.fract() == 0.0 && x.abs() <= EXACT as f64 => {
                format!("{}", *x as i64)
            }
            Element::Number(x) => format!("{x:?}"),
            Element::Bool(b) => b.to_string(),
            Element::Text(s) => format!("\"{s}\""),
            Element::Nested(items) => array_text(items, ","),
        }
    }
}

fn array_text(items: &[Element], separator: &str) -> String {
    let inner: Vec<String> = items.iter().map(Element::text).collect();
    format!("[{}]", inner.join(separator))
}

/// One number: an integer up to 2^53 (either sign), `-0.0`, or a float from
/// a wide dynamic range (most need `{:?}`, many with an exponent).
fn number(kind: u32, bits: u64, float: f64) -> f64 {
    match kind % 4 {
        0 => (bits % (EXACT + 1)) as f64,
        1 => -((bits % (EXACT + 1)) as f64),
        2 if bits.is_multiple_of(8) => -0.0,
        _ => float,
    }
}

/// Build the array a case describes.  `mode` 0: numbers, 1: integers in
/// `usize` range, 2: bools, 3: anything, nested arrays included.
fn elements(mode: u32, raw: &[(u32, u64, f64)]) -> Vec<Element> {
    raw.iter()
        .map(|&(kind, bits, float)| match mode {
            0 => Element::Number(number(kind, bits, float)),
            1 => Element::Number((bits % (EXACT + 1)) as f64),
            2 => Element::Bool(bits.is_multiple_of(2)),
            _ => match kind % 6 {
                0 | 1 => Element::Number(number(kind, bits, float)),
                2 => Element::Bool(bits.is_multiple_of(2)),
                3 => Element::Text(format!("s{}", bits % 10)),
                4 => Element::Nested(
                    (0..bits % 4)
                        .map(|i| Element::Number((bits >> (8 * i)) as u8 as f64))
                        .collect(),
                ),
                _ => Element::Nested(vec![
                    Element::Bool(bits.is_multiple_of(3));
                    (bits % 3) as usize
                ]),
            },
        })
        .collect()
}

/// Decode with `T` and describe the outcome, so two decodings can be
/// compared bit for bit (floats by their bits) or message for message.
fn decoded<T: FromJson + ToJson>(value: &Json) -> Result<String, String> {
    T::vec_from_json(value)
        .map(|values| values.to_json().render())
        .map_err(|e| e.message)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_arrays_are_indistinguishable_from_general_ones(
        mode in 0u32..4,
        raw in prop::collection::vec((0u32..16, any::<u64>(), any::<f64>()), 0..24),
        spaced in any::<bool>(),
    ) {
        let items = elements(mode, &raw);
        let canonical = array_text(&items, ",");
        let general = Json::Array(items.iter().map(Element::json).collect());
        prop_assert_eq!(general.render(), canonical.clone());

        let parsed = Json::parse(&canonical).unwrap();
        prop_assert_eq!(parsed.render(), canonical.clone());
        // Equality holds in both directions, packed against general form.
        prop_assert_eq!(&parsed, &general);
        prop_assert_eq!(&general, &parsed);
        prop_assert_eq!(format!("{parsed:?}"), format!("{general:?}"));
        prop_assert_eq!(format!("{parsed:#?}"), format!("{general:#?}"));
        if spaced {
            let loose = Json::parse(&array_text(&items, " ,\n\t")).unwrap();
            prop_assert_eq!(loose.render(), canonical.clone());
        }

        prop_assert_eq!(decoded::<f64>(&parsed), decoded::<f64>(&general));
        prop_assert_eq!(decoded::<usize>(&parsed), decoded::<usize>(&general));
        prop_assert_eq!(decoded::<bool>(&parsed), decoded::<bool>(&general));
        match mode {
            0 => {
                let values = Vec::<f64>::from_json(&parsed).unwrap();
                let expected: Vec<u64> = items
                    .iter()
                    .map(|item| match item {
                        Element::Number(x) => x.to_bits(),
                        other => panic!("not a number: {other:?}"),
                    })
                    .collect();
                prop_assert_eq!(values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), expected);
                prop_assert!(values.to_json() == general);
                prop_assert_eq!(values.to_json().render(), canonical);
            }
            1 => {
                let values = Vec::<usize>::from_json(&parsed).unwrap();
                prop_assert!(values.to_json() == general);
                prop_assert_eq!(values.to_json().render(), canonical);
            }
            2 => {
                let values = Vec::<bool>::from_json(&parsed).unwrap();
                prop_assert!(values.to_json() == general);
                prop_assert_eq!(values.to_json().render(), canonical);
            }
            _ => {}
        }
    }
}

#[test]
fn malformed_arrays_keep_their_verdicts() {
    for (input, error) in [
        ("[1,]", "unexpected character ']' at byte 3"),
        ("[1 2]", "bad array at byte 3"),
        ("[1e999]", "number \"1e999\" overflows f64"),
        ("[tru]", "invalid literal at byte 1"),
        ("[true,1e999]", "number \"1e999\" overflows f64"),
        ("[true,", "unexpected end of input"),
    ] {
        assert_eq!(Json::parse(input).unwrap_err().message, error, "{input}");
    }
    // A scalar element one level past the nesting limit is rejected like
    // any other value there; one level inside it parses.
    for scalar in ["1", "true"] {
        let nested = |depth: usize| format!("{}{scalar}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(
            Json::parse(&nested(MAX_PARSE_DEPTH - 1)).is_ok(),
            "{scalar}"
        );
        assert_eq!(
            Json::parse(&nested(MAX_PARSE_DEPTH)).unwrap_err().message,
            format!("nesting deeper than {MAX_PARSE_DEPTH} levels"),
            "{scalar}"
        );
    }
    let mixed = Json::parse(r#"[1,"a"]"#).unwrap();
    assert_eq!(mixed.render(), r#"[1,"a"]"#);
    assert_eq!(format!("{mixed:?}"), r#"Array([Number(1.0), String("a")])"#);
    assert_eq!(
        Vec::<f64>::from_json(&mixed).unwrap_err().message,
        r#"expected number, got "a""#
    );
}

#[test]
fn empty_arrays_are_equal_in_every_form() {
    let forms = [
        Json::parse("[]").unwrap(),
        Json::Array(Vec::new()),
        Json::Numbers(Vec::new()),
        Json::Bools(Vec::new()),
    ];
    for a in &forms {
        for b in &forms {
            assert!(a == b, "{a:?} != {b:?}");
        }
        assert_eq!(a.render(), "[]");
        assert_eq!(format!("{a:?}"), "Array([])");
    }
    assert!(Json::Numbers(vec![1.0]) != Json::Bools(vec![true]));
    assert!(Json::Numbers(vec![1.0]) != Json::Numbers(vec![1.0, 2.0]));
}
