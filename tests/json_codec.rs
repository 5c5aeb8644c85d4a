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
//! The parser's verdicts on a few malformed arrays are pinned exactly, and
//! so are the bytes of the report records no checkpoint golden covers
//! (`Estimate`, `Measures`, `ConfusionCounts`, `ConfidenceInterval`,
//! `OracleReference`, `SamplerDiagnostics`) with their missing-field errors.

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

/// A report value, its rendered bytes, and the keys its decoder may find
/// missing (the `Option` fields).
fn pin_record<T>(value: &T, golden: &str, optional: &[&str])
where
    T: ToJson + FromJson + std::fmt::Debug,
{
    let rendered = value.to_json().render();
    assert_eq!(rendered, golden);
    // `Debug` prints every f64 in shortest round-trip form (NaN as `NaN`),
    // so equal text means bit-equal fields where `==` would fail on NaN.
    let back = T::from_json(&Json::parse(golden).unwrap()).unwrap();
    assert_eq!(format!("{back:?}"), format!("{value:?}"), "{golden}");
    let Json::Object(map) = Json::parse(golden).unwrap() else {
        panic!("{golden} is not an object");
    };
    for key in map.keys() {
        let mut doc = Json::parse(golden).unwrap();
        doc.remove(key);
        match T::from_json(&doc) {
            Ok(back) if optional.contains(&key.as_str()) => {
                let mut expected = Json::parse(golden).unwrap();
                expected.set(key, Json::Null);
                assert_eq!(back.to_json(), expected, "{key} missing parses to None");
            }
            Ok(back) => panic!("document without required `{key}` parsed: {back:?}"),
            Err(err) => assert_eq!(err.message, format!("missing field `{key}`")),
        }
    }
}

/// The first field each record decodes, which an empty object names.
fn first_missing<T: FromJson + std::fmt::Debug>(key: &str) {
    let err = T::from_json(&Json::object()).unwrap_err();
    assert_eq!(err.message, format!("missing field `{key}`"));
}

#[test]
fn report_records_render_pinned_bytes() {
    use oasis::diagnostics::OracleReference;
    use oasis::{
        ConfidenceInterval, ConfusionCounts, Estimate, Measures, SamplerDiagnostics, SamplerMethod,
    };

    pin_record(
        &Estimate {
            f_measure: f64::NAN,
            precision: 0.25,
            recall: 1.0 / 3.0,
            alpha: 0.5,
            iterations: 17,
        },
        r#"{"alpha":0.5,"f_measure":"NaN","iterations":17,"precision":0.25,"recall":0.3333333333333333}"#,
        &[],
    );
    pin_record(
        &Measures {
            precision: 0.75,
            recall: 6.0 / 7.0,
            f_measure: 0.8,
            alpha: 0.5,
        },
        r#"{"alpha":0.5,"f_measure":0.8,"precision":0.75,"recall":0.8571428571428571}"#,
        &[],
    );
    pin_record(
        &ConfusionCounts {
            tp: 1.5,
            fp: 0.25,
            fn_: 3.0,
            tn: 1e6,
        },
        r#"{"fn":3,"fp":0.25,"tn":1000000,"tp":1.5}"#,
        &[],
    );
    pin_record(
        &ConfidenceInterval {
            estimate: 0.5,
            lower: 0.4,
            upper: 0.6,
            standard_error: 0.051,
            level: 0.95,
        },
        r#"{"estimate":0.5,"level":0.95,"lower":0.4,"standard_error":0.051,"upper":0.6}"#,
        &[],
    );
    pin_record(
        &OracleReference {
            true_pi: vec![0.9, 0.1, 0.0],
            true_f_measure: 6.0 / 7.0,
            optimal_v: vec![0.5, 0.3, 0.2],
            alpha: 0.5,
        },
        r#"{"alpha":0.5,"optimal_v":[0.5,0.3,0.2],"true_f_measure":0.8571428571428571,"true_pi":[0.9,0.1,0]}"#,
        &[],
    );
    let optional = ["effective_sample_size", "normalized_weight_variance"];
    pin_record(
        &SamplerDiagnostics {
            method: SamplerMethod::Passive,
            iterations: 0,
            effective_sample_size: None,
            normalized_weight_variance: None,
            stratum_labels: vec![0.0],
            instrumental: vec![1.0],
            cdf_rebuilds: 0,
        },
        r#"{"cdf_rebuilds":"0","effective_sample_size":null,"instrumental":[1],"iterations":0,"method":"passive","normalized_weight_variance":null,"stratum_labels":[0]}"#,
        &optional,
    );
    pin_record(
        &SamplerDiagnostics {
            method: SamplerMethod::Oasis,
            iterations: 120,
            effective_sample_size: Some(87.5),
            normalized_weight_variance: Some(0.3714285714285714),
            stratum_labels: vec![40.0, 50.0, 30.0],
            instrumental: vec![0.2, 0.5, 0.3],
            cdf_rebuilds: (1 << 53) + 1,
        },
        r#"{"cdf_rebuilds":"9007199254740993","effective_sample_size":87.5,"instrumental":[0.2,0.5,0.3],"iterations":120,"method":"oasis","normalized_weight_variance":0.3714285714285714,"stratum_labels":[40,50,30]}"#,
        &optional,
    );

    first_missing::<Estimate>("f_measure");
    first_missing::<Measures>("precision");
    first_missing::<ConfusionCounts>("tp");
    first_missing::<ConfidenceInterval>("estimate");
    first_missing::<OracleReference>("true_pi");
    first_missing::<SamplerDiagnostics>("method");
}
