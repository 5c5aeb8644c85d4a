//! Attribute corruption: generating a noisy second description of an entity.
//!
//! When a matched record appears in the second source it is not an exact copy:
//! names carry typos, tokens are dropped or abbreviated, numeric attributes
//! drift, and fields go missing.  The corruption intensity controls how hard
//! the matching problem is — and therefore the classifier operating point,
//! which is what the paper's Table 2 pools differ in.

use crate::record::FieldValue;
use rand::Rng;

/// Corruption intensity parameters, all probabilities per field or per token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Probability of introducing a character-level typo per token.
    pub typo_probability: f64,
    /// Probability of dropping each token.
    pub token_drop_probability: f64,
    /// Probability of abbreviating each token to its first letter.
    pub abbreviation_probability: f64,
    /// Probability that an entire field is missing in the corrupted record.
    pub missing_field_probability: f64,
    /// Relative noise applied to numeric fields (e.g. 0.1 = ±10%).
    pub numeric_noise: f64,
}

impl CorruptionConfig {
    /// Light corruption: matched records remain easy to identify.
    pub fn light() -> Self {
        CorruptionConfig {
            typo_probability: 0.03,
            token_drop_probability: 0.03,
            abbreviation_probability: 0.02,
            missing_field_probability: 0.01,
            numeric_noise: 0.02,
        }
    }

    /// Moderate corruption.
    pub fn moderate() -> Self {
        CorruptionConfig {
            typo_probability: 0.12,
            token_drop_probability: 0.12,
            abbreviation_probability: 0.08,
            missing_field_probability: 0.05,
            numeric_noise: 0.10,
        }
    }

    /// Heavy corruption: many matches become genuinely ambiguous, which drives
    /// classifier recall down (the Abt-Buy regime).
    pub fn heavy() -> Self {
        CorruptionConfig {
            typo_probability: 0.25,
            token_drop_probability: 0.30,
            abbreviation_probability: 0.15,
            missing_field_probability: 0.12,
            numeric_noise: 0.25,
        }
    }

    /// Linear interpolation between [`light`](Self::light) (0.0) and
    /// [`heavy`](Self::heavy) (1.0).
    pub fn with_intensity(intensity: f64) -> Self {
        let t = intensity.clamp(0.0, 1.0);
        let light = Self::light();
        let heavy = Self::heavy();
        // Convex combination written so t = 0 and t = 1 reproduce the end
        // points exactly (no floating-point drift).
        let mix = |a: f64, b: f64| a * (1.0 - t) + b * t;
        CorruptionConfig {
            typo_probability: mix(light.typo_probability, heavy.typo_probability),
            token_drop_probability: mix(light.token_drop_probability, heavy.token_drop_probability),
            abbreviation_probability: mix(
                light.abbreviation_probability,
                heavy.abbreviation_probability,
            ),
            missing_field_probability: mix(
                light.missing_field_probability,
                heavy.missing_field_probability,
            ),
            numeric_noise: mix(light.numeric_noise, heavy.numeric_noise),
        }
    }
}

/// Introduce a single random character typo (substitution, deletion or
/// transposition) into a token.
fn corrupt_token<R: Rng + ?Sized>(token: &str, rng: &mut R) -> String {
    let chars: Vec<char> = token.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let position = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    match rng.gen_range(0..3) {
        0 => {
            // substitution with a random lowercase letter
            out[position] = (b'a' + rng.gen_range(0..26u8)) as char;
        }
        1 => {
            // deletion
            out.remove(position);
        }
        _ => {
            // transposition with the next character (if any)
            if position + 1 < out.len() {
                out.swap(position, position + 1);
            } else if out.len() >= 2 {
                out.swap(position, position - 1);
            }
        }
    }
    out.into_iter().collect()
}

/// Corrupt a text value token by token.
pub fn corrupt_text<R: Rng + ?Sized>(text: &str, config: &CorruptionConfig, rng: &mut R) -> String {
    let mut tokens: Vec<String> = Vec::new();
    for token in text.split_whitespace() {
        if rng.gen_bool(config.token_drop_probability) {
            continue;
        }
        let mut token = token.to_string();
        if rng.gen_bool(config.abbreviation_probability) {
            token = token.chars().take(1).collect();
        } else if rng.gen_bool(config.typo_probability) {
            token = corrupt_token(&token, rng);
        }
        if !token.is_empty() {
            tokens.push(token);
        }
    }
    if tokens.is_empty() {
        // Never corrupt a value into the empty string; keep the first token.
        text.split_whitespace()
            .next()
            .unwrap_or_default()
            .to_string()
    } else {
        tokens.join(" ")
    }
}

/// Produce the corrupted view of an entity's field values for the second
/// source.
pub fn corrupt_values<R: Rng + ?Sized>(
    values: &[FieldValue],
    config: &CorruptionConfig,
    rng: &mut R,
) -> Vec<FieldValue> {
    values
        .iter()
        .map(|value| {
            if rng.gen_bool(config.missing_field_probability) {
                return FieldValue::Missing;
            }
            match value {
                FieldValue::Text(s) => FieldValue::Text(corrupt_text(s, config, rng)),
                FieldValue::Number(x) => {
                    let noise = 1.0 + config.numeric_noise * (rng.gen::<f64>() * 2.0 - 1.0);
                    FieldValue::Number(x * noise)
                }
                FieldValue::Missing => FieldValue::Missing,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::ngram_jaccard;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn intensity_interpolates_between_light_and_heavy() {
        let light = CorruptionConfig::with_intensity(0.0);
        let heavy = CorruptionConfig::with_intensity(1.0);
        let mid = CorruptionConfig::with_intensity(0.5);
        assert_eq!(light, CorruptionConfig::light());
        assert_eq!(heavy, CorruptionConfig::heavy());
        assert!(mid.typo_probability > light.typo_probability);
        assert!(mid.typo_probability < heavy.typo_probability);
        // Out-of-range intensities clamp.
        assert_eq!(CorruptionConfig::with_intensity(-1.0), light);
        assert_eq!(CorruptionConfig::with_intensity(2.0), heavy);
    }

    #[test]
    fn light_corruption_preserves_most_similarity() {
        let mut rng = StdRng::seed_from_u64(1);
        let original = "acme digital camera 404 professional studio edition";
        let mut total = 0.0;
        let runs = 50;
        for _ in 0..runs {
            let corrupted = corrupt_text(original, &CorruptionConfig::light(), &mut rng);
            total += ngram_jaccard(original, &corrupted, 3);
        }
        assert!(
            total / runs as f64 > 0.8,
            "mean similarity {}",
            total / runs as f64
        );
    }

    #[test]
    fn heavy_corruption_degrades_similarity_more_than_light() {
        let mut rng = StdRng::seed_from_u64(2);
        let original = "acme digital camera 404 professional studio edition";
        let mut light_total = 0.0;
        let mut heavy_total = 0.0;
        let runs = 60;
        for _ in 0..runs {
            light_total += ngram_jaccard(
                original,
                &corrupt_text(original, &CorruptionConfig::light(), &mut rng),
                3,
            );
            heavy_total += ngram_jaccard(
                original,
                &corrupt_text(original, &CorruptionConfig::heavy(), &mut rng),
                3,
            );
        }
        assert!(
            light_total > heavy_total,
            "light {light_total} vs heavy {heavy_total}"
        );
    }

    #[test]
    fn corrupt_text_never_returns_empty_for_nonempty_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = CorruptionConfig {
            token_drop_probability: 1.0,
            ..CorruptionConfig::heavy()
        };
        let corrupted = corrupt_text("single", &config, &mut rng);
        assert!(!corrupted.is_empty());
    }

    #[test]
    fn corrupt_values_respects_field_kinds() {
        let mut rng = StdRng::seed_from_u64(4);
        let values = vec![
            FieldValue::Text("golden dragon bistro".into()),
            FieldValue::Number(100.0),
            FieldValue::Missing,
        ];
        let config = CorruptionConfig {
            missing_field_probability: 0.0,
            ..CorruptionConfig::moderate()
        };
        let corrupted = corrupt_values(&values, &config, &mut rng);
        assert!(corrupted[0].as_text().is_some());
        let price = corrupted[1].as_number().unwrap();
        assert!((price - 100.0).abs() <= 10.0 + 1e-9, "price {price}");
        assert!(corrupted[2].is_missing());
    }

    #[test]
    fn missing_field_probability_one_blanks_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let values = vec![FieldValue::Text("abc".into()), FieldValue::Number(1.0)];
        let config = CorruptionConfig {
            missing_field_probability: 1.0,
            ..CorruptionConfig::light()
        };
        let corrupted = corrupt_values(&values, &config, &mut rng);
        assert!(corrupted.iter().all(|v| v.is_missing()));
    }

    #[test]
    fn corrupt_token_changes_or_preserves_length_sensibly() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let out = corrupt_token("camera", &mut rng);
            assert!(!out.is_empty());
            assert!(out.len() >= 5 && out.len() <= 6);
        }
        assert_eq!(corrupt_token("", &mut rng), "");
    }
}
