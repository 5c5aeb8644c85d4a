//! JSON serialization of the crate's state and report types.
//!
//! Every persisted type implements the vendored [`serde::json`] traits
//! ([`ToJson`] / [`FromJson`]), which guarantee exact `f64` round-trips —
//! the property the checkpoint subsystem's bit-identical-resume contract
//! rests on.  A plain record, whose fields each travel under their own name,
//! names its fields once in a [`serde::json_record!`] line; an `Option`
//! field is written as an explicit `null` when unset and reads a missing
//! key as `None`, so documents that predate the field keep parsing.  The
//! types are:
//!
//! * the report types — [`Estimate`], [`Measures`], [`ConfusionCounts`],
//!   [`ConfidenceInterval`], [`OracleReference`], [`SamplerDiagnostics`] —
//!   so experiment results can be persisted and compared across runs;
//! * the configuration — [`OasisConfig`] / [`StratifierChoice`];
//! * the resumable sampler state — the method-tagged [`SamplerState`] enum
//!   and its per-method payloads ([`OasisState`], [`PassiveState`],
//!   [`ImportanceState`], [`StratifiedState`], [`ShardedState`], with
//!   [`EstimatorState`] and [`TrackerState`] inside them).
//!
//! The hand-written impls are the ones with rules of their own: the config's
//! defaults and unknown-key rejection, the OASIS state's fields written only
//! when set, the `"fn"` key of [`ConfusionCounts`], the sharded state's
//! 4-word RNG arrays, and the tagged enums.  The tagged encoding is flat:
//! every state serialises as one object whose `"method"` field names the
//! variant.  Documents *without* a `"method"` field predate the tagged form
//! and are read as OASIS states, so checkpoints written before the redesign
//! keep restoring.

use crate::confidence::ConfidenceInterval;
use crate::diagnostics::OracleReference;
use crate::estimator::Estimate;
use crate::measures::{ConfusionCounts, Measures};
use crate::samplers::{
    EstimatorState, ImportanceState, OasisConfig, OasisState, PassiveState, SamplerDiagnostics,
    SamplerMethod, SamplerState, ShardedState, StratifiedState, StratifierChoice, TrackerState,
};
use serde::json::{FromJson, Json, JsonError, JsonResult, ToJson};
use serde::json_record;

json_record!(Estimate {
    f_measure,
    precision,
    recall,
    alpha,
    iterations
});
json_record!(Measures {
    precision,
    recall,
    f_measure,
    alpha
});
json_record!(ConfidenceInterval {
    estimate,
    lower,
    upper,
    standard_error,
    level
});
json_record!(OracleReference {
    true_pi,
    true_f_measure,
    optimal_v,
    alpha
});
// `weight_sq` is null when the Σw² history is unknown (a snapshot restored
// from a pre-diagnostics document): the estimator restores exactly but
// reports no ESS.
json_record!(EstimatorState {
    alpha,
    weighted_tp,
    weighted_predicted,
    weighted_actual,
    total_weight,
    weight_sq,
    iterations
});
json_record!(TrackerState {
    alpha,
    count,
    sum_n,
    sum_d,
    sum_nn,
    sum_dd,
    sum_nd
});
// A null or missing `tracker` means no variance history was captured.
json_record!(PassiveState { estimator, tracker });
json_record!(ImportanceState {
    score_threshold,
    estimator,
    tracker
});
json_record!(StratifiedState {
    alpha,
    allocations,
    samples,
    true_positives,
    actual_positives,
    iterations,
    tracker
});
// The health report's optional statistics are null before the first label
// (or for snapshots restored from pre-diagnostics documents), so consumers
// can tell "not yet defined" apart from a dropped field.
json_record!(SamplerDiagnostics {
    method,
    iterations,
    effective_sample_size,
    normalized_weight_variance,
    stratum_labels,
    instrumental,
    cdf_rebuilds
});

/// Decode an object key's value, or `default` when the key is absent.  An
/// explicit `null` is decoded like any other value (and rejected unless `T`
/// is an `Option`).
fn field_or<T: FromJson>(value: &Json, key: &str, default: T) -> JsonResult<T> {
    value.get(key).map_or(Ok(default), T::from_json)
}

impl ToJson for ConfusionCounts {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("tp", self.tp.to_json());
        obj.set("fp", self.fp.to_json());
        obj.set("fn", self.fn_.to_json());
        obj.set("tn", self.tn.to_json());
        obj
    }
}

impl FromJson for ConfusionCounts {
    fn from_json(value: &Json) -> JsonResult<Self> {
        Ok(ConfusionCounts {
            tp: value.field("tp")?,
            fp: value.field("fp")?,
            fn_: value.field("fn")?,
            tn: value.field("tn")?,
        })
    }
}

impl ToJson for StratifierChoice {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                StratifierChoice::Csf => "csf",
                StratifierChoice::EqualSize => "equal_size",
            }
            .to_string(),
        )
    }
}

impl FromJson for StratifierChoice {
    fn from_json(value: &Json) -> JsonResult<Self> {
        match value.as_str()? {
            "csf" => Ok(StratifierChoice::Csf),
            "equal_size" => Ok(StratifierChoice::EqualSize),
            other => Err(JsonError::new(format!("unknown stratifier {other:?}"))),
        }
    }
}

impl ToJson for OasisConfig {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("alpha", self.alpha.to_json());
        obj.set("epsilon", self.epsilon.to_json());
        obj.set("strata_count", self.strata_count.to_json());
        obj.set("prior_strength", self.prior_strength.to_json());
        obj.set("decay_prior", self.decay_prior.to_json());
        obj.set("score_threshold", self.score_threshold.to_json());
        obj.set("stratifier", self.stratifier.to_json());
        obj
    }
}

impl FromJson for OasisConfig {
    fn from_json(value: &Json) -> JsonResult<Self> {
        // Missing keys fall back to the paper defaults, so hand-written
        // protocol configs only need to name what they override — but
        // unrecognised keys are rejected, otherwise a typo ("strata" for
        // "strata_count") would silently run with defaults.
        const KNOWN_KEYS: [&str; 7] = [
            "alpha",
            "epsilon",
            "strata_count",
            "prior_strength",
            "decay_prior",
            "score_threshold",
            "stratifier",
        ];
        match value {
            Json::Object(map) => {
                for key in map.keys() {
                    if !KNOWN_KEYS.contains(&key.as_str()) {
                        return Err(JsonError::new(format!(
                            "unknown config key {key:?} (expected one of {KNOWN_KEYS:?})"
                        )));
                    }
                }
            }
            other => {
                return Err(JsonError::new(format!(
                    "config must be an object, got {other:?}"
                )));
            }
        }
        let defaults = OasisConfig::default();
        Ok(OasisConfig {
            alpha: field_or(value, "alpha", defaults.alpha)?,
            epsilon: field_or(value, "epsilon", defaults.epsilon)?,
            strata_count: field_or(value, "strata_count", defaults.strata_count)?,
            prior_strength: field_or(value, "prior_strength", defaults.prior_strength)?,
            decay_prior: field_or(value, "decay_prior", defaults.decay_prior)?,
            score_threshold: field_or(value, "score_threshold", defaults.score_threshold)?,
            stratifier: field_or(value, "stratifier", defaults.stratifier)?,
        })
    }
}

impl ToJson for SamplerMethod {
    fn to_json(&self) -> Json {
        Json::String(self.as_str().to_string())
    }
}

impl FromJson for SamplerMethod {
    fn from_json(value: &Json) -> JsonResult<Self> {
        SamplerMethod::parse(value.as_str()?).map_err(|e| JsonError::new(e.to_string()))
    }
}

impl ToJson for OasisState {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("config", self.config.to_json());
        obj.set("allocations", self.allocations.to_json());
        obj.set("prior_gamma0", self.prior_gamma0.to_json());
        obj.set("prior_gamma1", self.prior_gamma1.to_json());
        obj.set("observed_matches", self.observed_matches.to_json());
        obj.set("observed_non_matches", self.observed_non_matches.to_json());
        obj.set("decay_prior", self.decay_prior.to_json());
        obj.set("estimator", self.estimator.to_json());
        obj.set("initial_f_guess", self.initial_f_guess.to_json());
        obj.set("current_proposal", self.current_proposal.to_json());
        // Written only when set, so documents of samplers awaiting a refit
        // keep their earlier bytes.
        if self.proposal_current {
            obj.set("proposal_current", Json::Bool(true));
        }
        obj.set("cdf_rebuilds", self.cdf_rebuilds.to_json());
        obj.set("tracker", self.tracker.to_json());
        obj
    }
}

impl FromJson for OasisState {
    fn from_json(value: &Json) -> JsonResult<Self> {
        Ok(OasisState {
            config: value.field("config")?,
            allocations: value.field("allocations")?,
            prior_gamma0: value.field("prior_gamma0")?,
            prior_gamma1: value.field("prior_gamma1")?,
            observed_matches: value.field("observed_matches")?,
            observed_non_matches: value.field("observed_non_matches")?,
            decay_prior: value.field("decay_prior")?,
            estimator: value.field("estimator")?,
            initial_f_guess: value.field("initial_f_guess")?,
            current_proposal: value.field("current_proposal")?,
            proposal_current: field_or(value, "proposal_current", false)?,
            // Pre-PR7 documents carry no rebuild counter; start from zero.
            cdf_rebuilds: field_or(value, "cdf_rebuilds", 0)?,
            tracker: value.field("tracker")?,
        })
    }
}

impl ToJson for ShardedState {
    /// Encoding of the sharded topology: the outer `"method"` tag is the
    /// literal `"sharded"` (written by [`SamplerState::to_json`]), the inner
    /// per-shard method rides in `"inner_method"`, and each entry of
    /// `"shards"` is a complete tagged [`SamplerState`] document.  Per-shard
    /// RNG streams serialize as 4-word arrays, the same words the engine
    /// checkpoints for the session RNG.
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("inner_method", self.method.to_json());
        obj.set(
            "shard_rngs",
            Json::Array(
                self.shard_rngs
                    .iter()
                    .map(|words| words.to_vec().to_json())
                    .collect(),
            ),
        );
        obj.set("shards", self.shards.to_json());
        obj.set("tracker", self.tracker.to_json());
        obj
    }
}

impl FromJson for ShardedState {
    fn from_json(value: &Json) -> JsonResult<Self> {
        let raw_rngs: Vec<Vec<u64>> = value.field("shard_rngs")?;
        let mut shard_rngs = Vec::with_capacity(raw_rngs.len());
        for words in raw_rngs {
            let words: [u64; 4] = words
                .try_into()
                .map_err(|_| JsonError::new("shard RNG state must hold exactly 4 words"))?;
            shard_rngs.push(words);
        }
        Ok(ShardedState {
            method: value.field("inner_method")?,
            shard_rngs,
            shards: value.field("shards")?,
            tracker: value.field("tracker")?,
        })
    }
}

impl ToJson for SamplerState {
    /// Flat encoding: the variant payload's fields plus a `"method"` tag.
    /// The sharded topology writes the literal tag `"sharded"` — its
    /// [`SamplerState::method`] reports the *inner* method, which rides in
    /// the payload's `"inner_method"` field instead.
    fn to_json(&self) -> Json {
        let mut obj = match self {
            SamplerState::Oasis(s) => s.to_json(),
            SamplerState::Passive(s) => s.to_json(),
            SamplerState::Importance(s) => s.to_json(),
            SamplerState::Stratified(s) => s.to_json(),
            SamplerState::Sharded(s) => {
                let mut obj = s.to_json();
                obj.set("method", Json::String("sharded".to_string()));
                return obj;
            }
        };
        obj.set("method", self.method().to_json());
        obj
    }
}

impl FromJson for SamplerState {
    /// A missing `"method"` field means a pre-redesign document, which could
    /// only describe an OASIS sampler.  The `"sharded"` tag is checked
    /// before the method names — it marks a topology, not a method.
    fn from_json(value: &Json) -> JsonResult<Self> {
        let method = match value.get("method") {
            Some(tag) => {
                if tag.as_str()? == "sharded" {
                    return Ok(SamplerState::Sharded(ShardedState::from_json(value)?));
                }
                SamplerMethod::from_json(tag)?
            }
            None => SamplerMethod::Oasis,
        };
        Ok(match method {
            SamplerMethod::Oasis => SamplerState::Oasis(OasisState::from_json(value)?),
            SamplerMethod::Passive => SamplerState::Passive(PassiveState::from_json(value)?),
            SamplerMethod::Importance => {
                SamplerState::Importance(ImportanceState::from_json(value)?)
            }
            SamplerMethod::Stratified => {
                SamplerState::Stratified(StratifiedState::from_json(value)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::samplers::{AnySampler, InteractiveSampler, OasisSampler, Sampler, TrackedSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimate_round_trips_including_nan() {
        let est = Estimate {
            f_measure: f64::NAN,
            precision: 0.25,
            recall: 1.0 / 3.0,
            alpha: 0.5,
            iterations: 17,
        };
        let text = est.to_json().render();
        let back = Estimate::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.f_measure.is_nan());
        assert_eq!(back.precision.to_bits(), est.precision.to_bits());
        assert_eq!(back.recall.to_bits(), est.recall.to_bits());
        assert_eq!(back.iterations, 17);
    }

    #[test]
    fn measures_and_confusion_round_trip() {
        let m = Measures {
            precision: 0.75,
            recall: 6.0 / 7.0,
            f_measure: 0.8,
            alpha: 0.5,
        };
        let back = Measures::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, m);
        let c = ConfusionCounts {
            tp: 1.5,
            fp: 0.25,
            fn_: 3.0,
            tn: 1e6,
        };
        let back =
            ConfusionCounts::from_json(&Json::parse(&c.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn confidence_interval_round_trips() {
        let ci = ConfidenceInterval {
            estimate: 0.5,
            lower: 0.4,
            upper: 0.6,
            standard_error: 0.051,
            level: 0.95,
        };
        let back =
            ConfidenceInterval::from_json(&Json::parse(&ci.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, ci);
    }

    #[test]
    fn config_round_trips_and_accepts_partial_objects() {
        let config = OasisConfig::default()
            .with_alpha(0.7)
            .with_prior_strength(12.0)
            .with_stratifier(StratifierChoice::EqualSize);
        let back =
            OasisConfig::from_json(&Json::parse(&config.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, config);

        // Partial configs fall back to paper defaults.
        let partial = OasisConfig::from_json(&Json::parse(r#"{"alpha":0.9}"#).unwrap()).unwrap();
        assert_eq!(partial.alpha, 0.9);
        assert_eq!(partial.strata_count, OasisConfig::default().strata_count);
        assert_eq!(partial.stratifier, StratifierChoice::Csf);
        assert!(
            OasisConfig::from_json(&Json::parse(r#"{"stratifier":"bogus"}"#).unwrap()).is_err()
        );
        // Typo'd keys must not silently fall back to defaults.
        assert!(OasisConfig::from_json(&Json::parse(r#"{"strata":40}"#).unwrap()).is_err());
        assert!(OasisConfig::from_json(&Json::parse("[]").unwrap()).is_err());
    }

    #[test]
    fn diagnostics_reference_round_trips() {
        let reference = OracleReference {
            true_pi: vec![0.9, 0.1, 0.0],
            true_f_measure: 6.0 / 7.0,
            optimal_v: vec![0.5, 0.3, 0.2],
            alpha: 0.5,
        };
        let back = OracleReference::from_json(&Json::parse(&reference.to_json().render()).unwrap())
            .unwrap();
        assert_eq!(back, reference);
    }

    #[test]
    fn sampler_state_json_round_trip_is_bit_identical() {
        let (pool, truth) = crate::test_fixtures::pool_and_truth(800, 10, 0.1);
        let mut rng = StdRng::seed_from_u64(10);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(10)).unwrap();
        for _ in 0..150 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        let state = sampler.state();
        let text = state.to_json().render();
        assert!(text.contains(r#""method":"oasis""#), "tagged encoding");
        let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, state, "JSON round trip must be exact");
        let restored = OasisSampler::from_state(&pool, parsed).unwrap();
        assert_eq!(
            restored.estimate().f_measure.to_bits(),
            sampler.estimate().f_measure.to_bits()
        );
    }

    #[test]
    fn every_method_tag_round_trips_through_json() {
        let (pool, truth) = crate::test_fixtures::pool_and_truth(500, 21, 0.15);
        for method in SamplerMethod::ALL {
            let config = OasisConfig::default().with_strata_count(5);
            let mut sampler = AnySampler::build(method, &pool, &config).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..60 {
                sampler.step(&pool, &mut oracle, &mut rng).unwrap();
            }
            let state = sampler.state();
            let text = state.to_json().render();
            assert!(
                text.contains(&format!(r#""method":"{}""#, method.as_str())),
                "{method}: {text}"
            );
            let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, state, "{method}: JSON round trip must be exact");
            let restored = AnySampler::from_state(&pool, parsed).unwrap();
            assert_eq!(
                restored.estimate().f_measure.to_bits(),
                sampler.estimate().f_measure.to_bits(),
                "{method}"
            );
        }
    }

    #[test]
    fn tracker_state_survives_json_and_pre_tracker_documents_restore_incomplete() {
        let (pool, truth) = crate::test_fixtures::pool_and_truth(500, 27, 0.15);
        for method in SamplerMethod::ALL {
            let config = OasisConfig::default().with_strata_count(5);
            let inner = AnySampler::build(method, &pool, &config).unwrap();
            let mut tracked = TrackedSampler::new(inner, config.alpha);
            let mut rng = StdRng::seed_from_u64(9);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..50 {
                tracked.step(&pool, &mut oracle, &mut rng).unwrap();
            }

            // Current documents carry the tracker sums and restore bit-exactly.
            let text = tracked.state().to_json().render();
            assert!(text.contains(r#""tracker":{"#), "{method}: {text}");
            let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
            let restored = TrackedSampler::<AnySampler>::from_state(&pool, parsed).unwrap();
            assert!(restored.tracker_complete(), "{method}");
            let before = tracked.confidence_interval(0.95).unwrap();
            let after = restored.confidence_interval(0.95).unwrap();
            assert_eq!(before.lower.to_bits(), after.lower.to_bits(), "{method}");
            assert_eq!(before.upper.to_bits(), after.upper.to_bits(), "{method}");

            // Pre-tracker documents (no "tracker" key) still restore, but the
            // tracker is flagged incomplete and the interval is suppressed
            // rather than silently reported from zeroed sums.
            let mut legacy = tracked.state().to_json();
            legacy.remove("tracker");
            let parsed = SamplerState::from_json(&legacy).unwrap();
            assert!(parsed.tracker().is_none(), "{method}");
            let restored = TrackedSampler::<AnySampler>::from_state(&pool, parsed).unwrap();
            assert!(!restored.tracker_complete(), "{method}");
            assert!(restored.confidence_interval(0.95).is_none(), "{method}");
            assert_eq!(
                restored.estimate().f_measure.to_bits(),
                tracked.estimate().f_measure.to_bits(),
                "{method}: the estimate itself is unaffected"
            );

            // An incomplete tracker is never re-serialized as data: the
            // document writes an explicit null so the flag survives further
            // checkpoint cycles.
            let reserialized = restored.state().to_json().render();
            assert!(reserialized.contains(r#""tracker":null"#), "{method}");
        }
    }

    #[test]
    fn sharded_state_round_trips_with_its_topology_tag() {
        let (pool, truth) = crate::test_fixtures::pool_and_truth(600, 31, 0.15);
        for method in SamplerMethod::ALL {
            let config = OasisConfig::default().with_strata_count(5);
            let inner = AnySampler::build_sharded(method, &pool, &config, 3, 77).unwrap();
            let mut tracked = TrackedSampler::new(inner, config.alpha);
            let mut rng = StdRng::seed_from_u64(32);
            let mut oracle = GroundTruthOracle::new(truth.clone());
            for _ in 0..90 {
                tracked.step(&pool, &mut oracle, &mut rng).unwrap();
            }
            let state = tracked.state();
            let text = state.to_json().render();
            assert!(text.contains(r#""method":"sharded""#), "{method}: {text}");
            assert!(
                text.contains(&format!(r#""inner_method":"{}""#, method.as_str())),
                "{method}: {text}"
            );
            let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, state, "{method}: JSON round trip must be exact");
            let restored = TrackedSampler::<AnySampler>::from_state(&pool, parsed).unwrap();
            assert_eq!(restored.inner().shard_count(), 3, "{method}");
            assert_eq!(
                restored.estimate().f_measure.to_bits(),
                tracked.estimate().f_measure.to_bits(),
                "{method}"
            );
            let before = tracked.confidence_interval(0.95).unwrap();
            let after = restored.confidence_interval(0.95).unwrap();
            assert_eq!(before.lower.to_bits(), after.lower.to_bits(), "{method}");
            assert_eq!(before.upper.to_bits(), after.upper.to_bits(), "{method}");

            // Corrupt RNG word counts are rejected at the JSON layer.
            let mut doc = state.to_json();
            doc.set("shard_rngs", Json::parse("[[1,2,3]]").unwrap());
            assert!(SamplerState::from_json(&doc).is_err(), "{method}");
        }
    }

    #[test]
    fn untagged_sampler_state_documents_parse_as_oasis() {
        // Pre-redesign checkpoints carry no "method" field; they can only be
        // OASIS states and must keep restoring.
        let (pool, truth) = crate::test_fixtures::pool_and_truth(400, 22, 0.15);
        let mut rng = StdRng::seed_from_u64(3);
        let mut oracle = GroundTruthOracle::new(truth);
        let mut sampler =
            OasisSampler::new(&pool, OasisConfig::default().with_strata_count(5)).unwrap();
        for _ in 0..40 {
            sampler.step(&pool, &mut oracle, &mut rng).unwrap();
        }
        let mut untagged = sampler.state().to_json();
        untagged.remove("method");
        let text = untagged.render();
        assert!(!text.contains(r#""method""#));
        let parsed = SamplerState::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.method(), SamplerMethod::Oasis);
        assert_eq!(parsed, sampler.state());
    }

    #[test]
    fn unknown_method_tags_are_rejected() {
        let doc = r#"{"method":"bogus","estimator":{}}"#;
        let err = SamplerState::from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }
}
