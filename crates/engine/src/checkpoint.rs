//! Checkpoint subsystem: exact-resume snapshots of sessions.
//!
//! A [`SessionCheckpoint`] captures everything needed to resume an evaluation
//! run bit-for-bit: the full [`SamplerState`] (strata, Beta–Bernoulli
//! posterior counts, AIS weighted sums), the xoshiro RNG state words, any
//! suspended (proposed-but-unlabelled) tickets, and the oracle/budget state.
//! Checkpoints serialise to JSON through the vendored `serde`'s [`json`](serde::json)
//! layer, whose shortest-round-trip float encoding makes the JSON form as
//! exact as the in-memory one.
//!
//! The pool itself is *not* embedded — pools are shared across many sessions
//! and can be huge.  Instead the checkpoint records the pool id, length and
//! content [fingerprint](oasis::ScoredPool::fingerprint), and
//! [`Session::restore`](crate::Session::restore) refuses to resume against a
//! pool that does not match.

use crate::error::EngineResult;
use crate::session::{SessionLimits, Ticket};
use oasis::samplers::SamplerState;
use oasis::Proposal;
use serde::json::{
    write_bool, write_number, write_u64, FromJson, Json, JsonError, JsonResult, ToJson,
};

/// Version tag embedded in every checkpoint document.
pub const CHECKPOINT_FORMAT: &str = "oasis-engine/checkpoint-v1";

/// Oracle/budget state carried in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleCheckpoint {
    /// Externally labelled session: the footnote-5 budget bitmap.
    External {
        /// Which pool items have been labelled at least once.
        labelled: Vec<bool>,
        /// Number of distinct items labelled.
        distinct: usize,
    },
    /// In-process deterministic oracle: hidden truth plus budget accounting.
    GroundTruth {
        /// The hidden ground-truth labels.
        truth: Vec<bool>,
        /// Which items have been queried (the budget bitmap).
        queried: Vec<bool>,
        /// Total queries issued, including cache hits.
        queries_issued: usize,
    },
}

/// A full, exact-resume snapshot of one [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The session id.
    pub session_id: String,
    /// Id of the pool the session evaluates (not embedded; see module docs).
    pub pool_id: String,
    /// Pool length, verified on restore.
    pub pool_len: usize,
    /// Pool content fingerprint, verified on restore.
    pub pool_fingerprint: u64,
    /// The seed the session RNG was originally created from.
    pub seed: u64,
    /// Current xoshiro256++ state words of the session RNG.
    pub rng_words: [u64; 4],
    /// Full sampler state (strata, posterior, estimator sums).
    pub sampler: SamplerState,
    /// Suspended (proposed-but-unlabelled) tickets, oldest first.
    pub pending: Vec<Ticket>,
    /// The next ticket id to issue.
    pub next_ticket: u64,
    /// Robustness limits (lease timeout, pending cap); defaults on
    /// documents written before lease support.
    pub limits: SessionLimits,
    /// The session's logical lease clock (0 on pre-lease documents).
    pub lease_now_us: u64,
    /// Oracle/budget state.
    pub oracle: OracleCheckpoint,
}

impl SessionCheckpoint {
    /// Serialise to a single-line JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse a checkpoint from its JSON text.
    ///
    /// # Errors
    /// Any parse or schema failure, including a wrong `format` tag.
    pub fn from_json_string(text: &str) -> EngineResult<Self> {
        let value = Json::parse(text)?;
        Ok(Self::from_json(&value)?)
    }
}

/// Render tickets as the JSON array a `propose` response's `proposals` and
/// a checkpoint's `pending` carry: one object per ticket, keys in sorted
/// order, `issued_at_us` only when set.  Written straight to text (no tree
/// per ticket) and handed back pre-rendered as a [`Json::Raw`].
pub(crate) fn tickets_json(tickets: &[Ticket]) -> Json {
    let mut out = String::with_capacity(2 + tickets.len() * 96);
    out.push('[');
    for (i, ticket) in tickets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        if ticket.issued_at_us != 0 {
            out.push_str("\"issued_at_us\":");
            write_u64(ticket.issued_at_us, &mut out);
            out.push(',');
        }
        out.push_str("\"item\":");
        write_number(ticket.proposal.item as f64, &mut out);
        out.push_str(",\"prediction\":");
        write_bool(ticket.proposal.prediction, &mut out);
        out.push_str(",\"stratum\":");
        write_number(ticket.proposal.stratum as f64, &mut out);
        out.push_str(",\"ticket\":");
        write_u64(ticket.id, &mut out);
        out.push_str(",\"weight\":");
        ticket.proposal.weight.to_json().write(&mut out);
        out.push('}');
    }
    out.push(']');
    Json::Raw(out)
}

impl FromJson for Ticket {
    fn from_json(value: &Json) -> JsonResult<Self> {
        Ok(Ticket {
            id: value.require("ticket")?.as_u64()?,
            proposal: Proposal {
                item: value.require("item")?.as_usize()?,
                stratum: value.require("stratum")?.as_usize()?,
                prediction: value.require("prediction")?.as_bool()?,
                weight: value.require("weight")?.as_f64()?,
            },
            issued_at_us: match value.get("issued_at_us") {
                Some(at) => at.as_u64()?,
                None => 0,
            },
        })
    }
}

impl ToJson for OracleCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        match self {
            OracleCheckpoint::External { labelled, distinct } => {
                obj.set("kind", Json::String("external".to_string()));
                obj.set("labelled", labelled.to_json());
                obj.set("distinct", distinct.to_json());
            }
            OracleCheckpoint::GroundTruth {
                truth,
                queried,
                queries_issued,
            } => {
                obj.set("kind", Json::String("ground_truth".to_string()));
                obj.set("truth", truth.to_json());
                obj.set("queried", queried.to_json());
                obj.set("queries_issued", queries_issued.to_json());
            }
        }
        obj
    }
}

impl FromJson for OracleCheckpoint {
    fn from_json(value: &Json) -> JsonResult<Self> {
        match value.require("kind")?.as_str()? {
            "external" => Ok(OracleCheckpoint::External {
                labelled: Vec::<bool>::from_json(value.require("labelled")?)?,
                distinct: value.require("distinct")?.as_usize()?,
            }),
            "ground_truth" => Ok(OracleCheckpoint::GroundTruth {
                truth: Vec::<bool>::from_json(value.require("truth")?)?,
                queried: Vec::<bool>::from_json(value.require("queried")?)?,
                queries_issued: value.require("queries_issued")?.as_usize()?,
            }),
            other => Err(JsonError::new(format!("unknown oracle kind {other:?}"))),
        }
    }
}

impl ToJson for SessionCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("format", Json::String(CHECKPOINT_FORMAT.to_string()));
        obj.set("session", Json::String(self.session_id.clone()));
        obj.set("pool", Json::String(self.pool_id.clone()));
        obj.set("pool_len", self.pool_len.to_json());
        obj.set("pool_fingerprint", self.pool_fingerprint.to_json());
        obj.set("seed", self.seed.to_json());
        obj.set("rng", self.rng_words.to_vec().to_json());
        obj.set("sampler", self.sampler.to_json());
        obj.set("pending", tickets_json(&self.pending));
        obj.set("next_ticket", self.next_ticket.to_json());
        // Lease state is only written when it diverges from the defaults, so
        // lease-free sessions keep the pre-lease document shape.
        if let Some(timeout) = self.limits.lease_timeout_us {
            obj.set("lease_timeout_us", timeout.to_json());
        }
        if let Some(cap) = self.limits.max_pending {
            obj.set("max_pending", cap.to_json());
        }
        if self.lease_now_us != 0 {
            obj.set("lease_now_us", self.lease_now_us.to_json());
        }
        obj.set("oracle", self.oracle.to_json());
        obj
    }
}

impl FromJson for SessionCheckpoint {
    fn from_json(value: &Json) -> JsonResult<Self> {
        let format = value.require("format")?.as_str()?;
        if format != CHECKPOINT_FORMAT {
            return Err(JsonError::new(format!(
                "unsupported checkpoint format {format:?} (expected {CHECKPOINT_FORMAT:?})"
            )));
        }
        let rng_vec = Vec::<u64>::from_json(value.require("rng")?)?;
        let rng_words: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| JsonError::new("rng state must have exactly 4 words"))?;
        Ok(SessionCheckpoint {
            session_id: String::from_json(value.require("session")?)?,
            pool_id: String::from_json(value.require("pool")?)?,
            pool_len: value.require("pool_len")?.as_usize()?,
            pool_fingerprint: value.require("pool_fingerprint")?.as_u64()?,
            seed: value.require("seed")?.as_u64()?,
            rng_words,
            sampler: SamplerState::from_json(value.require("sampler")?)?,
            pending: Vec::<Ticket>::from_json(value.require("pending")?)?,
            next_ticket: value.require("next_ticket")?.as_u64()?,
            limits: SessionLimits {
                lease_timeout_us: match value.get("lease_timeout_us") {
                    Some(timeout) => Some(timeout.as_u64()?),
                    None => None,
                },
                max_pending: match value.get("max_pending") {
                    Some(cap) => Some(cap.as_usize()?),
                    None => None,
                },
            },
            lease_now_us: match value.get("lease_now_us") {
                Some(now) => now.as_u64()?,
                None => 0,
            },
            oracle: OracleCheckpoint::from_json(value.require("oracle")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LabelSource, Session, SessionSpec};
    use crate::test_support::{oasis_session, oasis_spec};
    use oasis::{GroundTruthOracle, OasisConfig, ScoredPool};
    use std::sync::Arc;

    fn pool_and_truth(n: usize, seed: u64) -> (Arc<ScoredPool>, Vec<bool>) {
        crate::test_support::pool_and_truth(n, seed, 0.07)
    }

    #[test]
    fn fingerprint_tracks_pool_content() {
        let (a, _) = pool_and_truth(100, 1);
        let (b, _) = pool_and_truth(100, 2);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn checkpoint_json_round_trip_is_exact() {
        let (pool, truth) = pool_and_truth(600, 3);
        let mut session = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(8),
                ..SessionSpec::new(
                    "s1",
                    "p1",
                    42,
                    LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
                )
            },
            Arc::clone(&pool),
        )
        .unwrap();
        session.step(120).unwrap();
        // Leave a suspended ticket in flight so the pending path is exercised.
        let mut external = Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(8),
                ..SessionSpec::new("s2", "p1", 43, LabelSource::external(pool.len()))
            },
            Arc::clone(&pool),
        )
        .unwrap();
        external.propose(3).unwrap();

        for checkpoint in [session.checkpoint(), external.checkpoint()] {
            let text = checkpoint.to_json_string();
            let parsed = SessionCheckpoint::from_json_string(&text).unwrap();
            assert_eq!(parsed, checkpoint);
            // The tree round-trips too: `pending` is pre-rendered text there.
            let tree = SessionCheckpoint::from_json(&checkpoint.to_json()).unwrap();
            assert_eq!(tree, checkpoint);
        }
    }

    #[test]
    fn interrupted_resume_is_bit_identical_to_uninterrupted_run() {
        let (pool, truth) = pool_and_truth(1500, 4);
        let oracle = || LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone()));

        // Uninterrupted: 500 steps straight through.
        let mut straight = oasis_session(&pool, 10, 2017, oracle());
        let expected = straight.step(500).unwrap();

        // Interrupted at step 180: checkpoint → JSON → restore → continue.
        let mut interrupted = oasis_session(&pool, 10, 2017, oracle());
        interrupted.step(180).unwrap();
        let text = interrupted.checkpoint().to_json_string();
        drop(interrupted);
        let checkpoint = SessionCheckpoint::from_json_string(&text).unwrap();
        let mut resumed = Session::restore(checkpoint, Arc::clone(&pool)).unwrap();
        let estimate = resumed.step(320).unwrap();

        assert_eq!(estimate.f_measure.to_bits(), expected.f_measure.to_bits());
        assert_eq!(estimate.precision.to_bits(), expected.precision.to_bits());
        assert_eq!(estimate.recall.to_bits(), expected.recall.to_bits());
        assert_eq!(resumed.labels_consumed(), straight.labels_consumed());
    }

    #[test]
    fn restore_rejects_mismatched_pools() {
        let (pool, truth) = pool_and_truth(400, 5);
        let (other, _) = pool_and_truth(400, 6);
        let mut session = oasis_session(
            &pool,
            6,
            1,
            LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
        );
        session.step(20).unwrap();
        let checkpoint = session.checkpoint();
        let err = Session::restore(checkpoint, other).unwrap_err();
        assert!(matches!(
            err,
            crate::error::EngineError::CheckpointMismatch(_)
        ));
    }

    #[test]
    fn restore_rejects_a_same_length_pool_with_other_content_after_caching() {
        let (pool, truth) = pool_and_truth(300, 13);
        let mut session = oasis_session(
            &pool,
            5,
            2,
            LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
        );
        session.step(10).unwrap();
        // Capturing caches the original pool's fingerprint.
        let checkpoint = session.checkpoint();

        // One score nudged by one ulp: same length, different content.
        let mut scores = pool.scores().to_vec();
        scores[123] = f64::from_bits(scores[123].to_bits() + 1);
        let nudged = Arc::new(ScoredPool::new(scores, pool.predictions().to_vec()).unwrap());
        // The first restore fills the other pool's cache; the second reads it.
        for _ in 0..2 {
            let err = Session::restore(checkpoint.clone(), Arc::clone(&nudged)).unwrap_err();
            assert!(matches!(
                err,
                crate::error::EngineError::CheckpointMismatch(_)
            ));
        }

        // An equal pool built afresh (empty cache) and a clone (copied
        // cache) both still restore.
        let rebuilt = ScoredPool::new(pool.scores().to_vec(), pool.predictions().to_vec()).unwrap();
        assert!(Session::restore(checkpoint.clone(), Arc::new(rebuilt)).is_ok());
        assert!(Session::restore(checkpoint, Arc::new(ScoredPool::clone(&pool))).is_ok());
    }

    #[test]
    fn restore_rejects_out_of_range_pending_tickets() {
        // A crafted checkpoint must not smuggle out-of-range indices past
        // restore (they would panic a later apply_labels).
        let (pool, truth) = pool_and_truth(300, 8);
        let mut session = oasis_session(
            &pool,
            5,
            3,
            LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
        );
        session.step(10).unwrap();
        session.propose(1).unwrap();
        let good = session.checkpoint();

        let mut bad_item = good.clone();
        bad_item.pending[0].proposal.item = 10_000;
        assert!(Session::restore(bad_item, Arc::clone(&pool)).is_err());

        let mut bad_stratum = good.clone();
        bad_stratum.pending[0].proposal.stratum = 99;
        assert!(Session::restore(bad_stratum, Arc::clone(&pool)).is_err());

        // The unmodified checkpoint still restores.
        assert!(Session::restore(good, pool).is_ok());
    }

    #[test]
    fn session_new_rejects_label_sources_that_do_not_cover_the_pool() {
        let (pool, truth) = pool_and_truth(200, 9);
        let short_bitmap = LabelSource::External {
            labelled: vec![false; 10],
            distinct: 0,
        };
        assert!(Session::new(oasis_spec("s", 4, 1, short_bitmap), Arc::clone(&pool)).is_err());
        let short_truth = LabelSource::GroundTruth(GroundTruthOracle::new(truth[..50].to_vec()));
        assert!(Session::new(oasis_spec("s", 4, 1, short_truth), pool).is_err());
    }

    #[test]
    fn restore_sanitises_budget_and_weights() {
        let (pool, _) = pool_and_truth(200, 10);
        let mut session = oasis_session(&pool, 4, 5, LabelSource::external(pool.len()));
        session.propose(2).unwrap();
        let good = session.checkpoint();

        // A hand-edited `distinct` is recomputed from the bitmap on restore.
        let mut inflated = good.clone();
        if let OracleCheckpoint::External { distinct, .. } = &mut inflated.oracle {
            *distinct = 999;
        }
        let restored = Session::restore(inflated, Arc::clone(&pool)).unwrap();
        assert_eq!(restored.labels_consumed(), 0);

        // Non-finite or negative ticket weights are rejected.
        for bad_weight in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = good.clone();
            bad.pending[0].proposal.weight = bad_weight;
            assert!(
                Session::restore(bad, Arc::clone(&pool)).is_err(),
                "weight {bad_weight} must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_duplicate_or_reissuable_ticket_ids() {
        let (pool, _) = pool_and_truth(200, 11);
        let mut session = oasis_session(&pool, 4, 6, LabelSource::external(pool.len()));
        session.propose(2).unwrap();
        let good = session.checkpoint();

        // Two pending tickets sharing an id would make one label apply twice.
        let mut duplicated = good.clone();
        duplicated.pending[1].id = duplicated.pending[0].id;
        assert!(Session::restore(duplicated, Arc::clone(&pool)).is_err());

        // next_ticket at/below a pending id would reissue a live ticket id.
        let mut reissuable = good.clone();
        reissuable.next_ticket = 0;
        assert!(Session::restore(reissuable, Arc::clone(&pool)).is_err());

        assert!(Session::restore(good, pool).is_ok());
    }

    #[test]
    fn restore_rejects_corrupt_estimator_sums() {
        let (pool, truth) = pool_and_truth(200, 12);
        let mut session = oasis_session(
            &pool,
            4,
            7,
            LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
        );
        session.step(20).unwrap();
        let good = session.checkpoint();
        for corrupt in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = good.clone();
            match &mut bad.sampler {
                oasis::SamplerState::Oasis(state) => state.estimator.total_weight = corrupt,
                other => panic!("expected an OASIS state, got {:?}", other.method()),
            }
            assert!(
                Session::restore(bad, Arc::clone(&pool)).is_err(),
                "total_weight {corrupt} must be rejected"
            );
        }
    }

    #[test]
    fn bad_checkpoint_documents_are_rejected() {
        assert!(SessionCheckpoint::from_json_string("not json").is_err());
        assert!(SessionCheckpoint::from_json_string("{}").is_err());
        assert!(
            SessionCheckpoint::from_json_string(r#"{"format":"something-else"}"#).is_err(),
            "wrong format tag must be rejected"
        );
    }
}
