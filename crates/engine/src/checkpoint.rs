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
//!
//! # Formats
//!
//! Documents are written as [`CHECKPOINT_FORMAT`] (`checkpoint-v2`), whose
//! size grows with the labels spent and the strata, not with the pool:
//!
//! * strata a key built are stored by reference,
//!   `{"stratifier","strata_count","hash"}`, and rebuilt from the pool on
//!   restore (see [`oasis::StrataState`]);
//! * the `labelled` and `queried` budgets are stored as sorted,
//!   delta-encoded index lists: the first labelled index, then the gap to
//!   each next one.  A parsed [`OracleCheckpoint`] holds them as index
//!   lists, and [`Session::restore`](crate::Session::restore) expands them
//!   to [`BitSet`]s only against a pool whose length matched, so a forged
//!   `pool_len` cannot size an allocation.
//!
//! The hidden `truth` of an oracle session stays a bitmap.
//! [`CHECKPOINT_FORMAT_V1`] documents, with bitmaps and inline
//! `allocations`, are read forever.

use crate::error::{EngineError, EngineResult};
use crate::session::{SessionLimits, Ticket};
use oasis::samplers::SamplerState;
use oasis::{BitSet, Proposal};
use serde::json::{
    write_bool, write_number, write_u64, FromJson, Json, JsonError, JsonResult, ToJson,
};

/// Version tag of the checkpoint documents this build writes.
pub const CHECKPOINT_FORMAT: &str = "oasis-engine/checkpoint-v2";

/// Version tag of the first checkpoint format: budget bitmaps and inline
/// strata.  Still read.
pub const CHECKPOINT_FORMAT_V1: &str = "oasis-engine/checkpoint-v1";

/// Oracle/budget state carried in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleCheckpoint {
    /// Externally labelled session: the footnote-5 label budget.
    External {
        /// The pool items labelled at least once, ascending.
        labelled: Vec<usize>,
        /// Number of distinct items labelled.
        distinct: usize,
    },
    /// In-process deterministic oracle: hidden truth plus budget accounting.
    GroundTruth {
        /// The hidden ground-truth labels.
        truth: Vec<bool>,
        /// The items queried so far (the budget), ascending.
        queried: Vec<usize>,
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

/// Expand a checkpoint's budget indices into a set over a loaded pool of
/// `len` items.  Only [`Session::restore`](crate::Session::restore) calls
/// this, after the pool's length has matched the document's: a `pool_len`
/// read from a document never sizes an allocation.
///
/// # Errors
/// [`EngineError::CheckpointMismatch`] for an index outside the pool.
pub(crate) fn budget_set(indices: &[usize], len: usize, name: &str) -> EngineResult<BitSet> {
    BitSet::from_indices(len, indices).map_err(|index| {
        EngineError::CheckpointMismatch(format!(
            "`{name}` names item {index} outside the {len}-item pool"
        ))
    })
}

/// Budget indices as a `checkpoint-v2` list: the first index, then the gap
/// to each next one.
fn deltas_json(indices: &[usize]) -> Json {
    let mut previous = 0;
    let deltas: Vec<usize> = indices
        .iter()
        .map(|&index| {
            let delta = index - previous;
            previous = index;
            delta
        })
        .collect();
    deltas.to_json()
}

/// Read a `checkpoint-v2` delta list back into ascending indices below
/// `pool_len`.
///
/// # Errors
/// A gap of zero after the first entry (the list must ascend strictly) or
/// an index at or past `pool_len`.
fn indices_from_deltas(value: &Json, pool_len: usize, name: &str) -> JsonResult<Vec<usize>> {
    let mut index = 0usize;
    let mut indices = Vec::<usize>::from_json(value)?;
    for (i, entry) in indices.iter_mut().enumerate() {
        if i > 0 && *entry == 0 {
            return Err(JsonError::new(format!(
                "`{name}` repeats index {index}: gaps after the first must be positive"
            )));
        }
        index = match index.checked_add(*entry) {
            Some(next) if next < pool_len => next,
            _ => {
                return Err(JsonError::new(format!(
                    "`{name}` reaches past the {pool_len} pool items"
                )))
            }
        };
        *entry = index;
    }
    Ok(indices)
}

/// Read a `checkpoint-v1` budget bitmap, which must cover all `pool_len`
/// items, into ascending indices.
fn indices_from_bitmap(value: &Json, pool_len: usize, name: &str) -> JsonResult<Vec<usize>> {
    let bitmap = Vec::<bool>::from_json(value)?;
    if bitmap.len() != pool_len {
        return Err(JsonError::new(format!(
            "`{name}` bitmap has {} entries for {pool_len} pool items",
            bitmap.len()
        )));
    }
    Ok((0..bitmap.len()).filter(|&index| bitmap[index]).collect())
}

impl OracleCheckpoint {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        match self {
            OracleCheckpoint::External { labelled, distinct } => {
                obj.set("kind", Json::String("external".to_string()));
                obj.set("labelled", deltas_json(labelled));
                obj.set("distinct", distinct.to_json());
            }
            OracleCheckpoint::GroundTruth {
                truth,
                queried,
                queries_issued,
            } => {
                obj.set("kind", Json::String("ground_truth".to_string()));
                obj.set("truth", truth.to_json());
                obj.set("queried", deltas_json(queried));
                obj.set("queries_issued", queries_issued.to_json());
            }
        }
        obj
    }

    /// Read the oracle state of a document in `format`, over a pool of
    /// `pool_len` items: v2 delta lists and v1 bitmaps both become budget
    /// indices.
    fn from_json(value: &Json, format: &str, pool_len: usize) -> JsonResult<Self> {
        let budget = |name: &str| {
            let field = value.require(name)?;
            if format == CHECKPOINT_FORMAT_V1 {
                indices_from_bitmap(field, pool_len, name)
            } else {
                indices_from_deltas(field, pool_len, name)
            }
        };
        match value.require("kind")?.as_str()? {
            "external" => Ok(OracleCheckpoint::External {
                labelled: budget("labelled")?,
                distinct: value.require("distinct")?.as_usize()?,
            }),
            "ground_truth" => Ok(OracleCheckpoint::GroundTruth {
                truth: Vec::<bool>::from_json(value.require("truth")?)?,
                queried: budget("queried")?,
                queries_issued: value.require("queries_issued")?.as_usize()?,
            }),
            other => Err(JsonError::new(format!("unknown oracle kind {other:?}"))),
        }
    }
}

impl ToJson for SessionCheckpoint {
    /// Always a [`CHECKPOINT_FORMAT`] document.
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
    /// Reads [`CHECKPOINT_FORMAT`] and [`CHECKPOINT_FORMAT_V1`] documents.
    fn from_json(value: &Json) -> JsonResult<Self> {
        let format = value.require("format")?.as_str()?;
        if format != CHECKPOINT_FORMAT && format != CHECKPOINT_FORMAT_V1 {
            return Err(JsonError::new(format!(
                "unsupported checkpoint format {format:?} (expected {CHECKPOINT_FORMAT:?} or \
                 {CHECKPOINT_FORMAT_V1:?})"
            )));
        }
        let rng_vec = Vec::<u64>::from_json(value.require("rng")?)?;
        let rng_words: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| JsonError::new("rng state must have exactly 4 words"))?;
        let pool_len = value.require("pool_len")?.as_usize()?;
        Ok(SessionCheckpoint {
            session_id: String::from_json(value.require("session")?)?,
            pool_id: String::from_json(value.require("pool")?)?,
            pool_len,
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
            oracle: OracleCheckpoint::from_json(value.require("oracle")?, format, pool_len)?,
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
            labelled: BitSet::new(10),
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
    fn budget_lists_must_ascend_inside_the_pool() {
        let (pool, _) = pool_and_truth(50, 14);
        let mut session = oasis_session(&pool, 4, 8, LabelSource::external(pool.len()));
        let labels: Vec<(u64, bool)> = session
            .propose(6)
            .unwrap()
            .iter()
            .map(|ticket| (ticket.id, true))
            .collect();
        session.apply_labels(&labels).unwrap();
        let good = session.checkpoint();
        let document = Json::parse(&good.to_json_string()).unwrap();
        let with_labelled = |labelled: &str, pool_len: usize| {
            let mut oracle = document.require("oracle").unwrap().clone();
            oracle.set("labelled", Json::parse(labelled).unwrap());
            let mut edited = document.clone();
            edited.set("oracle", oracle);
            edited.set("pool_len", pool_len.to_json());
            SessionCheckpoint::from_json(&edited)
        };

        let OracleCheckpoint::External { labelled, .. } = &good.oracle else {
            panic!("expected an external oracle");
        };
        let listed = document
            .require("oracle")
            .unwrap()
            .require("labelled")
            .unwrap();
        assert_eq!(Vec::<usize>::from_json(listed).unwrap()[0], labelled[0]);
        assert_eq!(with_labelled(&listed.render(), 50).unwrap(), good);

        // Items 3, 8 and 9.
        let parsed = with_labelled("[3,5,1]", 50).unwrap();
        let OracleCheckpoint::External { labelled, .. } = parsed.oracle else {
            panic!("expected an external oracle");
        };
        assert_eq!(labelled, [3, 8, 9]);

        for bad in [
            "[3,0]",
            "[50]",
            "[49,1]",
            "[18446744073709551615,1]",
            "[true]",
        ] {
            assert!(with_labelled(bad, 50).is_err(), "{bad}");
        }
    }

    #[test]
    fn budget_sets_round_trip_through_v1_and_v2_documents() {
        // Pools just under, at and past the 64-item words of a budget set.
        for len in [63usize, 64, 65, 130] {
            let (pool, truth) = pool_and_truth(len, 16 + len as u64);
            let sources = [
                LabelSource::external(len),
                LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone())),
            ];
            for source in sources {
                // Passive sessions carry no strata, so one sampler state
                // reads as both formats.
                let spec = SessionSpec::new("s", "p", len as u64, source);
                let mut session = Session::new(
                    SessionSpec {
                        method: oasis::SamplerMethod::Passive,
                        ..spec
                    },
                    Arc::clone(&pool),
                )
                .unwrap();
                let tickets = session.propose(2 * len).unwrap();
                let answers: Vec<(u64, bool)> = tickets
                    .iter()
                    .map(|t| (t.id, truth[t.proposal.item]))
                    .collect();
                session.apply_labels(&answers).unwrap();
                let written = session.checkpoint();
                let (OracleCheckpoint::External {
                    labelled: budget, ..
                }
                | OracleCheckpoint::GroundTruth {
                    queried: budget, ..
                }) = &written.oracle;
                assert_eq!(budget.len(), session.labels_consumed());
                assert!(budget.windows(2).all(|pair| pair[0] < pair[1]));

                // v2: the delta list, as written.
                let v2 = written.to_json_string();
                let restored = Session::restore(
                    SessionCheckpoint::from_json_string(&v2).unwrap(),
                    Arc::clone(&pool),
                )
                .unwrap();
                assert_eq!(restored.checkpoint(), written, "v2, {len} items");

                // v1: the same budget as a pool-long bitmap.
                let mut document = Json::parse(&v2).unwrap();
                document.set("format", Json::String(CHECKPOINT_FORMAT_V1.to_string()));
                let mut oracle = document.require("oracle").unwrap().clone();
                let bitmap: Vec<bool> =
                    (0..len).map(|i| budget.binary_search(&i).is_ok()).collect();
                let key = match written.oracle {
                    OracleCheckpoint::External { .. } => "labelled",
                    OracleCheckpoint::GroundTruth { .. } => "queried",
                };
                oracle.set(key, bitmap.to_json());
                document.set("oracle", oracle);
                let v1 = SessionCheckpoint::from_json_string(&document.render()).unwrap();
                let restored = Session::restore(v1, Arc::clone(&pool)).unwrap();
                assert_eq!(restored.labels_consumed(), session.labels_consumed());
                assert_eq!(restored.checkpoint(), written, "v1, {len} items");
            }
        }
    }

    #[test]
    fn a_forged_pool_len_sizes_no_allocation_and_fails_the_restore() {
        let (pool, _) = pool_and_truth(50, 15);
        let session = oasis_session(&pool, 4, 9, LabelSource::external(pool.len()));
        let mut document = Json::parse(&session.checkpoint().to_json_string()).unwrap();
        document.set("pool_len", (u32::MAX as usize).to_json());
        // Parsing holds the (empty) budget as indices: nothing pool-sized.
        let forged = SessionCheckpoint::from_json(&document).unwrap();
        assert_eq!(
            forged.oracle,
            OracleCheckpoint::External {
                labelled: Vec::new(),
                distinct: 0
            }
        );
        assert!(matches!(
            Session::restore(forged, Arc::clone(&pool)),
            Err(crate::error::EngineError::CheckpointMismatch(_))
        ));

        // A budget index outside the pool fails the restore, not a panic.
        let mut outside = session.checkpoint();
        outside.oracle = OracleCheckpoint::External {
            labelled: vec![50],
            distinct: 1,
        };
        assert!(matches!(
            Session::restore(outside, pool),
            Err(crate::error::EngineError::CheckpointMismatch(_))
        ));
    }

    #[test]
    fn a_session_restored_from_a_v1_document_checkpoints_its_strata_inline() {
        let (pool, _) = crate::test_support::pool_and_truth(48, 2024, 0.2);
        let v1 = include_str!("../tests/golden/checkpoints.jsonl");
        let (checkpoint, _) = crate::store::parse_envelope(v1.lines().next().unwrap()).unwrap();
        let restored = Session::restore(checkpoint, pool).unwrap();
        let v2 = restored.checkpoint();
        let text = v2.to_json_string();
        assert!(text.starts_with(r#"{"format":"oasis-engine/checkpoint-v2""#));
        assert!(text.contains(r#""allocations":[["#), "{text}");
        assert!(!text.contains(r#""strata":{"#), "{text}");
        assert_eq!(SessionCheckpoint::from_json_string(&text).unwrap(), v2);
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
