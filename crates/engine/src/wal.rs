//! Append-only write-ahead log of session mutations.
//!
//! Durability in the engine is `latest checkpoint + WAL suffix`: every
//! mutation of a durable session — propose, label, step, run-budget, lease
//! expiry — is appended to the session's log *before* the session is
//! mutated, and a restart replays the records whose sequence numbers lie at
//! or beyond the checkpoint's high-water mark.  Live requests,
//! `Engine::run_parallel` jobs and replay all change a session through
//! [`WalEntry::apply`], so replay runs the very code the live mutation ran.
//! Because every [`Session`]
//! mutator is deterministic given the session state (the RNG lives inside
//! the checkpoint) and validates its whole batch before touching anything,
//! replaying the suffix reproduces the pre-crash state bit for bit:
//!
//! * a record that *succeeded* live succeeds again and applies the same
//!   mutation (same RNG draws, same ticket ids, same estimator sums);
//! * a record that *failed* live (say, a label for an unknown ticket —
//!   logged before the session rejected it) fails again and leaves the
//!   session untouched, exactly as it did the first time.
//!
//! Records serialise one JSON object per line (`{"seq":…,"op":…,…}`), with
//! sequence numbers assigned under the session's lock so concurrent client
//! batches land in the log in the order they were applied.

use crate::error::{EngineError, EngineResult};
use crate::session::{Session, Ticket};
use oasis::Estimate;
use serde::json::{FromJson, Json, JsonError, JsonResult, ToJson};

/// One loggable session mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// [`Session::propose`] — advances the session RNG, mints tickets.
    Propose {
        /// Number of items proposed in the batch.
        count: usize,
        /// The logical lease timestamp the engine observed when the batch
        /// was proposed.  Recorded so replay expires exactly the leases the
        /// live run expired; `None` on records written before lease support
        /// (legacy logs replay with no expiry, as they ran).
        now_us: Option<u64>,
    },
    /// [`Session::expire_leases`] — drop pending tickets whose lease passed
    /// the logged logical timestamp.
    Expire {
        /// The logical timestamp expiry was evaluated at.
        now_us: u64,
    },
    /// [`Session::apply_labels`] — a batch of `(ticket id, label)` answers.
    Label {
        /// The labels, exactly as the client sent them.
        labels: Vec<(u64, bool)>,
    },
    /// [`Session::step`] — oracle-driven propose→query→apply iterations.
    Step {
        /// Number of iterations.
        steps: usize,
    },
    /// [`Session::run_until_budget`] — oracle-driven run to a label budget.
    RunBudget {
        /// Stop once this many distinct labels are consumed.
        label_budget: usize,
        /// Hard cap on iterations.
        max_steps: usize,
    },
}

/// What applying a [`WalEntry`] did to a session.
#[derive(Debug)]
pub struct Applied {
    /// Ticket ids whose leases the entry's sweep reclaimed — even when the
    /// mutation that follows the sweep is rejected.
    pub expired: Vec<u64>,
    /// What the mutation produced, or why the session rejected it.
    pub outcome: EngineResult<Outcome>,
}

/// The payload of an accepted mutation.
#[derive(Debug)]
pub enum Outcome {
    /// `propose`: the minted tickets.
    Tickets(Vec<Ticket>),
    /// `label`: how many labels were applied.
    Labelled(usize),
    /// `step` and `run_budget`: the estimate after the run.
    Estimate(Estimate),
    /// `expire`: nothing beyond [`Applied::expired`].
    Swept,
}

impl WalEntry {
    /// The record's `op` tag: the protocol verb, except `expire` for
    /// `expire_leases`.
    pub(crate) fn op(&self) -> &'static str {
        match self {
            WalEntry::Propose { .. } => "propose",
            WalEntry::Expire { .. } => "expire",
            WalEntry::Label { .. } => "label",
            WalEntry::Step { .. } => "step",
            WalEntry::RunBudget { .. } => "run_budget",
        }
    }

    /// Apply this mutation to a session: first the lease sweep at the
    /// logged timestamp, if any, then the mutation itself.  Live requests,
    /// `run_parallel` jobs and replay all mutate sessions through here.
    /// During replay a rejection means the record was also rejected live
    /// (see the module docs), so the caller skips it rather than aborting.
    pub fn apply(&self, session: &mut Session) -> Applied {
        let expired = match *self {
            WalEntry::Propose {
                now_us: Some(now), ..
            }
            | WalEntry::Expire { now_us: now } => session.expire_leases(now),
            _ => Vec::new(),
        };
        let outcome = match self {
            WalEntry::Propose { count, .. } => session.propose(*count).map(Outcome::Tickets),
            WalEntry::Expire { .. } => Ok(Outcome::Swept),
            WalEntry::Label { labels } => session.apply_labels(labels).map(Outcome::Labelled),
            WalEntry::Step { steps } => session.step(*steps).map(Outcome::Estimate),
            WalEntry::RunBudget {
                label_budget,
                max_steps,
            } => session
                .run_until_budget(*label_budget, *max_steps)
                .map(Outcome::Estimate),
        };
        Applied { expired, outcome }
    }
}

/// A sequenced WAL record: one line of the log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Position in the session's log, starting at 0 and gap-free.
    pub seq: u64,
    /// The logged mutation.
    pub entry: WalEntry,
}

impl WalRecord {
    /// Render as a single JSON line (no trailing newline).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parse one log line.
    ///
    /// # Errors
    /// [`EngineError::Store`] on malformed JSON or an unknown `op`, naming
    /// the offending line.
    pub fn parse(line: &str) -> EngineResult<Self> {
        let value =
            Json::parse(line).map_err(|e| EngineError::Store(format!("bad WAL line: {e}")))?;
        WalRecord::from_json(&value).map_err(|e| EngineError::Store(format!("bad WAL line: {e}")))
    }
}

impl ToJson for WalRecord {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("seq", self.seq.to_json());
        obj.set("op", Json::String(self.entry.op().to_string()));
        match &self.entry {
            WalEntry::Propose { count, now_us } => {
                obj.set("count", count.to_json());
                if let Some(now) = now_us {
                    obj.set("now_us", now.to_json());
                }
            }
            WalEntry::Expire { now_us } => obj.set("now_us", now_us.to_json()),
            WalEntry::Label { labels } => {
                let items = labels
                    .iter()
                    .map(|&(ticket, label)| {
                        let mut pair = Json::object();
                        pair.set("ticket", ticket.to_json());
                        pair.set("label", label.to_json());
                        pair
                    })
                    .collect();
                obj.set("labels", Json::Array(items));
            }
            WalEntry::Step { steps } => obj.set("steps", steps.to_json()),
            WalEntry::RunBudget {
                label_budget,
                max_steps,
            } => {
                obj.set("label_budget", label_budget.to_json());
                obj.set("max_steps", max_steps.to_json());
            }
        }
        obj
    }
}

impl FromJson for WalRecord {
    fn from_json(value: &Json) -> JsonResult<Self> {
        let seq = value.require("seq")?.as_u64()?;
        let entry = match value.require("op")?.as_str()? {
            "propose" => WalEntry::Propose {
                count: value.require("count")?.as_usize()?,
                now_us: match value.get("now_us") {
                    Some(now) => Some(now.as_u64()?),
                    None => None,
                },
            },
            "expire" => WalEntry::Expire {
                now_us: value.require("now_us")?.as_u64()?,
            },
            "label" => {
                let items = match value.require("labels")? {
                    Json::Array(items) => items,
                    other => {
                        return Err(JsonError::new(format!(
                            "labels must be an array, got {other:?}"
                        )))
                    }
                };
                let mut labels = Vec::with_capacity(items.len());
                for item in items {
                    labels.push((
                        item.require("ticket")?.as_u64()?,
                        item.require("label")?.as_bool()?,
                    ));
                }
                WalEntry::Label { labels }
            }
            "step" => WalEntry::Step {
                steps: value.require("steps")?.as_usize()?,
            },
            "run_budget" => WalEntry::RunBudget {
                label_budget: value.require("label_budget")?.as_usize()?,
                max_steps: value.require("max_steps")?.as_usize()?,
            },
            other => return Err(JsonError::new(format!("unknown WAL op {other:?}"))),
        };
        Ok(WalRecord { seq, entry })
    }
}

/// The result of parsing a whole log with [`parse_lines`]: the records that
/// parsed cleanly, plus a note when a partial trailing record was dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct WalParseOutcome {
    /// Every record up to (but not including) a torn tail.
    pub records: Vec<WalRecord>,
    /// `Some(reason)` when the final line failed to parse and was dropped —
    /// the signature of a crash mid-append.  The caller should scrub the
    /// torn line from the store so later appends cannot bury it.
    pub truncated_tail: Option<String>,
}

/// Parse a full WAL, tolerating exactly one failure mode: a final line that
/// does not parse.  A crash between `write` and the trailing newline leaves
/// precisely that shape behind, and rejecting the whole log for it would
/// turn every mid-append crash into data loss.  A malformed *interior* line
/// can only mean real corruption (appends are strictly sequential), so it
/// stays a hard error.
///
/// # Errors
/// [`EngineError::Store`] when any line other than the last fails to parse.
pub fn parse_lines(lines: &[String]) -> EngineResult<WalParseOutcome> {
    let mut records = Vec::with_capacity(lines.len());
    for (index, line) in lines.iter().enumerate() {
        match WalRecord::parse(line) {
            Ok(record) => records.push(record),
            Err(e) if index + 1 == lines.len() => {
                return Ok(WalParseOutcome {
                    records,
                    truncated_tail: Some(format!("dropped partial trailing WAL record: {e}")),
                });
            }
            Err(e) => {
                return Err(EngineError::Store(format!(
                    "WAL corrupt at interior line {index}: {e}"
                )));
            }
        }
    }
    Ok(WalParseOutcome {
        records,
        truncated_tail: None,
    })
}

/// Replay the log suffix at or beyond `from_seq` against a freshly restored
/// session.  Returns the number of records applied (skipped records count:
/// they were processed, their live outcome — an error — was reproduced).
///
/// # Errors
/// [`EngineError::Store`] if the suffix is not gap-free and ascending from
/// `from_seq` — that means log corruption or a checkpoint/log mismatch, and
/// replaying around a hole would silently diverge from the pre-crash run.
pub fn replay(session: &mut Session, records: &[WalRecord], from_seq: u64) -> EngineResult<usize> {
    let mut applied = 0;
    for (expected, record) in (from_seq..).zip(records.iter().filter(|r| r.seq >= from_seq)) {
        if record.seq != expected {
            return Err(EngineError::Store(format!(
                "WAL gap: expected seq {expected}, found {}",
                record.seq
            )));
        }
        // A deterministic failure here reproduces a request the live engine
        // rejected after logging it; the session is untouched both times.
        let _ = record.entry.apply(session);
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::LabelSource;
    use oasis::{OasisConfig, SamplerMethod};
    use std::sync::Arc;

    #[test]
    fn records_round_trip_through_json_lines() {
        let records = vec![
            WalRecord {
                seq: 0,
                entry: WalEntry::Propose {
                    count: 5,
                    now_us: None,
                },
            },
            WalRecord {
                seq: 4,
                entry: WalEntry::Propose {
                    count: 2,
                    now_us: Some(1_500_000),
                },
            },
            WalRecord {
                seq: 5,
                entry: WalEntry::Expire { now_us: 2_000_000 },
            },
            WalRecord {
                seq: 1,
                entry: WalEntry::Label {
                    labels: vec![(0, true), (3, false)],
                },
            },
            WalRecord {
                seq: 2,
                entry: WalEntry::Step { steps: 40 },
            },
            WalRecord {
                seq: 3,
                entry: WalEntry::RunBudget {
                    label_budget: 100,
                    max_steps: 10_000,
                },
            },
        ];
        for record in records {
            let line = record.render();
            assert!(!line.contains('\n'), "one record per line: {line}");
            assert_eq!(WalRecord::parse(&line).unwrap(), record);
        }
    }

    #[test]
    fn legacy_propose_lines_parse_without_a_lease_timestamp() {
        // Logs written before lease support carry no now_us; they must keep
        // replaying with legacy semantics (no expiry).
        let record = WalRecord::parse(r#"{"seq":"3","op":"propose","count":7}"#).unwrap();
        assert_eq!(
            record.entry,
            WalEntry::Propose {
                count: 7,
                now_us: None
            }
        );
        assert!(
            !record.render().contains("now_us"),
            "absent timestamps must not materialise on re-render"
        );
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in ["not json", "{}", r#"{"seq":0,"op":"bogus"}"#] {
            let err = WalRecord::parse(bad).unwrap_err();
            assert!(matches!(err, EngineError::Store(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn replay_reproduces_the_logged_run_and_rejects_gaps() {
        let (pool, truth) = crate::test_support::pool_and_truth(500, 77, 0.1);
        let make = || {
            Session::new(
                "s",
                "p",
                Arc::clone(&pool),
                SamplerMethod::Oasis,
                OasisConfig::default().with_strata_count(6),
                7,
                LabelSource::external(pool.len()),
            )
            .unwrap()
        };

        // Drive a live session, logging what a durable engine would log.
        let mut live = make();
        let mut log = Vec::new();
        let mut logged = |entry: WalEntry| {
            let outcome = entry.apply(&mut live).outcome;
            log.push(WalRecord {
                seq: log.len() as u64,
                entry,
            });
            outcome
        };
        let propose = WalEntry::Propose {
            count: 4,
            now_us: None,
        };
        let Ok(Outcome::Tickets(tickets)) = logged(propose) else {
            panic!("an external session proposes")
        };
        // A request that is logged, then rejected: unknown ticket 999.
        let unknown = vec![(999, true)];
        assert!(logged(WalEntry::Label { labels: unknown }).is_err());
        let labels = tickets
            .iter()
            .map(|t| (t.id, truth[t.proposal.item]))
            .collect();
        logged(WalEntry::Label { labels }).unwrap();

        let mut replayed = make();
        assert_eq!(replay(&mut replayed, &log, 0).unwrap(), 3);
        assert_eq!(
            replayed.estimate().f_measure.to_bits(),
            live.estimate().f_measure.to_bits()
        );
        assert_eq!(replayed.pending_count(), live.pending_count());
        assert_eq!(replayed.labels_consumed(), live.labels_consumed());

        // A hole in the suffix is corruption, not something to skip over.
        let gappy = vec![log[0].clone(), log[2].clone()];
        let err = replay(&mut make(), &gappy, 0).unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");

        // Replaying from a later watermark ignores the compacted prefix.
        let mut partial = make();
        assert!(log[0].entry.apply(&mut partial).outcome.is_ok());
        assert!(log[1].entry.apply(&mut partial).outcome.is_err());
        assert_eq!(replay(&mut partial, &log, 2).unwrap(), 1);
        assert_eq!(
            partial.estimate().f_measure.to_bits(),
            live.estimate().f_measure.to_bits()
        );
    }

    #[test]
    fn partial_trailing_record_is_truncated_not_fatal() {
        let good = WalRecord {
            seq: 0,
            entry: WalEntry::Step { steps: 3 },
        }
        .render();
        let torn = {
            let full = WalRecord {
                seq: 1,
                entry: WalEntry::Step { steps: 9 },
            }
            .render();
            full[..full.len() / 2].to_string()
        };

        let outcome = parse_lines(&[good.clone(), torn.clone()]).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].seq, 0);
        let warning = outcome.truncated_tail.expect("tail must be flagged");
        assert!(warning.contains("partial trailing"), "{warning}");

        // A clean log reports no truncation.
        let clean = parse_lines(std::slice::from_ref(&good)).unwrap();
        assert_eq!(clean.records.len(), 1);
        assert!(clean.truncated_tail.is_none());

        // An empty log is fine too.
        let empty = parse_lines(&[]).unwrap();
        assert!(empty.records.is_empty() && empty.truncated_tail.is_none());
    }

    #[test]
    fn interior_corruption_stays_a_hard_error() {
        let good = WalRecord {
            seq: 1,
            entry: WalEntry::Step { steps: 3 },
        }
        .render();
        let err = parse_lines(&["torn{".to_string(), good]).unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");
        assert!(err.to_string().contains("interior"), "{err}");
    }
}
