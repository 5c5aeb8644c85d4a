//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line with a `"cmd"` field; every
//! response is one JSON object on one line with `"ok": true|false`.  The
//! protocol is transport-agnostic — `oasis-serve` speaks it over
//! stdin/stdout or TCP — and deliberately stateless at the line level: all
//! state lives in the engine's named pools and sessions.
//!
//! | `cmd` | fields | effect |
//! |---|---|---|
//! | `load_pool` | `pool`, `scores[]`, `predictions[]` | register a shared pool |
//! | `create_session` | `session`, `pool`, `seed`, `method`?, `config{}`?, `shards`?, `truth[]`? | new session; `truth` attaches an in-process oracle |
//! | `propose` | `session`, `count`? | draw items to label; returns tickets |
//! | `label` | `session`, `labels[{ticket,label}]` | resume with a label batch |
//! | `step` | `session`, `steps` | run full iterations (needs `truth`) |
//! | `run_budget` | `session`, `budget`, `max_steps`? | run until the label budget is spent |
//! | `estimate` | `session` | current F/P/R estimate + 95% CI + budget state |
//! | `checkpoint` | `session` | inline JSON checkpoint document |
//! | `restore` | `session`, `checkpoint{}` | rebuild a session from a checkpoint |
//! | `checkpoint_to` | `session` | durably checkpoint into the attached store |
//! | `restore_from` | `session` | rebuild from the store: checkpoint + WAL replay |
//! | `expire_leases` | `session` | force the overdue-lease sweep now |
//! | `auth` | `token` | present a client token (enforced by the server guard) |
//! | `sessions` | — | list sessions with per-session metadata |
//! | `delete_session` | `session` | drop a session (and its store entry) |
//! | `metrics` | — | global counters + latency histograms (see [`crate::metrics`]) |
//! | `diagnostics` | `session` | ground-truth-free sampler health (ESS, weight variance, allocation) |
//! | `shutdown` | — | acknowledge and stop serving |
//!
//! `create_session`'s `method` selects the sampling method — `"oasis"`
//! (the default, for back-compatibility with pre-redesign clients),
//! `"passive"`, `"importance"` or `"stratified"` — so all of the paper's
//! comparison methods run behind the same wire commands.  An unknown method
//! is a structured `"ok": false` protocol error, never a dropped connection.
//!
//! `create_session`'s optional `lease_timeout_us` puts every proposed ticket
//! on a lease against the engine's logical lease clock: tickets older than
//! the timeout are reclaimed on the next `propose` (or an explicit
//! `expire_leases`), their late labels rejected.  The clock reading is
//! WAL-logged with the propose, so replay expires exactly what the live run
//! expired.  `max_pending` bounds the outstanding-ticket queue; a propose
//! that would exceed it fails with a `backpressure` error *before* touching
//! the sampler, so the rejected request is invisible to replay.
//!
//! `create_session`'s optional `shards` partitions the pool into that many
//! shards, each with its own strata and inner sampler, routed through one
//! Fenwick tree of shard masses (see [`oasis::ShardedSampler`]) — the merged
//! estimate is the exact AIS estimate, and `shards: 1` is bit-identical to
//! an unsharded session on the same seed.  `shards: 0` is a protocol error;
//! omitting the field builds the classic flat sampler.

use crate::checkpoint::SessionCheckpoint;
use crate::engine::Engine;
use crate::error::{EngineError, EngineResult};
use crate::session::{LabelSource, Session, SessionLimits};
use crate::wal::{Outcome, WalEntry};
use oasis::{GroundTruthOracle, OasisConfig, SamplerMethod, ScoredPool};
use serde::json::{FromJson, Json, ToJson};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a pool of scored record pairs.
    LoadPool {
        /// Pool id.
        pool: String,
        /// Similarity scores.
        scores: Vec<f64>,
        /// Predicted labels.
        predictions: Vec<bool>,
    },
    /// Create a session.
    CreateSession {
        /// Session id.
        session: String,
        /// Pool id to evaluate.
        pool: String,
        /// RNG seed.
        seed: u64,
        /// Sampling method (`"oasis"` when omitted).
        method: SamplerMethod,
        /// Sampler configuration (defaults for missing keys).
        config: OasisConfig,
        /// Optional shard count: partition the pool into this many shards,
        /// each with its own strata and inner sampler (`None` = flat).
        shards: Option<usize>,
        /// Optional hidden ground truth, enabling `step`/`run_budget`.
        truth: Option<Vec<bool>>,
        /// Robustness limits: propose-lease timeout and pending-ticket cap
        /// (both off by default, preserving legacy wire behaviour).
        limits: SessionLimits,
    },
    /// Draw `count` items to label.
    Propose {
        /// Session id.
        session: String,
        /// Batch size (default 1).
        count: usize,
    },
    /// Apply a batch of labels.
    Label {
        /// Session id.
        session: String,
        /// `(ticket, label)` pairs.
        labels: Vec<(u64, bool)>,
    },
    /// Run complete iterations against the attached oracle.
    Step {
        /// Session id.
        session: String,
        /// Number of iterations.
        steps: usize,
    },
    /// Run until the distinct-label budget is consumed.
    RunBudget {
        /// Session id.
        session: String,
        /// Label budget.
        budget: usize,
        /// Iteration cap (default 1,000,000).
        max_steps: usize,
    },
    /// Report the current estimate.
    Estimate {
        /// Session id.
        session: String,
    },
    /// Produce an inline checkpoint document.
    Checkpoint {
        /// Session id.
        session: String,
    },
    /// Restore a session from an inline checkpoint document.
    Restore {
        /// New session id.
        session: String,
        /// The checkpoint document (boxed — it dwarfs every other variant).
        checkpoint: Box<SessionCheckpoint>,
    },
    /// Durably checkpoint a session into the attached store.
    CheckpointTo {
        /// Session id.
        session: String,
    },
    /// Rebuild a session from the attached store (checkpoint + WAL replay).
    RestoreFrom {
        /// Session id.
        session: String,
    },
    /// Expire overdue propose leases now (usually they expire lazily on the
    /// next propose; this forces the sweep, e.g. after a client vanished).
    ExpireLeases {
        /// Session id.
        session: String,
    },
    /// Present a client auth token.  Enforcement lives in the server's
    /// connection guard; with no guard configured this is an accepted no-op.
    Auth {
        /// The presented token.
        token: String,
    },
    /// List live sessions.
    Sessions,
    /// Delete a session.
    DeleteSession {
        /// Session id.
        session: String,
    },
    /// Report the engine-wide metrics snapshot.
    Metrics,
    /// Report one session's ground-truth-free sampler diagnostics.
    Diagnostics {
        /// Session id.
        session: String,
    },
    /// Stop serving.
    Shutdown,
}

fn string_field(value: &Json, key: &str) -> EngineResult<String> {
    Ok(String::from_json(value.require(key)?)?)
}

/// Largest propose batch a single request may ask for.
pub const MAX_PROPOSE_COUNT: usize = 100_000;
/// Largest number of iterations a single `step`/`run_budget` request may run.
pub const MAX_STEPS_PER_REQUEST: usize = 100_000_000;

fn bounded(value: usize, limit: usize, what: &str) -> EngineResult<usize> {
    if value > limit {
        return Err(EngineError::Protocol(format!(
            "{what} {value} exceeds the per-request limit {limit}"
        )));
    }
    Ok(value)
}

impl Request {
    /// Parse one protocol line.
    ///
    /// # Errors
    /// [`EngineError::Protocol`] / [`EngineError::Json`] on malformed input.
    pub fn parse(line: &str) -> EngineResult<Request> {
        let value = Json::parse(line)?;
        let cmd = value.require("cmd")?.as_str()?.to_string();
        match cmd.as_str() {
            "load_pool" => Ok(Request::LoadPool {
                pool: string_field(&value, "pool")?,
                scores: Vec::<f64>::from_json(value.require("scores")?)?,
                predictions: Vec::<bool>::from_json(value.require("predictions")?)?,
            }),
            "create_session" => Ok(Request::CreateSession {
                session: string_field(&value, "session")?,
                pool: string_field(&value, "pool")?,
                seed: value.require("seed")?.as_u64()?,
                method: match value.get("method") {
                    // Surface the unknown-method message as a structured
                    // protocol error rather than a generic JSON one.
                    Some(method) => SamplerMethod::parse(method.as_str()?)
                        .map_err(|e| EngineError::Protocol(e.to_string()))?,
                    None => SamplerMethod::Oasis,
                },
                config: match value.get("config") {
                    Some(config) => OasisConfig::from_json(config)?,
                    None => OasisConfig::default(),
                },
                shards: match value.get("shards") {
                    Some(shards) => {
                        let shards = shards.as_usize()?;
                        if shards == 0 {
                            return Err(EngineError::Protocol(
                                "shards must be at least 1".to_string(),
                            ));
                        }
                        Some(shards)
                    }
                    None => None,
                },
                truth: match value.get("truth") {
                    Some(truth) => Some(Vec::<bool>::from_json(truth)?),
                    None => None,
                },
                limits: SessionLimits {
                    lease_timeout_us: match value.get("lease_timeout_us") {
                        Some(timeout) => {
                            let timeout = timeout.as_u64()?;
                            if timeout == 0 {
                                return Err(EngineError::Protocol(
                                    "lease_timeout_us must be at least 1".to_string(),
                                ));
                            }
                            Some(timeout)
                        }
                        None => None,
                    },
                    max_pending: match value.get("max_pending") {
                        Some(cap) => {
                            let cap = cap.as_usize()?;
                            if cap == 0 {
                                return Err(EngineError::Protocol(
                                    "max_pending must be at least 1".to_string(),
                                ));
                            }
                            Some(cap)
                        }
                        None => None,
                    },
                },
            }),
            "propose" => Ok(Request::Propose {
                session: string_field(&value, "session")?,
                count: match value.get("count") {
                    Some(count) => bounded(count.as_usize()?, MAX_PROPOSE_COUNT, "count")?,
                    None => 1,
                },
            }),
            "label" => {
                let labels = value
                    .require("labels")?
                    .as_array()?
                    .iter()
                    .map(|entry| {
                        Ok::<_, EngineError>((
                            entry.require("ticket")?.as_u64()?,
                            entry.require("label")?.as_bool()?,
                        ))
                    })
                    .collect::<EngineResult<Vec<_>>>()?;
                Ok(Request::Label {
                    session: string_field(&value, "session")?,
                    labels,
                })
            }
            "step" => Ok(Request::Step {
                session: string_field(&value, "session")?,
                steps: bounded(
                    value.require("steps")?.as_usize()?,
                    MAX_STEPS_PER_REQUEST,
                    "steps",
                )?,
            }),
            "run_budget" => Ok(Request::RunBudget {
                session: string_field(&value, "session")?,
                budget: value.require("budget")?.as_usize()?,
                max_steps: match value.get("max_steps") {
                    Some(max_steps) => {
                        bounded(max_steps.as_usize()?, MAX_STEPS_PER_REQUEST, "max_steps")?
                    }
                    None => 1_000_000,
                },
            }),
            "estimate" => Ok(Request::Estimate {
                session: string_field(&value, "session")?,
            }),
            "checkpoint" => Ok(Request::Checkpoint {
                session: string_field(&value, "session")?,
            }),
            "restore" => Ok(Request::Restore {
                session: string_field(&value, "session")?,
                checkpoint: Box::new(SessionCheckpoint::from_json(value.require("checkpoint")?)?),
            }),
            "checkpoint_to" => Ok(Request::CheckpointTo {
                session: string_field(&value, "session")?,
            }),
            "restore_from" => Ok(Request::RestoreFrom {
                session: string_field(&value, "session")?,
            }),
            "expire_leases" => Ok(Request::ExpireLeases {
                session: string_field(&value, "session")?,
            }),
            "auth" => Ok(Request::Auth {
                token: string_field(&value, "token")?,
            }),
            "sessions" => Ok(Request::Sessions),
            "delete_session" => Ok(Request::DeleteSession {
                session: string_field(&value, "session")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "diagnostics" => Ok(Request::Diagnostics {
                session: string_field(&value, "session")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(EngineError::Protocol(format!("unknown cmd {other:?}"))),
        }
    }

    /// The wire name of this request's command (for the event log).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::LoadPool { .. } => "load_pool",
            Request::CreateSession { .. } => "create_session",
            Request::Propose { .. } => "propose",
            Request::Label { .. } => "label",
            Request::Step { .. } => "step",
            Request::RunBudget { .. } => "run_budget",
            Request::Estimate { .. } => "estimate",
            Request::Checkpoint { .. } => "checkpoint",
            Request::Restore { .. } => "restore",
            Request::CheckpointTo { .. } => "checkpoint_to",
            Request::RestoreFrom { .. } => "restore_from",
            Request::ExpireLeases { .. } => "expire_leases",
            Request::Auth { .. } => "auth",
            Request::Sessions => "sessions",
            Request::DeleteSession { .. } => "delete_session",
            Request::Metrics => "metrics",
            Request::Diagnostics { .. } => "diagnostics",
            Request::Shutdown => "shutdown",
        }
    }

    /// The session this request addresses, if any (for the event log).
    pub fn session_id(&self) -> Option<&str> {
        match self {
            Request::CreateSession { session, .. }
            | Request::Propose { session, .. }
            | Request::Label { session, .. }
            | Request::Step { session, .. }
            | Request::RunBudget { session, .. }
            | Request::Estimate { session }
            | Request::Checkpoint { session }
            | Request::Restore { session, .. }
            | Request::CheckpointTo { session }
            | Request::RestoreFrom { session }
            | Request::ExpireLeases { session }
            | Request::DeleteSession { session }
            | Request::Diagnostics { session } => Some(session),
            Request::LoadPool { .. }
            | Request::Auth { .. }
            | Request::Sessions
            | Request::Metrics
            | Request::Shutdown => None,
        }
    }
}

/// The outcome of dispatching one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// The response object to write back (always has an `"ok"` field).
    pub response: Json,
    /// Whether the server should stop after responding (`shutdown`).
    pub shutdown: bool,
}

fn ok_response() -> Json {
    let mut obj = Json::object();
    obj.set("ok", Json::Bool(true));
    obj
}

/// Render an error as a protocol response line.  The `kind` tag gives
/// untrusted clients a stable taxonomy to branch on (retry `store_transient`
/// and `throttled`, re-authenticate on `unauthorized`, back off on
/// `backpressure`) without parsing the human-readable message.
pub fn error_response(error: &EngineError) -> Json {
    let mut obj = Json::object();
    obj.set("ok", Json::Bool(false));
    obj.set("error", Json::String(error.to_string()));
    obj.set("kind", Json::String(error.kind().to_string()));
    obj
}

fn estimate_response(session: &Session) -> Json {
    let mut obj = ok_response();
    obj.set("session", Json::String(session.id().to_string()));
    obj.set("method", session.method().to_json());
    obj.set("estimate", session.estimate().to_json());
    // `null` while the interval is undefined (too few observations) — or
    // while the variance history is incomplete; `variance_tracked` lets
    // clients tell the two apart.
    obj.set(
        "confidence_interval",
        match session.confidence_interval(0.95) {
            Some(interval) => interval.to_json(),
            None => Json::Null,
        },
    );
    obj.set("variance_tracked", Json::Bool(session.variance_tracked()));
    obj.set("labels_consumed", session.labels_consumed().to_json());
    obj.set("pending", session.pending_count().to_json());
    obj
}

/// Execute one parsed request against the engine.
pub fn dispatch(engine: &Engine, request: Request) -> Dispatch {
    let outcome = apply(engine, request);
    match outcome {
        Ok(dispatch) => dispatch,
        Err(error) => Dispatch {
            response: error_response(&error),
            shutdown: false,
        },
    }
}

fn apply(engine: &Engine, request: Request) -> EngineResult<Dispatch> {
    let response = match request {
        Request::LoadPool {
            pool,
            scores,
            predictions,
        } => {
            let len = scores.len();
            engine.load_pool(&pool, ScoredPool::new(scores, predictions)?)?;
            let mut obj = ok_response();
            obj.set("pool", Json::String(pool));
            obj.set("len", len.to_json());
            obj
        }
        Request::CreateSession {
            session,
            pool,
            seed,
            method,
            config,
            shards,
            truth,
            limits,
        } => {
            let source = match truth {
                Some(truth) => LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
                None => {
                    let pool_len = engine.pool(&pool)?.len();
                    LabelSource::external(pool_len)
                }
            };
            engine.create_session_with_limits(
                &session, &pool, method, config, shards, seed, source, limits,
            )?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("method", method.to_json());
            obj.set("seed", seed.to_json());
            if let Some(shards) = shards {
                obj.set("shards", shards.to_json());
            }
            if let Some(timeout) = limits.lease_timeout_us {
                obj.set("lease_timeout_us", timeout.to_json());
            }
            if let Some(cap) = limits.max_pending {
                obj.set("max_pending", cap.to_json());
            }
            obj
        }
        // The mutating arms hand their WAL entry to `Engine::mutate`, which
        // logs, applies, counts and times it, then lets the arm render its
        // response from the still-locked session.
        Request::Propose { session, count } => engine.mutate(
            &session,
            WalEntry::Propose {
                count,
                now_us: None,
            },
            |guard, expired, outcome| {
                let Outcome::Tickets(tickets) = outcome else {
                    unreachable!("a propose entry yields tickets")
                };
                let mut obj = ok_response();
                obj.set("session", Json::String(guard.id().to_string()));
                obj.set("proposals", tickets.to_json());
                obj.set("pending", guard.pending_count().to_json());
                if !expired.is_empty() {
                    obj.set("expired", expired.to_json());
                }
                obj
            },
        )?,
        Request::Label { session, labels } => {
            engine.mutate(&session, WalEntry::Label { labels }, |guard, _, outcome| {
                let Outcome::Labelled(applied) = outcome else {
                    unreachable!("a label entry yields a label count")
                };
                let mut obj = estimate_response(guard);
                obj.set("applied", applied.to_json());
                obj
            })?
        }
        Request::Step { session, steps } => {
            engine.mutate(&session, WalEntry::Step { steps }, |guard, _, _| {
                estimate_response(guard)
            })?
        }
        Request::RunBudget {
            session,
            budget,
            max_steps,
        } => engine.mutate(
            &session,
            WalEntry::RunBudget {
                label_budget: budget,
                max_steps,
            },
            |guard, _, _| estimate_response(guard),
        )?,
        Request::Estimate { session } => {
            let handle = engine.session(&session)?;
            let guard = handle.lock();
            estimate_response(&guard)
        }
        Request::Checkpoint { session } => {
            let handle = engine.session(&session)?;
            let guard = handle.lock();
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("checkpoint", guard.checkpoint().to_json());
            obj
        }
        Request::Restore {
            session,
            checkpoint,
        } => {
            engine.restore_session(&session, *checkpoint)?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("restored", Json::Bool(true));
            obj
        }
        Request::CheckpointTo { session } => {
            let wal_seq = engine.checkpoint_to(&session)?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("wal_seq", wal_seq.to_json());
            obj
        }
        Request::RestoreFrom { session } => {
            let report = engine.restore_from(&session)?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("restored", Json::Bool(true));
            obj.set("replayed", report.replayed.to_json());
            if report.truncated_tail {
                obj.set("wal_truncated", Json::Bool(true));
            }
            obj
        }
        Request::ExpireLeases { session } => {
            let (expired, pending) = engine.mutate(
                &session,
                WalEntry::Expire { now_us: 0 },
                |guard, expired, _| (expired, guard.pending_count()),
            )?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("expired", expired.to_json());
            obj.set("pending", pending.to_json());
            obj
        }
        Request::Auth { .. } => {
            // Token checking happens in the server's connection guard before
            // dispatch; reaching this arm means no guard is configured.
            let mut obj = ok_response();
            obj.set("authenticated", Json::Bool(true));
            obj
        }
        Request::Sessions => {
            let mut obj = ok_response();
            obj.set(
                "sessions",
                Json::Array(engine.session_ids().into_iter().map(Json::String).collect()),
            );
            obj.set(
                "pools",
                Json::Array(engine.pool_ids().into_iter().map(Json::String).collect()),
            );
            let detail = engine
                .session_overviews()
                .into_iter()
                .map(|overview| {
                    let mut entry = Json::object();
                    entry.set("session", Json::String(overview.id));
                    if let Some(method) = overview.method {
                        entry.set("method", method.to_json());
                    }
                    if let Some(shards) = overview.shards {
                        entry.set("shards", shards.to_json());
                    }
                    if let Some(pending) = overview.pending {
                        entry.set("pending", pending.to_json());
                    }
                    if let Some(labels) = overview.labels_consumed {
                        entry.set("labels_consumed", labels.to_json());
                    }
                    entry.set("dirty", Json::Bool(overview.dirty));
                    entry.set("resident", Json::Bool(overview.resident));
                    entry
                })
                .collect();
            obj.set("detail", Json::Array(detail));
            obj
        }
        Request::DeleteSession { session } => {
            engine.delete_session(&session)?;
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("deleted", Json::Bool(true));
            obj
        }
        Request::Metrics => {
            // Counters live in engine-process memory only: they reset on
            // restart and are *not* persisted through checkpoints or the
            // WAL (replay after `restore_from` re-counts the replayed
            // entries).  Clients wanting durable totals must scrape them.
            let mut obj = ok_response();
            obj.set("metrics", engine.metrics().snapshot());
            obj
        }
        Request::Diagnostics { session } => {
            let handle = engine.session(&session)?;
            let guard = handle.lock();
            let mut obj = ok_response();
            obj.set("session", Json::String(session));
            obj.set("method", guard.method().to_json());
            obj.set("labels_consumed", guard.labels_consumed().to_json());
            obj.set("diagnostics", guard.diagnostics().to_json());
            obj
        }
        Request::Shutdown => {
            let mut obj = ok_response();
            obj.set("shutdown", Json::Bool(true));
            return Ok(Dispatch {
                response: obj,
                shutdown: true,
            });
        }
    };
    Ok(Dispatch {
        response,
        shutdown: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_command() {
        let lines = [
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.1],"predictions":[true,false]}"#,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":42}"#,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"config":{"alpha":0.7},"truth":[true,false]}"#,
            r#"{"cmd":"propose","session":"s","count":3}"#,
            r#"{"cmd":"propose","session":"s"}"#,
            r#"{"cmd":"label","session":"s","labels":[{"ticket":0,"label":true}]}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"run_budget","session":"s","budget":50}"#,
            r#"{"cmd":"estimate","session":"s"}"#,
            r#"{"cmd":"checkpoint","session":"s"}"#,
            r#"{"cmd":"checkpoint_to","session":"s"}"#,
            r#"{"cmd":"restore_from","session":"s"}"#,
            r#"{"cmd":"expire_leases","session":"s"}"#,
            r#"{"cmd":"auth","token":"secret"}"#,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"lease_timeout_us":5000,"max_pending":4}"#,
            r#"{"cmd":"sessions"}"#,
            r#"{"cmd":"delete_session","session":"s"}"#,
            r#"{"cmd":"metrics"}"#,
            r#"{"cmd":"diagnostics","session":"s"}"#,
            r#"{"cmd":"shutdown"}"#,
        ];
        for line in lines {
            Request::parse(line).unwrap_or_else(|e| panic!("failed to parse {line}: {e}"));
        }
    }

    #[test]
    fn verb_and_session_id_cover_every_command() {
        let lines = [
            (r#"{"cmd":"propose","session":"s"}"#, "propose", Some("s")),
            (r#"{"cmd":"sessions"}"#, "sessions", None),
            (r#"{"cmd":"metrics"}"#, "metrics", None),
            (
                r#"{"cmd":"diagnostics","session":"d"}"#,
                "diagnostics",
                Some("d"),
            ),
            (r#"{"cmd":"shutdown"}"#, "shutdown", None),
        ];
        for (line, verb, session) in lines {
            let request = Request::parse(line).unwrap();
            assert_eq!(request.verb(), verb, "{line}");
            assert_eq!(request.session_id(), session, "{line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"cmd":"no_such"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"step","session":"s"}"#).is_err());
        assert!(Request::parse(r#"{"nocmd":1}"#).is_err());
    }

    #[test]
    fn create_session_parses_every_method_and_defaults_to_oasis() {
        for method in SamplerMethod::ALL {
            let line = format!(
                r#"{{"cmd":"create_session","session":"s","pool":"p","seed":1,"method":"{}"}}"#,
                method.as_str()
            );
            match Request::parse(&line).unwrap() {
                Request::CreateSession { method: parsed, .. } => assert_eq!(parsed, method),
                other => panic!("unexpected parse {other:?}"),
            }
        }
        let line = r#"{"cmd":"create_session","session":"s","pool":"p","seed":1}"#;
        match Request::parse(line).unwrap() {
            Request::CreateSession { method, .. } => assert_eq!(method, SamplerMethod::Oasis),
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn unknown_method_is_a_structured_protocol_error() {
        let line = r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"method":"bogus"}"#;
        let err = Request::parse(line).unwrap_err();
        assert!(matches!(err, EngineError::Protocol(_)), "{err:?}");
        assert!(err.to_string().contains("bogus"), "{err}");
        // And over dispatch it renders as an ok:false response, so a client
        // typo never tears the connection down.
        let rendered = error_response(&err).render();
        assert!(rendered.contains(r#""ok":false"#));
        assert!(rendered.contains("bogus"));
    }

    #[test]
    fn duplicate_session_ids_return_a_structured_error() {
        let engine = Engine::new();
        let pool = Request::parse(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
        )
        .unwrap();
        assert!(dispatch(&engine, pool)
            .response
            .render()
            .contains(r#""ok":true"#));
        let create = r#"{"cmd":"create_session","session":"dup","pool":"p","seed":1,"config":{"strata_count":2}}"#;
        let first = dispatch(&engine, Request::parse(create).unwrap());
        assert!(first.response.render().contains(r#""ok":true"#));
        let second = dispatch(&engine, Request::parse(create).unwrap());
        assert!(!second.shutdown);
        let rendered = second.response.render();
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(rendered.contains("already exists"), "{rendered}");
    }

    #[test]
    fn every_method_creates_steps_and_reports_over_dispatch() {
        let engine = Engine::new();
        let pool = Request::parse(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1],"predictions":[true,true,true,true,false,false,false,false]}"#,
        )
        .unwrap();
        dispatch(&engine, pool);
        for method in SamplerMethod::ALL {
            let create = format!(
                r#"{{"cmd":"create_session","session":"{m}","pool":"p","seed":3,"method":"{m}","config":{{"strata_count":3}},"truth":[true,true,false,true,false,false,false,false]}}"#,
                m = method.as_str()
            );
            let response = dispatch(&engine, Request::parse(&create).unwrap()).response;
            let rendered = response.render();
            assert!(rendered.contains(r#""ok":true"#), "{rendered}");
            assert!(
                rendered.contains(&format!(r#""method":"{}""#, method.as_str())),
                "{rendered}"
            );
            let step = format!(
                r#"{{"cmd":"step","session":"{}","steps":30}}"#,
                method.as_str()
            );
            let rendered = dispatch(&engine, Request::parse(&step).unwrap())
                .response
                .render();
            assert!(rendered.contains(r#""ok":true"#), "{method}: {rendered}");
            assert!(rendered.contains(r#""f_measure""#), "{method}: {rendered}");
            assert!(
                rendered.contains(&format!(r#""method":"{}""#, method.as_str())),
                "{method}: {rendered}"
            );
        }
    }

    #[test]
    fn metrics_and_diagnostics_report_over_dispatch() {
        let engine = Engine::new();
        let pool = Request::parse(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1],"predictions":[true,true,true,true,false,false,false,false]}"#,
        )
        .unwrap();
        dispatch(&engine, pool);
        let create = r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#;
        dispatch(&engine, Request::parse(create).unwrap());
        dispatch(
            &engine,
            Request::parse(r#"{"cmd":"step","session":"s","steps":25}"#).unwrap(),
        );

        let rendered = dispatch(&engine, Request::Metrics).response.render();
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        // Counters are u64s, so they render as decimal strings on the wire.
        assert!(rendered.contains(r#""step":"25""#), "{rendered}");
        assert!(rendered.contains(r#""latency_us""#), "{rendered}");
        assert!(rendered.contains(r#""step.oasis""#), "{rendered}");

        let rendered = dispatch(
            &engine,
            Request::parse(r#"{"cmd":"diagnostics","session":"s"}"#).unwrap(),
        )
        .response
        .render();
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        assert!(rendered.contains(r#""method":"oasis""#), "{rendered}");
        assert!(
            rendered.contains(r#""effective_sample_size":"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#""stratum_labels":["#), "{rendered}");
        assert!(rendered.contains(r#""instrumental":["#), "{rendered}");
    }

    #[test]
    fn dispatch_reports_errors_inline() {
        let engine = Engine::new();
        let request = Request::Estimate {
            session: "ghost".to_string(),
        };
        let dispatch = dispatch(&engine, request);
        assert!(!dispatch.shutdown);
        assert_eq!(dispatch.response.require("ok").unwrap(), &Json::Bool(false));
        assert!(dispatch
            .response
            .require("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("ghost"));
    }

    #[test]
    fn oversized_requests_are_rejected_at_parse_time() {
        // Absurd counts/steps must fail parsing instead of allocating or
        // spinning inside the engine.
        let huge = r#"{"cmd":"propose","session":"s","count":9007199254740992}"#;
        assert!(Request::parse(huge).is_err());
        let huge = r#"{"cmd":"step","session":"s","steps":9007199254740992}"#;
        assert!(Request::parse(huge).is_err());
        let huge = r#"{"cmd":"run_budget","session":"s","budget":1,"max_steps":9007199254740992}"#;
        assert!(Request::parse(huge).is_err());
        // The limits themselves are accepted.
        let ok = format!(r#"{{"cmd":"propose","session":"s","count":{MAX_PROPOSE_COUNT}}}"#);
        assert!(Request::parse(&ok).is_ok());
    }

    fn render(engine: &Engine, line: &str) -> String {
        dispatch(engine, Request::parse(line).unwrap())
            .response
            .render()
    }

    fn demo_engine() -> Engine {
        let engine = Engine::new();
        let rendered = render(
            &engine,
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1],"predictions":[true,true,true,true,false,false,false,false]}"#,
        );
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        engine
    }

    #[test]
    fn estimate_reports_confidence_interval_and_variance_tracked() {
        let engine = demo_engine();
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
        );
        // Before any labels the interval is undefined but tracking is on.
        let rendered = render(&engine, r#"{"cmd":"estimate","session":"s"}"#);
        assert!(
            rendered.contains(r#""confidence_interval":null"#),
            "{rendered}"
        );
        assert!(
            rendered.contains(r#""variance_tracked":true"#),
            "{rendered}"
        );
        // After enough steps the interval materialises with bounds.
        let rendered = render(&engine, r#"{"cmd":"step","session":"s","steps":40}"#);
        assert!(
            rendered.contains(r#""confidence_interval":{"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#""lower":"#), "{rendered}");
        assert!(rendered.contains(r#""upper":"#), "{rendered}");
        assert!(
            rendered.contains(r#""variance_tracked":true"#),
            "{rendered}"
        );
    }

    #[test]
    fn pre_tracker_checkpoints_restore_with_variance_flagged_absent() {
        let engine = demo_engine();
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
        );
        render(&engine, r#"{"cmd":"step","session":"s","steps":40}"#);
        let response = dispatch(
            &engine,
            Request::parse(r#"{"cmd":"checkpoint","session":"s"}"#).unwrap(),
        )
        .response;
        // Simulate a pre-tracker-serialization document: same checkpoint,
        // tracker key stripped.
        let mut checkpoint = response.require("checkpoint").unwrap().clone();
        if let Json::Object(entries) = &mut checkpoint {
            for (key, value) in entries.iter_mut() {
                if key == "sampler" {
                    value.remove("tracker");
                }
            }
        }
        let mut restore = Json::object();
        restore.set("cmd", Json::String("restore".to_string()));
        restore.set("session", Json::String("legacy".to_string()));
        restore.set("checkpoint", checkpoint);
        let rendered = render(&engine, &restore.render());
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");

        // The estimate still restores exactly, but the response flags the
        // missing variance history instead of silently reporting a zeroed
        // (or freshly restarted) interval.
        let rendered = render(&engine, r#"{"cmd":"estimate","session":"legacy"}"#);
        assert!(
            rendered.contains(r#""variance_tracked":false"#),
            "{rendered}"
        );
        assert!(
            rendered.contains(r#""confidence_interval":null"#),
            "{rendered}"
        );
        let original = render(&engine, r#"{"cmd":"estimate","session":"s"}"#);
        assert!(
            original.contains(r#""variance_tracked":true"#),
            "{original}"
        );
    }

    #[test]
    fn restore_with_mismatched_fingerprint_is_a_structured_error() {
        let engine = demo_engine();
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
        );
        render(&engine, r#"{"cmd":"step","session":"s","steps":10}"#);
        let response = dispatch(
            &engine,
            Request::parse(r#"{"cmd":"checkpoint","session":"s"}"#).unwrap(),
        )
        .response;
        let mut checkpoint = response.require("checkpoint").unwrap().clone();
        checkpoint.set("pool_fingerprint", Json::String("1234".to_string()));
        let mut restore = Json::object();
        restore.set("cmd", Json::String("restore".to_string()));
        restore.set("session", Json::String("copy".to_string()));
        restore.set("checkpoint", checkpoint);
        let outcome = dispatch(&engine, Request::parse(&restore.render()).unwrap());
        assert!(!outcome.shutdown);
        let rendered = outcome.response.render();
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(rendered.contains("checkpoint mismatch"), "{rendered}");
    }

    #[test]
    fn store_verbs_report_structured_errors_without_a_store() {
        let engine = demo_engine();
        for line in [
            r#"{"cmd":"checkpoint_to","session":"s"}"#,
            r#"{"cmd":"restore_from","session":"s"}"#,
        ] {
            let rendered = render(&engine, line);
            assert!(rendered.contains(r#""ok":false"#), "{rendered}");
            assert!(rendered.contains("store"), "{rendered}");
        }
    }

    #[test]
    fn sessions_response_carries_per_session_detail() {
        let engine = demo_engine();
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"method":"passive","config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
        );
        render(&engine, r#"{"cmd":"step","session":"s","steps":12}"#);
        let rendered = render(&engine, r#"{"cmd":"sessions"}"#);
        assert!(rendered.contains(r#""sessions":["s"]"#), "{rendered}");
        assert!(rendered.contains(r#""detail":[{"#), "{rendered}");
        assert!(rendered.contains(r#""method":"passive""#), "{rendered}");
        assert!(rendered.contains(r#""pending":0"#), "{rendered}");
        assert!(rendered.contains(r#""labels_consumed":"#), "{rendered}");
        assert!(rendered.contains(r#""dirty":true"#), "{rendered}");
        assert!(rendered.contains(r#""resident":true"#), "{rendered}");
    }

    #[test]
    fn zero_limits_are_protocol_errors() {
        let line =
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"lease_timeout_us":0}"#;
        let err = Request::parse(line).unwrap_err();
        assert!(matches!(err, EngineError::Protocol(_)), "{err:?}");
        let line = r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"max_pending":0}"#;
        let err = Request::parse(line).unwrap_err();
        assert!(matches!(err, EngineError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn error_responses_carry_a_kind_tag() {
        let rendered =
            error_response(&EngineError::Throttled("rate limit exceeded".to_string())).render();
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(rendered.contains(r#""kind":"throttled""#), "{rendered}");
        let rendered = error_response(&EngineError::UnknownSession("s".to_string())).render();
        assert!(
            rendered.contains(r#""kind":"unknown_session""#),
            "{rendered}"
        );
    }

    #[test]
    fn lease_timeouts_expire_stale_tickets_over_dispatch() {
        use crate::metrics::ManualClock;
        use std::sync::Arc;
        let clock = Arc::new(ManualClock::new());
        let engine = Engine::new().with_lease_clock(Arc::clone(&clock) as _);
        render(
            &engine,
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1],"predictions":[true,true,true,true,false,false,false,false]}"#,
        );
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"lease_timeout_us":1000}"#,
        );
        let rendered = render(&engine, r#"{"cmd":"propose","session":"s","count":2}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        assert!(!rendered.contains(r#""expired""#), "{rendered}");

        // Let the lease lapse: the next propose reclaims both tickets.
        clock.advance(5_000);
        let rendered = render(&engine, r#"{"cmd":"propose","session":"s","count":1}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        // Ticket ids are u64s, so they render as decimal strings.
        assert!(rendered.contains(r#""expired":["0","1"]"#), "{rendered}");
        assert!(rendered.contains(r#""pending":1"#), "{rendered}");
        // A label against an expired ticket is rejected.
        let rendered = render(
            &engine,
            r#"{"cmd":"label","session":"s","labels":[{"ticket":0,"label":true}]}"#,
        );
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(
            rendered.contains(r#""kind":"unknown_ticket""#),
            "{rendered}"
        );
        // Metrics saw the expiries.
        let rendered = render(&engine, r#"{"cmd":"metrics"}"#);
        assert!(rendered.contains(r#""lease_expiry":"2""#), "{rendered}");
    }

    #[test]
    fn explicit_expire_leases_sweeps_without_a_propose() {
        use crate::metrics::ManualClock;
        use std::sync::Arc;
        let clock = Arc::new(ManualClock::new());
        let engine = Engine::new().with_lease_clock(Arc::clone(&clock) as _);
        render(
            &engine,
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1],"predictions":[true,true,true,true,false,false,false,false]}"#,
        );
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"lease_timeout_us":1000}"#,
        );
        render(&engine, r#"{"cmd":"propose","session":"s","count":3}"#);
        clock.advance(10_000);
        let rendered = render(&engine, r#"{"cmd":"expire_leases","session":"s"}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        assert!(
            rendered.contains(r#""expired":["0","1","2"]"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#""pending":0"#), "{rendered}");
    }

    #[test]
    fn max_pending_rejects_with_backpressure() {
        let engine = demo_engine();
        render(
            &engine,
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":3},"max_pending":2}"#,
        );
        let rendered = render(&engine, r#"{"cmd":"propose","session":"s","count":2}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        let rendered = render(&engine, r#"{"cmd":"propose","session":"s","count":1}"#);
        assert!(rendered.contains(r#""ok":false"#), "{rendered}");
        assert!(rendered.contains(r#""kind":"backpressure""#), "{rendered}");
        // Labelling drains the queue and proposing works again.
        let rendered = render(
            &engine,
            r#"{"cmd":"label","session":"s","labels":[{"ticket":0,"label":true},{"ticket":1,"label":false}]}"#,
        );
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        let rendered = render(&engine, r#"{"cmd":"propose","session":"s","count":2}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
    }

    #[test]
    fn auth_is_an_accepted_noop_without_a_guard() {
        let engine = Engine::new();
        let rendered = render(&engine, r#"{"cmd":"auth","token":"anything"}"#);
        assert!(rendered.contains(r#""ok":true"#), "{rendered}");
        assert!(rendered.contains(r#""authenticated":true"#), "{rendered}");
    }

    #[test]
    fn config_defaults_apply_when_omitted() {
        let request =
            Request::parse(r#"{"cmd":"create_session","session":"s","pool":"p","seed":7}"#)
                .unwrap();
        match request {
            Request::CreateSession { config, truth, .. } => {
                assert_eq!(config, OasisConfig::default());
                assert!(truth.is_none());
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }
}
