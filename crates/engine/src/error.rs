//! Engine-level errors.

use serde::json::JsonError;
use std::fmt;

/// Anything that can go wrong inside the engine: sampler failures, checkpoint
/// (de)serialisation problems, or session/pool bookkeeping errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An error bubbled up from the `oasis` sampling library.
    Sampler(oasis::Error),
    /// A JSON parse or conversion failure.
    Json(JsonError),
    /// The named pool is not loaded.
    UnknownPool(String),
    /// The named session does not exist.
    UnknownSession(String),
    /// An id (pool or session) is already taken.
    DuplicateId(String),
    /// A label referenced a ticket that is not pending.
    UnknownTicket(u64),
    /// A label batch named the same ticket more than once.
    DuplicateTicket(u64),
    /// The operation needs an attached oracle (e.g. `step`) but the session
    /// labels externally, or vice versa.
    WrongLabelSource(&'static str),
    /// A label source whose coverage does not match the pool at creation.
    InvalidLabelSource(String),
    /// A checkpoint does not match the pool it is being restored against.
    CheckpointMismatch(String),
    /// A malformed protocol request.
    Protocol(String),
    /// A durable checkpoint store failure: I/O, a missing or corrupt entry,
    /// or a write-ahead log that cannot be replayed.
    Store(String),
    /// A store failure that is expected to succeed on retry (a transient
    /// I/O error).  The engine retries these with bounded backoff before
    /// promoting them to a permanent [`EngineError::Store`].
    StoreTransient(String),
    /// The connection has not presented the configured auth token.
    Unauthorized(String),
    /// The session exceeded its configured request rate; the client should
    /// back off and retry.
    Throttled(String),
    /// The request would grow a bounded queue (e.g. pending tickets) past
    /// its cap; the client must drain it first.
    Backpressure(String),
    /// A propose would issue ticket ids past `u64::MAX`; the session's
    /// ticket ids are spent.
    TicketsExhausted(String),
    /// A request line exceeded the server's per-line byte cap before a
    /// newline appeared.  The payload is the cap; the offending line is
    /// discarded, never buffered whole.
    LineTooLong(usize),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sampler(e) => write!(f, "sampler error: {e}"),
            EngineError::Json(e) => write!(f, "{e}"),
            EngineError::UnknownPool(id) => write!(f, "unknown pool {id:?}"),
            EngineError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            EngineError::DuplicateId(id) => write!(f, "id {id:?} already exists"),
            EngineError::UnknownTicket(t) => write!(f, "ticket {t} is not pending"),
            EngineError::DuplicateTicket(t) => {
                write!(f, "ticket {t} appears more than once in the batch")
            }
            EngineError::WrongLabelSource(what) => write!(f, "{what}"),
            EngineError::InvalidLabelSource(why) => write!(f, "invalid label source: {why}"),
            EngineError::CheckpointMismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            EngineError::Protocol(why) => write!(f, "bad request: {why}"),
            EngineError::Store(why) => write!(f, "store error: {why}"),
            EngineError::StoreTransient(why) => write!(f, "transient store error: {why}"),
            EngineError::Unauthorized(why) => write!(f, "unauthorized: {why}"),
            EngineError::Throttled(why) => write!(f, "throttled: {why}"),
            EngineError::Backpressure(why) => write!(f, "backpressure: {why}"),
            EngineError::TicketsExhausted(why) => write!(f, "tickets exhausted: {why}"),
            EngineError::LineTooLong(max) => {
                write!(f, "request line exceeds {max} bytes")
            }
        }
    }
}

impl EngineError {
    /// A stable machine-readable tag for the error family, surfaced as the
    /// `kind` field of `ok:false` protocol responses so clients can branch
    /// without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Sampler(_) => "sampler",
            EngineError::Json(_) => "json",
            EngineError::UnknownPool(_) => "unknown_pool",
            EngineError::UnknownSession(_) => "unknown_session",
            EngineError::DuplicateId(_) => "duplicate_id",
            EngineError::UnknownTicket(_) => "unknown_ticket",
            EngineError::DuplicateTicket(_) => "duplicate_ticket",
            EngineError::WrongLabelSource(_) => "wrong_label_source",
            EngineError::InvalidLabelSource(_) => "invalid_label_source",
            EngineError::CheckpointMismatch(_) => "checkpoint_mismatch",
            EngineError::Protocol(_) => "protocol",
            EngineError::Store(_) => "store",
            EngineError::StoreTransient(_) => "store_transient",
            EngineError::Unauthorized(_) => "unauthorized",
            EngineError::Throttled(_) => "throttled",
            EngineError::Backpressure(_) => "backpressure",
            EngineError::TicketsExhausted(_) => "tickets_exhausted",
            EngineError::LineTooLong(_) => "line_too_long",
        }
    }
}

impl std::error::Error for EngineError {}

impl From<oasis::Error> for EngineError {
    fn from(e: oasis::Error) -> Self {
        EngineError::Sampler(e)
    }
}

impl From<JsonError> for EngineError {
    fn from(e: JsonError) -> Self {
        EngineError::Json(e)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;
