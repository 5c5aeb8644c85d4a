//! # oasis-engine — a concurrent, checkpointable multi-session evaluation engine
//!
//! The `oasis` crate implements the paper's samplers as a library: one
//! sampler, one in-process oracle callback, run to completion.  This crate
//! turns them into a *serving subsystem* for interactive, production-style
//! evaluation — method-agnostic, because everything is built on the
//! [`InteractiveSampler`](oasis::InteractiveSampler) contract rather than a
//! concrete sampler type:
//!
//! * **Sessions** ([`Session`]) — many concurrent, independently seeded
//!   sampler runs (any [`SamplerMethod`](oasis::SamplerMethod): OASIS,
//!   passive, importance, stratified) over shared
//!   [`Arc<ScoredPool>`](oasis::ScoredPool)s, managed by an [`Engine`] and
//!   driven by a worker pool on `std::thread::scope` threads
//!   ([`Engine::run_parallel`]).  Sessions are independent, so concurrency
//!   never changes results: estimates are bit-identical to sequential
//!   library runs with the same seeds, whatever the method.
//! * **Suspend/resume oracle boundary** — a session proposes pairs to label
//!   ([`Session::propose`] → [`Ticket`]s) and suspends; labels arrive later,
//!   possibly batched and out of order ([`Session::apply_labels`]).  Human
//!   and remote oracles are first-class instead of in-process callbacks; an
//!   in-process ground-truth oracle remains available for simulation
//!   ([`LabelSource::GroundTruth`], [`Session::step`]).
//! * **Checkpoints** ([`SessionCheckpoint`]) — the method-tagged sampler
//!   state ([`oasis::SamplerState`]), variance-tracker sums, RNG state
//!   words, pending tickets and oracle/budget state snapshot to JSON with
//!   *exact-resume* semantics: an interrupted-and-restored run is
//!   bit-identical to an uninterrupted one — estimates *and* confidence
//!   intervals — for every method.
//! * **Durability** ([`store`], [`wal`]) — a pluggable [`CheckpointStore`]
//!   (filesystem backend: [`FsCheckpointStore`]) plus an append-only
//!   write-ahead log of every mutating request.  A restart replays
//!   `latest checkpoint + WAL suffix` to the exact pre-crash state; an LRU
//!   cap ([`Engine::with_max_resident`]) evicts idle sessions through the
//!   store and rehydrates them transparently on next access.
//! * **`oasis-serve`** — a binary speaking a line-delimited JSON protocol
//!   ([`protocol`]) over stdin/stdout or TCP ([`server`]): `load_pool`,
//!   `create_session` (with a `method` field), `propose`, `label`, `step`,
//!   `run_budget`, `estimate`, `checkpoint`, `restore`, `checkpoint_to`,
//!   `restore_from`, `sessions`, `delete_session`, `metrics`,
//!   `diagnostics`, `shutdown`.  TCP mode serves each connection on its
//!   own thread.  The library also offers a single-threaded epoll reactor
//!   ([`reactor`], Linux only) that holds thousands of mostly-idle
//!   connections under bounded memory — bounded line buffers, write-side
//!   backpressure, a connection cap, and accept-error backoff.  Every
//!   transport splits request lines with one framer, so the wire bytes
//!   are identical.
//! * **Robustness** ([`guard`], [`fault`]) — propose-lease timeouts and
//!   pending-ticket caps ([`SessionLimits`]) reclaim tickets from vanished
//!   clients deterministically (the lease clock is WAL-logged, so replay
//!   expires exactly what the live run expired); a connection guard
//!   ([`ClientPolicy`]) screens untrusted clients with auth tokens and
//!   per-session rate limits; transient store faults are retried with
//!   bounded backoff ([`RetryPolicy`]) and torn trailing WAL records are
//!   truncated-and-scrubbed on replay.  [`FaultyStore`] injects scripted
//!   faults to rehearse all of it.
//! * **Observability** ([`metrics`], [`log`]) — a [`MetricsRegistry`] of
//!   atomic counters and log-bucketed latency histograms instrumented at
//!   every hot path, a per-session ground-truth-free
//!   [`diagnostics`](Session::diagnostics) report (ESS, weight variance,
//!   label allocation), and a structured JSONL [`EventLog`]
//!   (`oasis-serve --log-json`).
//!
//! ## Quick example
//!
//! ```
//! use oasis::{OasisConfig, SamplerMethod, ScoredPool};
//! use oasis_engine::{Engine, LabelSource};
//!
//! let engine = Engine::new();
//! engine
//!     .load_pool(
//!         "demo",
//!         ScoredPool::new(vec![0.9, 0.8, 0.2, 0.1], vec![true, true, false, false]).unwrap(),
//!     )
//!     .unwrap();
//! engine
//!     .create_session(
//!         "s1",
//!         "demo",
//!         SamplerMethod::Oasis,
//!         OasisConfig::default().with_strata_count(2),
//!         42,
//!         LabelSource::external(4),
//!     )
//!     .unwrap();
//!
//! // Suspend at a label request…
//! let session = engine.session("s1").unwrap();
//! let tickets = session.lock().propose(1).unwrap();
//! // …a human labels the pair out of band…
//! let answers: Vec<(u64, bool)> = tickets.iter().map(|t| (t.id, true)).collect();
//! // …and the session resumes.
//! session.lock().apply_labels(&answers).unwrap();
//! assert_eq!(session.lock().estimate().iterations, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod checkpoint;
mod engine;
pub mod error;
pub mod fault;
pub mod guard;
pub mod log;
pub mod metrics;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
mod session;
pub mod store;
pub mod wal;

pub use checkpoint::{OracleCheckpoint, SessionCheckpoint, CHECKPOINT_FORMAT};
pub use engine::{Engine, ReplayReport, RetryPolicy, SessionJob, SessionOverview};
pub use error::{EngineError, EngineResult};
pub use fault::{FaultKind, FaultyStore, StoreOp};
pub use guard::{ClientPolicy, ConnState};
pub use log::{EventLog, LogFormat};
pub use metrics::{Clock, Counter, LatencyHistogram, ManualClock, MetricsRegistry, MonotonicClock};
#[cfg(target_os = "linux")]
pub use reactor::{serve_listener_evented, serve_listener_evented_with_config, ReactorConfig};
pub use session::{LabelSource, Session, SessionLimits, Ticket};
pub use store::{CheckpointStore, FsCheckpointStore, STORE_FORMAT};
pub use wal::{WalEntry, WalParseOutcome, WalRecord};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the crate's unit tests — a thin Arc-wrapping shim
    //! over `oasis::test_fixtures` (pulled in through the `test-util`
    //! dev-dependency feature), so the synthetic pool generator lives in
    //! exactly one place.

    use oasis::ScoredPool;
    use std::sync::Arc;

    /// A deterministic imbalanced pool plus its hidden truth: scores
    /// correlate with (but don't perfectly predict) the labels, the regime
    /// OASIS targets.  Same stream as `oasis::test_fixtures::pool_and_truth`.
    pub(crate) fn pool_and_truth(
        n: usize,
        seed: u64,
        match_rate: f64,
    ) -> (Arc<ScoredPool>, Vec<bool>) {
        let (pool, truth) = oasis::test_fixtures::pool_and_truth(n, seed, match_rate);
        (Arc::new(pool), truth)
    }
}
