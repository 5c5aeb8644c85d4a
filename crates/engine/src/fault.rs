//! Scripted fault injection for the durable store.
//!
//! [`FaultyStore`] wraps any [`CheckpointStore`] and injects failures at
//! chosen operation indices: transient I/O errors (succeed on retry),
//! permanent ENOSPC-style errors, and torn writes that leave a partial
//! trailing WAL record behind — the exact shapes the engine's retry,
//! error-taxonomy and truncate-and-warn recovery paths exist to absorb.
//! Faults are scripted per operation kind ("fail the 2nd `append_wal`"), so
//! tests pick crash points without counting unrelated store traffic.
//!
//! The wrapper is deliberately part of the library (not test-only code): it
//! is the reference implementation of how a flaky backend is allowed to
//! fail, and operators can wire it up to rehearse recovery in staging.

use crate::error::{EngineError, EngineResult};
use crate::metrics::{Counter, MetricsRegistry};
use crate::store::CheckpointStore;
use crate::sync::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How an injected fault behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails once with [`EngineError::StoreTransient`] and is
    /// *not* applied; a retry goes through to the inner store.
    Transient,
    /// The operation fails permanently ("no space left on device") and is
    /// not applied.
    Enospc,
    /// A torn write.  For `append_wal` the inner store receives a *prefix*
    /// of the record — the partial trailing line a crash mid-append leaves
    /// behind.  For `put_checkpoint` nothing is applied (tmp+rename means a
    /// torn checkpoint write leaves the previous checkpoint intact).  Other
    /// operations fail without side effects.
    Torn,
}

/// The store operations faults can be scripted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// [`CheckpointStore::put_checkpoint`].
    PutCheckpoint,
    /// [`CheckpointStore::load_checkpoint`].
    LoadCheckpoint,
    /// [`CheckpointStore::append_wal`].
    AppendWal,
    /// [`CheckpointStore::read_wal`].
    ReadWal,
    /// [`CheckpointStore::truncate_wal`].
    TruncateWal,
    /// [`CheckpointStore::list_sessions`].
    ListSessions,
    /// [`CheckpointStore::remove`].
    Remove,
}

impl StoreOp {
    fn as_str(self) -> &'static str {
        match self {
            StoreOp::PutCheckpoint => "put_checkpoint",
            StoreOp::LoadCheckpoint => "load_checkpoint",
            StoreOp::AppendWal => "append_wal",
            StoreOp::ReadWal => "read_wal",
            StoreOp::TruncateWal => "truncate_wal",
            StoreOp::ListSessions => "list_sessions",
            StoreOp::Remove => "remove",
        }
    }
}

#[derive(Debug)]
struct FaultState {
    /// Scripted faults keyed by `(op, zero-based index among calls of that
    /// op)`.  One-shot: a fault is removed when it fires.
    plan: HashMap<(StoreOp, u64), FaultKind>,
    /// How many calls of each op have been seen so far.
    seen: HashMap<StoreOp, u64>,
}

/// A [`CheckpointStore`] wrapper that injects scripted faults.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Arc<dyn CheckpointStore>,
    state: Mutex<FaultState>,
    injected: AtomicU64,
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
}

impl FaultyStore {
    /// Wrap `inner` with an empty fault plan (fully transparent until faults
    /// are scripted).
    pub fn new(inner: Arc<dyn CheckpointStore>) -> Self {
        FaultyStore {
            inner,
            state: Mutex::new(FaultState {
                plan: HashMap::new(),
                seen: HashMap::new(),
            }),
            injected: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    /// Script `kind` to fire on the `index`-th (zero-based) call of `op`.
    /// Later scripts for the same `(op, index)` replace earlier ones.
    pub fn fail_nth(&self, op: StoreOp, index: u64, kind: FaultKind) {
        lock(&self.state).plan.insert((op, index), kind);
    }

    /// Builder form of [`FaultyStore::fail_nth`].
    pub fn with_fault(self, op: StoreOp, index: u64, kind: FaultKind) -> Self {
        self.fail_nth(op, index, kind);
        self
    }

    /// Report injections to `registry` as [`Counter::FaultInjected`].
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        *lock(&self.metrics) = Some(registry);
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many calls of `op` the wrapper has seen (useful when scripting a
    /// fault relative to traffic that already happened).
    pub fn calls(&self, op: StoreOp) -> u64 {
        lock(&self.state).seen.get(&op).copied().unwrap_or(0)
    }

    /// Advance the per-op call counter and pop a scripted fault, if any.
    fn gate(&self, op: StoreOp) -> Option<FaultKind> {
        let fault = {
            let mut state = lock(&self.state);
            let index = state.seen.entry(op).or_insert(0);
            let at = *index;
            *index += 1;
            state.plan.remove(&(op, at))
        };
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = lock(&self.metrics).as_ref() {
                metrics.incr(Counter::FaultInjected);
            }
        }
        fault
    }

    fn fail(op: StoreOp, kind: FaultKind) -> EngineError {
        match kind {
            FaultKind::Transient => EngineError::StoreTransient(format!(
                "injected transient I/O error on {}",
                op.as_str()
            )),
            FaultKind::Enospc => EngineError::Store(format!(
                "injected ENOSPC on {}: no space left on device",
                op.as_str()
            )),
            FaultKind::Torn => {
                EngineError::Store(format!("injected torn write on {}", op.as_str()))
            }
        }
    }
}

impl CheckpointStore for FaultyStore {
    fn put_checkpoint(&self, session_id: &str, document: &str) -> EngineResult<()> {
        match self.gate(StoreOp::PutCheckpoint) {
            // Torn checkpoint writes leave the inner store untouched: the
            // tmp+rename contract says a crash mid-write preserves the
            // previous checkpoint.
            Some(kind) => Err(Self::fail(StoreOp::PutCheckpoint, kind)),
            None => self.inner.put_checkpoint(session_id, document),
        }
    }

    fn load_checkpoint(&self, session_id: &str) -> EngineResult<Option<String>> {
        match self.gate(StoreOp::LoadCheckpoint) {
            Some(kind) => Err(Self::fail(StoreOp::LoadCheckpoint, kind)),
            None => self.inner.load_checkpoint(session_id),
        }
    }

    fn append_wal(&self, session_id: &str, line: &str) -> EngineResult<()> {
        match self.gate(StoreOp::AppendWal) {
            Some(FaultKind::Torn) => {
                // Crash mid-append: a prefix of the record reaches the log,
                // then the write "fails".  Replay must truncate-and-warn.
                let torn = &line[..line.len() / 2];
                let _ = self.inner.append_wal(session_id, torn);
                Err(Self::fail(StoreOp::AppendWal, FaultKind::Torn))
            }
            Some(kind) => Err(Self::fail(StoreOp::AppendWal, kind)),
            None => self.inner.append_wal(session_id, line),
        }
    }

    fn read_wal(&self, session_id: &str) -> EngineResult<Vec<String>> {
        match self.gate(StoreOp::ReadWal) {
            Some(kind) => Err(Self::fail(StoreOp::ReadWal, kind)),
            None => self.inner.read_wal(session_id),
        }
    }

    fn truncate_wal(&self, session_id: &str) -> EngineResult<()> {
        match self.gate(StoreOp::TruncateWal) {
            Some(kind) => Err(Self::fail(StoreOp::TruncateWal, kind)),
            None => self.inner.truncate_wal(session_id),
        }
    }

    fn list_sessions(&self) -> EngineResult<Vec<String>> {
        match self.gate(StoreOp::ListSessions) {
            Some(kind) => Err(Self::fail(StoreOp::ListSessions, kind)),
            None => self.inner.list_sessions(),
        }
    }

    fn remove(&self, session_id: &str) -> EngineResult<()> {
        match self.gate(StoreOp::Remove) {
            Some(kind) => Err(Self::fail(StoreOp::Remove, kind)),
            None => self.inner.remove(session_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FsCheckpointStore;
    use std::fs;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oasis-fault-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn faults_fire_once_at_their_scripted_index() {
        let dir = scratch_dir("index");
        let inner: Arc<dyn CheckpointStore> = Arc::new(FsCheckpointStore::open(&dir).unwrap());
        let store = FaultyStore::new(inner)
            .with_fault(StoreOp::AppendWal, 1, FaultKind::Transient)
            .with_fault(StoreOp::PutCheckpoint, 0, FaultKind::Enospc);

        let err = store.put_checkpoint("s", "{}").unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        // One-shot: the next call goes through.
        store.put_checkpoint("s", "{}").unwrap();

        store.append_wal("s", "a").unwrap();
        let err = store.append_wal("s", "b").unwrap_err();
        assert!(matches!(err, EngineError::StoreTransient(_)), "{err}");
        store.append_wal("s", "b").unwrap();
        assert_eq!(store.read_wal("s").unwrap(), vec!["a", "b"]);
        assert_eq!(store.injected(), 2);
        assert_eq!(store.calls(StoreOp::AppendWal), 3);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_leaves_a_partial_trailing_line() {
        let dir = scratch_dir("torn");
        let inner: Arc<dyn CheckpointStore> = Arc::new(FsCheckpointStore::open(&dir).unwrap());
        let store = FaultyStore::new(inner).with_fault(StoreOp::AppendWal, 1, FaultKind::Torn);
        let metrics = Arc::new(MetricsRegistry::new());
        store.attach_metrics(Arc::clone(&metrics));

        store
            .append_wal("s", "{\"seq\":\"0\",\"op\":\"step\",\"steps\":1}")
            .unwrap();
        let err = store
            .append_wal("s", "{\"seq\":\"1\",\"op\":\"step\",\"steps\":2}")
            .unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");

        let lines = store.read_wal("s").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"seq\":\"0\",\"op\":\"step\",\"steps\":1}");
        assert!(
            crate::wal::WalRecord::parse(&lines[1]).is_err(),
            "the torn tail must not parse: {:?}",
            lines[1]
        );
        assert_eq!(metrics.counter(Counter::FaultInjected), 1);

        let _ = fs::remove_dir_all(&dir);
    }
}
