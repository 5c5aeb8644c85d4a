//! The multi-session engine: shared pools, named sessions, and a scoped
//! worker pool that drives many sessions concurrently.
//!
//! Sessions are fully independent (own sampler, own RNG, own oracle), so
//! driving them from `W` worker threads produces estimates bit-identical to
//! driving them one after another — concurrency changes wall-clock time, not
//! results.  That property is what the `engine_parity` tests and experiment
//! driver assert.

use crate::checkpoint::SessionCheckpoint;
use crate::error::{EngineError, EngineResult};
use crate::metrics::{Clock, Counter, MetricsRegistry, MonotonicClock};
use crate::session::{LabelSource, Session, SessionSpec};
use crate::store::{parse_envelope, render_envelope, CheckpointStore};
use crate::sync::{lock, read, write};
use crate::wal::{self, Applied, Outcome, WalEntry, WalRecord};
use oasis::{AnySampler, Estimate, OasisConfig, SamplerMethod, ScoredPool};
use std::collections::{HashMap, HashSet};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Bounded, deterministic retry for transient store faults: up to
/// `max_retries` extra attempts with doubling backoff from `base_delay`.
/// No jitter — retry behaviour must be as reproducible as everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure.
    pub max_retries: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
        }
    }
}

/// What a WAL replay did: how many records were applied, and whether a
/// partial trailing record (crash mid-append) was truncated along the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Whether a torn trailing WAL record was dropped and scrubbed.
    pub truncated_tail: bool,
}

/// A unit of work for [`Engine::run_parallel`]: drive one session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionJob {
    /// Run a fixed number of steps.
    Steps {
        /// Session id.
        session: String,
        /// Number of propose→query→apply iterations.
        steps: usize,
    },
    /// Run until the label budget is consumed (or `max_steps` elapse).
    Budget {
        /// Session id.
        session: String,
        /// Distinct-label budget.
        budget: usize,
        /// Iteration cap.
        max_steps: usize,
    },
}

/// Per-session durability bookkeeping (next WAL sequence number, dirtiness,
/// LRU recency).  Lives beside — not inside — the session so it survives
/// eviction and is reachable without the session's own mutex.
#[derive(Debug, Clone, Default)]
struct SessionMeta {
    /// Sequence number the next WAL record will carry.
    wal_seq: u64,
    /// Whether the session has been mutated since its last durable
    /// checkpoint (or, without a store, since it was created/restored).
    dirty: bool,
    /// Logical access time for LRU eviction.
    last_access: u64,
}

/// The metadata of session `id`, created on first use.  Looked up before
/// inserting, so only a new id costs an allocation.
fn meta_slot<'m>(meta: &'m mut HashMap<String, SessionMeta>, id: &str) -> &'m mut SessionMeta {
    if !meta.contains_key(id) {
        meta.insert(id.to_string(), SessionMeta::default());
    }
    meta.get_mut(id).expect("inserted above")
}

/// A snapshot of one session's identity and progress, cheap enough to build
/// for a `sessions` listing without disturbing the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOverview {
    /// The session id.
    pub id: String,
    /// The sampling method, or `None` for a stored-but-evicted session
    /// (reading it would mean rehydrating the whole checkpoint).
    pub method: Option<SamplerMethod>,
    /// Number of pool shards the session's sampler runs over (1 for flat
    /// samplers), if resident.
    pub shards: Option<usize>,
    /// Pending (proposed but unlabelled) ticket count, if resident.
    pub pending: Option<usize>,
    /// Distinct labels consumed, if resident.
    pub labels_consumed: Option<usize>,
    /// Whether the session has been mutated since its last durable
    /// checkpoint.
    pub dirty: bool,
    /// Whether the session is resident in memory (vs. only in the store).
    pub resident: bool,
}

/// A resident session, as [`Engine::session`] hands it out.
#[derive(Debug)]
pub struct SessionHandle(Arc<Mutex<Session>>);

impl SessionHandle {
    /// Lock the session.  Requests on one session serialise here.
    pub fn lock(&self) -> MutexGuard<'_, Session> {
        lock(&self.0)
    }
}

/// An id held by one in-flight admission; dropping it releases the id on
/// every exit path, a panic included.
struct Reservation<'a> {
    admitting: &'a Mutex<HashSet<String>>,
    id: String,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        lock(self.admitting).remove(&self.id);
    }
}

/// The engine: a registry of shared pools and concurrent sessions.
///
/// All methods take `&self`; interior locking makes the engine shareable
/// across server connections and worker threads.
///
/// With a [`CheckpointStore`] attached (see [`Engine::with_store`]) every
/// session is durable: creation writes a base checkpoint, every mutating
/// request is write-ahead logged, [`Engine::checkpoint_to`] compacts log
/// into checkpoint, and a restart — or an access to a session evicted under
/// [`Engine::with_max_resident`] — rebuilds the exact pre-crash state by
/// replaying `latest checkpoint + WAL suffix`.
#[derive(Debug)]
pub struct Engine {
    pools: RwLock<HashMap<String, Arc<ScoredPool>>>,
    sessions: RwLock<HashMap<String, Arc<Mutex<Session>>>>,
    /// Ids reserved by in-flight admissions (see `Engine::reserve`).
    admitting: Mutex<HashSet<String>>,
    store: Option<Arc<dyn CheckpointStore>>,
    meta: Mutex<HashMap<String, SessionMeta>>,
    max_resident: Option<usize>,
    clock: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    lease_clock: Arc<dyn Clock>,
    retry: RetryPolicy,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            pools: RwLock::default(),
            sessions: RwLock::default(),
            admitting: Mutex::default(),
            store: None,
            meta: Mutex::default(),
            max_resident: None,
            clock: AtomicU64::new(0),
            metrics: Arc::new(MetricsRegistry::new()),
            lease_clock: Arc::new(MonotonicClock::new()),
            retry: RetryPolicy::default(),
        }
    }
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Attach a durable checkpoint store.  From then on every session is
    /// durable: created sessions write a base checkpoint immediately, and
    /// mutating requests are write-ahead logged before they apply.
    pub fn with_store(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Cap the number of sessions resident in memory.  Requires a store:
    /// when the cap is exceeded, the least-recently-used session is
    /// checkpointed and evicted, and a later access rehydrates it
    /// transparently.  Without a store the cap is ignored.
    pub fn with_max_resident(mut self, cap: usize) -> Self {
        self.max_resident = Some(cap.max(1));
        self
    }

    /// Replace the metrics registry — pass [`MetricsRegistry::disabled`] for
    /// an uninstrumented engine (the overhead baseline) or a registry
    /// on a [`ManualClock`](crate::metrics::ManualClock) for deterministic
    /// latency tests.  The default engine is instrumented on the monotonic
    /// clock.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Arc::new(metrics);
        self
    }

    /// Replace the clock lease deadlines are read from.  The default is the
    /// process monotonic clock; tests pass a
    /// [`ManualClock`](crate::metrics::ManualClock) to expire leases at will.
    pub fn with_lease_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.lease_clock = clock;
        self
    }

    /// Replace the transient-fault retry policy (see [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A shareable handle to the metrics registry — hand this to a
    /// [`FaultyStore`](crate::fault::FaultyStore) or a guard layer so their
    /// counters land in the same snapshot.
    pub fn metrics_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Run `op`, retrying [`EngineError::StoreTransient`] failures under the
    /// engine's [`RetryPolicy`] with deterministic doubling backoff.  An
    /// exhausted budget promotes the fault to a permanent
    /// [`EngineError::Store`]; any other error passes through untouched.
    fn with_store_retry<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(EngineError::StoreTransient(why)) if attempt < self.retry.max_retries => {
                    self.metrics.incr(Counter::RetriedWrite);
                    std::thread::sleep(self.retry.base_delay * (1u32 << attempt.min(16)));
                    attempt += 1;
                    let _ = why;
                }
                Err(EngineError::StoreTransient(why)) => {
                    return Err(EngineError::Store(format!(
                        "{what} failed after {attempt} retries: {why}"
                    )));
                }
                other => return other,
            }
        }
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<dyn CheckpointStore>> {
        self.store.as_ref()
    }

    /// Register a pool under `id`, sharing it across future sessions.
    ///
    /// # Errors
    /// [`EngineError::DuplicateId`] if the id is taken.
    pub fn load_pool(&self, id: impl Into<String>, pool: ScoredPool) -> EngineResult<()> {
        let id = id.into();
        let mut pools = write(&self.pools);
        if pools.contains_key(&id) {
            return Err(EngineError::DuplicateId(id));
        }
        pools.insert(id, Arc::new(pool));
        Ok(())
    }

    /// Look up a shared pool.
    ///
    /// # Errors
    /// [`EngineError::UnknownPool`] if it was never loaded.
    pub fn pool(&self, id: &str) -> EngineResult<Arc<ScoredPool>> {
        read(&self.pools)
            .get(id)
            .cloned()
            .ok_or_else(|| EngineError::UnknownPool(id.to_string()))
    }

    /// Ids of all loaded pools, sorted.
    pub fn pool_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = read(&self.pools).keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Create the session `spec` describes over its loaded pool (see
    /// [`Session::new`]).  With a store attached, the session's base
    /// checkpoint is durable before this returns.
    ///
    /// # Errors
    /// Unknown pool, duplicate session id, or sampler construction failure.
    pub fn create_session(&self, spec: SessionSpec) -> EngineResult<()> {
        let (session_id, pool_id) = (spec.id.clone(), spec.pool_id.clone());
        self.admit(session_id, &pool_id, |pool| Session::new(spec, pool))
    }

    /// Create a session from positional arguments.
    #[deprecated(note = "use SessionSpec; perfbench moves off it in ROADMAP item 1")]
    #[expect(
        clippy::too_many_arguments,
        reason = "the signature perfbench calls until it moves to SessionSpec"
    )]
    pub fn create_session_sharded(
        &self,
        session_id: impl Into<String>,
        pool_id: &str,
        method: SamplerMethod,
        config: OasisConfig,
        shards: Option<usize>,
        seed: u64,
        source: LabelSource,
    ) -> EngineResult<()> {
        let spec = SessionSpec::new(session_id, pool_id, seed, source);
        self.create_session(SessionSpec {
            method,
            config,
            shards,
            ..spec
        })
    }

    /// Restore a session from a checkpoint; the checkpointed pool id must be
    /// loaded and match the fingerprint.  The session is registered under
    /// `session_id`, which may differ from the checkpointed id (restore-as).
    ///
    /// # Errors
    /// Unknown pool, duplicate session id, or checkpoint mismatch.
    pub fn restore_session(
        &self,
        session_id: impl Into<String>,
        mut checkpoint: SessionCheckpoint,
    ) -> EngineResult<()> {
        let session_id = session_id.into();
        checkpoint.session_id = session_id.clone();
        let pool_id = checkpoint.pool_id.clone();
        self.admit(session_id, &pool_id, |pool| {
            let timer = self.metrics.timer();
            let session = Session::restore(checkpoint, pool)?;
            self.metrics.incr(Counter::CheckpointRestore);
            self.metrics.record("checkpoint.restore", timer);
            Ok(session)
        })
    }

    /// The one admission path of a new session, created or restored: look
    /// up its pool, reserve its id, `build` the session, write its base
    /// checkpoint and register it.  Building and store I/O run under no
    /// engine-wide lock, so admissions of different ids do not wait on
    /// each other; only a stratification not yet shared
    /// ([`ScoredPool::shared_strata`]) makes others on the same pool wait
    /// for it, and then reuse it.
    fn admit(
        &self,
        session_id: String,
        pool_id: &str,
        build: impl FnOnce(Arc<ScoredPool>) -> EngineResult<Session>,
    ) -> EngineResult<()> {
        let pool = self.pool(pool_id)?;
        // Held until this function returns: a concurrent admission of the
        // same id fails here, before it can write over this one's base
        // checkpoint or truncate the WAL it starts.
        let _reservation = self.reserve(&session_id)?;
        if let Some(store) = &self.store {
            // A stored-but-evicted session owns its id just as a resident
            // one does.
            if store.load_checkpoint(&session_id)?.is_some() {
                return Err(EngineError::DuplicateId(session_id));
            }
        }
        let session = build(pool)?;
        if matches!(session.sampler(), AnySampler::Sharded(_)) {
            self.metrics.incr(Counter::ShardedSession);
        }
        // The base checkpoint goes first, so the WAL always has something
        // to replay onto.
        if let Some(store) = &self.store {
            let timer = self.metrics.timer();
            let document = render_envelope(&session.checkpoint(), 0);
            self.with_store_retry("base checkpoint write", || {
                store.put_checkpoint(&session_id, &document)
            })?;
            self.with_store_retry("base WAL truncate", || store.truncate_wal(&session_id))?;
            self.metrics.incr(Counter::CheckpointWrite);
            self.metrics.record("checkpoint.write", timer);
        }
        let handle = Arc::new(Mutex::new(session));
        {
            let mut sessions = write(&self.sessions);
            // A rehydration from the base checkpoint just written can get
            // here first.
            if sessions.contains_key(&session_id) {
                return Err(EngineError::DuplicateId(session_id));
            }
            sessions.insert(session_id.clone(), handle);
            let mut meta = lock(&self.meta);
            let slot = meta.entry(session_id).or_default();
            slot.wal_seq = 0;
            slot.dirty = false;
            slot.last_access = self.clock.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_resident_cap()
    }

    /// Reserve `id` for one admission, or fail with
    /// [`EngineError::DuplicateId`] if it is resident or already being
    /// admitted.
    fn reserve(&self, id: &str) -> EngineResult<Reservation<'_>> {
        // The `sessions` lock spans both checks: an admission inserts its
        // id into `sessions` (under the write lock) before it releases its
        // reservation, so the id is always in one of the two.
        let sessions = read(&self.sessions);
        if sessions.contains_key(id) || !lock(&self.admitting).insert(id.to_string()) {
            return Err(EngineError::DuplicateId(id.to_string()));
        }
        Ok(Reservation {
            admitting: &self.admitting,
            id: id.to_string(),
        })
    }

    /// Fetch a session handle.  With a store attached, a stored-but-evicted
    /// session is rehydrated transparently (checkpoint + WAL replay).
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if it exists neither in memory nor in
    /// the store; [`EngineError::Store`] if its store entry is corrupt.
    pub fn session(&self, id: &str) -> EngineResult<SessionHandle> {
        if let Some(handle) = read(&self.sessions).get(id).cloned() {
            self.touch(id);
            return Ok(SessionHandle(handle));
        }
        self.rehydrate(id).map(|(handle, _)| SessionHandle(handle))
    }

    /// Drop a torn trailing record from a session's on-disk WAL: keep the
    /// parseable prefix, truncate, and re-append it.  The caller holds the
    /// lock of the session's registered copy, so no append can land between
    /// the read and the truncate.  Best-effort — a store
    /// that cannot even be scrubbed will surface its own error on the next
    /// append, and replay tolerates the torn tail regardless.
    fn scrub_wal_tail(&self, store: &Arc<dyn CheckpointStore>, session_id: &str) {
        let Ok(lines) = store.read_wal(session_id) else {
            return;
        };
        let good: Vec<&String> = lines
            .iter()
            .take_while(|line| WalRecord::parse(line).is_ok())
            .collect();
        if good.len() == lines.len() {
            return;
        }
        if store.truncate_wal(session_id).is_err() {
            return;
        }
        for line in good {
            if store.append_wal(session_id, line).is_err() {
                return;
            }
        }
    }

    fn touch(&self, id: &str) {
        if let Some(slot) = lock(&self.meta).get_mut(id) {
            slot.last_access = self.clock.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rebuild an evicted (or pre-restart) session from the store: restore
    /// the latest checkpoint, then replay the WAL suffix at or beyond its
    /// watermark.  A partial trailing WAL record — the signature of a crash
    /// mid-append — is dropped, scrubbed from disk, and reported; interior
    /// corruption stays a hard error.  Returns the handle and a
    /// [`ReplayReport`].
    fn rehydrate(&self, id: &str) -> EngineResult<(Arc<Mutex<Session>>, ReplayReport)> {
        let unknown = || EngineError::UnknownSession(id.to_string());
        let Some(store) = self.store.clone() else {
            return Err(unknown());
        };
        loop {
            let timer = self.metrics.timer();
            let Some(document) =
                self.with_store_retry("checkpoint load", || store.load_checkpoint(id))?
            else {
                return Err(unknown());
            };
            let (mut checkpoint, wal_seq) = parse_envelope(&document)?;
            checkpoint.session_id = id.to_string();
            let pool = self.pool(&checkpoint.pool_id)?;
            let mut session = Session::restore(checkpoint, pool)?;
            let lines = self.with_store_retry("WAL read", || store.read_wal(id))?;
            let outcome = wal::parse_lines(&lines)?;
            let applied = match wal::replay(&mut session, &outcome.records, wal_seq) {
                Ok(applied) => applied,
                Err(error) => {
                    // Between this copy's checkpoint and WAL reads another
                    // copy logged records, was evicted (a newer checkpoint, a
                    // truncated WAL) and logged again, so the WAL starts past
                    // the checkpoint read.  Read the store again, as for the
                    // stale copy below.  A gap with no such advance is
                    // corruption.
                    let meta = lock(&self.meta);
                    if meta.get(id).is_some_and(|slot| slot.wal_seq > wal_seq) {
                        continue;
                    }
                    return Err(error);
                }
            };
            self.metrics.incr(Counter::Rehydration);
            self.metrics.incr(Counter::CheckpointRestore);
            if session.shard_count() > 1 {
                self.metrics.incr(Counter::ShardedSession);
            }
            self.metrics.add(Counter::WalReplay, applied as u64);
            self.metrics.record("rehydrate", timer);
            let report = ReplayReport {
                replayed: applied,
                truncated_tail: outcome.truncated_tail.is_some(),
            };

            let handle = Arc::new(Mutex::new(session));
            // Held until the torn tail is scrubbed: only the registered copy
            // may rewrite the WAL, and no request may append to it before the
            // rewrite ends.  A copy that loses the race below must not scrub:
            // by then the winner may have appended acknowledged records that
            // a truncate would drop.
            let registered = lock(&handle);
            {
                let mut sessions = write(&self.sessions);
                if let Some(existing) = sessions.get(id) {
                    // Lost a rehydration race; the winner's copy (and its meta,
                    // possibly already advanced by new WAL appends) is the truth.
                    return Ok((
                        Arc::clone(existing),
                        ReplayReport {
                            replayed: 0,
                            truncated_tail: false,
                        },
                    ));
                }
                let mut meta = lock(&self.meta);
                let slot = meta_slot(&mut meta, id);
                if slot.wal_seq > wal_seq + applied as u64 {
                    // Between this copy's checkpoint and WAL reads another copy
                    // was rehydrated, logged records and was evicted again: this
                    // copy misses those records.  Read the store again.
                    continue;
                }
                sessions.insert(id.to_string(), Arc::clone(&handle));
                slot.wal_seq = wal_seq + applied as u64;
                slot.dirty = applied > 0;
                slot.last_access = self.clock.fetch_add(1, Ordering::Relaxed);
            }
            if outcome.truncated_tail.is_some() {
                self.scrub_wal_tail(&store, id);
            }
            drop(registered);
            self.enforce_resident_cap()?;
            return Ok((handle, report));
        }
    }

    /// Explicitly rehydrate a session from the store (the `restore_from`
    /// protocol verb), returning a [`ReplayReport`]: how many WAL records
    /// were replayed on top of the checkpoint and whether a torn trailing
    /// record had to be truncated.
    ///
    /// # Errors
    /// [`EngineError::Store`] with no store attached or a corrupt entry;
    /// [`EngineError::UnknownSession`] if the store has no such session;
    /// [`EngineError::DuplicateId`] if it is already resident.
    pub fn restore_from(&self, id: &str) -> EngineResult<ReplayReport> {
        if self.store.is_none() {
            return Err(EngineError::Store(
                "no checkpoint store attached".to_string(),
            ));
        }
        if read(&self.sessions).contains_key(id) {
            return Err(EngineError::DuplicateId(id.to_string()));
        }
        self.rehydrate(id).map(|(_, report)| report)
    }

    /// Durably checkpoint a session: write the store envelope (checkpoint +
    /// WAL watermark) and truncate its log.  Returns the watermark — the
    /// sequence number the next WAL record will carry.
    ///
    /// # Errors
    /// [`EngineError::Store`] with no store attached or on write failure;
    /// [`EngineError::UnknownSession`] if the session does not exist.
    pub fn checkpoint_to(&self, id: &str) -> EngineResult<u64> {
        let Some(store) = self.store.clone() else {
            return Err(EngineError::Store(
                "no checkpoint store attached".to_string(),
            ));
        };
        self.with_live_session(id, |session| self.write_checkpoint(&store, id, session))
    }

    /// Write `session`'s store envelope and truncate its log.  The caller
    /// holds the session lock across capture + write + truncate, so no
    /// mutation (and no WAL append) can slip between them.  The engine-wide
    /// `meta` lock is taken only to read the watermark and to clear `dirty`:
    /// other sessions' appends must not wait on this session's render and
    /// fsync.
    fn write_checkpoint(
        &self,
        store: &Arc<dyn CheckpointStore>,
        id: &str,
        session: &Session,
    ) -> EngineResult<u64> {
        let wal_seq = meta_slot(&mut lock(&self.meta), id).wal_seq;
        let timer = self.metrics.timer();
        let document = render_envelope(&session.checkpoint(), wal_seq);
        self.with_store_retry("checkpoint write", || store.put_checkpoint(id, &document))?;
        self.with_store_retry("WAL truncate", || store.truncate_wal(id))?;
        self.metrics.incr(Counter::CheckpointWrite);
        self.metrics.record("checkpoint.write", timer);
        meta_slot(&mut lock(&self.meta), id).dirty = false;
        Ok(wal_seq)
    }

    /// Run `f` under session `id`'s lock, on the copy `sessions` holds.  An
    /// eviction removes a session from `sessions` under its lock, so a
    /// handle fetched before an eviction can be locked after it: that copy
    /// is dead, and a change to it would be lost or would fork the WAL.
    /// Such a handle is dropped and the session fetched again (which
    /// rehydrates it).  Locks are taken in the order session, `sessions`,
    /// `meta`.
    fn with_live_session<T>(
        &self,
        id: &str,
        f: impl FnOnce(&mut Session) -> EngineResult<T>,
    ) -> EngineResult<T> {
        loop {
            let handle = self.session(id)?;
            let mut session = handle.lock();
            if self.is_registered(id, &handle.0) {
                return f(&mut session);
            }
        }
    }

    /// Whether `handle` is the copy of session `id` that `sessions` holds.
    fn is_registered(&self, id: &str, handle: &Arc<Mutex<Session>>) -> bool {
        read(&self.sessions)
            .get(id)
            .is_some_and(|live| Arc::ptr_eq(live, handle))
    }

    /// Change a session — the one path for live mutations, from the
    /// protocol and from [`Engine::run_parallel`].  Under the session lock it
    /// stamps the lease clock into `entry` where the entry logs it, logs the
    /// entry, applies it with [`WalEntry::apply`] as replay does, and counts
    /// and times it.  `respond` then reads the still-locked session, the
    /// expired lease ids and the outcome.
    pub(crate) fn mutate<T>(
        &self,
        session_id: &str,
        entry: WalEntry,
        respond: impl FnOnce(&Session, Vec<u64>, Outcome) -> T,
    ) -> EngineResult<T> {
        let timer = self.metrics.timer();
        self.with_live_session(session_id, |session| {
            let mut record = WalRecord { seq: 0, entry };
            // The lease clock is read only where it is logged, so lease-free
            // sessions keep byte-identical WAL lines, checkpoints and
            // responses.
            match &mut record.entry {
                WalEntry::Propose { now_us, .. } if session.limits().lease_timeout_us.is_some() => {
                    *now_us = Some(self.lease_clock.now_micros());
                }
                WalEntry::Expire { now_us } => *now_us = self.lease_clock.now_micros(),
                _ => {}
            }
            self.log_wal(session_id, &mut record)?;
            let sharded = session.shard_count() > 1;
            let before = match record.entry {
                WalEntry::RunBudget { .. } if sharded => session.estimate().iterations,
                _ => 0,
            };
            let Applied { expired, outcome } = record.entry.apply(session);
            self.metrics.add(Counter::LeaseExpiry, expired.len() as u64);
            let outcome = outcome?;
            let (counter, count, routed) = match (&record.entry, &outcome) {
                (WalEntry::Propose { .. }, Outcome::Tickets(t)) => {
                    (Counter::Propose, t.len(), t.len())
                }
                (WalEntry::Label { .. }, Outcome::Labelled(applied)) => {
                    (Counter::Label, *applied, 0)
                }
                (WalEntry::Step { steps }, _) => (Counter::Step, *steps, *steps),
                (WalEntry::RunBudget { .. }, Outcome::Estimate(estimate)) => {
                    (Counter::RunBudget, 1, estimate.iterations - before)
                }
                // An expiry sweep counts only its expired leases, and is
                // untimed.
                _ => return Ok(respond(session, expired, outcome)),
            };
            self.metrics.add(counter, count as u64);
            if sharded {
                self.metrics.add(Counter::ShardRoute, routed as u64);
            }
            let key = record.entry.latency_key(session.method());
            self.metrics.record(key, timer);
            Ok(respond(session, expired, outcome))
        })
    }

    /// Append a record to a session's write-ahead log, assigning it the next
    /// sequence number.  Only [`Engine::mutate`] calls it: with the
    /// session's mutex held and *before* the mutation is applied — that
    /// ordering is what makes the log a write-*ahead* log and keeps
    /// concurrent batches in application order.  The session's mutex, not
    /// the engine-wide `meta` lock, orders its records, so `meta` is held
    /// only to read and then bump `wal_seq`, never across the append.
    /// No-op (except dirtiness tracking) without a store.
    fn log_wal(&self, session_id: &str, record: &mut WalRecord) -> EngineResult<()> {
        if let Some(store) = &self.store {
            record.seq = meta_slot(&mut lock(&self.meta), session_id).wal_seq;
            let line = record.render();
            let timer = self.metrics.timer();
            if let Err(err) =
                self.with_store_retry("WAL append", || store.append_wal(session_id, &line))
            {
                // A failed append may still have put a torn prefix on disk
                // (crash mid-write).  Scrub it now so later successful
                // appends cannot bury it as interior corruption, which
                // replay treats as fatal.
                self.scrub_wal_tail(store, session_id);
                return Err(err);
            }
            self.metrics.incr(Counter::WalAppend);
            self.metrics.record("wal.append", timer);
        }
        let mut meta = lock(&self.meta);
        let slot = meta_slot(&mut meta, session_id);
        if self.store.is_some() {
            slot.wal_seq = record.seq + 1;
        }
        slot.dirty = true;
        Ok(())
    }

    /// Evict least-recently-used sessions (checkpointing them first) until
    /// the resident count is within the configured cap.
    fn enforce_resident_cap(&self) -> EngineResult<()> {
        let (Some(cap), Some(store)) = (self.max_resident, &self.store) else {
            return Ok(());
        };
        loop {
            let victim = {
                let sessions = read(&self.sessions);
                if sessions.len() <= cap {
                    return Ok(());
                }
                let meta = lock(&self.meta);
                sessions
                    .iter()
                    .min_by_key(|(id, _)| meta.get(*id).map(|m| m.last_access).unwrap_or(0))
                    .map(|(id, handle)| (id.clone(), Arc::clone(handle)))
            };
            let Some((victim, handle)) = victim else {
                return Ok(());
            };
            // Checkpoint and removal under one hold of the victim's lock: a
            // request holding an older handle finds it unregistered (see
            // `with_live_session`) instead of changing a copy no longer
            // served.
            let session = lock(&handle);
            if !self.is_registered(&victim, &handle) {
                continue;
            }
            self.write_checkpoint(store, &victim, &session)?;
            write(&self.sessions).remove(&victim);
            drop(session);
            self.metrics.incr(Counter::Eviction);
            // Meta stays: its wal_seq matches the envelope watermark, so
            // appends after rehydration continue the same sequence.
        }
    }

    /// Ids of all known sessions — resident and stored — sorted.
    pub fn session_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = read(&self.sessions).keys().cloned().collect();
        if let Some(store) = &self.store {
            if let Ok(stored) = store.list_sessions() {
                ids.extend(stored);
            }
        }
        ids.sort();
        ids.dedup();
        ids
    }

    /// Per-session metadata for every known session, sorted by id.  Resident
    /// sessions report method/pending/labels; stored-but-evicted ones only
    /// their identity (reading more would mean rehydrating the checkpoint).
    pub fn session_overviews(&self) -> Vec<SessionOverview> {
        self.session_ids()
            .into_iter()
            .map(|id| {
                let resident = read(&self.sessions).get(&id).cloned();
                let dirty = lock(&self.meta).get(&id).map(|m| m.dirty).unwrap_or(false);
                match resident {
                    Some(handle) => {
                        let session = lock(&handle);
                        SessionOverview {
                            id,
                            method: Some(session.method()),
                            shards: Some(session.shard_count()),
                            pending: Some(session.pending_count()),
                            labels_consumed: Some(session.labels_consumed()),
                            dirty,
                            resident: true,
                        }
                    }
                    None => SessionOverview {
                        id,
                        method: None,
                        shards: None,
                        pending: None,
                        labels_consumed: None,
                        dirty,
                        resident: false,
                    },
                }
            })
            .collect()
    }

    /// Remove a session everywhere: the resident registry, its durability
    /// metadata, and (with a store) its checkpoint and log.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if it exists neither in memory nor in
    /// the store.
    pub fn delete_session(&self, id: &str) -> EngineResult<()> {
        let resident = write(&self.sessions).remove(id).is_some();
        let mut stored = false;
        if let Some(store) = &self.store {
            stored = store.load_checkpoint(id)?.is_some();
            store.remove(id)?;
        }
        lock(&self.meta).remove(id);
        if resident || stored {
            Ok(())
        } else {
            Err(EngineError::UnknownSession(id.to_string()))
        }
    }

    /// Drive many sessions concurrently on a pool of `workers` scoped
    /// threads, returning one estimate per job in job order.
    ///
    /// Work is distributed by an atomic cursor over the job list; since each
    /// session owns its RNG and oracle, the estimates are bit-identical to
    /// running the jobs sequentially, whatever the interleaving — provided
    /// each session appears in at most one job.  Jobs naming the same session
    /// are safe (the per-session mutex serialises them) but race for lock
    /// order, so their split of the session's RNG stream is not
    /// deterministic.
    ///
    /// # Errors
    /// The first failing job's error (all jobs still run to completion).
    pub fn run_parallel(&self, jobs: &[SessionJob], workers: usize) -> EngineResult<Vec<Estimate>> {
        let workers = workers.max(1).min(jobs.len().max(1));
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<(usize, EngineResult<Estimate>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        std::iter::from_fn(|| {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            jobs.get(index).map(|job| (index, self.run_job(job)))
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        // In job order, so the error returned is the first failing job's.
        results.sort_unstable_by_key(|&(index, _)| index);
        results.into_iter().map(|(_, result)| result).collect()
    }

    fn run_job(&self, job: &SessionJob) -> EngineResult<Estimate> {
        let (session, entry) = match *job {
            SessionJob::Steps { ref session, steps } => (session, WalEntry::Step { steps }),
            SessionJob::Budget {
                ref session,
                budget,
                max_steps,
            } => (
                session,
                WalEntry::RunBudget {
                    label_budget: budget,
                    max_steps,
                },
            ),
        };
        self.mutate(session, entry, |_, _, outcome| match outcome {
            Outcome::Estimate(estimate) => estimate,
            _ => unreachable!("step and run_budget entries yield an estimate"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StoreOp;
    use crate::test_support::oasis_spec;
    use oasis::{GroundTruthOracle, OasisSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::json::Json;

    fn pool_and_truth(n: usize, seed: u64) -> (ScoredPool, Vec<bool>) {
        let (pool, truth) = crate::test_support::pool_and_truth(n, seed, 0.05);
        ((*pool).clone(), truth)
    }

    #[test]
    fn pool_and_session_registry_basics() {
        let engine = Engine::new();
        let (pool, truth) = pool_and_truth(300, 1);
        engine.load_pool("p", pool.clone()).unwrap();
        assert!(matches!(
            engine.load_pool("p", pool),
            Err(EngineError::DuplicateId(_))
        ));
        assert!(matches!(engine.pool("q"), Err(EngineError::UnknownPool(_))));
        assert_eq!(engine.pool_ids(), vec!["p".to_string()]);

        engine
            .create_session(oasis_spec(
                "s",
                4,
                1,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
            ))
            .unwrap();
        assert!(matches!(
            engine.create_session(SessionSpec::new("s", "p", 1, LabelSource::external(300))),
            Err(EngineError::DuplicateId(_))
        ));
        assert_eq!(engine.session_ids(), vec!["s".to_string()]);
        engine.delete_session("s").unwrap();
        assert!(matches!(
            engine.delete_session("s"),
            Err(EngineError::UnknownSession(_))
        ));
    }

    #[test]
    fn concurrent_sessions_match_sequential_library_runs_bitwise() {
        let (pool, truth) = pool_and_truth(2500, 2);
        let config = OasisConfig::default().with_strata_count(15);
        let seeds: Vec<u64> = (100..108).collect();
        let steps = 300;

        // Sequential library reference, one run per seed.
        let mut expected = Vec::new();
        for &seed in &seeds {
            let mut oracle = GroundTruthOracle::new(truth.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sampler = OasisSampler::new(&pool, config.clone()).unwrap();
            expected.push(sampler.run(&pool, &mut oracle, &mut rng, steps).unwrap());
        }

        // Engine: 8 sessions over one shared Arc pool, 4 workers.
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        for &seed in &seeds {
            engine
                .create_session(SessionSpec {
                    config: config.clone(),
                    ..SessionSpec::new(
                        format!("s{seed}"),
                        "p",
                        seed,
                        LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone())),
                    )
                })
                .unwrap();
        }
        let jobs: Vec<SessionJob> = seeds
            .iter()
            .map(|seed| SessionJob::Steps {
                session: format!("s{seed}"),
                steps,
            })
            .collect();
        let estimates = engine.run_parallel(&jobs, 4).unwrap();

        for (estimate, reference) in estimates.iter().zip(expected.iter()) {
            assert_eq!(estimate.f_measure.to_bits(), reference.f_measure.to_bits());
            assert_eq!(estimate.precision.to_bits(), reference.precision.to_bits());
            assert_eq!(estimate.recall.to_bits(), reference.recall.to_bits());
        }
    }

    #[test]
    fn parallel_budget_jobs_and_error_reporting() {
        let (pool, truth) = pool_and_truth(800, 3);
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        engine
            .create_session(oasis_spec(
                "good",
                6,
                5,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
            ))
            .unwrap();
        let jobs = vec![
            SessionJob::Budget {
                session: "good".to_string(),
                budget: 50,
                max_steps: 50_000,
            },
            SessionJob::Steps {
                session: "missing".to_string(),
                steps: 1,
            },
        ];
        let err = engine.run_parallel(&jobs, 2).unwrap_err();
        assert!(matches!(err, EngineError::UnknownSession(_)));

        // Without the bad job the budget run completes.
        let estimates = engine.run_parallel(&jobs[..1], 2).unwrap();
        assert_eq!(estimates.len(), 1);
        let session = engine.session("good").unwrap();
        assert!(session.lock().labels_consumed() >= 50);
    }

    #[test]
    fn run_parallel_counts_and_times_what_the_protocol_counts() {
        use crate::protocol::{dispatch, Request};
        let (pool, truth) = pool_and_truth(600, 38);
        let engine = || {
            let engine = Engine::new();
            engine.load_pool("p", pool.clone()).unwrap();
            let source = LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone()));
            let spec = oasis_spec("s", 4, 21, source);
            engine
                .create_session(SessionSpec {
                    shards: Some(3),
                    ..spec
                })
                .unwrap();
            engine
        };
        let session = "s".to_string();
        let cases = [
            (
                SessionJob::Steps {
                    session: session.clone(),
                    steps: 50,
                },
                r#"{"cmd":"step","session":"s","steps":50}"#,
                Counter::Step,
            ),
            (
                SessionJob::Budget {
                    session,
                    budget: 40,
                    max_steps: 10_000,
                },
                r#"{"cmd":"run_budget","session":"s","budget":40,"max_steps":10000}"#,
                Counter::RunBudget,
            ),
        ];
        for (job, line, counter) in cases {
            let (in_process, served) = (engine(), engine());
            in_process.run_parallel(&[job], 1).unwrap();
            let request = Request::parse(line).unwrap();
            let key = format!("{}.oasis", request.verb());
            let response = dispatch(&served, request).response.render();
            assert!(response.contains(r#""ok":true"#), "{response}");
            for counter in [counter, Counter::ShardRoute] {
                let a = in_process.metrics().counter(counter);
                let b = served.metrics().counter(counter);
                assert!(
                    b > 0 && a == b,
                    "{counter:?}: run_parallel {a}, protocol {b}"
                );
            }
            let count = |engine: &Engine| engine.metrics().histogram(&key).map(|h| h.count());
            assert_eq!(
                (count(&in_process), count(&served)),
                (Some(1), Some(1)),
                "{key}"
            );
        }
    }

    fn scratch_store(tag: &str) -> (std::path::PathBuf, Arc<crate::store::FsCheckpointStore>) {
        let dir =
            std::env::temp_dir().join(format!("oasis-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::store::FsCheckpointStore::open(&dir).unwrap());
        (dir, store)
    }

    fn durable_engine(store: &Arc<crate::store::FsCheckpointStore>) -> Engine {
        Engine::new().with_store(Arc::clone(store) as Arc<dyn CheckpointStore>)
    }

    fn oracle_session(engine: &Engine, id: &str, truth: &[bool], seed: u64) {
        engine
            .create_session(oasis_spec(
                id,
                6,
                seed,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth.to_vec())),
            ))
            .unwrap();
    }

    fn steps_job(id: &str, steps: usize) -> Vec<SessionJob> {
        vec![SessionJob::Steps {
            session: id.to_string(),
            steps,
        }]
    }

    #[test]
    fn durable_sessions_replay_checkpoint_plus_wal_after_a_crash() {
        let (dir, store) = scratch_store("crash");
        let (pool, truth) = pool_and_truth(800, 31);

        // Reference: a run that never crashed, in a store-less engine.
        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "s", &truth, 5);
        reference.run_parallel(&steps_job("s", 200), 1).unwrap();
        let reference_session = reference.session("s").unwrap();
        let reference_session = reference_session.lock();

        // Durable run: 120 steps, a durable checkpoint, 80 more steps that
        // live only in the WAL — then the process "dies" (engine dropped).
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 5);
            engine.run_parallel(&steps_job("s", 120), 1).unwrap();
            engine.checkpoint_to("s").unwrap();
            engine.run_parallel(&steps_job("s", 80), 1).unwrap();
        }

        // Restart: a fresh engine over the same store directory.  The pool
        // is not durable — the client reloads it — but the session state is.
        let revived = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        revived.load_pool("p", pool).unwrap();
        let report = revived.restore_from("s").unwrap();
        assert_eq!(report.replayed, 1, "one WAL record");
        assert!(!report.truncated_tail, "clean shutdown leaves no torn tail");
        let session = revived.session("s").unwrap();
        let session = session.lock();
        assert_eq!(
            session.estimate().f_measure.to_bits(),
            reference_session.estimate().f_measure.to_bits()
        );
        assert_eq!(
            session.labels_consumed(),
            reference_session.labels_consumed()
        );
        let a = session.confidence_interval(0.95).unwrap();
        let b = reference_session.confidence_interval(0.95).unwrap();
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        assert!(session.variance_tracked());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A filesystem store whose armed calls park on a two-party barrier
    /// twice: on entry (the test then knows the caller is inside the store
    /// call) and again until the test releases it.  Each armed
    /// `(operation, session)` pair parks one call.
    #[derive(Debug)]
    struct GatedStore {
        inner: crate::store::FsCheckpointStore,
        armed: Mutex<Vec<(StoreOp, &'static str)>>,
        gate: std::sync::Barrier,
    }

    impl GatedStore {
        fn new(dir: &std::path::Path) -> Arc<Self> {
            Arc::new(GatedStore {
                inner: crate::store::FsCheckpointStore::open(dir).unwrap(),
                armed: Mutex::default(),
                gate: std::sync::Barrier::new(2),
            })
        }

        fn arm(&self, op: StoreOp, session_id: &'static str) {
            lock(&self.armed).push((op, session_id));
        }

        fn park_if_armed(&self, op: StoreOp, session_id: &str) {
            let mut armed = lock(&self.armed);
            let Some(at) = armed.iter().position(|&armed| armed == (op, session_id)) else {
                return;
            };
            armed.remove(at);
            drop(armed);
            self.gate.wait();
            self.gate.wait();
        }
    }

    impl CheckpointStore for GatedStore {
        fn put_checkpoint(&self, session_id: &str, document: &str) -> EngineResult<()> {
            self.park_if_armed(StoreOp::PutCheckpoint, session_id);
            self.inner.put_checkpoint(session_id, document)
        }
        fn load_checkpoint(&self, session_id: &str) -> EngineResult<Option<String>> {
            self.inner.load_checkpoint(session_id)
        }
        fn append_wal(&self, session_id: &str, line: &str) -> EngineResult<()> {
            self.park_if_armed(StoreOp::AppendWal, session_id);
            self.inner.append_wal(session_id, line)
        }
        fn read_wal(&self, session_id: &str) -> EngineResult<Vec<String>> {
            self.park_if_armed(StoreOp::ReadWal, session_id);
            self.inner.read_wal(session_id)
        }
        fn truncate_wal(&self, session_id: &str) -> EngineResult<()> {
            self.park_if_armed(StoreOp::TruncateWal, session_id);
            self.inner.truncate_wal(session_id)
        }
        fn list_sessions(&self) -> EngineResult<Vec<String>> {
            self.inner.list_sessions()
        }
        fn remove(&self, session_id: &str) -> EngineResult<()> {
            self.inner.remove(session_id)
        }
    }

    #[test]
    fn a_checkpoint_write_does_not_block_other_sessions_wal_appends() {
        let (dir, _) = scratch_store("gated");
        let store = GatedStore::new(&dir);
        let engine =
            Arc::new(Engine::new().with_store(Arc::clone(&store) as Arc<dyn CheckpointStore>));
        let (pool, _) = pool_and_truth(400, 33);
        engine.load_pool("p", pool.clone()).unwrap();
        for id in ["a", "b"] {
            engine
                .create_session(oasis_spec(id, 4, 9, LabelSource::external(pool.len())))
                .unwrap();
        }

        store.arm(StoreOp::PutCheckpoint, "a");
        let writer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.checkpoint_to("a"))
        };
        store.gate.wait(); // a's checkpoint write is now parked in the store
        let (answer, answered) = std::sync::mpsc::channel();
        let proposer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let request = crate::protocol::Request::Propose {
                    session: "b".to_string(),
                    count: 1,
                };
                let dispatch = crate::protocol::dispatch(&engine, request);
                let _ = answer.send(dispatch.response.render());
            })
        };
        let response = answered.recv_timeout(std::time::Duration::from_secs(5));
        store.gate.wait(); // release a's write
        assert_eq!(writer.join().unwrap().unwrap(), 0);
        proposer.join().unwrap();
        let response = response.expect("propose on b waited for a's checkpoint write");
        assert!(response.contains(r#""ok":true"#), "{response}");
        assert_eq!(engine.store().unwrap().read_wal("b").unwrap().len(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_losing_admission_leaves_the_winners_durable_state_alone() {
        let (pool, _) = pool_and_truth(300, 39);
        // Two admissions of one id race, either one a create or a restore:
        // the first parks inside its base checkpoint write while the second
        // runs, a propose follows each.
        let spec = |seed| oasis_spec("s", 4, seed, LabelSource::external(300));
        let shared = Arc::new(pool.clone());
        let admit = |engine: &Engine, seed, restore: bool| {
            if !restore {
                return engine.create_session(spec(seed));
            }
            let session = Session::new(spec(seed), Arc::clone(&shared)).unwrap();
            engine.restore_session("s", session.checkpoint())
        };
        for (first, second) in [(false, false), (true, false), (false, true)] {
            let name = |restore| if restore { "restore" } else { "create" };
            let tag = format!("{} vs {}", name(first), name(second));
            let (dir, _) = scratch_store(&format!("race-{first}-{second}"));
            let store = GatedStore::new(&dir);
            store.arm(StoreOp::PutCheckpoint, "s");
            let engine = Engine::new().with_store(Arc::clone(&store) as Arc<dyn CheckpointStore>);
            engine.load_pool("p", pool.clone()).unwrap();
            let propose = || {
                let request = crate::protocol::Request::Propose {
                    session: "s".to_string(),
                    count: 1,
                };
                crate::protocol::dispatch(&engine, request)
                    .response
                    .render()
            };
            let (parked, racer, acked) = std::thread::scope(|scope| {
                let parked = scope.spawn(|| admit(&engine, 1, first));
                store.gate.wait(); // the seed-1 base checkpoint write is parked
                                   // An admission of another id does not wait for it.
                let other = oasis_spec("other", 4, 3, LabelSource::external(300));
                engine.create_session(other).unwrap();
                let racer = admit(&engine, 2, second);
                let early = propose();
                store.gate.wait();
                let parked = parked.join().unwrap();
                let acked = [early, propose()]
                    .iter()
                    .filter(|r| r.contains(r#""ok":true"#))
                    .count();
                (parked, racer, acked)
            });
            let winner_seed = match (&parked, &racer) {
                (Ok(()), Err(EngineError::DuplicateId(_))) => 1,
                (Err(EngineError::DuplicateId(_)), Ok(())) => 2,
                other => panic!("{tag}: exactly one admission wins: {other:?}"),
            };
            let document = store.load_checkpoint("s").unwrap().unwrap();
            let stored_seed = parse_envelope(&document).unwrap().0.seed;
            assert_eq!(stored_seed, winner_seed, "{tag}: stored seed");
            let records = store.read_wal("s").unwrap().len();
            assert_eq!(records, acked, "{tag}: WAL records vs ok proposes");
            // The first admission to reserve the id wins.
            assert_eq!((winner_seed, acked), (1, 1), "{tag}");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_request_racing_an_eviction_never_changes_the_evicted_copy() {
        let (dir, _) = scratch_store("evict-race");
        let store = GatedStore::new(&dir);
        let engine = Engine::new()
            .with_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .with_max_resident(1);
        let (pool, _) = pool_and_truth(300, 41);
        engine.load_pool("p", pool.clone()).unwrap();
        let external = |id| oasis_spec(id, 4, 5, LabelSource::external(300));
        engine.create_session(external("a")).unwrap();
        let propose = |engine: &Engine| {
            let request = crate::protocol::Request::Propose {
                session: "a".to_string(),
                count: 1,
            };
            crate::protocol::dispatch(engine, request).response.render()
        };

        store.arm(StoreOp::PutCheckpoint, "a");
        store.arm(StoreOp::AppendWal, "a");
        let engine = &engine;
        let responses = std::thread::scope(|scope| {
            // Creating b evicts a, whose eviction checkpoint parks.
            let creator = scope.spawn(|| engine.create_session(external("b")));
            store.gate.wait();
            // A propose fetches a's handle (the fetch ticks the LRU clock)
            // and waits for a's lock.
            let fetched = engine.clock.load(Ordering::SeqCst);
            let late = scope.spawn(move || propose(engine));
            while engine.clock.load(Ordering::SeqCst) == fetched {
                std::thread::yield_now();
            }
            store.gate.wait(); // the eviction completes
            creator.join().unwrap().unwrap();
            store.gate.wait(); // the late propose's WAL append is parked
                               // A second propose either completes now, on a copy of a the
                               // eviction left unlocked, or waits for the late one's lock.
            let (sent, received) = std::sync::mpsc::channel();
            scope.spawn(move || sent.send(propose(engine)));
            let early = received.recv_timeout(Duration::from_secs(1));
            store.gate.wait(); // release the late append
            let late = late.join().unwrap();
            let early = early.or_else(|_| received.recv()).unwrap();
            [early, late]
        });
        let mut tickets: Vec<String> = responses
            .iter()
            .map(|response| {
                let response = Json::parse(response).unwrap();
                assert!(response.require("ok").unwrap().as_bool().unwrap());
                let proposals = response.require("proposals").unwrap().as_array().unwrap();
                proposals[0]
                    .require("ticket")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        tickets.sort();
        assert_eq!(tickets, ["0", "1"], "{responses:?}");
        let seqs: Vec<u64> = store
            .read_wal("a")
            .unwrap()
            .iter()
            .map(|line| WalRecord::parse(line).unwrap().seq)
            .collect();
        assert_eq!(seqs, [0, 1]);

        // After a restart, a replays both acknowledged proposes.
        let revived = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        revived.load_pool("p", pool).unwrap();
        assert_eq!(revived.restore_from("a").unwrap().replayed, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rehydration_that_read_the_store_before_an_eviction_reads_it_again() {
        // After the eviction the slow rehydration reads either an empty WAL
        // past its checkpoint's watermark or, once a rehydrated copy logged
        // again, a WAL that starts past it: a gap.
        for (logs_again, expected, pending) in
            [(false, &["0", "1"][..], 2), (true, &["0", "1", "2"][..], 3)]
        {
            let (dir, _) = scratch_store(&format!("rehydrate-race-{logs_again}"));
            let store = GatedStore::new(&dir);
            let engine = Engine::new()
                .with_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
                .with_max_resident(1);
            let (pool, _) = pool_and_truth(300, 43);
            engine.load_pool("p", pool.clone()).unwrap();
            let external = |id| oasis_spec(id, 4, 5, LabelSource::external(300));
            engine.create_session(external("a")).unwrap();
            engine.create_session(external("b")).unwrap(); // evicts a
            let propose = |engine: &Engine| {
                let request = crate::protocol::Request::Propose {
                    session: "a".to_string(),
                    count: 1,
                };
                crate::protocol::dispatch(engine, request).response.render()
            };

            store.arm(StoreOp::ReadWal, "a");
            let engine = &engine;
            let responses = std::thread::scope(|scope| {
                // A propose starts rehydrating a: it reads a's base
                // checkpoint, then parks reading a's WAL.
                let slow = scope.spawn(move || propose(engine));
                store.gate.wait();
                // Meanwhile a is rehydrated, proposes, and is evicted again.
                let mut responses = vec![propose(engine)];
                engine.create_session(external("c")).unwrap();
                if logs_again {
                    // a is rehydrated once more and logs past the watermark
                    // the slow rehydration read.
                    responses.push(propose(engine));
                }
                store.gate.wait(); // the slow rehydration reads the WAL
                responses.push(slow.join().unwrap());
                responses
            });
            let mut tickets: Vec<String> = responses
                .iter()
                .map(|response| {
                    let response = Json::parse(response).unwrap();
                    assert!(response.require("ok").unwrap().as_bool().unwrap());
                    let proposals = response.require("proposals").unwrap().as_array().unwrap();
                    proposals[0]
                        .require("ticket")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .collect();
            tickets.sort();
            assert_eq!(tickets, expected, "{responses:?}");

            // After a restart, every acknowledged propose is pending.
            let revived = Engine::new().with_store(Arc::new(
                crate::store::FsCheckpointStore::open(&dir).unwrap(),
            ) as Arc<dyn CheckpointStore>);
            revived.load_pool("p", pool).unwrap();
            revived.restore_from("a").unwrap();
            assert_eq!(
                revived.session("a").unwrap().lock().pending_count(),
                pending
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_rehydration_that_loses_the_race_never_scrubs_the_winners_wal() {
        let (dir, _) = scratch_store("scrub-race");
        let (pool, _) = pool_and_truth(300, 47);
        {
            let engine = durable_engine(&Arc::new(
                crate::store::FsCheckpointStore::open(&dir).unwrap(),
            ));
            engine.load_pool("p", pool.clone()).unwrap();
            let spec = oasis_spec("a", 4, 9, LabelSource::external(300));
            engine.create_session(spec).unwrap();
        }
        // Crash mid-append: half a record trails the log.
        let store = GatedStore::new(&dir);
        store
            .append_wal("a", "{\"seq\":\"0\",\"op\":\"pro")
            .unwrap();

        let engine = Engine::new().with_store(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        engine.load_pool("p", pool.clone()).unwrap();
        let send = |engine: &Engine, request: crate::protocol::Request| {
            crate::protocol::dispatch(engine, request).response.render()
        };
        store.arm(StoreOp::TruncateWal, "a");
        let propose = |engine: &Engine| {
            let request = crate::protocol::Request::Propose {
                session: "a".to_string(),
                count: 1,
            };
            send(engine, request)
        };
        let engine = &engine;
        let acknowledged = std::thread::scope(|scope| {
            // One request rehydrates a, reads the torn tail and parks in the
            // scrub's truncate.
            let slow = scope.spawn(move || {
                let request = crate::protocol::Request::Estimate {
                    session: "a".to_string(),
                };
                send(engine, request)
            });
            store.gate.wait();
            let acknowledged = if read(&engine.sessions).contains_key("a") {
                // The scrubbing copy is the registered one and holds a's
                // lock: a propose waits for the rewrite to end.
                store.gate.wait();
                propose(engine)
            } else {
                // The scrubbing copy is not registered: another request
                // rehydrates a and gets a propose acknowledged before the
                // truncate runs.
                let acknowledged = propose(engine);
                store.gate.wait();
                acknowledged
            };
            let estimate = slow.join().unwrap();
            assert!(estimate.contains(r#""ok":true"#), "{estimate}");
            acknowledged
        });
        assert!(acknowledged.contains(r#""ok":true"#), "{acknowledged}");

        // After a restart the acknowledged proposal is still pending.
        let revived = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        revived.load_pool("p", pool).unwrap();
        revived.restore_from("a").unwrap();
        assert_eq!(revived.session("a").unwrap().lock().pending_count(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_checkpoints_idle_sessions_and_rehydrates_on_access() {
        let (dir, store) = scratch_store("lru");
        let (pool, truth) = pool_and_truth(600, 32);

        let reference = Engine::new();
        reference.load_pool("p", pool.clone()).unwrap();
        oracle_session(&reference, "s1", &truth, 7);
        reference.run_parallel(&steps_job("s1", 90), 1).unwrap();

        let engine = durable_engine(&store).with_max_resident(1);
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s1", &truth, 7);
        engine.run_parallel(&steps_job("s1", 40), 1).unwrap();
        // Creating s2 exceeds the cap: s1 (least recently used) is
        // checkpointed and evicted.
        oracle_session(&engine, "s2", &truth, 8);
        let overviews = engine.session_overviews();
        assert_eq!(overviews.len(), 2);
        let s1 = overviews.iter().find(|o| o.id == "s1").unwrap();
        assert!(!s1.resident, "s1 should have been evicted");
        assert!(!s1.dirty, "eviction checkpoints first");
        assert!(overviews.iter().find(|o| o.id == "s2").unwrap().resident);
        // Both ids stay visible even while one lives only in the store.
        assert_eq!(engine.session_ids(), vec!["s1", "s2"]);

        // Accessing s1 rehydrates it transparently and the run continues
        // bit-identically to the never-evicted reference.
        engine.run_parallel(&steps_job("s1", 50), 1).unwrap();
        let revived = engine.session("s1").unwrap();
        let expected = reference.session("s1").unwrap();
        assert_eq!(
            revived.lock().estimate().f_measure.to_bits(),
            expected.lock().estimate().f_measure.to_bits()
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_failures_are_structured_errors() {
        // No store attached: a Store error, not a panic.
        let bare = Engine::new();
        assert!(matches!(bare.restore_from("s"), Err(EngineError::Store(_))));
        assert!(matches!(
            bare.checkpoint_to("s"),
            Err(EngineError::Store(_))
        ));

        let (dir, store) = scratch_store("errors");
        let (pool, truth) = pool_and_truth(400, 33);
        let engine = durable_engine(&store);
        engine.load_pool("p", pool).unwrap();

        // Missing entry.
        assert!(matches!(
            engine.restore_from("ghost"),
            Err(EngineError::UnknownSession(_))
        ));
        // Corrupt entry: bad JSON, and valid JSON of the wrong shape.
        store.put_checkpoint("bad", "definitely not json").unwrap();
        assert!(matches!(
            engine.restore_from("bad"),
            Err(EngineError::Store(_))
        ));
        store
            .put_checkpoint("shape", r#"{"format":"oasis-engine/store-v1","wal_seq":0}"#)
            .unwrap();
        assert!(matches!(
            engine.restore_from("shape"),
            Err(EngineError::Store(_))
        ));
        // Already resident.
        oracle_session(&engine, "s", &truth, 9);
        assert!(matches!(
            engine.restore_from("s"),
            Err(EngineError::DuplicateId(_))
        ));
        // An *interior* corrupt WAL line under a good checkpoint is also
        // structured — only a torn trailing line is forgiven (see below).
        engine.checkpoint_to("s").unwrap();
        engine.delete_session("s").unwrap();
        oracle_session(&engine, "s", &truth, 9);
        store.append_wal("s", "garbage").unwrap();
        store
            .append_wal("s", "{\"seq\":\"0\",\"op\":\"step\",\"steps\":1}")
            .unwrap();
        let fresh = Engine::new().with_store(Arc::new(
            crate::store::FsCheckpointStore::open(&dir).unwrap(),
        ) as Arc<dyn CheckpointStore>);
        let (pool, _) = pool_and_truth(400, 33);
        fresh.load_pool("p", pool).unwrap();
        assert!(matches!(
            fresh.restore_from("s"),
            Err(EngineError::Store(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_wal_record_is_truncated_and_scrubbed_on_rehydrate() {
        let (dir, store) = scratch_store("torn-tail");
        let (pool, truth) = pool_and_truth(500, 35);
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 11);
            engine.run_parallel(&steps_job("s", 60), 1).unwrap();
        }
        // Crash mid-append: half a record trails the log.
        store.append_wal("s", "{\"seq\":\"1\",\"op\":\"st").unwrap();

        let revived = durable_engine(&store);
        revived.load_pool("p", pool).unwrap();
        let report = revived.restore_from("s").unwrap();
        assert_eq!(report.replayed, 1, "the intact record replays");
        assert!(report.truncated_tail, "the torn tail is reported");
        // The scrub removed the torn line from disk, so a second restart
        // replays a clean log.
        let lines = store.read_wal("s").unwrap();
        assert!(
            lines.iter().all(|l| WalRecord::parse(l).is_ok()),
            "scrubbed WAL must be fully parseable: {lines:?}"
        );
        // And the revived session still serves traffic.
        revived.run_parallel(&steps_job("s", 10), 1).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_store_faults_are_retried_and_counted() {
        use crate::fault::{FaultKind, FaultyStore, StoreOp};
        let (dir, inner) = scratch_store("retry");
        let faulty = Arc::new(
            FaultyStore::new(inner as Arc<dyn CheckpointStore>)
                .with_fault(StoreOp::AppendWal, 0, FaultKind::Transient)
                .with_fault(StoreOp::PutCheckpoint, 1, FaultKind::Transient),
        );
        let (pool, truth) = pool_and_truth(400, 36);
        let engine = Engine::new()
            .with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_micros(10),
            });
        faulty.attach_metrics(engine.metrics_handle());
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s", &truth, 13);
        // Both the first WAL append and the checkpoint write hit a transient
        // fault; the retry absorbs them invisibly.
        engine.run_parallel(&steps_job("s", 20), 1).unwrap();
        engine.checkpoint_to("s").unwrap();
        assert_eq!(engine.metrics().counter(Counter::RetriedWrite), 2);
        assert_eq!(engine.metrics().counter(Counter::FaultInjected), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_become_a_permanent_store_error() {
        use crate::fault::{FaultKind, FaultyStore, StoreOp};
        let (dir, inner) = scratch_store("exhaust");
        let faulty = Arc::new(FaultyStore::new(inner as Arc<dyn CheckpointStore>));
        // More consecutive transients than the policy tolerates.
        for index in 0..4 {
            faulty.fail_nth(StoreOp::AppendWal, index, FaultKind::Transient);
        }
        let (pool, truth) = pool_and_truth(300, 37);
        let engine = Engine::new()
            .with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_micros(10),
            });
        engine.load_pool("p", pool).unwrap();
        oracle_session(&engine, "s", &truth, 17);
        let err = engine.run_parallel(&steps_job("s", 5), 1).unwrap_err();
        assert!(matches!(err, EngineError::Store(_)), "{err}");
        assert!(err.to_string().contains("after 2 retries"), "{err}");
        // The engine is not wedged: the faults are spent, traffic resumes.
        engine.run_parallel(&steps_job("s", 5), 1).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_ids_stay_reserved_and_delete_clears_the_store() {
        let (dir, store) = scratch_store("reserve");
        let (pool, truth) = pool_and_truth(300, 34);
        {
            let engine = durable_engine(&store);
            engine.load_pool("p", pool.clone()).unwrap();
            oracle_session(&engine, "s", &truth, 3);
        }
        // After a "restart" the stored id still owns its name.
        let engine = durable_engine(&store);
        engine.load_pool("p", pool).unwrap();
        assert!(matches!(
            engine.create_session(oasis_spec(
                "s",
                4,
                1,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone()))
            )),
            Err(EngineError::DuplicateId(_))
        ));
        // Deleting a stored-but-not-resident session clears the store entry
        // and frees the id.
        engine.delete_session("s").unwrap();
        assert!(store.load_checkpoint("s").unwrap().is_none());
        oracle_session(&engine, "s", &truth, 3);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_session_under_new_name() {
        let (pool, truth) = pool_and_truth(500, 4);
        let engine = Engine::new();
        engine.load_pool("p", pool).unwrap();
        engine
            .create_session(oasis_spec(
                "orig",
                6,
                9,
                LabelSource::GroundTruth(GroundTruthOracle::new(truth)),
            ))
            .unwrap();
        let handle = engine.session("orig").unwrap();
        handle.lock().step(50).unwrap();
        let checkpoint = handle.lock().checkpoint();

        engine.restore_session("copy", checkpoint).unwrap();
        let copy = engine.session("copy").unwrap();
        let a = handle.lock().step(50).unwrap();
        let b = copy.lock().step(50).unwrap();
        assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits());
    }
}
