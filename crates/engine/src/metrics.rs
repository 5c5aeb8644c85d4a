//! Engine-wide observability: atomic counters and log-bucketed latency
//! histograms behind a [`MetricsRegistry`].
//!
//! Every hot path of the engine is instrumented — the per-method protocol
//! verbs (`propose`/`label`/`step`/`run_budget`), checkpoint write/restore,
//! WAL append/replay, and store eviction/rehydration.  The registry is
//! deliberately boring: counters are lock-free [`AtomicU64`]s, histograms
//! live in one `std::sync` mutex keyed by operation name, and the whole
//! thing snapshots to a single JSON object for the `metrics` protocol verb.
//!
//! Time comes from a [`Clock`] so tests can drive a [`ManualClock`]
//! deterministically: the estimate/CI goldens stay bit-stable because no
//! wall-clock value ever feeds the samplers, and the metrics wire tests pin
//! exact histogram contents by advancing the manual clock themselves.
//!
//! A registry built with [`MetricsRegistry::disabled`] turns every record
//! into an early-returning no-op; the benchmark's traced run compares an
//! instrumented engine against a disabled one (`metrics.overhead_pct`) to
//! bound the overhead.

use crate::sync::lock;
use serde::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A source of monotonic microseconds.
///
/// The engine never interprets the absolute value — only differences — so
/// any non-decreasing counter works.  Production uses [`MonotonicClock`];
/// tests use [`ManualClock`] to make latency histograms exactly
/// reproducible.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds since an arbitrary fixed origin.  Must never decrease.
    fn now_micros(&self) -> u64;
}

/// Wall-clock-independent monotonic time via [`std::time::Instant`],
/// anchored at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A deterministic clock for tests: time only moves when the test says so.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance the clock by `micros`.
    pub fn advance(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

/// The engine's named event counters.
///
/// The wire names (see [`Counter::as_str`]) are the keys of the `counters`
/// object in a [`MetricsRegistry::snapshot`]; they are a stable part of the
/// protocol surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Proposals drawn (individual tickets, across all sessions).
    Propose,
    /// Labels applied.
    Label,
    /// Sampler steps run (propose→label round trips via `step`).
    Step,
    /// `run_budget` requests served.
    RunBudget,
    /// Checkpoints written (durable store writes, including evictions).
    CheckpointWrite,
    /// Checkpoints restored (explicit restores and rehydrations).
    CheckpointRestore,
    /// WAL records appended.
    WalAppend,
    /// WAL records replayed during rehydration.
    WalReplay,
    /// Sessions evicted by the LRU resident cap.
    Eviction,
    /// Sessions rehydrated from the store.
    Rehydration,
    /// Sessions created (or restored) with a sharded pool.
    ShardedSession,
    /// Proposals routed through a shard of a sharded session (each one a
    /// Fenwick-tree draw over the shard masses).
    ShardRoute,
    /// Pending tickets dropped because their propose lease expired.
    LeaseExpiry,
    /// Requests rejected by a per-session rate limit.
    Throttle,
    /// Store writes retried after a transient fault.
    RetriedWrite,
    /// Faults injected by a scripted [`crate::fault::FaultyStore`].
    FaultInjected,
    /// TCP connections accepted.
    Connection,
    /// Request lines rejected for exceeding the per-line byte cap.
    LineTooLong,
    /// Request lines longer than the line loop's 64 KiB head whose object
    /// was decoded as the line arrived, never resident whole.
    StreamedLine,
    /// `accept()` failures answered with a bounded backoff instead of a
    /// hot retry loop (EMFILE/ENFILE under fd pressure).
    AcceptRetry,
    /// Accepted TCP connections closed unserved with a `backpressure` line:
    /// the connection cap was reached or the OS refused a thread.
    ConnectionRefused,
}

impl Counter {
    /// Every counter, in wire order.
    pub const ALL: [Counter; 21] = [
        Counter::Propose,
        Counter::Label,
        Counter::Step,
        Counter::RunBudget,
        Counter::CheckpointWrite,
        Counter::CheckpointRestore,
        Counter::WalAppend,
        Counter::WalReplay,
        Counter::Eviction,
        Counter::Rehydration,
        Counter::ShardedSession,
        Counter::ShardRoute,
        Counter::LeaseExpiry,
        Counter::Throttle,
        Counter::RetriedWrite,
        Counter::FaultInjected,
        Counter::Connection,
        Counter::LineTooLong,
        Counter::StreamedLine,
        Counter::AcceptRetry,
        Counter::ConnectionRefused,
    ];

    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::Propose => "propose",
            Counter::Label => "label",
            Counter::Step => "step",
            Counter::RunBudget => "run_budget",
            Counter::CheckpointWrite => "checkpoint_write",
            Counter::CheckpointRestore => "checkpoint_restore",
            Counter::WalAppend => "wal_append",
            Counter::WalReplay => "wal_replay",
            Counter::Eviction => "eviction",
            Counter::Rehydration => "rehydration",
            Counter::ShardedSession => "sharded_session",
            Counter::ShardRoute => "shard_route",
            Counter::LeaseExpiry => "lease_expiry",
            Counter::Throttle => "throttle",
            Counter::RetriedWrite => "retried_write",
            Counter::FaultInjected => "fault_injected",
            Counter::Connection => "connection",
            Counter::LineTooLong => "line_too_long",
            Counter::StreamedLine => "streamed_line",
            Counter::AcceptRetry => "accept_retry",
            Counter::ConnectionRefused => "connection_refused",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of histogram buckets: one per power of two of the microsecond
/// range, so bucket `i > 0` holds values in `[2^(i-1), 2^i - 1]` and the
/// relative quantile error is bounded by 2× (see
/// [`LatencyHistogram::quantile`]).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log-bucketed latency histogram with exact count/sum/max side-channels.
///
/// Values are microseconds.  Buckets double in width, so any quantile read
/// off the bucket boundaries is within a factor of two of the true order
/// statistic — plenty for "is p99 a millisecond or a second" while keeping
/// the whole histogram 64 fixed slots, mergeable by element-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket a value falls into: 0 holds only zero, bucket `i > 0`
    /// holds `[2^(i-1), 2^i - 1]`, and the last bucket absorbs the tail.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The largest value bucket `index` can hold (saturating at the top).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one value (microseconds).
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one.  Element-wise addition, so the
    /// operation is associative and commutative — merging per-shard
    /// histograms in any order yields the same result.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) read off the bucket boundaries,
    /// clamped to the exact maximum.  Returns 0 for an empty histogram.
    ///
    /// Guarantee: for a true quantile value `t < 2^62`, the returned
    /// estimate `e` satisfies `t ≤ e ≤ 2·t` (and `e = 0` when `t = 0`),
    /// because the estimate is the upper bound of `t`'s bucket and buckets
    /// double.  The saturating tail bucket spans `[2^62, u64::MAX]` — about
    /// 146 millennia in microseconds — where the estimate is still bounded
    /// by the exact maximum but the 2× factor no longer applies.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Wire form: exact count/sum/max plus the 2×-bounded p50/p95/p99.
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("count", self.count.to_json());
        obj.set("sum_us", self.sum.to_json());
        obj.set("max_us", self.max.to_json());
        obj.set("p50_us", self.quantile(0.50).to_json());
        obj.set("p95_us", self.quantile(0.95).to_json());
        obj.set("p99_us", self.quantile(0.99).to_json());
        obj
    }
}

/// A latency measurement in flight: the start timestamp, or nothing when
/// the registry is disabled (so the hot path never reads the clock).
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start_micros: Option<u64>,
}

/// The engine's metrics registry.
///
/// All methods take `&self` and are safe to call from any thread; counter
/// updates are lock-free and histogram updates take one short mutex.  A
/// disabled registry ([`MetricsRegistry::disabled`]) makes every operation
/// an early-returning no-op.
pub struct MetricsRegistry {
    enabled: bool,
    clock: Box<dyn Clock>,
    counters: [AtomicU64; Counter::ALL.len()],
    latencies: Mutex<BTreeMap<String, LatencyHistogram>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry on the monotonic clock.
    pub fn new() -> Self {
        MetricsRegistry::with_clock(Box::new(MonotonicClock::new()))
    }

    /// An enabled registry on a caller-supplied clock (tests pass a
    /// [`ManualClock`] for bit-stable histograms).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        MetricsRegistry {
            enabled: true,
            clock,
            counters: Default::default(),
            latencies: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry whose every operation is a no-op — the uninstrumented
    /// baseline of the benchmark's `metrics.overhead_pct`.
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            clock: Box::new(ManualClock::new()),
            counters: Default::default(),
            latencies: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Read a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Start a latency measurement (a no-op token when disabled).
    pub fn timer(&self) -> Timer {
        Timer {
            start_micros: if self.enabled {
                Some(self.clock.now_micros())
            } else {
                None
            },
        }
    }

    /// Finish a latency measurement, folding the elapsed microseconds into
    /// the histogram named `key` (created on first use).
    pub fn record(&self, key: &str, timer: Timer) {
        let Some(start) = timer.start_micros else {
            return;
        };
        let elapsed = self.clock.now_micros().saturating_sub(start);
        let mut latencies = lock(&self.latencies);
        // Looked up before inserting: only a new key costs an allocation.
        match latencies.get_mut(key) {
            Some(histogram) => histogram.record(elapsed),
            None => latencies
                .entry(key.to_string())
                .or_default()
                .record(elapsed),
        }
    }

    /// A copy of the histogram named `key`, if any value was ever recorded
    /// under it.
    pub fn histogram(&self, key: &str) -> Option<LatencyHistogram> {
        lock(&self.latencies).get(key).cloned()
    }

    /// The full registry as one JSON object:
    ///
    /// ```json
    /// {"counters":{"propose":12,...},
    ///  "latency_us":{"propose.oasis":{"count":3,"sum_us":41,"max_us":20,
    ///                "p50_us":15,"p95_us":20,"p99_us":20},...}}
    /// ```
    ///
    /// Counters always carry every key (zeros included) so consumers can
    /// grep for a name without existence checks; histograms appear once
    /// something was recorded under them.  `BTreeMap` keeps key order
    /// deterministic.
    pub fn snapshot(&self) -> Json {
        let mut counters = Json::object();
        for counter in Counter::ALL {
            counters.set(counter.as_str(), self.counter(counter).to_json());
        }
        let mut latency = Json::object();
        for (key, histogram) in lock(&self.latencies).iter() {
            latency.set(key, histogram.to_json());
        }
        let mut obj = Json::object();
        obj.set("counters", counters);
        obj.set("latency_us", latency);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_double() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_upper_bound(1), 1);
        assert_eq!(LatencyHistogram::bucket_upper_bound(2), 3);
        assert_eq!(LatencyHistogram::bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_count_sum_max() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 5, 5, 100, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 118);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(1.0), 100, "clamped to the exact max");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = MetricsRegistry::disabled();
        assert!(!registry.enabled());
        registry.incr(Counter::Propose);
        let timer = registry.timer();
        registry.record("propose.oasis", timer);
        assert_eq!(registry.counter(Counter::Propose), 0);
        assert!(registry.histogram("propose.oasis").is_none());
    }

    #[test]
    fn manual_clock_gives_exact_latencies() {
        let clock = std::sync::Arc::new(ManualClock::new());
        // The registry owns a Box<dyn Clock>; share the Arc through a tiny
        // forwarding impl so the test can advance time from outside.
        #[derive(Debug)]
        struct Shared(std::sync::Arc<ManualClock>);
        impl Clock for Shared {
            fn now_micros(&self) -> u64 {
                self.0.now_micros()
            }
        }
        let registry = MetricsRegistry::with_clock(Box::new(Shared(clock.clone())));
        let timer = registry.timer();
        clock.advance(5);
        registry.record("step.passive", timer);
        let h = registry.histogram("step.passive").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 5);
        assert_eq!(h.max(), 5);
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn snapshot_always_lists_every_counter() {
        let registry = MetricsRegistry::new();
        registry.add(Counter::WalAppend, 3);
        let snapshot = registry.snapshot().render();
        for counter in Counter::ALL {
            assert!(
                snapshot.contains(&format!("\"{}\":", counter.as_str())),
                "{snapshot}"
            );
        }
        assert!(snapshot.contains("\"wal_append\":\"3\"") || snapshot.contains("\"wal_append\":3"));
    }
}
