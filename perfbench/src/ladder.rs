//! The traced run: one recorded request trace replayed at every rung of the
//! stack, timing calls into each module's public functions from outside.
//!
//! Rungs, bottom to top:
//!
//! 1. `oasis` — `AnySampler::propose_batch` / `apply_label` / `estimate`;
//! 2. `session` — `Session::propose` / `apply_labels` / `estimate`;
//! 3. `protocol` — `Request::parse` → `protocol::dispatch` → `Json::render`;
//! 4. `stdio` — `server::serve_lines` over in-memory buffers;
//! 5. `tcp` — `server::serve_listener` (thread per connection);
//! 6. `evented` — `serve_listener_evented` (the epoll reactor).
//!
//! A rung's self time is its mean time per request minus that of the rung
//! it is built on; both TCP transports are built on the `stdio` rung's
//! framing and dispatch.  Rungs 3–6 run against an engine with the same
//! store set-up as the untraced run.  Around the ladder the run times the
//! store, WAL, checkpoint and metrics layers and `Engine::run_parallel`
//! directly.

use crate::inputs::{check, schedule, script, Expect, PoolData, Script, SessionSpec, Workload};
use crate::report::{Metric, Outcome};
use crate::stats::{percentile, Summary};
use crate::wire::{Client, Server};
use crate::workloads::{
    budget_jobs, oracles, replay_connections, setup, simulate_engine, Answer, RunContext,
    CONNECTIONS,
};
use oasis::{AnySampler, InteractiveSampler, OasisConfig, Proposal, SamplerMethod};
use oasis_engine::protocol::{dispatch, error_response, Request};
use oasis_engine::server::{serve_lines, serve_listener};
use oasis_engine::store::{parse_envelope, render_envelope};
use oasis_engine::wal::{parse_lines, replay as replay_wal};
use oasis_engine::{
    serve_listener_evented, CheckpointStore, Engine, FsCheckpointStore, LabelSource,
    LatencyHistogram, MetricsRegistry, Session, WalEntry, WalRecord,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::ToJson;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Propose/label rounds per session in the ladder trace.  The blocking TCP
/// rung pays its per-response stall on every request, so the trace is a
/// short prefix of the untraced run's first cycle.
const LADDER_ROUNDS: usize = 4;

/// Label budget of each ground-truth job at the engine rung.
fn engine_budget(workload: Workload) -> usize {
    match workload {
        Workload::Annotate => 1_000,
        Workload::BatchLabel => 20_000,
        Workload::Simulate => crate::workloads::SIMULATE_BUDGET,
    }
}

/// Repetitions of each engine-rung worker count and metrics-overhead pair.
const REPEATS: usize = 5;

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn millis(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median round trip, NaN (which fails the run) when none was answered.
fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        percentile(values, 0.5)
    }
}

/// The recorded trace and its sizes.
struct Trace {
    scripts: Vec<Script>,
    /// Every request in one stream, round by round across sessions.
    order: Vec<(usize, usize)>,
    labels: usize,
}

impl Trace {
    /// Record `rounds` rounds of `batch` proposals for every session.
    fn record(data: &PoolData, specs: &[SessionSpec], rounds: usize, batch: usize) -> Trace {
        let scripts: Vec<Script> = specs
            .iter()
            .map(|spec| script(data, spec, rounds, batch))
            .collect();
        let order = schedule(&scripts, 0, 1);
        let labels = scripts
            .iter()
            .flat_map(|s| &s.exchanges)
            .map(|e| e.labels)
            .sum();
        Trace {
            scripts,
            order,
            labels,
        }
    }

    fn exchange(&self, (s, e): (usize, usize)) -> &crate::inputs::Exchange {
        &self.scripts[s].exchanges[e]
    }
}

/// The `--trace 1` run.
///
/// # Errors
/// Socket, spawn and store-directory failures.
pub fn run_ladder(workload: Workload, context: &RunContext) -> io::Result<Outcome> {
    let data = PoolData::generate(workload);
    let specs = workload.sessions(context.seed, 0);
    let trace = Trace::record(&data, &specs, LADDER_ROUNDS, workload.batch());
    let requests = trace.order.len() as f64;
    let per_label = |us: f64| us / trace.labels as f64;
    // The wire workloads run with a durable store; `simulate` has none.
    let durable = workload != Workload::Simulate;
    let store_dir = |name: &str| durable.then(|| context.work.join(name));
    let mut out = Outcome::default();

    let oasis = oasis_rung(&data, &trace, &mut out);
    let session = session_rung(&data, &trace, &mut out);

    let (engine, load_pool_ms) =
        ladder_engine(&data, &trace, store_dir("protocol"), None, &mut out)?;
    let protocol = protocol_rung(&engine, &trace, &mut out);
    drop(engine);

    let (engine, _) = ladder_engine(&data, &trace, store_dir("stdio"), None, &mut out)?;
    let stdio_us = stdio_rung(&engine, &trace, &mut out);
    drop(engine);

    let (engine, _) = ladder_engine(&data, &trace, store_dir("tcp"), None, &mut out)?;
    let tcp = tcp_rung(&engine, &trace, false, &mut out)?;
    drop(engine);

    let (engine, _) = ladder_engine(&data, &trace, store_dir("evented"), None, &mut out)?;
    let evented = tcp_rung(&engine, &trace, true, &mut out)?;
    let metrics = engine.metrics();
    let busy_s = metrics
        .histogram("event_loop")
        .map_or(0.0, |h| h.sum() as f64 / 1e6);
    let server_propose_us = histogram_mean(metrics, "propose");
    let server_label_us = histogram_mean(metrics, "label");
    drop(engine);

    let rungs = [
        ("oasis", oasis.total_us / requests),
        ("session", session.total_us / requests),
        ("protocol", protocol.total_us / requests),
        ("stdio", stdio_us / requests),
        ("tcp", mean(&tcp)),
        ("evented", mean(&evented)),
    ];
    let mut ladder = Vec::new();
    for (index, &(name, us)) in rungs.iter().enumerate() {
        let below = match index {
            0 => 0.0,
            4 | 5 => rungs[3].1,
            _ => rungs[index - 1].1,
        };
        ladder.push(Metric::noted(
            &format!("ladder.{name}.self_us"),
            "us",
            us - below,
            format!("{us:.3} us per request at this rung"),
        ));
    }

    // The top rung of the workload's own transport against the real binary
    // on the same trace: the harness and tracing overhead.
    if durable {
        let binary = binary_p50(workload, context, &data, &trace, &mut out)?;
        let rung = if workload.evented() { &evented } else { &tcp };
        let in_process = p50(rung);
        out.notes.push(format!(
            "harness overhead: in-process {} rung p50 {in_process:.1} us vs oasis-serve p50 \
             {binary:.1} us on the same trace ({:+.1} us)",
            if workload.evented() { "evented" } else { "tcp" },
            in_process - binary
        ));
    }

    let (w1, w2, step_us) = engine_rung(workload, &data, &trace, &mut out);
    let storage = storage_probe(
        &data,
        &trace,
        &session.sessions,
        &context.work.join("probe"),
        &mut out,
    )?;
    // The metrics cost is small against dispatch; a ten times longer trace
    // keeps it above the timer noise.
    let long = Trace::record(&data, &specs, 10 * LADDER_ROUNDS, workload.batch());
    let (record_us, overhead_pct) = metrics_layer(&data, &long, &mut out)?;

    let mut metrics = ladder;
    metrics.extend([
        Metric::plain("oasis.propose_us", "us", per_label(oasis.propose_us)),
        Metric::plain("oasis.apply_label_us", "us", per_label(oasis.apply_us)),
        Metric::noted(
            "oasis.build_ms",
            "ms",
            mean(&oasis.build_ms),
            format!("mean over {} samplers", oasis.build_ms.len()),
        ),
        Metric::plain(
            "oasis.cdf_rebuilds_per_label",
            "ratio",
            oasis.cdf_rebuilds as f64 / trace.labels as f64,
        ),
        Metric::noted(
            "session.step_us",
            "us",
            step_us,
            "Session::run_until_budget, per step".into(),
        ),
        Metric::plain("session.propose_us", "us", per_label(session.propose_us)),
        Metric::plain("session.apply_labels_us", "us", per_label(session.apply_us)),
        Metric::summarised("engine.run_parallel_labels_per_s.w1", "labels/s", w1),
        Metric::summarised("engine.run_parallel_labels_per_s.w2", "labels/s", w2),
        Metric::noted(
            "engine.server_propose_us",
            "us",
            server_propose_us,
            "mean of the propose.<method> histograms after the evented rung".into(),
        ),
        Metric::noted(
            "engine.server_label_us",
            "us",
            server_label_us,
            "mean of the label.<method> histograms after the evented rung".into(),
        ),
        Metric::plain("protocol.parse_us", "us", per_label(protocol.parse_us)),
        Metric::plain(
            "protocol.dispatch_us",
            "us",
            per_label(protocol.dispatch_us),
        ),
        Metric::plain("protocol.render_us", "us", per_label(protocol.render_us)),
        Metric::plain(
            "protocol.request_bytes",
            "bytes",
            protocol.request_bytes / trace.labels as f64,
        ),
        Metric::plain(
            "protocol.response_bytes",
            "bytes",
            protocol.response_bytes / trace.labels as f64,
        ),
        Metric::plain("protocol.load_pool_ms", "ms", load_pool_ms),
        Metric::plain("metrics.record_us", "us", record_us),
        Metric::summarised("metrics.overhead_pct", "%", overhead_pct),
    ]);
    metrics.extend(storage.metrics(trace.labels));
    metrics.extend([
        Metric::plain("server.stdio_request_us", "us", stdio_us / requests),
        Metric::noted(
            "server.tcp_request_us",
            "us",
            mean(&tcp),
            format!("mean of {} round trips, p50 {:.1} us", tcp.len(), p50(&tcp)),
        ),
        Metric::noted(
            "reactor.tcp_request_us",
            "us",
            mean(&evented),
            format!(
                "mean of {} round trips, p50 {:.1} us",
                evented.len(),
                p50(&evented)
            ),
        ),
        Metric::plain("reactor.busy_s", "s", busy_s),
    ]);
    out.metrics = metrics;
    out.notes.push(format!(
        "trace: {} sessions, {} requests, {} labels; per-label metrics divide by {}",
        trace.scripts.len(),
        trace.order.len(),
        trace.labels,
        trace.labels
    ));
    Ok(out)
}

/// Mean of the `<verb>.<method>` histograms, merged over methods.
fn histogram_mean(metrics: &MetricsRegistry, verb: &str) -> f64 {
    let mut merged = LatencyHistogram::new();
    for method in SamplerMethod::ALL {
        if let Some(histogram) = metrics.histogram(&format!("{verb}.{}", method.as_str())) {
            merged.merge(&histogram);
        }
    }
    merged.sum() as f64 / merged.count().max(1) as f64
}

struct OasisRung {
    total_us: f64,
    propose_us: f64,
    apply_us: f64,
    build_ms: Vec<f64>,
    cdf_rebuilds: u64,
}

/// Rung 1: the bare samplers, each fed its session's proposals and truth.
fn oasis_rung(data: &PoolData, trace: &Trace, out: &mut Outcome) -> OasisRung {
    let config = OasisConfig::default();
    let truth = data.truth();
    let mut build_ms = Vec::new();
    let mut samplers: Vec<(AnySampler, StdRng, Vec<Proposal>)> = trace
        .scripts
        .iter()
        .map(|script| {
            let spec = &script.spec;
            let started = Instant::now();
            let sampler = match spec.shards {
                Some(shards) => {
                    AnySampler::build_sharded(spec.method, &data.pool, &config, shards, spec.seed)
                }
                None => AnySampler::build(spec.method, &data.pool, &config),
            }
            .expect("benchmark session specs are valid");
            build_ms.push(millis(started));
            (sampler, StdRng::seed_from_u64(spec.seed), Vec::new())
        })
        .collect();
    let (mut propose_us, mut apply_us, mut other_us) = (0.0, 0.0, 0.0);
    for &(s, e) in &trace.order {
        let (sampler, rng, pending) = &mut samplers[s];
        match &trace.exchange((s, e)).expect {
            Expect::Proposals(expected) => {
                let started = Instant::now();
                let proposals = sampler.propose_batch(&data.pool, rng, expected.len());
                propose_us += micros(started);
                out.count(
                    proposals
                        .iter()
                        .map(|p| p.item)
                        .eq(expected.iter().map(|&(_, item)| item)),
                );
                *pending = proposals;
            }
            Expect::Applied(_) => {
                let started = Instant::now();
                for proposal in pending.iter() {
                    sampler.apply_label(proposal, truth[proposal.item]);
                }
                apply_us += micros(started);
            }
            Expect::Estimate(_) => {
                let started = Instant::now();
                black_box(sampler.estimate());
                other_us += micros(started);
            }
        }
    }
    OasisRung {
        total_us: propose_us + apply_us + other_us,
        propose_us,
        apply_us,
        build_ms,
        cdf_rebuilds: samplers
            .iter()
            .map(|(sampler, _, _)| sampler.diagnostics().cdf_rebuilds)
            .sum(),
    }
}

struct SessionRung {
    total_us: f64,
    propose_us: f64,
    apply_us: f64,
    /// The sessions at the end of the trace.
    sessions: Vec<Session>,
}

/// Rung 2: `Session`s with an external label source.
fn session_rung(data: &PoolData, trace: &Trace, out: &mut Outcome) -> SessionRung {
    let truth = data.truth();
    let mut sessions: Vec<Session> = trace
        .scripts
        .iter()
        .map(|script| {
            script
                .spec
                .session(&data.pool, LabelSource::external(data.pool.len()))
        })
        .collect();
    let mut pending: Vec<Vec<(u64, bool)>> = vec![Vec::new(); sessions.len()];
    let (mut propose_us, mut apply_us, mut other_us) = (0.0, 0.0, 0.0);
    for &(s, e) in &trace.order {
        let session = &mut sessions[s];
        match &trace.exchange((s, e)).expect {
            Expect::Proposals(expected) => {
                let started = Instant::now();
                let tickets = session.propose(expected.len());
                propose_us += micros(started);
                let tickets = tickets.unwrap_or_default();
                out.count(
                    tickets
                        .iter()
                        .map(|t| (t.id, t.proposal.item))
                        .eq(expected.iter().copied()),
                );
                pending[s] = tickets
                    .iter()
                    .map(|t| (t.id, truth[t.proposal.item]))
                    .collect();
            }
            Expect::Applied(applied) => {
                let labels = std::mem::take(&mut pending[s]);
                let started = Instant::now();
                let outcome = session.apply_labels(&labels);
                apply_us += micros(started);
                out.count(outcome.is_ok_and(|n| n == *applied));
            }
            Expect::Estimate(expected) => {
                let started = Instant::now();
                let estimate = session.estimate();
                other_us += micros(started);
                out.count(estimate.to_json().render() == *expected);
            }
        }
    }
    SessionRung {
        total_us: propose_us + apply_us + other_us,
        propose_us,
        apply_us,
        sessions,
    }
}

/// Parse and dispatch one request line, rendering the response.
fn dispatch_line(engine: &Engine, line: &[u8]) -> String {
    let text = String::from_utf8_lossy(line);
    match Request::parse(text.trim_end()) {
        Ok(request) => dispatch(engine, request).response.render(),
        Err(error) => error_response(&error).render(),
    }
}

/// A fresh engine (with a store when `store` is given) with the pool loaded
/// and the sessions created through the protocol, as the untraced run sets
/// up.  Returns the engine and the `load_pool` parse + dispatch time in ms.
fn ladder_engine(
    data: &PoolData,
    trace: &Trace,
    store: Option<PathBuf>,
    metrics: Option<MetricsRegistry>,
    out: &mut Outcome,
) -> io::Result<(Engine, f64)> {
    let mut engine = Engine::new();
    if let Some(dir) = store {
        let store = FsCheckpointStore::open(&dir)
            .map_err(|e| io::Error::other(format!("cannot open store {}: {e}", dir.display())))?;
        engine = engine.with_store(Arc::new(store));
    }
    if let Some(metrics) = metrics {
        engine = engine.with_metrics(metrics);
    }
    let started = Instant::now();
    let loaded = dispatch_line(&engine, &data.load_line);
    let load_pool_ms = millis(started);
    out.count(crate::inputs::is_ok(&loaded));
    for script in &trace.scripts {
        out.count(crate::inputs::is_ok(&dispatch_line(
            &engine,
            &script.spec.create_line(),
        )));
    }
    Ok((engine, load_pool_ms))
}

#[derive(Default)]
struct ProtocolRung {
    total_us: f64,
    parse_us: f64,
    dispatch_us: f64,
    render_us: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// Rung 3: `Request::parse` → `dispatch` → `Json::render`, in process.
fn protocol_rung(engine: &Engine, trace: &Trace, out: &mut Outcome) -> ProtocolRung {
    let mut rung = ProtocolRung::default();
    for &index in &trace.order {
        let exchange = trace.exchange(index);
        let text = std::str::from_utf8(&exchange.line).expect("request lines are UTF-8");
        let started = Instant::now();
        let request = Request::parse(text.trim_end());
        let parsed = Instant::now();
        let response = match request {
            Ok(request) => dispatch(engine, request).response,
            Err(error) => error_response(&error),
        };
        let dispatched = Instant::now();
        let rendered = response.render();
        let done = Instant::now();
        rung.parse_us += (parsed - started).as_secs_f64() * 1e6;
        rung.dispatch_us += (dispatched - parsed).as_secs_f64() * 1e6;
        rung.render_us += (done - dispatched).as_secs_f64() * 1e6;
        rung.request_bytes += exchange.line.len() as f64;
        rung.response_bytes += rendered.len() as f64 + 1.0;
        out.count(check(&rendered, &exchange.expect));
    }
    rung.total_us = rung.parse_us + rung.dispatch_us + rung.render_us;
    rung
}

/// Rung 4: the whole trace through `serve_lines` over in-memory buffers.
/// Returns the total time in µs.
fn stdio_rung(engine: &Engine, trace: &Trace, out: &mut Outcome) -> f64 {
    let input: Vec<u8> = trace
        .order
        .iter()
        .flat_map(|&index| trace.exchange(index).line.iter().copied())
        .collect();
    let mut output = Vec::with_capacity(input.len());
    let started = Instant::now();
    let served = serve_lines(engine, &input[..], &mut output);
    let total_us = micros(started);
    out.count(served.is_ok());
    let responses: Vec<&[u8]> = output.split(|&b| b == b'\n').collect();
    for (position, &index) in trace.order.iter().enumerate() {
        let response = responses
            .get(position)
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .unwrap_or_default();
        out.count(check(&response, &trace.exchange(index).expect));
    }
    total_us
}

/// Rungs 5 and 6: the trace over loopback TCP to an in-process server, two
/// connections, closed loop.  Returns every round trip in µs.
fn tcp_rung(
    engine: &Engine,
    trace: &Trace,
    evented: bool,
    out: &mut Outcome,
) -> io::Result<Vec<f64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            if evented {
                serve_listener_evented(engine, listener, None, None)
            } else {
                serve_listener(engine, listener)
            }
        });
        let answers = wire_replay(&addr, trace);
        // Always stop the server, even after a client failure, so the scope
        // can end.
        let stopped = Client::connect(&addr)
            .and_then(|mut client| client.round_trip(b"{\"cmd\":\"shutdown\"}\n"));
        let served = server.join().expect("server thread panicked");
        out.count(stopped.is_ok() && served.is_ok());
        Ok(tally(trace, answers?, out))
    })
}

type Answers = Vec<Vec<Answer>>;

/// Replay the trace over `CONNECTIONS` connections to `addr`, one request
/// outstanding at a time, so a rung's round trip is the transport's own
/// cost rather than contention between generator threads.
fn wire_replay(addr: &str, trace: &Trace) -> io::Result<Answers> {
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect_retrying(addr, Duration::from_secs(10)))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(replay_connections(&mut clients, &trace.scripts, false))
}

/// Check every answer; return the round trips in µs.
fn tally(trace: &Trace, answers: Answers, out: &mut Outcome) -> Vec<f64> {
    let mut round_trips = Vec::new();
    for (s, e, answer) in answers.into_iter().flatten() {
        match answer {
            Some((response, elapsed)) => {
                round_trips.push(elapsed.as_secs_f64() * 1e6);
                out.count(check(&response, &trace.exchange((s, e)).expect));
            }
            None => out.count(false),
        }
    }
    round_trips
}

/// The same trace against the `oasis-serve` binary the untraced run uses:
/// p50 round trip in µs.
fn binary_p50(
    workload: Workload,
    context: &RunContext,
    data: &PoolData,
    trace: &Trace,
    out: &mut Outcome,
) -> io::Result<f64> {
    let store = context.work.join("binary");
    std::fs::create_dir_all(&store)?;
    let server = Server::spawn(&context.server, workload.evented(), &store)?;
    let mut client = server.connect()?;
    for ok in setup(&mut client, data, &trace.scripts) {
        out.count(ok);
    }
    drop(client);
    let answers = wire_replay(server.addr(), trace)?;
    let round_trips = tally(trace, answers, out);
    Ok(p50(&round_trips))
}

/// `Engine::run_parallel` over ground-truth twins of the trace's sessions at
/// one and two workers, alternating, each on a fresh engine; plus
/// `Session::run_until_budget` per step on one thread.
fn engine_rung(
    workload: Workload,
    data: &PoolData,
    trace: &Trace,
    out: &mut Outcome,
) -> (Summary, Summary, f64) {
    let specs: Vec<_> = trace.scripts.iter().map(|s| s.spec.clone()).collect();
    let budget = engine_budget(workload);
    let jobs = budget_jobs(&specs, budget);
    let mut rates = [Vec::new(), Vec::new()];
    let mut reference: Option<Vec<String>> = None;
    for _ in 0..REPEATS {
        for (slot, workers) in [(0, 1), (1, 2)] {
            let engine = simulate_engine((*data.pool).clone(), &specs, oracles(data, specs.len()));
            let started = Instant::now();
            let estimates = engine.run_parallel(&jobs, workers);
            let seconds = started.elapsed().as_secs_f64();
            let Ok(estimates) = estimates else {
                out.count(false);
                continue;
            };
            let steps: usize = estimates.iter().map(|e| e.iterations).sum();
            rates[slot].push(steps as f64 / seconds);
            let rendered: Vec<String> = estimates.iter().map(|e| e.to_json().render()).collect();
            out.count(reference.get_or_insert_with(|| rendered.clone()) == &rendered);
        }
    }
    let (mut step_us, mut steps) = (0.0, 0);
    for spec in &specs {
        let mut session = spec.session(
            &data.pool,
            LabelSource::GroundTruth(oasis::GroundTruthOracle::new(data.truth().to_vec())),
        );
        let started = Instant::now();
        let estimate = session.run_until_budget(budget, usize::MAX);
        step_us += micros(started);
        steps += estimate.map_or(0, |e| e.iterations);
    }
    (
        Summary::of(&rates[0]),
        Summary::of(&rates[1]),
        step_us / steps.max(1) as f64,
    )
}

/// Store, WAL and checkpoint layers, timed by direct calls: each session's
/// base checkpoint and the trace's WAL records are written to a fresh store,
/// then read back and replayed as a restart would.
struct StorageProbe {
    wal_render_us: f64,
    append_wal_us: f64,
    wal_bytes: f64,
    checkpoint_render_ms: Vec<f64>,
    put_checkpoint_ms: Vec<f64>,
    read_wal_ms: Vec<f64>,
    wal_parse_ms: Vec<f64>,
    checkpoint_parse_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    replay_ms: Vec<f64>,
}

impl StorageProbe {
    fn metrics(&self, labels: usize) -> Vec<Metric> {
        let per_label = |v: f64| v / labels as f64;
        let per_session = |name: &str, values: &[f64]| {
            Metric::noted(
                name,
                "ms",
                mean(values),
                format!("mean over {} sessions", values.len()),
            )
        };
        vec![
            Metric::plain("wal.render_us", "us", per_label(self.wal_render_us)),
            Metric::plain("store.append_wal_us", "us", per_label(self.append_wal_us)),
            Metric::plain(
                "store.wal_bytes_per_label",
                "bytes",
                per_label(self.wal_bytes),
            ),
            per_session("checkpoint.render_ms", &self.checkpoint_render_ms),
            per_session("store.put_checkpoint_ms", &self.put_checkpoint_ms),
            per_session("store.read_wal_ms", &self.read_wal_ms),
            per_session("wal.parse_ms", &self.wal_parse_ms),
            per_session("checkpoint.parse_ms", &self.checkpoint_parse_ms),
            per_session("checkpoint.restore_ms", &self.restore_ms),
            per_session("wal.replay_ms", &self.replay_ms),
        ]
    }
}

fn storage_probe(
    data: &PoolData,
    trace: &Trace,
    finished: &[Session],
    dir: &Path,
    out: &mut Outcome,
) -> io::Result<StorageProbe> {
    let store = FsCheckpointStore::open(dir)
        .map_err(|e| io::Error::other(format!("cannot open store {}: {e}", dir.display())))?;
    let mut probe = StorageProbe {
        wal_render_us: 0.0,
        append_wal_us: 0.0,
        wal_bytes: 0.0,
        checkpoint_render_ms: Vec::new(),
        put_checkpoint_ms: Vec::new(),
        read_wal_ms: Vec::new(),
        wal_parse_ms: Vec::new(),
        checkpoint_parse_ms: Vec::new(),
        restore_ms: Vec::new(),
        replay_ms: Vec::new(),
    };
    for (script, finished) in trace.scripts.iter().zip(finished) {
        let id = &script.spec.id;
        let fresh = script
            .spec
            .session(&data.pool, LabelSource::external(data.pool.len()));
        let started = Instant::now();
        let document = render_envelope(&fresh.checkpoint(), 0);
        probe.checkpoint_render_ms.push(millis(started));
        let started = Instant::now();
        out.count(store.put_checkpoint(id, &document).is_ok());
        probe.put_checkpoint_ms.push(millis(started));

        let entries = script.exchanges.iter().filter_map(|exchange| {
            let text = String::from_utf8_lossy(&exchange.line);
            match Request::parse(text.trim_end()) {
                Ok(Request::Propose { count, .. }) => Some(WalEntry::Propose {
                    count,
                    now_us: None,
                }),
                Ok(Request::Label { labels, .. }) => Some(WalEntry::Label { labels }),
                _ => None,
            }
        });
        for (seq, entry) in (0u64..).zip(entries) {
            let record = WalRecord { seq, entry };
            let started = Instant::now();
            let line = record.render();
            probe.wal_render_us += micros(started);
            probe.wal_bytes += line.len() as f64 + 1.0;
            let started = Instant::now();
            out.count(store.append_wal(id, &line).is_ok());
            probe.append_wal_us += micros(started);
        }

        // Read everything back as a restart does.
        let started = Instant::now();
        let lines = store.read_wal(id);
        probe.read_wal_ms.push(millis(started));
        let started = Instant::now();
        let parsed = lines.and_then(|lines| parse_lines(&lines));
        probe.wal_parse_ms.push(millis(started));
        let document = store.load_checkpoint(id).ok().flatten().unwrap_or_default();
        let started = Instant::now();
        let envelope = parse_envelope(&document);
        probe.checkpoint_parse_ms.push(millis(started));
        let (Ok(parsed), Ok((checkpoint, watermark))) = (parsed, envelope) else {
            out.count(false);
            continue;
        };
        let started = Instant::now();
        let restored = Session::restore(checkpoint, Arc::clone(&data.pool));
        probe.restore_ms.push(millis(started));
        let Ok(mut restored) = restored else {
            out.count(false);
            continue;
        };
        let started = Instant::now();
        let replayed = replay_wal(&mut restored, &parsed.records, watermark);
        probe.replay_ms.push(millis(started));
        out.count(
            replayed.is_ok()
                && restored.estimate().to_json().render() == finished.estimate().to_json().render(),
        );
    }
    Ok(probe)
}

/// The metrics layer: the cost of one `timer` + `record`, and the protocol
/// rung's dispatch time with the default registry against
/// `MetricsRegistry::disabled()`, in alternating fresh engines.  These
/// engines have no store, so disk time does not drown the difference.
fn metrics_layer(data: &PoolData, trace: &Trace, out: &mut Outcome) -> io::Result<(f64, Summary)> {
    let registry = MetricsRegistry::new();
    const CALLS: usize = 200_000;
    let started = Instant::now();
    for _ in 0..CALLS {
        let timer = registry.timer();
        registry.record(black_box("propose.oasis"), timer);
    }
    let record_us = micros(started) / CALLS as f64;

    let mut overheads = Vec::new();
    for _ in 0..REPEATS {
        let mut seconds = [0.0; 2];
        for (slot, metrics) in [
            (0, MetricsRegistry::new()),
            (1, MetricsRegistry::disabled()),
        ] {
            let (engine, _) = ladder_engine(data, trace, None, Some(metrics), out)?;
            let started = Instant::now();
            for &index in &trace.order {
                black_box(dispatch_line(&engine, &trace.exchange(index).line));
            }
            seconds[slot] = started.elapsed().as_secs_f64();
        }
        overheads.push((seconds[0] / seconds[1] - 1.0) * 100.0);
    }
    Ok((record_us, Summary::of(&overheads)))
}
