//! The untraced end-to-end runs.  Each run repeats a *cycle* of fixed work
//! until the run's seconds are spent (at least [`MIN_CYCLES`] times), and
//! reports every metric as the median over cycles, or, for request
//! latencies, as a percentile over every request of the run.  A faster
//! program therefore runs more cycles but does the same work per sample.

use crate::inputs::{
    abs_error, check, is_ok, schedule, script, PoolData, Script, SessionSpec, Workload, POOL_ID,
};
use crate::report::{Metric, Outcome};
use crate::stats::{percentile, Summary};
use crate::wire::{Client, Server};
use oasis::{GroundTruthOracle, ScoredPool};
use oasis_engine::store::{parse_envelope, render_envelope};
use oasis_engine::{Engine, LabelSource, SessionJob};
use serde::json::ToJson;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest cycles per run, whatever the time budget.
pub const MIN_CYCLES: usize = 3;

/// Connections the wire generator opens for the timed phase.
pub const CONNECTIONS: usize = 2;

/// Where a run finds the server binary and keeps its stores.
pub struct RunContext {
    /// The workload seed.
    pub seed: u64,
    /// Time budget of the measured part of the run.
    pub seconds: f64,
    /// The `oasis-serve` binary.
    pub server: PathBuf,
    /// A scratch directory owned by this run.
    pub work: PathBuf,
}

/// Propose/label rounds per session per cycle.
fn rounds(workload: Workload) -> usize {
    match workload {
        Workload::Annotate => 400,
        Workload::BatchLabel => 21,
        Workload::Simulate => 0,
    }
}

/// Per-cycle samples of a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    labels_per_s: Vec<f64>,
    /// Request latencies, one vector per cycle.
    request_us: Vec<Vec<f64>>,
    recovery_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    abs_errors: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn outcome(self, cycles: usize) -> Outcome {
        let summary = |values: &[f64]| Summary::of(values);
        let windows = windows(&self.request_us, MIN_WINDOW);
        let at = |q: f64| -> Vec<f64> {
            windows
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| percentile(w, q))
                .collect()
        };
        let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                Metric::summarised("setup_s", "s", summary(&self.setup_s)),
                Metric::summarised("labels_per_s", "labels/s", summary(&self.labels_per_s)),
                Metric::summarised("request_p50_us", "us", summary(&at(0.50))),
                Metric::summarised("request_p90_us", "us", summary(&at(0.90))),
                Metric::summarised("recovery_s", "s", summary(&self.recovery_s)),
                Metric::summarised("peak_rss_mb", "MiB", summary(&self.peak_rss_mb)),
            ],
            notes: vec![
                // Not gated: the p99 of sub-millisecond requests moves with
                // whatever else runs on a small shared machine.
                format!(
                    "request_p99_us {:.3} us (median over windows, not gated)",
                    summary(&at(0.99)).median
                ),
                format!(
                    "request latencies: {} requests over {cycles} cycles in {} windows of at \
                     least {MIN_WINDOW}; at least {} lie beyond each window's p99",
                    windows.iter().map(Vec::len).sum::<usize>(),
                    windows.len(),
                    smallest / 100
                ),
                format!(
                    "failed_ratio {:.6} fraction ({} of {} requests, jobs and output checks)",
                    self.failed as f64 / self.attempted.max(1) as f64,
                    self.failed,
                    self.attempted
                ),
                format!(
                    "f_abs_err {:.6} abs. F (mean |F_hat - F| over {} sessions, alpha 0.5)",
                    self.abs_errors.iter().sum::<f64>() / self.abs_errors.len().max(1) as f64,
                    self.abs_errors.len()
                ),
            ],
        }
    }
}

/// Fewest requests a latency window holds, so that at least ten lie beyond
/// its p99.
const MIN_WINDOW: usize = 1_000;

/// Group per-cycle latencies into windows of consecutive cycles holding at
/// least `min` samples each; a short remainder joins the last window.  The
/// run reports the median of the windows' percentiles, so one disturbed
/// cycle moves the tail of one window, not the run's.
fn windows(cycles: &[Vec<f64>], min: usize) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open = Vec::new();
    for cycle in cycles {
        open.extend_from_slice(cycle);
        if open.len() >= min {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(open),
        None => windows.push(open),
    }
    windows
}

/// Run cycles of `cycle` until the budget is spent.
fn repeat(
    context: &RunContext,
    mut cycle: impl FnMut(u64, &mut Samples) -> io::Result<()>,
) -> io::Result<Outcome> {
    let mut samples = Samples::default();
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || started.elapsed().as_secs_f64() < context.seconds {
        cycle(cycles as u64, &mut samples)?;
        cycles += 1;
    }
    Ok(samples.outcome(cycles))
}

/// An `annotate` or `batch_label` run against the `oasis-serve` binary.
///
/// # Errors
/// Failures to spawn the server or create its store directory; request
/// failures count in `failed` instead.
pub fn run_wire(workload: Workload, context: &RunContext) -> io::Result<Outcome> {
    let data = PoolData::generate(workload);
    repeat(context, |cycle, samples| {
        wire_cycle(workload, context, &data, cycle, samples)
    })
}

fn wire_cycle(
    workload: Workload,
    context: &RunContext,
    data: &PoolData,
    cycle: u64,
    samples: &mut Samples,
) -> io::Result<()> {
    let scripts: Vec<Script> = workload
        .sessions(context.seed, cycle)
        .iter()
        .map(|spec| script(data, spec, rounds(workload), workload.batch()))
        .collect();
    let store = context.work.join(format!("store-{cycle}"));
    std::fs::create_dir_all(&store)?;

    // Set-up: spawn, load the pool, create every session.
    let started = Instant::now();
    let server = Server::spawn(&context.server, workload.evented(), &store)?;
    let mut client = server.connect()?;
    let answers = setup(&mut client, data, &scripts);
    samples.setup_s.push(started.elapsed().as_secs_f64());
    for &ok in &answers {
        samples.count(ok);
    }
    if answers.contains(&false) {
        return Ok(());
    }

    // Timed phase: each connection replays its sessions' scripts closed
    // loop, one outstanding request per connection.
    let mut clients = vec![client];
    for _ in 1..CONNECTIONS {
        clients.push(server.connect()?);
    }
    let started = Instant::now();
    let answers = replay_connections(&mut clients, &scripts, workload.concurrent());
    let timed = started.elapsed().as_secs_f64();
    samples.peak_rss_mb.extend(server.peak_rss_mb());
    drop(clients);
    drop(server); // SIGKILL at the end of the timed phase.

    let mut labels = 0;
    let mut latencies = Vec::new();
    let mut estimates = vec![String::new(); scripts.len()];
    for (s, e, answer) in answers.into_iter().flatten() {
        let exchange = &scripts[s].exchanges[e];
        let ok = match &answer {
            Some((response, elapsed)) => {
                latencies.push(elapsed.as_secs_f64() * 1e6);
                check(response, &exchange.expect)
            }
            None => false,
        };
        samples.count(ok);
        if ok {
            labels += exchange.labels;
        }
        if e + 1 == scripts[s].exchanges.len() {
            estimates[s] = answer.map(|(response, _)| response).unwrap_or_default();
        }
    }
    samples.request_us.push(latencies);
    samples.labels_per_s.push(labels as f64 / timed);
    samples.abs_errors.extend(
        scripts
            .iter()
            .map(|s| abs_error(s.final_f, data.experiment.true_f_measure)),
    );

    // Recovery: restart on the same store, reload the pool, and read every
    // estimate back (checkpoint load + WAL replay); each must be
    // byte-identical to the one answered before the kill.  Reads change
    // nothing on disk, so a second kill and restart repeats the same work.
    for _ in 0..RECOVERIES {
        let started = Instant::now();
        let server = Server::spawn(&context.server, workload.evented(), &store)?;
        let mut client = server.connect()?;
        let loaded = client
            .round_trip(&data.load_line)
            .is_ok_and(|(response, _)| is_ok(&response));
        samples.count(loaded);
        for (script, before) in scripts.iter().zip(&estimates) {
            let after = client.round_trip(&script.spec.estimate_line());
            samples.count(matches!(after, Ok((ref after, _)) if after == before));
        }
        samples.recovery_s.push(started.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(&store)
}

/// Restarts measured per wire cycle.
const RECOVERIES: usize = 2;

/// Load the pool and create every session over one connection; one entry
/// per request, `true` where the answer was `ok:true`.
pub(crate) fn setup(client: &mut Client, data: &PoolData, scripts: &[Script]) -> Vec<bool> {
    std::iter::once(data.load_line.clone())
        .chain(scripts.iter().map(|script| script.spec.create_line()))
        .map(|line| {
            client
                .round_trip(&line)
                .is_ok_and(|(response, _)| is_ok(&response))
        })
        .collect()
}

/// One request of a replay: script index, exchange index, and the response
/// with its round trip, or `None` when it went unanswered.
pub(crate) type Answer = (usize, usize, Option<(String, Duration)>);

/// Replay every connection's share of the scripts: on a thread per
/// connection when `concurrent`, else from this thread one connection after
/// the other, so that one request is outstanding at a time.
pub(crate) fn replay_connections(
    clients: &mut [Client],
    scripts: &[Script],
    concurrent: bool,
) -> Vec<Vec<Answer>> {
    let connections = clients.len();
    let replays = clients.iter_mut().enumerate().map(|(connection, client)| {
        let order = schedule(scripts, connection, connections);
        move || replay(client, scripts, &order)
    });
    if !concurrent {
        return replays.map(|mut replay| replay()).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = replays.map(|replay| scope.spawn(replay)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Send `order`'s requests one at a time.  After a transport error the rest
/// of the connection's requests count as unanswered.
fn replay(client: &mut Client, scripts: &[Script], order: &[(usize, usize)]) -> Vec<Answer> {
    let mut broken = false;
    order
        .iter()
        .map(|&(s, e)| {
            let answer = if broken {
                None
            } else {
                client.round_trip(&scripts[s].exchanges[e].line).ok()
            };
            broken |= answer.is_none();
            (s, e, answer)
        })
        .collect()
}

/// Label budget each `simulate` session is driven to per cycle.
pub const SIMULATE_BUDGET: usize = 10_000;
/// Budget step between two curve points (one `run_parallel` call each).
pub const SIMULATE_STEP: usize = 50;
/// Workers of the timed `run_parallel` calls.  One: a phase on two workers
/// needs both of a 2-vCPU machine's CPUs and reads whatever else runs there;
/// the traced run times one and two workers side by side.
pub const SIMULATE_WORKERS: usize = 1;
/// Iteration cap per job, far above what the budgets need.
const MAX_STEPS: usize = 10_000_000;

/// Build an engine over `pool` with a session per spec, labelled by the
/// matching source.
pub fn simulate_engine(
    pool: ScoredPool,
    specs: &[SessionSpec],
    sources: Vec<LabelSource>,
) -> Engine {
    let engine = Engine::new();
    engine.load_pool(POOL_ID, pool).expect("fresh engine");
    for (spec, source) in specs.iter().zip(sources) {
        engine
            .create_session_sharded(
                &spec.id,
                POOL_ID,
                spec.method,
                oasis::OasisConfig::default(),
                spec.shards,
                spec.seed,
                source,
            )
            .expect("benchmark session specs are valid");
    }
    engine
}

/// Ground-truth label sources, one per session.
pub fn oracles(data: &PoolData, count: usize) -> Vec<LabelSource> {
    (0..count)
        .map(|_| LabelSource::GroundTruth(GroundTruthOracle::new(data.truth().to_vec())))
        .collect()
}

/// Budget jobs driving every session to `budget` labels.
pub fn budget_jobs(specs: &[SessionSpec], budget: usize) -> Vec<SessionJob> {
    specs
        .iter()
        .map(|spec| SessionJob::Budget {
            session: spec.id.clone(),
            budget,
            max_steps: MAX_STEPS,
        })
        .collect()
}

/// The `simulate` run: an in-process engine, no transport, no store.
///
/// # Errors
/// Never in practice; job failures count in `failed`.
pub fn run_simulate(context: &RunContext) -> io::Result<Outcome> {
    let data = PoolData::generate(Workload::Simulate);
    repeat(context, |cycle, samples| {
        simulate_cycle(context, &data, cycle, samples);
        Ok(())
    })
}

fn simulate_cycle(context: &RunContext, data: &PoolData, cycle: u64, samples: &mut Samples) {
    let specs = Workload::Simulate.sessions(context.seed, cycle);

    // Set-up: the generator hands over the pool and oracles; building the
    // engine, loading the pool and creating the sessions is timed.
    let (pool, sources) = ((*data.pool).clone(), oracles(data, specs.len()));
    let started = Instant::now();
    let engine = simulate_engine(pool, &specs, sources);
    samples.setup_s.push(started.elapsed().as_secs_f64());

    // Timed phase: trace every session's convergence curve, one
    // `run_parallel` call per curve point.
    let mut estimates = Vec::new();
    let mut latencies = Vec::new();
    let started = Instant::now();
    for budget in (SIMULATE_STEP..=SIMULATE_BUDGET).step_by(SIMULATE_STEP) {
        let jobs = budget_jobs(&specs, budget);
        let call = Instant::now();
        let outcome = engine.run_parallel(&jobs, SIMULATE_WORKERS);
        latencies.push(call.elapsed().as_secs_f64() * 1e6);
        for _ in &jobs {
            samples.count(outcome.is_ok());
        }
        estimates = outcome.unwrap_or_default();
    }
    let timed = started.elapsed().as_secs_f64();
    let steps: usize = estimates.iter().map(|e| e.iterations).sum();
    samples.labels_per_s.push(steps as f64 / timed);
    samples.request_us.push(latencies);
    samples.abs_errors.extend(
        estimates
            .iter()
            .map(|e| abs_error(e.f_measure, data.experiment.true_f_measure)),
    );
    let rendered: Vec<String> = estimates.iter().map(|e| e.to_json().render()).collect();

    // Recovery: resume the cycle's first OASIS session from its checkpoint
    // into a fresh engine; the restored estimate must match bit for bit.
    // One session keeps the cycle short, so a run holds many cycles.
    let first = &specs[0];
    let document = {
        let session = engine.session(&first.id).expect("session exists");
        let checkpoint = session.lock().checkpoint();
        render_envelope(&checkpoint, 0)
    };
    drop(engine);
    let pool = (*data.pool).clone();
    let started = Instant::now();
    let restored = Engine::new();
    restored.load_pool(POOL_ID, pool).expect("fresh engine");
    let resumed = parse_envelope(&document)
        .and_then(|(checkpoint, _)| restored.restore_session(&first.id, checkpoint));
    samples.recovery_s.push(started.elapsed().as_secs_f64());
    samples.count(
        resumed.is_ok()
            && restored
                .session(&first.id)
                .is_ok_and(|s| s.lock().estimate().to_json().render() == rendered[0]),
    );
    drop(restored);

    // The estimates must equal a two-worker run to the final budget:
    // concurrency never changes results.
    let parallel = simulate_engine((*data.pool).clone(), &specs, oracles(data, specs.len()));
    match parallel.run_parallel(&budget_jobs(&specs, SIMULATE_BUDGET), 2) {
        Ok(reference) => {
            for (got, want) in rendered.iter().zip(&reference) {
                samples.count(*got == want.to_json().render());
            }
        }
        Err(_) => samples.count(false),
    }
    // The engine runs in this process, whose high-water mark only grows:
    // read it once, after the first full cycle.
    if cycle == 0 {
        samples
            .peak_rss_mb
            .extend(crate::wire::peak_rss_mb("/proc/self/status"));
    }
}

/// Lines of text in every `.rs` file under `dir` — context the report
/// prints beside the numbers, not a gated metric.
pub fn rust_line_count(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                rust_line_count(&path)
            } else if path.extension().is_some_and(|e| e == "rs") {
                std::fs::read_to_string(&path).map_or(0, |text| text.lines().count())
            } else {
                0
            }
        })
        .sum()
}
