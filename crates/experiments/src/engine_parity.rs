//! Engine-vs-library parity: the acceptance experiment for `oasis-engine`.
//!
//! The engine's whole value proposition is that moving a sampler behind a
//! session/worker-pool/checkpoint boundary changes *nothing* statistically:
//! N concurrent engine sessions with fixed seeds must produce estimates
//! bit-identical to N sequential library runs with the same seeds, and an
//! interrupt→checkpoint→restore→resume session must land on the same bits as
//! one that never stopped.  Since the `InteractiveSampler` redesign the
//! engine serves *every* method of the paper's comparison, so this driver
//! checks both properties for the full [`Method::parity_lineup`] — passive,
//! importance, stratified and OASIS — on a cora-profile pool, and reports
//! engine throughput (steps/second across the worker pool) as a bonus.
//! Since the sharding subsystem each row also verifies K=1 parity: a
//! single-shard session must reproduce the flat library run bit-for-bit.

use crate::methods::{AnySampler, Method};
use crate::pools::{direct_pool, ExperimentPool};
use crate::report::{fmt_float, TextTable};
use er_core::datasets::DatasetProfile;
use oasis::oracle::GroundTruthOracle;
use oasis::samplers::Sampler;
use oasis_engine::{Engine, LabelSource, SessionCheckpoint, SessionJob, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration of the parity experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineParityConfig {
    /// Pool scale relative to the full cora pool.
    pub scale: f64,
    /// Number of concurrent sessions (and sequential reference runs) *per
    /// method*.
    pub sessions: usize,
    /// Sampling steps per session.
    pub steps: usize,
    /// Worker threads driving the sessions.
    pub workers: usize,
    /// Base RNG seed; session `i` uses `seed + i` (shared across methods —
    /// the method, not the seed, differentiates the runs).
    pub seed: u64,
}

impl Default for EngineParityConfig {
    fn default() -> Self {
        EngineParityConfig {
            scale: 0.1,
            sessions: 8,
            steps: 2000,
            workers: 4,
            seed: 2017,
        }
    }
}

/// Per-session parity outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityRow {
    /// The method label (paper legend style).
    pub method: String,
    /// The session's seed.
    pub seed: u64,
    /// F-measure from the sequential library run.
    pub library_f: f64,
    /// F-measure from the concurrent engine session.
    pub engine_f: f64,
    /// Whether library and engine estimates agree bit-for-bit (F, P and R).
    pub bit_identical: bool,
    /// Whether an interrupt→checkpoint→restore→resume run of the same
    /// session agrees bit-for-bit with the uninterrupted one.
    pub checkpoint_identical: bool,
    /// Whether a single-shard (`shards: 1`) session agrees bit-for-bit with
    /// the flat library run — the K=1 parity the sharding subsystem pins.
    pub sharded_identical: bool,
}

/// The full parity report.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineParity {
    /// One row per (method, session).
    pub rows: Vec<ParityRow>,
    /// Pool size used.
    pub pool_size: usize,
    /// Steps per session.
    pub steps: usize,
    /// Worker threads used for the concurrent pass.
    pub workers: usize,
    /// Wall-clock seconds for the concurrent engine pass (all methods).
    pub parallel_seconds: f64,
    /// Aggregate engine throughput: total steps / parallel wall-clock.
    pub steps_per_second: f64,
}

impl EngineParity {
    /// Whether every session passed both parity checks.
    pub fn all_identical(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.bit_identical && r.checkpoint_identical && r.sharded_identical)
    }

    /// Render as a plain-text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Method",
            "Seed",
            "Library F",
            "Engine F",
            "Bit-identical",
            "Checkpoint-identical",
            "Sharded-identical",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.method.clone(),
                row.seed.to_string(),
                fmt_float(row.library_f, 12),
                fmt_float(row.engine_f, 12),
                row.bit_identical.to_string(),
                row.checkpoint_identical.to_string(),
                row.sharded_identical.to_string(),
            ]);
        }
        format!(
            "Engine parity on a cora-profile pool ({} pairs, {} method x session rows x {} steps, {} workers)\n{}\nEngine throughput: {:.0} steps/s ({} total steps in {:.3}s)\nAll identical: {}",
            self.pool_size,
            self.rows.len(),
            self.steps,
            self.workers,
            table.render(),
            self.steps_per_second,
            self.rows.len() * self.steps,
            self.parallel_seconds,
            self.all_identical()
        )
    }
}

/// Sequential library reference: the same `AnySampler::build` construction
/// the engine session uses, driven by the classic `Sampler::run` loop.
fn library_reference(
    pool: &ExperimentPool,
    method: &Method,
    seed: u64,
    steps: usize,
) -> oasis::Estimate {
    let mut oracle = GroundTruthOracle::new(pool.truth.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler: AnySampler = method.build(&pool.pool, 0.5, 0.0).expect("valid config");
    sampler
        .run(&pool.pool, &mut oracle, &mut rng, steps)
        .expect("library run cannot fail")
}

/// The engine session of one configuration, labelled by the pool's truth.
fn session_spec(pool: &ExperimentPool, method: &Method, id: &str, seed: u64) -> SessionSpec {
    let oracle = GroundTruthOracle::new(pool.truth.clone());
    SessionSpec {
        method: method.sampler_method(),
        config: method.engine_config(0.5, 0.0),
        ..SessionSpec::new(id, "cora", seed, LabelSource::GroundTruth(oracle))
    }
}

/// Interrupt the same configuration at `steps / 3`, round-trip the checkpoint
/// through its JSON text, and finish on the restored session.
fn checkpointed_run(
    engine: &Engine,
    pool: &ExperimentPool,
    method: &Method,
    seed: u64,
    steps: usize,
) -> oasis::Estimate {
    let session_id = format!("ckpt-{}-{seed}", method.sampler_method());
    engine
        .create_session(session_spec(pool, method, &session_id, seed))
        .expect("session");
    let handle = engine.session(&session_id).expect("exists");
    let cut = steps / 3;
    handle.lock().step(cut).expect("first leg");
    let text = handle.lock().checkpoint().to_json_string();
    engine.delete_session(&session_id).expect("delete");
    let checkpoint = SessionCheckpoint::from_json_string(&text).expect("parse checkpoint");
    engine
        .restore_session(&session_id, checkpoint)
        .expect("restore");
    let handle = engine.session(&session_id).expect("restored");
    let estimate = handle.lock().step(steps - cut).expect("second leg");
    engine.delete_session(&session_id).expect("cleanup");
    estimate
}

/// Run the same configuration as a single-shard (`shards: 1`) session: one
/// shard spans the whole pool with weight 1.0 and shard 0 reuses the session
/// seed, so the sharded topology must reproduce the flat run bit-for-bit.
fn sharded_run(
    engine: &Engine,
    pool: &ExperimentPool,
    method: &Method,
    seed: u64,
    steps: usize,
) -> oasis::Estimate {
    let session_id = format!("shard-{}-{seed}", method.sampler_method());
    let spec = session_spec(pool, method, &session_id, seed);
    engine
        .create_session(SessionSpec {
            shards: Some(1),
            ..spec
        })
        .expect("sharded session");
    let handle = engine.session(&session_id).expect("exists");
    let estimate = handle.lock().step(steps).expect("sharded run");
    engine.delete_session(&session_id).expect("cleanup");
    estimate
}

/// Run the parity experiment across the full method line-up.
pub fn run(config: &EngineParityConfig) -> EngineParity {
    let pool = direct_pool(&DatasetProfile::cora(), config.scale, true, config.seed);
    let methods = Method::parity_lineup();
    let seeds: Vec<u64> = (0..config.sessions as u64)
        .map(|i| config.seed + i)
        .collect();

    // Sequential library references, one per (method, seed).
    let mut references: Vec<(Method, u64, oasis::Estimate)> = Vec::new();
    for &method in &methods {
        for &seed in &seeds {
            references.push((
                method,
                seed,
                library_reference(&pool, &method, seed, config.steps),
            ));
        }
    }

    // Concurrent engine sessions over one shared pool: all methods mixed in
    // one job list, so the worker pool interleaves methods freely.
    let engine = Engine::new();
    engine
        .load_pool("cora", pool.pool.clone())
        .expect("load pool");
    for &(method, seed, _) in &references {
        let id = format!("{}-{seed}", method.sampler_method());
        engine
            .create_session(session_spec(&pool, &method, &id, seed))
            .expect("session");
    }
    let jobs: Vec<SessionJob> = references
        .iter()
        .map(|&(method, seed, _)| SessionJob::Steps {
            session: format!("{}-{seed}", method.sampler_method()),
            steps: config.steps,
        })
        .collect();
    let start = Instant::now();
    let estimates = engine
        .run_parallel(&jobs, config.workers)
        .expect("parallel run");
    let parallel_seconds = start.elapsed().as_secs_f64();

    let rows: Vec<ParityRow> = references
        .iter()
        .zip(estimates.iter())
        .map(|((method, seed, reference), estimate)| {
            let bit_identical = reference.f_measure.to_bits() == estimate.f_measure.to_bits()
                && reference.precision.to_bits() == estimate.precision.to_bits()
                && reference.recall.to_bits() == estimate.recall.to_bits();
            let resumed = checkpointed_run(&engine, &pool, method, *seed, config.steps);
            let checkpoint_identical = resumed.f_measure.to_bits() == reference.f_measure.to_bits()
                && resumed.precision.to_bits() == reference.precision.to_bits()
                && resumed.recall.to_bits() == reference.recall.to_bits();
            let sharded = sharded_run(&engine, &pool, method, *seed, config.steps);
            let sharded_identical = sharded.f_measure.to_bits() == reference.f_measure.to_bits()
                && sharded.precision.to_bits() == reference.precision.to_bits()
                && sharded.recall.to_bits() == reference.recall.to_bits();
            ParityRow {
                method: method.label(),
                seed: *seed,
                library_f: reference.f_measure,
                engine_f: estimate.f_measure,
                bit_identical,
                checkpoint_identical,
                sharded_identical,
            }
        })
        .collect();

    let total_steps = (rows.len() * config.steps) as f64;
    EngineParity {
        rows,
        pool_size: pool.len(),
        steps: config.steps,
        workers: config.workers,
        parallel_seconds,
        steps_per_second: total_steps / parallel_seconds.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EngineParityConfig {
        EngineParityConfig {
            scale: 0.02,
            sessions: 2,
            steps: 150,
            workers: 2,
            seed: 77,
        }
    }

    #[test]
    fn engine_matches_library_bit_for_bit_for_every_method() {
        let parity = run(&tiny_config());
        // 4 methods x 2 sessions.
        assert_eq!(parity.rows.len(), 8);
        let methods: std::collections::HashSet<&str> =
            parity.rows.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(methods.len(), 4, "all four methods represented");
        assert!(
            parity.all_identical(),
            "parity failed:\n{}",
            parity.render()
        );
    }

    #[test]
    fn render_reports_throughput_and_rows() {
        let parity = run(&tiny_config());
        let text = parity.render();
        assert!(text.contains("Engine parity"));
        assert!(text.contains("steps/s"));
        assert!(text.contains("All identical: true"));
        assert!(text.contains("Passive") && text.contains("IS") && text.contains("Stratified"));
        assert!(parity.steps_per_second > 0.0);
    }
}
