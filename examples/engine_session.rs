//! End-to-end tour of the `oasis-engine` session layer: suspend/resume
//! labelling, a mid-run checkpoint to JSON, an exact restore, and a
//! concurrent multi-session fleet over one shared pool.
//!
//! Run with: `cargo run --release --example engine_session`

use er_core::datasets::{DatasetProfile, DirectPoolModel};
use oasis::oracle::GroundTruthOracle;
use oasis::samplers::{OasisConfig, SamplerMethod};
use oasis_engine::{Engine, LabelSource, SessionCheckpoint, SessionJob, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Synthesise an Abt-Buy-like pool and load it into the engine; every
    //    session shares the same Arc'd pool, so N sessions cost one pool.
    let profile = DatasetProfile::abt_buy();
    let mut rng = StdRng::seed_from_u64(42);
    let (pool, truth) = DirectPoolModel::new(profile.direct_pool_config(0.1)).generate(&mut rng);
    println!("Pool: {} record pairs\n", pool.len());

    let engine = Engine::new();
    engine.load_pool("abt-buy", pool).expect("load pool");
    let config = OasisConfig::default().with_strata_count(20);

    // 2. An *externally labelled* session: the engine proposes pairs and
    //    suspends; "annotators" (here: us, peeking at the hidden truth)
    //    label the tickets in batches and the session resumes.
    engine
        .create_session(SessionSpec {
            config: config.clone(),
            ..SessionSpec::new("human", "abt-buy", 7, {
                let pool = engine.pool("abt-buy").expect("loaded");
                LabelSource::external(pool.len())
            })
        })
        .expect("create session");
    let session = engine.session("human").expect("exists");
    for round in 0..40 {
        let tickets = session.lock().propose(5).expect("propose");
        let answers: Vec<(u64, bool)> = tickets
            .iter()
            .map(|t| (t.id, truth[t.proposal.item]))
            .collect();
        session.lock().apply_labels(&answers).expect("labels");
        if round % 10 == 9 {
            let guard = session.lock();
            let estimate = guard.estimate();
            println!(
                "human session, batch {:>2}: F ≈ {:.3} ({} distinct labels)",
                round + 1,
                estimate.f_measure,
                guard.labels_consumed()
            );
        }
    }

    // 3. Checkpoint the session to JSON, drop it, restore it, and keep going
    //    — the restored run continues exactly where the snapshot was taken.
    let checkpoint_text = session.lock().checkpoint().to_json_string();
    println!(
        "\nCheckpoint captured: {} bytes of JSON",
        checkpoint_text.len()
    );
    engine.delete_session("human").expect("delete");
    let checkpoint = SessionCheckpoint::from_json_string(&checkpoint_text).expect("parse");
    engine
        .restore_session("human", checkpoint)
        .expect("restore");
    println!(
        "Restored: estimate still F ≈ {:.3}\n",
        engine
            .session("human")
            .expect("restored")
            .lock()
            .estimate()
            .f_measure
    );

    // 4. A fleet of in-process simulation sessions driven concurrently by
    //    the scoped-thread worker pool.  Independent seeds → independent
    //    runs; concurrency changes wall-clock, never the estimates.  The
    //    fleet mixes sampling methods — sessions are method-agnostic, so a
    //    single engine can run the paper's whole comparison side by side.
    let seeds: Vec<u64> = (100..108).collect();
    let methods = SamplerMethod::ALL;
    for (i, &seed) in seeds.iter().enumerate() {
        engine
            .create_session(SessionSpec {
                method: methods[i % methods.len()],
                config: config.clone(),
                ..SessionSpec::new(
                    format!("sim-{seed}"),
                    "abt-buy",
                    seed,
                    LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone())),
                )
            })
            .expect("create");
    }
    let jobs: Vec<SessionJob> = seeds
        .iter()
        .map(|&seed| SessionJob::Budget {
            session: format!("sim-{seed}"),
            budget: 300,
            max_steps: 100_000,
        })
        .collect();
    let start = std::time::Instant::now();
    let estimates = engine.run_parallel(&jobs, 4).expect("fleet");
    println!(
        "Fleet: {} concurrent sessions (budget 300 labels each) in {:.2?}:",
        seeds.len(),
        start.elapsed()
    );
    for ((seed, estimate), method) in seeds
        .iter()
        .zip(estimates.iter())
        .zip(methods.iter().cycle())
    {
        println!("  seed {seed} ({method}): F ≈ {:.3}", estimate.f_measure);
    }
}
