//! Workspace-level acceptance tests for `oasis-engine`: N concurrent engine
//! sessions with fixed seeds must be bit-identical to N sequential library
//! runs with the same seeds, through both the Rust API and the line
//! protocol — for every sampling method, not just OASIS.

use er_core::datasets::score_model::{DirectPoolConfig, DirectPoolModel};
use oasis::oracle::GroundTruthOracle;
use oasis::samplers::{AnySampler, OasisConfig, OasisSampler, Sampler, SamplerMethod};
use oasis::{ConfidenceInterval, Estimate, TrackedSampler};
use oasis_engine::server::serve_lines;
use oasis_engine::{Engine, FsCheckpointStore, LabelSource, SessionJob, SessionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;
use std::sync::Arc;

fn fixed_pool() -> (oasis::ScoredPool, Vec<bool>) {
    let config = DirectPoolConfig {
        pool_size: 3000,
        match_count: 80,
        match_logit_mean: 1.1,
        non_match_logit_mean: -2.8,
        logit_noise: 1.3,
        decision_threshold: 0.5,
        uncalibrated_scores: false,
    };
    let mut rng = StdRng::seed_from_u64(555);
    DirectPoolModel::new(config).generate(&mut rng)
}

fn library_run(pool: &oasis::ScoredPool, truth: &[bool], seed: u64, steps: usize) -> Estimate {
    let mut oracle = GroundTruthOracle::new(truth.to_vec());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler =
        OasisSampler::new(pool, OasisConfig::default().with_strata_count(20)).unwrap();
    sampler.run(pool, &mut oracle, &mut rng, steps).unwrap()
}

/// Library reference for an arbitrary method via the same `AnySampler::build`
/// path the engine uses.
fn library_run_method(
    pool: &oasis::ScoredPool,
    truth: &[bool],
    method: SamplerMethod,
    seed: u64,
    steps: usize,
) -> Estimate {
    let mut oracle = GroundTruthOracle::new(truth.to_vec());
    let mut rng = StdRng::seed_from_u64(seed);
    let config = OasisConfig::default().with_strata_count(20);
    let mut sampler = AnySampler::build(method, pool, &config).unwrap();
    sampler.run(pool, &mut oracle, &mut rng, steps).unwrap()
}

#[test]
fn eight_concurrent_sessions_match_eight_sequential_library_runs() {
    let (pool, truth) = fixed_pool();
    let seeds: Vec<u64> = (300..308).collect();
    let steps = 250;

    let references: Vec<Estimate> = seeds
        .iter()
        .map(|&seed| library_run(&pool, &truth, seed, steps))
        .collect();

    let engine = Engine::new();
    engine.load_pool("pool", pool).unwrap();
    for &seed in &seeds {
        engine
            .create_session(SessionSpec {
                config: OasisConfig::default().with_strata_count(20),
                ..SessionSpec::new(
                    format!("s{seed}"),
                    "pool",
                    seed,
                    LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone())),
                )
            })
            .unwrap();
    }
    let jobs: Vec<SessionJob> = seeds
        .iter()
        .map(|&seed| SessionJob::Steps {
            session: format!("s{seed}"),
            steps,
        })
        .collect();
    // 8 workers: every session gets its own thread; interleaving must not
    // matter because sessions share nothing mutable.
    let estimates = engine.run_parallel(&jobs, 8).unwrap();

    for ((reference, estimate), seed) in references.iter().zip(&estimates).zip(&seeds) {
        assert_eq!(
            reference.f_measure.to_bits(),
            estimate.f_measure.to_bits(),
            "seed {seed}: engine F {} != library F {}",
            estimate.f_measure,
            reference.f_measure
        );
        assert_eq!(reference.precision.to_bits(), estimate.precision.to_bits());
        assert_eq!(reference.recall.to_bits(), estimate.recall.to_bits());
    }
}

#[test]
fn a_mixed_method_fleet_matches_sequential_library_runs() {
    // One engine, all four methods concurrently — the redesign's point: the
    // session/worker machinery is method-agnostic and changes nothing.
    let (pool, truth) = fixed_pool();
    let steps = 220;
    let seed = 640;

    let references: Vec<(SamplerMethod, Estimate)> = SamplerMethod::ALL
        .iter()
        .map(|&method| {
            (
                method,
                library_run_method(&pool, &truth, method, seed, steps),
            )
        })
        .collect();

    let engine = Engine::new();
    engine.load_pool("pool", pool).unwrap();
    for &(method, _) in &references {
        engine
            .create_session(SessionSpec {
                method,
                config: OasisConfig::default().with_strata_count(20),
                ..SessionSpec::new(
                    method.as_str(),
                    "pool",
                    seed,
                    LabelSource::GroundTruth(GroundTruthOracle::new(truth.clone())),
                )
            })
            .unwrap();
    }
    let jobs: Vec<SessionJob> = references
        .iter()
        .map(|&(method, _)| SessionJob::Steps {
            session: method.as_str().to_string(),
            steps,
        })
        .collect();
    let estimates = engine.run_parallel(&jobs, 4).unwrap();

    for ((method, reference), estimate) in references.iter().zip(&estimates) {
        assert_eq!(
            reference.f_measure.to_bits(),
            estimate.f_measure.to_bits(),
            "{method}: engine F {} != library F {}",
            estimate.f_measure,
            reference.f_measure
        );
        assert_eq!(reference.precision.to_bits(), estimate.precision.to_bits());
        assert_eq!(reference.recall.to_bits(), estimate.recall.to_bits());
    }
}

fn render_bools(bits: &[bool]) -> String {
    let items: Vec<&str> = bits
        .iter()
        .map(|&b| if b { "true" } else { "false" })
        .collect();
    format!("[{}]", items.join(","))
}

fn run_script(engine: &Engine, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script.to_string()), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn estimate_bits_of(line: &str) -> (u64, u64, u64) {
    let response = serde::json::Json::parse(line).unwrap();
    let estimate = response.require("estimate").unwrap();
    let f = estimate.require("f_measure").unwrap().as_f64().unwrap();
    let p = estimate.require("precision").unwrap().as_f64().unwrap();
    let r = estimate.require("recall").unwrap().as_f64().unwrap();
    (f.to_bits(), p.to_bits(), r.to_bits())
}

#[test]
fn the_line_protocol_reproduces_a_library_run() {
    // Drive a full session through the wire protocol (the same path the
    // `oasis-serve` binary and the CI smoke test use) and compare the final
    // estimate line to the in-process library run, digit for digit.
    let (pool, truth) = fixed_pool();
    let expected = library_run(&pool, &truth, 777, 200);

    let scores: Vec<String> = pool.scores().iter().map(|s| format!("{s:?}")).collect();
    let script = format!(
        concat!(
            r#"{{"cmd":"load_pool","pool":"p","scores":[{scores}],"predictions":{predictions}}}"#,
            "\n",
            r#"{{"cmd":"create_session","session":"s","pool":"p","seed":777,"config":{{"strata_count":20}},"truth":{truth}}}"#,
            "\n",
            r#"{{"cmd":"step","session":"s","steps":200}}"#,
            "\n",
        ),
        scores = scores.join(","),
        predictions = render_bools(pool.predictions()),
        truth = render_bools(&truth),
    );

    let engine = Engine::new();
    let responses = run_script(&engine, &script);
    let last_line = responses.last().unwrap();
    assert!(last_line.contains(r#""ok":true"#), "line: {last_line}");
    let (f, p, r) = estimate_bits_of(last_line);
    assert_eq!(f, expected.f_measure.to_bits());
    assert_eq!(p, expected.precision.to_bits());
    assert_eq!(r, expected.recall.to_bits());
}

#[test]
fn every_method_checkpoints_and_resumes_bitwise_over_the_wire() {
    // The acceptance bar of the InteractiveSampler redesign: for each of the
    // four methods, drive create → step → checkpoint → restore → continue
    // entirely through the wire protocol, and land bit-identically on the
    // estimate of an uninterrupted in-process library run at the same seed.
    let (pool, truth) = fixed_pool();
    let steps_total = 180;
    let steps_first = 67;
    let seed = 4242;

    let scores: Vec<String> = pool.scores().iter().map(|s| format!("{s:?}")).collect();
    let engine = Engine::new();
    let load = format!(
        r#"{{"cmd":"load_pool","pool":"p","scores":[{}],"predictions":{}}}"#,
        scores.join(","),
        render_bools(pool.predictions()),
    );
    let responses = run_script(&engine, &format!("{load}\n"));
    assert!(responses[0].contains(r#""ok":true"#));

    for method in SamplerMethod::ALL {
        let expected = library_run_method(&pool, &truth, method, seed, steps_total);

        let m = method.as_str();
        let setup = format!(
            concat!(
                r#"{{"cmd":"create_session","session":"{m}","pool":"p","seed":{seed},"method":"{m}","config":{{"strata_count":20}},"truth":{truth}}}"#,
                "\n",
                r#"{{"cmd":"step","session":"{m}","steps":{first}}}"#,
                "\n",
                r#"{{"cmd":"checkpoint","session":"{m}"}}"#,
                "\n",
                r#"{{"cmd":"delete_session","session":"{m}"}}"#,
                "\n",
            ),
            m = m,
            seed = seed,
            first = steps_first,
            truth = render_bools(&truth),
        );
        let responses = run_script(&engine, &setup);
        for response in &responses {
            assert!(response.contains(r#""ok":true"#), "{m}: {response}");
        }
        assert!(
            responses[0].contains(&format!(r#""method":"{m}""#)),
            "{m}: {}",
            responses[0]
        );
        let checkpoint_doc = serde::json::Json::parse(&responses[2])
            .unwrap()
            .require("checkpoint")
            .unwrap()
            .render();
        assert!(
            checkpoint_doc.contains(&format!(r#""method":"{m}""#)),
            "{m}: tagged sampler state expected in checkpoint"
        );

        let resume = format!(
            concat!(
                r#"{{"cmd":"restore","session":"{m}2","checkpoint":{doc}}}"#,
                "\n",
                r#"{{"cmd":"step","session":"{m}2","steps":{rest}}}"#,
                "\n",
            ),
            m = m,
            doc = checkpoint_doc,
            rest = steps_total - steps_first,
        );
        let responses = run_script(&engine, &resume);
        assert!(responses[0].contains(r#""restored":true"#), "{m}");
        let (f, p, r) = estimate_bits_of(&responses[1]);
        assert_eq!(f, expected.f_measure.to_bits(), "{m}: F drifted");
        assert_eq!(p, expected.precision.to_bits(), "{m}: P drifted");
        assert_eq!(r, expected.recall.to_bits(), "{m}: R drifted");
    }
}

/// Library reference that also carries the variance tracker, so the wire
/// tests can compare confidence-interval bits — not just point estimates.
fn tracked_library_run(
    pool: &oasis::ScoredPool,
    truth: &[bool],
    seed: u64,
    steps: usize,
) -> (Estimate, ConfidenceInterval) {
    let mut oracle = GroundTruthOracle::new(truth.to_vec());
    let mut rng = StdRng::seed_from_u64(seed);
    let config = OasisConfig::default().with_strata_count(20);
    let mut sampler = TrackedSampler::new(
        AnySampler::build(SamplerMethod::Oasis, pool, &config).unwrap(),
        config.alpha,
    );
    let estimate = sampler.run(pool, &mut oracle, &mut rng, steps).unwrap();
    let interval = sampler.confidence_interval(0.95).unwrap();
    (estimate, interval)
}

fn ci_bits_of(line: &str) -> (u64, u64, u64) {
    let response = serde::json::Json::parse(line).unwrap();
    let interval = response.require("confidence_interval").unwrap();
    let lower = interval.require("lower").unwrap().as_f64().unwrap();
    let upper = interval.require("upper").unwrap().as_f64().unwrap();
    let se = interval
        .require("standard_error")
        .unwrap()
        .as_f64()
        .unwrap();
    (lower.to_bits(), upper.to_bits(), se.to_bits())
}

#[test]
fn kill_and_replay_through_a_shared_store_matches_an_uninterrupted_run() {
    // The durability acceptance bar, driven entirely over the wire: serve one
    // connection against a store-backed engine, durably checkpoint mid-run,
    // keep stepping (those batches only reach the write-ahead log), then drop
    // the engine without a final checkpoint — a crash.  A fresh engine over
    // the same store directory must rebuild the session from
    // `checkpoint + WAL suffix` and land bit-identically — estimate AND
    // confidence interval — on an uninterrupted library run.
    let (pool, truth) = fixed_pool();
    let seed = 9090;
    let (expected, expected_interval) = tracked_library_run(&pool, &truth, seed, 200);

    let dir = std::env::temp_dir().join(format!("oasis-parity-kill-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let scores: Vec<String> = pool.scores().iter().map(|s| format!("{s:?}")).collect();
    let load = format!(
        r#"{{"cmd":"load_pool","pool":"p","scores":[{}],"predictions":{}}}"#,
        scores.join(","),
        render_bools(pool.predictions()),
    );

    // First incarnation: 120 steps, durable checkpoint, 80 more steps that
    // live only in the WAL, then the engine is dropped mid-flight.
    {
        let store = Arc::new(FsCheckpointStore::open(&dir).unwrap());
        let engine = Engine::new().with_store(store);
        let script = format!(
            concat!(
                "{load}\n",
                r#"{{"cmd":"create_session","session":"s","pool":"p","seed":{seed},"config":{{"strata_count":20}},"truth":{truth}}}"#,
                "\n",
                r#"{{"cmd":"step","session":"s","steps":120}}"#,
                "\n",
                r#"{{"cmd":"checkpoint_to","session":"s"}}"#,
                "\n",
                r#"{{"cmd":"step","session":"s","steps":80}}"#,
                "\n",
            ),
            load = load,
            seed = seed,
            truth = render_bools(&truth),
        );
        let responses = run_script(&engine, &script);
        for response in &responses {
            assert!(response.contains(r#""ok":true"#), "{response}");
        }
        assert!(responses[3].contains(r#""wal_seq":"#), "{}", responses[3]);
    }

    // Second incarnation: same directory, fresh engine and pool load (pools
    // are not durable — clients reload them).  `restore_from` replays the
    // checkpoint plus the one logged step batch.
    let store = Arc::new(FsCheckpointStore::open(&dir).unwrap());
    let engine = Engine::new().with_store(store);
    let script = format!(
        concat!(
            "{load}\n",
            r#"{{"cmd":"restore_from","session":"s"}}"#,
            "\n",
            r#"{{"cmd":"estimate","session":"s"}}"#,
            "\n",
        ),
        load = load,
    );
    let responses = run_script(&engine, &script);
    assert!(
        responses[1].contains(r#""restored":true"#) && responses[1].contains(r#""replayed":1"#),
        "{}",
        responses[1]
    );
    let (f, p, r) = estimate_bits_of(&responses[2]);
    assert_eq!(f, expected.f_measure.to_bits(), "F drifted across replay");
    assert_eq!(p, expected.precision.to_bits(), "P drifted across replay");
    assert_eq!(r, expected.recall.to_bits(), "R drifted across replay");
    assert!(responses[2].contains(r#""variance_tracked":true"#));
    let (lower, upper, se) = ci_bits_of(&responses[2]);
    assert_eq!(lower, expected_interval.lower.to_bits(), "CI lower drifted");
    assert_eq!(upper, expected_interval.upper.to_bits(), "CI upper drifted");
    assert_eq!(se, expected_interval.standard_error.to_bits());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_and_restore_failures_are_structured_wire_errors() {
    // Durability failure modes must come back as `ok:false` protocol errors
    // on a live connection — never a panic, never a dropped connection.
    let dir =
        std::env::temp_dir().join(format!("oasis-parity-store-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(FsCheckpointStore::open(&dir).unwrap());
    let engine = Engine::new().with_store(store);
    let script = concat!(
        r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
        "\n",
        // Nothing stored under this id yet.
        r#"{"cmd":"restore_from","session":"ghost"}"#,
        "\n",
        r#"{"cmd":"sessions"}"#,
        "\n",
    );
    let responses = run_script(&engine, script);
    assert_eq!(responses.len(), 3, "every request gets a response");
    assert!(
        responses[1].contains(r#""ok":false"#) && responses[1].contains("ghost"),
        "{}",
        responses[1]
    );
    assert!(responses[2].contains(r#""ok":true"#), "{}", responses[2]);

    // Without a store attached, both durability verbs are structured errors.
    let bare = Engine::new();
    let script = concat!(
        r#"{"cmd":"checkpoint_to","session":"s"}"#,
        "\n",
        r#"{"cmd":"restore_from","session":"s"}"#,
        "\n",
    );
    let responses = run_script(&bare, script);
    for response in &responses {
        assert!(
            response.contains(r#""ok":false"#) && response.contains("store"),
            "{response}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_methods_and_duplicate_sessions_are_structured_wire_errors() {
    let engine = Engine::new();
    let script = concat!(
        r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
        "\n",
        r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"method":"bogus"}"#,
        "\n",
        r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"config":{"strata_count":2}}"#,
        "\n",
        r#"{"cmd":"create_session","session":"s","pool":"p","seed":1,"config":{"strata_count":2}}"#,
        "\n",
        r#"{"cmd":"sessions"}"#,
        "\n",
    );
    let responses = run_script(&engine, script);
    assert_eq!(responses.len(), 5, "every request gets a response");
    assert!(responses[1].contains(r#""ok":false"#) && responses[1].contains("bogus"));
    assert!(responses[2].contains(r#""ok":true"#));
    assert!(responses[3].contains(r#""ok":false"#) && responses[3].contains("already exists"));
    // The connection survived both errors.
    assert!(responses[4].contains(r#""sessions":["s"]"#));
}
