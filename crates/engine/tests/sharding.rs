//! Engine-level guarantees for sharded sessions: the `shards` protocol field
//! is validated and echoed, a `shards: 1` session is bit-identical to an
//! unsharded one over the wire (the K=1 parity the CI pins), sharded
//! sessions survive kill-and-replay bit-for-bit, sessions and restores
//! with one shard count share one partition of the pool, and the
//! shard-routing metrics count what actually happened.

use oasis::pool::ScoredPool;
use oasis::samplers::{AnySampler, InteractiveSampler, OasisConfig, ShardedPool};
use oasis_engine::server::serve_lines;
use oasis_engine::{Engine, FsCheckpointStore, LabelSource, Session, SessionSpec};
use std::io::Cursor;
use std::sync::Arc;

const POOL_LINE: &str = r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#;
const TRUTH: &str = r#"[true,true,false,true,false,false,false,false,false,false]"#;

fn run_script(engine: &Engine, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script.to_string()), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn one_shard_session_is_bit_identical_to_an_unsharded_one_over_the_wire() {
    // The same pool, seed, method and step count, once flat and once with
    // `shards: 1`.  A single shard covers the whole pool with weight 1.0 and
    // shard 0's RNG is seeded with the session seed, so every proposal,
    // weight, estimate and confidence bound must agree to the last bit —
    // the response lines are byte-identical.
    let flat_script = format!(
        "{POOL_LINE}\n{}\n{}\n{}\n",
        format_args!(
            r#"{{"cmd":"create_session","session":"s","pool":"demo","seed":42,"config":{{"strata_count":4}},"truth":{TRUTH}}}"#
        ),
        r#"{"cmd":"step","session":"s","steps":100}"#,
        r#"{"cmd":"estimate","session":"s"}"#,
    );
    let sharded_script = flat_script.replace(r#""seed":42,"#, r#""seed":42,"shards":1,"#);
    assert_ne!(
        flat_script, sharded_script,
        "the shards field was spliced in"
    );

    let flat = run_script(&Engine::new(), &flat_script);
    let sharded = run_script(&Engine::new(), &sharded_script);
    assert_eq!(flat.len(), 4);
    assert_eq!(sharded.len(), 4);
    for line in flat.iter().chain(sharded.iter()) {
        assert!(line.contains(r#""ok":true"#), "failed response: {line}");
    }
    assert!(
        sharded[1].contains(r#""shards":1"#),
        "create response echoes the shard count: {}",
        sharded[1]
    );
    // Step and estimate responses must match byte-for-byte (the create
    // responses differ only by the echoed shard count).
    assert_eq!(flat[2], sharded[2], "step responses diverged");
    assert_eq!(flat[3], sharded[3], "estimate responses diverged");
    assert!(
        flat[3].contains(r#""confidence_interval""#),
        "parity covers the interval, not just the point estimate: {}",
        flat[3]
    );
}

#[test]
fn sharded_session_survives_kill_and_replay_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("oasis-sharded-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let create = format!(
        r#"{{"cmd":"create_session","session":"sh/1","pool":"demo","seed":42,"shards":3,"config":{{"strata_count":4}},"truth":{TRUTH}}}"#
    );
    // Phase 1: run a sharded session, checkpoint mid-way, keep stepping (WAL
    // only), read the estimate, then drop the engine without a shutdown.
    let reference_estimate;
    {
        let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
        let script = format!(
            "{POOL_LINE}\n{create}\n{}\n{}\n{}\n{}\n",
            r#"{"cmd":"step","session":"sh/1","steps":60}"#,
            r#"{"cmd":"checkpoint_to","session":"sh/1"}"#,
            r#"{"cmd":"step","session":"sh/1","steps":40}"#,
            r#"{"cmd":"estimate","session":"sh/1"}"#,
        );
        let lines = run_script(&engine, &script);
        assert_eq!(lines.len(), 6);
        for line in &lines {
            assert!(line.contains(r#""ok":true"#), "failed response: {line}");
        }
        reference_estimate = lines[5].clone();
    }

    // Phase 2: a fresh engine over the same store replays checkpoint + WAL.
    // The session id contains a shard-qualified separator, so this also
    // exercises the percent-encoded store path end to end.
    let engine = Engine::new().with_store(Arc::new(FsCheckpointStore::open(&dir).unwrap()));
    let script = format!(
        "{POOL_LINE}\n{}\n{}\n{}\n",
        r#"{"cmd":"restore_from","session":"sh/1"}"#,
        r#"{"cmd":"estimate","session":"sh/1"}"#,
        r#"{"cmd":"metrics"}"#,
    );
    let lines = run_script(&engine, &script);
    assert_eq!(lines.len(), 4);
    for line in &lines {
        assert!(line.contains(r#""ok":true"#), "failed response: {line}");
    }
    assert!(
        lines[1].contains(r#""replayed":1"#),
        "one post-checkpoint step batch to replay: {}",
        lines[1]
    );
    assert_eq!(
        lines[2], reference_estimate,
        "restored sharded estimate differs from the never-crashed run"
    );
    assert!(
        lines[3].contains(r#""sharded_session":"1""#),
        "rehydrating a sharded session counts as one: {}",
        lines[3]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_field_is_validated_echoed_and_counted() {
    let engine = Engine::new();
    let script = format!(
        "{POOL_LINE}\n{}\n{}\n{}\n{}\n{}\n",
        r#"{"cmd":"create_session","session":"bad","pool":"demo","seed":1,"shards":0}"#,
        format_args!(
            r#"{{"cmd":"create_session","session":"s3","pool":"demo","seed":7,"shards":3,"config":{{"strata_count":4}},"truth":{TRUTH}}}"#
        ),
        r#"{"cmd":"step","session":"s3","steps":20}"#,
        r#"{"cmd":"sessions"}"#,
        r#"{"cmd":"metrics"}"#,
    );
    let lines = run_script(&engine, &script);
    assert_eq!(lines.len(), 6);
    assert!(
        lines[1].contains(r#""ok":false"#) && lines[1].contains("shards"),
        "shards: 0 is a protocol error: {}",
        lines[1]
    );
    assert!(
        lines[2].contains(r#""ok":true"#) && lines[2].contains(r#""shards":3"#),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains(r#""ok":true"#), "{}", lines[3]);
    assert!(
        lines[4].contains(r#""shards":3"#),
        "sessions detail reports the shard count: {}",
        lines[4]
    );
    assert!(
        lines[5].contains(r#""sharded_session":"1""#),
        "{}",
        lines[5]
    );
    assert!(
        lines[5].contains(r#""shard_route":"20""#),
        "each routed step counts: {}",
        lines[5]
    );
}

fn sharded_pool(session: &Session) -> &Arc<ShardedPool> {
    match session.sampler() {
        AnySampler::Sharded(sampler) => sampler.pool(),
        _ => panic!("the session is not sharded"),
    }
}

/// Answer `rounds` batches of 24 proposals from the hidden truth.
fn label_rounds(session: &mut Session, truth: &[bool], rounds: usize) {
    for _ in 0..rounds {
        let tickets = session.propose(24).unwrap();
        let answers: Vec<(u64, bool)> = tickets
            .iter()
            .map(|t| (t.id, truth[t.proposal.item]))
            .collect();
        session.apply_labels(&answers).unwrap();
    }
}

#[test]
fn sessions_and_restores_with_one_shard_count_share_the_partition() {
    let (pool, truth) = oasis::test_fixtures::pool_and_truth(1_600, 8, 0.1);
    let pool = Arc::new(pool);
    let session = |id: &str, pool: &Arc<ScoredPool>| {
        let spec = SessionSpec::new(id, "p", 5, LabelSource::external(pool.len()));
        Session::new(
            SessionSpec {
                config: OasisConfig::default().with_strata_count(4),
                shards: Some(16),
                ..spec
            },
            Arc::clone(pool),
        )
        .unwrap()
    };
    let mut first = session("first", &pool);
    let mut second = session("second", &pool);
    assert!(Arc::ptr_eq(sharded_pool(&first), sharded_pool(&second)));
    label_rounds(&mut first, &truth, 5);
    label_rounds(&mut second, &truth, 5);

    let checkpoint = first.checkpoint();
    let mut restored = Session::restore(checkpoint.clone(), Arc::clone(&pool)).unwrap();
    assert!(Arc::ptr_eq(sharded_pool(&first), sharded_pool(&restored)));
    // A pool with the same content but a memo of its own builds its own
    // partition, and lands on the same draws.
    let copy =
        Arc::new(ScoredPool::new(pool.scores().to_vec(), pool.predictions().to_vec()).unwrap());
    let mut unshared = Session::restore(checkpoint, copy).unwrap();
    assert!(!Arc::ptr_eq(sharded_pool(&first), sharded_pool(&unshared)));

    for session in [&mut first, &mut second, &mut restored, &mut unshared] {
        label_rounds(session, &truth, 5);
    }
    let bits = |session: &Session| {
        let estimate = session.estimate();
        (
            estimate.f_measure.to_bits(),
            estimate.precision.to_bits(),
            estimate.recall.to_bits(),
            estimate.iterations,
        )
    };
    assert_eq!(bits(&first), bits(&second));
    assert_eq!(bits(&first), bits(&restored));
    assert_eq!(bits(&first), bits(&unshared));
    assert_eq!(
        first.checkpoint().sampler,
        restored.checkpoint().sampler,
        "the restore continues bit for bit"
    );
}

#[test]
fn a_pending_ticket_whose_stratum_lies_in_another_shard_is_refused_at_restore() {
    // Every stratum number is below the session's total, but a shard's
    // ticket may only name one of its own shard's strata: another shard's
    // stratum used to pass restore and panic the next `apply_labels`.
    let (pool, truth) = oasis::test_fixtures::pool_and_truth(400, 9, 0.1);
    let pool = Arc::new(pool);
    let spec = SessionSpec::new("s", "p", 7, LabelSource::external(pool.len()));
    let mut session = Session::new(
        SessionSpec {
            config: OasisConfig::default().with_strata_count(4),
            shards: Some(4),
            ..spec
        },
        Arc::clone(&pool),
    )
    .unwrap();
    label_rounds(&mut session, &truth, 2);
    let tickets = session.propose(64).unwrap();
    let good = session.checkpoint();
    let strata_total = session.sampler().strata_len();
    let shards = sharded_pool(&session);
    let last_shard = shards.shard_count() - 1;
    let position = |shard: usize| {
        tickets
            .iter()
            .position(|t| shards.shard_of_item(t.proposal.item) == shard)
            .expect("64 draws reach the first and the last shard")
    };

    // A stratum past the item's shard (in the last shard's range), and one
    // before it (in the first shard's range).
    for (position, stratum) in [(position(0), strata_total - 1), (position(last_shard), 0)] {
        let mut forged = good.clone();
        forged.pending[position].proposal.stratum = stratum;
        let error = Session::restore(forged, Arc::clone(&pool)).unwrap_err();
        assert!(
            matches!(error, oasis_engine::EngineError::CheckpointMismatch(_)),
            "{error}"
        );
    }

    // The checkpoint as written restores and answers every ticket.
    let mut restored = Session::restore(good, Arc::clone(&pool)).unwrap();
    let answers: Vec<(u64, bool)> = tickets
        .iter()
        .map(|t| (t.id, truth[t.proposal.item]))
        .collect();
    assert_eq!(restored.apply_labels(&answers).unwrap(), tickets.len());
}
