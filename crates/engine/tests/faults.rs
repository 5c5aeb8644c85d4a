//! Fault-injection and crash-recovery integration tests.
//!
//! The centrepiece is a crash-point sweep: a scripted protocol session
//! covering every sampler method (plus a sharded and an externally-labelled,
//! lease-limited session) is killed after *every* line — i.e. at every
//! WAL/checkpoint boundary — and resumed on a fresh engine over the same
//! store.  Every response after the crash point must be byte-identical to
//! the uninterrupted run's: estimates, confidence intervals, tickets,
//! watermarks.  The remaining tests drive the scripted [`FaultyStore`]
//! through torn appends, ENOSPC and transient I/O faults and assert the
//! engine's retry/scrub/error paths keep sessions recoverable.

use oasis_engine::server::{serve_lines, serve_listener};
use oasis_engine::{
    CheckpointStore, Engine, FaultKind, FaultyStore, FsCheckpointStore, ManualClock, StoreOp,
};
use std::io::{Cursor, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

/// The sweep script: all four methods, a sharded session, an external
/// lease-limited session, mid-script durable checkpoints, and an explicit
/// lease sweep.  No `metrics` or `sessions` lines — their responses
/// legitimately differ across a restart (counters reset, residency differs)
/// and would produce false sweep mismatches.
const SCRIPT: &[&str] = &[
    r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"create_session","session":"m1","pool":"demo","seed":42,"config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"step","session":"m1","steps":40}"#,
    r#"{"cmd":"estimate","session":"m1"}"#,
    r#"{"cmd":"create_session","session":"m2","pool":"demo","seed":42,"method":"passive","truth":[true,true,false,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"step","session":"m2","steps":40}"#,
    r#"{"cmd":"create_session","session":"m3","pool":"demo","seed":42,"method":"importance","config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"step","session":"m3","steps":40}"#,
    r#"{"cmd":"create_session","session":"m4","pool":"demo","seed":42,"method":"stratified","config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"step","session":"m4","steps":40}"#,
    r#"{"cmd":"create_session","session":"sh","pool":"demo","seed":42,"shards":2,"config":{"strata_count":2},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
    r#"{"cmd":"step","session":"sh","steps":40}"#,
    r#"{"cmd":"create_session","session":"ext","pool":"demo","seed":7,"config":{"strata_count":4},"lease_timeout_us":60000000,"max_pending":16}"#,
    r#"{"cmd":"propose","session":"ext","count":4}"#,
    r#"{"cmd":"label","session":"ext","labels":[{"ticket":0,"label":true},{"ticket":1,"label":true},{"ticket":2,"label":false},{"ticket":3,"label":false}]}"#,
    r#"{"cmd":"checkpoint_to","session":"m1"}"#,
    r#"{"cmd":"checkpoint_to","session":"ext"}"#,
    r#"{"cmd":"step","session":"m1","steps":30}"#,
    r#"{"cmd":"run_budget","session":"m2","budget":15,"max_steps":500}"#,
    r#"{"cmd":"propose","session":"ext","count":3}"#,
    r#"{"cmd":"label","session":"ext","labels":[{"ticket":4,"label":true},{"ticket":5,"label":false},{"ticket":6,"label":false}]}"#,
    r#"{"cmd":"expire_leases","session":"ext"}"#,
    r#"{"cmd":"estimate","session":"m1"}"#,
    r#"{"cmd":"estimate","session":"m2"}"#,
    r#"{"cmd":"estimate","session":"m3"}"#,
    r#"{"cmd":"estimate","session":"m4"}"#,
    r#"{"cmd":"estimate","session":"sh"}"#,
    r#"{"cmd":"estimate","session":"ext"}"#,
];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable engine on a frozen manual lease clock: every engine in the
/// sweep reads lease time 0, so live runs and post-crash runs agree on the
/// timestamps that end up in the WAL.
fn frozen_engine(dir: &PathBuf) -> Engine {
    Engine::new()
        .with_store(Arc::new(FsCheckpointStore::open(dir).unwrap()) as Arc<dyn CheckpointStore>)
        .with_lease_clock(Arc::new(ManualClock::new()))
}

fn run_lines(engine: &Engine, lines: &[&str]) -> Vec<String> {
    let mut script = lines.join("\n");
    script.push('\n');
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// [`run_lines`] with the transport swapped for a TCP server: the script
/// travels over a real connection into `serve`.  The client half-closes
/// after writing, so the server answers everything and closes; a second
/// connection then issues `shutdown` (which never touches the WAL, so it
/// cannot perturb byte-parity with the stdio reference).
fn run_lines_over_tcp(
    engine: &Engine,
    lines: &[&str],
    serve: fn(&Engine, TcpListener) -> std::io::Result<()>,
) -> Vec<String> {
    let mut script = lines.join("\n");
    script.push('\n');
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut collected = Vec::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve(engine, listener));
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) => std::thread::yield_now(),
            }
        };
        stream.write_all(script.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream.read_to_end(&mut collected).unwrap();

        let mut stop = TcpStream::connect(addr).unwrap();
        stop.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        let _ = stop.read_to_end(&mut Vec::new());
        server.join().unwrap().unwrap();
    });
    String::from_utf8(collected)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Kill a run of the script at *every* line — every WAL/checkpoint
/// boundary — and restart it on a fresh engine over the same store, with
/// `run` as the transport.  Every response after the crash point must be
/// byte-identical to the uninterrupted stdio run: parity across transports
/// and across crashes in one assertion.
fn crash_point_sweep(tag: &str, run: impl Fn(&Engine, &[&str]) -> Vec<String>) {
    let reference_dir = scratch_dir(&format!("{tag}-ref"));
    let reference = run_lines(&frozen_engine(&reference_dir), SCRIPT);
    assert_eq!(reference.len(), SCRIPT.len());
    for line in &reference {
        assert!(line.contains(r#""ok":true"#), "reference failed: {line}");
    }

    for crash_at in 1..SCRIPT.len() {
        let dir = scratch_dir(&format!("{tag}-{crash_at}"));
        // Run the prefix, then "kill" the process by dropping the engine —
        // no shutdown, no final checkpoint.
        {
            let engine = frozen_engine(&dir);
            let prefix = run(&engine, &SCRIPT[..crash_at]);
            assert_eq!(prefix, reference[..crash_at].to_vec(), "prefix differs");
        }
        // Restart: a fresh engine over the same store.  Pools are not
        // durable, so the client re-issues load_pool; sessions rehydrate
        // transparently (checkpoint + WAL replay) on first access.
        let revived = frozen_engine(&dir);
        let mut suffix_lines = vec![SCRIPT[0]];
        suffix_lines.extend_from_slice(&SCRIPT[crash_at..]);
        let responses = run(&revived, &suffix_lines);
        assert!(
            responses[0].contains(r#""ok":true"#),
            "crash@{crash_at}: pool reload failed: {}",
            responses[0]
        );
        assert_eq!(
            responses[1..].to_vec(),
            reference[crash_at..].to_vec(),
            "crash@{crash_at}: {tag} post-restart responses diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn crash_point_sweep_replays_bit_identically_at_every_boundary() {
    crash_point_sweep("sweep", run_lines);
}

/// The `oasis-serve --tcp` server.
#[test]
fn crash_point_sweep_over_thread_per_connection_tcp_matches_the_blocking_run() {
    crash_point_sweep("tsweep", |engine, lines| {
        run_lines_over_tcp(engine, lines, serve_listener)
    });
}

#[test]
fn expired_leases_survive_kill_and_replay_bit_for_bit() {
    let dir = scratch_dir("lease-replay");
    let setup = [
        r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
        r#"{"cmd":"create_session","session":"ext","pool":"demo","seed":7,"config":{"strata_count":4},"lease_timeout_us":1000}"#,
        r#"{"cmd":"propose","session":"ext","count":3}"#,
    ];
    let (estimate_line, expired_line) = {
        let clock = Arc::new(ManualClock::new());
        let engine =
            Engine::new()
                .with_store(
                    Arc::new(FsCheckpointStore::open(&dir).unwrap()) as Arc<dyn CheckpointStore>
                )
                .with_lease_clock(Arc::clone(&clock) as _);
        run_lines(&engine, &setup);
        // The client vanishes; its leases lapse.
        clock.advance(5_000);
        let responses = run_lines(
            &engine,
            &[
                r#"{"cmd":"propose","session":"ext","count":2}"#,
                r#"{"cmd":"label","session":"ext","labels":[{"ticket":3,"label":true},{"ticket":4,"label":false}]}"#,
                r#"{"cmd":"estimate","session":"ext"}"#,
            ],
        );
        let expired_line = responses[0].clone();
        assert!(
            expired_line.contains(r#""expired":["0","1","2"]"#),
            "stale tickets reclaimed: {expired_line}"
        );
        assert!(responses[1].contains(r#""ok":true"#), "{}", responses[1]);
        (responses[2].clone(), expired_line)
        // Engine dropped here: the kill.  Only the WAL has the expiries.
    };

    // Restart on a clock that restarted from zero: replay must use the
    // WAL-logged timestamps, not the new clock, to expire the same tickets.
    let revived = frozen_engine(&dir);
    let responses = run_lines(
        &revived,
        &[
            setup[0],
            r#"{"cmd":"restore_from","session":"ext"}"#,
            r#"{"cmd":"estimate","session":"ext"}"#,
            r#"{"cmd":"label","session":"ext","labels":[{"ticket":0,"label":true}]}"#,
        ],
    );
    assert!(
        responses[1].contains(r#""replayed":3"#),
        "create is checkpointed, propose+label+propose... : {}",
        responses[1]
    );
    assert_eq!(
        responses[2], estimate_line,
        "estimate after replay must be byte-identical to the live run"
    );
    // The expired ticket stays expired after the replay.
    assert!(
        responses[3].contains(r#""kind":"unknown_ticket""#),
        "expired lease must not be labelable after replay: {}",
        responses[3]
    );
    drop(expired_line);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_append_fails_the_request_but_never_corrupts_the_log() {
    let dir = scratch_dir("torn");
    let inner: Arc<dyn CheckpointStore> = Arc::new(FsCheckpointStore::open(&dir).unwrap());
    // Tear the third WAL append: the session's base checkpoint is a write,
    // not an append, so append indices count only step records.
    let faulty =
        Arc::new(FaultyStore::new(inner).with_fault(StoreOp::AppendWal, 2, FaultKind::Torn));
    let engine = Engine::new().with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>);
    let responses = run_lines(
        &engine,
        &[
            r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"create_session","session":"s","pool":"demo","seed":42,"config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            // This one hits the torn append: WAL-first means the step never
            // applies, and the torn prefix is scrubbed before returning.
            r#"{"cmd":"step","session":"s","steps":10}"#,
            // The session is not wedged; the next request succeeds.
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"estimate","session":"s"}"#,
        ],
    );
    assert!(responses[4].contains(r#""ok":false"#), "{}", responses[4]);
    assert!(
        responses[4].contains(r#""kind":"store""#),
        "{}",
        responses[4]
    );
    for (index, line) in responses.iter().enumerate() {
        if index != 4 {
            assert!(line.contains(r#""ok":true"#), "line {index}: {line}");
        }
    }
    assert_eq!(faulty.injected(), 1);
    let live_estimate = responses[6].clone();

    // Kill and replay: the scrubbed WAL replays cleanly (3 applied steps)
    // and reproduces the exact live estimate.
    drop(engine);
    let revived = frozen_engine(&dir);
    let responses = run_lines(
        &revived,
        &[
            r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"restore_from","session":"s"}"#,
            r#"{"cmd":"estimate","session":"s"}"#,
        ],
    );
    assert!(responses[1].contains(r#""replayed":3"#), "{}", responses[1]);
    assert!(
        !responses[1].contains("wal_truncated"),
        "the torn line was scrubbed at append time, not replay time: {}",
        responses[1]
    );
    assert_eq!(responses[2], live_estimate);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_checkpoint_is_structured_and_the_session_keeps_serving() {
    let dir = scratch_dir("enospc");
    let inner: Arc<dyn CheckpointStore> = Arc::new(FsCheckpointStore::open(&dir).unwrap());
    // Checkpoint write 0 is the session's base checkpoint; fail write 1,
    // the explicit checkpoint_to.
    let faulty =
        Arc::new(FaultyStore::new(inner).with_fault(StoreOp::PutCheckpoint, 1, FaultKind::Enospc));
    let engine = Engine::new().with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>);
    let responses = run_lines(
        &engine,
        &[
            r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"create_session","session":"s","pool":"demo","seed":42,"config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"checkpoint_to","session":"s"}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"checkpoint_to","session":"s"}"#,
            r#"{"cmd":"estimate","session":"s"}"#,
        ],
    );
    assert!(responses[3].contains(r#""ok":false"#), "{}", responses[3]);
    assert!(responses[3].contains("ENOSPC"), "{}", responses[3]);
    assert!(
        responses[3].contains(r#""kind":"store""#),
        "{}",
        responses[3]
    );
    // The failed checkpoint neither wedged the session nor lost WAL records:
    // later requests — including the retried checkpoint — succeed.
    for index in [4, 5, 6] {
        assert!(
            responses[index].contains(r#""ok":true"#),
            "line {index}: {}",
            responses[index]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_faults_are_invisible_to_clients() {
    let dir = scratch_dir("transient");
    let inner: Arc<dyn CheckpointStore> = Arc::new(FsCheckpointStore::open(&dir).unwrap());
    let faulty = Arc::new(
        FaultyStore::new(inner)
            .with_fault(StoreOp::AppendWal, 0, FaultKind::Transient)
            .with_fault(StoreOp::AppendWal, 2, FaultKind::Transient)
            .with_fault(StoreOp::PutCheckpoint, 1, FaultKind::Transient),
    );
    let engine = Engine::new().with_store(Arc::clone(&faulty) as Arc<dyn CheckpointStore>);
    faulty.attach_metrics(engine.metrics_handle());
    let responses = run_lines(
        &engine,
        &[
            r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"create_session","session":"s","pool":"demo","seed":42,"config":{"strata_count":4},"truth":[true,true,false,true,false,false,false,false,false,false]}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"step","session":"s","steps":10}"#,
            r#"{"cmd":"checkpoint_to","session":"s"}"#,
            r#"{"cmd":"metrics"}"#,
        ],
    );
    for (index, line) in responses.iter().enumerate() {
        assert!(
            line.contains(r#""ok":true"#),
            "transient faults must be absorbed by retries — line {index}: {line}"
        );
    }
    assert!(
        responses[5].contains(r#""retried_write":"3""#),
        "every injected transient shows up as a retry: {}",
        responses[5]
    );
    assert!(
        responses[5].contains(r#""fault_injected":"3""#),
        "{}",
        responses[5]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
