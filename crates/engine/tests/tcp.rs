//! Integration tests for the thread-per-connection TCP server
//! (`oasis_engine::server::serve_listener_guarded`).
//!
//! The contract under test: TCP speaks *exactly* the same wire protocol as
//! the stdio loop (byte-identical responses to the CI smoke script, however
//! the bytes are sliced across reads, a final unterminated line answered, an
//! unfinished line dropped at shutdown, pipelined lines answered in request
//! order), and slow, overlong and non-draining clients degrade only their
//! own connection.

use oasis_engine::server::{serve_lines, serve_listener_guarded, MAX_LINE_BYTES};
use oasis_engine::{ClientPolicy, Engine};
use proptest::prelude::*;
use std::io::{BufRead as _, BufReader, Cursor, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SMOKE_SCRIPT: &str = include_str!("smoke/session.jsonl");

/// Connect with retry (the server thread may not be accepting yet) and a
/// read timeout so a regression hangs a test, not the whole suite.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(_) => std::thread::yield_now(),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Stop the server by issuing `shutdown` on a fresh connection.
/// The auth preamble covers guarded servers (every test policy uses the
/// token `sesame`); unguarded servers answer it and carry on.
fn send_shutdown(addr: SocketAddr) {
    let mut stream = connect(addr);
    stream
        .write_all(b"{\"cmd\":\"auth\",\"token\":\"sesame\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    line.clear();
    let _ = reader.read_line(&mut line);
}

/// Run `body` with the server at `addr` running, then shut it down — also
/// when `body` panics, so a failed assertion fails the test instead of
/// leaving the server scope waiting forever.
fn serving<F: FnOnce(SocketAddr)>(addr: SocketAddr, body: F) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
    send_shutdown(addr);
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
}

/// Run `body` against the TCP server over a fresh engine, screened by
/// `policy`, shutting the server down afterwards.  Returns the engine for
/// metric assertions.
fn with_server<F>(policy: Option<ClientPolicy>, body: F) -> Engine
where
    F: FnOnce(SocketAddr),
{
    let engine = Engine::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let engine = &engine;
        let policy = policy.as_ref();
        let server = scope.spawn(move || serve_listener_guarded(engine, listener, None, policy));
        serving(addr, body);
        server.join().unwrap().unwrap();
    });
    engine
}

/// The stdio loop's responses to a script — the parity reference.
fn stdio_reference(script: &[u8]) -> Vec<u8> {
    let engine = Engine::new();
    let mut output = Vec::new();
    serve_lines(&engine, Cursor::new(script.to_vec()), &mut output).unwrap();
    output
}

#[test]
fn smoke_script_responses_are_byte_identical_to_the_stdio_loop() {
    let reference = stdio_reference(SMOKE_SCRIPT.as_bytes());

    let engine = Engine::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let engine = &engine;
        let server = scope.spawn(move || serve_listener_guarded(engine, listener, None, None));
        // The smoke script ends with `shutdown`, so the server exits and
        // the client reads responses until EOF.
        let mut stream = connect(addr);
        stream.write_all(SMOKE_SCRIPT.as_bytes()).unwrap();
        let mut served = Vec::new();
        stream.read_to_end(&mut served).unwrap();
        server.join().unwrap().unwrap();

        assert_eq!(
            String::from_utf8_lossy(&served),
            String::from_utf8_lossy(&reference),
            "TCP and stdio transports must be wire-identical"
        );
    });
}

/// Median round trip of 50 sequential requests from a `TCP_NODELAY` client
/// that sends each request in one write.
fn round_trip_p50(addr: SocketAddr) -> Duration {
    const ROUND_TRIPS: usize = 50;
    let mut stream = connect(addr);
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    let mut samples = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        let sent = Instant::now();
        stream.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        samples.push(sent.elapsed());
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    samples.sort_unstable();
    samples[ROUND_TRIPS / 2]
}

#[test]
fn round_trips_do_not_stall_on_nagle() {
    // A response whose newline trails in a second write is held by Nagle's
    // algorithm until the client's delayed ACK, ~40 ms per round trip.
    const LIMIT: Duration = Duration::from_millis(10);
    let mut p50 = Duration::ZERO;
    with_server(None, |addr| {
        p50 = round_trip_p50(addr);
    });
    assert!(p50 < LIMIT, "TCP round-trip p50 {p50:?}");
}

#[test]
fn final_unterminated_line_is_answered_like_the_stdio_loop() {
    // The stdio loop answers a final line with no trailing newline; TCP
    // must do the same when the peer half-closes mid-line.
    let script = b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"sessions\"}";
    let reference = stdio_reference(script);
    assert_eq!(reference.iter().filter(|&&b| b == b'\n').count(), 2);

    let check = |addr| {
        let mut stream = connect(addr);
        stream.write_all(script).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut served = Vec::new();
        stream.read_to_end(&mut served).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&served),
            String::from_utf8_lossy(&reference)
        );
    };
    with_server(None, check);
}

/// Send one complete request and one without its newline, and wait for the
/// first answer: the server has then read the unfinished line too.  The
/// connection is returned open, so the server sees no half-close.
fn leave_a_line_unfinished(addr: SocketAddr) -> TcpStream {
    let mut stream = connect(addr);
    stream
        .write_all(
            b"{\"cmd\":\"sessions\"}\n\
              {\"cmd\":\"load_pool\",\"pool\":\"p\",\"scores\":[0.9],\"predictions\":[true]}",
        )
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");
    stream
}

#[test]
fn a_line_unfinished_at_shutdown_is_never_dispatched() {
    // Another client's `shutdown` wakes this connection's handler with a
    // read of 0 bytes, like a half-close; the unfinished `load_pool` must
    // still not run once `shutdown` was acknowledged.
    let mut open = None;
    let engine = with_server(None, |addr| open = Some(leave_a_line_unfinished(addr)));
    assert!(
        engine.pool("p").is_err(),
        "the unfinished load_pool ran after shutdown"
    );
    drop(open);
}

#[test]
fn slowloris_client_does_not_starve_concurrent_clients() {
    const FAN_OUT: usize = 100;
    let engine = with_server(None, |addr| {
        std::thread::scope(|scope| {
            // A slowloris client dribbles one request byte at a time, the
            // connection held open throughout.
            let slow = scope.spawn(move || {
                let mut stream = connect(addr);
                for &byte in b"{\"cmd\":\"sessions\"}\n" {
                    stream.write_all(&[byte]).unwrap();
                    stream.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
                assert!(line.contains(r#""ok":true"#), "{line}");
            });
            // Meanwhile a fan-out of normal clients all complete round
            // trips — each on its own thread, none waits on the slow one.
            let mut clients = Vec::new();
            for _ in 0..FAN_OUT {
                clients.push(scope.spawn(move || {
                    let mut stream = connect(addr);
                    stream.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).unwrap();
                    assert!(line.contains(r#""ok":true"#), "{line}");
                }));
            }
            for client in clients {
                client.join().unwrap();
            }
            slow.join().unwrap();
        });
    });
    assert!(engine.metrics().counter(oasis_engine::Counter::Connection) >= (FAN_OUT + 1) as u64);
}

#[test]
fn overlong_lines_get_the_structured_error_and_the_connection_survives() {
    let engine = with_server(None, |addr| {
        let mut stream = connect(addr);
        // Junk without a newline that crosses the line cap, so the error
        // must arrive *before* the newline does.
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..=MAX_LINE_BYTES / chunk.len() {
            stream.write_all(&chunk).unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""kind":"line_too_long""#), "{line}");
        // The rest of the overlong line is silently discarded…
        stream.write_all(&[b'y'; 100]).unwrap();
        stream.write_all(b"\n").unwrap();
        // …and the connection keeps serving.
        stream.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
    });
    assert_eq!(
        engine.metrics().counter(oasis_engine::Counter::LineTooLong),
        1
    );
}

/// The blocking writer's backpressure is the socket: a client that stops
/// reading stalls its own handler thread, and that thread alone, once the
/// kernel's buffers fill.
#[test]
fn a_non_draining_client_does_not_block_other_clients() {
    const PIPELINED: usize = 200;
    with_server(None, |addr| {
        // Client A pipelines requests without reading any responses.
        let mut hog = connect(addr);
        let mut batch = Vec::new();
        for _ in 0..PIPELINED {
            batch.extend_from_slice(b"{\"cmd\":\"sessions\"}\n");
        }
        hog.write_all(&batch).unwrap();
        // Client B still gets prompt service while A does not read.
        let started = Instant::now();
        let mut other = connect(addr);
        other.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(other).read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a non-draining connection must not stall other clients"
        );
        // Once A drains, every pipelined response arrives in order.
        let mut responses = 0usize;
        let mut reader = BufReader::new(hog);
        let mut response = String::new();
        while responses < PIPELINED {
            response.clear();
            let n = reader.read_line(&mut response).unwrap();
            assert!(n > 0, "EOF after {responses} responses");
            assert!(response.contains(r#""ok":true"#), "{response}");
            responses += 1;
        }
    });
}

#[test]
fn auth_state_is_per_connection() {
    let policy = ClientPolicy::new().with_auth_token("sesame");
    with_server(Some(policy), |addr| {
        let mut authed = connect(addr);
        authed
            .write_all(b"{\"cmd\":\"auth\",\"token\":\"sesame\"}\n{\"cmd\":\"sessions\"}\n")
            .unwrap();
        let mut reader = BufReader::new(authed);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");

        // A second connection does not inherit the first one's auth.
        let mut fresh = connect(addr);
        fresh.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
        line.clear();
        BufReader::new(fresh).read_line(&mut line).unwrap();
        assert!(line.contains(r#""kind":"unauthorized""#), "{line}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Framing is independent of packetisation: however the script's bytes
    /// are sliced across writes (including splits inside a request line and
    /// inside multi-byte UTF-8), TCP answers byte-identically to the stdio
    /// loop over the same script.
    #[test]
    fn responses_are_invariant_under_arbitrary_packetisation(
        cuts in prop::collection::vec(0usize..200, 1..6),
    ) {
        let script = b"{\"cmd\":\"load_pool\",\"pool\":\"p\",\"scores\":[0.9,0.4],\"predictions\":[true,false]}\n\
                       {\"cmd\":\"create_session\",\"session\":\"s\",\"pool\":\"p\",\"seed\":7,\"truth\":[true,false]}\n\
                       {\"cmd\":\"step\",\"session\":\"s\",\"steps\":5}\n\
                       {\"cmd\":\"estimate\",\"session\":\"s\"}\n";
        let reference = stdio_reference(script);

        // Sorted, deduped cut points inside the script.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % script.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();

        let check = |addr| {
            let mut stream = connect(addr);
            stream.set_nodelay(true).unwrap();
            let mut start = 0;
            for cut in cuts.iter().chain(std::iter::once(&script.len())) {
                if *cut > start {
                    stream.write_all(&script[start..*cut]).unwrap();
                    stream.flush().unwrap();
                    // Give the server a chance to observe the partial
                    // chunk as its own read.
                    std::thread::sleep(Duration::from_millis(1));
                    start = *cut;
                }
            }
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut served = Vec::new();
            stream.read_to_end(&mut served).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&served),
                String::from_utf8_lossy(&reference)
            );
        };
        with_server(None, check);
    }

    /// Pipelined requests are answered in request order: a client that
    /// writes `label` for the previous ticket and the next `propose` in one
    /// write, however those bytes are split into packets, reads the same
    /// response bytes as a client that sends one request at a time.
    #[test]
    fn pipelined_label_and_propose_pairs_are_answered_in_request_order(
        cuts in prop::collection::vec(0usize..200, 0..4),
    ) {
        let one_at_a_time = {
            let mut responses = Vec::new();
            with_server(None, |addr| responses = annotate(addr, None));
            responses
        };
        let mut pipelined = Vec::new();
        with_server(None, |addr| pipelined = annotate(addr, Some(&cuts)));
        prop_assert_eq!(pipelined, one_at_a_time);
    }
}

/// An annotation run of one external session, one label per round trip:
/// each round sends `label` for the previous ticket (even items match) and
/// `propose` for the next.  With `cuts`, each round's two lines go out as
/// one byte string split at those offsets (modulo its length), written
/// before either response is read; without, each line waits for its
/// response.  Returns every response line in order.
fn annotate(addr: SocketAddr, cuts: Option<&[usize]>) -> Vec<String> {
    const ROUNDS: usize = 6;
    let stream = connect(addr);
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    let mut read = |responses: &mut Vec<String>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(line);
    };
    let propose = "{\"cmd\":\"propose\",\"session\":\"s\",\"count\":1}\n";
    for line in [
        "{\"cmd\":\"load_pool\",\"pool\":\"p\",\"scores\":[0.9,0.8,0.7,0.4,0.3,0.2,0.1,0.05],\"predictions\":[true,true,false,false,false,false,false,false]}\n",
        "{\"cmd\":\"create_session\",\"session\":\"s\",\"pool\":\"p\",\"seed\":11,\"config\":{\"strata_count\":3}}\n",
        propose,
    ] {
        writer.write_all(line.as_bytes()).unwrap();
        read(&mut responses);
    }
    for _ in 0..ROUNDS {
        let previous = serde::json::Json::parse(responses.last().unwrap()).unwrap();
        let ticket = &previous.require("proposals").unwrap().as_array().unwrap()[0];
        let label = format!(
            "{{\"cmd\":\"label\",\"session\":\"s\",\"labels\":[{{\"ticket\":\"{}\",\"label\":{}}}]}}\n",
            ticket.require("ticket").unwrap().as_str().unwrap(),
            ticket.require("item").unwrap().as_usize().unwrap().is_multiple_of(2)
        );
        match cuts {
            Some(cuts) => {
                let pair = format!("{label}{propose}").into_bytes();
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % pair.len()).collect();
                cuts.push(pair.len());
                cuts.sort_unstable();
                cuts.dedup();
                let mut start = 0;
                for cut in cuts {
                    writer.write_all(&pair[start..cut]).unwrap();
                    writer.flush().unwrap();
                    start = cut;
                }
                read(&mut responses);
                read(&mut responses);
            }
            None => {
                for line in [&label[..], propose] {
                    writer.write_all(line.as_bytes()).unwrap();
                    read(&mut responses);
                }
            }
        }
    }
    responses
}
