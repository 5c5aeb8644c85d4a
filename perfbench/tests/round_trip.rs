//! The load generator must measure the server, not itself.
//!
//! A client that writes a request and its newline separately runs into
//! Nagle's algorithm plus the server's delayed ACK, and every round trip
//! then costs ~40 ms whatever the server does.  The evented server answers
//! each request in one write, so with the benchmark's client a round trip
//! must take well under that.

use oasis::ScoredPool;
use oasis_engine::{serve_listener_evented, Engine};
use perfbench::stats::median;
use perfbench::wire::Client;
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn evented_round_trips_take_well_under_a_delayed_ack() {
    let engine = Engine::new();
    engine
        .load_pool(
            "p",
            ScoredPool::new(vec![0.9, 0.8, 0.2, 0.1], vec![true, true, false, false]).unwrap(),
        )
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_listener_evented(&engine, listener, None, None));
        let mut client = Client::connect_retrying(&addr, Duration::from_secs(10)).unwrap();
        let round_trips: Vec<f64> = (0..50)
            .map(|_| {
                let (response, elapsed) = client.round_trip(b"{\"cmd\":\"sessions\"}\n").unwrap();
                assert!(response.contains(r#""ok":true"#), "{response}");
                elapsed.as_secs_f64() * 1e3
            })
            .collect();
        client.round_trip(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        server.join().unwrap().unwrap();
        let p50_ms = median(&round_trips);
        assert!(
            p50_ms < 10.0,
            "evented round trip p50 {p50_ms:.3} ms: the client is paying a Nagle/delayed-ACK stall"
        );
    });
}
