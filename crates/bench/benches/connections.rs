//! Bench: evented-server connection scaling — steps/sec and p99 request
//! latency for a fixed pool of active clients while 1k / 10k *additional*
//! idle connections are parked on the reactor.
//!
//! The container's fd limit cannot hold both ends of 10k connections in
//! one process, so the client side runs in a child process: this binary
//! re-executes itself (`OASIS_CONNECTIONS_CLIENT=<addr>`) as a traffic
//! generator that parks the idle connections, drives `create_session` /
//! `step` traffic over the active ones, and prints one JSON line of
//! results on stdout.  The parent merges the headline numbers into
//! `BENCH_engine.json` (path overridable via `BENCH_ENGINE_JSON`) next to
//! the `engine_throughput` keys, preserving whatever is already there.
//!
//! Scales: 1_000 idle connections always; 10_000 when the fd limits
//! allow (both processes raise their soft limit to the hard limit first).

#[cfg(not(target_os = "linux"))]
fn main() {
    println!("connections bench requires Linux (epoll reactor); skipping");
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use oasis_engine::reactor::{serve_listener_evented_with_config, ReactorConfig};
    use oasis_engine::Engine;
    use serde::json::Json;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// Active connections driving traffic at every idle scale.
    const ACTIVE: usize = 64;
    /// `step` requests issued per active connection.
    const REQUESTS_PER_CONN: usize = 50;
    /// Steps per `step` request.
    const STEPS_PER_REQUEST: usize = 10;

    const LOAD_POOL: &str = r#"{"cmd":"load_pool","pool":"demo","scores":[0.95,0.9,0.8,0.6,0.4,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,true,false,false,false,false,false,false]}"#;

    pub fn main() {
        if let Ok(addr) = std::env::var("OASIS_CONNECTIONS_CLIENT") {
            client_main(&addr);
            return;
        }
        server_main();
    }

    fn connect(addr: &str) -> TcpStream {
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) => std::thread::yield_now(),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }

    /// Send `line` and its newline in one write: a newline written on its
    /// own waits under Nagle's algorithm for the server's delayed ACK,
    /// which adds ~40 ms to every request.
    fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.contains(r#""ok":true"#),
            "request failed: {line} -> {response}"
        );
        response
    }

    /// Child process: park the idle connections, then hammer the server
    /// over the active ones and report steps/sec + p99 request latency.
    fn client_main(addr: &str) {
        let _ = epoll::raise_nofile_limit();
        let idle_count: usize = std::env::var("OASIS_CONNECTIONS_IDLE")
            .unwrap()
            .parse()
            .unwrap();

        // Parked connections: connected, registered with the reactor,
        // never sending a byte.  They must cost the server nothing.
        let mut idle = Vec::with_capacity(idle_count);
        for _ in 0..idle_count {
            idle.push(connect(addr));
        }

        {
            let mut setup = connect(addr);
            let mut reader = BufReader::new(setup.try_clone().unwrap());
            round_trip(&mut setup, &mut reader, LOAD_POOL);
        }

        let started = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(ACTIVE);
            for worker in 0..ACTIVE {
                workers.push(scope.spawn(move || {
                    let mut stream = connect(addr);
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let create = format!(
                        r#"{{"cmd":"create_session","session":"c{worker}","pool":"demo","seed":{seed},"truth":[true,true,false,true,false,false,false,false,false,false]}}"#,
                        seed = 42 + worker
                    );
                    round_trip(&mut stream, &mut reader, &create);
                    let step = format!(
                        r#"{{"cmd":"step","session":"c{worker}","steps":{STEPS_PER_REQUEST}}}"#
                    );
                    let mut latencies = Vec::with_capacity(REQUESTS_PER_CONN);
                    for _ in 0..REQUESTS_PER_CONN {
                        let sent = Instant::now();
                        round_trip(&mut stream, &mut reader, &step);
                        latencies.push(sent.elapsed().as_micros() as u64);
                    }
                    latencies
                }));
            }
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        drop(idle);

        latencies.sort_unstable();
        let p99 = latencies[(latencies.len() - 1).min(latencies.len() * 99 / 100)];
        let total_steps = ACTIVE * REQUESTS_PER_CONN * STEPS_PER_REQUEST;
        let steps_per_sec = total_steps as f64 / elapsed;
        println!(
            r#"{{"steps_per_sec":{steps_per_sec:.1},"p99_us":{p99},"requests":{}}}"#,
            ACTIVE * REQUESTS_PER_CONN
        );
    }

    /// Parent process: run the evented server, re-exec this binary as the
    /// traffic generator at each idle scale, merge headlines into
    /// `BENCH_engine.json`.
    fn server_main() {
        let nofile = epoll::raise_nofile_limit().unwrap_or(1024);
        let mut scales = vec![1_000usize];
        // Both processes need their side of the sockets plus headroom.
        if nofile >= 12_000 {
            scales.push(10_000);
        } else {
            println!("fd limit {nofile} too low for the 10k-connection scale; skipping");
        }

        let mut headline_fields = Vec::new();
        for idle in scales {
            let engine = Engine::new();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let config = ReactorConfig::default();
            let result = crossbeam::thread::scope(|scope| {
                let engine = &engine;
                let config = &config;
                let server = scope.spawn(move |_| {
                    serve_listener_evented_with_config(engine, listener, None, None, config)
                });

                let output =
                    std::process::Command::new(std::env::current_exe().expect("current_exe"))
                        .env("OASIS_CONNECTIONS_CLIENT", addr.to_string())
                        .env("OASIS_CONNECTIONS_IDLE", idle.to_string())
                        .output()
                        .expect("spawn client process");
                assert!(
                    output.status.success(),
                    "client process failed:\n{}\n{}",
                    String::from_utf8_lossy(&output.stdout),
                    String::from_utf8_lossy(&output.stderr),
                );
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = stdout
                    .lines()
                    .last()
                    .expect("client result line")
                    .to_string();

                let mut stop = connect(&addr.to_string());
                stop.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
                let mut ack = String::new();
                let _ = BufReader::new(stop).read_line(&mut ack);
                server.join().unwrap().unwrap();
                result
            })
            .unwrap();

            Json::parse(&result).expect("client result must be JSON");
            println!("connections: {idle} idle + {ACTIVE} active -> {result}",);
            headline_fields.push(format!(r#""idle_{idle}":{result}"#));
        }

        let connections = format!(
            r#"{{"active":{ACTIVE},"steps_per_request":{STEPS_PER_REQUEST},{}}}"#,
            headline_fields.join(",")
        );
        merge_headline("connections", &connections);
    }

    /// Insert `key` into `BENCH_engine.json`, preserving the keys the
    /// `engine_throughput` bench (or an earlier run) already wrote.
    fn merge_headline(key: &str, raw_value: &str) {
        let path =
            std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".into());
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .unwrap_or_else(|| Json::parse("{}").unwrap());
        doc.set(key, Json::parse(raw_value).expect("headline must be JSON"));
        std::fs::write(&path, format!("{}\n", doc.render())).expect("write bench json");
        println!("bench headline numbers merged into {path}");
    }
}
