//! The `oasis-serve` binary end to end over TCP: it logs the address it
//! bound, not the one requested, with or without the no-op `--evented`,
//! a store it was SIGKILLed over answers as it did before the kill, and
//! pool-sized memory is paid once per pool, never held per connection.

use serde::json::{Json, ToJson};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Kills the server if an assertion fails before it shut down.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `oasis-serve --tcp 127.0.0.1:0` with `extra` flags and read the
/// address it logs.
fn spawn(extra: &[&str]) -> (Server, SocketAddr) {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_oasis-serve"))
            .args(["--tcp", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // The bound address is on the first line, or on the second after the
    // line a store logs its directory on.
    let mut stderr = BufReader::new(server.0.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    if extra.contains(&"--store") {
        assert!(
            line.starts_with("oasis-serve: durable store at "),
            "{extra:?}: {line:?}"
        );
        line.clear();
        stderr.read_line(&mut line).unwrap();
    }
    let addr = line
        .trim()
        .strip_prefix("oasis-serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{extra:?}: no bound address in {line:?}"));
    (server, addr)
}

/// One request line, one response line.
struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        Client(BufReader::new(TcpStream::connect(addr).unwrap()))
    }

    fn send(&mut self, request: &str) -> String {
        let stream = self.0.get_mut();
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        self.0.read_line(&mut response).unwrap();
        assert!(response.contains(r#""ok":true"#), "{request} -> {response}");
        response
    }
}

#[test]
fn a_sigkill_loses_no_acknowledged_record() {
    let dir = std::env::temp_dir().join(format!("oasis-cli-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let (pool, _) = oasis::test_fixtures::pool_and_truth(400, 71, 0.1);
    let mut load = Json::object();
    load.set("cmd", Json::String("load_pool".to_string()));
    load.set("pool", Json::String("p".to_string()));
    load.set("scores", pool.scores().to_vec().to_json());
    load.set("predictions", pool.predictions().to_vec().to_json());
    let load = load.render();
    let estimate = r#"{"cmd":"estimate","session":"s"}"#;

    let (mut server, addr) = spawn(&["--store", store]);
    let mut client = Client::connect(addr);
    client.send(&load);
    client.send(
        r#"{"cmd":"create_session","session":"s","pool":"p","seed":3,"config":{"strata_count":8}}"#,
    );
    // Five rounds answer every ticket; the sixth leaves its tickets pending.
    for round in 0..6 {
        let response = client.send(r#"{"cmd":"propose","session":"s","count":5}"#);
        if round == 5 {
            break;
        }
        let proposals = Json::parse(&response).unwrap();
        let labels: Vec<String> = proposals
            .require("proposals")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|ticket| {
                let id = ticket
                    .require("ticket")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string();
                let item = ticket.require("item").unwrap().as_usize().unwrap();
                format!(r#"{{"ticket":"{id}","label":{}}}"#, item.is_multiple_of(3))
            })
            .collect();
        client.send(&format!(
            r#"{{"cmd":"label","session":"s","labels":[{}]}}"#,
            labels.join(",")
        ));
    }
    let before = client.send(estimate);
    server.0.kill().unwrap();
    server.0.wait().unwrap();
    drop(server);

    let document = std::fs::read_to_string(Path::new(&dir).join("s.checkpoint.json")).unwrap();
    assert!(
        document.starts_with(r#"{"checkpoint":{"format":"oasis-engine/checkpoint-v2""#),
        "{document}"
    );
    let (_server, addr) = spawn(&["--store", store]);
    let mut client = Client::connect(addr);
    client.send(&load);
    let after = client.send(estimate);
    assert_eq!(after, before);
    let pending = |response: &str| {
        let value = Json::parse(response).unwrap();
        value.require("pending").unwrap().as_usize().unwrap()
    };
    assert_eq!(pending(&after), 5);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_mode_logs_the_bound_address_and_serves_on_it() {
    for extra in [&[][..], &["--evented"][..]] {
        let (mut server, addr) = spawn(extra);
        let mut line = String::new();
        assert_ne!(addr.port(), 0, "{extra:?}: logged the requested port 0");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        line.clear();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.contains(r#""shutdown":true"#), "{extra:?}: {line}");
        assert!(server.0.wait().unwrap().success(), "{extra:?}");
    }
}

/// The resident set of process `pid` in KiB (`VmRSS` in its
/// `/proc/<pid>/status`).
#[cfg(target_os = "linux")]
fn resident_kib(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmRSS in {status}"))
}

#[cfg(target_os = "linux")]
#[test]
fn importance_proposals_are_shared_and_long_lines_are_not_kept() {
    const POOL: usize = 500_000;
    let (pool, _) = oasis::test_fixtures::pool_and_truth(POOL, 29, 0.05);
    let mut load = Json::object();
    load.set("cmd", Json::String("load_pool".to_string()));
    load.set("pool", Json::String("p".to_string()));
    load.set("scores", pool.scores().to_vec().to_json());
    load.set("predictions", pool.predictions().to_vec().to_json());
    drop(pool);

    let (server, addr) = spawn(&[]);
    let resident = || resident_kib(server.0.id());
    let mut client = Client::connect(addr);
    client.send(&load.render());
    drop(load);
    let create = |client: &mut Client, session: usize| {
        client.send(&format!(
            r#"{{"cmd":"create_session","session":"s{session}","pool":"p","seed":1,"method":"importance"}}"#
        ));
    };

    // Sharing: the first session builds the proposal (N f64s, plus its CDF
    // and weights); the next three reuse it.
    create(&mut client, 0);
    let one = resident();
    for session in 1..4 {
        create(&mut client, session);
    }
    let four = resident();
    let proposal_kib = POOL * std::mem::size_of::<f64>() / 1024;
    assert!(
        four.saturating_sub(one) < proposal_kib,
        "sessions 2-4 added {} KiB, one proposal is {proposal_kib} KiB",
        four - one
    );

    // Release: four idle connections, each after one 16 MiB line, hold no
    // line buffer.  The handler frees it just after writing the answer, so
    // give it a moment.
    let before = resident();
    let mut idle = Vec::new();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut line = vec![b'x'; 16 << 20];
        line.push(b'\n');
        stream.write_all(&line).unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains(r#""ok":false"#), "{response}");
        idle.push(reader);
    }
    let slack_kib = 4 * 1024;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut after = resident();
    while after > before + slack_kib && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = resident();
    }
    assert!(
        after <= before + slack_kib,
        "idle connections hold {} KiB after their long lines",
        after - before
    );
    client.send(r#"{"cmd":"estimate","session":"s3"}"#);
    drop(idle);
}
