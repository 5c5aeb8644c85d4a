//! The `oasis-serve` binary end to end over TCP: it logs the address it
//! bound, not the one requested, with or without the no-op `--evented`.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

/// Kills the server if an assertion fails before it shut down.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn tcp_mode_logs_the_bound_address_and_serves_on_it() {
    for extra in [&[][..], &["--evented"][..]] {
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
        let mut stderr = BufReader::new(server.0.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr: SocketAddr = line
            .trim()
            .strip_prefix("oasis-serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("{extra:?}: no bound address in {line:?}"));
        assert_ne!(addr.port(), 0, "{extra:?}: logged the requested port 0");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        line.clear();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.contains(r#""shutdown":true"#), "{extra:?}: {line}");
        assert!(server.0.wait().unwrap().success(), "{extra:?}");
    }
}
