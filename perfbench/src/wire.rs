//! The load generator's side of the line protocol: a client that measures
//! the server rather than itself, and a handle on a spawned `oasis-serve`.
//!
//! The client sets `TCP_NODELAY` and hands each request *and* its newline to
//! the kernel in one `write`, so its own Nagle/delayed-ACK interaction never
//! adds to a measured round trip.  Whatever stall remains is the server's.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: Vec<u8>,
}

impl Client {
    /// Connect to `addr` with `TCP_NODELAY` set.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            response: Vec::new(),
        })
    }

    /// Connect, retrying every millisecond until `timeout` passes (the
    /// server may still be binding its listener).
    ///
    /// # Errors
    /// The last connection error once the timeout has passed.
    pub fn connect_retrying(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(error) if Instant::now() >= deadline => return Err(error),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Send one request line (which must end in `\n`) in a single write and
    /// read its response line.  Returns the response without its newline
    /// and the round-trip time, from the write to the response's last byte.
    ///
    /// # Errors
    /// I/O failures, or the server closing the connection before answering.
    pub fn round_trip(&mut self, line: &[u8]) -> io::Result<(String, Duration)> {
        debug_assert_eq!(line.last(), Some(&b'\n'), "request lines end in a newline");
        self.response.clear();
        let started = Instant::now();
        self.writer.write_all(line)?;
        self.reader.read_until(b'\n', &mut self.response)?;
        let elapsed = started.elapsed();
        if self.response.pop() != Some(b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response line ended",
            ));
        }
        Ok((
            String::from_utf8_lossy(&self.response).into_owned(),
            elapsed,
        ))
    }
}

/// A free loopback address: bind port 0, read the port, release it.
fn free_loopback_addr() -> io::Result<String> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.to_string())
}

/// A running `oasis-serve` child.  Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawn `oasis-serve --tcp ADDR [--evented] --store DIR` on a free
    /// loopback port.
    ///
    /// # Errors
    /// Spawn failures.
    pub fn spawn(binary: &Path, evented: bool, store: &Path) -> io::Result<Server> {
        let addr = free_loopback_addr()?;
        let mut command = Command::new(binary);
        command.arg("--tcp").arg(&addr);
        if evented {
            command.arg("--evented");
        }
        command
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        Ok(Server {
            child: command.spawn()?,
            addr,
        })
    }

    /// The server's listening address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a connection, waiting up to ten seconds for the listener.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect_retrying(&self.addr, Duration::from_secs(10))
    }

    /// Peak resident set size (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // SIGKILL: the crash the store must survive.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose `/proc/<pid>/status` file is at `path`, in
/// MiB.
pub fn peak_rss_mb(path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
