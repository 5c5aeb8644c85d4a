//! Event-driven TCP serving: a single-threaded epoll reactor.
//!
//! The thread-per-connection loops in [`crate::server`] are simple and
//! correct, but each idle client costs a parked thread and its stack, which
//! caps realistic fan-in well below what one engine can serve.  This module
//! drives every connection from one thread over the vendored [`epoll`]
//! readiness API: each connection is a small state machine — read buffer →
//! line framing → dispatch against the shared [`Engine`] → write buffer —
//! and the reactor multiplexes all of them with level-triggered epoll.
//!
//! Wire semantics are byte-identical to the blocking path: the same
//! [`handle_line`] dispatches requests and the same [`response_line`]
//! frames each response, blank lines are skipped, a final
//! un-terminated line at EOF is still answered, and overlong lines get one
//! structured `kind:"line_too_long"` error while the rest of the line is
//! discarded without ever being buffered whole.
//!
//! Everything is bounded ([`ReactorConfig`]):
//!
//! * **connections** — past `max_connections` the listener's readiness
//!   interest is dropped, so new clients queue in the accept backlog
//!   instead of growing the registration slab;
//! * **read side** — a partial line past `max_line_bytes` flips the
//!   connection into discard mode after one structured error;
//! * **write side** — a client that stops reading its responses
//!   accumulates at most `max_write_buffer` bytes; past that watermark the
//!   reactor stops *reading* from it (natural backpressure: the client
//!   cannot pipeline new work while refusing to drain results).
//!
//! Accept errors (EMFILE/ENFILE spin hot under fd exhaustion) pause the
//! listener on the shared [`AcceptBackoff`] doubling ladder, surfaced via
//! [`Counter::AcceptRetry`]; each loop iteration's processing time lands in
//! the `event_loop` latency histogram.

use crate::engine::Engine;
use crate::guard::{ClientPolicy, ConnState};
use crate::log::EventLog;
use crate::metrics::Counter;
use crate::server::{
    handle_line, line_too_long_response, log_message, response_line, AcceptBackoff, MAX_LINE_BYTES,
};
use epoll::{Epoll, Events, Interest, Slab, Token};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Resource bounds for the evented server.  The defaults suit the
/// production binary; tests shrink them to exercise the limits cheaply.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum simultaneously open connections; past this the listener is
    /// paused and new clients wait in the kernel accept backlog.
    pub max_connections: usize,
    /// Per-line byte cap (content, excluding the newline).  Longer lines
    /// are answered with `kind:"line_too_long"` and discarded.
    pub max_line_bytes: usize,
    /// Per-connection pending-response cap: once this many un-flushed
    /// bytes accumulate, the reactor stops reading from the connection
    /// until the client drains its responses.
    pub max_write_buffer: usize,
    /// Size of the shared read scratch buffer (one `read` syscall's worth).
    pub read_chunk: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 16_384,
            max_line_bytes: MAX_LINE_BYTES,
            max_write_buffer: 8 * 1024 * 1024,
            read_chunk: 64 * 1024,
        }
    }
}

/// The listener's registration token; connection tokens are slab keys,
/// which stay far below this sentinel.
const LISTENER: Token = Token(usize::MAX);

/// How long the graceful-shutdown flush will block per connection before
/// abandoning its remaining response bytes.
const SHUTDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(1);

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes of the current (incomplete) request line.
    read_buf: Vec<u8>,
    /// Rendered responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Inside an overlong line: drop bytes until the next newline.
    discarding: bool,
    /// Per-connection auth state for the [`ClientPolicy`].
    state: ConnState,
    /// The interest currently registered with epoll.
    interest: Interest,
    /// The peer closed its write half; serve what is buffered, then close.
    peer_eof: bool,
    /// A `shutdown` command was dispatched on this connection.
    shutdown: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            discarding: false,
            state: ConnState::default(),
            interest: Interest::NONE,
            peer_eof: false,
            shutdown: false,
        }
    }

    /// Un-flushed response bytes.
    fn write_pending(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Feed freshly read bytes through the line framer, dispatching every
    /// complete line.  Returns `true` when a dispatched line requested
    /// shutdown (remaining input is ignored, as in the blocking path).
    fn ingest(
        &mut self,
        mut bytes: &[u8],
        engine: &Engine,
        log: Option<&EventLog>,
        policy: Option<&ClientPolicy>,
        max_line: usize,
    ) -> bool {
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            let (segment, rest) = bytes.split_at(pos + 1);
            bytes = rest;
            if self.discarding {
                // The newline ends the overlong line already answered.
                self.discarding = false;
                continue;
            }
            if self.read_buf.len() + segment.len() - 1 > max_line {
                let response = line_too_long_response(engine, max_line);
                self.write_buf.extend_from_slice(&response_line(&response));
                self.read_buf.clear();
                continue;
            }
            // Assemble the full line (common case: it arrived in one read
            // and `read_buf` is empty — dispatch straight from the slice).
            let mut line_buf = Vec::new();
            let line: &[u8] = if self.read_buf.is_empty() {
                segment
            } else {
                self.read_buf.extend_from_slice(segment);
                line_buf = std::mem::take(&mut self.read_buf);
                &line_buf
            };
            let outcome = handle_line(engine, line, log, policy, &mut self.state);
            // Hand the allocation back so a steady stream of split lines
            // does not reallocate per request.
            line_buf.clear();
            if self.read_buf.capacity() < line_buf.capacity() {
                self.read_buf = line_buf;
            }
            if let Some(outcome) = outcome {
                self.write_buf
                    .extend_from_slice(&response_line(&outcome.response));
                if outcome.shutdown {
                    self.shutdown = true;
                    return true;
                }
            }
        }
        if !bytes.is_empty() && !self.discarding {
            if self.read_buf.len() + bytes.len() > max_line {
                let response = line_too_long_response(engine, max_line);
                self.write_buf.extend_from_slice(&response_line(&response));
                self.read_buf.clear();
                self.discarding = true;
            } else {
                self.read_buf.extend_from_slice(bytes);
            }
        }
        false
    }

    /// The blocking path answers a final un-terminated line at EOF; mirror
    /// that exactly, then nothing further can arrive.
    fn finish_eof(
        &mut self,
        engine: &Engine,
        log: Option<&EventLog>,
        policy: Option<&ClientPolicy>,
    ) {
        if self.discarding || self.read_buf.is_empty() {
            self.discarding = false;
            self.read_buf.clear();
            return;
        }
        let line = std::mem::take(&mut self.read_buf);
        if let Some(outcome) = handle_line(engine, &line, log, policy, &mut self.state) {
            self.write_buf
                .extend_from_slice(&response_line(&outcome.response));
            if outcome.shutdown {
                self.shutdown = true;
            }
        }
    }

    /// Write as much of the pending buffer as the socket will take.
    /// `Ok(true)` means fully drained.
    fn flush(&mut self) -> io::Result<bool> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.written = 0;
        Ok(true)
    }

    /// The interest this connection should be registered with right now:
    /// readable unless EOF'd or over the write watermark (backpressure),
    /// writable while responses are pending.
    fn desired_interest(&self, max_write_buffer: usize) -> Interest {
        let mut want = Interest::NONE;
        if !self.peer_eof && self.write_pending() < max_write_buffer {
            want = want.with(Interest::READABLE);
        }
        if self.write_pending() > 0 {
            want = want.with(Interest::WRITABLE);
        }
        want
    }
}

/// Serve the line protocol over TCP with the epoll reactor (no guard, no
/// log).  Returns when a client issues `shutdown`.
///
/// # Errors
/// Socket bind failures and fatal reactor errors (epoll setup, listener
/// registration).  Per-connection I/O errors only close that connection.
pub fn serve_tcp_evented(engine: &Engine, addr: &str) -> io::Result<()> {
    serve_listener_evented(engine, TcpListener::bind(addr)?, None, None)
}

/// [`serve_tcp_evented`] with an [`EventLog`] and optional [`ClientPolicy`]
/// — the evented twin of [`crate::server::serve_tcp_guarded`].
///
/// # Errors
/// Socket bind failures and fatal reactor errors.
pub fn serve_tcp_evented_guarded(
    engine: &Engine,
    addr: &str,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> io::Result<()> {
    serve_listener_evented(engine, TcpListener::bind(addr)?, log, policy)
}

/// [`serve_tcp_evented_guarded`] over an already-bound listener with the
/// default [`ReactorConfig`].
///
/// # Errors
/// Fatal reactor errors (epoll setup, listener registration).
pub fn serve_listener_evented(
    engine: &Engine,
    listener: TcpListener,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> io::Result<()> {
    serve_listener_evented_with_config(engine, listener, log, policy, &ReactorConfig::default())
}

/// The full-control entry point: every bound in [`ReactorConfig`] is
/// caller-chosen.  One thread, level-triggered epoll, each connection a
/// read-frame-dispatch-write state machine against the shared engine.
///
/// # Errors
/// Fatal reactor errors (epoll setup, listener registration).  Accept
/// errors back off and retry; per-connection errors close only that
/// connection.
pub fn serve_listener_evented_with_config(
    engine: &Engine,
    listener: TcpListener,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    config: &ReactorConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let mut listener_interest = Interest::READABLE;

    let mut conns: Slab<Conn> = Slab::new();
    let mut events = Events::with_capacity(1024);
    let mut scratch = vec![0u8; config.read_chunk.max(1)];
    let mut backoff = AcceptBackoff::new();
    let mut accept_resume_at: Option<Instant> = None;
    let mut shutdown = false;

    while !shutdown {
        let timeout = accept_resume_at.map(|at| at.saturating_duration_since(Instant::now()));
        epoll.wait(&mut events, timeout)?;
        let timer = engine.metrics().timer();

        if let Some(at) = accept_resume_at {
            if Instant::now() >= at {
                accept_resume_at = None;
            }
        }

        for event in events.iter() {
            if event.token() == LISTENER {
                accept_burst(
                    engine,
                    &listener,
                    &epoll,
                    &mut conns,
                    &mut backoff,
                    &mut accept_resume_at,
                    log,
                    config,
                );
            } else if let Some(conn) = conns.get_mut(event.token().0) {
                let key = event.token().0;
                let closed = drive_conn(
                    engine,
                    conn,
                    event.is_readable(),
                    event.is_error(),
                    &mut scratch,
                    log,
                    policy,
                    config,
                );
                shutdown |= conn.shutdown;
                if closed && !shutdown {
                    let _ = epoll.deregister(conn.stream.as_raw_fd());
                    conns.remove(key);
                } else if !shutdown {
                    let want = conn.desired_interest(config.max_write_buffer);
                    if want != conn.interest {
                        epoll.reregister(conn.stream.as_raw_fd(), Token(key), want)?;
                        conn.interest = want;
                    }
                }
            }
            if shutdown {
                break;
            }
        }

        // Reconcile the listener's interest: paused while backing off from
        // an accept error or at the connection cap, resumed otherwise.
        let want_listener = if accept_resume_at.is_none() && conns.len() < config.max_connections {
            Interest::READABLE
        } else {
            Interest::NONE
        };
        if !shutdown && want_listener != listener_interest {
            epoll.reregister(listener.as_raw_fd(), LISTENER, want_listener)?;
            listener_interest = want_listener;
        }

        engine.metrics().record("event_loop", timer);
    }

    // Graceful shutdown: flush every connection's pending responses with a
    // bounded blocking write (the shutdown acknowledgement itself travels
    // this path), then drop everything.
    log_message(log, "shutdown requested; closing connections");
    for (_, conn) in conns.drain() {
        if conn.write_pending() > 0 {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(SHUTDOWN_FLUSH_TIMEOUT));
            let mut stream = conn.stream;
            let _ = stream.write_all(&conn.write_buf[conn.written..]);
        }
    }
    Ok(())
}

/// Accept until the backlog is empty, the connection cap is hit, or an
/// accept error starts a backoff window.
#[allow(clippy::too_many_arguments)]
fn accept_burst(
    engine: &Engine,
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut Slab<Conn>,
    backoff: &mut AcceptBackoff,
    accept_resume_at: &mut Option<Instant>,
    log: Option<&EventLog>,
    config: &ReactorConfig,
) {
    while conns.len() < config.max_connections && accept_resume_at.is_none() {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.reset();
                engine.metrics().incr(Counter::Connection);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // As in the blocking loop: responses leave in one write, and
                // without TCP_NODELAY a pipelined response waits for the
                // previous one's ACK.  Refusing the option only costs speed.
                let _ = stream.set_nodelay(true);
                let key = conns.insert(Conn::new(stream));
                let conn = conns.get_mut(key).expect("just inserted");
                if epoll
                    .register(conn.stream.as_raw_fd(), Token(key), Interest::READABLE)
                    .is_err()
                {
                    conns.remove(key);
                    continue;
                }
                conn.interest = Interest::READABLE;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => {
                // Same rationale as the blocking loop: EMFILE/ENFILE fail
                // again immediately, so pause the listener for a bounded,
                // doubling delay instead of spinning hot.
                engine.metrics().incr(Counter::AcceptRetry);
                let delay = backoff.next_delay();
                log_message(
                    log,
                    &format!(
                        "accept error (retrying in {}ms): {error}",
                        delay.as_millis()
                    ),
                );
                *accept_resume_at = Some(Instant::now() + delay);
            }
        }
    }
}

/// Process one readiness event for a connection: read and dispatch while
/// the socket and the write watermark allow, then opportunistically flush.
/// Returns `true` when the connection should be closed.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    engine: &Engine,
    conn: &mut Conn,
    readable: bool,
    errored: bool,
    scratch: &mut [u8],
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    config: &ReactorConfig,
) -> bool {
    if errored {
        return true;
    }
    if readable && !conn.peer_eof {
        loop {
            if conn.write_pending() >= config.max_write_buffer {
                // Backpressure: stop reading until the client drains its
                // responses; interest reconciliation drops READABLE.
                break;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    conn.finish_eof(engine, log, policy);
                    break;
                }
                Ok(n) => {
                    if conn.ingest(&scratch[..n], engine, log, policy, config.max_line_bytes) {
                        // Shutdown dispatched: stop reading; the reactor
                        // flushes and exits.
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }
    // Opportunistic flush: the socket is almost always writable, so the
    // common case completes without waiting for a writable event.
    if conn.write_pending() > 0 || conn.peer_eof {
        match conn.flush() {
            Ok(drained) => drained && conn.peer_eof,
            Err(_) => true,
        }
    } else {
        false
    }
}
