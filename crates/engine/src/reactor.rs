//! Event-driven TCP serving: a single-threaded epoll reactor.
//!
//! `oasis-serve` serves TCP with the thread-per-connection server in
//! [`crate::server`], which costs a parked thread and its stack per idle
//! client; that caps realistic fan-in well below what one engine can
//! serve.  This module is the library's server for that case.  It drives
//! every connection from one thread over the vendored [`epoll`] readiness
//! API: each connection is a small state machine — read → `LineFramer` → dispatch
//! against the shared [`Engine`] → write buffer — and the reactor
//! multiplexes all of them with level-triggered epoll.  The price of one
//! thread: concurrent clients' requests share one core, and a long request
//! (a large `run_budget`, a checkpoint of a huge pool) delays every other
//! connection until it completes.
//!
//! Wire semantics are byte-identical to the stdio loop, because both share
//! the same framer and `answer_frame`: blank lines are skipped, a final
//! un-terminated line at EOF is still answered, and overlong lines get one
//! structured `kind:"line_too_long"` error while the rest of the line is
//! discarded without ever being buffered whole.  At `shutdown` the reactor
//! stops dispatching and only flushes queued responses; an unfinished line
//! is dropped, as in the thread-per-connection server.
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
use crate::server::{answer_frame, log_message, AcceptBackoff, Frame, LineFramer, MAX_LINE_BYTES};
use epoll::{Epoll, Events, Interest, Slab, Token};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
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
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 16_384,
            max_line_bytes: MAX_LINE_BYTES,
            max_write_buffer: 8 * 1024 * 1024,
        }
    }
}

/// Size of the shared read scratch buffer (one `read` syscall's worth).
const READ_CHUNK: usize = 64 * 1024;

/// The listener's registration token; connection tokens are slab keys,
/// which stay far below this sentinel.
const LISTENER: Token = Token(usize::MAX);

/// How long the graceful-shutdown flush will block per connection before
/// abandoning its remaining response bytes.
const SHUTDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(1);

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Splits the request bytes read so far into lines.
    framer: LineFramer,
    /// Rendered responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
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
    fn new(stream: TcpStream, max_line: usize) -> Self {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            write_buf: Vec::new(),
            written: 0,
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

    /// Frame freshly read bytes (`None` at EOF), queueing one response per
    /// frame.  Stops at a dispatched `shutdown`, ignoring the remaining
    /// input as the stdio loop does, and returns `true`.
    fn ingest(
        &mut self,
        bytes: Option<&[u8]>,
        engine: &Engine,
        log: Option<&EventLog>,
        policy: Option<&ClientPolicy>,
    ) -> bool {
        let respond = |frame: Frame<'_>| {
            let Some((response, shutdown)) =
                answer_frame(engine, frame, log, policy, &mut self.state)
            else {
                return ControlFlow::Continue(());
            };
            self.write_buf.extend_from_slice(&response);
            if shutdown {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let flow = match bytes {
            Some(bytes) => self.framer.push(bytes, respond),
            None => self.framer.finish(respond),
        };
        self.shutdown |= flow.is_break();
        flow.is_break()
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

/// Serve the line protocol over TCP with the epoll reactor on an
/// already-bound listener, with an optional [`EventLog`], an optional
/// [`ClientPolicy`] and the default [`ReactorConfig`].  Returns when a
/// client issues `shutdown`.
///
/// # Errors
/// Fatal reactor errors (epoll setup, listener registration).
/// Per-connection I/O errors only close that connection.
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
    let mut scratch = vec![0u8; READ_CHUNK];
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
                let key = conns.insert(Conn::new(stream, config.max_line_bytes));
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
                    conn.ingest(None, engine, log, policy);
                    break;
                }
                Ok(n) => {
                    if conn.ingest(Some(&scratch[..n]), engine, log, policy) {
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
