//! Transport layer for the line protocol: the stdio loop, the
//! thread-per-connection TCP server, and the one `LineFramer` that splits
//! request lines for every transport (the epoll reactor in
//! [`crate::reactor`] included).
//!
//! [`serve_lines`] is the transport-agnostic core — one request line in, one
//! response line out — used directly for stdin/stdout mode and per-connection
//! by [`serve_listener`], `oasis-serve`'s TCP server, which handles each
//! connection on a scoped thread sharing one [`Engine`],
//! so concurrent clients can drive disjoint sessions in parallel
//! (per-session locks serialise conflicting access).
//!
//! The `_guarded` forms take an optional [`EventLog`] (with
//! [`LogFormat::Json`](crate::log::LogFormat::Json) each request emits one
//! structured event — see [`crate::log`]) and an optional [`ClientPolicy`].

use crate::engine::Engine;
use crate::error::EngineError;
use crate::guard::{guarded_dispatch, ClientPolicy, ConnState};
use crate::log::EventLog;
use crate::metrics::Counter;
use crate::protocol::{error_response, Dispatch, Request};
use parking_lot::Mutex;
use serde::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request line either serving loop will buffer.  Checkpoint
/// documents for large pools are megabytes, so the cap is generous — but it
/// must exist: without it a client streaming bytes with no newline grows the
/// line buffer until the process OOMs, bypassing every parse-time limit.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// One unit of request framing.
pub(crate) enum Frame<'a> {
    /// A request line, without its terminating newline.
    Line(&'a [u8]),
    /// The current line grew past the framer's cap (carried here); the rest
    /// of it is discarded up to its newline.
    TooLong(usize),
}

/// The request-line splitter every transport feeds: bytes go in through
/// [`push`](Self::push), and complete lines, one [`Frame::TooLong`] per
/// overlong line, and (at [`finish`](Self::finish)) a final unterminated
/// line come out.  Only a line split across pushes is copied; a line that
/// arrives whole is handed out as a slice of the pushed bytes.  The partial
/// line never exceeds `max` bytes, so no client can grow it unboundedly.
pub(crate) struct LineFramer {
    /// Bytes of the current line received in earlier pushes.
    partial: Vec<u8>,
    /// Inside an overlong line: drop bytes until the next newline.
    discarding: bool,
    max: usize,
}

impl LineFramer {
    /// A framer answering lines longer than `max` bytes with
    /// [`Frame::TooLong`].
    pub(crate) fn new(max: usize) -> Self {
        LineFramer {
            partial: Vec::new(),
            discarding: false,
            max,
        }
    }

    /// Frame `bytes`, handing each frame to `sink` in order.  Stops at the
    /// first `Break`, dropping the rest of `bytes`, and returns it.
    pub(crate) fn push<B>(
        &mut self,
        mut bytes: &[u8],
        mut sink: impl FnMut(Frame<'_>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            let line = &bytes[..pos];
            bytes = &bytes[pos + 1..];
            if std::mem::take(&mut self.discarding) {
                // The newline ends the overlong line already answered.
                continue;
            }
            let flow = if self.partial.len() + line.len() > self.max {
                sink(Frame::TooLong(self.max))
            } else if self.partial.is_empty() {
                sink(Frame::Line(line))
            } else {
                self.partial.extend_from_slice(line);
                sink(Frame::Line(&self.partial))
            };
            // Cleared, not dropped: the allocation serves the next split line.
            self.partial.clear();
            flow?;
        }
        if bytes.is_empty() || self.discarding {
            return ControlFlow::Continue(());
        }
        if self.partial.len() + bytes.len() > self.max {
            // Answer before the newline arrives; it may never come.
            self.partial.clear();
            self.discarding = true;
            return sink(Frame::TooLong(self.max));
        }
        self.partial.extend_from_slice(bytes);
        ControlFlow::Continue(())
    }

    /// End of input: hand a buffered unterminated line to `sink`, as every
    /// transport answers a final line that lacks its newline.
    pub(crate) fn finish<B>(
        &mut self,
        mut sink: impl FnMut(Frame<'_>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let flow = if std::mem::take(&mut self.discarding) || self.partial.is_empty() {
            ControlFlow::Continue(())
        } else {
            sink(Frame::Line(&self.partial))
        };
        self.partial.clear();
        flow
    }
}

/// Route an operational message through the event log when one is attached,
/// or straight to stderr in the legacy format otherwise.
pub(crate) fn log_message(log: Option<&EventLog>, text: &str) {
    match log {
        Some(log) => log.message(text),
        None => eprintln!("oasis-serve: {text}"),
    }
}

/// Render the response for one raw request line (`None` for blank lines),
/// emitting one structured event per request when a log is attached.  With a
/// [`ClientPolicy`], requests are screened (auth, rate limits) before they
/// reach the engine; `conn` carries this connection's authentication state.
fn handle_line(
    engine: &Engine,
    raw: &[u8],
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    conn: &mut ConnState,
) -> Option<Dispatch> {
    let text = String::from_utf8_lossy(raw);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let started = Instant::now();
    Some(match Request::parse(trimmed) {
        Ok(request) => {
            let verb = request.verb();
            let session = request.session_id().map(str::to_string);
            let outcome = guarded_dispatch(engine, policy, conn, request);
            if let Some(log) = log {
                let ok = matches!(outcome.response.get("ok"), Some(Json::Bool(true)));
                log.request(
                    verb,
                    session.as_deref(),
                    started.elapsed().as_micros() as u64,
                    ok,
                );
            }
            outcome
        }
        Err(error) => {
            if let Some(log) = log {
                log.request(
                    "parse_error",
                    None,
                    started.elapsed().as_micros() as u64,
                    false,
                );
            }
            Dispatch {
                response: error_response(&error),
                shutdown: false,
            }
        }
    })
}

/// Frame one response for the wire: the rendered JSON and its terminating
/// `\n` in a single buffer.  Every transport frames responses here and hands
/// the buffer to the socket whole.  Writing the newline separately would let
/// Nagle's algorithm hold it until the client ACKs the body, and clients
/// delay that ACK (~40 ms) while they wait for the newline.
fn response_line(response: &Json) -> Vec<u8> {
    let mut line = response.render();
    line.push('\n');
    line.into_bytes()
}

/// The structured rejection for an overlong request line: `ok:false` with
/// `kind:"line_too_long"`, so clients can tell a framing overflow apart
/// from a malformed request.  Bumps the [`Counter::LineTooLong`] metric.
fn line_too_long_response(engine: &Engine, max: usize) -> Json {
    engine.metrics().incr(Counter::LineTooLong);
    error_response(&EngineError::LineTooLong(max))
}

/// Answer one frame on one connection: its [`response_line`] and whether
/// the request asked for shutdown, or `None` for a blank line.
pub(crate) fn answer_frame(
    engine: &Engine,
    frame: Frame<'_>,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
    conn: &mut ConnState,
) -> Option<(Vec<u8>, bool)> {
    let outcome = match frame {
        Frame::Line(line) => handle_line(engine, line, log, policy, conn)?,
        Frame::TooLong(max) => Dispatch {
            response: line_too_long_response(engine, max),
            shutdown: false,
        },
    };
    Some((response_line(&outcome.response), outcome.shutdown))
}

/// Serve the line protocol over any reader/writer pair until EOF or a
/// `shutdown` command.  Returns `true` if the loop ended because of
/// `shutdown` (as opposed to EOF).
///
/// Blank lines are ignored; malformed lines produce an `"ok": false`
/// response and the loop continues — a broken client cannot wedge the
/// server.  Lines longer than [`MAX_LINE_BYTES`] are answered with an error
/// and discarded without being buffered whole.  A final line without its
/// newline is answered at EOF.
///
/// # Errors
/// Only I/O failures on the transport itself.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Engine,
    reader: R,
    writer: &mut W,
) -> std::io::Result<bool> {
    serve_lines_guarded(engine, reader, writer, None, None)
}

/// [`serve_lines`] with an optional [`EventLog`] for per-request events and
/// an optional [`ClientPolicy`]: requests are screened for auth and rate
/// limits before reaching the engine, each rejection a structured
/// `ok:false` line (kind `unauthorized`/`throttled`).
///
/// # Errors
/// Only I/O failures on the transport itself.
pub fn serve_lines_guarded<R: BufRead, W: Write>(
    engine: &Engine,
    mut reader: R,
    writer: &mut W,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> std::io::Result<bool> {
    let mut conn = ConnState::default();
    let mut framer = LineFramer::new(MAX_LINE_BYTES);
    let mut respond = |frame: Frame<'_>| {
        let Some((response, shutdown)) = answer_frame(engine, frame, log, policy, &mut conn) else {
            return ControlFlow::Continue(());
        };
        match writer.write_all(&response).and_then(|()| writer.flush()) {
            Err(error) => ControlFlow::Break(Err(error)),
            Ok(()) if shutdown => ControlFlow::Break(Ok(true)),
            Ok(()) => ControlFlow::Continue(()),
        }
    };
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        };
        if chunk.is_empty() {
            return match framer.finish(&mut respond) {
                ControlFlow::Break(result) => result,
                ControlFlow::Continue(()) => Ok(false),
            };
        }
        let read = chunk.len();
        let flow = framer.push(chunk, &mut respond);
        reader.consume(read);
        if let ControlFlow::Break(result) = flow {
            return result;
        }
    }
}

/// A registry of the open TCP connections of one serving loop, so shutdown
/// can wake every blocked handler *promptly* by closing its socket from the
/// accept side.  Handlers used to poll a stop flag on a 100ms read timeout,
/// which made every idle connection burn a wakeup per interval and
/// quantized shutdown latency to the poll period; with the registry, idle
/// connections cost zero CPU and shutdown is bounded only by a socket
/// close.
#[derive(Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    /// Set once the shutdown sweep ran; late registrations are closed on
    /// the spot so no handler can slip past the sweep and block forever.
    closed: bool,
    next_id: u64,
    conns: HashMap<u64, TcpStream>,
}

impl ConnRegistry {
    /// Track `stream` (a `try_clone` of the handler's socket).  Returns
    /// `None` — after shutting the stream down — when the registry already
    /// closed, so the caller's handler sees EOF immediately.
    fn register(&self, stream: TcpStream) -> Option<u64> {
        let mut inner = self.inner.lock();
        if inner.closed {
            let _ = stream.shutdown(Shutdown::Both);
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.conns.insert(id, stream);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.inner.lock().conns.remove(&id);
    }

    /// Close every registered connection and refuse future registrations.
    fn close_all(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        for stream in inner.conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        inner.conns.clear();
    }
}

/// Bounded exponential backoff for `accept()` failures.
///
/// An `accept` that fails with EMFILE/ENFILE (fd exhaustion) fails again
/// immediately — the listener's backlog still holds the connection — so a
/// log-and-continue loop spins at 100% duty, starving the handler threads
/// of the very fds it is waiting for.  Sleeping a doubling, capped delay
/// between retries lets handlers finish and release fds.  Shared by the
/// blocking accept loop and the evented reactor (which turns the delay into
/// an epoll timeout instead of sleeping).
#[derive(Debug)]
pub(crate) struct AcceptBackoff {
    delay: Duration,
}

/// First retry delay after an `accept()` failure.
pub(crate) const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Largest delay between `accept()` retries.
pub(crate) const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

impl AcceptBackoff {
    pub(crate) fn new() -> Self {
        AcceptBackoff {
            delay: ACCEPT_BACKOFF_MIN,
        }
    }

    /// The delay to wait before the next accept attempt; doubles up to
    /// [`ACCEPT_BACKOFF_MAX`] on consecutive failures.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (delay * 2).min(ACCEPT_BACKOFF_MAX);
        delay
    }

    /// A successful accept resets the ladder.
    pub(crate) fn reset(&mut self) {
        self.delay = ACCEPT_BACKOFF_MIN;
    }
}

/// The accept side of the blocking serving loop, abstracted so tests can
/// inject `accept()` failures (EMFILE and friends) that are otherwise
/// impossible to provoke deterministically.
pub(crate) trait AcceptSource {
    /// Accept one connection.
    fn accept_stream(&self) -> std::io::Result<TcpStream>;

    /// Start the handler thread for one accepted connection.  Tests
    /// override this to make the OS refuse the thread.
    fn spawn_handler<'scope, F>(
        &self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        handler: F,
    ) -> std::io::Result<()>
    where
        F: FnOnce() + Send + 'scope,
    {
        std::thread::Builder::new()
            .spawn_scoped(scope, handler)
            .map(drop)
    }
}

impl AcceptSource for TcpListener {
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

/// The read side of one TCP connection.  A shutdown started on another
/// connection wakes the handler by closing its socket, and that read returns
/// 0 like a peer's half-close.  Reporting it as an error instead ends the
/// connection without answering a buffered unterminated line: a request the
/// client never finished must not run after `shutdown` was acknowledged.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let read = self.stream.read(buf)?;
        if read == 0 && self.stop.load(Ordering::SeqCst) {
            return Err(std::io::ErrorKind::ConnectionAborted.into());
        }
        Ok(read)
    }
}

/// Handle one TCP connection, returning `true` if this client issued
/// `shutdown`.  Reads block indefinitely: a shutdown initiated on *another*
/// connection sets `stop` and wakes this handler by closing its socket
/// through the [`ConnRegistry`], so the read returns at once instead of
/// after a poll interval.
fn serve_tcp_connection(
    engine: &Engine,
    stream: &TcpStream,
    registry: &ConnRegistry,
    stop: &AtomicBool,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> bool {
    // Each response is one write; without TCP_NODELAY a response written
    // while the previous one is still un-ACKed waits for that ACK.  A socket
    // that refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    let registered = match stream.try_clone() {
        Ok(clone) => match registry.register(clone) {
            Some(id) => id,
            None => return false, // Shutdown won the race; hang up.
        },
        Err(_) => return false,
    };
    // A read or write error ends only this connection.
    let reader = BufReader::new(ConnReader { stream, stop });
    let shutdown = serve_lines_guarded(engine, reader, &mut &*stream, log, policy).unwrap_or(false);
    registry.deregister(registered);
    shutdown
}

/// Serve the line protocol over TCP on an already-bound listener (bind
/// first to learn an ephemeral port from `local_addr`), handling each
/// connection on a scoped worker thread against the shared engine.  Returns
/// when a client issues `shutdown`: the accept loop stops and every open
/// connection is closed from the accept side (a connection registry tracks
/// the open sockets, so even idle clients are woken promptly — no
/// read-timeout polling, zero CPU per idle connection, shutdown latency
/// bounded by a socket close).
///
/// # Errors
/// Only listener-setup failures; per-connection accept errors (a client
/// resetting mid-handshake, transient resource exhaustion) are logged and
/// skipped so one flaky connect cannot tear down every other client's
/// session.
pub fn serve_listener(engine: &Engine, listener: TcpListener) -> std::io::Result<()> {
    serve_listener_guarded(engine, listener, None, None)
}

/// [`serve_listener`] with an optional [`EventLog`] and an optional
/// [`ClientPolicy`] screening every connection (auth state is
/// per-connection; rate buckets are shared).
///
/// # Errors
/// Only listener-setup failures; per-connection accept errors are logged
/// and skipped.
pub fn serve_listener_guarded(
    engine: &Engine,
    listener: TcpListener,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    serve_accept_loop(engine, &listener, local, log, policy)
}

/// The blocking accept loop over any [`AcceptSource`] (production:
/// [`TcpListener`]; tests: sources that inject accept and spawn failures).
pub(crate) fn serve_accept_loop<A: AcceptSource + Sync>(
    engine: &Engine,
    source: &A,
    local: std::net::SocketAddr,
    log: Option<&EventLog>,
    policy: Option<&ClientPolicy>,
) -> std::io::Result<()> {
    let stop = AtomicBool::new(false);
    let registry = ConnRegistry::default();
    let mut backoff = AcceptBackoff::new();
    std::thread::scope(|scope| {
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match source.accept_stream() {
                Ok(stream) => {
                    engine.metrics().incr(Counter::Connection);
                    stream
                }
                Err(error) => {
                    // EMFILE/ENFILE and friends fail again immediately, so
                    // a plain log-and-continue pegs a core while starving
                    // the handlers that would release fds.  Sleep a
                    // bounded, doubling delay instead.
                    engine.metrics().incr(Counter::AcceptRetry);
                    let delay = backoff.next_delay();
                    log_message(
                        log,
                        &format!(
                            "accept error (retrying in {}ms): {error}",
                            delay.as_millis()
                        ),
                    );
                    std::thread::sleep(delay);
                    continue;
                }
            };
            // Shared with the handler: a refused spawn drops the handler,
            // and the loop still holds the socket to answer on.
            let stream = Arc::new(stream);
            let conn = Arc::clone(&stream);
            let stop = &stop;
            let registry = &registry;
            let spawned = source.spawn_handler(scope, move || {
                if serve_tcp_connection(engine, &conn, registry, stop, log, policy) {
                    // Set before the sweep below, so every handler it wakes
                    // sees the flag.
                    stop.store(true, Ordering::SeqCst);
                    // Wake every blocked handler by closing its socket —
                    // idle connections notice the shutdown immediately
                    // instead of on a poll interval.
                    registry.close_all();
                    // Unblock the accept loop so the listener notices the
                    // shutdown flag.  When bound to an unspecified address
                    // (0.0.0.0 / ::), self-connect via the loopback of the
                    // same family — connecting to 0.0.0.0 fails on some
                    // platforms.
                    let mut wake = local;
                    if wake.ip().is_unspecified() {
                        wake.set_ip(match wake.ip() {
                            std::net::IpAddr::V4(_) => {
                                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                            }
                            std::net::IpAddr::V6(_) => {
                                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                            }
                        });
                    }
                    if let Err(error) = TcpStream::connect(wake) {
                        log_message(
                            log,
                            &format!(
                                "shutdown wake-up connect to {wake} failed ({error}); \
                                 the listener will close on the next incoming connection"
                            ),
                        );
                    }
                }
            });
            match spawned {
                Ok(()) => backoff.reset(),
                Err(error) => {
                    // The OS refused a thread (EAGAIN at the process or user
                    // thread limit).  Refuse this client with a retryable
                    // error and close it; the other connections keep
                    // running.  The line is best effort: request bytes the
                    // client already sent are never read, so the close may
                    // reset the connection.
                    let refusal =
                        EngineError::Backpressure("no thread to serve this connection".into());
                    let _ = (&*stream).write_all(&response_line(&error_response(&refusal)));
                    let delay = backoff.next_delay();
                    log_message(
                        log,
                        &format!(
                            "connection handler spawn failed (accepting again in {}ms): {error}",
                            delay.as_millis()
                        ),
                    );
                    std::thread::sleep(delay);
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

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
    fn scripted_session_end_to_end() {
        let engine = Engine::new();
        let script = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.9,0.8,0.2,0.15,0.1,0.05,0.02],"predictions":[true,true,true,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"s","pool":"p","seed":42,"config":{"strata_count":4},"truth":[true,true,false,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"step","session":"s","steps":60}"#,
            "\n",
            r#"{"cmd":"estimate","session":"s"}"#,
            "\n",
            r#"{"cmd":"shutdown"}"#,
            "\n",
        );
        let responses = run_script(&engine, script);
        assert_eq!(responses.len(), 5);
        for response in &responses {
            assert!(response.starts_with(r#"{"#), "line: {response}");
            assert!(response.contains(r#""ok":true"#), "line: {response}");
        }
        assert!(responses[3].contains("f_measure"), "estimate line");
        assert!(responses[4].contains("shutdown"));
    }

    #[test]
    fn suspend_resume_over_the_wire() {
        let engine = Engine::new();
        // External session: propose returns tickets; labels come back by id.
        let setup = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.7,0.3,0.1],"predictions":[true,true,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"ext","pool":"p","seed":1,"config":{"strata_count":2}}"#,
            "\n",
            r#"{"cmd":"propose","session":"ext","count":2}"#,
            "\n",
        );
        let responses = run_script(&engine, setup);
        let proposal_line = &responses[2];
        assert!(proposal_line.contains(r#""proposals":["#));
        assert!(proposal_line.contains(r#""ticket":"0""#));
        assert!(proposal_line.contains(r#""ticket":"1""#));

        // Labels for both tickets resume the session.
        let resume = concat!(
            r#"{"cmd":"label","session":"ext","labels":[{"ticket":"0","label":true},{"ticket":"1","label":false}]}"#,
            "\n",
            r#"{"cmd":"estimate","session":"ext"}"#,
            "\n",
        );
        let responses = run_script(&engine, resume);
        assert!(responses[0].contains(r#""applied":2"#), "{}", responses[0]);
        assert!(responses[1].contains(r#""pending":0"#));
    }

    #[test]
    fn checkpoint_restore_over_the_wire_is_exact() {
        let engine = Engine::new();
        let setup = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.95,0.85,0.75,0.45,0.25,0.15,0.1,0.05],"predictions":[true,true,true,false,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"create_session","session":"a","pool":"p","seed":9,"config":{"strata_count":3},"truth":[true,true,false,true,false,false,false,false]}"#,
            "\n",
            r#"{"cmd":"step","session":"a","steps":40}"#,
            "\n",
            r#"{"cmd":"checkpoint","session":"a"}"#,
            "\n",
        );
        let responses = run_script(&engine, setup);
        let checkpoint_line = &responses[3];
        let parsed = serde::json::Json::parse(checkpoint_line).unwrap();
        let checkpoint = parsed.require("checkpoint").unwrap().render();

        // Restore under a new name and continue both; estimates must agree.
        let restore_script = format!(
            "{}\n{}\n{}\n{}\n",
            format_args!(r#"{{"cmd":"restore","session":"b","checkpoint":{checkpoint}}}"#),
            r#"{"cmd":"step","session":"a","steps":40}"#,
            r#"{"cmd":"step","session":"b","steps":40}"#,
            r#"{"cmd":"sessions"}"#,
        );
        let responses = run_script(&engine, &restore_script);
        assert!(
            responses[0].contains(r#""restored":true"#),
            "{}",
            responses[0]
        );
        let estimate_a = serde::json::Json::parse(&responses[1]).unwrap();
        let estimate_b = serde::json::Json::parse(&responses[2]).unwrap();
        assert_eq!(
            estimate_a.require("estimate").unwrap().render(),
            estimate_b.require("estimate").unwrap().render(),
            "restored session must continue bit-identically"
        );
        assert!(responses[3].contains(r#""sessions":["a","b"]"#));
    }

    #[test]
    fn overlong_lines_are_rejected_without_unbounded_buffering() {
        // A line longer than MAX_LINE_BYTES gets one error response and is
        // discarded; the loop then serves the next request normally.
        let engine = Engine::new();
        let mut script = Vec::new();
        script.extend_from_slice(br#"{"cmd":"garbage-pad":""#);
        script.resize(MAX_LINE_BYTES + 1024, b'x');
        script.extend_from_slice(b"\"}\n{\"cmd\":\"sessions\"}\n");
        let mut output = Vec::new();
        serve_lines(&engine, Cursor::new(script), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one error + one normal response: {text}");
        assert!(lines[0].contains(r#""ok":false"#));
        assert!(
            lines[0].contains(r#""kind":"line_too_long""#),
            "framing overflow must be machine-distinguishable: {}",
            lines[0]
        );
        assert!(lines[0].contains("exceeds"));
        assert!(lines[1].contains(r#""ok":true"#));
        assert_eq!(engine.metrics().counter(Counter::LineTooLong), 1);
    }

    /// A writer that keeps every `write` call's bytes separately.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_is_exactly_one_write() {
        // A response split across writes lets Nagle's algorithm hold its
        // tail until the client's delayed ACK: ~40 ms per response.
        let engine = Engine::new();
        let mut script = b"{\"cmd\":\"sessions\"}\ngarbage\n".to_vec();
        script.resize(script.len() + MAX_LINE_BYTES + 1, b'x');
        script.push(b'\n');
        let mut writer = RecordingWriter::default();
        serve_lines(&engine, Cursor::new(script), &mut writer).unwrap();
        let writes: Vec<String> = writer
            .writes
            .into_iter()
            .map(|bytes| String::from_utf8(bytes).unwrap())
            .collect();
        assert_eq!(
            writes,
            [
                "{\"detail\":[],\"ok\":true,\"pools\":[],\"sessions\":[]}\n",
                "{\"error\":\"json error: unexpected character 'g' at byte 0\",\"kind\":\"json\",\"ok\":false}\n",
                "{\"error\":\"request line exceeds 67108864 bytes\",\"kind\":\"line_too_long\",\"ok\":false}\n",
            ]
        );
    }

    #[test]
    fn accept_backoff_doubles_and_resets() {
        let mut backoff = AcceptBackoff::new();
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN);
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN * 2);
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN * 4);
        // The ladder is capped.
        for _ in 0..20 {
            backoff.next_delay();
        }
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MAX);
        // One successful accept resets it.
        backoff.reset();
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_MIN);
    }

    /// An [`AcceptSource`] over a real listener that fails its first N
    /// accepts with EMFILE — the fd-exhaustion scenario that a
    /// log-and-continue accept loop turns into a hot spin — and then its
    /// first M handler spawns with EAGAIN, as the OS does at the thread
    /// limit.
    struct FlakyListener {
        inner: TcpListener,
        accept_failures: std::sync::atomic::AtomicUsize,
        spawn_failures: std::sync::atomic::AtomicUsize,
    }

    impl FlakyListener {
        fn new(inner: TcpListener, accept_failures: usize, spawn_failures: usize) -> Self {
            FlakyListener {
                inner,
                accept_failures: accept_failures.into(),
                spawn_failures: spawn_failures.into(),
            }
        }
    }

    /// Take one injected failure from `budget`, if any is left.
    fn take_failure(budget: &std::sync::atomic::AtomicUsize) -> bool {
        budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    impl AcceptSource for FlakyListener {
        fn accept_stream(&self) -> std::io::Result<TcpStream> {
            if take_failure(&self.accept_failures) {
                // EMFILE: "Too many open files".
                return Err(std::io::Error::from_raw_os_error(24));
            }
            self.inner.accept_stream()
        }

        fn spawn_handler<'scope, F>(
            &self,
            scope: &'scope std::thread::Scope<'scope, '_>,
            handler: F,
        ) -> std::io::Result<()>
        where
            F: FnOnce() + Send + 'scope,
        {
            if take_failure(&self.spawn_failures) {
                // EAGAIN: "Resource temporarily unavailable".
                return Err(std::io::Error::from_raw_os_error(11));
            }
            std::thread::Builder::new()
                .spawn_scoped(scope, handler)
                .map(drop)
        }
    }

    #[test]
    fn accept_errors_back_off_instead_of_spinning() {
        use std::io::{BufRead as _, Write as _};

        const INJECTED_FAILURES: usize = 3;
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flaky = FlakyListener::new(listener, INJECTED_FAILURES, 0);
        std::thread::scope(|scope| {
            let engine = &engine;
            let flaky = &flaky;
            let started = Instant::now();
            let server = scope.spawn(move || serve_accept_loop(engine, flaky, addr, None, None));

            // The client connects while the accepts are failing; the
            // listener backlog holds it until the backoff ladder admits it.
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            stream
                .write_all(b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"shutdown\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
            server.join().unwrap().unwrap();

            // Every injected failure took one bounded sleep (5+10+20ms)...
            assert!(
                started.elapsed() >= ACCEPT_BACKOFF_MIN * (INJECTED_FAILURES as u32 * 2 + 1),
                "backoff sleeps must actually elapse"
            );
            // ...and was counted.
            assert_eq!(
                engine.metrics().counter(Counter::AcceptRetry),
                INJECTED_FAILURES as u64
            );
            assert!(engine.metrics().counter(Counter::Connection) >= 1);
        });
    }

    #[test]
    fn a_refused_handler_thread_answers_backpressure_and_keeps_accepting() {
        use std::io::{BufRead as _, Write as _};

        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flaky = FlakyListener::new(listener, 0, 1);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_accept_loop(&engine, &flaky, addr, None, None));

            // The first client gets no thread: one structured, retryable
            // error line, then the server closes the connection.
            let refused = TcpStream::connect(addr).unwrap();
            let lines: Vec<String> = BufReader::new(refused)
                .lines()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
            assert!(
                lines[0].contains(r#""kind":"backpressure""#),
                "{}",
                lines[0]
            );

            // The loop kept accepting: the next client is served...
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"shutdown\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#), "{line}");
            // ...and its shutdown ends the loop cleanly.
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn json_log_emits_one_request_event_per_line() {
        use crate::log::LogFormat;
        use parking_lot::Mutex;
        use std::sync::Arc;

        #[derive(Clone, Default)]
        struct Buffer(Arc<Mutex<Vec<u8>>>);
        impl Write for Buffer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let engine = Engine::new();
        let buffer = Buffer::default();
        let log = EventLog::to_writer(LogFormat::Json, Box::new(buffer.clone()));
        let script = concat!(
            r#"{"cmd":"load_pool","pool":"p","scores":[0.9,0.1],"predictions":[true,false]}"#,
            "\n",
            "garbage\n",
            r#"{"cmd":"estimate","session":"ghost"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve_lines_guarded(
            &engine,
            Cursor::new(script.to_string()),
            &mut output,
            Some(&log),
            None,
        )
        .unwrap();

        let events = String::from_utf8(buffer.0.lock().clone()).unwrap();
        let lines: Vec<&str> = events.lines().collect();
        assert_eq!(lines.len(), 3, "{events}");
        let ok = Json::parse(lines[0]).unwrap();
        assert_eq!(ok.require("verb").unwrap().as_str().unwrap(), "load_pool");
        assert!(ok.require("ok").unwrap().as_bool().unwrap());
        assert!(matches!(ok.require("session").unwrap(), Json::Null));
        let parse_error = Json::parse(lines[1]).unwrap();
        assert_eq!(
            parse_error.require("verb").unwrap().as_str().unwrap(),
            "parse_error"
        );
        assert!(!parse_error.require("ok").unwrap().as_bool().unwrap());
        let failed = Json::parse(lines[2]).unwrap();
        assert_eq!(
            failed.require("session").unwrap().as_str().unwrap(),
            "ghost"
        );
        assert!(!failed.require("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn guarded_serving_requires_auth_and_recovers_after_rejections() {
        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret");
        let script = concat!(
            r#"{"cmd":"sessions"}"#,
            "\n",
            r#"{"cmd":"auth","token":"wrong"}"#,
            "\n",
            r#"{"cmd":"auth","token":"secret"}"#,
            "\n",
            r#"{"cmd":"sessions"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve_lines_guarded(
            &engine,
            Cursor::new(script.to_string()),
            &mut output,
            None,
            Some(&policy),
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(
            lines[0].contains(r#""kind":"unauthorized""#),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains(r#""ok":false"#), "{}", lines[1]);
        assert!(lines[2].contains(r#""authenticated":true"#), "{}", lines[2]);
        assert!(lines[3].contains(r#""ok":true"#), "{}", lines[3]);
    }

    #[test]
    fn guarded_tcp_auth_state_is_per_connection() {
        use std::io::{BufRead as _, Write as _};

        let engine = Engine::new();
        let policy = ClientPolicy::new().with_auth_token("secret");
        std::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let policy = &policy;
            let server =
                scope.spawn(move || serve_listener_guarded(engine, listener, None, Some(policy)));

            let mut first = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            first
                .write_all(b"{\"cmd\":\"auth\",\"token\":\"secret\"}\n{\"cmd\":\"sessions\"}\n")
                .unwrap();
            let mut reader = BufReader::new(first.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""authenticated":true"#), "{line}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");

            // A second connection does NOT inherit the first's auth.
            let mut second = TcpStream::connect(addr).unwrap();
            second.write_all(b"{\"cmd\":\"sessions\"}\n").unwrap();
            let mut reader2 = BufReader::new(second.try_clone().unwrap());
            line.clear();
            reader2.read_line(&mut line).unwrap();
            assert!(line.contains(r#""kind":"unauthorized""#), "{line}");

            // The authenticated connection shuts the server down.
            first.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#), "{line}");
            server.join().unwrap().unwrap();
            drop(second);
        });
    }

    #[test]
    fn malformed_lines_do_not_wedge_the_loop() {
        let engine = Engine::new();
        let script = "garbage\n{\"cmd\":\"sessions\"}\n";
        let responses = run_script(&engine, script);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].contains(r#""ok":false"#));
        assert!(responses[1].contains(r#""ok":true"#));
    }

    #[test]
    fn shutdown_closes_idle_connections() {
        use std::io::{BufRead as _, Write as _};

        let engine = Engine::new();
        std::thread::scope(|scope| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let server = scope.spawn(move || serve_listener(engine, listener));

            // An idle client that connects and never sends a byte.
            let idle = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            // A second client shuts the server down.
            let mut active = TcpStream::connect(addr).unwrap();
            active.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            let mut reader = BufReader::new(active.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#));

            // The server must return even though the idle client is still
            // connected — the registry closes its socket from the accept
            // side, so shutdown is bounded by a socket close, not a poll
            // interval.
            let waited = Instant::now();
            server.join().unwrap().unwrap();
            assert!(
                waited.elapsed() < Duration::from_millis(100),
                "shutdown must not wait on idle-connection polling (took {:?})",
                waited.elapsed()
            );
            drop(idle);
        });
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;

        let engine = Engine::new();
        std::thread::scope(|scope| {
            // Bind on an ephemeral port, then serve from a scoped thread.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let engine = &engine;
            let server = scope.spawn(move || serve_listener(engine, listener));

            // Client: retry connect until the server is listening.
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::yield_now(),
                }
            };
            stream
                .write_all(b"{\"cmd\":\"sessions\"}\n{\"cmd\":\"shutdown\"}\n")
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""ok":true"#));
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""shutdown":true"#));
            server.join().unwrap().unwrap();
        });
    }
}
