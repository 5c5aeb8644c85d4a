//! Structured event logging for the serving layer.
//!
//! `oasis-serve` historically scattered `eprintln!`s for startup, shutdown
//! and transport errors.  [`EventLog`] routes all of that through one sink
//! with two formats:
//!
//! * [`LogFormat::Text`] — the default: the same human-oriented
//!   `oasis-serve: …` lines as before, and *no* per-request output.
//! * [`LogFormat::Json`] (`oasis-serve --log-json`) — one JSON object per
//!   line (JSONL), machine-parseable, including one `request` event per
//!   protocol request with its verb, session, latency and outcome.
//!
//! Events go to the log's sink (stderr in the binary), never stdout —
//! stdout is the protocol channel.
//!
//! ## Event schema (JSON format)
//!
//! ```json
//! {"event":"message","message":"listening on 127.0.0.1:4000"}
//! {"event":"request","verb":"propose","session":"s1","latency_us":"142","ok":true}
//! {"event":"request","verb":"metrics","session":null,"latency_us":"57","ok":true}
//! ```
//!
//! `latency_us` uses the crate-wide u64-as-string wire encoding.

use crate::sync::lock;
use serde::json::{Json, ToJson};
use std::io::Write;
use std::sync::Mutex;

/// Output format of an [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented `oasis-serve: …` lines; request events are suppressed.
    Text,
    /// One JSON object per line, including per-request events.
    Json,
}

/// A line-oriented event sink shared by the server loop and the binary.
pub struct EventLog {
    format: LogFormat,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("format", &self.format)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// An event log writing to stderr (the binary's configuration).
    pub fn stderr(format: LogFormat) -> Self {
        EventLog::to_writer(format, Box::new(std::io::stderr()))
    }

    /// An event log writing to an arbitrary sink (tests capture a buffer).
    pub fn to_writer(format: LogFormat, sink: Box<dyn Write + Send>) -> Self {
        EventLog {
            format,
            sink: Mutex::new(sink),
        }
    }

    /// The configured format.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    fn emit(&self, line: &str) {
        let mut sink = lock(&self.sink);
        // A logging failure must never take down the serving loop; the
        // protocol channel (stdout) is the contract, stderr is best-effort.
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }

    /// A freeform operational message (startup, shutdown, transport errors).
    pub fn message(&self, text: &str) {
        match self.format {
            LogFormat::Text => self.emit(&format!("oasis-serve: {text}")),
            LogFormat::Json => {
                let mut obj = Json::object();
                obj.set("event", Json::String("message".to_string()));
                obj.set("message", Json::String(text.to_string()));
                self.emit(&obj.render());
            }
        }
    }

    /// One event per protocol request: the verb, the session it addressed
    /// (if any), wall-clock latency in microseconds, and whether the
    /// response was `ok`.  Suppressed in [`LogFormat::Text`] to keep the
    /// default stderr as quiet as the pre-logging binary.
    pub fn request(&self, verb: &str, session: Option<&str>, latency_us: u64, ok: bool) {
        if self.format == LogFormat::Text {
            return;
        }
        let mut obj = Json::object();
        obj.set("event", Json::String("request".to_string()));
        obj.set("verb", Json::String(verb.to_string()));
        obj.set(
            "session",
            match session {
                Some(id) => Json::String(id.to_string()),
                None => Json::Null,
            },
        );
        obj.set("latency_us", latency_us.to_json());
        obj.set("ok", ok.to_json());
        self.emit(&obj.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink tests can read back.
    #[derive(Clone, Default)]
    struct Buffer(Arc<Mutex<Vec<u8>>>);

    impl Write for Buffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture(format: LogFormat) -> (EventLog, Buffer) {
        let buffer = Buffer::default();
        let log = EventLog::to_writer(format, Box::new(buffer.clone()));
        (log, buffer)
    }

    #[test]
    fn text_format_keeps_the_legacy_prefix_and_drops_request_events() {
        let (log, buffer) = capture(LogFormat::Text);
        log.message("listening on 127.0.0.1:4000");
        log.request("propose", Some("s1"), 42, true);
        let out = String::from_utf8(lock(&buffer.0).clone()).unwrap();
        assert_eq!(out, "oasis-serve: listening on 127.0.0.1:4000\n");
    }

    #[test]
    fn json_format_emits_one_parseable_object_per_line() {
        let (log, buffer) = capture(LogFormat::Json);
        log.message("shutdown requested");
        log.request("propose", Some("s1"), 42, true);
        log.request("metrics", None, 7, false);
        let out = String::from_utf8(lock(&buffer.0).clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let parsed = Json::parse(lines[1]).unwrap();
        assert_eq!(
            parsed.require("event").unwrap().as_str().unwrap(),
            "request"
        );
        assert_eq!(parsed.require("verb").unwrap().as_str().unwrap(), "propose");
        assert_eq!(parsed.require("session").unwrap().as_str().unwrap(), "s1");
        assert_eq!(parsed.require("latency_us").unwrap().as_u64().unwrap(), 42);
        assert!(parsed.require("ok").unwrap().as_bool().unwrap());
        let no_session = Json::parse(lines[2]).unwrap();
        assert!(matches!(no_session.require("session").unwrap(), Json::Null));
        assert!(!no_session.require("ok").unwrap().as_bool().unwrap());
    }
}
