//! `oasis-serve` — the OASIS evaluation engine behind a line protocol.
//!
//! Speaks line-delimited JSON (one request object per line, one response
//! object per line; see `oasis_engine::protocol` for the command table).
//!
//! Usage:
//!
//! ```text
//! oasis-serve                     # serve stdin/stdout (scriptable, CI-friendly)
//! oasis-serve --tcp 0.0.0.0:7171  # serve TCP, thread per connection
//! oasis-serve --store DIR         # durable sessions: checkpoints + WAL in DIR
//! oasis-serve --store DIR --max-resident 64   # LRU-evict idle sessions to DIR
//! oasis-serve --log-json          # JSONL events on stderr, one per request
//! oasis-serve --auth-token TOKEN  # require {"cmd":"auth","token":TOKEN} first
//! oasis-serve --rate-limit N      # cap each session at N requests/second
//! ```

use oasis_engine::server::{serve_lines_guarded, serve_listener_guarded};
use oasis_engine::{ClientPolicy, Engine, EventLog, FsCheckpointStore, LogFormat};
use std::io::{BufReader, Write as _};
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "oasis-serve — evaluation engine speaking line-delimited JSON\n\n\
             USAGE:\n  oasis-serve                serve stdin/stdout\n  \
             oasis-serve --tcp ADDR     serve TCP on ADDR (e.g. 127.0.0.1:7171)\n  \
             \x20                            (one thread per connection)\n  \
             oasis-serve --evented      accepted and ignored: selects nothing\n  \
             oasis-serve --store DIR    durable sessions: checkpoints + write-ahead\n\
             \x20                            log in DIR, replayed across restarts\n  \
             oasis-serve --max-resident N   with --store: LRU-evict idle sessions\n  \
             oasis-serve --log-json     structured JSONL events on stderr (one per\n\
             \x20                            request: verb, session, latency, outcome)\n  \
             oasis-serve --auth-token TOKEN   reject requests until the connection\n\
             \x20                            sends {{\"cmd\":\"auth\",\"token\":TOKEN}}\n  \
             oasis-serve --rate-limit N per-session request cap (N per second);\n\
             \x20                            excess gets a structured \"throttled\" error\n\n\
             Commands: load_pool, create_session, propose, label, step,\n\
             run_budget, estimate, checkpoint, restore, checkpoint_to,\n\
             restore_from, expire_leases, auth, sessions, delete_session,\n\
             metrics, diagnostics, shutdown.\n\n\
             create_session's optional \"method\" field selects the sampler:\n\
             \"oasis\" (default), \"passive\", \"importance\", \"stratified\".\n\
             Its optional \"lease_timeout_us\" and \"max_pending\" fields bound\n\
             outstanding propose tickets (see the protocol docs)."
        );
        return;
    }

    // The log format is resolved before strict parsing so even usage errors
    // flow through the structured log when --log-json is given.
    let format = if args.iter().any(|a| a == "--log-json") {
        LogFormat::Json
    } else {
        LogFormat::Text
    };
    let log = EventLog::stderr(format);
    let usage_error = |message: &str| -> ! {
        log.message(message);
        std::process::exit(2);
    };

    // Strict argument parsing: a typo'd flag must not silently fall back to
    // stdio mode (which would sit blocked on stdin with no diagnostic).
    let mut tcp_addr: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut max_resident: Option<usize> = None;
    let mut auth_token: Option<String> = None;
    let mut rate_limit: Option<u64> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            // `--evented` selects nothing; it stays accepted so command lines
            // that still pass it keep working.
            "--log-json" | "--evented" => {}
            "--tcp" => match rest.next() {
                Some(addr) => tcp_addr = Some(addr.clone()),
                None => usage_error("--tcp requires an address (e.g. --tcp 127.0.0.1:7171)"),
            },
            "--store" => match rest.next() {
                Some(dir) => store_dir = Some(dir.clone()),
                None => usage_error("--store requires a directory path"),
            },
            "--max-resident" => match rest.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => max_resident = Some(n),
                _ => usage_error("--max-resident requires a positive integer"),
            },
            "--auth-token" => match rest.next() {
                Some(token) if !token.is_empty() => auth_token = Some(token.clone()),
                _ => usage_error("--auth-token requires a non-empty token"),
            },
            "--rate-limit" => match rest.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => rate_limit = Some(n),
                _ => usage_error("--rate-limit requires a positive integer (requests/second)"),
            },
            other => usage_error(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    if max_resident.is_some() && store_dir.is_none() {
        usage_error("--max-resident requires --store (evicted sessions need a store)");
    }

    let policy = if auth_token.is_some() || rate_limit.is_some() {
        let mut policy = ClientPolicy::new();
        if let Some(token) = auth_token {
            log.message("auth token required");
            policy = policy.with_auth_token(token);
        }
        if let Some(rate) = rate_limit {
            log.message(&format!("rate limit: {rate} requests/second per session"));
            policy = policy.with_rate_limit(rate);
        }
        Some(policy)
    } else {
        None
    };

    let mut engine = Engine::new();
    if let Some(dir) = store_dir {
        match FsCheckpointStore::open(&dir) {
            Ok(store) => {
                log.message(&format!("durable store at {dir}"));
                engine = engine.with_store(Arc::new(store));
            }
            Err(error) => {
                log.message(&format!("cannot open store: {error}"));
                std::process::exit(1);
            }
        }
    }
    if let Some(cap) = max_resident {
        engine = engine.with_max_resident(cap);
    }
    let outcome = match tcp_addr {
        Some(addr) => TcpListener::bind(&addr).and_then(|listener| {
            log.message(&format!("listening on {}", listener.local_addr()?));
            serve_listener_guarded(&engine, listener, Some(&log), policy.as_ref())
        }),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut writer = stdout.lock();
            let served = serve_lines_guarded(
                &engine,
                BufReader::new(stdin.lock()),
                &mut writer,
                Some(&log),
                policy.as_ref(),
            );
            writer.flush().and(served.map(|_| ()))
        }
    };

    if let Err(error) = outcome {
        log.message(&format!("transport error: {error}"));
        std::process::exit(1);
    }
}
