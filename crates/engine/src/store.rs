//! Durable checkpoint store: where sessions live between process lifetimes.
//!
//! A [`CheckpointStore`] keeps, per session, a *checkpoint document* and an
//! append-only *write-ahead log* (see [`crate::wal`]).  The engine's
//! durability contract is `latest checkpoint + WAL suffix`:
//!
//! * `checkpoint_to` writes an envelope `{"format":"oasis-engine/store-v2",
//!   "wal_seq":N,"checkpoint":{…}}` — the inner document is an unmodified
//!   [`SessionCheckpoint`] (`oasis-engine/checkpoint-v2`), and `wal_seq` is
//!   the sequence number the *next* WAL record will carry — then truncates
//!   the log.  A crash between those two steps is harmless: replay filters
//!   records below the envelope's watermark.
//! * `restore_from` loads the envelope, rebuilds the session from the inner
//!   checkpoint, and replays every log record with `seq >= wal_seq`.
//!
//! `store-v1` envelopes and bare checkpoint documents of either version
//! (written before the store existed, or exported over the wire by the
//! `checkpoint` verb) are accepted too, a bare one with an implied watermark
//! of 0 — so every checkpoint ever written remains restorable.
//!
//! The store trait is deliberately dumb — opaque strings in, opaque strings
//! out — so alternative backends (an object store, a database) only deal in
//! bytes, never in sampler semantics.  [`FsCheckpointStore`] is the built-in
//! filesystem backend: one `<id>.checkpoint.json` plus one `<id>.wal.jsonl`
//! per session under a root directory, session ids percent-encoded so any id
//! accepted by the protocol maps to a safe, collision-free file name.

use crate::checkpoint::{SessionCheckpoint, CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_V1};
use crate::error::{EngineError, EngineResult};
use serde::json::{FromJson, Json, ToJson};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version tag of the store envelope this build writes around a checkpoint
/// and its WAL high-water mark.
pub const STORE_FORMAT: &str = "oasis-engine/store-v2";

/// Version tag of the envelope around `checkpoint-v1` documents.  Same
/// shape; still read.
pub const STORE_FORMAT_V1: &str = "oasis-engine/store-v1";

/// Wrap a checkpoint and its WAL watermark into a store envelope document.
pub fn render_envelope(checkpoint: &SessionCheckpoint, wal_seq: u64) -> String {
    let mut obj = Json::object();
    obj.set("format", Json::String(STORE_FORMAT.to_string()));
    obj.set("wal_seq", wal_seq.to_json());
    obj.set("checkpoint", checkpoint.to_json());
    obj.render()
}

/// Parse a store document into `(checkpoint, wal_seq)`.  Accepts store
/// envelopes of either version and bare checkpoint documents of either
/// version (watermark 0).
///
/// # Errors
/// [`EngineError::Store`] on malformed JSON or an unknown format tag.
pub fn parse_envelope(text: &str) -> EngineResult<(SessionCheckpoint, u64)> {
    let value =
        Json::parse(text).map_err(|e| EngineError::Store(format!("bad store document: {e}")))?;
    let format = value
        .require("format")
        .and_then(|f| f.as_str().map(str::to_string))
        .map_err(|e| EngineError::Store(format!("bad store document: {e}")))?;
    if format == CHECKPOINT_FORMAT || format == CHECKPOINT_FORMAT_V1 {
        let checkpoint = SessionCheckpoint::from_json(&value)
            .map_err(|e| EngineError::Store(format!("bad checkpoint document: {e}")))?;
        return Ok((checkpoint, 0));
    }
    if format != STORE_FORMAT && format != STORE_FORMAT_V1 {
        return Err(EngineError::Store(format!(
            "unsupported store format {format:?} (expected {STORE_FORMAT:?}, \
             {STORE_FORMAT_V1:?} or a bare checkpoint)"
        )));
    }
    let wal_seq = value
        .require("wal_seq")
        .and_then(|v| v.as_u64())
        .map_err(|e| EngineError::Store(format!("bad store document: {e}")))?;
    let checkpoint = value
        .require("checkpoint")
        .map_err(|e| EngineError::Store(format!("bad store document: {e}")))
        .and_then(|inner| {
            SessionCheckpoint::from_json(inner)
                .map_err(|e| EngineError::Store(format!("bad checkpoint document: {e}")))
        })?;
    Ok((checkpoint, wal_seq))
}

/// A durable backend for session checkpoints and their write-ahead logs.
///
/// Implementations deal in opaque one-line strings; all sampler and replay
/// semantics stay in the engine.  Methods take `&self` — backends are shared
/// across the engine's worker threads behind an `Arc`.
pub trait CheckpointStore: std::fmt::Debug + Send + Sync {
    /// Durably replace the session's checkpoint document.
    fn put_checkpoint(&self, session_id: &str, document: &str) -> EngineResult<()>;

    /// Load the session's checkpoint document, or `None` if it has none.
    fn load_checkpoint(&self, session_id: &str) -> EngineResult<Option<String>>;

    /// Append one record line to the session's write-ahead log.
    fn append_wal(&self, session_id: &str, line: &str) -> EngineResult<()>;

    /// Read the session's log, one record per line, in append order.
    fn read_wal(&self, session_id: &str) -> EngineResult<Vec<String>>;

    /// Drop the session's log (after its effect is folded into a checkpoint).
    fn truncate_wal(&self, session_id: &str) -> EngineResult<()>;

    /// Ids of every session with a stored checkpoint.
    fn list_sessions(&self) -> EngineResult<Vec<String>>;

    /// Remove the session's checkpoint and log entirely.
    fn remove(&self, session_id: &str) -> EngineResult<()>;
}

/// Filesystem-backed [`CheckpointStore`]: one checkpoint file and one WAL
/// file per session under a root directory.
///
/// Layout (`<id>` percent-encoded):
///
/// ```text
/// root/
///   <id>.checkpoint.json   # store envelope, atomically replaced
///   <id>.wal.jsonl         # one WAL record per line, append-only
/// ```
///
/// Checkpoints are written to a temporary file and renamed into place, so a
/// crash mid-write leaves the previous checkpoint intact.
#[derive(Debug)]
pub struct FsCheckpointStore {
    root: PathBuf,
}

const CHECKPOINT_SUFFIX: &str = ".checkpoint.json";
const WAL_SUFFIX: &str = ".wal.jsonl";

impl FsCheckpointStore {
    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// Opening also sweeps up orphaned `*.tmp` files — the residue of a
    /// crash between writing a checkpoint's temporary file and renaming it
    /// into place.  The rename never happened, so the previous checkpoint
    /// is still the authoritative one and the orphan is garbage.  The store
    /// assumes exclusive ownership of its root directory.
    ///
    /// # Errors
    /// [`EngineError::Store`] if the directory cannot be created or
    /// scanned.
    pub fn open(root: impl Into<PathBuf>) -> EngineResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| EngineError::Store(format!("cannot create {}: {e}", root.display())))?;
        let store = FsCheckpointStore { root };
        store.sweep_orphaned_tmp_files()?;
        Ok(store)
    }

    fn sweep_orphaned_tmp_files(&self) -> EngineResult<()> {
        let entries = fs::read_dir(&self.root).map_err(|e| io_err("scan", &self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan", &self.root, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let path = entry.path();
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err("remove orphaned", &path, e)),
                }
            }
        }
        Ok(())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn checkpoint_path(&self, session_id: &str) -> PathBuf {
        self.root
            .join(format!("{}{CHECKPOINT_SUFFIX}", encode_id(session_id)))
    }

    fn wal_path(&self, session_id: &str) -> PathBuf {
        self.root
            .join(format!("{}{WAL_SUFFIX}", encode_id(session_id)))
    }
}

/// Percent-encode a session id into a safe file-name stem: ASCII letters,
/// digits, `.`, `_` and `-` pass through, everything else (including `/`,
/// `%` itself and non-ASCII bytes) becomes `%XX`.  The mapping is injective,
/// so distinct ids can never collide on disk.
fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for byte in id.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => {
                out.push(byte as char);
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// Invert [`encode_id`], accepting only *canonical* encodings — the exact
/// strings `encode_id` emits.  Returns `None` on stray `%` escapes, and on
/// well-formed but non-canonical ones: lowercase hex (`%2f`) or escapes of
/// pass-through bytes (`%61` for `a`).  Without that check two distinct file
/// names could decode to the same session id, and a crafted file dropped
/// into the store directory could alias — and via `list_sessions` shadow —
/// a legitimate shard-qualified id like `sess/shard-3`.
fn decode_id(encoded: &str) -> Option<String> {
    let bytes = encoded.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = encoded.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    let id = String::from_utf8(out).ok()?;
    // Round-trip audit: the only decodable names are the ones we write.
    (encode_id(&id) == encoded).then_some(id)
}

fn io_err(action: &str, path: &Path, e: std::io::Error) -> EngineError {
    EngineError::Store(format!("cannot {action} {}: {e}", path.display()))
}

/// fsync a directory so a rename inside it is durable.  Directory fds are
/// only open-able on unix; elsewhere this is a no-op (the rename itself is
/// still atomic, we just lose the power-loss guarantee).
fn sync_dir(dir: &Path) -> EngineResult<()> {
    #[cfg(unix)]
    {
        let handle = fs::File::open(dir).map_err(|e| io_err("open directory", dir, e))?;
        handle
            .sync_all()
            .map_err(|e| io_err("sync directory", dir, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

impl CheckpointStore for FsCheckpointStore {
    fn put_checkpoint(&self, session_id: &str, document: &str) -> EngineResult<()> {
        // tmp write → fsync file → rename → fsync parent dir.  Without the
        // file fsync the rename can land before the data blocks; without the
        // directory fsync the rename itself can vanish on power loss.
        let path = self.checkpoint_path(session_id);
        let tmp = path.with_extension("json.tmp");
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(document.as_bytes())
            .map_err(|e| io_err("write", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(|e| io_err("replace", &path, e))?;
        sync_dir(&self.root)
    }

    fn load_checkpoint(&self, session_id: &str) -> EngineResult<Option<String>> {
        let path = self.checkpoint_path(session_id);
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &path, e)),
        }
    }

    fn append_wal(&self, session_id: &str, line: &str) -> EngineResult<()> {
        let path = self.wal_path(session_id);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        // Record and newline go down in one write: a kill between two
        // writes would leave a complete record without its newline, which
        // parses cleanly (so replay never scrubs it) until the next append
        // glues its record onto the same line.
        let mut record = String::with_capacity(line.len() + 1);
        record.push_str(line);
        record.push('\n');
        file.write_all(record.as_bytes())
            .map_err(|e| io_err("append to", &path, e))
    }

    fn read_wal(&self, session_id: &str) -> EngineResult<Vec<String>> {
        let path = self.wal_path(session_id);
        match fs::read_to_string(&path) {
            Ok(text) => Ok(text.lines().map(str::to_string).collect()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err("read", &path, e)),
        }
    }

    fn truncate_wal(&self, session_id: &str) -> EngineResult<()> {
        let path = self.wal_path(session_id);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &path, e)),
        }
    }

    fn list_sessions(&self) -> EngineResult<Vec<String>> {
        let entries = fs::read_dir(&self.root).map_err(|e| io_err("list", &self.root, e))?;
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", &self.root, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(CHECKPOINT_SUFFIX) else {
                continue;
            };
            if let Some(id) = decode_id(stem) {
                ids.push(id);
            }
        }
        ids.sort();
        Ok(ids)
    }

    fn remove(&self, session_id: &str) -> EngineResult<()> {
        let path = self.checkpoint_path(session_id);
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("remove", &path, e)),
        }
        self.truncate_wal(session_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::LabelSource;
    use crate::test_support::oasis_session;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oasis-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn id_encoding_is_injective_and_reversible() {
        let ids = [
            "plain",
            "with/slash",
            "with space",
            "dots..and--dashes__ok",
            "per%cent",
            "unicode-π",
            "..",
        ];
        let mut encoded: Vec<String> = ids.iter().map(|id| encode_id(id)).collect();
        for (id, enc) in ids.iter().zip(encoded.iter()) {
            assert!(
                enc.bytes().all(|b| b.is_ascii_alphanumeric()
                    || b == b'.'
                    || b == b'_'
                    || b == b'-'
                    || b == b'%'),
                "{id} → {enc}"
            );
            assert_eq!(decode_id(enc).as_deref(), Some(*id));
        }
        encoded.sort();
        encoded.dedup();
        assert_eq!(encoded.len(), ids.len(), "distinct ids must not collide");
    }

    #[test]
    fn shard_qualified_ids_round_trip_and_reject_aliases() {
        // Shard-qualified session ids contain a path separator; it must be
        // percent-encoded on disk and survive the round trip exactly.
        let id = "sess/shard-3";
        let enc = encode_id(id);
        assert_eq!(enc, "sess%2Fshard-3");
        assert_eq!(decode_id(&enc).as_deref(), Some(id));

        // Non-canonical spellings of the same name must NOT decode: they
        // would alias the legitimate file under a different stem.
        assert_eq!(decode_id("sess%2fshard-3"), None, "lowercase hex");
        assert_eq!(decode_id("%73ess%2Fshard-3"), None, "overlong escape");
        assert_eq!(decode_id("sess%2"), None, "truncated escape");
        assert_eq!(decode_id("sess%zz"), None, "bad hex digits");
    }

    #[test]
    fn filesystem_store_round_trips_checkpoints_and_wal() {
        let dir = scratch_dir("roundtrip");
        let store = FsCheckpointStore::open(&dir).unwrap();

        assert_eq!(store.load_checkpoint("s/1").unwrap(), None);
        assert_eq!(store.read_wal("s/1").unwrap(), Vec::<String>::new());
        assert_eq!(store.list_sessions().unwrap(), Vec::<String>::new());

        store.put_checkpoint("s/1", "{\"v\":1}").unwrap();
        store.put_checkpoint("s2", "{\"v\":2}").unwrap();
        store.append_wal("s/1", "line-a").unwrap();
        store.append_wal("s/1", "line-b").unwrap();

        assert_eq!(store.load_checkpoint("s/1").unwrap().unwrap(), "{\"v\":1}");
        assert_eq!(store.read_wal("s/1").unwrap(), vec!["line-a", "line-b"]);
        assert_eq!(store.read_wal("s2").unwrap(), Vec::<String>::new());
        assert_eq!(store.list_sessions().unwrap(), vec!["s/1", "s2"]);

        // Overwrite replaces atomically; truncate clears only the log.
        store.put_checkpoint("s/1", "{\"v\":3}").unwrap();
        assert_eq!(store.load_checkpoint("s/1").unwrap().unwrap(), "{\"v\":3}");
        store.truncate_wal("s/1").unwrap();
        assert_eq!(store.read_wal("s/1").unwrap(), Vec::<String>::new());

        store.remove("s/1").unwrap();
        assert_eq!(store.load_checkpoint("s/1").unwrap(), None);
        assert_eq!(store.list_sessions().unwrap(), vec!["s2"]);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_sweeps_orphaned_tmp_files_and_keeps_the_real_checkpoint() {
        let dir = scratch_dir("orphan");
        {
            let store = FsCheckpointStore::open(&dir).unwrap();
            store.put_checkpoint("s", "{\"v\":1}").unwrap();
        }
        // Plant the residue of a crash between tmp-write and rename: the tmp
        // file exists, the rename never happened.
        let orphan = dir.join("s.checkpoint.json.tmp");
        fs::write(&orphan, "half-written garb").unwrap();
        assert!(orphan.exists());

        let store = FsCheckpointStore::open(&dir).unwrap();
        assert!(!orphan.exists(), "open() must sweep orphaned tmp files");
        assert_eq!(
            store.load_checkpoint("s").unwrap().unwrap(),
            "{\"v\":1}",
            "the committed checkpoint is untouched"
        );
        // A later checkpoint still commits normally.
        store.put_checkpoint("s", "{\"v\":2}").unwrap();
        assert_eq!(store.load_checkpoint("s").unwrap().unwrap(), "{\"v\":2}");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_round_trips_and_accepts_bare_checkpoints() {
        let (pool, _) = crate::test_support::pool_and_truth(300, 5, 0.1);
        let mut session = oasis_session(&pool, 5, 11, LabelSource::external(pool.len()));
        session.propose(2).unwrap();
        let checkpoint = session.checkpoint();

        let text = render_envelope(&checkpoint, 42);
        let (parsed, wal_seq) = parse_envelope(&text).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(wal_seq, 42);

        // A bare checkpoint document (pre-store, or exported over the
        // wire) is accepted with an implied watermark of 0.
        let bare = checkpoint.to_json_string();
        let (parsed, wal_seq) = parse_envelope(&bare).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(wal_seq, 0);

        for corrupt in ["not json", "{}", r#"{"format":"other-v9"}"#] {
            let err = parse_envelope(corrupt).unwrap_err();
            assert!(matches!(err, EngineError::Store(_)), "{corrupt}: {err}");
        }
    }
}
