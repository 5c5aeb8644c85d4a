//! Request lines decoded as they arrive.
//!
//! The line loop ([`crate::server`]) reads the first 64 KiB of a line.  A
//! line that ends within them is decoded in memory ([`decode`]).  A longer
//! one is handed here with its head and decoded off the connection's
//! `BufRead` as the rest of it arrives ([`read_rest`]), so it is never
//! resident whole: the `load_pool` of a 676,267-pair pool is an 18.6 MB
//! line.  Its top-level object is scanned here; the pool-sized arrays go
//! from the connection into their `Vec`s, packed as [`Reader::vec`] packs
//! them, and every other member value is buffered and read by a [`Reader`]
//! whose error positions are offset to the line's, through the same
//! [`Members`] decoder as a line in memory.
//!
//! The answer is the one the whole line would get in memory, by the same
//! rules in the same order: a line longer than [`MAX_LINE_BYTES`] is too
//! long; then a line that is not UTF-8 is refused; then the line, trimmed
//! of Unicode whitespace, is parsed.  So on an error the decoder reads on
//! to the newline, or to the cap, before it answers.

use crate::error::{EngineError, EngineResult};
use crate::protocol::{ArraySlot, Members, Request};
use crate::server::MAX_LINE_BYTES;
use serde::json::{number_prefix, FromJson, JsonError, JsonResult, Reader};
use std::io::{self, BufRead, Read as _};

/// One request line, as the line loop answers it.
#[derive(Debug, PartialEq)]
pub(crate) enum Line {
    /// Nothing but whitespace: no answer.
    Blank,
    /// Longer than [`MAX_LINE_BYTES`].  The rest of the line is unread.
    TooLong,
    /// The line's request, or why it is not one.
    Request(EngineResult<Request>),
}

/// Decode a whole line in memory (without its newline).
pub(crate) fn decode(raw: &[u8]) -> Line {
    // JSON text is UTF-8.  A lossy decode would turn different invalid bytes
    // into the same U+FFFD, so two session ids could address one session: a
    // line that is not UTF-8 is rejected whole instead.
    match std::str::from_utf8(raw) {
        Ok(text) => match text.trim() {
            "" => Line::Blank,
            trimmed => Line::Request(Request::parse(trimmed)),
        },
        Err(error) => Line::Request(Err(not_utf8(&error.to_string()))),
    }
}

fn not_utf8(reason: &str) -> EngineError {
    EngineError::Json(JsonError::new(format!(
        "request line is not UTF-8: {reason}"
    )))
}

/// Decode a line whose first `line.len()` bytes, none of them a newline,
/// are in `line`, reading the rest of it off `reader`: through its newline,
/// to EOF, or to [`MAX_LINE_BYTES`] plus one byte, where it is too long.
/// `line` is the decoder's window onto the line; it holds a few KiB at a
/// time, or a member value that is buffered whole.  Also returns whether
/// the line's object was decoded as it arrived.
///
/// # Errors
/// Only I/O failures of `reader`; the line is then not answered.
pub(crate) fn read_rest<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> io::Result<(Line, bool)> {
    read_rest_capped(reader, line, MAX_LINE_BYTES)
}

/// [`read_rest`] with a line longer than `cap` bytes too long.
fn read_rest_capped<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> io::Result<(Line, bool)> {
    let mut window = Window::new(reader, line, cap);
    let mut streamed = false;
    let outcome = match window.decode(&mut streamed) {
        Ok(line) => Ok(line),
        Err(Stop::Syntax(error)) => Err(error),
        Err(Stop::Io(error)) => return Err(error),
    };
    window.drain()?;
    let line = if window.too_long {
        Line::TooLong
    } else if let Some((at, len)) = window.not_utf8 {
        // As `std::str::Utf8Error` words it for the whole line.
        Line::Request(Err(not_utf8(&match len {
            Some(len) => format!("invalid utf-8 sequence of {len} bytes from index {at}"),
            None => format!("incomplete utf-8 byte sequence from index {at}"),
        })))
    } else {
        outcome.unwrap_or_else(|error| Line::Request(Err(error.into())))
    };
    Ok((line, streamed))
}

/// Bytes read into the window at a time.
const CHUNK: usize = 32 * 1024;

/// Why decoding stopped before the line's end.
enum Stop {
    /// A syntax error in the text.
    Syntax(JsonError),
    /// The transport failed.
    Io(io::Error),
}

impl From<JsonError> for Stop {
    fn from(error: JsonError) -> Self {
        Stop::Syntax(error)
    }
}

impl From<io::Error> for Stop {
    fn from(error: io::Error) -> Self {
        Stop::Io(error)
    }
}

type Decoded<T> = Result<T, Stop>;

/// The part of one line the decoder holds, and what it knows of the rest.
///
/// Offsets named "line offsets" count from the line's first byte, and
/// "text positions" from the first byte of the text that is left once the
/// line is trimmed of whitespace: the positions in error messages.  A run
/// of whitespace could be the line's last; the decoder learns that only
/// once it reads on to the line's end, so the text's end is fixed only
/// then ([`Window::skip_ws`]).
struct Window<'a, R> {
    reader: &'a mut R,
    /// The bytes read and not yet dropped; the cursor is `buf[pos]`.
    buf: &'a mut Vec<u8>,
    pos: usize,
    /// Line offset of `buf[0]`.
    origin: usize,
    /// Line bytes read so far, the newline not counted.
    read: usize,
    /// The most line bytes the line may have.
    cap: usize,
    /// `buf[..valid]` is UTF-8; what follows is part of one character.
    valid: usize,
    /// The newline, EOF or the cap was read.
    ended: bool,
    /// The line did not end within the cap.
    too_long: bool,
    /// Line offset and length of the first bytes that are not UTF-8 (no
    /// length: a character cut short by the line's end).
    not_utf8: Option<(usize, Option<usize>)>,
    /// Line offset of the text's first byte.
    start: usize,
    /// Line offset of the text's end, once the rest of the line is known
    /// to be whitespace.
    end: Option<usize>,
}

impl<'a, R: BufRead> Window<'a, R> {
    fn new(reader: &'a mut R, buf: &'a mut Vec<u8>, cap: usize) -> Self {
        let read = buf.len();
        let mut window = Window {
            reader,
            buf,
            pos: 0,
            origin: 0,
            read,
            cap,
            valid: 0,
            ended: false,
            too_long: false,
            not_utf8: None,
            start: 0,
            end: None,
        };
        window.validate();
        window
    }

    /// Decode the line: its leading whitespace, then its object, or all of
    /// it as [`Request::parse`] reads a line that is not an object.
    fn decode(&mut self, streamed: &mut bool) -> Decoded<Line> {
        if !self.skip_leading_whitespace()? {
            return Ok(Line::Blank);
        }
        self.start = self.origin + self.pos;
        if self.peek()? != Some(b'{') {
            let len = self.capture_to_end()?;
            return Ok(Line::Request(Request::parse(self.text(len)?)));
        }
        *streamed = true;
        let mut members = Members::default();
        self.object(&mut members)?;
        Ok(Line::Request(members.into_request()))
    }

    /// Read the top-level object and the end of the text, as
    /// [`Reader::object`] and [`Reader::finish`] read them.
    fn object(&mut self, members: &mut Members) -> Decoded<()> {
        // The cursor is on the `{`.
        self.pos += 1;
        let mut first = true;
        loop {
            self.skip_ws()?;
            let next = self.peek()?;
            if std::mem::take(&mut first) {
                if next == Some(b'}') {
                    self.pos += 1;
                    break;
                }
            } else {
                match next {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws()?;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("bad object")),
                }
            }
            if self.peek()? != Some(b'"') {
                return Err(self.error("expected '\"'"));
            }
            let key = self.buffered(1, |reader| reader.string().map(|key| key.into_owned()))?;
            self.skip_ws()?;
            if self.peek()? != Some(b':') {
                return Err(self.error("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws()?;
            match members.array_slot(&key) {
                Some(ArraySlot::Numbers(slot)) => *slot = Some(self.vec()?),
                Some(ArraySlot::Bools(slot)) => *slot = Some(self.vec()?),
                None => self.buffered(1, |reader| members.read(key.into(), reader))?,
            }
        }
        self.skip_ws()?;
        if self.peek()?.is_some() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    /// Read a member value as [`Reader::vec`] reads it, one element at a
    /// time off the window.
    fn vec<T: FromJson>(&mut self) -> Decoded<JsonResult<Vec<T>>> {
        if self.peek()? != Some(b'[') {
            let value = self.buffered(1, |reader| reader.value())?;
            return Ok(T::vec_from_json(&value));
        }
        self.pos += 1;
        let mut items = Items::default();
        let mut first = true;
        loop {
            self.skip_ws()?;
            let next = self.peek()?;
            if std::mem::take(&mut first) {
                if next == Some(b']') {
                    self.pos += 1;
                    break;
                }
            } else {
                match next {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws()?;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("bad array")),
                }
            }
            let item = self.element()?;
            items.push(item);
            self.packed_run(&mut items)?;
        }
        Ok(items.into_result())
    }

    /// Read on from the element just read, `,` and an element at a time,
    /// while the window holds them whole and each is a number or a bool:
    /// all of a packed array but the elements that straddle a read, with no
    /// call per byte.  Stops before anything else, which the caller reads
    /// (whitespace and separators here are the ones [`Window::vec`]
    /// accepts, so it reads on exactly as it would have).
    fn packed_run<T: FromJson>(&mut self, items: &mut Items<T>) -> Decoded<()> {
        let Ok(text) = std::str::from_utf8(&self.buf[self.pos..self.valid]) else {
            return Ok(());
        };
        let bytes = text.as_bytes();
        let skip_ws = |mut at: usize| {
            while let Some(b' ' | b'\t' | b'\r') = bytes.get(at) {
                at += 1;
            }
            at
        };
        let mut read = 0;
        loop {
            let comma = skip_ws(read);
            if bytes.get(comma) != Some(&b',') {
                break;
            }
            let mut at = skip_ws(comma + 1);
            let item = match bytes.get(at) {
                Some(b'-' | b'0'..=b'9') => {
                    let (len, number) = number_prefix(&text[at..]);
                    if at + len == bytes.len() {
                        // The token may go on past the window.
                        break;
                    }
                    at += len;
                    T::from_number(number?)
                }
                Some(b't') if bytes[at..].starts_with(b"true") => {
                    at += 4;
                    T::from_bool(true)
                }
                Some(b'f') if bytes[at..].starts_with(b"false") => {
                    at += 5;
                    T::from_bool(false)
                }
                _ => break,
            };
            items.push(item);
            read = at;
        }
        self.pos += read;
        Ok(())
    }

    /// Read the array element under the cursor, two containers deep, as
    /// [`Reader::vec`] reads one: a number or a bool straight off the
    /// window, any other value buffered.
    fn element<T: FromJson>(&mut self) -> Decoded<JsonResult<T>> {
        match self.peek()? {
            Some(b'-' | b'0'..=b'9') => {
                // Read on until something follows the token.
                let mut most = 64;
                loop {
                    let (len, number, whole) = {
                        let text = self.text_ahead(most);
                        let (len, number) = number_prefix(text);
                        (len, number, len < text.len())
                    };
                    if !whole && self.valid.saturating_sub(self.pos) > most {
                        most *= 2;
                        continue;
                    }
                    if whole || !self.fill()? {
                        self.pos += len;
                        return Ok(T::from_number(number?));
                    }
                }
            }
            Some(b't') => Ok(T::from_bool(self.literal("true", true)?)),
            Some(b'f') => Ok(T::from_bool(self.literal("false", false)?)),
            _ => Ok(T::from_json(&self.buffered(2, |reader| reader.value())?)),
        }
    }

    /// Read the literal `word`, which means `value`, under the cursor.
    fn literal(&mut self, word: &str, value: bool) -> Decoded<bool> {
        while self.buf.len() - self.pos < word.len() && self.fill()? {}
        if self.buf[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Up to `most` bytes of the text under the cursor, in whole characters.
    fn text_ahead(&self, most: usize) -> &str {
        let end = self.valid.min(self.pos + most).max(self.pos);
        whole_chars(&self.buf[self.pos..end])
    }

    /// Buffer the value under the cursor and read it with `read`, off a
    /// [`Reader`] `depth` containers deep whose positions are the line's.
    /// The cursor moves past what `read` read.
    fn buffered<T>(
        &mut self,
        depth: usize,
        read: impl FnOnce(&mut Reader<'_>) -> JsonResult<T>,
    ) -> Decoded<T> {
        let len = self.capture()?;
        let mut reader = Reader::within(self.text(len)?, self.at(), depth);
        let value = read(&mut reader)?;
        let consumed = reader.position();
        self.pos += consumed;
        Ok(value)
    }

    /// The `len` bytes under the cursor, as text.
    fn text(&self, len: usize) -> JsonResult<&str> {
        // Whole characters, all read: a capture ends on an ASCII byte or at
        // the end of the line.
        std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|error| JsonError::new(format!("request line is not UTF-8: {error}")))
    }

    /// Read ahead to the end of the value under the cursor, as far as a
    /// [`Reader`] would look to read it: a string to its closing quote, a
    /// container to its closing bracket, anything else up to a delimiter.
    /// Returns its length; at the end of the line, the length of the text
    /// left.  The cursor does not move.
    fn capture(&mut self) -> Decoded<usize> {
        let Some(first) = self.peek()? else {
            return Ok(0);
        };
        let mut len = 1;
        if !matches!(first, b'"' | b'[' | b'{') {
            // A scalar: its first byte, then up to a delimiter.
            loop {
                match self.byte_at(len)? {
                    None => return self.capture_to_end(),
                    Some(b',' | b']' | b'}' | b' ' | b'\t' | b'\r') => return Ok(len),
                    Some(_) => len += 1,
                }
            }
        }
        let mut depth = usize::from(first != b'"');
        let mut in_string = first == b'"';
        loop {
            let Some(b) = self.byte_at(len)? else {
                return self.capture_to_end();
            };
            len += 1;
            match (in_string, b) {
                (true, b'"') => {
                    in_string = false;
                    if depth == 0 {
                        return Ok(len);
                    }
                }
                // An escape's next byte never closes the string, nor do the
                // four hex digits of a `\u` one: the reader takes them
                // whatever they are.
                (true, b'\\') => {
                    len += if self.byte_at(len)? == Some(b'u') {
                        5
                    } else {
                        1
                    }
                }
                (true, _) => {}
                (false, b'"') => in_string = true,
                (false, b'[' | b'{') => depth += 1,
                (false, b']' | b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(len);
                    }
                }
                (false, _) => {}
            }
        }
    }

    /// Read to the end of the line, and return the length of the text left
    /// under the cursor: the rest of the line, trimmed of whitespace.
    fn capture_to_end(&mut self) -> Decoded<usize> {
        while self.fill()? {}
        let rest = std::str::from_utf8(&self.buf[self.pos..self.valid]).unwrap_or_default();
        Ok(rest.trim_end().len())
    }

    /// The byte `ahead` bytes past the cursor, read on as far as needed;
    /// `None` past the end of the line.
    fn byte_at(&mut self, ahead: usize) -> Decoded<Option<u8>> {
        loop {
            if let Some(&b) = self.buf.get(self.pos + ahead) {
                return Ok(Some(b));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// The byte under the cursor; `None` at the end of the text.
    fn peek(&mut self) -> Decoded<Option<u8>> {
        if self.end.is_some() {
            return Ok(None);
        }
        self.byte_at(0)
    }

    /// Skip JSON whitespace, as [`Reader`] does between tokens.  When the
    /// rest of the line is whitespace, the text ended where this skip
    /// began: the line is trimmed there.
    fn skip_ws(&mut self) -> Decoded<()> {
        if self.end.is_some() {
            return Ok(());
        }
        let from = self.origin + self.pos;
        while let Some(b) = self.byte_at(0)? {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                // Not whitespace of any kind, so not the line's end.
                _ if b.is_ascii() && !(b as char).is_whitespace() => return Ok(()),
                _ => break,
            }
        }
        if self.rest_is_whitespace()? {
            self.end = Some(from);
        }
        Ok(())
    }

    /// Whether everything from the cursor to the end of the line is
    /// whitespace, as `str::trim` sees it.  Reads ahead as far as it must,
    /// keeping what it read.
    fn rest_is_whitespace(&mut self) -> Decoded<bool> {
        let mut ahead = 0;
        loop {
            let at = self.pos + ahead;
            if at >= self.valid {
                if self.fill()? {
                    continue;
                }
                return Ok(true);
            }
            let c = whole_chars(&self.buf[at..self.valid.min(at + 4)])
                .chars()
                .next()
                .unwrap_or('\0');
            if !c.is_whitespace() {
                return Ok(false);
            }
            ahead += c.len_utf8();
        }
    }

    /// Skip the whitespace that starts the line.  Returns whether any text
    /// follows it.
    fn skip_leading_whitespace(&mut self) -> Decoded<bool> {
        loop {
            let rest = std::str::from_utf8(&self.buf[self.pos..self.valid]).unwrap_or_default();
            let text = rest.trim_start();
            self.pos += rest.len() - text.len();
            if !text.is_empty() {
                return Ok(true);
            }
            if !self.fill()? {
                return Ok(false);
            }
        }
    }

    /// The syntax error `what` at the cursor.
    fn error(&self, what: &str) -> Stop {
        Stop::Syntax(JsonError::new(format!("{what} at byte {}", self.at())))
    }

    /// The cursor's text position.
    fn at(&self) -> usize {
        self.end.unwrap_or(self.origin + self.pos) - self.start
    }

    /// Read more of the line, dropping what the cursor passed.  Returns
    /// whether the text goes on: `false` at the line's end, and once the
    /// line is known not to be UTF-8 (its answer no longer depends on it).
    fn fill(&mut self) -> io::Result<bool> {
        if self.ended || self.not_utf8.is_some() {
            return Ok(false);
        }
        self.discard(self.pos);
        Ok(self.read_more()? > 0 && self.not_utf8.is_none())
    }

    /// Read the rest of the line, keeping none of it, to learn whether it
    /// is too long or not UTF-8.
    fn drain(&mut self) -> io::Result<()> {
        while !self.ended {
            let dropped = if self.not_utf8.is_some() {
                self.buf.len()
            } else {
                self.valid
            };
            self.discard(dropped);
            self.read_more()?;
        }
        Ok(())
    }

    /// Drop the first `count` bytes of the window.
    fn discard(&mut self, count: usize) {
        self.buf.drain(..count);
        self.origin += count;
        self.pos = self.pos.saturating_sub(count);
        self.valid = self.valid.saturating_sub(count);
    }

    /// Append up to [`CHUNK`] bytes of the line to the window.  Returns how
    /// many.
    fn read_more(&mut self) -> io::Result<usize> {
        // Bytes the line may still take, its newline included.
        let room = self.cap + 1 - self.read;
        let want = CHUNK.min(room);
        if self.buf.capacity() - self.buf.len() < want {
            // Only a value buffered whole outgrows the window.  Reserved at
            // the cap in one step, the buffer is mapped on its own (it is
            // past glibc's largest mmap threshold), so its pages are
            // resident only as far as the value reaches and go back to the
            // OS when it is freed.  Grown by doubling, it would pass through
            // sizes that malloc serves from the thread's arena and keeps
            // there after the free.
            self.buf.reserve_exact(room);
        }
        let before = self.buf.len();
        let taken = (&mut *self.reader)
            .take(want as u64)
            .read_until(b'\n', self.buf)?;
        if taken == 0 {
            self.ended = true;
        } else if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            self.read += taken - 1;
            self.ended = true;
        } else {
            self.read += taken;
            if self.read > self.cap {
                self.too_long = true;
                self.ended = true;
            }
        }
        self.validate();
        Ok(self.buf.len() - before)
    }

    /// Check the bytes read since the last check are UTF-8, up to the first
    /// that are not.
    fn validate(&mut self) {
        if self.not_utf8.is_some() {
            return;
        }
        match std::str::from_utf8(&self.buf[self.valid..]) {
            Ok(_) => self.valid = self.buf.len(),
            Err(error) => {
                self.valid += error.valid_up_to();
                let at = self.origin + self.valid;
                match error.error_len() {
                    Some(len) => self.not_utf8 = Some((at, Some(len))),
                    None if self.ended => self.not_utf8 = Some((at, None)),
                    // The rest of the character is still to come.
                    None => {}
                }
            }
        }
    }
}

/// The elements of an array decoded so far, or why one was refused: after a
/// refusal the rest of the array is only read, for its syntax.
struct Items<T> {
    list: Vec<T>,
    refused: Option<JsonError>,
}

impl<T> Default for Items<T> {
    fn default() -> Self {
        Items {
            list: Vec::new(),
            refused: None,
        }
    }
}

impl<T> Items<T> {
    #[inline]
    fn push(&mut self, item: JsonResult<T>) {
        if self.refused.is_none() {
            match item {
                Ok(item) => self.list.push(item),
                Err(error) => self.refused = Some(error),
            }
        }
    }

    fn into_result(self) -> JsonResult<Vec<T>> {
        match self.refused {
            Some(error) => Err(error),
            None => Ok(self.list),
        }
    }
}

/// The longest prefix of `bytes` that is whole UTF-8 characters.
fn whole_chars(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(error) => std::str::from_utf8(&bytes[..error.valid_up_to()]).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    //! The streamed decoder against the whole line decoded in memory, the
    //! oracle: generated request lines (keys in any order and repeated,
    //! arrays of mixed and nested values, whitespace of every kind between
    //! tokens and around the object, bytes that are not UTF-8, newlines and
    //! truncations at random offsets, lines past the cap) read off readers
    //! that hand out 1..n bytes at a time through `BufReader`s of any
    //! capacity down to 1, from heads of any length.  Each line must decode
    //! to the oracle's `Line`, and leave the same bytes unread for the next.

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::{BufReader, Read};

    /// A reader that hands out 1..=`most` bytes per read.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        most: usize,
        rng: StdRng,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self
                .rng
                .gen_range(1..=self.most)
                .min(buf.len())
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn pick<'a>(rng: &mut StdRng, choices: &[&'a str]) -> &'a str {
        choices[rng.gen_range(0..choices.len())]
    }

    /// Whitespace between tokens: mostly none or JSON's, now and then
    /// Unicode's (a syntax error inside the object).
    fn space(rng: &mut StdRng) -> &'static str {
        match rng.gen_range(0..40) {
            0..=24 => "",
            25..=32 => " ",
            33 => "\t",
            34 => "\r",
            35 => "  \r\t ",
            36 => "\u{a0}",
            37 => "\u{3000}",
            38 => "\u{b}",
            _ => "\u{2028} ",
        }
    }

    fn number(rng: &mut StdRng) -> String {
        match rng.gen_range(0..12) {
            0 => rng.gen_range(0..1_000_000u64).to_string(),
            1 => format!("-{}", rng.gen_range(0..100u64)),
            2 => format!("{:e}", rng.gen::<f64>()),
            3 => format!("{:E}", -rng.gen::<f64>() * 1e300),
            4 => pick(
                rng,
                &[
                    "1e999",
                    "-0",
                    "0.5e+",
                    "01",
                    "1.",
                    "-",
                    "2e-400",
                    "12345678901234567",
                ],
            )
            .to_string(),
            _ => {
                let mut text = String::new();
                serde::json::write_number(rng.gen::<f64>(), &mut text);
                text
            }
        }
    }

    fn string(rng: &mut StdRng) -> String {
        pick(
            rng,
            &[
                "\"p\"",
                "\"load_pool\"",
                "\"inf\"",
                "\"NaN\"",
                "\"x\\\"y\\\\\"",
                "\"\\u00e9\\ud83e\\udd80\"",
                "\"\\u12\"",
                "\"\\ud800\"",
                "\"caf\u{e9}\"",
                "\"tab\there\"",
            ],
        )
        .to_string()
    }

    /// Any value, `depth` containers deep at most.
    fn value(rng: &mut StdRng, depth: usize) -> String {
        match rng.gen_range(0..if depth == 0 { 6 } else { 9 }) {
            0 | 1 => number(rng),
            2 => string(rng),
            3 => pick(rng, &["true", "false", "null", "tru", "nul"]).to_string(),
            4 | 5 => pick(rng, &["[]", "{}", "@", "[1,]", "{\"a\"}"]).to_string(),
            6 => array(rng, depth - 1, |rng| value(rng, depth - 1)),
            7 => packed(rng),
            _ => {
                let members: Vec<String> = (0..rng.gen_range(0..3))
                    .map(|_| format!("{}:{}", string(rng), value(rng, depth - 1)))
                    .collect();
                format!("{{{}}}", members.join(","))
            }
        }
    }

    fn array(
        rng: &mut StdRng,
        len: usize,
        mut element: impl FnMut(&mut StdRng) -> String,
    ) -> String {
        let mut out = String::from("[");
        out.push_str(space(rng));
        for i in 0..rng.gen_range(0..=len.max(1) * 40) {
            if i > 0 {
                out.push_str(space(rng));
                out.push(',');
                out.push_str(space(rng));
            }
            out.push_str(&element(rng));
        }
        out.push_str(space(rng));
        out.push(']');
        out
    }

    /// An array of numbers or bools, now and then with an element of
    /// another kind.
    fn packed(rng: &mut StdRng) -> String {
        let bools = rng.gen_bool(0.4);
        let odd = rng.gen_range(0..4) == 0;
        array(rng, 5, |rng| {
            if odd && rng.gen_range(0..30) == 0 {
                value(rng, 2)
            } else if bools {
                pick(rng, &["true", "false"]).to_string()
            } else {
                number(rng)
            }
        })
    }

    fn labels(rng: &mut StdRng) -> String {
        array(rng, 1, |rng| match rng.gen_range(0..10) {
            0 => value(rng, 1),
            1 => "{\"label\":true,\"ticket\":7,\"ticket\":\"8\"}".to_string(),
            _ => format!(
                "{{\"ticket\":\"{}\",\"label\":{}}}",
                rng.gen_range(0..100u64),
                pick(rng, &["true", "false", "1"])
            ),
        })
    }

    /// A request object's text.
    fn object(rng: &mut StdRng) -> String {
        let mut members = Vec::new();
        for _ in 0..rng.gen_range(0..9) {
            let (key, value) = match rng.gen_range(0..12) {
                0 | 1 => (
                    "\"cmd\"",
                    pick(
                        rng,
                        &[
                            "\"load_pool\"",
                            "\"create_session\"",
                            "\"label\"",
                            "\"bogus\"",
                            "7",
                        ],
                    )
                    .to_string(),
                ),
                2 => ("\"pool\"", string(rng)),
                3 | 4 => ("\"scores\"", packed(rng)),
                5 => ("\"predictions\"", packed(rng)),
                6 => ("\"truth\"", packed(rng)),
                7 => ("\"labels\"", labels(rng)),
                8 => ("\"session\"", string(rng)),
                9 => ("\"seed\"", number(rng)),
                10 => ("\"sc\\u006fres\"", packed(rng)),
                _ => ("\"note\"", value(rng, 3)),
            };
            members.push(format!("{key}{}:{}{value}", space(rng), space(rng)));
        }
        let mut out = String::from("{");
        for (i, member) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(space(rng));
                out.push(',');
            }
            out.push_str(space(rng));
            out.push_str(member);
        }
        out.push_str(space(rng));
        out.push('}');
        out
    }

    /// One line's bytes, newline excluded: mostly an object, with its
    /// surroundings and damage.
    fn line(rng: &mut StdRng) -> Vec<u8> {
        let mut text = match rng.gen_range(0..20) {
            0 => value(rng, 3),
            1 => String::new(),
            _ => object(rng),
        };
        if rng.gen_range(0..6) == 0 {
            // Cut short, so the text ends inside the object.
            let mut at = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.truncate(at);
        }
        if rng.gen_range(0..4) == 0 {
            text.insert_str(
                0,
                pick(rng, &[" ", "\u{a0}\t", "\u{feff}", "\u{3000} \u{85}"]),
            );
        }
        if rng.gen_range(0..4) == 0 {
            text.push_str(pick(
                rng,
                &[
                    "\r",
                    " \u{2028}",
                    "\u{a0}",
                    "x",
                    " }",
                    "\u{85}\r",
                    "\u{c}\u{b}",
                ],
            ));
        }
        let mut bytes = text.into_bytes();
        for _ in 0..rng.gen_range(0..3) {
            if bytes.is_empty() || rng.gen_range(0..3) != 0 {
                continue;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..7) {
                0 => bytes.truncate(at),
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, b'\n'),
                3 => bytes.insert(at, 0xff),
                4 => bytes.insert(at, 0xc3),
                5 => bytes.splice(at..at, [0xe2, 0x80]).for_each(drop),
                _ => bytes.insert(at, b'"'),
            }
        }
        bytes
    }

    /// The next line's bytes, which the decoder must leave unread.
    const NEXT: &[u8] = b"{\"cmd\":\"sessions\"}\n";

    fn check(rng: &mut StdRng) -> Result<(), String> {
        let content = line(rng);
        let mut data = content.clone();
        if rng.gen_range(0..8) != 0 {
            data.push(b'\n');
            data.extend_from_slice(NEXT);
        }
        // The line ends at its first newline.
        let raw_end = data.iter().position(|&b| b == b'\n').unwrap_or(data.len());
        let raw = &data[..raw_end];
        let cap = match rng.gen_range(0..4) {
            0 => raw.len().saturating_sub(rng.gen_range(0..3usize)).max(1),
            1 => raw.len() + rng.gen_range(0..3usize),
            _ => raw.len() + 1_000,
        };
        let head = rng.gen_range(0..=raw.len().min(cap));
        let expected = if raw.len() > cap {
            Line::TooLong
        } else {
            decode(raw)
        };
        // The serving loop drops the rest of a line past the cap.
        let unread = if raw.len() > cap {
            data[cap + 1..].to_vec()
        } else {
            data[(raw_end + 1).min(data.len())..].to_vec()
        };
        let trickle = Trickle {
            data: data[head..].to_vec(),
            pos: 0,
            most: rng.gen_range(1..=64),
            rng: StdRng::seed_from_u64(rng.gen()),
        };
        let mut reader = BufReader::with_capacity(rng.gen_range(1..=96), trickle);
        let mut window = data[..head].to_vec();
        let (actual, _) =
            read_rest_capped(&mut reader, &mut window, cap).map_err(|e| e.to_string())?;
        let mut left = Vec::new();
        reader.read_to_end(&mut left).map_err(|e| e.to_string())?;
        let shown = String::from_utf8_lossy(&data);
        if actual != expected {
            return Err(format!(
                "line {shown:?} (head {head}, cap {cap}):\n  streamed {actual:?}\n  in memory {expected:?}"
            ));
        }
        if left != unread {
            return Err(format!(
                "line {shown:?} (head {head}, cap {cap}) left {:?}, not {:?}",
                String::from_utf8_lossy(&left),
                String::from_utf8_lossy(&unread)
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streamed_lines_decode_as_whole_lines_do(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                if let Err(diff) = check(&mut rng) {
                    prop_assert!(false, "{}", diff);
                }
            }
        }
    }

    #[test]
    fn a_line_of_whitespace_is_blank_and_one_past_the_cap_too_long() {
        let mut reader = " \t\u{3000}\n".as_bytes();
        let mut head = b"  ".to_vec();
        assert_eq!(
            read_rest_capped(&mut reader, &mut head, 100).unwrap().0,
            Line::Blank
        );
        let mut reader = &b"{}  x"[..];
        let mut head = b"{\"cmd\":".to_vec();
        assert_eq!(
            read_rest_capped(&mut reader, &mut head, 10).unwrap().0,
            Line::TooLong
        );
    }
}
