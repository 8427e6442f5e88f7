//! Hand-rolled JSON-lines output.
//!
//! The build environment is offline, so there is no `serde`; the subset of
//! JSON the harness needs (flat objects, strings, integers, floats, and
//! `[node, ns]` pair arrays) is small enough to emit by hand. The one part
//! that must be *correct* rather than merely convenient is string
//! escaping — labels contain `<`, `>`, commas today and arbitrary text
//! tomorrow — so [`escape_json`] and its inverse [`unescape_json`] are
//! round-trip tested over the full control-character range.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::fields::FieldValue;
use crate::record::RunRecord;

/// Escapes a string for inclusion in a JSON string literal (RFC 8259):
/// quotes, backslashes, and all control characters below U+0020.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_json`]: decodes the escape sequences of a JSON
/// string body (the text between the quotes). Returns `None` on a
/// malformed escape. Surrogate pairs are accepted for completeness even
/// though [`escape_json`] never emits them.
#[must_use]
pub fn unescape_json(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{08}'),
            'f' => out.push('\u{0C}'),
            'u' => {
                let mut code = read_hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: a low surrogate escape must follow.
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let low = read_hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return None;
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

fn read_hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.to_digit(16)?;
    }
    Some(code)
}

/// Formats a float as a JSON value: shortest round-trip representation
/// for finite values, `null` for NaN/infinities (which JSON cannot carry).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An incremental flat-object builder (the only JSON shape the harness
/// emits).
///
/// # Examples
///
/// ```
/// use ddp_harness::JsonObject;
///
/// let mut o = JsonObject::new();
/// o.str("name", "a \"quoted\" label");
/// o.u64("count", 3);
/// o.f64("ratio", 0.5);
/// assert_eq!(
///     o.finish(),
///     r#"{"name":"a \"quoted\" label","count":3,"ratio":0.5}"#
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape_json(key));
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape_json(value));
    }

    /// Adds an unsigned-integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a float field (`null` if not finite).
    pub fn f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.buf.push_str(&json_f64(value));
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a pre-serialized JSON value verbatim (arrays, nested objects).
    pub fn raw(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push_str(value);
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Opens one line of a `--trace` or `--timeline` stream with its identity
/// columns: `shard` (fleet trials only), then `trial`, the grid index of
/// the run the line belongs to.
#[must_use]
pub(crate) fn stream_line(trial: usize, shard: Option<u16>) -> JsonObject {
    let mut o = JsonObject::new();
    if let Some(shard) = shard {
        o.u64("shard", u64::from(shard));
    }
    o.u64("trial", trial as u64);
    o
}

/// Serializes `(node, ns)` event traces as `[[node,ns],...]`.
#[must_use]
pub(crate) fn json_events(events: &[(u8, u64)]) -> String {
    let cells: Vec<String> = events.iter().map(|(n, t)| format!("[{n},{t}]")).collect();
    format!("[{}]", cells.join(","))
}

/// Serializes one run record as a single JSON object (one JSON-lines row).
///
/// The field list comes from [`record_fields`](crate::fields::record_fields)
/// — the same schema the CSV writer walks, so the two formats cannot
/// drift. Records contain only simulation output, so the serialized form
/// is byte-identical no matter how many threads executed the sweep.
#[must_use]
pub fn record_to_json(r: &RunRecord) -> String {
    let mut o = JsonObject::new();
    for (name, value) in crate::fields::record_fields(r) {
        match value {
            FieldValue::U64(v) => o.u64(name, v),
            FieldValue::F64(v) => o.f64(name, v),
            FieldValue::Str(v) => o.str(name, &v),
            FieldValue::Pairs(v) => o.raw(name, &json_events(v)),
        }
    }
    o.finish()
}

/// A JSON-lines file writer: one record per line, flushed on drop.
#[derive(Debug)]
pub struct JsonLinesWriter {
    out: BufWriter<File>,
    path: PathBuf,
    lines: u64,
}

impl JsonLinesWriter {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        Ok(JsonLinesWriter {
            out: BufWriter::new(File::create(&path)?),
            path,
            lines: 0,
        })
    }

    /// Writes one pre-serialized JSON value as a line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_line(&mut self, json: &str) -> io::Result<()> {
        self.out.write_all(json.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Writes one run record as a line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.write_line(&record_to_json(record))
    }

    /// Writes a batch of records, one line each, in slice order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_records(&mut self, records: &[RunRecord]) -> io::Result<()> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The path being written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_specials_and_controls() {
        let mut nasty =
            String::from("plain <model, label> \"quoted\" back\\slash\n\r\t\u{08}\u{0C}");
        for c in 0u32..0x20 {
            nasty.push(char::from_u32(c).unwrap());
        }
        nasty.push('\u{1F600}'); // astral, must pass through unescaped
        let escaped = escape_json(&nasty);
        assert!(!escaped.contains('\u{01}'), "control chars must be escaped");
        assert_eq!(unescape_json(&escaped).as_deref(), Some(nasty.as_str()));
    }

    #[test]
    fn unescape_decodes_surrogate_pairs_and_rejects_malformed() {
        assert_eq!(
            unescape_json("\\ud83d\\ude00").as_deref(),
            Some("\u{1F600}")
        );
        assert_eq!(unescape_json("\\u0041"), Some("A".to_string()));
        assert!(unescape_json("\\q").is_none());
        assert!(unescape_json("\\u00").is_none());
        assert!(unescape_json("\\ud83d alone").is_none());
        assert!(unescape_json("trailing \\").is_none());
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_emits_flat_json() {
        let mut o = JsonObject::new();
        o.str("a", "x\"y");
        o.u64("b", 7);
        o.f64("c", 0.25);
        o.bool("d", true);
        o.raw("e", "[1,2]");
        assert_eq!(
            o.finish(),
            r#"{"a":"x\"y","b":7,"c":0.25,"d":true,"e":[1,2]}"#
        );
    }

    #[test]
    fn events_serialize_as_pair_arrays() {
        assert_eq!(json_events(&[]), "[]");
        assert_eq!(json_events(&[(2, 100), (3, 7)]), "[[2,100],[3,7]]");
    }
}
