//! A minimal, dependency-free JSON document model.
//!
//! Everything that crosses a process boundary — campaign
//! [`crate::campaign::ExperimentSpec`] files, the persistent
//! [`crate::backend::SharedCache`] table, the bench bins' `BENCH_*.json`
//! records — serialises through this module. [`Json`] is a plain document
//! tree with a recursive-descent parser and a deterministic pretty-printer;
//! numbers keep their raw source token so `u64` values round-trip without
//! `f64` precision loss.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (lossless integer round-trips).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

/// A parse or schema error, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// A number node from an `f64`.
    pub fn f64(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            // JSON has no Infinity/NaN; null is the conventional stand-in.
            Json::Null
        }
    }

    /// A number node from a `u64` (lossless).
    pub fn u64(v: u64) -> Self {
        Json::Num(v.to_string())
    }

    /// A string node.
    pub fn str(v: impl Into<String>) -> Self {
        Json::Str(v.into())
    }

    /// An object node from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key of an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`.
    ///
    /// # Errors
    ///
    /// Fails unless the node is a parseable number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|e| JsonError(format!("bad number `{raw}`: {e}"))),
            other => err(format!("expected a number, got {other:?}")),
        }
    }

    /// The value as `u64` (must be a non-negative integer token).
    ///
    /// # Errors
    ///
    /// Fails unless the node is a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|e| JsonError(format!("bad integer `{raw}`: {e}"))),
            other => err(format!("expected an integer, got {other:?}")),
        }
    }

    /// The value as `usize`.
    ///
    /// # Errors
    ///
    /// Fails unless the node is a non-negative integer that fits `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| JsonError(format!("integer {v} overflows usize")))
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// Fails unless the node is a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected a boolean, got {other:?}")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Fails unless the node is a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected a string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Fails unless the node is an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected an array, got {other:?}")),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, trailing garbage, or arrays and objects
    /// nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Pretty-prints the document with two-space indentation and a
    /// trailing newline — the stable on-disk form.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap a request body of a
/// few megabytes of `[` would overflow the stack; the documents this
/// workspace writes nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// What the cursor is on, as an error message names it: `end of
    /// input`, or the character in backticks. The cursor only stops
    /// between tokens of the source text, so the rest decodes.
    fn found(&self) -> String {
        match self.peek() {
            None => "end of input".into(),
            Some(b) => {
                let c = std::str::from_utf8(&self.bytes[self.pos..])
                    .ok()
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(b as char);
                format!("`{c}`")
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}, found {}",
                b as char,
                self.pos,
                self.found()
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected {} at byte {}", self.found(), self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_owned();
        // Validate eagerly so malformed tokens fail at parse time.
        raw.parse::<f64>()
            .map_err(|e| JsonError(format!("bad number `{raw}`: {e}")))?;
        Ok(Json::Num(raw))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| JsonError("non-ASCII \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the ASCII
                            // identifiers this module serialises; map
                            // unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    if start + len > self.bytes.len() {
                        return err("truncated UTF-8 sequence");
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| JsonError("invalid UTF-8 in string".into()))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return err(format!(
                        "expected `,` or `]` at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => {
                    return err(format!(
                        "expected `,` or `}}` at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1.5", "1e9", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(v.pretty().trim()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_is_lossless() {
        let big = u64::MAX - 3;
        let v = Json::u64(big);
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(back.as_u64().unwrap(), big);
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::obj(vec![
            ("name", Json::str("campaign")),
            (
                "items",
                Json::Arr(vec![
                    Json::f64(1.25),
                    Json::Bool(true),
                    Json::Null,
                    Json::obj(vec![("k", Json::str("v\"esc\\aped\n"))]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn get_finds_object_keys() {
        let doc = Json::parse("{\"a\": 1, \"b\": {\"c\": \"x\"}}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64().unwrap(), 1);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x"
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\": ]}",
            "[1 2]",
            "{\"a\": 1",
            "[é]",
        ] {
            let e = Json::parse(bad).expect_err(bad);
            // The message names what it found, not a Rust `Option`.
            assert!(
                !e.0.contains("None") && !e.0.contains("Some("),
                "{bad:?}: {e}"
            );
        }
        let message = |text: &str| Json::parse(text).unwrap_err().0;
        assert!(message("{").contains("end of input"), "{}", message("{"));
        assert_eq!(message("{\"a\": ]}"), "unexpected `]` at byte 6");
        assert_eq!(message("[1 2]"), "expected `,` or `]` at byte 3, found `2`");
        assert_eq!(message("[é]"), "unexpected `é` at byte 1");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than"), "{err}");
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn whitespace_and_escapes_are_handled() {
        let doc = Json::parse(" {\n\t\"k\" : \"a\\u0041\\n\" , \"l\": [ ] } ").unwrap();
        assert_eq!(doc.get("k").unwrap().as_str().unwrap(), "aA\n");
        assert_eq!(doc.get("l").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn unicode_strings_survive() {
        let doc = Json::obj(vec![("s", Json::str("λ→δ — ünïcode"))]);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }
}
