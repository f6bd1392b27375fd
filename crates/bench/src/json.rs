//! A minimal hand-rolled JSON value and writer for the sweep runner's
//! `BENCH_*.json` results files.
//!
//! The build environment has no crates.io access, so no serde; the
//! runner's output is small and flat enough that a tiny value tree plus
//! a deterministic writer covers it. Object keys are emitted in sorted
//! order so two reports with the same content serialize byte-identically
//! regardless of construction order — the property the determinism tests
//! rely on.

use std::error::Error;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, byte counts, cycle counts).
    U64(u64),
    /// A float; non-finite values serialize as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted at write time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Parses JSON text (the inverse of [`to_compact`](Self::to_compact) /
    /// [`to_pretty`](Self::to_pretty)). Non-negative integers without a
    /// fraction or exponent parse as [`Json::U64`], every other number as
    /// [`Json::F64`] — matching what the writers emit, so
    /// `parse(x.to_compact())` reproduces `x` for any tree the suite
    /// writes. Used by the smoke and determinism tests to validate and
    /// compare committed reports.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets `key` in an object to `value`, replacing any earlier value;
    /// a no-op for non-objects. The inverse of [`remove`](Self::remove).
    pub fn insert(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, old)) => *old = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    /// Removes `key` from an object, returning its value. `None` when
    /// absent or for non-objects.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => {
                let pos = pairs.iter().position(|(k, _)| k == key)?;
                Some(pairs.remove(pos).1)
            }
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), keys sorted.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, keys sorted.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if !x.is_finite() => out.push_str("null"),
            Json::F64(x) => {
                // Rust's Display prints the shortest string that parses
                // back to the same f64, so this round-trips bit-exactly.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                write_seq(out, indent, depth, '{', '}', order.len(), |out, i| {
                    let (key, value) = &pairs[order[i]];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// A [`Json::parse`] failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub reason: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            reason,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, reason: &'static str) -> Result<(), JsonParseError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(reason))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs in one shot (input is valid UTF-8).
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?,
                );
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else {
                                first
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                None => return Err(self.error("unterminated string")),
                Some(_) => unreachable!("copy loop stops only at quote or backslash"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::F64(x)),
            Err(_) => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_regardless_of_insertion() {
        let a = Json::obj([("zeta", Json::U64(1)), ("alpha", Json::U64(2))]);
        let b = Json::obj([("alpha", Json::U64(2)), ("zeta", Json::U64(1))]);
        assert_eq!(a.to_compact(), b.to_compact());
        assert_eq!(a.to_compact(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn floats_round_trip_and_nan_is_null() {
        let v = Json::Arr(vec![
            Json::F64(0.1 + 0.2),
            Json::F64(1.0),
            Json::F64(f64::NAN),
        ]);
        let text = v.to_compact();
        assert!(text.starts_with("[0.30000000000000004,1,"));
        assert!(text.ends_with("null]"));
        let back: f64 = "0.30000000000000004".parse().unwrap();
        assert_eq!(back, 0.1 + 0.2);
    }

    #[test]
    fn strings_escape_control_characters() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn pretty_nests_with_two_spaces() {
        let v = Json::obj([("a", Json::Arr(vec![Json::U64(1), Json::U64(2)]))]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn empty_containers_stay_flat() {
        assert_eq!(Json::Arr(vec![]).to_pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).to_compact(), "{}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("counts", Json::Arr(vec![Json::U64(3), Json::U64(0)])),
            ("rate", Json::F64(0.30000000000000004)),
            ("name", Json::str("NASA7 \"x\"\n")),
            ("none", Json::Null),
            ("flag", Json::Bool(true)),
            ("neg", Json::F64(-1.5e-3)),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.to_compact(), v.to_compact());
        }
    }

    #[test]
    fn parse_classifies_numbers_like_the_writer() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::F64(-42.0));
        assert_eq!(Json::parse("4.5").unwrap(), Json::F64(4.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        // Too big for u64 still parses, as a float.
        assert_eq!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::F64(1e23)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"\\q\"",
            "1 2",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("Aé😀")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn get_insert_and_remove_access_objects() {
        let mut v = Json::obj([("jobs", Json::U64(8)), ("cells", Json::U64(90))]);
        assert_eq!(v.get("jobs"), Some(&Json::U64(8)));
        assert_eq!(v.remove("jobs"), Some(Json::U64(8)));
        assert_eq!(v.get("jobs"), None);
        assert_eq!(v.remove("missing"), None);
        assert_eq!(Json::U64(1).get("jobs"), None);
        v.insert("jobs", Json::U64(2));
        v.insert("cells", Json::U64(4));
        assert_eq!(v.to_compact(), "{\"cells\":4,\"jobs\":2}");
        let mut n = Json::U64(1);
        n.insert("jobs", Json::U64(2));
        assert_eq!(n, Json::U64(1));
    }
}
