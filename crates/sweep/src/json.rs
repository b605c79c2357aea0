//! A dependency-free JSON value tree with deterministic rendering and
//! a small reader.
//!
//! The workspace is offline (no serde), but sweep runs need structured
//! artifacts (`experiments --json out.json`) and the artifact-diff
//! mode (`experiments --diff`) needs to read them back. This module
//! hand-rolls both halves of JSON: build a [`Json`] tree, render it
//! with [`Json::render`], and parse a document with [`Json::parse`]. Object keys keep insertion order and numbers
//! render via Rust's shortest-roundtrip formatting, so the output is a
//! pure function of the tree — byte-identical across runs, platforms,
//! and `--jobs` values.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (no hashing), which
/// keeps rendering deterministic.
///
/// # Examples
///
/// ```
/// use radio_sweep::Json;
///
/// let doc = Json::obj([
///     ("id", Json::str("E1")),
///     ("ok", Json::Bool(true)),
///     ("rounds", Json::arr([Json::U64(12), Json::U64(17)])),
/// ]);
/// assert_eq!(
///     doc.render(),
///     r#"{"id":"E1","ok":true,"rounds":[12,17]}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (exact, no float rounding).
    U64(u64),
    /// A finite float; non-finite values render as `null`.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array from an iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders human-readable JSON with two-space indentation and a
    /// trailing newline, for on-disk artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

impl Json {
    /// Parses a JSON document (the reading half of the artifact
    /// round-trip). Numbers parse as [`Json::U64`] when they are plain
    /// unsigned integers and as [`Json::F64`] otherwise; objects keep
    /// key order. One normalization follows: a [`Json::F64`] holding a
    /// whole value renders as an integer literal (`3.0` → `"3"`) and
    /// re-parses as [`Json::U64`], so compare parsed trees against
    /// parsed trees (or via [`Json::render`]), not against hand-built
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax
    /// error, of arrays and objects nested deeper than `MAX_DEPTH`
    /// (128) levels, or of trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Artifacts
/// nest under 10 levels; the cap turns hostile input that would
/// overflow the parser's recursion into an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
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
                            // Exactly four hex digits (`from_str_radix`
                            // would also take a leading `+`).
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?
                                .iter()
                                .try_fold(0, |code, &b| {
                                    Some(code * 16 + char::from(b).to_digit(16)?)
                                })
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // artifacts (the writer only \u-escapes
                            // control characters); reject them rather
                            // than decode them wrongly.
                            let c = char::from_u32(code).ok_or_else(|| {
                                format!("unsupported \\u escape at byte {}", self.pos)
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// Skips ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number by JSON's grammar, `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`,
    /// and finite: a `U64` if it is a non-negative integer that fits,
    /// an `F64` otherwise.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = |what: &str, at: usize| format!("{what} in number at byte {at}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            // A digit after a leading `0` is left for the caller, which
            // rejects it as trailing text.
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad("missing integer part", self.pos)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad("missing fraction digits", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad("missing exponent digits", self.pos));
            }
        }
        // Only ASCII was consumed above.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(format!("number `{text}` out of range at byte {start}")),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{}` is Rust's shortest-roundtrip formatting: deterministic,
        // and always a valid JSON number for finite inputs.
        let _ = write!(out, "{x}");
    } else {
        // JSON has no NaN/Infinity.
        out.push_str("null");
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
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(false).render(), "false");
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn escaping() {
        let s = Json::str("a\"b\\c\nd\te\u{1}f — τ");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001f — τ\"");
    }

    #[test]
    fn nested_structure() {
        let doc = Json::obj([
            ("a", Json::arr([Json::U64(1), Json::Null])),
            ("b", Json::obj([("c", Json::str("x"))])),
        ]);
        assert_eq!(doc.render(), r#"{"a":[1,null],"b":{"c":"x"}}"#);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let doc = Json::obj([
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<String>([])),
            ("xs", Json::arr([Json::U64(1), Json::U64(2)])),
        ]);
        let pretty = doc.render_pretty();
        assert!(pretty.starts_with("{\n"));
        assert!(pretty.ends_with("}\n"));
        assert!(pretty.contains("\"empty_arr\": []"));
        assert!(pretty.contains("\"xs\": [\n    1,\n    2\n  ]"));
    }

    #[test]
    fn key_order_is_insertion_order() {
        let doc = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(doc.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn whole_valued_f64_normalizes_to_u64_on_reparse() {
        assert_eq!(Json::F64(3.0).render(), "3");
        assert_eq!(Json::parse("3").unwrap(), Json::U64(3));
        // Parsed-vs-parsed comparison is stable even so.
        assert_eq!(
            Json::parse(&Json::F64(3.0).render()).unwrap(),
            Json::parse("3").unwrap()
        );
    }

    #[test]
    fn parse_round_trips_render() {
        let doc = Json::obj([
            ("schema", Json::str("noisy-radio/experiments/v1")),
            ("seed", Json::U64(42)),
            ("pi", Json::F64(3.25)),
            ("neg", Json::F64(-7.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::arr([Json::arr([Json::str("a — τ\n")]), Json::arr([])]),
            ),
            ("empty", Json::obj::<String>([])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            let back = Json::parse(&text).expect("round trip");
            assert_eq!(back, doc, "failed on {text}");
        }
    }

    #[test]
    fn parse_accessors() {
        let doc = Json::parse(r#"{"a": [1, 2], "b": "x", "ok": false}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(3).get("a"), None);
        assert_eq!(Json::U64(3).as_str(), None);
        assert_eq!(Json::U64(3).as_arr(), None);
        assert_eq!(Json::U64(3).as_bool(), None);
    }

    #[test]
    fn parse_escapes() {
        let back = Json::parse(r#""a\"b\\c\nd\te\u0001f""#).unwrap();
        assert_eq!(back, Json::str("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nulllll").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Deep enough to overflow the stack without the cap.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }
}
