//! The tree's one JSON module: a value type, a depth-limited parser, a
//! compact writer and the string escape every JSON producer shares.
//!
//! Zero dependencies, like every artifact format in the repo. The
//! `descendc serve` protocol, the schema tests and the bench ratchets
//! all read JSON through [`parse`]; the pretty-printed documents
//! (`descend-diagnostics/1`, `descend-profile/1`, the bench baselines)
//! are written by hand against a fixed layout and escape strings with
//! [`escape`].
//!
//! The parser accepts any RFC 8259 document nested at most
//! [`MAX_DEPTH`] arrays/objects deep. Deeper input is an error, not a
//! stack overflow, so one hostile request line cannot take a
//! long-running server down. `\u` escapes take exactly four hex digits
//! and surrogates must pair.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest before [`parse`] gives up.
/// Every document the tree itself writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order so serialization is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (single line, no spaces after separators).
    /// Integral numbers below 9e15 print without a fraction.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message with the byte offset of the first syntax error, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => Ok(Json::Arr(self.nested(b']', Self::value)?)),
            Some(b'{') => Ok(Json::Obj(self.nested(b'}', Self::member)?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    /// The comma-separated `item`s of the array or object opening at
    /// `pos`, up to `close`: one nesting level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let close = close as char;
                        return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    /// One `"key": value` pair of an object.
    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy up to the next quote or backslash at once, so
                    // long strings parse in linear time. Both are ASCII,
                    // so the run ends on a char boundary.
                    let run = &self.text[self.pos..];
                    let len = run.find(['"', '\\']).unwrap_or(run.len());
                    out.push_str(&run[..len]);
                    self.pos += len;
                }
            }
        }
    }

    /// The code point of a `\u` escape whose `\u` is already consumed:
    /// a BMP scalar, or a high surrogate followed by `\u` and a low one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(format!("unpaired surrogate at byte {start}"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(format!("unpaired surrogate at byte {start}"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            code => code,
        };
        // Lone low surrogates are the only values left that are not
        // scalar values.
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at byte {start}"))
    }

    /// Exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        let v = digits.iter().fold(0, |v, &d| {
            v * 16 + (d as char).to_digit(16).expect("hex digit")
        });
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `depth` nested arrays, and `depth` nested objects.
    fn nested(depth: usize) -> [String; 2] {
        [
            format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
            format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth)),
        ]
    }

    #[test]
    fn nesting_limit_is_inclusive() {
        for doc in nested(MAX_DEPTH) {
            assert_eq!(parse(&doc).map(|v| v.to_string_compact()), Ok(doc));
        }
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error() {
        for doc in nested(MAX_DEPTH + 1) {
            let err = parse(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Unterminated and far past the limit: rejected without
        // recursing to the end of the input.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn unicode_escapes_are_strict() {
        assert_eq!(parse(r#""\u0041\u00E9""#), Ok(Json::Str("Aé".into())));
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        for bad in [
            r#""\u+041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\ud800A""#,
            r#""\ud800""#,
            r#""\ud800\ud800""#,
            r#""\ud800\n""#,
            r#""\udc00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // 2.5 MB with an escape every few chars: a scan that re-reads the
        // rest of the input per char would take minutes.
        let s = "é\"😀 ".repeat(250_000);
        let doc = format!("\"{}\"", escape(&s));
        assert_eq!(parse(&doc), Ok(Json::Str(s)));
    }
}
