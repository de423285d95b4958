//! Minimal strict JSON parser, used to validate exporter output and to
//! drive `obs_report` aggregation. The workspace has no JSON crate, so
//! this is hand-rolled (recursive descent) against RFC 8259: no trailing
//! commas, no comments, no bare NaN/Infinity.
//!
//! One grammar serves two readers: [`parse`] builds a [`Json`] tree, and
//! the crate-internal `scan` walks an object's top-level members as
//! borrowed lexemes without building anything, for the JSONL validator's
//! hot path.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON value. Object keys keep insertion order (no hashing, and
/// the exporters emit deterministic key order anyway).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse failure with byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A string token as it appears in the input, quotes included. Only a
/// successful read makes one, so it always holds a well-formed string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's value: borrowed from the input unless it contains an
    /// escape, which is decoded into a fresh `String`.
    pub(crate) fn decode(&self) -> Cow<'a, str> {
        let body = &self.raw[1..self.raw.len() - 1];
        if !self.escaped {
            return Cow::Borrowed(body);
        }
        let mut out = String::with_capacity(body.len());
        Parser::new(self.raw)
            .string(Some(&mut out))
            .expect("a RawStr holds a string that was read once already");
        Cow::Owned(out)
    }
}

/// A number token as it appears in the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawNum<'a>(&'a str);

impl<'a> RawNum<'a> {
    /// The token's text.
    pub(crate) fn as_str(self) -> &'a str {
        self.0
    }

    /// The number as the nearest `f64`, as [`parse`] reads it.
    pub(crate) fn as_f64(self) -> Option<f64> {
        self.0.parse().ok()
    }

    /// The number exactly, if the token is a plain non-negative integer
    /// (no sign, fraction or exponent) that fits in a `u64`.
    pub(crate) fn as_u64(self) -> Option<u64> {
        // The grammar admits no leading '+', the one extra form `u64`
        // parsing accepts.
        self.0.parse().ok()
    }
}

/// One value as [`scan`] reports it: scalars borrowed from the input,
/// containers only by kind (their contents are checked and skipped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lexeme<'a> {
    Null,
    Bool(bool),
    Num(RawNum<'a>),
    Str(RawStr<'a>),
    Arr,
    Obj,
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value(0)?;
    p.finish()?;
    Ok(v)
}

/// Reads one complete JSON document under [`parse`]'s grammar, with the
/// same errors, but builds no tree. When the document is an object, each
/// top-level member is handed to `member` in input order; any other
/// document reports no members.
pub(crate) fn scan<'a>(
    input: &'a str,
    mut member: impl FnMut(RawStr<'a>, Lexeme<'a>),
) -> Result<(), JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    match p.lexeme(0)? {
        Lexeme::Obj => p.object(|p, key| {
            member(key, p.skip(1)?);
            Ok(())
        })?,
        Lexeme::Arr => p.array(|p| p.skip(1).map(drop))?,
        _ => {}
    }
    p.finish()
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Accepts only trailing whitespace after the document.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// Reads a scalar, or names the container that starts here without
    /// consuming it.
    fn lexeme(&mut self, depth: usize) -> Result<Lexeme<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => Ok(Lexeme::Obj),
            Some(b'[') => Ok(Lexeme::Arr),
            Some(b'"') => self.string(None).map(Lexeme::Str),
            Some(b't') => self.literal(b"true", Lexeme::Bool(true)),
            Some(b'f') => self.literal(b"false", Lexeme::Bool(false)),
            Some(b'n') => self.literal(b"null", Lexeme::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Lexeme::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads one value into a tree.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        Ok(match self.lexeme(depth)? {
            Lexeme::Null => Json::Null,
            Lexeme::Bool(b) => Json::Bool(b),
            Lexeme::Num(n) => Json::Num(n.as_f64().ok_or_else(|| self.err("number out of range"))?),
            Lexeme::Str(s) => Json::Str(s.decode().into_owned()),
            Lexeme::Arr => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Lexeme::Obj => {
                let mut pairs = Vec::new();
                self.object(|p, key| {
                    pairs.push((key.decode().into_owned(), p.value(depth + 1)?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
        })
    }

    /// Reads one value, checking and discarding a container's contents.
    fn skip(&mut self, depth: usize) -> Result<Lexeme<'a>, JsonError> {
        let lexeme = self.lexeme(depth)?;
        match lexeme {
            Lexeme::Arr => self.array(|p| p.skip(depth + 1).map(drop))?,
            Lexeme::Obj => self.object(|p, _| p.skip(depth + 1).map(drop))?,
            _ => {}
        }
        Ok(lexeme)
    }

    fn literal(
        &mut self,
        word: &'static [u8],
        lexeme: Lexeme<'a>,
    ) -> Result<Lexeme<'a>, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(lexeme)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads an object, handing each key to `member`, which reads the
    /// value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, RawStr<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string(None)?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads an array, calling `item` to read each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads a string token, checking every escape, and appends its
    /// decoded value to `out` when given one.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<RawStr<'a>, JsonError> {
        let start = self.pos;
        self.expect(b'"', "expected '\"'")?;
        let mut escaped = false;
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole; it ends on an ASCII byte, so on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.src[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(RawStr {
                        raw: &self.src[start..self.pos],
                        escaped,
                    });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    let ch = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(ch);
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Reads the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// Reads the digits of a `\u` escape, and its low surrogate when it
    /// opens a pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let cp = self.hex4()?;
        // Surrogate pairs: exporters never emit them, but accept
        // well-formed ones for generality.
        if (0xD800..0xDC00).contains(&cp) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect(b'u', "expected low surrogate")?;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))
            } else {
                Err(self.err("lone high surrogate"))
            }
        } else if (0xDC00..0xE000).contains(&cp) {
            Err(self.err("lone low surrogate"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))
        }
    }

    /// Reads 4 hex digits starting at `self.pos`, leaving `pos` just past
    /// them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<RawNum<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            self.digits();
        }
        Ok(RawNum(&self.src[start..self.pos]))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-12.5e2"), Ok(Json::Num(-1250.0)));
        assert_eq!(parse(r#""a\nb""#), Ok(Json::Str("a\nb".into())));
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(3));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "nul",
            "[1] []",
            "\"unterminated",
            "{\"a\":1,}",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn scan_reports_what_parse_reads() {
        let doc = r#" {"a":[1,{"b":null}],"k\u0065y":"v\n","n":-1.5e3,"t":true,"a":2} "#;
        let mut members = Vec::new();
        scan(doc, |k, v| members.push((k.decode().into_owned(), v))).unwrap();
        let keys: Vec<_> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "key", "n", "t", "a"]);
        assert_eq!(members[0].1, Lexeme::Arr);
        let Lexeme::Str(s) = members[1].1 else {
            panic!("expected a string, got {:?}", members[1].1);
        };
        assert_eq!(s.decode(), "v\n");
        let Lexeme::Num(x) = members[2].1 else {
            panic!("expected a number, got {:?}", members[2].1);
        };
        assert_eq!(
            (x.as_str(), x.as_f64(), x.as_u64()),
            ("-1.5e3", Some(-1500.0), None)
        );
        assert_eq!(members[3].1, Lexeme::Bool(true));
        // Documents that are not objects have no members.
        scan("[1,2]", |_, _| panic!("an array has no members")).unwrap();
    }

    #[test]
    fn scan_fails_exactly_where_parse_does() {
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(70), "]".repeat(70));
        let mut docs = vec![deep];
        docs.extend(
            [
                "",
                "{",
                "{\"a\":[1,]}",
                "{\"a\":}",
                "{\"a\" 1}",
                "{\"a\":01}",
                "{\"a\":\"\\x\"}",
                "{\"a\":\"\\ud83d\"}",
                "{\"a\":\"\\udc00\"}",
                "{\"a\":\"\\ud83d\\u0041\"}",
                "{\"a\":\"raw\u{1}\"}",
                "{\"a\":nul}",
                "{\"a\":1} x",
                "{\"a\":1,}",
                "{1:2}",
            ]
            .map(String::from),
        );
        for doc in &docs {
            let want = parse(doc).expect_err(doc);
            assert_eq!(scan(doc, |_, _| {}), Err(want), "{doc:?}");
        }
    }

    #[test]
    fn exact_integers_come_from_the_token() {
        let exact = |token: &str| {
            let doc = format!("{{\"x\":{token}}}");
            let mut value = None;
            scan(&doc, |_, v| value = Some(v)).unwrap();
            match value {
                Some(Lexeme::Num(x)) => x.as_u64(),
                other => panic!("expected a number, got {other:?}"),
            }
        };
        assert_eq!(exact("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        for bad in ["18446744073709551616", "-5", "-0", "2.5", "1e3", "1.0"] {
            assert_eq!(exact(bad), None, "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Json::Str("Aé".into())));
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        assert!(parse(r#""\ud83d""#).is_err());
    }
}
