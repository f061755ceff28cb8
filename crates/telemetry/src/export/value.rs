//! A minimal JSON value model with a strict parser and writer helpers.
//!
//! This is the machinery behind [`super::json`], exposed so downstream
//! crates (the `vlc-obs` streaming exporter in particular) can parse and
//! emit their own hand-written JSON documents without pulling a
//! serialization crate into the workspace. Numbers keep their source text
//! so integers larger than 2^53 survive (counters are u64).

use super::ParseError;

/// One JSON value. Numbers are kept as source text (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written in the document.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array, in document order.
    Arr(Vec<JsonValue>),
    /// An object, entries in document order (duplicate keys are kept).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The entries of an object, or a shape error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, JsonValue)], ParseError> {
        match self {
            JsonValue::Obj(entries) => Ok(entries),
            _ => Err(ParseError::new(0, format!("{what} must be an object"))),
        }
    }

    /// The items of an array, or a shape error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[JsonValue], ParseError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            _ => Err(ParseError::new(0, format!("{what} must be an array"))),
        }
    }

    /// This value as a `u64`, or a shape error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, ParseError> {
        match self {
            JsonValue::Num(text) => text
                .parse()
                .map_err(|_| ParseError::new(0, format!("{what} is not a u64"))),
            _ => Err(ParseError::new(0, format!("{what} must be a number"))),
        }
    }

    /// This value as an `f64`; `null` reads as 0 (the writers serialize
    /// non-finite floats as `null`). Shape errors name `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, ParseError> {
        match self {
            JsonValue::Num(text) => text
                .parse()
                .map_err(|_| ParseError::new(0, format!("{what} is not an f64"))),
            JsonValue::Null => Ok(0.0),
            _ => Err(ParseError::new(0, format!("{what} must be a number"))),
        }
    }

    /// This value as a string, or a shape error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, ParseError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err(ParseError::new(0, format!("{what} must be a string"))),
        }
    }

    /// This value as a bool, or a shape error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, ParseError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(ParseError::new(0, format!("{what} must be a boolean"))),
        }
    }
}

/// Looks up `key` in object entries, erroring when absent.
pub fn field<'v>(obj: &'v [(String, JsonValue)], key: &str) -> Result<&'v JsonValue, ParseError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError::new(0, format!("missing key \"{key}\"")))
}

/// Looks up `key` in object entries, `None` when absent.
pub fn field_opt<'v>(obj: &'v [(String, JsonValue)], key: &str) -> Option<&'v JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses exactly one JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after document"));
    }
    Ok(value)
}

// ---------------------------------------------------------------- writer --

/// Appends `s` as a JSON string literal (quotes, escapes applied).
pub fn push_json_string(out: &mut String, s: &str) {
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

/// Appends `v` in Rust's shortest round-trip formatting; non-finite
/// values (which no instrument produces) serialize as `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

// ---------------------------------------------------------------- parser --

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, message)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Exporter strings never contain surrogate
                            // pairs (only control chars are \u-escaped).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(JsonValue::Num(text.to_string()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_and_extract() {
        let v = parse_json(r#"{"a":1,"b":-2.5,"c":"x","d":[true,null],"e":{}}"#).unwrap();
        let obj = v.as_obj("root").unwrap();
        assert_eq!(field(obj, "a").unwrap().as_u64("a").unwrap(), 1);
        assert_eq!(field(obj, "b").unwrap().as_f64("b").unwrap(), -2.5);
        assert_eq!(field(obj, "c").unwrap().as_str("c").unwrap(), "x");
        let arr = field(obj, "d").unwrap().as_arr("d").unwrap();
        assert!(arr[0].as_bool("d0").unwrap());
        assert_eq!(arr[1].as_f64("d1").unwrap(), 0.0);
        assert!(field_opt(obj, "missing").is_none());
        assert!(field(obj, "missing").is_err());
    }

    #[test]
    fn nested_documents_parse() {
        let v =
            parse_json(r#"{"a": [1, -2.5e2, "x\n\"y\""], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_obj("root").unwrap();
        let a = field(obj, "a").unwrap().as_arr("a").unwrap();
        assert_eq!(a[1].as_f64("a1").unwrap(), -250.0);
        assert_eq!(a[2].as_str("a2").unwrap(), "x\n\"y\"");
        let b = field(obj, "b").unwrap().as_obj("b").unwrap();
        assert!(field(b, "c").unwrap().as_bool("c").unwrap());
        assert_eq!(field(b, "d").unwrap(), &JsonValue::Null);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse_json("\"\\u03c0 direct-π\"").unwrap();
        assert_eq!(v.as_str("s").unwrap(), "π direct-π");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for bad in [
            "{} extra",
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "[1] trailing",
            "\"open",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writer_helpers_round_trip_through_the_parser() {
        let mut out = String::new();
        out.push_str("{\"s\":");
        push_json_string(&mut out, "a \"b\"\n\t\\ control\u{1} π");
        out.push_str(",\"f\":");
        push_f64(&mut out, 0.1);
        out.push_str(",\"n\":");
        push_f64(&mut out, f64::INFINITY);
        out.push('}');
        let v = parse_json(&out).unwrap();
        let obj = v.as_obj("root").unwrap();
        assert_eq!(
            field(obj, "s").unwrap().as_str("s").unwrap(),
            "a \"b\"\n\t\\ control\u{1} π"
        );
        assert_eq!(field(obj, "f").unwrap().as_f64("f").unwrap(), 0.1);
        assert_eq!(field(obj, "n").unwrap().as_f64("n").unwrap(), 0.0);
    }
}
