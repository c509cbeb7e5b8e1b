//! A dependency-free JSON value: encoder and strict parser.
//!
//! This is the workspace's only JSON encoder and parser: experiment
//! reports ([`ExperimentRecord`]), bench reports and Chrome traces all go
//! through it. It supports exactly the JSON the workspace emits: UTF-8
//! text, objects with insertion-ordered keys, finite numbers (non-finite
//! floats encode as `null`).
//!
//! [`ExperimentRecord`]: crate::ExperimentRecord

use std::error::Error;
use std::fmt;

/// A JSON document node.
///
/// # Examples
///
/// ```
/// use clos_telemetry::json::JsonValue;
///
/// let v = JsonValue::Object(vec![
///     ("id".to_string(), JsonValue::from("e1")),
///     ("pass".to_string(), JsonValue::from(true)),
///     ("wall_ms".to_string(), JsonValue::from(1.5)),
/// ]);
/// let text = v.to_string();
/// assert_eq!(text, r#"{"id":"e1","pass":true,"wall_ms":1.5}"#);
/// assert_eq!(JsonValue::parse(&text).unwrap(), v);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no decimal point or exponent in the source text).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep their insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::Int(i128::from(n))
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> JsonValue {
        JsonValue::Int(i128::from(n))
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Int(n as i128)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> JsonValue {
        JsonValue::Float(x)
    }
}

impl JsonValue {
    /// Returns the object entry for `key`, if this is an object containing
    /// it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that parses
                    // back to the same f64, always with `.0`/exponent so it
                    // stays a float in JSON terms.
                    write!(f, "{x:?}")
                } else {
                    f.write_str("null")
                }
            }
            JsonValue::Str(s) => JsonValue::write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(entries) => {
                f.write_str("{")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    JsonValue::write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The error returned by [`JsonValue::parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", expected as char))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            self.err(format!("expected {literal:?}"))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| JsonValue::Null),
            Some(b't') => self.eat_literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // Surrogate pairs are not needed for the
                                // ASCII-escaped output this crate produces.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the remaining text.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            offset: self.pos,
                            message: "invalid UTF-8".to_string(),
                        })?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if is_float {
            match text.parse::<f64>() {
                Ok(x) => Ok(JsonValue::Float(x)),
                Err(_) => self.err(format!("bad number {text:?}")),
            }
        } else {
            match text.parse::<i128>() {
                Ok(n) => Ok(JsonValue::Int(n)),
                Err(_) => self.err(format!("bad integer {text:?}")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return parser.err("trailing characters");
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "42"] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(JsonValue::parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(JsonValue::Float(1.5).to_string(), "1.5");
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let cases = [
            ("plain", "\"plain\""),
            ("with \"quotes\"", "\"with \\\"quotes\\\"\""),
            ("back\\slash", "\"back\\\\slash\""),
            ("line\nbreak\ttab", "\"line\\nbreak\\ttab\""),
            ("unicode →", "\"unicode →\""),
        ];
        for (raw, encoded) in cases {
            let v = JsonValue::from(raw);
            assert_eq!(v.to_string(), encoded);
            assert_eq!(JsonValue::parse(encoded).unwrap(), v);
        }
        // Control characters use \u escapes.
        assert_eq!(JsonValue::from("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u2192\"").unwrap(),
            JsonValue::from("A→")
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,null,{"b":true}],"c":"d","e":{}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("c"), Some(&JsonValue::from("d")));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("a"), None);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":null}"#);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "[1,]",
            "\"\\u12\"",
            "\"\\q\"",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "no message for {bad:?}");
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let n = u64::MAX;
        let v = JsonValue::from(n);
        assert_eq!(v.to_string(), n.to_string());
        assert_eq!(JsonValue::parse(&n.to_string()).unwrap(), v);
    }
}
