//! Hand-rolled JSON: escaping, number formatting, and a tiny validating
//! parser.
//!
//! The build container has no crates.io access, so the exporters cannot
//! depend on `serde`; this module supplies the small slice of JSON the
//! tracing layer actually needs: writing string literals and numbers
//! ([`push_str_lit`], [`push_f64`]) and checking that a produced document
//! — or a JSON-lines stream — is well-formed ([`validate`],
//! [`validate_jsonl`]). The validator is also what CI and the golden
//! tests use to assert the Chrome-trace output parses.

use std::fmt;

/// Appends `s` to `out` as a JSON string literal, quotes included.
///
/// Control characters, quotes and backslashes are escaped per RFC 8259;
/// everything else (including multi-byte UTF-8) passes through verbatim.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) become `null`; integral values print without a fraction.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Where and why a document failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Maximum array/object nesting the validator accepts (it recurses).
const MAX_DEPTH: usize = 512;

/// Checks that `s` is exactly one well-formed JSON document.
///
/// # Errors
///
/// [`JsonError`] locating the first violation.
pub fn validate(s: &str) -> Result<(), JsonError> {
    let bytes = s.as_bytes();
    let mut pos = skip_ws(bytes, 0);
    pos = value(bytes, pos, 0)?;
    pos = skip_ws(bytes, pos);
    if pos != bytes.len() {
        return Err(JsonError { pos, what: "trailing characters after document" });
    }
    Ok(())
}

/// Checks that every non-empty line of `s` is a well-formed JSON document
/// (the JSON-lines contract of [`Tracer::write_jsonl`](crate::Tracer::write_jsonl)).
///
/// # Errors
///
/// The first offending line's error, with `pos` relative to that line.
pub fn validate_jsonl(s: &str) -> Result<(), JsonError> {
    for line in s.lines() {
        if !line.trim().is_empty() {
            validate(line)?;
        }
    }
    Ok(())
}

/// A parsed JSON value — the minimal tree the wire protocol, the
/// benchmark and the tests need to read JSON without a serde dependency.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order (keys are not deduplicated).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `s` as exactly one JSON document into a [`Value`] tree.
///
/// # Errors
///
/// [`JsonError`] locating the first violation.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    validate(s)?;
    let bytes = s.as_bytes();
    let pos = skip_ws(bytes, 0);
    let (v, _) = parse_value(bytes, pos)?;
    Ok(v)
}

/// Parses the (pre-validated) value at `pos`, returning it and the
/// position just past it. Validation has already run, so structural
/// errors here are unreachable; the `Err` arm only covers `\u` escapes
/// that decode to unpaired surrogates.
fn parse_value(b: &[u8], pos: usize) -> Result<(Value, usize), JsonError> {
    match b.get(pos) {
        Some(b'{') => {
            let mut members = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b'}') {
                return Ok((Value::Object(members), pos + 1));
            }
            loop {
                let (key, p) = parse_string(b, pos)?;
                pos = skip_ws(b, p);
                pos = skip_ws(b, pos + 1); // ':'
                let (v, p) = parse_value(b, pos)?;
                members.push((key, v));
                pos = skip_ws(b, p);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    _ => return Ok((Value::Object(members), pos + 1)), // '}'
                }
            }
        }
        Some(b'[') => {
            let mut items = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b']') {
                return Ok((Value::Array(items), pos + 1));
            }
            loop {
                let (v, p) = parse_value(b, pos)?;
                items.push(v);
                pos = skip_ws(b, p);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    _ => return Ok((Value::Array(items), pos + 1)), // ']'
                }
            }
        }
        Some(b'"') => {
            let (s, p) = parse_string(b, pos)?;
            Ok((Value::String(s), p))
        }
        Some(b't') => Ok((Value::Bool(true), pos + 4)),
        Some(b'f') => Ok((Value::Bool(false), pos + 5)),
        Some(b'n') => Ok((Value::Null, pos + 4)),
        _ => {
            let end = number(b, pos).expect("pre-validated number");
            let text = std::str::from_utf8(&b[pos..end]).expect("ASCII number");
            let n = text.parse::<f64>().map_err(|_| JsonError { pos, what: "bad number" })?;
            Ok((Value::Number(n), end))
        }
    }
}

/// Decodes the (pre-validated) string literal at `pos`.
fn parse_string(b: &[u8], mut pos: usize) -> Result<(String, usize), JsonError> {
    let start = pos;
    pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(pos) {
        match c {
            b'"' => return Ok((out, pos + 1)),
            b'\\' => match b[pos + 1] {
                b'"' => {
                    out.push('"');
                    pos += 2;
                }
                b'\\' => {
                    out.push('\\');
                    pos += 2;
                }
                b'/' => {
                    out.push('/');
                    pos += 2;
                }
                b'b' => {
                    out.push('\u{08}');
                    pos += 2;
                }
                b'f' => {
                    out.push('\u{0C}');
                    pos += 2;
                }
                b'n' => {
                    out.push('\n');
                    pos += 2;
                }
                b'r' => {
                    out.push('\r');
                    pos += 2;
                }
                b't' => {
                    out.push('\t');
                    pos += 2;
                }
                _ => {
                    // \uXXXX, possibly a surrogate pair
                    let hex = std::str::from_utf8(&b[pos + 2..pos + 6]).expect("hex digits");
                    let mut code = u32::from_str_radix(hex, 16).expect("pre-validated hex");
                    pos += 6;
                    if (0xD800..0xDC00).contains(&code)
                        && b.get(pos) == Some(&b'\\')
                        && b.get(pos + 1) == Some(&b'u')
                    {
                        let hex2 = std::str::from_utf8(&b[pos + 2..pos + 6]).expect("hex digits");
                        let low = u32::from_str_radix(hex2, 16).expect("pre-validated hex");
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            pos += 6;
                        }
                    }
                    out.push(char::from_u32(code).ok_or(JsonError {
                        pos: start,
                        what: "\\u escape is an unpaired surrogate",
                    })?);
                }
            },
            _ => {
                // copy one UTF-8 scalar verbatim
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                out.push_str(std::str::from_utf8(&b[pos..pos + len]).expect("valid UTF-8 input"));
                pos += len;
            }
        }
    }
    unreachable!("pre-validated string is terminated")
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

/// Parses one value starting at `pos`, returning the position just past
/// it.
fn value(b: &[u8], pos: usize, depth: usize) -> Result<usize, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError { pos, what: "nesting too deep" });
    }
    match b.get(pos) {
        None => Err(JsonError { pos, what: "unexpected end of input" }),
        Some(b'{') => object(b, pos, depth),
        Some(b'[') => array(b, pos, depth),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => number(b, pos),
        Some(_) => Err(JsonError { pos, what: "expected a value" }),
    }
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, JsonError> {
    if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
        Ok(pos + lit.len())
    } else {
        Err(JsonError { pos, what: "bad literal (true/false/null)" })
    }
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, JsonError> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    match b.get(pos) {
        Some(b'0') => pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
        }
        _ => return Err(JsonError { pos: start, what: "bad number" }),
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        if !matches!(b.get(pos), Some(b'0'..=b'9')) {
            return Err(JsonError { pos, what: "digit expected after decimal point" });
        }
        while matches!(b.get(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if !matches!(b.get(pos), Some(b'0'..=b'9')) {
            return Err(JsonError { pos, what: "digit expected in exponent" });
        }
        while matches!(b.get(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    Ok(pos)
}

fn string(b: &[u8], mut pos: usize) -> Result<usize, JsonError> {
    pos += 1; // opening quote
    while let Some(&c) = b.get(pos) {
        match c {
            b'"' => return Ok(pos + 1),
            b'\\' => match b.get(pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(pos + 2..pos + 6)
                        .ok_or(JsonError { pos, what: "truncated \\u escape" })?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(JsonError { pos, what: "bad \\u escape" });
                    }
                    pos += 6;
                }
                _ => return Err(JsonError { pos, what: "bad escape" }),
            },
            0x00..=0x1F => return Err(JsonError { pos, what: "raw control character in string" }),
            _ => pos += 1,
        }
    }
    Err(JsonError { pos, what: "unterminated string" })
}

fn array(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, JsonError> {
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = value(b, pos, depth + 1)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok(pos + 1),
            _ => return Err(JsonError { pos, what: "expected ',' or ']'" }),
        }
    }
}

fn object(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, JsonError> {
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(JsonError { pos, what: "expected a string key" });
        }
        pos = string(b, pos)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(JsonError { pos, what: "expected ':'" });
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos, depth + 1)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(JsonError { pos, what: "expected ',' or '}'" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_validator() {
        for nasty in ["plain", "quo\"te", "back\\slash", "new\nline", "tab\tcr\r", "nul\u{01}"] {
            let mut out = String::new();
            push_str_lit(&mut out, nasty);
            validate(&out).unwrap_or_else(|e| panic!("{nasty:?} -> {out}: {e}"));
        }
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\nc");
        assert_eq!(out, "\"a\\\"b\\nc\"");
    }

    #[test]
    fn numbers_render_valid_json() {
        for (v, want) in [(1.0, "1"), (-2.5, "-2.5"), (0.0, "0"), (f64::NAN, "null")] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, want);
            validate(&out).unwrap();
        }
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            "\"hi\\u0041\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            "{\"a\": {\"b\": [1, \"x\", null]}, \"c\": false}",
            "  {\"trailing_ws\": 1}  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "nul",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(validate(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn parser_builds_the_value_tree() {
        let v = parse("{\"a\": [1, -2.5, \"x\\n\"], \"b\": {\"c\": true}, \"d\": null}").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array),
            Some(&[Value::Number(1.0), Value::Number(-2.5), Value::String("x\n".into())][..])
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Value::String("😀".into()));
        assert!(parse("{oops}").is_err());
    }

    #[test]
    fn parser_round_trips_rendered_strings() {
        for nasty in ["plain", "quo\"te", "back\\slash", "new\nline", "tab\tcr\r", "nul\u{01}"] {
            let mut out = String::new();
            push_str_lit(&mut out, nasty);
            assert_eq!(parse(&out).unwrap(), Value::String(nasty.into()), "{out}");
        }
    }

    #[test]
    fn jsonl_checks_every_line() {
        validate_jsonl("{\"a\":1}\n{\"b\":2}\n\n").unwrap();
        assert!(validate_jsonl("{\"a\":1}\n{oops}\n").is_err());
    }
}
