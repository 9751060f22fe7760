//! A minimal JSON encoder/decoder for the on-disk result cache.
//!
//! The build environment vendors `serde` as a marker-trait shim (no data
//! model, no `serde_json`), so the cache serializes through this small
//! hand-rolled codec instead. The [`JsonCodec`] trait keeps the two
//! worlds aligned: it is bounded on `serde::Serialize` +
//! `serde::de::DeserializeOwned`, so every type the cache persists also
//! satisfies the real serde contract — swapping the workspace to
//! registry serde (and this codec for `serde_json`) needs no signature
//! changes.
//!
//! Number formatting uses `f64`'s shortest round-trip representation
//! (`{:?}`), so a report decoded from disk is bit-identical to the one
//! encoded — the determinism tests rely on this.

use crate::RunnerError;

/// A parsed JSON document. Objects preserve insertion order so encoded
/// output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (non-finite values encode as the strings
    /// `"NaN"`, `"inf"`, `"-inf"`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite-or-special number (accepts the non-finite
    /// string encodings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::String(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as an unsigned integer (exact below 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(*n, out),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Malformed input, or trailing non-whitespace after the document.
    pub fn parse(text: &str) -> Result<JsonValue, RunnerError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Builds a number member; non-finite values fall back to their string
/// encoding so the output stays valid JSON.
pub(crate) fn number(n: f64) -> JsonValue {
    if n.is_finite() {
        JsonValue::Number(n)
    } else if n.is_nan() {
        JsonValue::String("NaN".into())
    } else if n > 0.0 {
        JsonValue::String("inf".into())
    } else {
        JsonValue::String("-inf".into())
    }
}

fn write_number(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "non-finite numbers encode via number()");
    // `{:?}` prints the shortest decimal that parses back to the same
    // f64 bits — the codec's round-trip guarantee.
    out.push_str(&format!("{n:?}"));
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, detail: &str) -> RunnerError {
        RunnerError::Parse {
            context: "json".into(),
            detail: format!("{detail} at byte {}", self.pos),
        }
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), RunnerError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, RunnerError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, RunnerError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, RunnerError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in number"))?;
        token
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("invalid number"))
    }

    fn string(&mut self) -> Result<String, RunnerError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
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
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = core::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by this codec's
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("unpaired surrogate"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character starting here.
                    let rest = core::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| self.error("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, RunnerError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, RunnerError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// JSON encoding for cache-persisted types, on top of the serde
/// contract. The supertrait bounds are the swap-compatibility guarantee:
/// anything persisted here also satisfies real serde's
/// `Serialize + DeserializeOwned`, so a registry build can replace this
/// codec with `serde_json` without touching call-site bounds.
pub trait JsonCodec: serde::Serialize + serde::de::DeserializeOwned + Sized {
    /// Encodes `self` as a JSON value.
    fn to_json(&self) -> JsonValue;

    /// Decodes a value produced by [`JsonCodec::to_json`].
    ///
    /// # Errors
    ///
    /// Missing or mistyped members.
    fn from_json(value: &JsonValue) -> Result<Self, RunnerError>;
}

/// Field-lookup helpers shared by the codec impls.
pub(crate) fn member<'v>(
    value: &'v JsonValue,
    context: &str,
    key: &str,
) -> Result<&'v JsonValue, RunnerError> {
    value.get(key).ok_or_else(|| RunnerError::Parse {
        context: context.into(),
        detail: format!("missing member `{key}`"),
    })
}

pub(crate) fn f64_member(value: &JsonValue, context: &str, key: &str) -> Result<f64, RunnerError> {
    member(value, context, key)?
        .as_f64()
        .ok_or_else(|| mistyped(context, key, "number"))
}

pub(crate) fn u64_member(value: &JsonValue, context: &str, key: &str) -> Result<u64, RunnerError> {
    member(value, context, key)?
        .as_u64()
        .ok_or_else(|| mistyped(context, key, "unsigned integer"))
}

pub(crate) fn string_member(
    value: &JsonValue,
    context: &str,
    key: &str,
) -> Result<String, RunnerError> {
    Ok(member(value, context, key)?
        .as_str()
        .ok_or_else(|| mistyped(context, key, "string"))?
        .to_string())
}

pub(crate) fn mistyped(context: &str, key: &str, expected: &str) -> RunnerError {
    RunnerError::Parse {
        context: context.into(),
        detail: format!("member `{key}` is not a {expected}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_documents() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::String("TALB (Var)".into())),
            ("pi".into(), JsonValue::Number(std::f64::consts::PI)),
            ("neg".into(), JsonValue::Number(-0.1)),
            ("n".into(), JsonValue::Number(600.0)),
            ("flag".into(), JsonValue::Bool(true)),
            ("none".into(), JsonValue::Null),
            (
                "series".into(),
                JsonValue::Array(vec![JsonValue::Number(1.5), JsonValue::Number(2.25)]),
            ),
            ("esc".into(), JsonValue::String("a\"b\\c\nd\u{1}é".into())),
        ]);
        let text = doc.encode();
        let back = JsonValue::parse(&text).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn numbers_roundtrip_bit_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e308,
            -2.5e-17,
            123456789.123456789,
        ] {
            let text = JsonValue::Number(x).encode();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_strings() {
        assert_eq!(number(f64::NAN).encode(), "\"NaN\"");
        assert_eq!(number(f64::INFINITY).encode(), "\"inf\"");
        assert!(number(f64::NEG_INFINITY).as_f64().unwrap() < 0.0);
        assert!(JsonValue::parse("\"NaN\"")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "nul", "1.2.3", "[] []"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} should fail");
        }
    }
}
