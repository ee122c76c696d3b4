//! Hand-rolled JSON with exact-bit `f64` round-tripping.
//!
//! The build environment has no crates.io access, so durable state (run
//! checkpoints, learned policy exports) needs a serializer of its own.
//! This module provides a small JSON value model, a serializer and a
//! parser — no dependencies — with one extension that makes it fit the
//! repo's bit-identity religion:
//!
//! **Every `f64` is emitted as `<decimal>$<hex16>`**, e.g. `0.1$3fb999999999999a`,
//! where the 16 hex digits are [`f64::to_bits`]. On parse the hex bits are
//! authoritative, so NaN payloads, `-0.0`, subnormals and infinities all
//! survive a round trip exactly. For finite values the decimal part (the
//! shortest representation `{:?}` prints, which is itself round-trip exact)
//! is *validated* against the bits — a file whose decimal and hex halves
//! disagree is corrupt and is rejected loudly rather than trusted. The
//! non-finite decimals are the keywords `NaN`, `inf` and `-inf`; they are
//! only accepted with a `$hex16` suffix, so plain-JSON consumers never see
//! bare non-finite tokens without the exact bits alongside.
//!
//! Unsigned integers ([`Json::Uint`]) serialize as bare digits and stay
//! integers on parse; everything without a `$` suffix, sign, fraction or
//! exponent parses as [`Json::Uint`], the rest as [`Json::F64`]. Object
//! member order is preserved (insertion order in, file order out), which
//! keeps serialization deterministic: equal values produce byte-equal
//! text, and byte-equal text hashes to equal [`checksum`]s.

use std::fmt;

/// Maximum nesting depth the parser accepts. Deeper documents are rejected
/// with a parse error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve member order; numbers distinguish
/// unsigned integers (exact up to `u64::MAX`) from `f64`s (exact to the
/// bit via the `$hex16` suffix, see the module docs).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, serialized as bare decimal digits.
    Uint(u64),
    /// A double, serialized as `<decimal>$<hex16>` with exact bits.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; member order is preserved and significant for
    /// serialization (but not for [`PartialEq`]).
    Object(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Uint(a), Json::Uint(b)) => a == b,
            // Bit equality, not float equality: NaN == NaN (same payload),
            // 0.0 != -0.0. That is the round-trip contract being tested.
            (Json::F64(a), Json::F64(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Array(a), Json::Array(b)) => a == b,
            (Json::Object(a), Json::Object(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// Member lookup on an object (first match wins). `None` for missing
    /// keys and for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The integer payload, if this is a `Uint`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(u) => Some(u),
            _ => None,
        }
    }

    /// The double payload, if this is an `F64`. Deliberately strict: an
    /// integer token is *not* silently widened — the writer controls the
    /// format, so a type mismatch means the file is not ours.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize to compact JSON text (no whitespace). Deterministic:
    /// equal values produce byte-equal output.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize into an existing buffer.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(u) => {
                use fmt::Write;
                // Invariant: formatting into a `String` cannot fail.
                write!(out, "{u}").expect("write to String cannot fail");
            }
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Emit `<decimal>$<hex16>`. The decimal half is `{:?}` — Rust's shortest
/// round-trip-exact representation for finite doubles, and the keywords
/// `NaN` / `inf` / `-inf` otherwise. The hex half is [`f64::to_bits`].
fn write_f64(x: f64, out: &mut String) {
    use fmt::Write;
    // Invariant: formatting into a `String` cannot fail.
    write!(out, "{x:?}${:016x}", x.to_bits()).expect("write to String cannot fail");
}

fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Invariant: formatting into a `String` cannot fail.
                write!(out, "\\u{:04x}", c as u32).expect("write to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset into the input plus a human-readable
/// reason. The offset points at (or just past) the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (one value plus optional surrounding
/// whitespace; trailing garbage is an error). See the module docs for the
/// exact-bit number extension.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') | Some(b'N') | Some(b'i') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Safety of from_utf8: the input is a &str, and the run we
                // sliced stops before any ASCII special, so it stays on
                // UTF-8 boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character inside string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    if !(self.eat(b'\\').is_ok() && self.eat(b'u').is_ok()) {
                        return Err(self.err("high surrogate without a low surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            c => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
            self.pos += 1;
            value = (value << 4) | d;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        // Decimal half: a finite JSON number, or the non-finite keywords.
        let non_finite = if self.eat_keyword("NaN") {
            Some(f64::NAN)
        } else if self.eat_keyword("inf") {
            Some(f64::INFINITY)
        } else if self.eat_keyword("-inf") {
            Some(f64::NEG_INFINITY)
        } else {
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let digits_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return Err(self.err("expected digits in number"));
            }
            if self.bytes[digits_start] == b'0' && self.pos - digits_start > 1 {
                return Err(self.err("leading zeros are not allowed"));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                let frac_start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if self.pos == frac_start {
                    return Err(self.err("expected digits after decimal point"));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                let exp_start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if self.pos == exp_start {
                    return Err(self.err("expected digits in exponent"));
                }
            }
            None
        };
        // Invariant: the scan above consumed only ASCII signs, digits, '.',
        // exponent markers or a non-finite keyword.
        let decimal =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ASCII");

        if self.peek() == Some(b'$') {
            // Exact-bit half: 16 hex digits, authoritative.
            self.pos += 1;
            let hex_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')) {
                self.pos += 1;
            }
            let hex = &self.bytes[hex_start..self.pos];
            if hex.len() != 16 {
                return Err(self.err("expected exactly 16 hex digits after '$'"));
            }
            // Invariant: exactly 16 bytes, each an ASCII hex digit (the scan
            // above), so both conversions succeed.
            let bits =
                u64::from_str_radix(std::str::from_utf8(hex).expect("hex digits are ASCII"), 16)
                    .expect("16 hex digits fit in u64");
            let value = f64::from_bits(bits);
            // The two halves must agree — a mismatch means the file was
            // edited or corrupted, and we refuse to guess which half to
            // believe.
            let consistent = match non_finite {
                Some(nf) if nf.is_nan() => value.is_nan(),
                Some(nf) => value == nf,
                None => decimal.parse::<f64>().ok().map(f64::to_bits) == Some(bits),
            };
            if !consistent {
                return Err(self.err(format!(
                    "number '{decimal}' does not match its exact bits {bits:016x}"
                )));
            }
            return Ok(Json::F64(value));
        }

        // No exact-bit half: plain JSON. Non-finite keywords are only
        // valid with their bits attached.
        if non_finite.is_some() {
            return Err(self.err("non-finite number requires '$<hex16>' exact bits"));
        }
        if !decimal.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = decimal.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        decimal
            .parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err(format!("invalid number '{decimal}'")))
    }
}

/// FNV-1a 64-bit hash. Used as the payload checksum and config fingerprint
/// in checkpoint files: not cryptographic, but plenty to detect the torn
/// writes and bit rot the resume path guards against.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        parse(&v.to_text()).expect("round trip parses")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Uint(0),
            Json::Uint(u64::MAX),
            Json::F64(0.1),
            Json::F64(-0.0),
            Json::F64(f64::NAN),
            Json::F64(f64::INFINITY),
            Json::F64(f64::NEG_INFINITY),
            Json::F64(f64::MIN_POSITIVE / 2.0), // subnormal
            Json::Str("hé\"llo\n\\\u{1F600}".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn f64_text_is_decimal_and_bits() {
        assert_eq!(Json::F64(1.5).to_text(), "1.5$3ff8000000000000");
        assert_eq!(Json::F64(-0.0).to_text(), "-0.0$8000000000000000");
        assert_eq!(Json::F64(f64::INFINITY).to_text(), "inf$7ff0000000000000");
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::Object(vec![
            ("z".into(), Json::Array(vec![Json::Uint(1), Json::Null])),
            ("a".into(), Json::F64(2.5)),
        ]);
        let text = v.to_text();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn plain_json_is_accepted() {
        let v = parse(" { \"a\" : [ 1 , -2.5e3 , true ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::Uint(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Json::F64(-2500.0)
        );
    }

    #[test]
    fn mismatched_bits_are_rejected() {
        assert!(parse("1.5$3ff8000000000001").is_err());
        assert!(parse("2.5$deadbeef").is_err()); // wrong hex length
        assert!(parse("NaN").is_err()); // bare non-finite
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "\"\\q\"",
            "tru",
            "1.5 x",
            "01",
            "\"\\ud800\"",
            "nul",
            "[",
            "]",
        ] {
            assert!(parse(bad).is_err(), "input {bad:?} should fail");
        }
    }

    #[test]
    fn checksum_is_stable() {
        // FNV-1a reference vector.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
