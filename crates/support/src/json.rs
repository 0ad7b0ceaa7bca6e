//! A minimal JSON document model.
//!
//! Replaces `serde`/`serde_json` for the workspace's machine-readable
//! input and output (experiment tables, lint diagnostics, `impact serve`
//! request bodies). [`Json`] serializes via [`Display`](std::fmt::Display)
//! / [`Json::to_string_pretty`] and parses back via [`parse`];
//! `parse(render(x)) == x` holds for every finite document (the property
//! tests below pin it).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (serialized via shortest-roundtrip `f64`
    /// formatting; integers print without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl std::fmt::Display for Json {
    /// Compact single-line rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Json {
    /// Member of an object, by key (first occurrence).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer (rejects
    /// fractional, negative, and out-of-range values).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
            Json::Num(x) if *x >= 0.0 && x.trunc() == *x && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty rendering with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                write_escaped(out, &fields[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                fields[i].1.write(out, indent, depth + 1);
            }),
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
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
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

/// Where and why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (in bytes) within that line.
    pub col: usize,
    /// Byte offset into the input.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a JSON document (RFC 8259 subset: no duplicate-key policy,
/// object keys keep their input order).
///
/// # Errors
///
/// Returns a [`JsonParseError`] carrying the line/column of the first
/// offending byte for malformed input, trailing garbage, or nesting
/// deeper than 128 levels.
pub fn parse(src: &str) -> Result<Json, JsonParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting cap for [`parse`]: deeper documents are rejected rather than
/// risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonParseError {
            line,
            col,
            offset: self.pos,
            message: message.into(),
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

    /// Consumes `lit` (called with the first byte already matched).
    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input, expected a value")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!(
                "unexpected character `{}`, expected a value",
                c as char
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Bulk-copy the unescaped stretch.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is valid UTF-8 and we only stopped on ASCII
            // bytes, so this slice is on char boundaries.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii bounds"));
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: require the paired low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate escape"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                        }
                        c => {
                            self.pos -= 1;
                            return Err(self.error(format!("invalid escape `\\{}`", c as char)));
                        }
                    }
                }
                Some(_) => {
                    return Err(self.error("unescaped control character in string"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("non-hex \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.error("non-hex \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after `.`"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in exponent"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.error(format!("number `{text}` out of range"))),
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// This value as a JSON document.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

macro_rules! impl_num_to_json {
    ($($t:ty),+) => {
        $(impl ToJson for $t {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        })+
    };
}
impl_num_to_json!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
///
/// ```
/// struct Row { name: String, miss: f64 }
/// impact_support::json_object!(Row { name, miss });
/// let r = Row { name: "wc".into(), miss: 0.01 };
/// assert_eq!(
///     impact_support::ToJson::to_json(&r).to_string(),
///     r#"{"name":"wc","miss":0.01}"#
/// );
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_owned(),
                       $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

/// Serializes a slice of rows as a pretty-printed JSON array — the shape
/// `repro --json` and `impact lint --json` emit.
pub fn rows_to_json_pretty<R: ToJson>(rows: &[R]) -> String {
    Json::Arr(rows.iter().map(ToJson::to_json).collect()).to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        assert_eq!(Json::Str("a\"b".into()).to_string(), r#""a\"b""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(Json::Str("a\nb\u{1}".into()).to_string(), r#""a\nb\u0001""#);
    }

    #[test]
    fn arrays_and_objects_nest() {
        let doc = Json::Obj(vec![
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(doc.to_string(), r#"{"xs":[1,2],"empty":[]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let doc = Json::Obj(vec![("a".into(), Json::Num(1.0))]);
        assert_eq!(doc.to_string_pretty(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn macro_implements_to_json() {
        struct Row {
            name: &'static str,
            hits: u64,
            ratio: f64,
        }
        json_object!(Row { name, hits, ratio });
        let r = Row {
            name: "wc",
            hits: 10,
            ratio: 0.5,
        };
        assert_eq!(
            r.to_json().to_string(),
            r#"{"name":"wc","hits":10,"ratio":0.5}"#
        );
    }

    #[test]
    fn rows_serialize_as_array() {
        let out = rows_to_json_pretty(&[1u32, 2u32]);
        assert_eq!(out, "[\n  1,\n  2\n]");
    }

    #[test]
    fn options_and_tuples() {
        assert_eq!(Some(3u32).to_json().to_string(), "3");
        assert_eq!(None::<u32>.to_json().to_string(), "null");
        assert_eq!((1u32, "x").to_json().to_string(), r#"[1,"x"]"#);
    }

    #[test]
    fn parse_accepts_scalars() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("42"), Ok(Json::Num(42.0)));
        assert_eq!(parse("-0.5e2"), Ok(Json::Num(-50.0)));
        assert_eq!(parse(r#""hi\nA""#), Ok(Json::Str("hi\nA".into())));
        assert_eq!(parse(r#""🦀""#), Ok(Json::Str("🦀".into())));
    }

    #[test]
    fn parse_accepts_containers() {
        assert_eq!(
            parse(r#"[1, [2], {}]"#),
            Ok(Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![]),
            ]))
        );
        assert_eq!(
            parse("{\n  \"a\": [true],\n  \"b\": \"x\"\n}"),
            Ok(Json::Obj(vec![
                ("a".into(), Json::Arr(vec![Json::Bool(true)])),
                ("b".into(), Json::Str("x".into())),
            ]))
        );
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = parse("{\"a\": 1,\n  2}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3), "{e}");
        assert!(e.message.contains("key"), "{e}");

        let e = parse("[1, 2").unwrap_err();
        assert!(e.message.contains("`]`"), "{e}");

        let e = parse("007").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");

        let e = parse("[1] []").unwrap_err();
        assert_eq!(e.col, 5, "{e}");

        let e = parse("1e999").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");

        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }

    /// The root sits at depth 0, so `MAX_DEPTH + 1` nested arrays are the
    /// deepest accepted document, and the next `[` is refused where it
    /// stands.
    #[test]
    fn nesting_cap_is_pinned() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!((e.line, e.col), (1, MAX_DEPTH + 2), "{e}");
        assert!(e.message.contains("128"), "{e}");
        assert_eq!(
            e.to_string(),
            "line 1, column 130: nesting deeper than 128 levels"
        );
    }

    #[test]
    fn parse_rejects_bad_strings() {
        assert!(parse(r#""\x""#).is_err());
        assert!(parse("\"a\nb\"").is_err());
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""abc"#).is_err());
    }

    #[test]
    fn accessors_extract_payloads() {
        let doc = parse(r#"{"n": 3, "s": "x", "b": true, "xs": [1], "f": 0.5}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("f").and_then(Json::as_u64), None);
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(matches!(&doc, Json::Obj(fields) if fields.len() == 5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    /// A random document: scalars lean on integers and dyadic fractions
    /// (exact in `f64`), strings exercise the escape table.
    fn gen_doc(rng: &mut crate::rng::Rng, depth: u32) -> Json {
        let top = if depth >= 3 { 4 } else { 6 };
        match rng.gen_below(top) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_below(2) == 0),
            2 => {
                let base = rng.gen_below(1_000_000) as f64 - 500_000.0;
                Json::Num(base + rng.gen_below(16) as f64 / 16.0)
            }
            3 => {
                let alphabet = ['a', '"', '\\', '\n', '\t', 'é', '🦀', '\u{1}'];
                let s: String = (0..rng.gen_below(12))
                    .map(|_| alphabet[rng.gen_below(alphabet.len() as u64) as usize])
                    .collect();
                Json::Str(s)
            }
            4 => Json::Arr(
                (0..rng.gen_below(4))
                    .map(|_| gen_doc(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_below(4))
                    .map(|i| (format!("k{i}"), gen_doc(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn property_parse_render_round_trips() {
        crate::check::forall(
            256,
            |rng| gen_doc(rng, 0),
            |doc| {
                assert_eq!(parse(&doc.to_string()).as_ref(), Ok(doc));
                assert_eq!(parse(&doc.to_string_pretty()).as_ref(), Ok(doc));
            },
        );
    }
}
