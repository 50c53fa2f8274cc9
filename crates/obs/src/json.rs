//! The workspace's one JSON path: a balance-asserting writer and a
//! small, depth-capped reader.
//!
//! JSON appears only at the pipeline's edges — the metrics snapshot,
//! `casbn inspect --json`, `casbn cluster --json`, `casbn stream
//! --json`, the `casbn bench` baseline file and the `figures --json`
//! dumps on the way out; the bench baseline and `casbn pack --kind
//! clusters` on the way in. Each site writes and reads its own schema
//! with the plain calls below; there is no derive and no trait.
//!
//! * [`JsonWriter`] has the store's `Enc` discipline: every emission is
//!   explicit, nesting is tracked on a stack, and
//!   [`JsonWriter::finish`] asserts the document closed balanced —
//!   malformed output is a bug caught at the write site, not downstream.
//! * [`parse`] tokenizes a document into a plain [`Value`] tree. Errors
//!   are typed ([`JsonError`]) and carry the byte offset; nesting is
//!   capped at [`MAX_DEPTH`] so hostile input cannot exhaust the stack,
//!   and strings are scanned in one linear pass.

use std::fmt;

/// Deepest container nesting [`parse`] accepts. The reader recurses
/// once per level, so the cap bounds its stack use; every schema in the
/// workspace nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Incremental pretty-printing JSON writer.
///
/// The writer owns its output buffer; containers are opened and closed
/// explicitly and a key must precede every value inside an object.
/// Two-space indentation, `\n` line endings, keys in emission order —
/// callers that need canonical output (the deterministic metrics
/// snapshot) emit from sorted maps.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One frame per open container: `(is_array, has_elements)`.
    stack: Vec<(bool, bool)>,
    /// A key was just written; the next value continues its line.
    pending_key: bool,
}

impl JsonWriter {
    /// Fresh writer with an empty buffer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Newline + indent, with a separating comma when the enclosing
    /// container already holds elements; no-op right after a key.
    fn element(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some((_, has)) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Close-brace placement: newline + indent to the parent level when
    /// the container emitted anything.
    fn closing(&mut self, had: bool) {
        if had {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) {
        self.element();
        self.out.push('{');
        self.stack.push((false, false));
    }

    /// Close `}`.
    pub fn end_object(&mut self) {
        let (is_array, had) = self.stack.pop().expect("end_object with no open container");
        assert!(!is_array, "end_object closing an array");
        self.closing(had);
        self.out.push('}');
    }

    /// Open `[`.
    pub fn begin_array(&mut self) {
        self.element();
        self.out.push('[');
        self.stack.push((true, false));
    }

    /// Close `]`.
    pub fn end_array(&mut self) {
        let (is_array, had) = self.stack.pop().expect("end_array with no open container");
        assert!(is_array, "end_array closing an object");
        self.closing(had);
        self.out.push(']');
    }

    /// Object key; the next emission is its value.
    pub fn key(&mut self, key: &str) {
        let (is_array, _) = *self.stack.last().expect("key outside an object");
        assert!(!is_array, "key inside an array");
        assert!(!self.pending_key, "two keys in a row");
        self.element();
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Unsigned integer value, exact over the whole `u64` range. Readers
    /// that hold numbers as doubles lose precision past 2^53, which is
    /// why the metrics snapshot hex-encodes its checksums as strings.
    pub fn value_u64(&mut self, v: u64) {
        self.element();
        self.out.push_str(&v.to_string());
    }

    /// Float value: Rust's shortest round-trip digits, with `.0`
    /// appended to integral values so they re-read as floats, and
    /// `null` for NaN and the infinities.
    pub fn value_f64(&mut self, v: f64) {
        self.element();
        if v.is_finite() {
            let s = v.to_string();
            self.out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// String value, escaped.
    pub fn value_str(&mut self, v: &str) {
        self.element();
        write_escaped(&mut self.out, v);
    }

    /// Boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.element();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn value_null(&mut self) {
        self.element();
        self.out.push_str("null");
    }

    /// A whole parsed tree, re-emitted in this writer's layout.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.value_null(),
            Value::Bool(b) => self.value_bool(*b),
            Value::UInt(n) => self.value_u64(*n),
            Value::Float(x) => self.value_f64(*x),
            Value::String(s) => self.value_str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Value::Object(entries) => {
                self.begin_object();
                for (k, item) in entries {
                    self.key(k);
                    self.value(item);
                }
                self.end_object();
            }
        }
    }

    /// Close out the document: asserts every container was closed and a
    /// trailing newline ends the buffer.
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "unclosed container at finish");
        assert!(!self.pending_key, "dangling key at finish");
        self.out.push('\n');
        self.out
    }
}

/// Append `s` to `out` as a quoted JSON string.
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON document. Objects keep their entries in document
/// order (duplicates included). Unsigned integer literals stay exact
/// integers; every other number is a float, so writing a tree back
/// reproduces it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Literal with no sign, fraction or exponent.
    UInt(u64),
    /// Any other number (always finite).
    Float(f64),
    /// String, unescaped.
    String(String),
    /// `[…]`.
    Array(Vec<Value>),
    /// `{…}` as `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

/// Why a document was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Not well-formed JSON: what was expected or wrong, and where.
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What went wrong.
        what: &'static str,
    },
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first container past the cap.
        offset: usize,
    },
    /// Well-formed JSON that does not fit the schema the caller reads.
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, what } => write!(f, "{what} at byte {offset}"),
            JsonError::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            JsonError::Schema(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Name of the value's kind, for schema errors.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) => "an integer",
            Value::Float(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    fn mismatch(&self, expected: &str) -> JsonError {
        JsonError::Schema(format!("expected {expected}, found {}", self.kind()))
    }

    /// The value under `key` of an object (the first, if repeated).
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::Schema(format!("missing field `{key}`"))),
            other => Err(other.mismatch("an object")),
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(other.mismatch("an array")),
        }
    }

    /// Each element of an array, read by `read`.
    pub fn map_array<T>(
        &self,
        read: impl FnMut(&Value) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.as_array()?.iter().map(read).collect()
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n),
            other => Err(other.mismatch("an unsigned integer")),
        }
    }

    /// A non-negative integer that fits in 32 bits.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let n = self.as_u64()?;
        u32::try_from(n).map_err(|_| JsonError::Schema(format!("integer {n} out of range for u32")))
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            other => Err(other.mismatch("a number")),
        }
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(other.mismatch("a string")),
        }
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut lex = Lexer { text, pos: 0 };
    let first = lex.next()?;
    let value = lex.value(first, 0)?;
    match lex.next()? {
        (Token::End, _) => Ok(value),
        (_, offset) => Err(JsonError::Syntax {
            offset,
            what: "trailing characters after the document",
        }),
    }
}

/// One lexical token.
enum Token {
    BeginArray,
    EndArray,
    BeginObject,
    EndObject,
    Colon,
    Comma,
    Literal(Value),
    End,
}

/// Tokenizer over the document, plus the recursive-descent assembly
/// of tokens into a [`Value`].
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl Lexer<'_> {
    fn syntax(&self, offset: usize, what: &'static str) -> JsonError {
        JsonError::Syntax { offset, what }
    }

    /// The next token and the byte offset it starts at.
    fn next(&mut self) -> Result<(Token, usize), JsonError> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok((Token::End, start));
        };
        let token = match b {
            b'[' => Token::BeginArray,
            b']' => Token::EndArray,
            b'{' => Token::BeginObject,
            b'}' => Token::EndObject,
            b':' => Token::Colon,
            b',' => Token::Comma,
            b'"' => return Ok((Token::Literal(Value::String(self.string()?)), start)),
            b'-' | b'0'..=b'9' => return Ok((Token::Literal(self.number()?), start)),
            _ => {
                for (word, value) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if self.text[start..].starts_with(word) {
                        self.pos += word.len();
                        return Ok((Token::Literal(value), start));
                    }
                }
                return Err(self.syntax(start, "expected a JSON value"));
            }
        };
        self.pos += 1;
        Ok((token, start))
    }

    /// Assemble the value that starts with `first`, `depth` containers
    /// deep.
    fn value(&mut self, first: (Token, usize), depth: usize) -> Result<Value, JsonError> {
        let (token, offset) = first;
        let is_array = match token {
            Token::Literal(v) => return Ok(v),
            Token::BeginArray => true,
            Token::BeginObject => false,
            Token::End => return Err(self.syntax(offset, "unexpected end of input")),
            _ => return Err(self.syntax(offset, "expected a JSON value")),
        };
        if depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { offset });
        }
        let mut items = Vec::new();
        let mut entries = Vec::new();
        let mut next = self.next()?;
        let closes = |t: &Token| match t {
            Token::EndArray => is_array,
            Token::EndObject => !is_array,
            _ => false,
        };
        if !closes(&next.0) {
            loop {
                if is_array {
                    items.push(self.value(next, depth + 1)?);
                } else {
                    let key = match next {
                        (Token::Literal(Value::String(k)), _) => k,
                        (_, at) => return Err(self.syntax(at, "expected a string key")),
                    };
                    match self.next()? {
                        (Token::Colon, _) => {}
                        (_, at) => return Err(self.syntax(at, "expected `:`")),
                    }
                    let first = self.next()?;
                    entries.push((key, self.value(first, depth + 1)?));
                }
                match self.next()? {
                    (Token::Comma, _) => next = self.next()?,
                    (t, _) if closes(&t) => break,
                    (_, at) if is_array => return Err(self.syntax(at, "expected `,` or `]`")),
                    (_, at) => return Err(self.syntax(at, "expected `,` or `}`")),
                }
            }
        }
        Ok(if is_array {
            Value::Array(items)
        } else {
            Value::Object(entries)
        })
    }

    /// A quoted string starting at `self.pos`. Runs of plain characters
    /// are copied as slices, so the scan is linear in the string length.
    fn string(&mut self) -> Result<String, JsonError> {
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        self.pos += 1;
        loop {
            let run = self.pos;
            while matches!(bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // `"`, `\` and control bytes are ASCII, so the run ends on a
            // character boundary
            out.push_str(&self.text[run..self.pos]);
            match bytes.get(self.pos) {
                None => return Err(self.syntax(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    let c = match bytes.get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            // surrogate escapes are rejected: no writer
                            // here emits them
                            let c = self
                                .text
                                .get(at + 2..at + 6)
                                .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|d| char::from_u32(u32::from_str_radix(d, 16).ok()?))
                                .ok_or_else(|| self.syntax(at, "invalid \\u escape"))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(self.syntax(at, "invalid escape")),
                    };
                    out.push(c);
                    self.pos += 2;
                }
                Some(_) => return Err(self.syntax(self.pos, "control character in string")),
            }
        }
    }

    /// A number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let digits = |pos: &mut usize| {
            let from = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos - from
        };
        let mut pos = start + usize::from(bytes[start] == b'-');
        let int_digits = digits(&mut pos);
        if int_digits == 0 || (int_digits > 1 && bytes[pos - int_digits] == b'0') {
            return Err(self.syntax(start, "invalid number"));
        }
        let mut is_float = false;
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            is_float = true;
            if digits(&mut pos) == 0 {
                return Err(self.syntax(start, "invalid number"));
            }
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            is_float = true;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            if digits(&mut pos) == 0 {
                return Err(self.syntax(start, "invalid number"));
            }
        }
        self.pos = pos;
        let text = &self.text[start..pos];
        let out_of_range = self.syntax(start, "number out of range");
        if is_float || bytes[start] == b'-' {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Float(x)),
                _ => Err(out_of_range),
            }
        } else {
            text.parse().map(Value::UInt).map_err(|_| out_of_range)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_is_balanced_and_pretty() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version");
        w.value_u64(1);
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.key("list");
        w.begin_array();
        w.value_u64(2);
        w.value_str("three");
        w.value_bool(true);
        w.end_array();
        w.end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"version\": 1,\n  \"empty\": {},\n  \"list\": [\n    2,\n    \"three\",\n    true\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("k\"ey");
        w.value_str("a\\b\nc\u{1}");
        w.end_object();
        let text = w.finish();
        assert!(
            text.contains("\"k\\\"ey\": \"a\\\\b\\nc\\u0001\""),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "unclosed container")]
    fn unbalanced_document_panics_at_finish() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.finish();
    }

    fn f64_text(x: f64) -> String {
        let mut w = JsonWriter::new();
        w.value_f64(x);
        w.finish().trim_end().to_string()
    }

    #[test]
    fn floats_are_shortest_round_trip_with_integral_dot_zero() {
        assert_eq!(f64_text(2.0), "2.0");
        assert_eq!(f64_text(2.5), "2.5");
        assert_eq!(f64_text(-0.0), "-0.0");
        assert_eq!(f64_text(0.00000105), "0.00000105");
        assert_eq!(f64_text(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(f64_text(f64::NAN), "null");
        assert_eq!(f64_text(f64::INFINITY), "null");
        for x in [1e300, 5e-324, 123456789.125, -7.0] {
            assert_eq!(parse(&f64_text(x)), Ok(Value::Float(x)));
        }
    }

    #[test]
    fn values_parse_with_their_number_kinds() {
        let v = parse(" {\"a\": [1, -2, 3.5, 1e2, -0, true, null], \"b\": \"x\"} ").unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::UInt(1),
                        Value::Float(-2.0),
                        Value::Float(3.5),
                        Value::Float(100.0),
                        Value::Float(-0.0),
                        Value::Bool(true),
                        Value::Null,
                    ])
                ),
                ("b".into(), Value::String("x".into())),
            ])
        );
        assert_eq!(v.field("b").unwrap().as_str(), Ok("x"));
        assert!(v.field("c").is_err());
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""a\u0041\n\"\/\u00e9é\u0001""#),
            Ok(Value::String("aA\n\"/éé\u{1}".into()))
        );
    }

    #[test]
    fn written_trees_read_back_identically() {
        let text = "{\"k\": [[], {}, [1, -1, 0.5, \"s\\t\"], {\"n\": null, \"t\": false}]}";
        let v = parse(text).unwrap();
        let mut w = JsonWriter::new();
        w.value(&v);
        let written = w.finish();
        assert_eq!(parse(&written), Ok(v));
    }

    #[test]
    fn malformed_documents_are_typed_errors_with_offsets() {
        let cases: &[(&str, usize)] = &[
            ("", 0),
            ("[1,]", 3),
            ("[1 2]", 3),
            ("{\"a\" 1}", 5),
            ("{1: 2}", 1),
            ("\"open", 5),
            ("\"bad \\q\"", 5),
            ("\"\\ud800\"", 1),
            ("\"tab\there\"", 4),
            ("01", 0),
            ("1.", 0),
            ("-", 0),
            ("1e999", 0),
            ("18446744073709551616", 0),
            ("truex", 4),
            ("nul", 0),
            ("[1] [2]", 4),
        ];
        for &(text, offset) in cases {
            match parse(text) {
                Err(JsonError::Syntax { offset: at, .. }) => assert_eq!(at, offset, "{text:?}"),
                other => panic!("{text:?} gave {other:?}"),
            }
        }
        let e = parse("[1,]").unwrap_err();
        assert_eq!(e.to_string(), "expected a JSON value at byte 3");
    }

    #[test]
    fn nesting_is_accepted_at_the_cap_and_rejected_past_it() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        // objects count toward the same cap
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&objects), Err(JsonError::TooDeep { .. })));
        // far past the cap is the same typed error, not a stack overflow
        assert!(matches!(
            parse(&nested(200_000)),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn schema_accessors_name_the_mismatch() {
        let v = parse("{\"n\": 4294967296, \"s\": \"x\", \"i\": -1}").unwrap();
        assert_eq!(v.field("n").unwrap().as_u64(), Ok(1 << 32));
        assert!(v.field("n").unwrap().as_u32().is_err());
        assert_eq!(v.field("i").unwrap().as_f64(), Ok(-1.0));
        assert_eq!(
            v.field("s").unwrap().as_u64().unwrap_err().to_string(),
            "expected an unsigned integer, found a string"
        );
        assert!(v.as_array().is_err());
    }
}
