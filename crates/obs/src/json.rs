//! A minimal JSON reader/writer, so the workspace carries no external
//! serialization dependency.
//!
//! It backs the transcript format in `dprep-llm` (which re-exports this
//! module), the JSONL trace parser in [`crate::export`], and the
//! [`crate::report`] renderers. Supports the full JSON value grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null).
//! Numbers round-trip through Rust's shortest-representation float
//! formatting.
//!
//! Decoding is linear in the input, and nesting is capped at 64 levels
//! so a hostile frame cannot exhaust the parser's stack.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// No document the workspace writes nests deeper than five levels (the
/// daemon's `health` reply); the cap exists so an untrusted frame of `[[[[…` is a parse error, not a
/// stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Parses a complete JSON document (rejects trailing garbage and
    /// nesting deeper than 64 levels).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                message: "trailing characters after value".into(),
            });
        }
        Ok(value)
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    }
}

/// Copies each run of bytes that needs no escape in one `push_str`. Every
/// byte that does is ASCII, so run boundaries are always char boundaries.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Copies each run up to the next `"` or `\` in one `push_str`: both
/// are ASCII, so every run of a `&str` ends on a char boundary and needs
/// no re-validation.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(&text[*pos..run]);
                *pos = run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("line\nbreak \"quoted\"".into())),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Null]),
            ),
            ("ok".into(), Json::Bool(true)),
        ]);
        let text = v.to_json();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("bell\u{7}".into());
        let text = v.to_json();
        assert!(text.contains("\\u0007"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for (text, at, message) in [
            ("not json", 0, "expected \"null\""),
            ("{\"a\":}", 5, "invalid number \"\""),
            ("[1,]", 3, "invalid number \"\""),
            ("{} trailing", 3, "trailing characters after value"),
            ("\"unterminated", 13, "unterminated string"),
        ] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!((e.at, e.message.as_str()), (at, message), "{text}");
        }
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert_eq!(MAX_DEPTH, 64);
        assert!(Json::parse(&nested(64)).is_ok());
        let e = Json::parse(&nested(65)).unwrap_err();
        assert_eq!(e.at, 64);
        assert_eq!(e.message, "nesting deeper than 64 levels");

        // Objects count toward the same cap.
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&objects(64)).is_ok());
        assert!(Json::parse(&objects(65)).is_err());

        // A frame of nothing but openers fails at the cap, long before
        // its end, instead of recursing once per byte.
        let e = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.at, 64);
    }

    #[test]
    fn encoder_output_is_pinned() {
        let cases: Vec<(Json, &str)> = vec![
            (Json::Str("q\"b\\s/".into()), r#""q\"b\\s/""#),
            (Json::Str("n\nr\rt\t".into()), r#""n\nr\rt\t""#),
            (
                Json::Str("\u{0}\u{7}\u{8}\u{c}\u{1b}\u{1f} \u{7f}".into()),
                "\"\\u0000\\u0007\\u0008\\u000c\\u001b\\u001f \u{7f}\"",
            ),
            (
                Json::Str("caf\u{e9} \u{20ac}5 \u{1f600}".into()),
                "\"caf\u{e9} \u{20ac}5 \u{1f600}\"",
            ),
            (
                Json::Str("\"\u{e9}\\\u{1f600}\"".into()),
                "\"\\\"\u{e9}\\\\\u{1f600}\\\"\"",
            ),
            (Json::Str(String::new()), r#""""#),
            (Json::Num(0.0), "0"),
            (Json::Num(-0.0), "0"),
            (Json::Num(-42.0), "-42"),
            (Json::Num(999_999_999_999_999.0), "999999999999999"),
            (Json::Num(1e15), "1000000000000000"),
            (Json::Num(1e15 + 1.0), "1000000000000001"),
            (Json::Num(-1e15), "-1000000000000000"),
            (Json::Num(1e16), "10000000000000000"),
            (Json::Num(0.5), "0.5"),
            (Json::Num(-2.25), "-2.25"),
            (Json::Num(1e-7), "0.0000001"),
            (Json::Num(0.1 + 0.2), "0.30000000000000004"),
            (Json::Num(f64::NAN), "null"),
            (Json::Num(f64::INFINITY), "null"),
            (Json::Num(f64::NEG_INFINITY), "null"),
            (
                Json::Obj(vec![
                    ("k\"".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
                    ("b".into(), Json::Bool(false)),
                ]),
                r#"{"k\"":[1,null],"b":false}"#,
            ),
        ];
        for (value, expected) in cases {
            assert_eq!(value.to_json(), expected, "{value:?}");
        }
    }

    #[test]
    fn decodes_escapes_the_writer_never_emits() {
        let v = Json::parse(r#""\/\b\f\u00E9\u20ac""#).unwrap();
        assert_eq!(v, Json::Str("/\u{8}\u{c}\u{e9}\u{20ac}".into()));
    }

    /// A string that mixes ASCII runs, every character the writer escapes,
    /// and 2-, 3- and 4-byte UTF-8, with `"` and `\` often landing right
    /// at the start or end of a run.
    fn mixed_string(rng: &mut dprep_rng::Rng) -> String {
        const PIECES: &[&str] = &[
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "/",
            "\u{e9}",
            "\u{df}",
            "\u{20ac}",
            "\u{4e2d}",
            "\u{1f600}",
            "\u{7f}",
        ];
        let mut s = String::new();
        for _ in 0..rng.range_usize(0, 12) {
            if rng.bool(0.5) {
                let len = rng.range_usize(1, 9);
                s.push_str(&rng.ascii_string(b"abcXYZ019 _-:", len));
            } else {
                s.push_str(rng.choose(PIECES).expect("nonempty"));
            }
        }
        s
    }

    fn mixed_value(rng: &mut dprep_rng::Rng, depth: usize) -> Json {
        match rng.range_usize(0, if depth < 3 { 6 } else { 4 }) {
            0 => Json::Str(mixed_string(rng)),
            1 => Json::Num((rng.range_f64(-1e6, 1e6) * 1e3).round() / 1e3),
            2 => Json::Bool(rng.bool(0.5)),
            3 => Json::Null,
            4 => Json::Arr(
                (0..rng.range_usize(0, 4))
                    .map(|_| mixed_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.range_usize(0, 4))
                    .map(|_| (mixed_string(rng), mixed_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_values_round_trip() {
        let mut rng = dprep_rng::Rng::seed_from_u64(0x6a73_6f6e);
        for _ in 0..2_000 {
            let v = mixed_value(&mut rng, 0);
            let text = v.to_json();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "{text}");
        }
    }

    /// Decoding must stay linear: re-validating the rest of the buffer per
    /// character would cost on the order of 10^13 byte checks here and
    /// never finish.
    #[test]
    fn four_mib_string_parses() {
        let chunk = "plain ascii run \u{e9}\u{20ac}\u{1f600} \"quoted\" back\\slash\n";
        let body = chunk.repeat((4 << 20) / chunk.len() + 1);
        assert!(body.len() >= 4 << 20);
        let v = Json::Str(body);
        assert_eq!(Json::parse(&v.to_json()), Ok(v));
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1_000_000.0).to_json(), "1000000");
        assert_eq!(Json::Num(0.004).to_json(), "0.004");
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"a\": [1, \"two\"], \"b\": 3}").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_usize), Some(3));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(v.get("missing"), None);
    }
}
