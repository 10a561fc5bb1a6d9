//! The contextualization grammar of §3.3 of the paper.
//!
//! LLMs intake raw text, so each data instance is rendered as
//!
//! ```text
//! [name: "value", name: "value", attr: ???]
//! ```
//!
//! with `???` (unquoted) marking a missing cell. Inside quoted values, `"`
//! and `\` are escaped with a backslash, and a line break is written as
//! `\n` / `\r`, so the format round-trips and a cell never spans lines.
//!
//! This module is deliberately symmetric: [`contextualize`] serializes a
//! [`Record`], and [`parse_instance`] parses the text back into
//! `(name, value)` pairs. The prompt builder uses the former; the simulated
//! LLM uses the latter to *comprehend* prompts — which is how the simulation
//! stays honest (it only ever sees the same characters a real API would).

use crate::error::TabularError;
use crate::record::Record;
use crate::value::Value;

/// A parsed contextualized instance: attribute names with their raw string
/// values (`None` for missing cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedInstance {
    /// `(attribute name, value)` pairs in serialization order.
    pub fields: Vec<(String, Option<String>)>,
}

impl ParsedInstance {
    /// Looks up a field by attribute name.
    pub fn get(&self, name: &str) -> Option<&Option<String>> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Names of all fields, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// All non-missing values concatenated — handy for embedding and
    /// similarity computations over whole instances.
    pub fn flat_text(&self) -> String {
        let mut out = String::new();
        for (_, v) in &self.fields {
            if let Some(v) = v {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(v);
            }
        }
        out
    }
}

/// Appends `raw` with the quoted-value escapes: `"` and `\` take a
/// backslash, and line breaks become `\n` / `\r` so a cell can never
/// split the line-oriented prompt around it. Unescaped runs are copied in
/// one `push_str`.
fn escape_into(out: &mut String, raw: &str) {
    let mut run_start = 0;
    for (i, byte) in raw.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        // All four bytes are ASCII, so `i` is always a char boundary.
        out.push_str(&raw[run_start..i]);
        out.push_str(escaped);
        run_start = i + 1;
    }
    out.push_str(&raw[run_start..]);
}

/// Appends one text cell: the escaped text in quotes.
fn write_text(out: &mut String, text: &str) {
    out.push('"');
    escape_into(out, text);
    out.push('"');
}

/// Appends one cell: `???` when missing, otherwise the escaped value in
/// quotes. Text is escaped in place; numbers and booleans are formatted
/// straight into `out` (their `Display` form needs no escaping).
fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Missing => out.push_str("???"),
        Value::Text(text) => write_text(out, text),
        other => {
            use std::fmt::Write;
            out.push('"');
            let _ = write!(out, "{other}");
            out.push('"');
        }
    }
}

/// Appends `(name, cell)` pairs in the contextualization format, each cell
/// through `write_cell`. This is the single source of truth for the
/// grammar.
fn write_fields<'a, T>(
    out: &mut String,
    fields: impl IntoIterator<Item = (&'a str, T)>,
    write_cell: impl Fn(&mut String, T),
) {
    out.push('[');
    for (i, (name, cell)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        out.push_str(": ");
        write_cell(out, cell);
    }
    out.push(']');
}

/// Serializes a record to the `[name: "value", …]` contextualization format.
pub fn contextualize(record: &Record) -> String {
    let mut out = String::new();
    contextualize_into(&mut out, record);
    out
}

/// Appends the contextualization of `record` to `out`.
pub fn contextualize_into(out: &mut String, record: &Record) {
    write_fields(out, record.named_values(), write_value);
}

/// Serializes only the attributes at `indices` — feature selection (§3.4).
pub fn contextualize_selected(record: &Record, indices: &[usize]) -> String {
    let mut out = String::new();
    contextualize_selected_into(&mut out, record, indices.iter().copied());
    out
}

/// Appends the contextualization of the attributes at `indices`, in that
/// order; indices outside the schema are skipped.
pub fn contextualize_selected_into(
    out: &mut String,
    record: &Record,
    indices: impl IntoIterator<Item = usize>,
) {
    let schema = record.schema();
    write_fields(
        out,
        indices.into_iter().filter_map(|i| {
            let name = schema.attribute(i)?.name.as_str();
            Some((name, record.get(i)?))
        }),
        write_value,
    );
}

/// Appends an instance whose every field is text, e.g. a schema-matching
/// attribute's `[name: "…", description: "…"]`.
pub fn contextualize_text_into(out: &mut String, pairs: &[(&str, &str)]) {
    write_fields(out, pairs.iter().copied(), write_text);
}

/// Parses a contextualized instance back into `(name, value)` pairs.
///
/// Accepts exactly the output of [`contextualize`]; leading/trailing
/// whitespace around the brackets is tolerated.
pub fn parse_instance(text: &str) -> Result<ParsedInstance, TabularError> {
    let err = |reason: &str| TabularError::ContextParse {
        reason: reason.to_string(),
    };
    let body = text.trim();
    let body = body
        .strip_prefix('[')
        .ok_or_else(|| err("missing opening '['"))?;
    let body = body
        .strip_suffix(']')
        .ok_or_else(|| err("missing closing ']'"))?;

    let mut fields = Vec::new();
    let mut chars = body.chars().peekable();

    loop {
        // Skip separators / whitespace between fields.
        while matches!(chars.peek(), Some(' ') | Some(',')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        // Attribute name: everything up to the first ':'.
        let mut name = String::new();
        loop {
            match chars.next() {
                Some(':') => break,
                Some(c) => name.push(c),
                None => return Err(err("attribute name not followed by ':'")),
            }
        }
        let name = name.trim().to_string();
        if name.is_empty() {
            return Err(err("empty attribute name"));
        }
        while matches!(chars.peek(), Some(' ')) {
            chars.next();
        }
        // Value: either a quoted string or the ??? placeholder.
        match chars.peek() {
            Some('"') => {
                chars.next();
                let mut value = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('n') => value.push('\n'),
                            Some('r') => value.push('\r'),
                            Some(c) => value.push(c),
                            None => return Err(err("dangling escape at end of value")),
                        },
                        Some('"') => break,
                        Some(c) => value.push(c),
                        None => return Err(err("unterminated quoted value")),
                    }
                }
                fields.push((name, Some(value)));
            }
            Some('?') => {
                for _ in 0..3 {
                    if chars.next() != Some('?') {
                        return Err(err("malformed missing-value placeholder"));
                    }
                }
                fields.push((name, None));
            }
            Some(c) => {
                return Err(err(&format!(
                    "unexpected character {c:?} at value position"
                )))
            }
            None => return Err(err("missing value after ':'")),
        }
    }

    if fields.is_empty() {
        return Err(err("instance has no fields"));
    }
    Ok(ParsedInstance { fields })
}

/// Finds every contextualized instance (`[...]` group) embedded in a larger
/// text, parsing each. Used by the simulated LLM to extract data instances
/// from a full prompt. Unparseable groups are skipped.
pub fn extract_instances(text: &str) -> Vec<ParsedInstance> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            // Scan to the matching ']' respecting quotes and escapes.
            let mut j = i + 1;
            let mut in_quote = false;
            let mut escaped = false;
            let mut end = None;
            while j < bytes.len() {
                let c = bytes[j];
                if escaped {
                    escaped = false;
                } else if in_quote {
                    match c {
                        b'\\' => escaped = true,
                        b'"' => in_quote = false,
                        _ => {}
                    }
                } else {
                    match c {
                        b'"' => in_quote = true,
                        b']' => {
                            end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(end) = end {
                if let Ok(inst) = parse_instance(&text[i..=end]) {
                    out.push(inst);
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn restaurant() -> Record {
        let schema = Schema::all_text(&["name", "addr", "phone", "type", "city"])
            .unwrap()
            .shared();
        Record::new(
            schema,
            vec![
                Value::text("carey's corner"),
                Value::text("1215 powers ferry rd."),
                Value::text("770-933-0909"),
                Value::text("hamburgers"),
                Value::Missing,
            ],
        )
        .unwrap()
    }

    #[test]
    fn serialization_matches_paper_format() {
        let text = contextualize(&restaurant());
        assert_eq!(
            text,
            "[name: \"carey's corner\", addr: \"1215 powers ferry rd.\", \
             phone: \"770-933-0909\", type: \"hamburgers\", city: ???]"
        );
    }

    #[test]
    fn round_trip() {
        let r = restaurant();
        let parsed = parse_instance(&contextualize(&r)).unwrap();
        assert_eq!(parsed.fields.len(), 5);
        assert_eq!(parsed.get("phone"), Some(&Some("770-933-0909".to_string())));
        assert_eq!(parsed.get("city"), Some(&None));
    }

    #[test]
    fn escaping_round_trips() {
        let schema = Schema::all_text(&["quote"]).unwrap().shared();
        let r = Record::new(schema, vec![Value::text(r#"he said "hi\" to me"#)]).unwrap();
        let text = contextualize(&r);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(
            parsed.get("quote"),
            Some(&Some(r#"he said "hi\" to me"#.to_string()))
        );
    }

    #[test]
    fn line_breaks_stay_on_one_line_and_round_trip() {
        let schema = Schema::all_text(&["name", "note"]).unwrap().shared();
        let cases = [
            "ann\nQuestion 2: is this fine?",
            "crlf\r\nend",
            "literal \\n and \\r stay literal",
            "\\\n\"\r",
        ];
        for raw in cases {
            let r = Record::new(schema.clone(), vec![Value::text(raw), Value::Int(3)]).unwrap();
            let text = contextualize(&r);
            assert!(!text.contains(['\n', '\r']), "{text:?} spans lines");
            let parsed = parse_instance(&text).unwrap();
            assert_eq!(parsed.get("name"), Some(&Some(raw.to_string())), "{text:?}");
            assert_eq!(parsed.get("note"), Some(&Some("3".to_string())));
            assert_eq!(extract_instances(&format!("x {text} y")), vec![parsed]);
        }
        assert_eq!(
            contextualize_selected(
                &Record::new(schema, vec![Value::text("a\nb"), Value::Missing]).unwrap(),
                &[0, 1]
            ),
            "[name: \"a\\nb\", note: ???]"
        );
    }

    #[test]
    fn appending_writers_match_the_allocating_forms() {
        let r = restaurant();
        let mut out = String::from("prefix ");
        contextualize_into(&mut out, &r);
        assert_eq!(out, format!("prefix {}", contextualize(&r)));
        out.clear();
        contextualize_selected_into(&mut out, &r, [2, 9, 1]);
        assert_eq!(out, contextualize_selected(&r, &[2, 1]));
        out.clear();
        contextualize_text_into(&mut out, &[("name", "zip"), ("description", "a \"code\"")]);
        assert_eq!(out, r#"[name: "zip", description: "a \"code\""]"#);
    }

    #[test]
    fn selected_attributes_only() {
        let r = restaurant();
        let text = contextualize_selected(&r, &[2, 1]);
        assert_eq!(
            text,
            "[phone: \"770-933-0909\", addr: \"1215 powers ferry rd.\"]"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_instance("no brackets").is_err());
        assert!(parse_instance("[]").is_err());
        assert!(parse_instance("[a: unquoted]").is_err());
        assert!(parse_instance("[a: \"open").is_err());
        assert!(parse_instance("[a: ?]").is_err());
        assert!(parse_instance("[: \"v\"]").is_err());
    }

    #[test]
    fn extract_finds_multiple_instances() {
        let text = format!(
            "Question 1: Record is {}. What is the city?\nQuestion 2: Record is {}.",
            contextualize(&restaurant()),
            contextualize(&restaurant())
        );
        let found = extract_instances(&text);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].get("type"), Some(&Some("hamburgers".to_string())));
    }

    #[test]
    fn extract_skips_unparseable_brackets() {
        let text = "see [1] and [name: \"ok\"] and [broken";
        let found = extract_instances(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("name"), Some(&Some("ok".to_string())));
    }

    #[test]
    fn flat_text_skips_missing() {
        let parsed = parse_instance("[a: \"x\", b: ???, c: \"y z\"]").unwrap();
        assert_eq!(parsed.flat_text(), "x y z");
        assert_eq!(parsed.names(), vec!["a", "b", "c"]);
    }
}
