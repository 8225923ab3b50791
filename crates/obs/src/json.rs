//! The workspace's one JSON value, its parser and its printers.
//!
//! Every JSON document the workspace writes is a [`Json`], printed: the
//! observability profile, the bench `Reporter` files,
//! `SimSnapshot::to_json` and the `served` frames (`ocapi_serve`
//! re-exports the type). [`Json::parse`] is the one decoder. The
//! workspace builds offline with zero registry dependencies, so it is
//! hand-rolled and kept boring:
//!
//! * **Insertion-ordered objects**, parsed or built, so a document
//!   built the same way prints the same bytes.
//! * **Stable numbers.** [`Json::Num`] prints Rust's shortest-roundtrip
//!   form (non-finite values print `null`); [`Json::U64`] prints
//!   exactly, so counters and snapshot words above 2^53 never pass
//!   through `f64`. The parser reads plain unsigned integer literals as
//!   `U64` and refuses numbers that overflow `f64`.
//! * **Two layouts.** `Display` prints the compact wire form; `{:#}`
//!   indents two spaces per level, one member per line, as every file
//!   the bench bins write.
//!
//! The profile (`Registry::profile_json`) splits its data in two, the
//! contract the CI determinism job relies on:
//!
//! ```json
//! {
//!   "bin": "table1",
//!   "deterministic": {
//!     "counters": { "compiled.cycles": 1200, ... },
//!     "spans": [ { "label": "...", "count": N, "children": [...] } ],
//!     "events": { "recorded": N, "dropped": M }
//!   },
//!   "timing": {
//!     "counters": { "pool.shards_stolen": 7, ... },
//!     "spans": { "compiled/tape": { "total_secs": ..., ... }, ... },
//!     "events": [ { "cycle": C, "kind": "...", "detail": "..." } ]
//!   }
//! }
//! ```
//!
//! Counters are in name order and spans in label order. `deterministic`
//! is a pure function of the workload, byte-identical for every
//! `--threads N`; `timing` measures one run and is stripped (`jq '{bin,
//! deterministic}'`) before any cross-run diff.

use std::fmt::{self, Write as _};

use crate::{Counter, Registry, Span};

/// A parsed or under-construction JSON value.
///
/// Equality is structural, except that numbers compare by value:
/// `U64(3) == Num(3.0)`, so a parsed document equals the value it was
/// printed from.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as `f64`: every parsed number except plain unsigned
    /// integers that fit a `u64`.
    Num(f64),
    /// An exact unsigned integer (counters, snapshot words).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (a, b) => matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if x == y),
        }
    }
}

/// Why [`Json::parse`] refused a document. Prints as
/// `json at byte N: what`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The byte offset at which parsing stopped.
    pub at: usize,
    /// What was wrong there.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected). Values nested more than 64 levels deep are
    /// refused, so the recursion is bounded.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the first offending byte.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (a [`Json::U64`] rounds to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer: any [`Json::U64`], or a
    /// [`Json::Num`] without fraction up to 2^53 (beyond that an `f64`
    /// has already lost precision).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Prints the value compactly (`indent` `None`) or indented, with
    /// its opening line at nesting level `indent`.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(&num(*n)),
            Json::U64(n) => write!(f, "{n}"),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => write_seq(f, indent, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => write_seq(
                f,
                indent,
                ['{', '}'],
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Json {
    /// Compact by default; `{:#}` indents by two spaces per level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// Prints the members of an array (no keys) or an object between
/// `open` and `close`.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let inner = indent.map(|level| level + 1);
    f.write_char(open)?;
    let mut empty = true;
    for (key, v) in items {
        if !empty {
            f.write_char(',')?;
        }
        empty = false;
        line_break(f, inner)?;
        if let Some(k) = key {
            write!(f, "\"{}\":", escape(k))?;
            if inner.is_some() {
                f.write_char(' ')?;
            }
        }
        v.write(f, inner)?;
    }
    if !empty {
        line_break(f, indent)?;
    }
    f.write_char(close)
}

/// In the indented form, a new line at nesting level `indent`; nothing
/// in the compact form.
fn line_break(f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
    if let Some(level) = indent {
        f.write_char('\n')?;
        for _ in 0..level {
            f.write_str("  ")?;
        }
    }
    Ok(())
}

/// Escapes a string for a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 as a JSON number (NaN/inf become null, which JSON
/// has no number for).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Convenience builder for insertion-ordered objects:
/// `obj([("a", Json::U64(1))])`.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).to_vec())
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> ParseError {
        ParseError {
            at: self.pos,
            what: what.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => Ok(Json::Arr(self.members(b']', |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Obj(self.members(b'}', |p| {
                let key = p.string()?;
                p.skip_ws();
                p.eat(b':')?;
                p.skip_ws();
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte {b:#04x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated members of the array or object whose opening
    /// bracket is at `pos`, each read by `member`, up to `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            // Surrogate pairs are rejected, not decoded:
                            // request ids and design names are ASCII.
                            let c = (self.text.get(self.pos + 1..self.pos + 5))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash.
                    // Both are ASCII, so the run is whole characters.
                    let rest = &self.text.as_bytes()[self.pos..];
                    let run = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                    let end = self.pos + run.unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // A plain unsigned integer stays exact; everything else is an f64.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err(&format!("number `{text}` is out of range"))),
            Err(_) => Err(self.err(&format!("invalid number `{text}`"))),
        }
    }
}

/// Counter totals as an object, in the registry's name order.
fn counters(cs: &[Counter]) -> Json {
    Json::Obj(
        cs.iter()
            .map(|c| (c.name().to_owned(), Json::U64(c.get())))
            .collect(),
    )
}

/// The deterministic span tree: label, hit count and children, no
/// durations.
fn span_tree(span: &Span) -> Json {
    obj([
        ("label", Json::Str(span.label().to_owned())),
        ("count", Json::U64(span.count())),
        (
            "children",
            Json::Arr(span.children().iter().map(span_tree).collect()),
        ),
    ])
}

/// Flattens a span's durations into `path → stats` pairs, where `path`
/// is the slash-joined labels from the root.
fn span_stats(span: &Span, prefix: &str, out: &mut Vec<(String, Json)>) {
    let path = if prefix.is_empty() {
        span.label().to_owned()
    } else {
        format!("{prefix}/{}", span.label())
    };
    let stats = obj([
        ("total_secs", Json::Num(span.total_secs())),
        ("exclusive_secs", Json::Num(span.exclusive_secs())),
        ("mean_secs", Json::Num(span.mean_secs())),
        ("min_secs", Json::Num(span.min_secs())),
        ("max_secs", Json::Num(span.max_secs())),
    ]);
    out.push((path.clone(), stats));
    for c in span.children() {
        span_stats(&c, &path, out);
    }
}

/// The deterministic section: counter totals, span structure with hit
/// counts, event totals. Byte-identical for every thread count of the
/// same workload.
pub(crate) fn deterministic(reg: &Registry) -> Json {
    let events = reg.events();
    obj([
        ("counters", counters(&reg.counters())),
        (
            "spans",
            Json::Arr(reg.roots().iter().map(span_tree).collect()),
        ),
        (
            "events",
            obj([
                ("recorded", Json::U64(events.recorded())),
                ("dropped", Json::U64(events.dropped())),
            ]),
        ),
    ])
}

/// The timing section: advisory counters, flattened span durations and
/// the buffered event entries. Advisory — different on every run.
pub(crate) fn timing(reg: &Registry) -> Json {
    let mut spans = Vec::new();
    for root in reg.roots() {
        span_stats(&root, "", &mut spans);
    }
    let events = reg.events().snapshot().into_iter().map(|e| {
        obj([
            ("cycle", Json::U64(e.cycle)),
            ("kind", Json::Str(e.kind.to_owned())),
            ("detail", Json::Str(e.detail)),
        ])
    });
    obj([
        ("counters", counters(&reg.advisory_counters())),
        ("spans", Json::Obj(spans)),
        ("events", Json::Arr(events.collect())),
    ])
}

/// The full profile document of `bin`: the deterministic and timing
/// sections side by side, so consumers can strip `timing` before
/// byte-diffing across thread counts.
pub(crate) fn profile(reg: &Registry, bin: &str) -> Json {
    obj([
        ("bin", Json::Str(bin.to_owned())),
        ("deterministic", deterministic(reg)),
        ("timing", timing(reg)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let reg = Registry::with_event_capacity(4);
        reg.counter("b.second").add(2);
        reg.counter("a.first").incr();
        reg.advisory_counter("pool.shards_stolen").add(7);
        let root = reg.span("interp");
        root.record_secs(1.0);
        root.child("evaluate").record_secs(0.5);
        root.child("commit").record_secs(0.25);
        reg.events().record(3, "fault", "stuck@0 n7");
        reg
    }

    #[test]
    fn profile_has_both_sections_and_bin() {
        let j = sample().profile_json("table1");
        assert!(j.contains("\"bin\": \"table1\""));
        assert!(j.contains("\"deterministic\""));
        assert!(j.contains("\"timing\""));
    }

    #[test]
    fn deterministic_section_has_no_timing_fields() {
        let j = sample().deterministic_json();
        assert!(j.contains("\"a.first\": 1"));
        assert!(j.contains("\"b.second\": 2"));
        assert!(j.contains("\"recorded\": 1"));
        assert!(!j.contains("secs"), "no duration leaks: {j}");
        assert!(
            !j.contains("shards_stolen"),
            "advisory counters stay out of the deterministic section"
        );
    }

    #[test]
    fn timing_section_flattens_span_paths() {
        let j = sample().timing_json();
        assert!(j.contains("\"interp/evaluate\""));
        assert!(j.contains("\"interp/commit\""));
        assert!(j.contains("\"total_secs\""));
        assert!(j.contains("\"exclusive_secs\""));
        assert!(j.contains("\"pool.shards_stolen\": 7"));
        assert!(j.contains("\"stuck@0 n7\""));
    }

    #[test]
    fn span_structure_nests_children_with_counts() {
        let j = sample().deterministic_json();
        let evaluate = j.find("\"evaluate\"").expect("child label present");
        let interp = j.find("\"interp\"").expect("root label present");
        assert!(interp < evaluate, "root precedes child");
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn escaping_and_non_finite_numbers() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn parses_as_json() {
        // The profile parses to the value it was printed from, and
        // printing the parsed value reproduces the file byte for byte.
        let reg = sample();
        let text = reg.profile_json("t");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v, profile(&reg, "t"));
        assert_eq!(format!("{v:#}\n"), text);
        let children = |v: &Json| v.get("children").and_then(Json::as_arr).map(<[Json]>::len);
        let root = &v.get("deterministic").and_then(|d| d.get("spans")).unwrap();
        assert_eq!(children(&root.as_arr().unwrap()[0]), Some(2));
    }

    #[test]
    fn indented_form_nests_two_spaces_per_level() {
        let v = obj([
            ("a", Json::Arr(vec![obj([("b", Json::Arr(vec![]))])])),
            ("c", Json::Obj(vec![])),
        ]);
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": [\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {}\n}"
        );
        assert_eq!(v.to_string(), r#"{"a":[{"b":[]}],"c":{}}"#);
    }

    #[test]
    fn round_trips_preserve_key_order_and_bytes() {
        let text = r#"{"b":1,"a":[true,null,"x\n"],"c":{"z":-2.5,"y":0}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        // Reparsing the rendering is a fixed point.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unsigned_integers_stay_exact() {
        let v = Json::parse("[18446744073709551615,9007199254740993,3.0,-1]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Json::U64(u64::MAX));
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(items[2], Json::U64(3), "numbers compare by value");
        assert_eq!(items[3].as_u64(), None);
        assert_eq!(
            v.to_string(),
            "[18446744073709551615,9007199254740993,3,-1]"
        );
    }

    #[test]
    fn numbers_beyond_f64_are_refused() {
        let err = Json::parse(r#"{"noise":[1e400]}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "json at byte 15: number `1e400` is out of range"
        );
        assert!(Json::parse("-1e400").is_err());
        // Beyond u64 but within f64: a float, not an error.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18_446_744_073_709_551_616.0)
        );
    }

    #[test]
    fn nesting_is_bounded_at_64_levels() {
        let nested = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(64)).is_ok());
        let err = Json::parse(&nested(65)).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
    }

    #[test]
    fn accessors_extract_typed_fields() {
        let v = Json::parse(r#"{"op":"ber","bursts":8,"noise":[0.1,0.2],"adapt":true}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ber"));
        assert_eq!(v.get("bursts").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("adapt").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("noise").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_typed_parse_errors() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\""] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(
                err.to_string().starts_with("json at byte "),
                "`{bad}`: {err}"
            );
        }
    }

    #[test]
    fn builder_objects_serialize_in_insertion_order() {
        let v = obj([
            ("id", Json::Str("j1".into())),
            ("type", Json::Str("done".into())),
            ("n", Json::Num(3.0)),
        ]);
        assert_eq!(v.to_string(), r#"{"id":"j1","type":"done","n":3}"#);
    }
}
