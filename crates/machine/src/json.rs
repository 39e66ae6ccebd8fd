//! The one JSON value type, parser and writer in the tree.
//!
//! Everything polymem emits as JSON — the daemon's line protocol,
//! `polymem analyze --json` / `tune --json`, and every committed
//! `BENCH_*.json` — is a [`Json`] value rendered by this module, and
//! every counter in those documents is named by
//! [`ExecStats::to_json`](crate::ExecStats::to_json). It lives in this
//! crate because that is the lowest one all of those emitters already
//! depend on; `polymem_serve::Json` re-exports it. The build
//! environment has no reachable crates-io mirror, hence hand-rolled.
//!
//! Two renderings of the same value: [`Display`](fmt::Display) is the
//! compact single-line wire form, [`Json::pretty`] the indented form
//! for files people diff. Both are inverse to [`Json::parse`] — the
//! writer emits nothing the parser rejects (non-finite numbers, which
//! JSON cannot carry, are written as `null`). Parsing is
//! recursive-descent with a depth cap so a hostile client cannot blow
//! the stack.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last wins on
    /// lookup, both serialized — the protocol never emits duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        (p.i == p.b.len()).then_some(v)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Json {
    /// An object holding `fields` in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` rounded to `places` decimals: ratios and milliseconds in
    /// reports are meaningful to a few digits, and a committed file
    /// should not churn in the sixteenth.
    pub fn fixed(x: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Num((x * scale).round() / scale)
    }

    /// The indented rendering, for files people read and diff: one
    /// object field or array element per line, except that arrays of
    /// scalars stay on one line. Ends with a newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0)).expect("writing to a String");
        out.push('\n');
        out
    }

    /// The one writer. `indent` is `None` for the compact wire form,
    /// else the current nesting level of the indented form.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        // Line break + indentation at `level`, or nothing when compact
        // (or when an array of scalars stays on its line).
        let nl = |out: &mut dyn fmt::Write, level: Option<usize>| match level {
            Some(l) => write!(out, "\n{:width$}", "", width = 2 * l),
            None => Ok(()),
        };
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            // JSON has no spelling for NaN or the infinities.
            Json::Num(n) if !n.is_finite() => out.write_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => write!(out, "{}", *n as i64),
            Json::Num(n) => write!(out, "{n}"),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                let inner = indent.filter(|_| !items.iter().all(scalar)).map(|l| l + 1);
                let sep = if indent.is_some() && inner.is_none() {
                    ", "
                } else {
                    ","
                };
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_str(sep)?;
                    }
                    nl(out, inner)?;
                    v.write(out, inner)?;
                }
                if !items.is_empty() {
                    nl(out, inner.and(indent))?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                let inner = indent.map(|l| l + 1);
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    nl(out, inner)?;
                    escape(k, out)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(out, inner)?;
                }
                if !fields.is_empty() {
                    nl(out, indent)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Write a string with JSON escaping.
fn escape(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The compact single-line form (the daemon's wire format).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Integers are exact up to 2^53, far above any counter here.
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_int!(i64, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        items.into_iter().collect()
    }
}

/// Collecting values yields an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        match *self.b.get(self.i)? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat(b']') {
                    return Some(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat(b']') {
                        return Some(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat(b'}') {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(b':') {
                        return None;
                    }
                    self.ws();
                    fields.push((k, self.value(depth + 1)?));
                    self.ws();
                    if self.eat(b'}') {
                        return Some(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match *self.b.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            // Unpaired surrogates are rejected; the
                            // protocol is ASCII in practice.
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                c if c < 0x20 => return None,
                _ => {
                    // Re-borrow as str to step over multi-byte chars.
                    let rest = std::str::from_utf8(&self.b[self.i..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        self.eat(b'-');
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
    }
}

/// A counter's JSON form; the stats structs' own `to_json` methods
/// nest through the same name.
pub(crate) trait CounterJson {
    fn to_json(&self) -> Json;
}

impl CounterJson for u64 {
    fn to_json(&self) -> Json {
        (*self).into()
    }
}

impl CounterJson for Vec<u64> {
    fn to_json(&self) -> Json {
        self.clone().into()
    }
}

/// `[("<field>", <value>), …]` over the named fields of a stats
/// struct, each under its own name. The pattern is exhaustive, so a
/// counter added to the struct without being reported here does not
/// compile.
macro_rules! counters_json {
    ($ty:ident { $($f:ident),* $(,)? } = $s:expr) => {{
        #[allow(unused_imports)]
        use $crate::json::CounterJson as _;
        let $ty { $($f),* } = $s;
        vec![$((stringify!($f), $f.to_json())),*]
    }};
}
pub(crate) use counters_json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(r#"{"cmd":"run","kernel":"me","size":32,"hierarchy":true}"#).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("size").unwrap().as_i64(), Some(32));
        assert_eq!(v.get("hierarchy").unwrap().as_bool(), Some(true));
        assert!(v.get("absent").is_none());
    }

    #[test]
    fn round_trips_strings_and_nesting() {
        let src = r#"{"a":[1,-2,3.5],"b":{"c":"x\"y\\z\nw"},"d":null,"e":false}"#;
        let v = Json::parse(src).unwrap();
        let re = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "tru",
            "1e999",
            "nan",
            "[1]x",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_none(), "{bad}");
        }
        // Depth cap: 100 nested arrays.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_none());
    }

    #[test]
    fn escape_covers_controls() {
        let v = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        // A bench ratio `a / 0` reaches the writer through `fixed`.
        assert_eq!(Json::fixed(1.0 / 0.0, 4).to_string(), "null");
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let v = Json::Arr(vec![Json::Num(n)]);
            assert_eq!(v.to_string(), "[null]");
            assert!(Json::parse(&v.pretty()).is_some());
        }
    }

    #[test]
    fn pretty_indents_objects_and_inlines_scalar_arrays() {
        let v = Json::obj([
            ("a", Json::from(vec![1u64, 2, 3])),
            ("b", Json::obj([("c", Json::fixed(2.0 / 3.0, 4))])),
            (
                "d",
                Json::Arr(vec![Json::obj::<&str>([]), Json::Arr(vec![])]),
            ),
        ]);
        let want = "{\n  \"a\": [1, 2, 3],\n  \"b\": {\n    \"c\": 0.6667\n  },\n  \"d\": [\n    {},\n    []\n  ]\n}\n";
        assert_eq!(v.pretty(), want);
        assert_eq!(Json::parse(&v.pretty()), Some(v.clone()));
        assert_eq!(
            v.to_string(),
            r#"{"a":[1,2,3],"b":{"c":0.6667},"d":[{},[]]}"#
        );
    }
}
