//! Dependency-free JSON serialization (and parsing) for report export.
//!
//! The workspace builds with no network access, so it cannot use
//! `serde`/`serde_json`. The export surface is small (a handful of report
//! structs written once per experiment run, plus the trace JSONL
//! streams), so a tiny tree type plus a `ToJson` trait is enough; field
//! names match what `serde` would have produced, so downstream plotting
//! scripts are unaffected. The parser ([`Json::parse`]) and the
//! required-field readers ([`Json::u64_field`] and friends) serve every
//! reader: the `seer check` schema validators and the store's shard
//! codecs.

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (serialized without a decimal point).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float; non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serializes with 2-space indentation (matches
    /// `serde_json::to_string_pretty`'s layout closely enough for humans
    /// and exactly enough for parsers).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes on one line with no whitespace — the JSONL form (one
    /// record per line requires the record itself to be newline-free).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both forms.
            scalar => scalar.write(out, 0),
        }
    }

    /// Member lookup on an object; `None` on missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (accepts `Int` ≥ 0).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a float (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(f) => Some(f),
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The required member `name`; an error names the missing key. The
    /// typed readers below build on it, so every schema check and shard
    /// codec in the workspace reports a bad field the same way.
    pub fn field(&self, name: &str) -> Result<&Json, String> {
        self.get(name)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    /// The required member `name` as an unsigned integer.
    pub fn u64_field(&self, name: &str) -> Result<u64, String> {
        self.field(name)?
            .as_u64()
            .ok_or_else(|| format!("field {name:?} is not a u64"))
    }

    /// The required member `name` as a float (any numeric variant).
    pub fn f64_field(&self, name: &str) -> Result<f64, String> {
        self.field(name)?
            .as_f64()
            .ok_or_else(|| format!("field {name:?} is not a number"))
    }

    /// The required member `name` as a string slice.
    pub fn str_field(&self, name: &str) -> Result<&str, String> {
        self.field(name)?
            .as_str()
            .ok_or_else(|| format!("field {name:?} is not a string"))
    }

    /// The required member `name` as a bool.
    pub fn bool_field(&self, name: &str) -> Result<bool, String> {
        self.field(name)?
            .as_bool()
            .ok_or_else(|| format!("field {name:?} is not a bool"))
    }

    /// The required member `name` as an array slice.
    pub fn array_field(&self, name: &str) -> Result<&[Json], String> {
        self.field(name)?
            .as_array()
            .ok_or_else(|| format!("field {name:?} is not an array"))
    }

    /// The required member `name` as a nullable unsigned integer: present
    /// and `null` is `None`; absent is an error.
    pub fn opt_u64_field(&self, name: &str) -> Result<Option<u64>, String> {
        match self.field(name)? {
            Json::Null => Ok(None),
            v => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {name:?} is neither null nor a u64")),
        }
    }

    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// Supports everything this module's serializer emits (which is all of
    /// standard JSON); numbers parse as `UInt`/`Int` when integral and
    /// within range, `Num` otherwise.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    // `{f}` is Rust's shortest round-trip float formatting,
                    // and always includes enough precision to reparse.
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        // Match serde_json: floats keep a decimal point.
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Unpaired surrogates are replaced, which is
                            // fine: the serializer never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] tree (the shim's `serde::Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
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

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

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
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string_pretty(), "null");
        assert_eq!(Json::Bool(true).to_string_pretty(), "true");
        assert_eq!(Json::UInt(42).to_string_pretty(), "42");
        assert_eq!(Json::Num(1.5).to_string_pretty(), "1.5");
        assert_eq!(Json::Num(2.0).to_string_pretty(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string_pretty(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).to_string_pretty(),
            r#""a\"b\\c\nd""#
        );
    }

    #[test]
    fn structure_renders_pretty() {
        let v = Json::object([
            ("name", "x".to_json()),
            ("points", vec![(1usize, 0.5f64)].to_json()),
            ("empty", Json::Array(vec![])),
        ]);
        let text = v.to_string_pretty();
        assert_eq!(
            text,
            "{\n  \"name\": \"x\",\n  \"points\": [\n    [\n      1,\n      0.5\n    ]\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(None::<f64>.to_json(), Json::Null);
        assert_eq!(Some(3.0f64).to_json(), Json::Num(3.0));
    }

    #[test]
    fn compact_form_is_single_line() {
        let v = Json::object([
            ("name", "x\ny".to_json()),
            ("points", vec![(1usize, 0.5f64)].to_json()),
            ("empty", Json::Array(vec![])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(text, r#"{"name":"x\ny","points":[[1,0.5]],"empty":[]}"#);
        assert!(!text.contains('\n'));
    }

    #[test]
    fn parse_round_trips_both_forms() {
        let v = Json::object([
            ("b", Json::Bool(false)),
            ("n", Json::Null),
            ("i", Json::Int(-3)),
            ("u", Json::UInt(18_446_744_073_709_551_615)),
            ("f", Json::Num(0.125)),
            ("s", "esc \"\\\n\t".to_json()),
            ("a", Json::Array(vec![Json::UInt(1), Json::Num(2.5)])),
            ("o", Json::object([("k", Json::UInt(9))])),
        ]);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing garbage");
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn accessors_navigate() {
        let v = Json::parse(r#"{"a":{"b":[1,true,"x",2.5]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3].as_f64(), Some(2.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn field_readers_type_check_required_members() {
        let v = Json::parse(r#"{"u":3,"f":2.5,"s":"x","b":true,"a":[1],"neg":-1}"#).unwrap();
        assert_eq!(v.u64_field("u"), Ok(3));
        assert_eq!(v.f64_field("f"), Ok(2.5));
        assert_eq!(v.f64_field("u"), Ok(3.0), "integers read as numbers");
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.bool_field("b"), Ok(true));
        assert_eq!(v.array_field("a").map(<[Json]>::len), Ok(1));
        // A missing key and a wrong type are distinct errors; a non-object
        // has no fields at all.
        assert_eq!(v.u64_field("zz"), Err("missing field \"zz\"".into()));
        assert_eq!(v.u64_field("s"), Err("field \"s\" is not a u64".into()));
        assert!(v.u64_field("neg").is_err());
        assert!(v.f64_field("s").is_err() && v.str_field("u").is_err());
        assert!(v.bool_field("u").is_err() && v.array_field("s").is_err());
        assert!(Json::Null.u64_field("u").is_err());
    }

    #[test]
    fn opt_u64_field_separates_null_from_absent() {
        let v = Json::parse(r#"{"n":null,"u":7,"s":"x"}"#).unwrap();
        assert_eq!(v.opt_u64_field("n"), Ok(None));
        assert_eq!(v.opt_u64_field("u"), Ok(Some(7)));
        assert!(v.opt_u64_field("absent").is_err(), "absent is not null");
        assert!(v.opt_u64_field("s").is_err());
    }
}
