//! A pocket JSON value type with a recursive-descent parser and a
//! writer — just enough for the gateway's request/response bodies. No
//! serde integration on purpose: the gateway translates between JSON and
//! the binary protocol by hand, field by field, so shapes stay explicit.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON document. Arrays and objects may nest at most 128
    /// deep; deeper input is an `Err`, never a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integers render without a fraction.
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    f.write_str("null") // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, and a request body reaches it straight off a socket, so without
/// a bound a 10 KB run of `[` overflows an HTTP worker's stack and aborts
/// the process. Gateway bodies nest at most 3 deep.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting too deep at offset {pos} (limit {MAX_DEPTH})"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).unwrap_or("\u{fffd}"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn roundtrips_nested_values() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":"x\"y","d":true,"e":null},"f":""}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
        // Re-parse of the rendering is identical.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12x", "[1] tail"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(42.0).to_string(), "42");
        assert_eq!(Json::num(2.5).to_string(), "2.5");
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""café ☃""#).unwrap();
        assert_eq!(v, Json::Str("café ☃".into()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A default-stack thread, like the HTTP workers that parse bodies.
        let deep = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)));
        let err = deep.join().expect("the parsing thread survives").expect_err("too deep");
        assert!(err.contains("nesting too deep"), "{err}");

        let nested = |n: usize| format!("{}1{}", r#"[{"a":"#.repeat(n), "}]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH / 2)).is_ok(), "the limit itself parses");
        assert!(Json::parse(&nested(MAX_DEPTH / 2 + 1)).is_err());
    }

    /// Bytes the grammar branches on, so random input gets past the first
    /// byte instead of failing there.
    const TOKENS: &[u8] = b"[]{}\",:0123456789.eE-+nulltruefalse\\/u ";

    fn lossy(picks: Vec<(u8, u8)>) -> String {
        let bytes: Vec<u8> = picks
            .into_iter()
            .map(|(kind, b)| if kind == 0 { b } else { TOKENS[b as usize % TOKENS.len()] })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// One node of a generated tree: (kind, width, number, text).
    type Op = (u8, usize, f64, String);

    /// Builds a tree top-down from a flat op list, at most 6 containers
    /// deep; ops running out mid-container fill the rest with `null`.
    fn build(ops: &mut std::slice::Iter<'_, Op>, depth: usize) -> Json {
        let Some((kind, width, num, text)) = ops.next() else { return Json::Null };
        match kind {
            0 => Json::Null,
            1 => Json::Bool(*num > 0.0),
            2 => Json::Num(*num),
            3 => Json::Num((num % 1e15).trunc()),
            4 => Json::Str(text.clone()),
            5 if depth < 6 => Json::Arr((0..*width).map(|_| build(ops, depth + 1)).collect()),
            6 if depth < 6 => {
                Json::Obj((0..*width).map(|_| (text.clone(), build(ops, depth + 1))).collect())
            }
            _ => Json::Str(String::new()),
        }
    }

    fn text() -> impl Strategy<Value = String> {
        // Control characters, quotes, backslashes, multi-byte and astral
        // characters all appear.
        vec(0u32..0x800, 0..6).prop_map(|cs| {
            cs.into_iter()
                .filter_map(|c| char::from_u32(if c >= 0x7f0 { 0x1f600 + c - 0x7f0 } else { c }))
                .collect()
        })
    }

    fn finite() -> impl Strategy<Value = f64> {
        (-1.0f64..1.0, -300i32..300).prop_map(|(m, e)| m * 10f64.powi(e))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(picks in vec((0u8..4, 0u8..=255), 0..512)) {
            let _ = Json::parse(&lossy(picks));
        }

        #[test]
        fn finite_trees_round_trip(ops in vec((0u8..8, 0usize..5, finite(), text()), 1..48)) {
            let v = build(&mut ops.iter(), 0);
            prop_assert_eq!(Json::parse(&v.to_string()), Ok(v));
        }
    }
}
