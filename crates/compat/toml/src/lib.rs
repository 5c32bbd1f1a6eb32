//! Offline stand-in for `toml`.
//!
//! The container this workspace builds in has no crates.io access, so
//! this crate implements the TOML subset the experiment-file loader
//! (`slimfly::plan`) reads:
//!
//! * key/value pairs with bare or quoted keys, including dotted keys;
//! * basic (`"…"` with escapes) and literal (`'…'`) strings;
//! * integers (sign, `_` separators), floats (including `inf`/`nan`),
//!   and booleans;
//! * arrays (multi-line, trailing comma allowed) and inline tables;
//! * `[table]` headers and `[[array-of-tables]]` headers with dotted
//!   paths (a header path that crosses an array of tables descends
//!   into its **last** element, per the TOML spec);
//! * `#` comments.
//!
//! Not implemented (plans never use them): dates/times, multi-line
//! strings, and non-string keys. Unlike the real crate there is no
//! serde integration and no writer: parsing yields a [`Value`] tree
//! that callers walk by hand.
//!
//! The sibling [`json`] module parses JSON into the same [`Value`]
//! tree; the benchmark reads `BENCHMARK.json` and its own result files
//! with it.

#![deny(clippy::unwrap_used, clippy::allow_attributes_without_reason)]

use std::collections::BTreeMap;
use std::fmt;

/// An ordered map of keys to values (BTreeMap: deterministic iteration
/// order independent of insertion order).
pub type Map = BTreeMap<String, Value>;

/// A parsed TOML (or JSON) value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    String(String),
    /// An integer.
    Integer(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Boolean(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A key → value table.
    Table(Map),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The key → value map, if this is a table.
    pub fn as_table(&self) -> Option<&Map> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Member lookup on tables (`None` on other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

/// Deepest nesting of arrays and tables either parser accepts: every
/// `[`/`{` and every table a dotted key or header opens is one level.
/// Both parsers recurse once per level, and so does `Drop`, so an
/// unbounded depth would let hostile input overflow the stack. Plans
/// nest four levels at most.
const MAX_DEPTH: usize = 128;

/// Fails with a typed error when a container would sit at nesting
/// `level` (1 = a top-level key's table or array) past [`MAX_DEPTH`].
fn check_depth(level: usize, line: usize) -> Result<(), TomlError> {
    if level <= MAX_DEPTH {
        Ok(())
    } else {
        Err(TomlError {
            line,
            msg: format!("arrays and tables nest deeper than {MAX_DEPTH} levels"),
        })
    }
}

/// Renders the byte a parser found where it expected something else:
/// `'q'`, or `end of input`.
fn found(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("{:?}", b as char),
        None => "end of input".into(),
    }
}

/// Parses a TOML document into a top-level [`Value::Table`].
pub fn from_str(text: &str) -> Result<Value, TomlError> {
    let mut p = Parser::new(text);
    let mut root = Map::new();
    // Path of the table currently receiving key/value pairs.
    let mut current: Vec<String> = Vec::new();
    loop {
        p.skip_trivia();
        if p.at_end() {
            break;
        }
        // Errors raised while *inserting* must point at the statement's
        // own line, not the one after it (end_of_line consumes the
        // newline and advances the counter).
        let stmt_line = p.line;
        if p.peek() == Some(b'[') {
            p.bump();
            let array = p.peek() == Some(b'[');
            if array {
                p.bump();
            }
            let path = p.parse_key_path()?;
            check_depth(path.len() + array as usize, stmt_line)?;
            p.expect(b']')?;
            if array {
                p.expect(b']')?;
            }
            p.end_of_line()?;
            if array {
                let (last, parents) = path
                    .split_last()
                    .expect("a key path has at least one segment");
                let entry = navigate(&mut root, parents, stmt_line)?
                    .entry(last.clone())
                    .or_insert_with(|| Value::Array(Vec::new()));
                match entry {
                    Value::Array(items) => items.push(Value::Table(Map::new())),
                    _ => {
                        return Err(TomlError {
                            line: stmt_line,
                            msg: format!("[[{}]] conflicts with a non-array key", path.join(".")),
                        })
                    }
                }
            } else {
                navigate(&mut root, &path, stmt_line)?;
            }
            current = path;
        } else {
            let path = p.parse_key_path()?;
            // The key's value sits inside the header's tables and the
            // tables the key's own dots open.
            let depth = current.len() + path.len() - 1;
            check_depth(depth, stmt_line)?;
            p.skip_inline_ws();
            p.expect(b'=')?;
            p.skip_inline_ws();
            let value = p.parse_value(depth)?;
            p.end_of_line()?;
            let table = navigate(&mut root, &current, stmt_line)?;
            insert_dotted(table, &path, value, stmt_line)?;
        }
    }
    Ok(Value::Table(root))
}

/// Walks (creating as needed) to the table at `path` from `root`,
/// descending into the last element of any array-of-tables crossed.
fn navigate<'a>(root: &'a mut Map, path: &[String], line: usize) -> Result<&'a mut Map, TomlError> {
    let mut t = root;
    for seg in path {
        let entry = t
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(Map::new()));
        t = match entry {
            Value::Table(sub) => sub,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(sub)) => sub,
                _ => {
                    return Err(TomlError {
                        line,
                        msg: format!("key {seg:?} is not a table"),
                    })
                }
            },
            _ => {
                return Err(TomlError {
                    line,
                    msg: format!("key {seg:?} is not a table"),
                })
            }
        };
    }
    Ok(t)
}

fn insert_dotted(
    table: &mut Map,
    path: &[String],
    value: Value,
    line: usize,
) -> Result<(), TomlError> {
    let (key, parents) = path
        .split_last()
        .expect("a key path has at least one segment");
    let target = navigate(table, parents, line)?;
    if target.insert(key.clone(), value).is_some() {
        return Err(TomlError {
            line,
            msg: format!("duplicate key {key:?}"),
        });
    }
    Ok(())
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            s: text.as_bytes(),
            i: 0,
            line: 1,
        }
    }

    fn err(&self, msg: String) -> TomlError {
        TomlError {
            line: self.line,
            msg,
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.s.len()
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(self.err(format!("expected {:?}, found {}", b as char, found(got)))),
        }
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.bump();
        }
    }

    /// Skips spaces, tabs and line breaks (JSON's whitespace).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    /// Skips a `#` comment, if one starts here, up to its line break.
    fn skip_comment(&mut self) {
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.bump();
            }
        }
    }

    /// Skips whitespace, newlines and comments.
    fn skip_trivia(&mut self) {
        self.skip_ws();
        while self.peek() == Some(b'#') {
            self.skip_comment();
            self.skip_ws();
        }
    }

    /// Consumes bytes up to the first of `stops` (or the end of input)
    /// and returns them.
    fn bare_token(&mut self, stops: &[u8]) -> String {
        let start = self.i;
        while self.peek().is_some_and(|b| !stops.contains(&b)) {
            self.bump();
        }
        String::from_utf8_lossy(&self.s[start..self.i]).into_owned()
    }

    /// Consumes trailing whitespace and an optional comment, then
    /// requires end of line (or end of input).
    fn end_of_line(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        self.skip_comment();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b'\r') => {
                self.bump();
                self.expect(b'\n')
            }
            Some(other) => Err(self.err(format!("unexpected {:?} after value", other as char))),
        }
    }

    /// One key segment: bare (`A-Za-z0-9_-`) or quoted.
    fn parse_key(&mut self) -> Result<String, TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            Some(b'"') => self.parse_basic_string(false),
            Some(b'\'') => self.parse_literal_string(),
            _ => {
                let start = self.i;
                while matches!(self.peek(),
                    Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
                {
                    self.bump();
                }
                if self.i == start {
                    return Err(self.err("expected a key".into()));
                }
                Ok(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
            }
        }
    }

    /// A dotted key path (`a.b.c`).
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                self.bump();
                path.push(self.parse_key()?);
            } else {
                break;
            }
        }
        Ok(path)
    }

    /// A double-quoted string. JSON strings (`json`) also take the
    /// escapes `\/`, `\b` and `\f` and raw line breaks; TOML basic
    /// strings reject them.
    fn parse_basic_string(&mut self, json: bool) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string".into())),
                Some(b'\n') if !json => return Err(self.err("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'/') if json => out.push('/'),
                    Some(b'b') if json => out.push('\u{8}'),
                    Some(b'f') if json => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape".into()))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("bad \\u code point".into()))?,
                        );
                    }
                    other => {
                        return Err(self.err(format!(
                            "unsupported escape: backslash followed by {}",
                            found(other)
                        )))
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let len = utf8_len(b);
                    let start = self.i - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    out.push_str(&String::from_utf8_lossy(&self.s[start..self.i]));
                }
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'\'')?;
        let start = self.i;
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.err("unterminated string".into())),
                Some(b'\'') => {
                    return Ok(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
                }
                Some(_) => {}
            }
        }
    }

    /// Parses one value enclosed by `depth` arrays and tables.
    fn parse_value(&mut self, depth: usize) -> Result<Value, TomlError> {
        match self.peek() {
            None => Err(self.err("expected a value".into())),
            Some(b'"') => Ok(Value::String(self.parse_basic_string(false)?)),
            Some(b'\'') => Ok(Value::String(self.parse_literal_string()?)),
            Some(b'[') => {
                check_depth(depth + 1, self.line)?;
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        other => {
                            return Err(self.err(format!(
                                "expected ',' or ']' in array, found {}",
                                found(other)
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                check_depth(depth + 1, self.line)?;
                self.bump();
                let mut table = Map::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b'}') {
                        self.bump();
                        return Ok(Value::Table(table));
                    }
                    let path = self.parse_key_path()?;
                    let inner = depth + path.len();
                    check_depth(inner, self.line)?;
                    self.skip_inline_ws();
                    self.expect(b'=')?;
                    self.skip_inline_ws();
                    let v = self.parse_value(inner)?;
                    let line = self.line;
                    insert_dotted(&mut table, &path, v, line)?;
                    self.skip_trivia();
                    if self.peek() == Some(b',') {
                        self.bump();
                    }
                }
            }
            Some(_) => {
                // Bare token: boolean, integer or float.
                let tok = self.bare_token(b",]}#\n\r \t");
                match tok.as_str() {
                    "true" => return Ok(Value::Boolean(true)),
                    "false" => return Ok(Value::Boolean(false)),
                    _ => {}
                }
                let clean: String = tok.chars().filter(|&c| c != '_').collect();
                if !clean.contains(['.', 'e', 'E', 'n', 'i']) {
                    if let Ok(i) = clean.parse::<i64>() {
                        return Ok(Value::Integer(i));
                    }
                }
                match clean.as_str() {
                    "inf" | "+inf" => return Ok(Value::Float(f64::INFINITY)),
                    "-inf" => return Ok(Value::Float(f64::NEG_INFINITY)),
                    "nan" | "+nan" | "-nan" => return Ok(Value::Float(f64::NAN)),
                    _ => {}
                }
                clean
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err(format!("cannot parse value {tok:?}")))
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1,
    }
}

/// JSON parsing into the same [`Value`] tree (objects become tables;
/// integral numbers without `.`/exponent become [`Value::Integer`]),
/// on the TOML parser's cursor and string scanner.
pub mod json {
    use super::{check_depth, found, Map, Parser, TomlError, Value};

    /// Parses a JSON document (any top-level value).
    pub fn from_str(text: &str) -> Result<Value, TomlError> {
        let mut p = Parser::new(text);
        let v = p.json_value(0)?;
        p.skip_ws();
        if !p.at_end() {
            return Err(p.err("trailing characters after JSON value".into()));
        }
        Ok(v)
    }

    impl Parser<'_> {
        /// Parses one JSON value enclosed by `depth` arrays and objects.
        fn json_value(&mut self, depth: usize) -> Result<Value, TomlError> {
            self.skip_ws();
            match self.peek() {
                None => Err(self.err("expected a JSON value".into())),
                Some(b'"') => Ok(Value::String(self.parse_basic_string(true)?)),
                Some(b'[') => {
                    check_depth(depth + 1, self.line)?;
                    self.bump();
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Array(items));
                    }
                    loop {
                        items.push(self.json_value(depth + 1)?);
                        self.skip_ws();
                        match self.bump() {
                            Some(b',') => {}
                            Some(b']') => return Ok(Value::Array(items)),
                            other => {
                                return Err(self
                                    .err(format!("expected ',' or ']', found {}", found(other))))
                            }
                        }
                    }
                }
                Some(b'{') => {
                    check_depth(depth + 1, self.line)?;
                    self.bump();
                    let mut table = Map::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.bump();
                        return Ok(Value::Table(table));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.parse_basic_string(true)?;
                        self.skip_ws();
                        self.expect(b':')?;
                        let v = self.json_value(depth + 1)?;
                        if table.insert(key.clone(), v).is_some() {
                            return Err(self.err(format!("duplicate key {key:?}")));
                        }
                        self.skip_ws();
                        match self.bump() {
                            Some(b',') => {}
                            Some(b'}') => return Ok(Value::Table(table)),
                            other => {
                                return Err(self
                                    .err(format!("expected ',' or '}}', found {}", found(other))))
                            }
                        }
                    }
                }
                Some(_) => {
                    let tok = self.bare_token(b",]} \t\n\r");
                    match tok.as_str() {
                        "true" => return Ok(Value::Boolean(true)),
                        "false" => return Ok(Value::Boolean(false)),
                        "null" => return Err(self.err("null is not representable".into())),
                        _ => {}
                    }
                    if !tok.contains(['.', 'e', 'E']) {
                        if let Ok(i) = tok.parse::<i64>() {
                            return Ok(Value::Integer(i));
                        }
                    }
                    tok.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| self.err(format!("cannot parse JSON token {tok:?}")))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_arrays() {
        let doc = r#"
            # an experiment
            name = "fig8"
            count = 42
            big = 1_000
            load = 0.625
            neg = -3.5e-2
            on = true
            loads = [0.1, 0.25, 0.5,]
            tags = ["a", 'b']
            inline = { x = 1, y = "two" }
        "#;
        let v = from_str(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig8"));
        assert_eq!(v.get("count").unwrap().as_int(), Some(42));
        assert_eq!(v.get("big").unwrap().as_int(), Some(1000));
        assert_eq!(v.get("load").unwrap().as_float(), Some(0.625));
        assert_eq!(v.get("neg").unwrap().as_float(), Some(-3.5e-2));
        assert_eq!(v.get("on").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("loads").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("tags").unwrap().as_array().unwrap()[1].as_str(),
            Some("b")
        );
        assert_eq!(
            v.get("inline").unwrap().get("y").unwrap().as_str(),
            Some("two")
        );
    }

    #[test]
    fn tables_and_arrays_of_tables() {
        let doc = r#"
            [figure]
            name = "fig6"

            [[sweep]]
            topo = "sf:q=7"
            loads = [0.1, 0.2]

            [sweep.sim]
            warmup = 1000

            [[sweep]]
            topo = "df:p=3"
        "#;
        let v = from_str(doc).unwrap();
        assert_eq!(
            v.get("figure").unwrap().get("name").unwrap().as_str(),
            Some("fig6")
        );
        let sweeps = v.get("sweep").unwrap().as_array().unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].get("topo").unwrap().as_str(), Some("sf:q=7"));
        // [sweep.sim] attached to the *first* [[sweep]] element.
        assert_eq!(
            sweeps[0]
                .get("sim")
                .unwrap()
                .get("warmup")
                .unwrap()
                .as_int(),
            Some(1000)
        );
        assert_eq!(sweeps[1].get("topo").unwrap().as_str(), Some("df:p=3"));
        assert!(sweeps[1].get("sim").is_none());
    }

    #[test]
    fn parse_errors_carry_lines() {
        let err = from_str("a = 1\nb = @bad\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_str("a = 1\na = 2\n").unwrap_err();
        assert!(err.msg.contains("duplicate"));
        assert_eq!(err.line, 2, "insert errors point at their own line");
        let err = from_str("a = 1\n[[a]]\n").unwrap_err();
        assert!(err.msg.contains("conflicts"));
        assert_eq!(err.line, 2);
        assert!(from_str("x = [1, 2\n").is_err());
    }

    #[test]
    fn json_parses_into_same_tree() {
        let j = r#"{"figure": {"name": "fig8"}, "sweep": [{"topo": "sf:q=7", "loads": [0.1, 0.5], "warm_start": false, "n": 3}]}"#;
        let v = json::from_str(j).unwrap();
        assert_eq!(
            v.get("figure").unwrap().get("name").unwrap().as_str(),
            Some("fig8")
        );
        let sw = &v.get("sweep").unwrap().as_array().unwrap()[0];
        assert_eq!(
            sw.get("loads").unwrap().as_array().unwrap()[1].as_float(),
            Some(0.5)
        );
        assert_eq!(sw.get("warm_start").unwrap().as_bool(), Some(false));
        assert_eq!(sw.get("n").unwrap().as_int(), Some(3));
        assert!(json::from_str("{\"a\": null}").is_err());
        assert!(json::from_str("[1, 2,]").is_err());
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        // Each of these overflowed the stack before depth was bounded.
        let deep = 100_000;
        let cases = [
            (
                "arrays",
                from_str(&format!("a = 1\nx = {}", "[".repeat(deep))),
            ),
            (
                "json arrays",
                json::from_str(&format!("{{\"figure\":\n{}", "[".repeat(deep))),
            ),
            (
                "inline tables",
                from_str(&format!("a = 1\nx = {}", "{a=".repeat(deep))),
            ),
            (
                "dotted keys",
                from_str(&format!("a = 1\nx{} = 1", ".a".repeat(deep))),
            ),
            (
                "headers",
                from_str(&format!("a = 1\n[x{}]", ".a".repeat(deep))),
            ),
        ];
        for (what, got) in cases {
            let err = got.unwrap_err();
            assert!(
                err.msg.contains("nest deeper than 128 levels"),
                "{what}: {err}"
            );
            assert_eq!(err.line, 2, "{what}: {err}");
        }
    }

    #[test]
    fn nesting_limit_is_exact() {
        let arrays = |n: usize| format!("x = {}1{}", "[".repeat(n), "]".repeat(n));
        let tables = |n: usize| format!("x = {}1{}", "{a = ".repeat(n), "}".repeat(n));
        let json_arrays = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let dotted = |n: usize| format!("x{} = 1", ".a".repeat(n - 1));
        assert!(from_str(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(from_str(&tables(MAX_DEPTH)).is_ok());
        assert!(from_str(&tables(MAX_DEPTH + 1)).is_err());
        assert!(json::from_str(&json_arrays(MAX_DEPTH)).is_ok());
        assert!(json::from_str(&json_arrays(MAX_DEPTH + 1)).is_err());
        // A dotted key of n segments opens n - 1 tables.
        assert!(from_str(&dotted(MAX_DEPTH + 1)).is_ok());
        assert!(from_str(&dotted(MAX_DEPTH + 2)).is_err());
    }

    #[test]
    fn messages_name_characters_not_options() {
        let cases = [
            from_str("name = \"a\\qb\"\n"),
            from_str("name = \"a\\"),
            from_str("x = [1 2]\n"),
            from_str("[a"),
            json::from_str("\"a\\qb\""),
            json::from_str("\"a\\"),
            json::from_str("[1 2]"),
            json::from_str("{\"a\": 1 2}"),
            json::from_str("{\"a\" 1}"),
        ]
        .map(|r| r.unwrap_err().msg);
        for msg in &cases {
            assert!(!msg.contains("Some(") && !msg.contains("None"), "{msg}");
        }
        assert_eq!(cases[0], "unsupported escape: backslash followed by 'q'");
        assert_eq!(
            cases[1],
            "unsupported escape: backslash followed by end of input"
        );
        assert_eq!(cases[2], "expected ',' or ']' in array, found '2'");
        assert_eq!(cases[3], "expected ']', found end of input");
        assert_eq!(cases[5], cases[1]);
        assert_eq!(cases[8], "expected ':', found '1'");
    }
}
