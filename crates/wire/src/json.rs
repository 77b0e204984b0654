//! The one JSON reader: a tokenizer with two views over it.
//!
//! * The **tree view** ([`parse`] → [`Json`]) owns its data. Integer
//!   tokens are kept exactly ([`Json::Int`] covers the whole `u64` and
//!   `i64` ranges metric snapshots need); every other number is an
//!   `f64`.
//! * The **span view** ([`members`], [`member`], [`array_items`],
//!   [`value_end`]) returns verbatim slices of the input and allocates
//!   nothing per value. The router merges shard envelopes on these
//!   spans so that nothing a shard rendered is ever re-rendered.
//!
//! Both views read through the same `Lexer`, so strings, escapes and
//! nesting mean the same thing to both, and both refuse input nested
//! deeper than `MAX_DEPTH`. The tree view checks the full grammar;
//! the span view checks only what it walks past (the members or items
//! of the one container it was asked to split) and balances the rest.

use std::fmt::Write as _;

/// Nesting cap for both views. The deepest document the workspace
/// emits (a `detail=full` batch envelope) nests five levels.
pub(crate) const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects keep insertion order (handy for
/// deterministic round-trips in tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number token with no fraction or exponent, kept exactly.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

/// The largest magnitude below which every integral `f64` is exact.
const F64_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= F64_EXACT => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= F64_EXACT => Some(*x as i64),
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

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's ordered key/value pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
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
}

/// One lexical token. Strings and numbers are byte ranges of the input;
/// nothing is decoded until the tree view asks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok {
    ObjOpen,
    ObjClose,
    ArrOpen,
    ArrClose,
    Colon,
    Comma,
    Str(StrTok),
    /// A number token and whether it is digits only (after any sign).
    Num {
        start: usize,
        end: usize,
        integer: bool,
    },
    True,
    False,
    Null,
}

/// A string token: its contents' byte range (quotes excluded) and
/// whether it holds a `\`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StrTok {
    start: usize,
    end: usize,
    escaped: bool,
}

/// The tokenizer both views read through.
struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    /// Where the token [`Lexer::next`] returned last begins.
    tok_start: usize,
}

impl Lexer<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next token, or `None` at end of input.
    fn next(&mut self) -> Result<Option<Tok>, String> {
        self.skip_ws();
        let Some(&c) = self.b.get(self.pos) else { return Ok(None) };
        let start = self.pos;
        self.tok_start = start;
        let rest = &self.b[start..];
        let (tok, len) = match c {
            b'{' => (Tok::ObjOpen, 1),
            b'}' => (Tok::ObjClose, 1),
            b'[' => (Tok::ArrOpen, 1),
            b']' => (Tok::ArrClose, 1),
            b':' => (Tok::Colon, 1),
            b',' => (Tok::Comma, 1),
            b'"' => return self.string().map(Some),
            b'-' | b'0'..=b'9' => return Ok(Some(self.number())),
            _ if rest.starts_with(b"true") => (Tok::True, 4),
            _ if rest.starts_with(b"false") => (Tok::False, 5),
            _ if rest.starts_with(b"null") => (Tok::Null, 4),
            _ => return Err(format!("unexpected byte at {start}")),
        };
        self.pos += len;
        Ok(Some(tok))
    }

    /// Like [`Lexer::next`], but end of input is an error.
    fn expect_next(&mut self) -> Result<Tok, String> {
        self.next()?.ok_or_else(|| format!("unexpected end of input at byte {}", self.pos))
    }

    /// Scans a string token; `pos` is at the opening quote.
    fn string(&mut self) -> Result<Tok, String> {
        let start = self.pos + 1;
        let mut escaped = false;
        let mut i = start;
        loop {
            match self.b.get(i) {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos = i + 1;
                    return Ok(Tok::Str(StrTok { start, end: i, escaped }));
                }
                // Skip the escaped byte, so `\"` does not end the string.
                Some(b'\\') => {
                    escaped = true;
                    i += 2;
                }
                Some(c) if *c < 0x20 => return Err(format!("control byte in string at {i}")),
                Some(_) => i += 1,
            }
        }
    }

    /// Scans a number token; `pos` is at its first byte. The run is
    /// validated when (and only if) the tree view converts it.
    fn number(&mut self) -> Tok {
        let start = self.pos;
        self.pos += 1;
        let mut integer = true;
        while let Some(c) = self.b.get(self.pos) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        Tok::Num { start, end: self.pos, integer }
    }

    fn text(&self, start: usize, end: usize) -> Result<&str, String> {
        std::str::from_utf8(&self.b[start..end]).map_err(|_| format!("bad utf-8 at byte {start}"))
    }

    /// The one place the member grammar lives: walks the container
    /// whose opening token was just read, calling `each` with every
    /// member's key (objects only) and the first token of its value;
    /// `each` consumes the rest of the value.
    fn each_member(
        &mut self,
        object: bool,
        mut each: impl FnMut(&mut Self, Option<StrTok>, Tok) -> Result<(), String>,
    ) -> Result<(), String> {
        let close = if object { Tok::ObjClose } else { Tok::ArrClose };
        let mut tok = self.expect_next()?;
        if tok == close {
            return Ok(());
        }
        loop {
            let mut key = None;
            if object {
                let Tok::Str(k) = tok else {
                    return Err(format!("expected member key at byte {}", self.tok_start));
                };
                if self.expect_next()? != Tok::Colon {
                    return Err(format!("expected ':' at byte {}", self.tok_start));
                }
                (key, tok) = (Some(k), self.expect_next()?);
            }
            each(self, key, tok)?;
            match self.expect_next()? {
                Tok::Comma => tok = self.expect_next()?,
                t if t == close => return Ok(()),
                _ => return Err(format!("expected ',' or {close:?} at byte {}", self.tok_start)),
            }
        }
    }

    /// Span view: the byte range of the value whose first token, `first`,
    /// was just read. Containers are balanced by depth, not checked
    /// member by member or token by token.
    fn value_span(&mut self, first: Tok) -> Result<(usize, usize), String> {
        let start = self.tok_start;
        match first {
            // A byte scan, not a token walk: only strings (which may hold
            // brackets) and brackets themselves matter to the balance,
            // and the router runs this over every shard body it merges.
            Tok::ObjOpen | Tok::ArrOpen => {
                let mut depth = 1usize;
                while depth > 0 {
                    match self.b.get(self.pos) {
                        None => return Err(format!("unbalanced value starting at byte {start}")),
                        Some(b'"') => {
                            self.string()?;
                            continue;
                        }
                        Some(b'{' | b'[') => {
                            depth += 1;
                            if depth > MAX_DEPTH {
                                return Err("nesting too deep".into());
                            }
                        }
                        Some(b'}' | b']') => depth -= 1,
                        Some(_) => {}
                    }
                    self.pos += 1;
                }
            }
            Tok::Str(_) | Tok::Num { .. } | Tok::True | Tok::False | Tok::Null => {}
            other => return Err(format!("expected a value, found {other:?} at byte {start}")),
        }
        Ok((start, self.pos))
    }

    /// Tree view: the value whose first token is `first`, `depth`
    /// containers deep.
    fn tree(&mut self, first: Tok, depth: usize) -> Result<Json, String> {
        if depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match first {
            Tok::Null => Ok(Json::Null),
            Tok::True => Ok(Json::Bool(true)),
            Tok::False => Ok(Json::Bool(false)),
            Tok::Str(text) => self.decode(text).map(Json::Str),
            Tok::Num { start, end, integer } => {
                let text = self.text(start, end)?;
                if integer {
                    if let Ok(i) = text.parse::<i128>() {
                        return Ok(Json::Int(i));
                    }
                }
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
            Tok::ArrOpen => {
                let mut items = Vec::new();
                self.each_member(false, |lx, _, first| {
                    items.push(lx.tree(first, depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Tok::ObjOpen => {
                let mut pairs = Vec::new();
                self.each_member(true, |lx, key, first| {
                    let key = lx.decode(key.expect("object members are keyed"))?;
                    pairs.push((key, lx.tree(first, depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(pairs))
            }
            other => Err(format!("expected a value, found {other:?} at byte {}", self.tok_start)),
        }
    }

    /// Decodes a string token's contents.
    fn decode(&self, StrTok { start, end, escaped }: StrTok) -> Result<String, String> {
        let raw = self.text(start, end)?;
        if !escaped {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(i) = rest.find('\\') {
            out.push_str(&rest[..i]);
            let esc = rest.as_bytes().get(i + 1).ok_or("bad escape")?;
            let mut used = 2;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = rest.get(i + 2..i + 6).ok_or("truncated \\u escape")?;
                    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err("bad \\u escape".into());
                    }
                    let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    used = 6;
                    // Surrogates are rejected rather than paired: nothing
                    // in the workspace emits astral-plane text.
                    char::from_u32(cp).ok_or("bad \\u codepoint")?
                }
                _ => return Err("bad escape".into()),
            });
            rest = &rest[i + used..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Parses one JSON document into a tree; trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut lx = Lexer { b: input.as_bytes(), pos: 0, tok_start: 0 };
    let first = lx.expect_next()?;
    let v = lx.tree(first, 0)?;
    lx.skip_ws();
    if lx.pos != lx.b.len() {
        return Err(format!("trailing garbage at byte {}", lx.pos));
    }
    Ok(v)
}

/// Returns the end (exclusive byte index) of the JSON value starting at
/// `pos` in `b`. `pos` must point at the first byte of a value.
pub fn value_end(b: &[u8], pos: usize) -> Result<usize, String> {
    let mut lx = Lexer { b, pos, tok_start: pos };
    let first = lx.expect_next()?;
    lx.value_span(first).map(|(_, end)| end)
}

/// Splits the object text `obj` (starting at `{`) into its top-level
/// members, each as `(key, value text)`, in document order. Keys and
/// value texts are verbatim slices of `obj` (keys are not unescaped).
pub fn members(obj: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut lx = Lexer { b: obj.as_bytes(), pos: 0, tok_start: 0 };
    if lx.next()? != Some(Tok::ObjOpen) {
        return Err("not an object".into());
    }
    let mut out = Vec::new();
    lx.each_member(true, |lx, key, first| {
        let key = key.expect("object members are keyed");
        let (start, end) = lx.value_span(first)?;
        out.push((&obj[key.start..key.end], &obj[start..end]));
        Ok(())
    })?;
    Ok(out)
}

/// The verbatim value text of member `key` in object text `obj`.
pub fn member<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    members(obj).ok()?.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Splits the array text `arr` (starting at `[`) into its top-level
/// element texts, verbatim, in order.
pub fn array_items(arr: &str) -> Result<Vec<&str>, String> {
    let mut lx = Lexer { b: arr.as_bytes(), pos: 0, tok_start: 0 };
    if lx.next()? != Some(Tok::ArrOpen) {
        return Err("not an array".into());
    }
    let mut out = Vec::new();
    lx.each_member(false, |lx, _, first| {
        let (start, end) = lx.value_span(first)?;
        out.push(&arr[start..end]);
        Ok(())
    })?;
    Ok(out)
}

/// Member `key` of `obj` parsed as an unsigned integer.
pub fn member_u64(obj: &str, key: &str) -> Option<u64> {
    member(obj, key)?.parse().ok()
}

/// Member `key` of `obj` as the contents of a JSON string, verbatim (no
/// unescaping — the fields read this way never carry escapes: error
/// kinds, status labels, hex trace ids).
pub fn member_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    member(obj, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":1}x",
            "\u{1}",
            "[\"\\q\"]",
            "[\"\\u12\"]",
            "[\"\\u+123\"]",
            "[1,]",
            "{,}",
            "-",
            "1e",
            "[\"a\nb\"]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds_in_both_views() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        assert!(value_end(deep.as_bytes(), 0).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
        assert_eq!(value_end(ok.as_bytes(), 0), Ok(40));
    }

    #[test]
    fn integral_floats_still_read_as_integers() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("-2.0").unwrap().as_i64(), Some(-2));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn escapes_round_trip() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let doc = format!("\"{}\"", escape("a\"b\\c\nd\u{1}é"));
        assert_eq!(parse(&doc).unwrap().as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn span_view_accepts_empty_containers_and_rejects_what_it_walks_past() {
        assert_eq!(array_items(" [ ] ").unwrap(), Vec::<&str>::new());
        assert_eq!(members("{ }").unwrap(), vec![]);
        assert!(members("[1]").is_err());
        assert!(members("{\"a\":1").is_err());
        assert!(members("{\"a\" 1}").is_err());
        assert!(members("{\"a\":1 \"b\":2}").is_err());
        assert!(array_items("{\"a\":1}").is_err());
        assert!(array_items("[1 2]").is_err());
        assert!(array_items("[1,]").is_err());
        assert!(value_end(b"\"unterminated", 0).is_err());
        assert!(value_end(b"", 0).is_err());
        assert!(value_end(b",", 0).is_err());
    }
}
