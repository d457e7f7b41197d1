//! The workspace's one JSON codec: the encoding rule behind every JSON
//! artifact (the trace lines, the Chrome trace export, the report files
//! the command-line tools write, the dataset release), and the one
//! reader that parses JSON back.
//!
//! Writing: a string is quoted, with `"`, `\` and control characters
//! escaped. A number that is not finite is written as `null`, since JSON
//! has no NaN or infinity.
//!
//! Reading: [`Reader`] is a pull reader over a document's bytes. Each
//! call yields the next [`Token`]: an object or array start or end, a
//! member key, a string, a number's text, a boolean or `null`. The
//! reader checks the grammar as it goes. It keeps its open containers
//! in a heap stack, so it never recurses and any nesting depth is only
//! a byte of memory per level. Every [`Error`] names the byte offset
//! where the input went wrong. Callers build their own values from the
//! tokens, so no value tree stands between the text and the result.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> impl fmt::Display + '_ {
    Str(s)
}

/// `v` as a JSON number: `precision` decimal places, or the shortest
/// decimal that round-trips the bits when `None`; `null` when `v` is
/// NaN or infinite.
pub fn number(v: f64, precision: Option<usize>) -> impl fmt::Display {
    Num(v, precision)
}

struct Str<'a>(&'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_str("\"")
    }
}

struct Num(f64, Option<usize>);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Num(v, _) if !v.is_finite() => f.write_str("null"),
            Num(v, Some(prec)) => write!(f, "{v:.prec$}"),
            Num(v, None) => write!(f, "{v}"),
        }
    }
}

/// Input that is not the JSON a reader expected: what is wrong, and the
/// byte offset in the input where it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl Error {
    /// An error saying `message` about byte `offset` of the input.
    pub fn new(message: impl Into<String>, offset: usize) -> Error {
        Error { message: message.into(), offset }
    }

    /// What is wrong.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The byte offset in the input where it was found.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// One token of a JSON document, as [`Reader::next`] yields them in
/// document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `{`. Keys and their values follow, then [`Token::ObjectEnd`].
    ObjectStart,
    /// `}`.
    ObjectEnd,
    /// `[`. Values follow, then [`Token::ArrayEnd`].
    ArrayStart,
    /// `]`.
    ArrayEnd,
    /// An object member's key, unescaped. The member's value follows.
    Key(Cow<'a, str>),
    /// A string value, unescaped.
    Str(Cow<'a, str>),
    /// A number, as its text in the input. The text follows JSON's
    /// number grammar, so `str::parse` reads any of it as an `f64`, and
    /// text without sign, fraction or exponent as an unsigned integer
    /// when it fits.
    Number(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A pull reader over one JSON document.
///
/// Each [`Reader::next`] call returns the next token, and `None` once
/// the document's one value is complete and only whitespace follows.
/// A token comes back only where the grammar allows it, so a caller
/// matching on tokens never sees, say, a key inside an array.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Where the last token returned starts.
    start: usize,
    /// The containers open at `pos`, innermost last.
    open: Vec<Open>,
    expect: Expect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Open {
    Object,
    Array,
}

/// What the grammar allows next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: at the start, after a key, or after a comma in an array.
    Value,
    /// A value or `]`, just after `[`.
    ItemOrEnd,
    /// A key or `}`, just after `{`.
    KeyOrEnd,
    /// A key, after a comma in an object.
    Key,
    /// A comma or the end of the innermost container, after a value.
    CommaOrEnd,
    /// Only whitespace: the document's value is complete.
    Done,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, start: 0, open: Vec::new(), expect: Expect::Value }
    }

    /// The byte offset where the last token returned starts.
    pub fn offset(&self) -> usize {
        self.start
    }

    /// An error saying `message` about the last token returned, for a
    /// caller that expected some other token there.
    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::new(message, self.start)
    }

    /// The next token, or `None` at the end of the document.
    ///
    /// # Errors
    ///
    /// Input that breaks the JSON grammar: an unexpected byte, a bad
    /// escape or number, an unterminated string or container, or
    /// anything but whitespace after the document's value. The error
    /// names the offset of the offending byte, or the input's length
    /// when it ends early.
    #[allow(
        clippy::should_implement_trait,
        reason = "a fallible pull: the caller matches `Result<Option<Token>>` with `?`, and \
                  calls `skip` between tokens"
    )]
    pub fn next(&mut self) -> Result<Option<Token<'a>>, Error> {
        loop {
            self.skip_whitespace();
            let at = self.pos;
            let Some(&byte) = self.text.as_bytes().get(self.pos) else {
                return match self.expect {
                    Expect::Done => Ok(None),
                    _ => Err(self.fail("unexpected end of input")),
                };
            };
            let inner = self.open.last().copied();
            let token = match (self.expect, byte) {
                (Expect::Done, _) => return Err(self.fail("trailing characters after the value")),
                (Expect::CommaOrEnd, b',') => {
                    self.pos += 1;
                    self.expect = match inner {
                        Some(Open::Object) => Expect::Key,
                        _ => Expect::Value,
                    };
                    continue;
                }
                (Expect::CommaOrEnd | Expect::KeyOrEnd, b'}') if inner == Some(Open::Object) => {
                    self.close(Token::ObjectEnd)
                }
                (Expect::CommaOrEnd | Expect::ItemOrEnd, b']') if inner == Some(Open::Array) => {
                    self.close(Token::ArrayEnd)
                }
                (Expect::CommaOrEnd, _) if inner == Some(Open::Object) => {
                    return Err(self.fail("expected `,` or `}`"))
                }
                (Expect::CommaOrEnd, _) => return Err(self.fail("expected `,` or `]`")),
                (Expect::KeyOrEnd | Expect::Key, b'"') => self.key()?,
                (Expect::KeyOrEnd | Expect::Key, _) => {
                    return Err(self.fail("expected a string member key"))
                }
                (Expect::Value | Expect::ItemOrEnd, _) => self.value(byte)?,
            };
            self.start = at;
            return Ok(Some(token));
        }
    }

    /// Reads past the rest of the value that `first`, the last token
    /// returned, begins: nothing more for a scalar, and everything up
    /// to the matching end for an object or array, however deeply it
    /// nests. A caller skips an unknown member's value so.
    ///
    /// # Errors
    ///
    /// The first grammar error inside the skipped value.
    pub fn skip(&mut self, first: &Token<'_>) -> Result<(), Error> {
        if matches!(first, Token::ObjectStart | Token::ArrayStart) {
            let depth = self.open.len();
            while self.open.len() >= depth {
                // Inside an open container `next` gives a token or an
                // error, never the end of the document.
                if self.next()?.is_none() {
                    return Err(self.fail("unexpected end of input"));
                }
            }
        }
        Ok(())
    }

    /// An error about the byte at the reading position.
    fn fail(&self, message: &str) -> Error {
        Error::new(message, self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.text.as_bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a container's opening byte.
    fn enter(&mut self, open: Open, expect: Expect, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.open.push(open);
        self.expect = expect;
        token
    }

    /// Consumes a container's closing byte.
    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.open.pop();
        self.after_value();
        token
    }

    fn after_value(&mut self) {
        self.expect = if self.open.is_empty() { Expect::Done } else { Expect::CommaOrEnd };
    }

    /// Reads a member key and the colon after it.
    fn key(&mut self) -> Result<Token<'a>, Error> {
        let key = self.string()?;
        self.skip_whitespace();
        if self.text.as_bytes().get(self.pos) != Some(&b':') {
            return Err(self.fail("expected `:` after a member key"));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    /// Reads the value that starts with `byte`.
    fn value(&mut self, byte: u8) -> Result<Token<'a>, Error> {
        let token = match byte {
            b'{' => return Ok(self.enter(Open::Object, Expect::KeyOrEnd, Token::ObjectStart)),
            b'[' => return Ok(self.enter(Open::Array, Expect::ItemOrEnd, Token::ArrayStart)),
            b'"' => Token::Str(self.string()?),
            b'-' | b'0'..=b'9' => Token::Number(self.number()?),
            b't' => self.literal("true", Token::Bool(true))?,
            b'f' => self.literal("false", Token::Bool(false))?,
            b'n' => self.literal("null", Token::Null)?,
            _ => return Err(self.fail("expected a value")),
        };
        self.after_value();
        Ok(token)
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, Error> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.fail("expected a value"));
        }
        self.pos += word.len();
        Ok(token)
    }

    /// Reads a string literal, borrowing it from the input unless it
    /// holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        let text = self.text;
        self.pos += 1;
        let mut owned: Option<String> = None;
        // The start of the run of plain bytes not yet copied.
        let mut run = self.pos;
        loop {
            match text.as_bytes().get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&text[run..self.pos]);
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => return Err(self.fail("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads the escape sequence whose backslash is at the reading
    /// position, pairing UTF-16 surrogates.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let c = match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unpaired = || Error::new("unpaired UTF-16 surrogate in `\\u` escape", at);
                let high = self.hex4(at + 2)?;
                if !(0xd800..0xdc00).contains(&high) {
                    self.pos = at + 6;
                    return char::from_u32(high).ok_or_else(unpaired);
                }
                if self.text.as_bytes().get(at + 6..at + 8) != Some(b"\\u") {
                    return Err(unpaired());
                }
                let low = self.hex4(at + 8)?;
                if !(0xdc00..0xe000).contains(&low) {
                    return Err(unpaired());
                }
                self.pos = at + 12;
                return char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
                    .ok_or_else(unpaired);
            }
            Some(_) => return Err(Error::new("invalid escape", at)),
            None => return Err(Error::new("unterminated string", at + 1)),
        };
        self.pos = at + 2;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape at `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let digits = self.text.as_bytes().get(at..at + 4);
        let digits = digits.ok_or_else(|| Error::new("truncated `\\u` escape", at))?;
        digits.iter().try_fold(0, |unit, &d| {
            let v = char::from(d).to_digit(16);
            v.map(|v| unit * 16 + v).ok_or_else(|| Error::new("invalid `\\u` escape", at))
        })
    }

    /// Reads a number, checking JSON's grammar: an optional minus, an
    /// integer part without leading zeros, then an optional fraction
    /// and exponent.
    fn number(&mut self) -> Result<&'a str, Error> {
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let digits = |pos: &mut usize| {
            let from = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > from
        };
        let mut pos = start + usize::from(bytes.get(start) == Some(&b'-'));
        match bytes.get(pos) {
            Some(b'0') => pos += 1,
            Some(b'1'..=b'9') => {
                digits(&mut pos);
            }
            _ => return Err(Error::new("expected a digit", pos)),
        }
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            if !digits(&mut pos) {
                return Err(Error::new("expected a digit after `.`", pos));
            }
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            pos += usize::from(matches!(bytes.get(pos), Some(b'+' | b'-')));
            if !digits(&mut pos) {
                return Err(Error::new("expected a digit in the exponent", pos));
            }
        }
        self.pos = pos;
        Ok(&text[start..pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("quote\"d").to_string(), r#""quote\"d""#);
        assert_eq!(string("a\\b\nc\u{1} µs").to_string(), r#""a\\b\u000ac\u0001 µs""#);
    }

    #[test]
    fn numbers_keep_their_precision_and_reject_non_finite() {
        assert_eq!(number(0.1 + 0.2, None).to_string(), "0.30000000000000004");
        assert_eq!(number(13.14, Some(1)).to_string(), "13.1");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(bad, Some(3)).to_string(), "null");
        }
    }

    /// Every token of `text`, or the first error.
    fn tokens(text: &str) -> Result<Vec<Token<'_>>, Error> {
        let mut r = Reader::new(text);
        let mut out = Vec::new();
        while let Some(t) = r.next()? {
            out.push(t);
        }
        Ok(out)
    }

    /// The error `text` gives, as message and offset.
    fn error(text: &str) -> (String, usize) {
        let e = tokens(text).expect_err(text);
        (e.message().to_string(), e.offset())
    }

    fn key(k: &str) -> Token<'_> {
        Token::Key(Cow::Borrowed(k))
    }

    fn text(s: &str) -> Token<'_> {
        Token::Str(Cow::Borrowed(s))
    }

    #[test]
    fn a_document_reads_as_its_tokens_in_order() {
        use Token::*;
        let doc = r#" {"a": [1, -2.5e3, true, false, null], "b": {}, "c": "x", "d": []} "#;
        let want = [
            ObjectStart,
            key("a"),
            ArrayStart,
            Number("1"),
            Number("-2.5e3"),
            Bool(true),
            Bool(false),
            Null,
            ArrayEnd,
            key("b"),
            ObjectStart,
            ObjectEnd,
            key("c"),
            text("x"),
            key("d"),
            ArrayStart,
            ArrayEnd,
            ObjectEnd,
        ];
        assert_eq!(tokens(doc).unwrap(), want);
        assert_eq!(tokens("7").unwrap(), [Number("7")]);
        assert_eq!(tokens("\"s\"").unwrap(), [text("s")]);
    }

    #[test]
    fn offsets_point_at_each_token() {
        let mut r = Reader::new("{ \"k\" : [ 12 ] }");
        let mut starts = Vec::new();
        while r.next().unwrap().is_some() {
            starts.push(r.offset());
        }
        assert_eq!(starts, [0, 2, 8, 10, 13, 15]);
        assert_eq!(r.error("bad").to_string(), "bad at byte 15");
    }

    #[test]
    fn escapes_unescape_and_plain_strings_borrow() {
        let all = r#""q\" b\\ s\/ \b\f\n\r\t é \u00e9 \u2603""#;
        let [Token::Str(s)] = &tokens(all).unwrap()[..] else { panic!("one string") };
        assert_eq!(s, "q\" b\\ s/ \u{8}\u{c}\n\r\t é é ☃");
        assert!(matches!(
            &tokens(r#""plain é""#).unwrap()[0],
            Token::Str(Cow::Borrowed("plain é"))
        ));
        // Keys unescape the same way.
        assert_eq!(tokens(r#"{"k\u0041":1}"#).unwrap()[1], key("kA"));
    }

    #[test]
    fn surrogate_pairs_join_and_lone_halves_are_errors() {
        assert_eq!(tokens(r#""\ud83d\ude00!""#).unwrap(), [text("😀!")]);
        assert_eq!(tokens(r#""\uD834\uDD1E""#).unwrap(), [text("𝄞")]);
        let unpaired = "unpaired UTF-16 surrogate in `\\u` escape".to_string();
        assert_eq!(error(r#""ab\ud83d""#), (unpaired.clone(), 3));
        assert_eq!(error(r#""\ud83dx""#), (unpaired.clone(), 1));
        assert_eq!(error(r#""\ud83d\u0041""#), (unpaired.clone(), 1));
        assert_eq!(error(r#""\ude00""#), (unpaired, 1));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for ok in ["0", "-0", "7", "-12", "3.25", "1e300", "5e-324", "2E+5", "9.069490689337054e-5"]
        {
            assert_eq!(tokens(ok).unwrap(), [Token::Number(ok)], "{ok}");
            let v: f64 = ok.parse().unwrap();
            assert!(v.is_finite(), "{ok}");
        }
        assert_eq!(error("-"), ("expected a digit".to_string(), 1));
        assert_eq!(error("1."), ("expected a digit after `.`".to_string(), 2));
        assert_eq!(error("[1e+]"), ("expected a digit in the exponent".to_string(), 4));
        assert_eq!(error("+1"), ("expected a value".to_string(), 0));
        assert_eq!(error(".5"), ("expected a value".to_string(), 0));
        // A leading zero ends the number; the digit after it is stray.
        assert_eq!(error("[01]"), ("expected `,` or `]`".to_string(), 2));
    }

    #[test]
    fn deep_nesting_reads_without_recursion() {
        const DEPTH: usize = 50_000;
        let doc = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
        assert_eq!(tokens(&doc).unwrap().len(), 2 * DEPTH);
        let doc = format!("{}1{}", "{\"k\":".repeat(DEPTH), "}".repeat(DEPTH));
        assert_eq!(tokens(&doc).unwrap().len(), 3 * DEPTH + 1);
        // Unclosed, the document ends early at its last byte.
        assert_eq!(error(&"[".repeat(DEPTH)), ("unexpected end of input".to_string(), DEPTH));
    }

    #[test]
    fn skip_reads_past_a_whole_value() {
        let doc = format!(r#"{{"skip":{}{}, "keep":1}}"#, "[".repeat(50_000), "]".repeat(50_000));
        let mut r = Reader::new(&doc);
        assert_eq!(r.next().unwrap(), Some(Token::ObjectStart));
        assert_eq!(r.next().unwrap(), Some(key("skip")));
        let first = r.next().unwrap().unwrap();
        r.skip(&first).unwrap();
        assert_eq!(r.next().unwrap(), Some(key("keep")));
        let first = r.next().unwrap().unwrap();
        r.skip(&first).unwrap();
        assert_eq!(r.next().unwrap(), Some(Token::ObjectEnd));
        assert_eq!(r.next().unwrap(), None);
        // An unclosed skipped value is an error at the end of the input.
        let mut r = Reader::new("[[[");
        let first = r.next().unwrap().unwrap();
        assert_eq!(r.skip(&first).unwrap_err().offset(), 3);
    }

    #[test]
    fn errors_name_the_offending_byte() {
        let cases: [(&str, &str, usize); 16] = [
            ("", "unexpected end of input", 0),
            ("  ", "unexpected end of input", 2),
            ("{\"a\":1", "unexpected end of input", 6),
            ("\"abc", "unterminated string", 4),
            ("\"a\\", "unterminated string", 3),
            ("[1 2]", "expected `,` or `]`", 3),
            ("{\"a\":1 \"b\"}", "expected `,` or `}`", 7),
            ("{\"a\" 1}", "expected `:` after a member key", 5),
            ("{1:2}", "expected a string member key", 1),
            ("{\"a\":1,}", "expected a string member key", 7),
            ("[1,]", "expected a value", 3),
            ("[1}", "expected `,` or `]`", 2),
            ("tru", "expected a value", 0),
            ("1 2", "trailing characters after the value", 2),
            ("\"a\\x\"", "invalid escape", 2),
            ("\"tab\there\"", "control character in string", 4),
        ];
        for (text, message, offset) in cases {
            assert_eq!(error(text), (message.to_string(), offset), "{text:?}");
        }
        assert_eq!(error("\"\\u12x5\""), ("invalid `\\u` escape".to_string(), 3));
        assert_eq!(error("\"\\u12"), ("truncated `\\u` escape".to_string(), 3));
        let e = tokens("[nul]").unwrap_err();
        assert_eq!(e.to_string(), "expected a value at byte 1");
    }
}
