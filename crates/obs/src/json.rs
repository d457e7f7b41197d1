//! The one JSON encoding rule behind every hand-written JSON artifact:
//! the trace lines, the Chrome trace export, and the report files the
//! command-line tools write.
//!
//! A string is quoted, with `"`, `\` and control characters escaped. A
//! number that is not finite is written as `null`, since JSON has no
//! NaN or infinity.

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
}
