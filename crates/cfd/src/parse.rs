//! A tiny text DSL for CFDs, mirroring the paper's notation.
//!
//! ```text
//! ([CC=44, zip] -> [street])            cfd1 of Example 1
//! ([CC, title] -> [salary])             cfd3 (a traditional FD)
//! ([CC=44, AC=131] -> [city=EDI])       cfd4 (a constant CFD)
//! ```
//!
//! An attribute without `=` is a wildcard position; `=` followed by a
//! literal is a constant position. Literals are parsed against the
//! attribute's declared type: integers for `Int` attributes, anything
//! else (optionally single-quoted, e.g. `'New York'`) as a string.
//! Multiple pattern rows are combined with [`crate::Cfd::merge`] or by
//! repeated `parse_cfd` calls on the same embedded FD.

use crate::cfd::Cfd;
use crate::pattern::{PatternTuple, PatternValue};
use dcd_relation::{Schema, Value, ValueType};
use std::fmt;
use std::sync::Arc;

/// Errors raised while parsing CFD specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input deviated from the grammar.
    Syntax {
        /// Byte position of the offending character.
        pos: usize,
        /// What was expected.
        expected: &'static str,
    },
    /// An attribute name was not found in the schema.
    UnknownAttribute {
        /// The missing name.
        name: String,
    },
    /// A literal did not fit the attribute's type.
    BadLiteral {
        /// The attribute name.
        attr: String,
        /// The literal text.
        literal: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { pos, expected } => {
                write!(f, "syntax error at byte {pos}: expected {expected}")
            }
            ParseError::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            ParseError::BadLiteral { attr, literal } => {
                write!(f, "literal `{literal}` does not fit attribute `{attr}`")
            }
        }
    }
}

impl std::error::Error for ParseError {}

struct Lexer<'a> {
    text: &'a str,
    /// `text`'s bytes.
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer { text, src: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, ch: u8, expected: &'static str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos < self.src.len() && self.src[self.pos] == ch {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::Syntax { pos: self.pos, expected })
        }
    }

    fn eat_arrow(&mut self) -> Result<(), ParseError> {
        self.eat(b'-', "`->`")?;
        self.eat(b'>', "`->`")
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    /// A bare word: identifier characters plus `.` and `-` inside.
    fn word(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::Syntax { pos: start, expected: "identifier or literal" });
        }
        // The word's bytes are ASCII, so both its ends are char boundaries.
        Ok(&self.text[start..self.pos])
    }

    /// A literal: single-quoted string or bare word.
    fn literal(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'\'') {
            self.pos += 1;
            let start = self.pos;
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.pos += 1;
            }
            if self.pos >= self.src.len() {
                return Err(ParseError::Syntax { pos: start, expected: "closing `'`" });
            }
            let s = std::str::from_utf8(&self.src[start..self.pos])
                .map_err(|_| ParseError::Syntax { pos: start, expected: "utf-8 literal" })?
                .to_string();
            self.pos += 1;
            Ok(s)
        } else {
            Ok(self.word()?.to_string())
        }
    }
}

/// One parsed item: attribute name and optional constant literal.
struct Item {
    attr: String,
    literal: Option<String>,
}

fn parse_items(lx: &mut Lexer<'_>) -> Result<Vec<Item>, ParseError> {
    lx.eat(b'[', "`[`")?;
    let mut items = Vec::new();
    loop {
        let attr = lx.word()?.to_string();
        let literal = if lx.peek() == Some(b'=') {
            lx.pos += 1;
            Some(lx.literal()?)
        } else {
            None
        };
        items.push(Item { attr, literal });
        match lx.peek() {
            Some(b',') => {
                lx.pos += 1;
            }
            Some(b']') => {
                lx.pos += 1;
                break;
            }
            _ => return Err(ParseError::Syntax { pos: lx.pos, expected: "`,` or `]`" }),
        }
    }
    Ok(items)
}

fn to_pattern_value(
    schema: &Schema,
    attr: &str,
    literal: Option<&str>,
) -> Result<PatternValue, ParseError> {
    let Some(lit) = literal else {
        return Ok(PatternValue::Wild);
    };
    if lit == "_" {
        return Ok(PatternValue::Wild);
    }
    let id = schema
        .attr_id(attr)
        .ok_or_else(|| ParseError::UnknownAttribute { name: attr.to_string() })?;
    match schema.attr(id).ty {
        ValueType::Int => lit
            .parse::<i64>()
            .map(|i| PatternValue::Const(Value::Int(i)))
            .map_err(|_| ParseError::BadLiteral { attr: attr.to_string(), literal: lit.into() }),
        ValueType::Str => Ok(PatternValue::Const(Value::str(lit))),
    }
}

/// Parses a single-pattern CFD specification against a schema.
///
/// ```
/// use dcd_relation::{Schema, ValueType};
/// use dcd_cfd::parse_cfd;
///
/// let schema = Schema::builder("emp")
///     .attr("CC", ValueType::Int)
///     .attr("AC", ValueType::Int)
///     .attr("city", ValueType::Str)
///     .build()
///     .unwrap();
/// let cfd = parse_cfd(&schema, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
/// assert_eq!(cfd.tableau().len(), 1);
/// ```
pub fn parse_cfd(schema: &Arc<Schema>, name: &str, spec: &str) -> Result<Cfd, ParseError> {
    let mut lx = Lexer::new(spec);
    lx.eat(b'(', "`(`")?;
    let lhs_items = parse_items(&mut lx)?;
    lx.eat_arrow()?;
    let rhs_items = parse_items(&mut lx)?;
    lx.eat(b')', "`)`")?;
    if lx.peek().is_some() {
        return Err(ParseError::Syntax { pos: lx.pos, expected: "end of input" });
    }

    let mut lhs_names = Vec::with_capacity(lhs_items.len());
    let mut lhs_pats = Vec::with_capacity(lhs_items.len());
    for it in &lhs_items {
        lhs_names.push(it.attr.as_str());
        lhs_pats.push(to_pattern_value(schema, &it.attr, it.literal.as_deref())?);
    }
    let mut rhs_names = Vec::with_capacity(rhs_items.len());
    let mut rhs_pats = Vec::with_capacity(rhs_items.len());
    for it in &rhs_items {
        rhs_names.push(it.attr.as_str());
        rhs_pats.push(to_pattern_value(schema, &it.attr, it.literal.as_deref())?);
    }
    Cfd::with_names(
        name,
        schema.clone(),
        &lhs_names,
        &rhs_names,
        vec![PatternTuple::new(lhs_pats, rhs_pats)],
    )
    .map_err(|e| match e {
        dcd_relation::RelationError::UnknownAttribute { name, .. } => {
            ParseError::UnknownAttribute { name }
        }
        _ => ParseError::Syntax { pos: 0, expected: "a CFD consistent with the schema" },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("CC", ValueType::Int)
            .attr("AC", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("city", ValueType::Str)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("salary", ValueType::Str)
            .build()
            .unwrap()
    }

    #[test]
    fn parses_paper_cfd1() {
        let s = emp();
        let cfd = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        assert_eq!(cfd.lhs().len(), 2);
        assert_eq!(cfd.rhs().len(), 1);
        let tp = &cfd.tableau()[0];
        assert_eq!(tp.lhs[0], PatternValue::Const(Value::Int(44)));
        assert!(tp.lhs[1].is_wild());
        assert!(tp.rhs[0].is_wild());
    }

    #[test]
    fn parses_traditional_fd() {
        let s = emp();
        let cfd = parse_cfd(&s, "cfd3", "([CC, title] -> [salary])").unwrap();
        assert_eq!(cfd.tableau()[0].lhs_wildcards(), 2);
    }

    #[test]
    fn parses_constant_cfd_with_rhs_constant() {
        let s = emp();
        let cfd = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert!(simple.tableau[0].is_constant());
    }

    #[test]
    fn parses_quoted_strings_and_explicit_wildcards() {
        let s = emp();
        let cfd = parse_cfd(&s, "q", "([city='New York', CC=_] -> [street])").unwrap();
        let tp = &cfd.tableau()[0];
        assert_eq!(tp.lhs[0], PatternValue::Const(Value::str("New York")));
        assert!(tp.lhs[1].is_wild());
    }

    #[test]
    fn whitespace_is_insignificant() {
        let s = emp();
        let a = parse_cfd(&s, "a", "([CC=44,zip]->[street])").unwrap();
        let b = parse_cfd(&s, "a", "(  [ CC = 44 , zip ]  ->  [ street ]  )").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_attribute_is_reported() {
        let s = emp();
        let err = parse_cfd(&s, "x", "([bogus] -> [street])").unwrap_err();
        assert_eq!(err, ParseError::UnknownAttribute { name: "bogus".into() });
    }

    #[test]
    fn bad_int_literal_is_reported() {
        let s = emp();
        let err = parse_cfd(&s, "x", "([CC=abc] -> [street])").unwrap_err();
        assert!(matches!(err, ParseError::BadLiteral { .. }));
    }

    #[test]
    fn syntax_errors_carry_position() {
        let s = emp();
        let err = parse_cfd(&s, "x", "[CC] -> [street]").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { pos: 0, .. }));
        let err = parse_cfd(&s, "x", "([CC] [street])").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn trailing_input_is_a_syntax_error() {
        let s = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Int)
            .attr("c", ValueType::Int)
            .build()
            .unwrap();
        for (spec, pos) in [("([a] -> [b]) ([b] -> [c])", 13), ("([a=1] -> [b]))", 14)] {
            let err = parse_cfd(&s, "x", spec).unwrap_err();
            assert_eq!(err, ParseError::Syntax { pos, expected: "end of input" }, "{spec}");
        }
        assert!(parse_cfd(&s, "x", "([a=1] -> [b])  \n").is_ok(), "trailing whitespace is fine");
    }

    #[test]
    fn negative_integers_parse() {
        let s = emp();
        let cfd = parse_cfd(&s, "x", "([CC=-5] -> [street])").unwrap();
        assert_eq!(cfd.tableau()[0].lhs[0], PatternValue::Const(Value::Int(-5)));
    }
}
