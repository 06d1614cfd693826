//! Textual constraint syntax.
//!
//! Advertisements in the paper carry constraint descriptions like
//! `patient age between 43 and 75` and queries carry
//! `(patient age between 25 and 65) AND (patient.diagnosis code = '40W')`.
//! This module parses that surface syntax into a [`Conjunction`]. Dotted and
//! space-separated slot paths are both accepted (`patient.age` and
//! `patient age` both name the slot `patient.age`) because the paper uses
//! both spellings.

use crate::{Conjunction, Predicate, Value};
use std::fmt;

/// Error produced when a constraint string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Op(String), // =, !=, <, <=, >, >=
    LParen,
    RParen,
    Comma,
    Dot,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), position: self.pos }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'(' => {
                    self.pos += 1;
                    out.push((Tok::LParen, start));
                }
                b')' => {
                    self.pos += 1;
                    out.push((Tok::RParen, start));
                }
                b',' => {
                    self.pos += 1;
                    out.push((Tok::Comma, start));
                }
                b'.' => {
                    self.pos += 1;
                    out.push((Tok::Dot, start));
                }
                b'\'' => {
                    self.pos += 1;
                    let s = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                        self.pos += 1;
                    }
                    if self.pos >= self.src.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?
                        .to_string();
                    self.pos += 1; // closing quote
                    out.push((Tok::Str(text), start));
                }
                b'=' => {
                    self.pos += 1;
                    out.push((Tok::Op("=".into()), start));
                }
                b'!' | b'<' | b'>' => {
                    self.pos += 1;
                    let mut op = (c as char).to_string();
                    if self.pos < self.src.len()
                        && (self.src[self.pos] == b'=' || self.src[self.pos] == b'>')
                    {
                        // <=, >=, !=, <>
                        op.push(self.src[self.pos] as char);
                        self.pos += 1;
                    }
                    if op == "!" {
                        return Err(self.error("expected '=' after '!'"));
                    }
                    let op = if op == "<>" { "!=".to_string() } else { op };
                    out.push((Tok::Op(op), start));
                }
                b'0'..=b'9' | b'-' | b'+' => {
                    let s = self.pos;
                    self.pos += 1;
                    let mut is_float = false;
                    while self.pos < self.src.len() {
                        match self.src[self.pos] {
                            b'0'..=b'9' => self.pos += 1,
                            b'.' if !is_float
                                && self.pos + 1 < self.src.len()
                                && self.src[self.pos + 1].is_ascii_digit() =>
                            {
                                is_float = true;
                                self.pos += 1;
                            }
                            _ => break,
                        }
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                    if is_float {
                        let v: f64 =
                            text.parse().map_err(|_| self.error("invalid float literal"))?;
                        out.push((Tok::Float(v), start));
                    } else {
                        let v: i64 = text.parse().map_err(|_| self.error("invalid int literal"))?;
                        out.push((Tok::Int(v), start));
                    }
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let s = self.pos;
                    while self.pos < self.src.len()
                        && (self.src[self.pos].is_ascii_alphanumeric()
                            || self.src[self.pos] == b'_'
                            || self.src[self.pos] == b'-')
                    {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap().to_string();
                    out.push((Tok::Ident(text), start));
                }
                other => {
                    return Err(self.error(format!("unexpected character {:?}", other as char)));
                }
            }
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|(t, _)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.idx).map(|(_, p)| *p).unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.idx).map(|(t, _)| t.clone());
        self.idx += 1;
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), position: self.pos() }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            _ => Err(self.error(format!("expected keyword '{kw}'"))),
        }
    }

    fn is_keyword(t: Option<&Tok>, kw: &str) -> bool {
        matches!(t, Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn parse(&mut self) -> Result<Conjunction, ParseError> {
        let mut preds = Vec::new();
        loop {
            preds.push(self.clause()?);
            if Self::is_keyword(self.peek(), "and") {
                self.next();
                continue;
            }
            break;
        }
        if self.idx != self.toks.len() {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Conjunction::from_predicates(preds))
    }

    /// A clause, optionally parenthesized.
    fn clause(&mut self) -> Result<Predicate, ParseError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.next();
            let p = self.clause()?;
            match self.next() {
                Some(Tok::RParen) => Ok(p),
                _ => Err(self.error("expected ')'")),
            }
        } else {
            self.comparison()
        }
    }

    /// Slot path: idents joined by dots or whitespace, terminated by an
    /// operator or keyword (`between`, `in`, `not`).
    fn slot(&mut self) -> Result<String, ParseError> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Ident(s))
                    if !["between", "in", "not", "and"]
                        .iter()
                        .any(|kw| s.eq_ignore_ascii_case(kw)) =>
                {
                    parts.push(s.clone());
                    self.next();
                    if matches!(self.peek(), Some(Tok::Dot)) {
                        self.next();
                    }
                }
                _ => break,
            }
        }
        if parts.is_empty() {
            return Err(self.error("expected slot name"));
        }
        Ok(parts.join("."))
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Str(s)) => Ok(Value::Str(s)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            _ => Err(self.error("expected value literal")),
        }
    }

    /// `(v, ...)`, or `()`: two allow-sets intersected to nothing print as
    /// `in ()`, and must read back as the same unsatisfiable domain.
    fn value_list(&mut self) -> Result<Vec<Value>, ParseError> {
        match self.next() {
            Some(Tok::LParen) => {}
            _ => return Err(self.error("expected '('")),
        }
        if matches!(self.peek(), Some(Tok::RParen)) {
            self.next();
            return Ok(Vec::new());
        }
        let mut vals = vec![self.value()?];
        loop {
            match self.next() {
                Some(Tok::Comma) => vals.push(self.value()?),
                Some(Tok::RParen) => break,
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
        Ok(vals)
    }

    fn comparison(&mut self) -> Result<Predicate, ParseError> {
        let slot = self.slot()?;
        match self.peek().cloned() {
            Some(Tok::Op(op)) => {
                self.next();
                let v = self.value()?;
                Ok(match op.as_str() {
                    "=" => Predicate::eq(slot, v),
                    "!=" => Predicate::ne(slot, v),
                    "<" => Predicate::lt(slot, v),
                    "<=" => Predicate::le(slot, v),
                    ">" => Predicate::gt(slot, v),
                    ">=" => Predicate::ge(slot, v),
                    other => return Err(self.error(format!("unknown operator '{other}'"))),
                })
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("between") => {
                self.next();
                let lo = self.value()?;
                self.expect_keyword("and")?;
                let hi = self.value()?;
                Ok(Predicate::between(slot, lo, hi))
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("in") => {
                self.next();
                Ok(Predicate::is_in(slot, self.value_list()?))
            }
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("not") => {
                self.next();
                self.expect_keyword("in")?;
                Ok(Predicate::not_in(slot, self.value_list()?))
            }
            _ => Err(self.error("expected comparison operator")),
        }
    }
}

/// Parses the textual constraint syntax into a [`Conjunction`].
///
/// ```
/// use infosleuth_constraint::parse_conjunction;
/// let c = parse_conjunction(
///     "(patient age between 25 and 65) AND (patient.diagnosis_code = '40W')",
/// ).unwrap();
/// assert!(c.is_satisfiable());
/// assert_eq!(c.constrained_slots().count(), 2);
/// ```
pub fn parse_conjunction(src: &str) -> Result<Conjunction, ParseError> {
    let trimmed = src.trim();
    if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("true") {
        return Ok(Conjunction::always());
    }
    let toks = Lexer::new(src).tokens()?;
    Parser { toks, idx: 0 }.parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_advertisement_constraint() {
        let c = parse_conjunction("patient age between 43 and 75").unwrap();
        assert_eq!(c.constrained_slots().collect::<Vec<_>>(), vec!["patient.age"]);
        assert!(c.domain("patient.age").contains(&Value::Int(43)));
        assert!(!c.domain("patient.age").contains(&Value::Int(42)));
    }

    #[test]
    fn parses_paper_query_constraint() {
        let c = parse_conjunction(
            "(patient age between 25 and 65) AND (patient.diagnosis code = '40W')",
        )
        .unwrap();
        assert!(c.domain("patient.diagnosis.code").contains(&Value::str("40W")));
        assert!(c.domain("patient.age").contains(&Value::Int(30)));
    }

    #[test]
    fn parses_all_operators() {
        for (src, ok_val, bad_val) in [
            ("x = 5", 5, 6),
            ("x != 6", 5, 6),
            ("x < 6", 5, 7),
            ("x <= 5", 5, 6),
            ("x > 4", 5, 3),
            ("x >= 5", 5, 4),
        ] {
            let c = parse_conjunction(src).unwrap();
            assert!(c.domain("x").contains(&Value::Int(ok_val)), "{src}");
            assert!(!c.domain("x").contains(&Value::Int(bad_val)), "{src}");
        }
    }

    #[test]
    fn parses_in_and_not_in() {
        let c = parse_conjunction("city in ('Dallas', 'Houston')").unwrap();
        assert!(c.domain("city").contains(&Value::str("Dallas")));
        assert!(!c.domain("city").contains(&Value::str("Austin")));
        let c = parse_conjunction("city not in ('Dallas')").unwrap();
        assert!(!c.domain("city").contains(&Value::str("Dallas")));
        assert!(c.domain("city").contains(&Value::str("Austin")));
    }

    #[test]
    fn parses_floats_bools_and_sql_ne() {
        let c = parse_conjunction("score >= 2.5 and active = true and x <> 3").unwrap();
        assert!(c.domain("score").contains(&Value::Float(3.0)));
        assert!(c.domain("active").contains(&Value::Bool(true)));
        assert!(!c.domain("x").contains(&Value::Int(3)));
    }

    #[test]
    fn empty_and_true_are_trivial() {
        assert!(parse_conjunction("").unwrap().is_trivial());
        assert!(parse_conjunction("  true ").unwrap().is_trivial());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_conjunction("patient age between 25").is_err());
        assert!(parse_conjunction("= 5").is_err());
        assert!(parse_conjunction("x in (1,").is_err());
        assert!(parse_conjunction("x ! 5").is_err());
        assert!(parse_conjunction("x = 'unterminated").is_err());
        assert!(parse_conjunction("x = 5 garbage").is_err());
    }

    #[test]
    fn negative_numbers() {
        let c = parse_conjunction("delta between -10 and -1").unwrap();
        assert!(c.domain("delta").contains(&Value::Int(-5)));
        assert!(!c.domain("delta").contains(&Value::Int(0)));
    }
}
