//! Textual LDL/Datalog syntax.
//!
//! ```text
//! path(X, Y) :- edge(X, Z), path(Z, Y), X != Y.
//! big(X) :- num(X), X >= 100.
//! lonely(X) :- node(X), not connected(X).
//! near(A, B) :- range(A, L1, H1), range(B, L2, H2), overlaps(L1, H1, L2, H2).
//! ```
//!
//! Identifiers starting with an uppercase letter or `_` are variables;
//! everything else is a symbol constant. Strings are double-quoted; numbers
//! are integer or float literals.

use crate::builtins::CmpOp;
use crate::program::Program;
use crate::rule::{Literal, Rule};
use crate::term::{Atom, Const, Term};
use std::fmt;

/// Error from parsing LDL text (also wraps safety and stratification
/// errors discovered while assembling the parsed rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdlParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for LdlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LDL parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LdlParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String), // symbol or variable, decided by first char
    QSym(String),  // 'quoted symbol' — always a constant
    Int(i64),
    Float(f64),
    Str(String),
    Op(String), // comparison ops
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile, // :-
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, LdlParseError> {
    let b = src.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    let err = |pos: usize, m: &str| LdlParseError { message: m.into(), position: pos };
    while pos < b.len() {
        let start = pos;
        match b[pos] {
            b' ' | b'\t' | b'\n' | b'\r' => pos += 1,
            b'%' => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                pos += 1;
                out.push((Tok::LParen, start));
            }
            b')' => {
                pos += 1;
                out.push((Tok::RParen, start));
            }
            b',' => {
                pos += 1;
                out.push((Tok::Comma, start));
            }
            b'.' => {
                pos += 1;
                out.push((Tok::Dot, start));
            }
            b':' => {
                if pos + 1 < b.len() && b[pos + 1] == b'-' {
                    pos += 2;
                    out.push((Tok::Turnstile, start));
                } else {
                    return Err(err(pos, "expected ':-'"));
                }
            }
            b'"' => {
                pos += 1;
                let s = pos;
                while pos < b.len() && b[pos] != b'"' {
                    pos += 1;
                }
                if pos >= b.len() {
                    return Err(err(start, "unterminated string"));
                }
                let text = std::str::from_utf8(&b[s..pos])
                    .map_err(|_| err(s, "invalid utf-8"))?
                    .to_string();
                pos += 1;
                out.push((Tok::Str(text), start));
            }
            // Prolog-style quoted symbols: 'C2' is the symbol C2 even
            // though it starts with an uppercase letter.
            b'\'' => {
                pos += 1;
                let s = pos;
                while pos < b.len() && b[pos] != b'\'' {
                    pos += 1;
                }
                if pos >= b.len() {
                    return Err(err(start, "unterminated quoted symbol"));
                }
                let text = std::str::from_utf8(&b[s..pos])
                    .map_err(|_| err(s, "invalid utf-8"))?
                    .to_string();
                pos += 1;
                out.push((Tok::QSym(text), start));
            }
            b'<' | b'>' | b'=' | b'!' => {
                let mut op = (b[pos] as char).to_string();
                pos += 1;
                if pos < b.len() && (b[pos] == b'=' || b[pos] == b'>') {
                    op.push(b[pos] as char);
                    pos += 1;
                }
                if op == "!" {
                    return Err(err(start, "expected '=' after '!'"));
                }
                out.push((Tok::Op(op), start));
            }
            b'0'..=b'9' | b'-' | b'+' => {
                // `-` only starts a number if followed by a digit.
                if (b[pos] == b'-' || b[pos] == b'+')
                    && (pos + 1 >= b.len() || !b[pos + 1].is_ascii_digit())
                {
                    return Err(err(pos, "dangling sign"));
                }
                let s = pos;
                pos += 1;
                let mut is_float = false;
                while pos < b.len() {
                    match b[pos] {
                        b'0'..=b'9' => pos += 1,
                        b'.' if !is_float && pos + 1 < b.len() && b[pos + 1].is_ascii_digit() => {
                            is_float = true;
                            pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&b[s..pos]).expect("ascii digits");
                if is_float {
                    out.push((Tok::Float(text.parse().map_err(|_| err(s, "bad float"))?), start));
                } else {
                    out.push((Tok::Int(text.parse().map_err(|_| err(s, "bad int"))?), start));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = pos;
                while pos < b.len()
                    && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_' || b[pos] == b'-')
                {
                    pos += 1;
                }
                let text = std::str::from_utf8(&b[s..pos]).expect("ascii ident").to_string();
                out.push((Tok::Ident(text), start));
            }
            other => return Err(err(pos, &format!("unexpected character {:?}", other as char))),
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<(Tok, usize)>,
    idx: usize,
}

impl P {
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

    fn err(&self, m: impl Into<String>) -> LdlParseError {
        LdlParseError { message: m.into(), position: self.pos() }
    }

    fn term(&mut self) -> Result<Term, LdlParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => {
                let first = s.chars().next().expect("lexer yields non-empty idents");
                if first.is_ascii_uppercase() || first == '_' {
                    Ok(Term::Var(s))
                } else {
                    Ok(Term::Const(Const::sym(s)))
                }
            }
            Some(Tok::QSym(s)) => Ok(Term::Const(Const::sym(s))),
            Some(Tok::Int(i)) => Ok(Term::Const(Const::Int(i))),
            Some(Tok::Float(f)) => Ok(Term::Const(Const::float(f))),
            Some(Tok::Str(s)) => Ok(Term::Const(Const::str(s))),
            _ => Err(self.err("expected term")),
        }
    }

    fn atom_with_head(&mut self, pred: String) -> Result<Atom, LdlParseError> {
        match self.next() {
            Some(Tok::LParen) => {}
            _ => return Err(self.err("expected '('")),
        }
        let mut args = Vec::new();
        if matches!(self.peek(), Some(Tok::RParen)) {
            self.next();
            return Ok(Atom::new(pred, args));
        }
        loop {
            args.push(self.term()?);
            match self.next() {
                Some(Tok::Comma) => {}
                Some(Tok::RParen) => break,
                _ => return Err(self.err("expected ',' or ')'")),
            }
        }
        Ok(Atom::new(pred, args))
    }

    fn atom(&mut self) -> Result<Atom, LdlParseError> {
        match self.next() {
            Some(Tok::Ident(p)) => self.atom_with_head(p),
            _ => Err(self.err("expected predicate name")),
        }
    }

    fn literal(&mut self) -> Result<Literal, LdlParseError> {
        // `not atom`
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == "not" {
                self.next();
                return Ok(Literal::Neg(self.atom()?));
            }
            if s == "overlaps" {
                self.next();
                let a = self.atom_with_head("overlaps".into())?;
                if a.args.len() != 4 {
                    return Err(self.err("overlaps/4 takes exactly four arguments"));
                }
                let mut it = a.args.into_iter();
                return Ok(Literal::Overlaps {
                    a_lo: it.next().expect("arity checked"),
                    a_hi: it.next().expect("arity checked"),
                    b_lo: it.next().expect("arity checked"),
                    b_hi: it.next().expect("arity checked"),
                });
            }
        }
        // Either `pred(args)` or `term op term`. Look ahead: an atom is
        // Ident followed by LParen.
        let is_atom = matches!(
            (self.peek(), self.toks.get(self.idx + 1).map(|(t, _)| t)),
            (Some(Tok::Ident(_)), Some(Tok::LParen))
        );
        if is_atom {
            return Ok(Literal::Pos(self.atom()?));
        }
        let lhs = self.term()?;
        let op = match self.next() {
            Some(Tok::Op(op)) => {
                CmpOp::parse(&op).ok_or_else(|| self.err(format!("unknown comparison '{op}'")))?
            }
            _ => return Err(self.err("expected comparison operator")),
        };
        let rhs = self.term()?;
        Ok(Literal::Cmp { op, lhs, rhs })
    }

    /// Parses one rule syntactically, without the safety check, returning
    /// the byte span `[start, end)` it occupies in the source.
    fn rule_raw(&mut self) -> Result<(Rule, usize, usize), LdlParseError> {
        let start = self.pos();
        let head = self.atom()?;
        let mut body = Vec::new();
        match self.next() {
            Some(Tok::Dot) => {}
            Some(Tok::Turnstile) => loop {
                body.push(self.literal()?);
                match self.next() {
                    Some(Tok::Comma) => {}
                    Some(Tok::Dot) => break,
                    _ => return Err(self.err("expected ',' or '.'")),
                }
            },
            _ => return Err(self.err("expected ':-' or '.'")),
        }
        // The last consumed token is the terminating '.' (1 byte wide).
        let end = self.toks.get(self.idx - 1).map(|(_, p)| p + 1).unwrap_or(start);
        Ok((Rule::unchecked(head, body), start, end))
    }

    fn rule(&mut self) -> Result<Rule, LdlParseError> {
        let (rule, start, _) = self.rule_raw()?;
        rule.check_safety()
            .map_err(|e| LdlParseError { message: e.to_string(), position: start })?;
        Ok(rule)
    }
}

/// Parses a single atom like `isa(a, B)`.
pub fn parse_atom(src: &str) -> Result<Atom, LdlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, idx: 0 };
    let a = p.atom()?;
    if p.idx != p.toks.len() {
        return Err(p.err("trailing input after atom"));
    }
    Ok(a)
}

/// Parses a single rule terminated by `.`.
pub fn parse_rule(src: &str) -> Result<Rule, LdlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, idx: 0 };
    let r = p.rule()?;
    if p.idx != p.toks.len() {
        return Err(p.err("trailing input after rule"));
    }
    Ok(r)
}

/// Parses a whole program: zero or more rules, `%` comments allowed.
/// Stratification is checked.
pub fn parse_rules(src: &str) -> Result<Program, LdlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, idx: 0 };
    let mut rules = Vec::new();
    while p.idx < p.toks.len() {
        rules.push(p.rule()?);
    }
    Program::new(rules).map_err(|e| LdlParseError { message: e.to_string(), position: 0 })
}

/// A rule together with the byte span `[start, end)` it occupies in the
/// source text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedRule {
    pub rule: Rule,
    pub start: usize,
    pub end: usize,
}

/// Parses a whole program *syntactically only* — no safety or
/// stratification checking — keeping each rule's source span. This is the
/// entry point for static analysis tooling that wants to report every
/// semantic problem with a span instead of failing on the first one;
/// syntax errors still abort (there is nothing meaningful to analyze).
pub fn parse_rules_spanned(src: &str) -> Result<Vec<SpannedRule>, LdlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, idx: 0 };
    let mut rules = Vec::new();
    while p.idx < p.toks.len() {
        let (rule, start, end) = p.rule_raw()?;
        rules.push(SpannedRule { rule, start, end });
    }
    Ok(rules)
}

/// Parses a conjunctive query: comma-separated literals, no trailing dot.
pub fn parse_query(src: &str) -> Result<Vec<Literal>, LdlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, idx: 0 };
    let mut goals = vec![p.literal()?];
    while p.idx < p.toks.len() {
        match p.next() {
            Some(Tok::Comma) => goals.push(p.literal()?),
            _ => return Err(p.err("expected ','")),
        }
    }
    Ok(goals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_and_rules() {
        let r = parse_rule("p(a, 1).").unwrap();
        assert!(r.body.is_empty());
        assert_eq!(r.head.vars().count(), 0);
        let r = parse_rule("path(X,Y) :- edge(X,Z), path(Z,Y).").unwrap();
        assert_eq!(r.body.len(), 2);
    }

    #[test]
    fn variables_vs_symbols() {
        let a = parse_atom("p(X, x, _y, Y2, \"lit\", 3, 2.5)").unwrap();
        assert!(matches!(a.args[0], Term::Var(_)));
        assert!(matches!(a.args[1], Term::Const(Const::Sym(_))));
        assert!(matches!(a.args[2], Term::Var(_)));
        assert!(matches!(a.args[3], Term::Var(_)));
        assert!(matches!(a.args[4], Term::Const(Const::Str(_))));
        assert!(matches!(a.args[5], Term::Const(Const::Int(3))));
        assert!(matches!(a.args[6], Term::Const(Const::FloatBits(_))));
    }

    #[test]
    fn quoted_symbols_are_constants() {
        let a = parse_atom("class(db2, 'C2a')").unwrap();
        assert_eq!(a.args[1], Term::Const(Const::sym("C2a")));
        assert!(parse_atom("p('unterminated").is_err());
    }

    #[test]
    fn hyphenated_symbols() {
        let a = parse_atom("cap(query-processing)").unwrap();
        assert_eq!(a.args[0], Term::Const(Const::sym("query-processing")));
    }

    #[test]
    fn parses_negation_and_builtins() {
        let r = parse_rule("p(X) :- q(X), not r(X), X < 10, X != y.").unwrap();
        assert_eq!(r.body.len(), 4);
        assert!(matches!(r.body[1], Literal::Neg(_)));
        assert!(matches!(r.body[2], Literal::Cmp { op: CmpOp::Lt, .. }));
    }

    #[test]
    fn parses_overlaps() {
        let r = parse_rule("m(A) :- r(A, L, H), overlaps(L, H, 25, 65).").unwrap();
        assert!(matches!(r.body[1], Literal::Overlaps { .. }));
        assert!(parse_rule("m(A) :- r(A, L, H), overlaps(L, H, 25).").is_err());
    }

    #[test]
    fn comments_and_multiple_rules() {
        let p = parse_rules(
            "% capability closure\ncovers(A,C) :- isa(A,C).\ncovers(A,C) :- isa(A,B), covers(B,C).",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 2);
    }

    #[test]
    fn zero_arity_atoms() {
        let a = parse_atom("flag()").unwrap();
        assert!(a.args.is_empty());
    }

    #[test]
    fn queries() {
        let q = parse_query("path(a, X), not blocked(X), X != a").unwrap();
        assert_eq!(q.len(), 3);
        assert!(parse_query("path(a, X),").is_err());
    }

    #[test]
    fn unsafe_rules_surface_as_parse_errors() {
        let e = parse_rule("p(X, Y) :- q(X).").unwrap_err();
        assert!(e.message.contains("unsafe"));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_rule("p(X) :- q(X)").is_err()); // missing dot
        assert!(parse_rule("p(X :- q(X).").is_err());
        assert!(parse_rule("p(X) : q(X).").is_err());
        assert!(parse_atom("p(a) extra").is_err());
        assert!(parse_rule("p(\"unterminated) :- q(X).").is_err());
    }

    #[test]
    fn round_trip_display_parse() {
        let src = "match(A, B) :- range(A, L1, H1), range(B, L2, H2), not same(A, B), overlaps(L1, H1, L2, H2), A != B.";
        let r = parse_rule(src).unwrap();
        let r2 = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, r2);
    }
}
