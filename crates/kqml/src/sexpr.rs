//! S-expression reader and printer for KQML messages.
//!
//! A node is 24 bytes: an atom is a [`Text`] (a protocol word shared by
//! every message, up to 22 bytes held in place, or an exact-length copy),
//! a string an exact-length `Box<str>`, and a list one exact-length block
//! of nodes — a queued message holds no capacity it does not use. A
//! [`Block`] printed ahead of time is one shared pointer and its number.

use crate::{Block, Text};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A KQML s-expression: an atom (symbol, keyword, or number), a quoted
/// string, a parenthesized list, or a block of them printed ahead of time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SExpr {
    /// An unquoted token: `ask-all`, `:sender`, `42`, `?agent-name`.
    Atom(Text),
    /// A double-quoted string with `\"` and `\\` escapes.
    Str(Box<str>),
    /// `( ... )`
    List(Box<[SExpr]>),
    /// A [`Block`] printed ahead of time, with the number in its hole:
    /// printed verbatim, sized as the tree it stands for, and read by
    /// decoders off [`Block::tokens`]. [`SExpr::parse`] never makes one.
    Block(Arc<Block>, u32),
}

/// Error produced when reading a malformed s-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SExprError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for SExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s-expression error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for SExprError {}

/// Whether the reader would take `s` apart (or read nothing) if it were
/// printed bare: empty text, whitespace, and the reader's delimiters
/// `(`, `)`, `"` and `;`.
pub(crate) fn needs_quotes(s: &str) -> bool {
    s.is_empty()
        || s.bytes().any(|b| matches!(b, b'\t'..=b'\r' | b' ' | b'(' | b')' | b'"' | b';'))
        || (!s.is_ascii() && s.chars().any(char::is_whitespace))
}

impl SExpr {
    /// The token for `s`: a bare atom when it reads back as that one atom,
    /// a quoted string otherwise (`SQL 2.0`, `a(b)`, the empty name) — so
    /// whatever a sender builds, a peer parses back the same text.
    pub fn atom(s: impl Into<Text>) -> Self {
        let text = s.into();
        if needs_quotes(&text) {
            SExpr::Str(text.as_str().into())
        } else {
            SExpr::Atom(text)
        }
    }

    pub fn string(s: impl Into<String>) -> Self {
        SExpr::Str(s.into().into_boxed_str())
    }

    pub fn list(items: impl IntoIterator<Item = SExpr>) -> Self {
        SExpr::List(items.into_iter().collect())
    }

    /// The atom's text, if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            SExpr::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The text content of an atom *or* string.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SExpr::Atom(s) => Some(s),
            SExpr::Str(s) => Some(s),
            SExpr::List(_) | SExpr::Block(..) => None,
        }
    }

    pub fn as_list(&self) -> Option<&[SExpr]> {
        match self {
            SExpr::List(items) => Some(items),
            _ => None,
        }
    }

    /// The head atom of a list, or of the list a block prints — what a
    /// reader switches on to tell one payload from another. A block's open
    /// number is never read as its head.
    pub fn head(&self) -> Option<&str> {
        match self {
            SExpr::List(items) => items.first()?.as_atom(),
            SExpr::Block(block, _) => block.head(),
            SExpr::Atom(_) | SExpr::Str(_) => None,
        }
    }

    /// Reads a single s-expression, requiring it to consume the full input.
    pub fn parse(src: &str) -> Result<SExpr, SExprError> {
        let mut tokens = Tokens::new(src);
        let e = tree(&mut tokens)?;
        match tokens.next() {
            None => Ok(e),
            Some(Err(e)) => Err(e),
            Some(Ok(_)) => Err(tokens.error_at_token("trailing input after s-expression")),
        }
    }

    /// Approximate wire size in bytes (used by simulation cost models).
    pub fn wire_size(&self) -> usize {
        match self {
            SExpr::Atom(s) => s.len() + 1,
            SExpr::Str(s) => s.len() + 3,
            SExpr::List(items) => 2 + items.iter().map(SExpr::wire_size).sum::<usize>(),
            SExpr::Block(block, fill) => block.wire_size(*fill),
        }
    }
}

/// One token of KQML text: what [`Tokens`] reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `(`
    Open,
    /// `)`
    Close,
    /// An unquoted token, as it stands in the text.
    Atom(&'a str),
    /// A quoted string's text: borrowed from the source unless an escape
    /// had to be undone.
    Str(Cow<'a, str>),
}

/// The one reader of KQML text: its tokens in order, whitespace and `;`
/// comments skipped. [`SExpr::parse`] builds its tree from these, and a
/// decoder that wants a few fields of a printed [`Block`] reads them here
/// without building one.
///
/// A reader may have a hole: text read as one more atom once the source
/// up to a given byte is used up — a block's open number, read in place.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    src: &'a str,
    pos: usize,
    /// Where the last token read starts.
    start: usize,
    /// The hole's atom and the text after it, until the hole is read.
    hole: Option<(&'a str, &'a str)>,
}

impl<'a> Tokens<'a> {
    pub fn new(src: &'a str) -> Tokens<'a> {
        Tokens { src, pos: 0, start: 0, hole: None }
    }

    /// The tokens of `head`, then `fill` as an atom, then those of `tail`.
    /// `head` must end, and `tail` start, between tokens.
    pub(crate) fn with_hole(head: &'a str, fill: &'a str, tail: &'a str) -> Tokens<'a> {
        Tokens { hole: Some((fill, tail)), ..Tokens::new(head) }
    }

    /// An error at the start of the last token read (or at the end).
    fn error_at_token(&self, message: impl Into<String>) -> SExprError {
        SExprError { message: message.into(), position: self.start }
    }

    fn error(&self, message: impl Into<String>) -> SExprError {
        SExprError { message: message.into(), position: self.pos }
    }

    /// The byte at `pos`, if any is left.
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                // comment to end of line
                b';' => {
                    self.pos += self.src[self.pos..].find('\n').unwrap_or(self.src.len() - self.pos)
                }
                _ => break,
            }
        }
    }

    /// The string whose opening quote was just read.
    fn string(&mut self) -> Result<Token<'a>, SExprError> {
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // one run; both are ASCII, so the run ends on a character
            // boundary.
            let rest = &self.src[self.pos..];
            let Some(run) = rest.find(['"', '\\']) else {
                self.pos = self.src.len();
                return Err(self.error("unterminated string"));
            };
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                // With no escape before it, the run is the string, read in
                // place.
                if out.is_empty() {
                    return Ok(Token::Str(Cow::Borrowed(&rest[..run])));
                }
                out.push_str(&rest[..run]);
                return Ok(Token::Str(Cow::Owned(out)));
            }
            out.push_str(&rest[..run]);
            out.push(match self.peek() {
                None => return Err(self.error("dangling escape")),
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(other) => {
                    return Err(self.error(format!("unknown escape '\\{}'", other as char)))
                }
            });
            self.pos += 1;
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Result<Token<'a>, SExprError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.skip_ws();
        self.start = self.pos;
        let Some(b) = self.peek() else {
            let (fill, tail) = self.hole.take()?;
            (self.src, self.pos, self.start) = (tail, 0, 0);
            return Some(Ok(Token::Atom(fill)));
        };
        self.pos += 1;
        Some(match b {
            b'(' => Ok(Token::Open),
            b')' => Ok(Token::Close),
            b'"' => self.string(),
            _ => {
                // The delimiters are ASCII, so the atom ends on a
                // character boundary.
                let rest = &self.src[self.start..];
                let len =
                    rest.find([' ', '\t', '\n', '\r', '(', ')', '"', ';']).unwrap_or(rest.len());
                self.pos = self.start + len;
                Ok(Token::Atom(&rest[..len]))
            }
        })
    }
}

/// Reads one s-expression off `tokens`: the tree [`SExpr::parse`] returns.
pub(crate) fn tree(tokens: &mut Tokens<'_>) -> Result<SExpr, SExprError> {
    // The items of every list still open, innermost last: a list is moved
    // off the top into one exact allocation when it closes.
    let mut items: Vec<SExpr> = Vec::new();
    let mut opened: Vec<usize> = Vec::new();
    loop {
        let item = match tokens.next() {
            None if opened.is_empty() => return Err(tokens.error("unexpected end of input")),
            None => return Err(tokens.error("unterminated list")),
            Some(token) => match token? {
                Token::Open => {
                    opened.push(items.len());
                    continue;
                }
                Token::Close => {
                    let Some(open) = opened.pop() else {
                        return Err(tokens.error_at_token("unexpected ')'"));
                    };
                    SExpr::List(items.drain(open..).collect())
                }
                Token::Atom(atom) => SExpr::Atom(Text::from(atom)),
                Token::Str(Cow::Borrowed(s)) => SExpr::Str(s.into()),
                Token::Str(Cow::Owned(s)) => SExpr::Str(s.into_boxed_str()),
            },
        };
        if opened.is_empty() {
            return Ok(item);
        }
        items.push(item);
    }
}

/// Writes `s` as a quoted string: unescaped runs go out whole; only the
/// four escaped characters are written one at a time.
pub(crate) fn write_quoted(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut rest = s;
    while let Some(at) = rest.find(['"', '\\', '\n', '\t']) {
        f.write_str(&rest[..at])?;
        f.write_str(match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            _ => "\\t",
        })?;
        rest = &rest[at + 1..];
    }
    f.write_str(rest)?;
    f.write_str("\"")
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Atom(s) => f.write_str(s),
            SExpr::Str(s) => write_quoted(f, s),
            SExpr::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str(")")
            }
            SExpr::Block(block, fill) => block.write(*fill, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_atoms_strings_lists() {
        assert_eq!(SExpr::parse("ask-all").unwrap(), SExpr::atom("ask-all"));
        assert_eq!(SExpr::parse("\"hi there\"").unwrap(), SExpr::string("hi there"));
        assert_eq!(
            SExpr::parse("(a (b c) \"d\")").unwrap(),
            SExpr::list([
                SExpr::atom("a"),
                SExpr::list([SExpr::atom("b"), SExpr::atom("c")]),
                SExpr::string("d"),
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = SExpr::string("a \"quoted\" \\ line\nnext\ttab");
        let text = original.to_string();
        assert_eq!(SExpr::parse(&text).unwrap(), original);
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let e = SExpr::parse("; header\n ( a ; mid\n b )\n").unwrap();
        assert_eq!(e, SExpr::list([SExpr::atom("a"), SExpr::atom("b")]));
    }

    #[test]
    fn errors_on_malformed_input() {
        assert!(SExpr::parse("(a").is_err());
        assert!(SExpr::parse(")").is_err());
        assert!(SExpr::parse("\"open").is_err());
        assert!(SExpr::parse("a b").is_err()); // trailing input
        assert!(SExpr::parse("").is_err());
        assert!(SExpr::parse("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn display_round_trips() {
        let src = "(advertise :sender ResourceAgent5 :content \"x = 'y'\")";
        let e = SExpr::parse(src).unwrap();
        assert_eq!(SExpr::parse(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn wire_size_is_positive_and_monotone() {
        let small = SExpr::parse("(a)").unwrap();
        let big = SExpr::parse("(a b c \"ddddd\")").unwrap();
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn unicode_strings() {
        let e = SExpr::parse("\"héllo wörld\"").unwrap();
        assert_eq!(e, SExpr::string("héllo wörld"));
    }
}
