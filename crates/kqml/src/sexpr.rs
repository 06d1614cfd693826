//! S-expression reader and printer for KQML messages.

use std::fmt;

/// A KQML s-expression: an atom (symbol, keyword, or number), a quoted
/// string, or a parenthesized list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SExpr {
    /// An unquoted token: `ask-all`, `:sender`, `42`, `?agent-name`.
    Atom(String),
    /// A double-quoted string with `\"` and `\\` escapes.
    Str(String),
    /// `( ... )`
    List(Vec<SExpr>),
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

impl SExpr {
    pub fn atom(s: impl Into<String>) -> Self {
        SExpr::Atom(s.into())
    }

    pub fn string(s: impl Into<String>) -> Self {
        SExpr::Str(s.into())
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
            SExpr::Atom(s) | SExpr::Str(s) => Some(s),
            SExpr::List(_) => None,
        }
    }

    pub fn as_list(&self) -> Option<&[SExpr]> {
        match self {
            SExpr::List(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this atom is a KQML keyword (starts with `:`).
    pub fn is_keyword(&self) -> bool {
        matches!(self, SExpr::Atom(s) if s.starts_with(':'))
    }

    /// Whether this atom is a KQML variable (starts with `?`).
    pub fn is_variable(&self) -> bool {
        matches!(self, SExpr::Atom(s) if s.starts_with('?'))
    }

    /// Reads a single s-expression, requiring it to consume the full input.
    pub fn parse(src: &str) -> Result<SExpr, SExprError> {
        let mut reader = Reader { src: src.as_bytes(), pos: 0 };
        reader.skip_ws();
        let e = reader.read()?;
        reader.skip_ws();
        if reader.pos != reader.src.len() {
            return Err(SExprError {
                message: "trailing input after s-expression".into(),
                position: reader.pos,
            });
        }
        Ok(e)
    }

    /// Approximate wire size in bytes (used by simulation cost models).
    pub fn wire_size(&self) -> usize {
        match self {
            SExpr::Atom(s) => s.len() + 1,
            SExpr::Str(s) => s.len() + 3,
            SExpr::List(items) => 2 + items.iter().map(SExpr::wire_size).sum::<usize>(),
        }
    }
}

struct Reader<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, message: impl Into<String>) -> SExprError {
        SExprError { message: message.into(), position: self.pos }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b';' => {
                    // comment to end of line
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn read(&mut self) -> Result<SExpr, SExprError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Err(self.error("unexpected end of input"));
        }
        match self.src[self.pos] {
            b'(' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.pos >= self.src.len() {
                        return Err(self.error("unterminated list"));
                    }
                    if self.src[self.pos] == b')' {
                        self.pos += 1;
                        return Ok(SExpr::List(items));
                    }
                    items.push(self.read()?);
                }
            }
            b')' => Err(self.error("unexpected ')'")),
            b'"' => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    if self.pos >= self.src.len() {
                        return Err(self.error("unterminated string"));
                    }
                    match self.src[self.pos] {
                        b'"' => {
                            self.pos += 1;
                            return Ok(SExpr::Str(out));
                        }
                        b'\\' => {
                            self.pos += 1;
                            if self.pos >= self.src.len() {
                                return Err(self.error("dangling escape"));
                            }
                            match self.src[self.pos] {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => {
                                    return Err(
                                        self.error(format!("unknown escape '\\{}'", other as char))
                                    )
                                }
                            }
                            self.pos += 1;
                        }
                        _ => {
                            // Consume one UTF-8 scalar.
                            let rest = std::str::from_utf8(&self.src[self.pos..])
                                .map_err(|_| self.error("invalid utf-8"))?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                    }
                }
            }
            _ => {
                let start = self.pos;
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b' ' | b'\t' | b'\n' | b'\r' | b'(' | b')' | b'"' | b';' => break,
                        _ => self.pos += 1,
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in atom"))?;
                Ok(SExpr::Atom(text.to_string()))
            }
        }
    }
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Atom(s) => write!(f, "{s}"),
            SExpr::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        _ => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            SExpr::List(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
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
    fn keywords_and_variables() {
        assert!(SExpr::parse(":sender").unwrap().is_keyword());
        assert!(SExpr::parse("?agent-name").unwrap().is_variable());
        assert!(!SExpr::parse("sender").unwrap().is_keyword());
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
