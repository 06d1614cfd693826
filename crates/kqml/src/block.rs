//! Text printed once and carried by many messages.
//!
//! A broker answers the same rows again and again: every reply, cache
//! entry and notification that carries one row can hold one shared
//! [`Block`] of its printed text instead of a tree each. A block is one
//! s-expression with at most one unsigned number left open — a row's
//! score, which differs per query — and [`SExpr::Block`] fills it in.

use crate::sexpr::{needs_quotes, tree, write_quoted};
use crate::{SExpr, SExprError, Token, Tokens};
use std::fmt::{self, Write};

/// One s-expression printed ahead of time, shared by every message that
/// carries it (see [`SExpr::Block`]). Made only by a [`BlockWriter`], so
/// its text is what the tree it stands for prints, item for item.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Block {
    text: Box<str>,
    /// Where the open number goes, if the block has one.
    hole: Option<u32>,
    /// What [`SExpr::wire_size`] reads for the tree, the open number aside.
    wire: usize,
}

impl Block {
    /// Prints the block with `fill` in its hole.
    pub fn write(&self, fill: u32, f: &mut impl Write) -> fmt::Result {
        match self.hole {
            None => f.write_str(&self.text),
            Some(at) => {
                let (head, tail) = self.text.split_at(at as usize);
                f.write_str(head)?;
                write!(f, "{fill}")?;
                f.write_str(tail)
            }
        }
    }

    /// [`SExpr::wire_size`] of the tree the block stands for, with `fill`
    /// in its hole.
    pub fn wire_size(&self, fill: u32) -> usize {
        let digits = fill.checked_ilog10().unwrap_or(0) as usize + 1;
        self.wire + self.hole.map_or(0, |_| digits + 1)
    }

    /// The tokens of the text [`Block::write`] prints with `fill` in the
    /// hole, read in place.
    pub fn tokens<'a>(&'a self, fill: &'a Digits) -> Tokens<'a> {
        match self.hole {
            None => Tokens::new(&self.text),
            Some(at) => {
                let (head, tail) = self.text.split_at(at as usize);
                Tokens::with_hole(head, fill.as_str(), tail)
            }
        }
    }

    /// The head atom of the list the block prints, when it prints a list
    /// headed by an atom other than its open number: what
    /// [`SExpr::head`] reads, read off the text in place.
    pub fn head(&self) -> Option<&str> {
        let text = self.hole.map_or(&*self.text, |at| &self.text[..at as usize]);
        let mut tokens = Tokens::new(text);
        match (tokens.next()?, tokens.next()?) {
            (Ok(Token::Open), Ok(Token::Atom(head))) => Some(head),
            _ => None,
        }
    }

    /// The tree the block stands for, with `fill` in its hole: what a peer
    /// that received the printed text would parse.
    pub fn tree(&self, fill: u32) -> Result<SExpr, SExprError> {
        let fill = Digits::new(fill);
        tree(&mut self.tokens(&fill))
    }
}

/// A `u32` in decimal, held in place: the text a block's hole reads as
/// (see [`Block::tokens`]).
#[derive(Debug, Clone, Copy)]
pub struct Digits {
    bytes: [u8; 10],
    from: usize,
}

impl Digits {
    pub fn new(mut n: u32) -> Digits {
        let mut digits = Digits { bytes: [b'0'; 10], from: 10 };
        loop {
            digits.from -= 1;
            digits.bytes[digits.from] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return digits;
            }
        }
    }

    pub fn as_str(&self) -> &str {
        // ASCII digits only.
        std::str::from_utf8(&self.bytes[self.from..]).unwrap_or_default()
    }
}

/// Prints a [`Block`] item by item, each exactly as the [`SExpr`] it
/// stands for would print, without building that tree: `open` and `close`
/// bracket a list, items inside one are spaced as the printer spaces them.
#[derive(Debug, Default)]
pub struct BlockWriter {
    text: String,
    hole: Option<u32>,
    wire: usize,
    depth: u32,
    /// Whether the next item follows another in its list.
    spaced: bool,
}

impl BlockWriter {
    /// A writer with room for `bytes` of text before it grows.
    pub fn with_capacity(bytes: usize) -> BlockWriter {
        BlockWriter { text: String::with_capacity(bytes), ..BlockWriter::default() }
    }

    fn item(&mut self) {
        if self.spaced {
            self.text.push(' ');
        }
        self.spaced = true;
    }

    /// `(`: the items up to the matching [`close`](Self::close) are a list.
    pub fn open(&mut self) -> &mut Self {
        self.item();
        self.text.push('(');
        self.wire += 2;
        self.depth += 1;
        self.spaced = false;
        self
    }

    pub fn close(&mut self) -> &mut Self {
        debug_assert!(self.depth > 0, "close without open");
        self.text.push(')');
        self.depth = self.depth.saturating_sub(1);
        self.spaced = true;
        self
    }

    /// The token [`SExpr::atom`]`(s)` prints: bare, or quoted where the
    /// reader would take it apart.
    pub fn atom(&mut self, s: &str) -> &mut Self {
        if needs_quotes(s) {
            return self.string(s);
        }
        self.item();
        self.text.push_str(s);
        self.wire += s.len() + 1;
        self
    }

    /// The token [`SExpr::string`]`(s)` prints.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.item();
        // Writing into a `String` cannot fail.
        let _ = write_quoted(&mut self.text, s);
        self.wire += s.len() + 3;
        self
    }

    /// `e` as one item, printed as it prints: a tree, or a block with its
    /// number filled in — so a block can carry others written in.
    pub fn sexpr(&mut self, e: &SExpr) -> &mut Self {
        self.item();
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{e}");
        self.wire += e.wire_size();
        self
    }

    /// The open number: an atom each use of the block fills in.
    pub fn hole(&mut self) -> &mut Self {
        debug_assert!(self.hole.is_none(), "a block has one hole");
        self.item();
        self.hole = u32::try_from(self.text.len()).ok();
        self
    }

    /// The block, its text one exact-length copy.
    pub fn finish(self) -> Block {
        debug_assert_eq!(self.depth, 0, "a list is left open");
        Block { text: self.text.into_boxed_str(), hole: self.hole, wire: self.wire }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `(match (name ra1) (address "tcp://h 1") (score _) (classes a "b c"))`.
    fn row() -> Block {
        let mut w = BlockWriter::default();
        w.open().atom("match");
        w.open().atom("name").atom("ra1").close();
        w.open().atom("address").string("tcp://h 1").close();
        w.open().atom("score").hole().close();
        w.open().atom("classes").atom("a").atom("b c").close();
        w.close();
        w.finish()
    }

    #[test]
    fn a_block_prints_and_sizes_as_its_tree() {
        let block = Arc::new(row());
        for fill in [0, 7, 10, 4_294_967_295] {
            let tree = block.tree(fill).unwrap();
            let e = SExpr::Block(Arc::clone(&block), fill);
            assert_eq!(e.to_string(), tree.to_string());
            assert_eq!(e.wire_size(), tree.wire_size(), "{fill}");
        }
        assert_eq!(
            SExpr::Block(block, 12).to_string(),
            r#"(match (name ra1) (address "tcp://h 1") (score 12) (classes a "b c"))"#
        );
    }

    /// The block's tokens are the printed text's, hole included.
    #[test]
    fn a_block_reads_as_its_printed_text() {
        let block = row();
        for fill in [0, 7, 10, 4_294_967_295] {
            let digits = Digits::new(fill);
            assert_eq!(digits.as_str(), fill.to_string());
            let mut printed = String::new();
            block.write(fill, &mut printed).unwrap();
            let read: Vec<_> = block.tokens(&digits).collect();
            assert_eq!(read, Tokens::new(&printed).collect::<Vec<_>>(), "{fill}");
        }
    }

    /// A block written into another prints, sizes and heads its list as
    /// the tree holding the inner one's tree does.
    #[test]
    fn a_block_carries_another_written_in() {
        let inner = SExpr::Block(Arc::new(row()), 42);
        let mut w = BlockWriter::default();
        w.open().atom("sub-delta");
        w.open().atom("matched").sexpr(&inner).close();
        w.open().atom("unmatched").atom("ra2").close();
        w.close();
        let outer = Arc::new(w.finish());
        let tree = SExpr::list([
            SExpr::atom("sub-delta"),
            SExpr::list([SExpr::atom("matched"), inner.clone()]),
            SExpr::list([SExpr::atom("unmatched"), SExpr::atom("ra2")]),
        ]);
        let held = SExpr::Block(Arc::clone(&outer), 0);
        assert_eq!(held.to_string(), tree.to_string());
        assert_eq!(held.wire_size(), tree.wire_size());
        assert_eq!(outer.tree(0).unwrap(), SExpr::parse(&tree.to_string()).unwrap());
        assert_eq!((held.head(), tree.head()), (Some("sub-delta"), Some("sub-delta")));
        assert_eq!(SExpr::Block(Arc::new(row()), 1).head(), Some("match"));
    }

    /// Only a list headed by an atom has a head, held or built; a block's
    /// open number is never its head.
    #[test]
    fn a_head_is_a_leading_atom() {
        fn held(write: impl Fn(&mut BlockWriter)) -> SExpr {
            let mut w = BlockWriter::default();
            write(&mut w);
            SExpr::Block(Arc::new(w.finish()), 7)
        }
        let cases = [
            (
                "bare",
                held(|w| {
                    w.atom("bare");
                }),
            ),
            (
                r#"("quoted")"#,
                held(|w| {
                    w.open().string("quoted").close();
                }),
            ),
            (
                "(())",
                held(|w| {
                    w.open().open().close().close();
                }),
            ),
            (
                "()",
                held(|w| {
                    w.open().close();
                }),
            ),
        ];
        for (text, held) in cases {
            assert_eq!(held.to_string(), text);
            assert_eq!((held.head(), SExpr::parse(text).unwrap().head()), (None, None), "{text}");
        }
        let mut w = BlockWriter::default();
        w.open().hole().close();
        assert_eq!(w.finish().head(), None);
    }

    #[test]
    fn a_block_without_a_hole_prints_its_text() {
        let mut w = BlockWriter::default();
        w.open().atom("epoch").atom("3").close();
        let block = w.finish();
        assert_eq!(block.tree(9).unwrap(), SExpr::parse("(epoch 3)").unwrap());
        assert_eq!(block.wire_size(9), SExpr::parse("(epoch 3)").unwrap().wire_size());
    }
}
