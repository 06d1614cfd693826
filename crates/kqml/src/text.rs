//! The text of an atom or a parameter key, and the protocol vocabulary
//! most of it is drawn from.

use crate::Fnv;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Every word the InfoSleuth protocol itself writes: the performatives,
/// the reserved parameter keys (bare, as [`Message`](crate::Message)
/// stores them, and with the `:` they carry on the wire), the section
/// heads and enumerated values of the `infosleuth-service` codec, and the
/// heads of the log ontology's metric, span, health and table payloads.
/// Kept sorted by bytes, which the tests use to prove every word appears
/// once; lookups go through [`INDEX`].
const VOCABULARY: [&str; 147] = [
    ":content",
    ":in-reply-to",
    ":language",
    ":ontology",
    ":receiver",
    ":reply-to",
    ":reply-with",
    ":resource",
    ":resources",
    ":sender",
    ":x-trace",
    "KQML",
    "added",
    "address",
    "ads",
    "advertise",
    "advertisement",
    "agent-types",
    "alert",
    "all-repositories",
    "ask-all",
    "ask-one",
    "bits",
    "bool",
    "broker",
    "broker-advertisement",
    "broker-one",
    "broker-search",
    "capabilities",
    "capability-restrictions",
    "class",
    "classes",
    "cloneable",
    "columns",
    "comm-language",
    "comm-languages",
    "consortia",
    "constraints",
    "content",
    "conversations",
    "counter",
    "critical",
    "data-mining",
    "degraded",
    "delegation",
    "delivery-failure",
    "delivery-failures",
    "delta",
    "digest",
    "digest-epoch",
    "emergent",
    "epoch",
    "error",
    "event",
    "false",
    "float",
    "follow",
    "forward-to",
    "forwarding",
    "fragments",
    "gauge",
    "health",
    "health-state",
    "healthy",
    "histogram",
    "history",
    "hop-count",
    "horizontal",
    "hull",
    "hulls",
    "in-reply-to",
    "info",
    "infosleuth-log",
    "infosleuth-obs",
    "infosleuth-service",
    "int",
    "isa",
    "k",
    "key",
    "keys",
    "language",
    "local-only",
    "match",
    "matched",
    "matches",
    "max-matches",
    "max-response-time",
    "message",
    "metrics",
    "metrics-snapshot",
    "mobile",
    "monitor",
    "multiresource-query",
    "name",
    "ontologies",
    "ontology",
    "ping",
    "policy",
    "properties",
    "query-language",
    "query-languages",
    "receiver",
    "recruit-all",
    "recruit-one",
    "removed",
    "reply",
    "reply-to",
    "reply-with",
    "require-cloneable",
    "require-mobile",
    "resource",
    "resources",
    "response-time",
    "restrictions",
    "row",
    "score",
    "sender",
    "series",
    "service-query",
    "slot",
    "slots",
    "sorry",
    "span",
    "spans",
    "specialization",
    "string",
    "sub-delta",
    "subscribe",
    "table",
    "task-planning",
    "tell",
    "throughput",
    "trace",
    "traces",
    "true",
    "type",
    "unadvertise",
    "unmatched",
    "unprunable",
    "unsubscribe",
    "until-match",
    "update",
    "user",
    "vertical",
    "visited",
    "warning",
    "x-trace",
];

/// Slots of [`INDEX`]: a power of two about three times the vocabulary,
/// so a lookup — a hit or a miss — usually reads one or two slots.
const SLOTS: usize = 512;

/// An open-addressing hash index over [`VOCABULARY`], built at compile
/// time: probing starts at [`slot`]`(word)`, and a slot holds one plus
/// the word's position (0 = empty). A binary search over the array cost
/// eight `memcmp` calls — most of an atom's construction.
const INDEX: [u8; SLOTS] = {
    assert!(VOCABULARY.len() < 256, "a slot holds a position as one byte");
    let mut index = [0u8; SLOTS];
    let mut w = 0;
    while w < VOCABULARY.len() {
        let mut slot = slot(VOCABULARY[w]);
        while index[slot] != 0 {
            slot = (slot + 1) % SLOTS;
        }
        index[slot] = w as u8 + 1;
        w += 1;
    }
    index
};

/// Where probing for `word` starts in [`INDEX`].
const fn slot(word: &str) -> usize {
    (Fnv::EMPTY.eat(word).finish() % SLOTS as u64) as usize
}

/// The longest text held inside the node rather than behind a pointer:
/// what is left of 24 bytes after the form's tag and the length.
const INLINE: usize = 22;

/// The text of an atom or a parameter key: a word of the protocol
/// vocabulary, shared for the life of the program; up to 22 bytes of
/// anything else, held in place; or an exact-length copy of longer
/// text. Every constructor consults the vocabulary, so a section head or
/// a keyword costs no allocation, and neither does a name or a number.
/// Equality, order, hashing and `Debug` are those of the `str` it holds,
/// whichever form holds it.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Word(&'static str),
    Inline(u8, [u8; INLINE]),
    Owned(Box<str>),
}

impl Text {
    /// The vocabulary word equal to `s`, if there is one.
    fn word(s: &str) -> Option<&'static str> {
        let mut slot = slot(s);
        loop {
            let word = VOCABULARY[usize::from(INDEX[slot]).checked_sub(1)?];
            if word == s {
                return Some(word);
            }
            slot = (slot + 1) % SLOTS;
        }
    }

    /// The vocabulary word or the in-place copy `s` fits, if either.
    fn small(s: &str) -> Option<Repr> {
        if let Some(word) = Text::word(s) {
            return Some(Repr::Word(word));
        }
        let mut bytes = [0; INLINE];
        bytes.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        Some(Repr::Inline(s.len() as u8, bytes))
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Word(w) => w,
            // Copied from a `str`, so always UTF-8.
            Repr::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Owned(s) => s,
        }
    }

    /// The text's bytes, read without the UTF-8 check that turning bytes
    /// held in place back into a `str` costs on every call — so equality
    /// and order, which a broker runs per candidate it scores, compare
    /// these. Byte order is `str` order.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Word(w) => w.as_bytes(),
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Owned(s) => s.as_bytes(),
        }
    }

    /// Whether this is a vocabulary word rather than a copy of its own.
    pub fn is_static(&self) -> bool {
        matches!(self.0, Repr::Word(_))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text(Text::small(s).unwrap_or_else(|| Repr::Owned(s.into())))
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Text {
        Text::from(s.as_str())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text(Text::small(&s).unwrap_or_else(|| Repr::Owned(s.into_boxed_str())))
    }
}

impl From<&Text> for Text {
    fn from(t: &Text) -> Text {
        t.clone()
    }
}

impl From<&Text> for String {
    fn from(t: &Text) -> String {
        t.as_str().to_string()
    }
}

impl From<Text> for String {
    fn from(t: Text) -> String {
        match t.0 {
            Repr::Owned(s) => s.into(),
            _ => t.as_str().to_string(),
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SExpr;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn the_vocabulary_is_sorted_and_every_word_reads_back_as_one_atom() {
        assert!(VOCABULARY.windows(2).all(|w| w[0].as_bytes() < w[1].as_bytes()));
        for w in VOCABULARY {
            assert!(Text::from(w).is_static(), "{w}");
            assert_eq!(SExpr::parse(w).unwrap(), SExpr::Atom(Text::from(w)), "{w}");
        }
        assert!(!Text::from("ra0001").is_static());
        assert!(!Text::from("matches2".to_string()).is_static());
    }

    /// Short text is held in place, longer text behind one exact pointer,
    /// and both read back what went in, UTF-8 included.
    #[test]
    fn text_up_to_22_bytes_is_held_in_place() {
        for s in ["", "5", "ra0123", "é日𝄞", "twenty-two-bytes-long!", "twenty-three-bytes-long"]
        {
            let (borrowed, owned) = (Text::from(s), Text::from(s.to_string()));
            assert_eq!((borrowed.as_str(), owned.as_str()), (s, s));
            let inline = matches!(borrowed.0, Repr::Inline(..));
            assert_eq!(inline, s.len() <= INLINE, "{s}");
            assert_eq!(matches!(owned.0, Repr::Inline(..)), inline, "{s}");
        }
    }

    /// The two forms of one word are the same text: the reader, the
    /// builder and a copy made before the word joined the vocabulary must
    /// agree on equality, order, hash and `Debug`.
    #[test]
    fn a_word_and_a_copy_of_it_are_one_text() {
        let hash = |t: &Text| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let word = Text::from("match");
        let copy = Text(Repr::Owned("match".into()));
        let held = Text(Text::small("ra0123").unwrap());
        assert_eq!(held, Text(Repr::Owned("ra0123".into())));
        assert_eq!(hash(&held), hash(&Text(Repr::Owned("ra0123".into()))));
        assert!(word.is_static() && !copy.is_static());
        assert_eq!(word, copy);
        assert_eq!(word.cmp(&copy), Ordering::Equal);
        assert_eq!(hash(&word), hash(&copy));
        assert_eq!(format!("{word:?}"), format!("{copy:?}"));
        assert_eq!(SExpr::Atom(word), SExpr::Atom(copy));
    }
}
