//! Property tests: KQML text round-tripping over arbitrary messages, and
//! the node layout that keeps a queued message small.

use infosleuth_kqml::{BlockWriter, Message, Performative, SExpr, Text};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Atom-safe token text (what the lexer tokenizes back into one atom).
fn arb_atom_text() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_-]{0,12}".prop_map(|s| s)
}

/// Arbitrary string payloads, including quotes, escapes, and unicode.
fn arb_string_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('('),
            Just(')'),
            Just('é'),
            Just('?'),
            Just('\r'),
            Just(';'),
            Just(':'),
            Just('日'),
            Just('𝄞'),
        ],
        0..20,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Words of the protocol vocabulary, which atoms share rather than copy.
fn arb_word() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("match"),
        Just("name"),
        Just("sub-delta"),
        Just("epoch"),
        Just("ask-all"),
        Just(":sender"),
        Just("infosleuth-service"),
        Just("true"),
    ]
    .prop_map(str::to_string)
}

/// Text an atom may be asked to carry: words, safe tokens, and UTF-8 with
/// whitespace, the reader's delimiters and nothing at all.
fn arb_any_text() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_word(),
        arb_atom_text(),
        arb_string_text(),
        Just("Resource Agent 5".to_string()),
        Just("a(b)".to_string()),
        Just("no\u{a0}break".to_string()),
    ]
}

fn arb_sexpr() -> impl Strategy<Value = SExpr> {
    let leaf = prop_oneof![
        arb_word().prop_map(SExpr::atom),
        arb_any_text().prop_map(SExpr::atom),
        arb_string_text().prop_map(SExpr::string),
        any::<i32>().prop_map(|i| SExpr::atom(i.to_string())),
        // Keywords and variables are atoms too, wherever they stand.
        arb_atom_text().prop_map(|s| SExpr::atom(format!(":{s}"))),
        arb_atom_text().prop_map(|s| SExpr::atom(format!("?{s}"))),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        proptest::collection::vec(inner, 0..5).prop_map(SExpr::list)
    })
}

fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A node is three words: an atom's text, a string's bytes and a list's
/// items each live behind one pointer and one length.
#[test]
fn a_node_is_24_bytes() {
    assert_eq!(std::mem::size_of::<SExpr>(), 24);
    assert_eq!(std::mem::size_of::<Text>(), 24);
}

fn arb_performative() -> impl Strategy<Value = Performative> {
    prop_oneof![
        Just(Performative::Advertise),
        Just(Performative::AskAll),
        Just(Performative::Tell),
        Just(Performative::Sorry),
        Just(Performative::Subscribe),
        Just(Performative::Ping),
        arb_atom_text().prop_map(Performative::Other),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (arb_performative(), proptest::collection::vec((arb_atom_text(), arb_sexpr()), 0..6)).prop_map(
        |(perf, params)| {
            let mut m = Message::new(perf);
            for (k, v) in params {
                m.set(k, v);
            }
            m
        },
    )
}

/// The printer as it was before `Display` stopped going through
/// `write!` per character: the reference the current one must match
/// byte for byte.
fn reference_print(e: &SExpr, out: &mut String) {
    match e {
        SExpr::Atom(s) => out.push_str(s),
        SExpr::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    _ => out.push(c),
                }
            }
            out.push('"');
        }
        SExpr::List(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                reference_print(item, out);
            }
            out.push(')');
        }
        SExpr::Block(block, fill) => reference_print(&block.tree(*fill).unwrap(), out),
    }
}

/// Writes `e` into `w` item by item.
fn write_tree(e: &SExpr, w: &mut BlockWriter) {
    match e {
        SExpr::Atom(s) => {
            w.atom(s);
        }
        SExpr::Str(s) => {
            w.string(s);
        }
        SExpr::List(items) => {
            w.open();
            items.iter().for_each(|item| write_tree(item, w));
            w.close();
        }
        SExpr::Block(..) => unreachable!("the strategy builds trees"),
    }
}

proptest! {
    /// A message prints exactly as the s-expression it stands for always
    /// has, and reports that s-expression's wire size, without building
    /// it (`kqml.request_bytes` / `kqml.reply_bytes` read the same).
    #[test]
    fn message_prints_and_sizes_as_its_sexpr(m in arb_message()) {
        let mut reference = String::new();
        reference_print(&m.to_sexpr(), &mut reference);
        prop_assert_eq!(m.to_string(), reference.clone());
        prop_assert_eq!(m.to_sexpr().to_string(), reference);
        prop_assert_eq!(m.wire_size(), m.to_sexpr().wire_size());
    }

    /// A block written item by item from a tree, with a number left open
    /// after it, prints, sizes and reads back as that tree with the number
    /// in place — alone and inside a message.
    #[test]
    fn a_block_is_the_tree_it_was_written_from(e in arb_sexpr(), fill in any::<u32>()) {
        let tree = SExpr::list([e.clone(), SExpr::atom(fill.to_string())]);
        let mut w = BlockWriter::default();
        w.open();
        write_tree(&e, &mut w);
        w.hole().close();
        let block = SExpr::Block(std::sync::Arc::new(w.finish()), fill);
        prop_assert_eq!(block.to_string(), tree.to_string());
        prop_assert_eq!(block.wire_size(), tree.wire_size());
        prop_assert_eq!(SExpr::parse(&block.to_string()).unwrap(), tree.clone());
        let SExpr::Block(b, _) = &block else { unreachable!() };
        prop_assert_eq!(b.tree(fill).unwrap(), tree.clone());
        let m = Message::new(Performative::Reply).with_content(block);
        prop_assert_eq!(m.wire_size(), m.to_sexpr().wire_size());
        prop_assert_eq!(Message::parse(&m.to_string()).unwrap().content(), Some(&tree));
    }

    /// Any s-expression survives print → parse.
    #[test]
    fn sexpr_round_trips(e in arb_sexpr()) {
        let text = e.to_string();
        let back = SExpr::parse(&text).unwrap();
        prop_assert_eq!(back, e);
    }

    /// Whatever text an atom is built from, a peer reads that text back:
    /// what the reader would split or drop travels quoted, and a protocol
    /// word is the shared one on both sides.
    #[test]
    fn an_atom_reads_back_as_its_text(s in arb_any_text()) {
        let built = SExpr::atom(s.as_str());
        let back = SExpr::parse(&built.to_string()).unwrap();
        prop_assert_eq!(back.as_text(), Some(s.as_str()));
        prop_assert_eq!(&back, &built);
        if let (SExpr::Atom(sent), SExpr::Atom(read)) = (&built, &back) {
            prop_assert_eq!(sent.is_static(), read.is_static());
        }
    }

    /// A text is its content: two texts compare, order, hash and print
    /// with `Debug` exactly as their `str`s do, whether each is a word or
    /// a copy and whichever constructor made it.
    #[test]
    fn text_is_its_content(a in arb_any_text(), b in arb_any_text()) {
        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(hash_of(&ta), hash_of(a.as_str()));
        prop_assert_eq!(hash_of(&tb), hash_of(b.as_str()));
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        prop_assert_eq!(Text::from(a.clone()).is_static(), ta.is_static());
    }

    /// Any message survives print → parse, including structured content
    /// and hostile string payloads.
    #[test]
    fn message_round_trips(m in arb_message()) {
        let text = m.to_string();
        let back = Message::parse(&text).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Builder-set reserved parameters survive the wire whatever their
    /// text (spaces force string quoting).
    #[test]
    fn reserved_params_round_trip(
        lang in arb_string_text(),
        onto in arb_atom_text(),
    ) {
        let m = Message::new(Performative::AskOne)
            .with_language(lang.clone())
            .with_ontology(onto.clone());
        let back = Message::parse(&m.to_string()).unwrap();
        prop_assert_eq!(back.language(), Some(lang.as_str()));
        prop_assert_eq!(back.ontology(), Some(onto.as_str()));
    }

    /// reply_skeleton always wires the conversation correctly.
    #[test]
    fn reply_skeleton_correlates(sender in arb_atom_text(), rw in arb_atom_text()) {
        let m = Message::new(Performative::AskOne)
            .with_sender(sender.clone())
            .with_receiver("broker")
            .with_reply_with(rw.clone());
        let r = m.reply_skeleton(Performative::Reply);
        prop_assert_eq!(r.receiver(), Some(sender.as_str()));
        prop_assert_eq!(r.sender(), Some("broker"));
        prop_assert_eq!(r.in_reply_to(), Some(rw.as_str()));
    }
}
