//! Property tests: KQML text round-tripping over arbitrary messages.

use infosleuth_kqml::{Message, Performative, SExpr};
use proptest::prelude::*;

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

fn arb_sexpr() -> impl Strategy<Value = SExpr> {
    let leaf = prop_oneof![
        arb_atom_text().prop_map(SExpr::Atom),
        arb_string_text().prop_map(SExpr::Str),
        any::<i32>().prop_map(|i| SExpr::Atom(i.to_string())),
        // Keywords and variables are atoms too, wherever they stand.
        arb_atom_text().prop_map(|s| SExpr::Atom(format!(":{s}"))),
        arb_atom_text().prop_map(|s| SExpr::Atom(format!("?{s}"))),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        proptest::collection::vec(inner, 0..5).prop_map(SExpr::List)
    })
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

    /// Any s-expression survives print → parse.
    #[test]
    fn sexpr_round_trips(e in arb_sexpr()) {
        let text = e.to_string();
        let back = SExpr::parse(&text).unwrap();
        prop_assert_eq!(back, e);
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
