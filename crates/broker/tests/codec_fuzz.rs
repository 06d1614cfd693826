//! The broker codec under hostile input: every `*_from_sexpr` decoder
//! (and `embedded_digest`) takes whatever a peer's KQML `:content` parsed
//! to, so each must answer `Ok` or `Err` — never panic — on arbitrary
//! trees and on valid encodings with one section dropped, duplicated or
//! retyped; and what the encoders write, the decoders read back equal.
//! The digest round trip also pins that everything `CapabilityDigest::of`
//! emits passes the decoder's range checks. Trees hold rows printed ahead
//! of time (`SExpr::Block`) where an encoder puts them and anywhere else,
//! and damage reaches inside a row as the tree a peer would read.

use infosleuth_broker::codec::{self, ResultRow, SearchRequest};
use infosleuth_broker::{CapabilityDigest, FollowOption, MatchResult, Repository, SearchPolicy};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_kqml::SExpr;
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentProperties, AgentType, BrokerAdvertisement,
    BrokerSpecialization, Capability, ConversationType, Fragment, OntologyContent, SemanticInfo,
    ServiceQuery, SyntacticInfo,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Choices read off one generated byte string, so a single strategy
/// drives every builder below.
struct Dice(Vec<u8>, usize);

fn arb_dice() -> impl Strategy<Value = Dice> {
    prop::collection::vec(any::<u8>(), 400..401).prop_map(|bytes| Dice(bytes, 0))
}

/// Heads and keywords the decoders look for and numbers they parse, so a
/// random tree gets past the first check.
const WORDS: &str = "advertisement broker-advertisement service-query broker-search matches \
    match matched unmatched sub-delta digest name address type query-languages conversations \
    capabilities content ontology classes slots keys constraints fragments vertical horizontal \
    properties response-time consortia specialization agent-types policy hop-count follow \
    visited digest-epoch score epoch broker ads k bits hulls hull true 0 -1 \
    4294967295 18446744073709551616 NaN inf";

/// Free text carried as a KQML string, and the strings decoders parse.
const TEXTS: [&str; 8] = [
    "",
    "SQL 2.0",
    "a \"q\" (b)",
    "é\\ z",
    "a >= 3 and b = \"x\"",
    "ffffffffffffffff",
    "00ff",
    "ÿÿÿÿÿÿÿÿ",
];

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        self.0[self.1 % self.0.len()] as usize % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 1
    }

    fn some<T>(&mut self, make: fn(&mut Dice) -> T) -> Option<T> {
        self.flip().then(|| make(self))
    }

    fn many<T>(&mut self, max: usize, make: fn(&mut Dice) -> T) -> Vec<T> {
        (0..self.below(max)).map(|_| make(self)).collect()
    }

    /// Names, classes and slots — including ones the reader would split
    /// if they went out bare: a space, `(`, `)`, `"` and `;`.
    fn name(&mut self) -> String {
        let stems = ["ra", "c-", "p.q_", "x", "Resource Agent ", "a(b", ")c", "say \"", "semi;"];
        format!("{}{}", stems[self.below(stems.len())], self.below(30))
    }

    fn text(&mut self) -> String {
        TEXTS[self.below(TEXTS.len())].to_string()
    }

    /// A finite time: printed by `to_string`, read back by `parse`, equal.
    fn seconds(&mut self) -> f64 {
        self.below(200) as f64 / 8.0
    }

    fn agent_type(&mut self) -> AgentType {
        let other = AgentType::Other(format!("t-{}", self.name()));
        [AgentType::Resource, AgentType::Broker, other][self.below(3)].clone()
    }

    fn conversation(&mut self) -> ConversationType {
        let other = ConversationType::Other(format!("v-{}", self.name()));
        [ConversationType::AskAll, ConversationType::Subscribe, other][self.below(3)].clone()
    }

    /// At most one predicate a slot, in shapes whose text parses back to
    /// the same conjunction.
    fn constraints(&mut self) -> Conjunction {
        let predicates = ["patient.age", "c1.a", "cost"].into_iter().filter_map(|slot| {
            let lo = self.below(90) as i64 - 40;
            match self.below(5) {
                0 => Some(Predicate::between(slot, lo, lo + 7)),
                1 => Some(Predicate::ge(slot, lo)),
                2 => Some(Predicate::le(slot, lo)),
                3 => Some(Predicate::eq(slot, format!("v{}", lo + 40))),
                _ => None,
            }
        });
        Conjunction::from_predicates(predicates.collect::<Vec<_>>())
    }

    fn content(&mut self) -> OntologyContent {
        let mut c = OntologyContent::new(self.name())
            .with_classes(self.many(4, Dice::name))
            .with_slots(self.many(4, Dice::name))
            .with_keys(self.many(2, Dice::name))
            .with_constraints(self.constraints());
        c.fragments = self.many(3, |d| match d.flip() {
            true => (d.name().into(), Fragment::vertical(d.many(3, Dice::name))),
            false => (d.name().into(), Fragment::Horizontal { constraint: d.constraints() }),
        });
        c
    }

    fn advertisement(&mut self) -> Advertisement {
        let location = AgentLocation::new(self.name(), self.text(), self.agent_type());
        let mut semantic = SemanticInfo::default()
            .with_conversations(self.many(3, Dice::conversation))
            .with_capabilities(self.many(3, |d| Capability::new(d.name())));
        semantic.capability_restrictions = self.many(2, Dice::text);
        semantic.content = self.many(3, Dice::content);
        Advertisement::new(location)
            .with_syntactic(SyntacticInfo::new(self.many(3, Dice::text), self.many(3, Dice::text)))
            .with_semantic(semantic)
            .with_properties(AgentProperties {
                mobile: self.flip(),
                cloneable: self.flip(),
                estimated_response_time: self.some(Dice::seconds),
                throughput: self.some(Dice::seconds),
            })
    }

    fn broker_advertisement(&mut self) -> BrokerAdvertisement {
        BrokerAdvertisement::new(self.advertisement())
            .with_consortia(self.many(3, Dice::name))
            .with_specialization(BrokerSpecialization {
                agent_types: self.many(3, Dice::agent_type).into_iter().collect(),
                ontologies: self.many(3, Dice::name).into_iter().map(Into::into).collect(),
                restrictions: self.many(2, Dice::text),
            })
    }

    fn search_request(&mut self) -> SearchRequest {
        let mut query = ServiceQuery::any();
        query.agent_type = self.some(Dice::agent_type);
        query.agent_name = self.some(Dice::name).map(Into::into);
        query.query_language = self.some(Dice::text).map(Into::into);
        query.communication_language = self.some(Dice::text).map(Into::into);
        query.conversations = self.many(3, Dice::conversation).into_iter().collect();
        query.capabilities = self.many(3, |d| Capability::new(d.name())).into_iter().collect();
        query.ontology = self.some(Dice::name).map(Into::into);
        query.classes = self.many(3, Dice::name).into_iter().map(Into::into).collect();
        query.slots = self.many(3, Dice::name).into_iter().map(Into::into).collect();
        query.constraints = self.constraints();
        query.max_response_time = self.some(Dice::seconds);
        query.require_mobile = self.some(Dice::flip);
        query.require_cloneable = self.some(Dice::flip);
        query.max_matches = self.some(|d| d.below(50));
        let follow = [FollowOption::UntilMatch, FollowOption::AllRepositories][self.below(2)];
        SearchRequest {
            query,
            policy: SearchPolicy { hop_count: self.below(5) as u32, follow },
            visited: self.many(4, Dice::name),
            digest_epoch: self.some(|d| d.below(256) as u64),
        }
    }

    fn matches(&mut self) -> Vec<MatchResult> {
        self.many(4, |d| MatchResult {
            name: d.name(),
            address: d.text(),
            score: d.below(256) as u32,
            estimated_response_time: d.some(Dice::seconds),
            ontology: d.some(Dice::name),
            classes: d.many(3, Dice::name),
            slots: d.many(3, Dice::name),
            keys: d.many(2, Dice::name),
        })
    }

    /// A digest as a peer might lay it out by hand: any word pattern, any
    /// accepted probe count, closed and half-open hulls.
    fn digest(&mut self) -> CapabilityDigest {
        let mut digest = CapabilityDigest::empty(self.name());
        digest.epoch = self.below(256) as u64;
        digest.ads = self.below(256) as u64;
        digest.k = 1 + self.below(16) as u32;
        digest.bits =
            (0..1 + self.below(4)).map(|_| self.below(256) as u64 * 0x2000_0001).collect();
        digest.slot_hulls = (0..self.below(3))
            .map(|_| {
                let lo = self.below(100) as f64 / 4.0;
                let hulls = [(lo, lo + 2.5), (f64::NEG_INFINITY, lo), (lo, f64::INFINITY)];
                (self.name(), hulls[self.below(3)])
            })
            .collect();
        digest
    }

    fn leaf(&mut self) -> SExpr {
        let words: Vec<&str> = WORDS.split_whitespace().collect();
        match self.below(5) {
            0 => SExpr::atom(self.name()),
            1 => SExpr::string(self.text()),
            // A row printed ahead of time, wherever it lands.
            2 => self.matches().first().map_or_else(|| SExpr::atom("match"), ResultRow::item),
            _ => SExpr::atom(words[self.below(words.len())]),
        }
    }

    fn tree(&mut self, depth: usize) -> SExpr {
        if depth == 0 || self.below(3) == 0 {
            return self.leaf();
        }
        SExpr::list((0..self.below(6)).map(|_| self.tree(depth - 1)))
    }

    /// Drops, duplicates or retypes one node of `e`, at a depth and
    /// position the dice choose.
    fn damage(&mut self, e: &mut SExpr) {
        // A row printed ahead of time is damaged as the tree it prints.
        if let SExpr::Block(block, fill) = e {
            *e = block.tree(*fill).expect("a block prints one s-expression");
        }
        let SExpr::List(items) = e else { return };
        if items.is_empty() {
            return;
        }
        let at = self.below(items.len());
        if self.below(3) > 0 && matches!(items[at], SExpr::List(_) | SExpr::Block(..)) {
            return self.damage(&mut items[at]);
        }
        let mut edited = std::mem::take(items).into_vec();
        match self.below(4) {
            0 => drop(edited.remove(at)),
            1 => edited.insert(at, edited[at].clone()),
            2 => edited[at] = self.leaf(),
            _ => edited[at] = SExpr::list(self.many(2, Dice::leaf)),
        }
        *items = edited.into_boxed_slice();
    }
}

/// Runs every decoder over `e`; returning at all is the property.
fn decode_all(e: &SExpr) {
    let _ = codec::advertisement_from_sexpr(e);
    let _ = codec::broker_advertisement_from_sexpr(e);
    let _ = codec::service_query_from_sexpr(e);
    let _ = codec::search_request_from_sexpr(e);
    let _ = codec::matches_from_sexpr(e);
    let _ = codec::sub_delta_from_sexpr(e);
    let _ = codec::digest_from_sexpr(e);
    let _ = codec::embedded_digest(e);
}

/// Through the text a peer would send and back.
fn over_the_wire(e: &SExpr) -> SExpr {
    SExpr::parse(&e.to_string()).expect("printed s-expressions parse")
}

proptest! {
    #[test]
    fn arbitrary_trees_decode_or_fail_cleanly(d in arb_dice()) {
        let mut d = d;
        let tree = d.tree(4);
        decode_all(&tree);
        // Under each decoder's own head, so the body is what gets read.
        let body = tree.as_list().map(<[SExpr]>::to_vec).unwrap_or_else(|| vec![tree.clone()]);
        for head in WORDS.split_whitespace().take(10) {
            decode_all(&SExpr::list([vec![SExpr::atom(head)], body.clone()].concat()));
        }
    }

    #[test]
    fn damaged_encodings_decode_or_fail_cleanly(d in arb_dice()) {
        let mut d = d;
        let (ad, request, matches, digest) =
            (d.broker_advertisement(), d.search_request(), d.matches(), d.digest());
        let unmatched: Vec<String> = matches.iter().map(|m| m.name.clone()).collect();
        for mut e in [
            codec::advertisement_to_sexpr(&ad.base),
            codec::broker_hello_to_sexpr(&ad, Some(&digest)),
            codec::service_query_to_sexpr(&request.query),
            codec::search_request_to_sexpr(&request),
            codec::matches_reply_to_sexpr(&matches, Some(&digest)),
            codec::sub_delta_to_sexpr(digest.epoch, &matches, &unmatched),
            codec::digest_to_sexpr(&digest),
        ] {
            d.damage(&mut e);
            decode_all(&e);
        }
    }

    #[test]
    fn encodings_round_trip(d in arb_dice()) {
        let mut d = d;
        let ad = d.broker_advertisement();
        let e = over_the_wire(&codec::advertisement_to_sexpr(&ad.base));
        prop_assert_eq!(codec::advertisement_from_sexpr(&e).unwrap(), ad.base.clone());
        let e = over_the_wire(&codec::broker_advertisement_to_sexpr(&ad));
        prop_assert_eq!(codec::broker_advertisement_from_sexpr(&e).unwrap(), ad);

        let request = d.search_request();
        let e = over_the_wire(&codec::service_query_to_sexpr(&request.query));
        prop_assert_eq!(codec::service_query_from_sexpr(&e).unwrap(), request.query.clone());
        let e = over_the_wire(&codec::search_request_to_sexpr(&request));
        prop_assert_eq!(codec::search_request_from_sexpr(&e).unwrap(), request);

        let (matches, digest, unmatched) = (d.matches(), d.digest(), d.many(4, Dice::name));
        let e = over_the_wire(&codec::matches_reply_to_sexpr(&matches, Some(&digest)));
        prop_assert_eq!(codec::matches_from_sexpr(&e).unwrap(), matches.clone());
        prop_assert_eq!(codec::embedded_digest(&e), Some(digest.clone()));
        let e = over_the_wire(&codec::digest_to_sexpr(&digest));
        prop_assert_eq!(codec::digest_from_sexpr(&e).unwrap(), digest.clone());
        let tree = codec::sub_delta_to_sexpr(digest.epoch, &matches, &unmatched);
        let e = over_the_wire(&tree);
        // The body a broker shares among a change's notifications: printed
        // once, it prints and decodes as the tree.
        let block = codec::sub_delta_block(digest.epoch, &matches, &unmatched);
        let held = SExpr::Block(Arc::new(block), 0);
        prop_assert_eq!(held.to_string(), tree.to_string());
        let delta = (digest.epoch, matches, unmatched);
        prop_assert_eq!(codec::sub_delta_from_sexpr(&e).unwrap(), delta.clone());
        prop_assert_eq!(codec::sub_delta_from_sexpr(&held).unwrap(), delta);
    }

    /// Whatever a repository digests to — empty, closed and half-open
    /// hulls, slots only some advertisements constrain, derived rules — the
    /// decoder's range checks let through unchanged.
    #[test]
    fn built_digests_pass_the_decoder(d in arb_dice()) {
        let mut d = d;
        let mut repo = Repository::new();
        if d.flip() {
            repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).")
                .expect("rules admit");
        }
        for mut ad in d.many(6, Dice::advertisement) {
            // The codec carries any address and capability; the repository
            // admits a routable one and the taxonomy's own.
            ad.location.address = "tcp://h:4000".into();
            ad.semantic.capabilities = [Capability::select(), Capability::subscription()]
                .into_iter()
                .take(ad.semantic.capabilities.len())
                .collect();
            repo.advertise(ad).expect("admissible");
        }
        let built = CapabilityDigest::of("b1", &repo);
        let e = over_the_wire(&codec::digest_to_sexpr(&built));
        prop_assert_eq!(codec::digest_from_sexpr(&e).unwrap(), built);
    }
}
