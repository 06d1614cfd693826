//! Combined syntactic + semantic matchmaking with ranking.
//!
//! "If a broker fails to take into account syntactic constraints, the
//! recommended agent will be unable to understand the message it receives.
//! If a broker fails to take into account semantic constraints, the
//! recommended agent may perform some action different than the one
//! intended." (§2.3) — so the matchmaker always applies both, in that
//! order.

use crate::codec::ResultRow;
use crate::repository::{ClassCredit, Posted, Repository, Term};
use crate::sub_index::numeric_hull;
use infosleuth_kqml::{Block, Text};
use infosleuth_ldl::{Saturated, Sym};
use infosleuth_ontology::{Advertisement, OntologyContent, ServiceQuery, SortedSet};
use std::sync::Arc;

/// One recommended agent, with the ranking score that ordered it and the
/// §2.4 *result format* fields: the matched ontology plus the agent's
/// available classes, slots, and keys (`?available-classes,
/// ?available-class-slots, ?class-keys` in the paper's query).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatchResult {
    pub name: String,
    pub address: String,
    pub score: u32,
    pub estimated_response_time: Option<f64>,
    /// The ontology of the content record that satisfied the query.
    pub ontology: Option<String>,
    /// Advertised classes of that content record.
    pub classes: Vec<String>,
    /// Advertised slots of that content record.
    pub slots: Vec<String>,
    /// Advertised class keys of that content record.
    pub keys: Vec<String>,
}

/// One result row as a broker holds it: the row's block, rendered once per
/// advertisement version and content record and shared by every cache
/// entry, subscription, reply and notification that carries the row (see
/// [`codec::ResultRow`](crate::codec::ResultRow)), plus the score this
/// query gave it. The name beside them is what rows are merged, diffed and
/// ordered by; a client reads rows as [`MatchResult`]s
/// ([`decode`](Self::decode)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatchRow {
    pub name: Text,
    pub score: u32,
    pub(crate) block: Arc<Block>,
}

/// Internal per-agent match outcome: the ranking score and which content
/// record, by position, carried the semantic match.
struct MatchOutcome {
    score: u32,
    record: Option<usize>,
}

/// The matchmaking engine: the syntactic layer, then the semantic one
/// (capabilities, content, data constraints) — always both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Matchmaker {}

/// Score weights (see the ranking rationale in the module tests): exact
/// matches beat hierarchy-covered matches beat partial contributions.
const SCORE_CLASS_EXACT: u32 = 3;
const SCORE_CLASS_COVERED: u32 = 2;
const SCORE_CLASS_PARTIAL: u32 = 1;
const SCORE_CAP_EXACT: u32 = 2;
const SCORE_CAP_COVERED: u32 = 1;
const SCORE_CONSTRAINT_COVERS_REQUEST: u32 = 3;
const SCORE_CONSTRAINT_SPECIALIST: u32 = 2;
const SCORE_CONSTRAINT_OVERLAP: u32 = 1;

/// Where scoring reads the three derived predicates of §2.1 subsumption
/// (`provides`, `serves_class`, `contributes_class`) from.
enum Probe<'a> {
    /// The matching path: the predicates are a function of the
    /// advertisement's own lists, the taxonomies' closures and what derived
    /// rules granted it when it was posted ([`Repository::provides`],
    /// [`Repository::class_credit`]).
    Closure(&'a Repository),
    /// The oracle's: ground facts probed on the reference model. The
    /// query's own names are resolved to symbols once here, not once per
    /// candidate.
    Model {
        model: &'a Saturated,
        /// `query.capabilities` and `query.classes`, in iteration order.
        capabilities: Vec<Option<Sym>>,
        classes: Vec<Option<Sym>>,
    },
}

impl<'a> Probe<'a> {
    fn model(model: &'a Saturated, query: &ServiceQuery) -> Self {
        Probe::Model {
            model,
            capabilities: query.capabilities.iter().map(|c| Sym::lookup(c.as_str())).collect(),
            classes: query.classes.iter().map(|c| Sym::lookup(c)).collect(),
        }
    }

    /// Whether `ad` provides the query's `i`-th capability, `cap`.
    fn provides(&self, ad: &Advertisement, i: usize, cap: &str) -> bool {
        match self {
            Probe::Closure(repo) => repo.provides(ad, cap),
            Probe::Model { model, capabilities, .. } => {
                model.holds_fact("provides", [Sym::lookup(&ad.location.name), capabilities[i]])
            }
        }
    }

    /// What `ad` holds of the query's `i`-th class, `class`, in `ontology`.
    fn class_credit(
        &self,
        ad: &Advertisement,
        ontology: &str,
        i: usize,
        class: &str,
    ) -> Option<ClassCredit> {
        match self {
            Probe::Closure(repo) => repo.class_credit(ad, ontology, class),
            Probe::Model { model, classes, .. } => {
                let fact = [Sym::lookup(&ad.location.name), Sym::lookup(ontology), classes[i]];
                if model.holds_fact("serves_class", fact) {
                    Some(ClassCredit::Serves)
                } else if model.holds_fact("contributes_class", fact) {
                    Some(ClassCredit::Contributes)
                } else {
                    None
                }
            }
        }
    }
}

impl Matchmaker {
    /// Matches a service query against the repository, returning
    /// recommendations ordered best-first (score descending, then name).
    /// Truncated to `query.max_matches` when set.
    ///
    /// Read-only, with or without derived rules: candidates are narrowed
    /// through the repository's inverted indexes, and subsumption is read
    /// off the taxonomies' closures and what the rules granted each
    /// advertisement when it was posted. Both are behavior-preserving (see
    /// [`match_query_linear`](Self::match_query_linear), the reference
    /// path: no index, the reference model).
    pub fn match_query(&self, repo: &Repository, query: &ServiceQuery) -> Vec<MatchRow> {
        let results = self
            .candidates(repo, query)
            .into_iter()
            .filter_map(|posted| self.score_row(repo, posted, query))
            .collect();
        rank(results, query)
    }

    /// `posted`'s row for `query`, scored as [`match_query`](Self::match_query)
    /// scores a candidate; `None` when it does not match.
    pub(crate) fn score_row(
        &self,
        repo: &Repository,
        posted: &Posted,
        query: &ServiceQuery,
    ) -> Option<MatchRow> {
        let name = &posted.ad.location.name;
        if query.agent_name.as_ref().is_some_and(|wanted| wanted != name) {
            return None;
        }
        let MatchOutcome { score, record } =
            self.score_agent(&posted.ad, query, &Probe::Closure(repo))?;
        Some(MatchRow { name: name.clone(), score, block: posted.row(record) })
    }

    /// [`match_query`](Self::match_query) for callers holding the
    /// repository mutably.
    pub fn match_query_mut(&self, repo: &mut Repository, query: &ServiceQuery) -> Vec<MatchRow> {
        self.match_query(repo, query)
    }

    /// The fully cached query path: consult `cache` at the repository's
    /// current mutation epoch, and only on a miss score + populate. The
    /// cache holds the untruncated ranking, and `query.max_matches` cuts
    /// it here. A hit skips candidate narrowing and scoring entirely, and
    /// an untruncated hit or miss exchanges `Arc` clones — no result row
    /// is deep-copied by the cache machinery.
    pub fn match_query_cached(
        &self,
        repo: &mut Repository,
        cache: &crate::MatchCache,
        query: &ServiceQuery,
    ) -> Arc<Vec<MatchRow>> {
        let epoch = repo.epoch();
        let key = crate::MatchCache::query_key(query);
        let rows = match cache.lookup_keyed(epoch, &key) {
            Some(hit) => hit,
            None => {
                let _scoring = repo.stage("scoring");
                let rows = Arc::new(self.match_query(repo, key.query()));
                cache.insert_keyed(epoch, key, Arc::clone(&rows));
                rows
            }
        };
        match query.max_matches {
            Some(n) if n < rows.len() => Arc::new(rows[..n].to_vec()),
            _ => rows,
        }
    }

    /// The reference path: score every advertisement serially against the
    /// reference model ([`Repository::saturated`]), with or without derived
    /// rules. Kept as the correctness oracle for the indexed, posted-term
    /// reading [`match_query`](Self::match_query); tests assert both agree.
    #[doc(hidden)]
    pub fn match_query_linear(
        &self,
        repo: &Repository,
        model: &Saturated,
        query: &ServiceQuery,
    ) -> Vec<MatchResult> {
        let probe = Probe::model(model, query);
        // Every advertisement, in the index's order: `rank` orders the rows.
        let results = repo
            .ad_index()
            .iter()
            .map(|ad| &**ad)
            .filter(|ad| match &query.agent_name {
                Some(name) => name == &ad.location.name,
                None => true,
            })
            .filter_map(|ad| self.score_candidate(ad, query, &probe))
            .collect();
        rank(results, query)
    }

    /// Narrows the scoring set through the repository's `AdIndex`:
    /// bitmaps over dense advertisement ids. An advertisement is posted
    /// under every term a query it can match may ask for — the subsumption
    /// rule was expanded when it was posted — so each of the query's own
    /// terms picks one posting, a sound over-approximation of the agents
    /// that can match it, and the postings are ANDed word by word: the
    /// result still contains every true match. What derived rules grant an
    /// advertisement is posted with it, so they switch no term off; with no
    /// term at all this degrades to the full scan.
    ///
    /// The survivors then meet the data constraints: an advertisement
    /// whose hull on a slot (see `ad_slot_hulls`) is disjoint from the
    /// requested window overlaps the request in none of its content
    /// records, which both constraint checks of `score_agent` require.
    ///
    /// A term nobody is posted under, or an intersection that runs empty,
    /// short-circuits the whole query before the remaining terms are
    /// looked at.
    fn candidates<'r>(&self, repo: &'r Repository, query: &ServiceQuery) -> Vec<&'r Posted> {
        let index = repo.ad_index();
        if let Some(name) = &query.agent_name {
            return index.posted(name).into_iter().collect();
        }
        // `None` until a term narrows: every advertisement survives.
        let mut survivors: Option<Vec<u64>> = None;
        for term in Term::of_query(query) {
            let Some(posting) = index.posting(term) else { return Vec::new() };
            if !intersect(&mut survivors, posting.words()) {
                return Vec::new();
            }
        }
        for slot in query.constraints.constrained_slots() {
            let (Some(window), Some(column)) =
                (numeric_hull(&query.constraints, slot), index.hull_column(slot))
            else {
                continue;
            };
            column.clear_disjoint(window, survivors.get_or_insert_with(|| index.all_ids()));
        }
        match survivors {
            Some(words) => index.ads_in(&words),
            None => index.all().collect(),
        }
    }

    /// Scores one advertisement and assembles its result row field by
    /// field, as the reference path's client would decode it.
    fn score_candidate(
        &self,
        ad: &Advertisement,
        query: &ServiceQuery,
        probe: &Probe<'_>,
    ) -> Option<MatchResult> {
        let MatchOutcome { score, record } = self.score_agent(ad, query, probe)?;
        let content = record.map(|i| &ad.semantic.content[i]);
        Some(MatchResult {
            name: String::from(&ad.location.name),
            address: String::from(&ad.location.address),
            score,
            estimated_response_time: ad.properties.estimated_response_time,
            ontology: content.map(|c| String::from(&c.ontology)),
            classes: content.map(|c| names(&c.classes)).unwrap_or_default(),
            slots: content.map(|c| names(&c.slots)).unwrap_or_default(),
            keys: content.map(|c| names(&c.keys)).unwrap_or_default(),
        })
    }

    /// Scores one advertisement against the query; `None` means no match.
    fn score_agent(
        &self,
        ad: &Advertisement,
        query: &ServiceQuery,
        probe: &Probe<'_>,
    ) -> Option<MatchOutcome> {
        // ---- Syntactic layer -------------------------------------------
        if let Some(t) = &query.agent_type {
            if t != &ad.location.agent_type {
                return None;
            }
        }
        if let Some(lang) = &query.query_language {
            if !ad.syntactic.query_languages.contains(lang) {
                return None;
            }
        }
        if let Some(lang) = &query.communication_language {
            if !ad.syntactic.communication_languages.contains(lang) {
                return None;
            }
        }
        for conv in &query.conversations {
            if !ad.semantic.conversations.contains(conv) {
                return None;
            }
        }
        let mut score = 1; // base score for a syntactic match
        let mut record = None;

        // ---- Semantic layer: capabilities ------------------------------
        for (i, cap) in query.capabilities.iter().enumerate() {
            if ad.semantic.capabilities.contains(cap) {
                score += SCORE_CAP_EXACT;
            } else if probe.provides(ad, i, cap.as_str()) {
                score += SCORE_CAP_COVERED;
            } else {
                return None;
            }
        }

        // ---- Semantic layer: content -----------------------------------
        let needs_content = query.ontology.is_some() || !query.classes.is_empty();
        if needs_content {
            // Pick the best-scoring content record that satisfies the
            // query; of equals, the one advertised first (`max_by_key`
            // keeps the last it meets, hence the `rev`).
            let (best_score, best) = ad
                .semantic
                .content
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, c)| query.ontology.as_ref().map_or(true, |o| &c.ontology == o))
                .filter_map(|(i, c)| self.score_content(ad, c, query, probe).map(|s| (s, i)))
                .max_by_key(|(s, _)| *s)?;
            score += best_score;
            record = Some(best);
        } else if !query.constraints.is_trivial() {
            // No specific ontology/classes requested, but data constraints
            // given: any advertised content must not rule out overlap.
            if !ad.semantic.content.is_empty()
                && !ad.semantic.content.iter().any(|c| c.constraints.overlaps(&query.constraints))
            {
                return None;
            }
        }

        // ---- Properties -------------------------------------------------
        if let Some(mobile) = query.require_mobile {
            if ad.properties.mobile != mobile {
                return None;
            }
        }
        if let Some(cloneable) = query.require_cloneable {
            if ad.properties.cloneable != cloneable {
                return None;
            }
        }
        if let Some(max) = query.max_response_time {
            if let Some(est) = ad.properties.estimated_response_time {
                if est > max {
                    return None;
                }
            }
        }
        Some(MatchOutcome { score, record })
    }

    /// Scores one content record; `None` means this record cannot serve the
    /// query.
    fn score_content(
        &self,
        ad: &Advertisement,
        content: &OntologyContent,
        query: &ServiceQuery,
        probe: &Probe<'_>,
    ) -> Option<u32> {
        let mut score = 0;

        // Classes: every requested class must at least receive a partial
        // contribution (the MRQ combines fragments and subclasses). Beyond
        // this record's own list the credit is the agent's for the whole
        // ontology, as the LDL base grants it.
        for (i, class) in query.classes.iter().enumerate() {
            score += if content.classes.contains(class) {
                SCORE_CLASS_EXACT
            } else {
                match probe.class_credit(ad, &content.ontology, i, class)? {
                    ClassCredit::Serves => SCORE_CLASS_COVERED,
                    ClassCredit::Contributes => SCORE_CLASS_PARTIAL,
                }
            };
        }

        // Slots: when both sides list slots, they must overlap (bare and
        // qualified spellings both accepted). Both lists are a few
        // names long: compared pairwise on borrowed suffixes, nothing built.
        if !query.slots.is_empty() && !content.slots.is_empty() {
            fn bare(s: &str) -> &str {
                s.rsplit('.').next().unwrap_or(s)
            }
            let advertised = |slot: &str| content.slots.iter().any(|s| bare(s) == slot);
            if !query.slots.iter().any(|s| advertised(bare(s))) {
                return None;
            }
        }

        // Fragments: a fragment advertised for a requested class must be
        // able to contribute to the request.
        for (class, frag) in &content.fragments {
            if query.classes.contains(class)
                && !frag.contributes_to(query.slots.as_slice(), &query.constraints)
            {
                return None;
            }
        }

        // Data constraints.
        if !query.constraints.is_trivial() {
            if !content.constraints.overlaps(&query.constraints) {
                return None;
            }
            if query.constraints.implies(&content.constraints) {
                // The advertised restriction covers the entire request.
                score += SCORE_CONSTRAINT_COVERS_REQUEST;
            } else if content.constraints.implies(&query.constraints) {
                // The agent is a specialist wholly inside the request.
                score += SCORE_CONSTRAINT_SPECIALIST;
            } else {
                score += SCORE_CONSTRAINT_OVERLAP;
            }
        }
        Some(score)
    }
}

/// A result row's copy of a name list.
fn names(set: &SortedSet<Text>) -> Vec<String> {
    set.iter().map(String::from).collect()
}

/// Orders results best-first (score descending, then name — a total
/// order) and applies the requested truncation.
fn rank<R: ResultRow>(mut results: Vec<R>, query: &ServiceQuery) -> Vec<R> {
    results.sort_by(|a, b| b.score().cmp(&a.score()).then_with(|| a.name().cmp(b.name())));
    if let Some(n) = query.max_matches {
        results.truncate(n);
    }
    results
}

/// Inserts `row` where [`rank`] would have placed it among `rows`.
pub(crate) fn insert_ranked(rows: &mut Vec<MatchRow>, row: MatchRow) {
    let at = rows.partition_point(|r| (r.score, &row.name) > (row.score, &r.name));
    rows.insert(at, row);
}

/// `acc ∧= posting`, starting from the posting itself while `acc` is
/// still "everything". Returns whether any id is left.
fn intersect(acc: &mut Option<Vec<u64>>, posting: &[u64]) -> bool {
    let words = match acc {
        Some(words) => {
            words.truncate(posting.len());
            for (word, posted) in words.iter_mut().zip(posting) {
                *word &= posted;
            }
            words
        }
        None => acc.insert(posting.to_vec()),
    };
    words.iter().any(|word| *word != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        healthcare_ontology, paper_class_ontology, AgentLocation, AgentProperties, AgentType,
        Capability, ConversationType, Fragment, SemanticInfo, SyntacticInfo,
    };

    /// The rows as a client reads them.
    fn decoded(rows: Vec<MatchRow>) -> Vec<MatchResult> {
        rows.iter().map(|row| row.decode().unwrap()).collect()
    }

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        r.register_ontology(healthcare_ontology());
        r
    }

    fn resource(name: &str, classes: &[&str]) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    }

    /// The §2.2 walkthrough: DB1 holds C1+C2, DB2 holds C2+C3.
    fn walkthrough_repo() -> Repository {
        let mut r = repo();
        r.advertise(resource("db1", &["C1", "C2"])).unwrap();
        r.advertise(resource("db2", &["C2", "C3"])).unwrap();
        let mrq = Advertisement::new(AgentLocation::new(
            "mrq",
            "tcp://h:2",
            AgentType::MultiResourceQuery,
        ))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll])
                .with_capabilities([Capability::multiresource_query_processing()]),
        );
        r.advertise(mrq).unwrap();
        r
    }

    #[test]
    fn figure6_query_for_mrq_agent() {
        let r = walkthrough_repo();
        let q = ServiceQuery::for_agent_type(AgentType::MultiResourceQuery)
            .with_query_language("SQL 2.0")
            .with_capability(Capability::multiresource_query_processing())
            .one();
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "mrq");
    }

    #[test]
    fn figure7_query_for_resources_holding_c2() {
        let r = walkthrough_repo();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("paper-classes")
            .with_classes(["C2"]);
        let m = Matchmaker::default().match_query(&r, &q);
        let names: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["db1", "db2"]);
        // "if the original query had been for class C3, then only DB2
        // would have been returned."
        let q3 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("paper-classes")
            .with_classes(["C3"]);
        let m3 = Matchmaker::default().match_query(&r, &q3);
        assert_eq!(m3.len(), 1);
        assert_eq!(m3[0].name, "db2");
    }

    #[test]
    fn mrq2_better_semantic_match_ranks_first() {
        // "agent MRQ2 … specializes in queries over the class C2 …
        // MRQ2 agent would be recommended … because it has a better
        // semantic match to the request than does agent MRQ."
        let mut r = walkthrough_repo();
        let mrq2 = Advertisement::new(AgentLocation::new(
            "mrq2",
            "tcp://h:3",
            AgentType::MultiResourceQuery,
        ))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll])
                .with_capabilities([Capability::multiresource_query_processing()])
                .with_content(OntologyContent::new("paper-classes").with_classes(["C2"])),
        );
        r.advertise(mrq2).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::MultiResourceQuery)
            .with_query_language("SQL 2.0")
            .with_capability(Capability::multiresource_query_processing())
            .with_ontology("paper-classes")
            .with_classes(["C2"])
            .one();
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "mrq2");
    }

    #[test]
    fn syntactic_mismatches_filter_out() {
        let mut r = repo();
        let mut oql_agent = resource("oql", &["C1"]);
        oql_agent.syntactic = SyntacticInfo::new(["OQL"], ["KQML"]);
        r.advertise(oql_agent).unwrap();
        r.advertise(resource("sql", &["C1"])).unwrap();
        // "one agent expects its input in SQL, while the other expects its
        // input in a relational subset of OQL … the semantics are not
        // sufficient to distinguish."
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_query_language("SQL 2.0");
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "sql");
    }

    #[test]
    fn conversation_requirements_filter() {
        let mut r = repo();
        r.advertise(resource("ra", &["C1"])).unwrap(); // ask-all only
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_conversation(ConversationType::Subscribe);
        assert!(Matchmaker::default().match_query(&r, &q).is_empty());
        let q2 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_conversation(ConversationType::AskAll);
        assert_eq!(Matchmaker::default().match_query(&r, &q2).len(), 1);
    }

    #[test]
    fn capability_subsumption_respects_hierarchy_direction() {
        let mut r = repo();
        let mut general = resource("general", &["C1"]);
        general.semantic.capabilities = [Capability::query_processing()].into_iter().collect();
        let mut select_only = resource("selector", &["C1"]);
        select_only.semantic.capabilities = [Capability::select()].into_iter().collect();
        r.advertise(general).unwrap();
        r.advertise(select_only).unwrap();
        // Request select: both qualify.
        let q =
            ServiceQuery::for_agent_type(AgentType::Resource).with_capability(Capability::select());
        assert_eq!(Matchmaker::default().match_query(&r, &q).len(), 2);
        // Request join: only the general agent qualifies.
        let q =
            ServiceQuery::for_agent_type(AgentType::Resource).with_capability(Capability::join());
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "general");
        // Exact capability scores above covered capability.
        let q =
            ServiceQuery::for_agent_type(AgentType::Resource).with_capability(Capability::select());
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m[0].name, "selector");
    }

    #[test]
    fn paper_24_constraint_example() {
        // ResourceAgent5 advertises ages 43..=75; query asks 25..=65 +
        // diagnosis code 40W. "The reasoning engine would match the agent."
        let mut r = repo();
        let ra5 =
            Advertisement::new(AgentLocation::new(
                "ResourceAgent5",
                "tcp://b1.mcc.com:4356",
                AgentType::Resource,
            ))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([
                        ConversationType::Subscribe,
                        ConversationType::Update,
                        ConversationType::AskAll,
                    ])
                    .with_capabilities([
                        Capability::relational_query_processing(),
                        Capability::subscription(),
                    ])
                    .with_content(
                        OntologyContent::new("healthcare")
                            .with_classes(["diagnosis", "patient"])
                            .with_slots(["diagnosis.code", "patient.age"])
                            .with_keys(["patient.id"])
                            .with_constraints(Conjunction::from_predicates(vec![
                                Predicate::between("patient.age", 43, 75),
                            ])),
                    ),
            )
            .with_properties(AgentProperties {
                estimated_response_time: Some(5.0),
                ..AgentProperties::default()
            });
        r.advertise(ra5).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("healthcare")
            .with_constraints(Conjunction::from_predicates(vec![
                Predicate::between("patient.age", 25, 65),
                Predicate::eq("patient.diagnosis_code", "40W"),
            ]));
        let m = decoded(Matchmaker::default().match_query(&r, &q));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "ResourceAgent5");
        assert_eq!(m[0].address, "tcp://b1.mcc.com:4356");
        assert_eq!(m[0].estimated_response_time, Some(5.0));
        // The §2.4 result format: ?available-classes,
        // ?available-class-slots, ?class-keys come back with the match.
        assert_eq!(m[0].ontology.as_deref(), Some("healthcare"));
        assert_eq!(m[0].classes, vec!["diagnosis", "patient"]);
        assert_eq!(m[0].slots, vec!["diagnosis.code", "patient.age"]);
        assert_eq!(m[0].keys, vec!["patient.id"]);
        // Disjoint ages: no recommendation.
        let q2 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("healthcare")
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                1,
                10,
            )]));
        assert!(Matchmaker::default().match_query(&r, &q2).is_empty());
    }

    #[test]
    fn constraint_specificity_orders_results() {
        let mut r = repo();
        let make = |name: &str, lo: i64, hi: i64| {
            let mut ad = resource(name, &[]);
            ad.semantic.content = vec![OntologyContent::new("healthcare")
                .with_classes(["patient"])
                .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                    "patient.age",
                    lo,
                    hi,
                )]))];
            ad
        };
        r.advertise(make("wide", 0, 120)).unwrap(); // covers whole request
        r.advertise(make("narrow", 40, 50)).unwrap(); // specialist inside
        r.advertise(make("partial", 60, 90)).unwrap(); // mere overlap
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("healthcare")
            .with_classes(["patient"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                30,
                70,
            )]));
        let m = Matchmaker::default().match_query(&r, &q);
        let names: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["wide", "narrow", "partial"]);
    }

    #[test]
    fn class_hierarchy_matching() {
        let mut r = repo();
        r.advertise(resource("whole", &["C2"])).unwrap();
        r.advertise(resource("part", &["C2a"])).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C2"]);
        let m = Matchmaker::default().match_query(&r, &q);
        let names: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
        // Exact holder first, subclass contributor second.
        assert_eq!(names, vec!["whole", "part"]);
        // Query for the subclass: the superclass holder serves it fully.
        let q2 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C2a"]);
        let m2 = Matchmaker::default().match_query(&r, &q2);
        let names2: Vec<&str> = m2.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names2, vec!["part", "whole"]);
    }

    #[test]
    fn vertical_fragments_must_contribute() {
        let mut r = repo();
        let mut frag_agent = resource("frag", &["C1"]);
        frag_agent.semantic.content = vec![OntologyContent::new("paper-classes")
            .with_classes(["C1"])
            .with_slots(["C1.id", "C1.a"])
            .with_fragment("C1", Fragment::vertical(["id", "a"]))];
        r.advertise(frag_agent).unwrap();
        // Request slot `b`: the fragment holds only id+a → no match.
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"])
            .with_slots(["b"]);
        assert!(Matchmaker::default().match_query(&r, &q).is_empty());
        // Request slot `a`: match.
        let q2 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"])
            .with_slots(["a"]);
        assert_eq!(Matchmaker::default().match_query(&r, &q2).len(), 1);
    }

    #[test]
    fn response_time_bound_filters() {
        let mut r = repo();
        let mut slow = resource("slow", &["C1"]);
        slow.properties.estimated_response_time = Some(30.0);
        let mut fast = resource("fast", &["C1"]);
        fast.properties.estimated_response_time = Some(2.0);
        r.advertise(slow).unwrap();
        r.advertise(fast).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_max_response_time(10.0);
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "fast");
    }

    #[test]
    fn adaptivity_properties_filter() {
        // Fig. 9 lists adaptivity ("cloneable, mobile") among the semantic
        // information the broker may use; the §2.4 agent advertises
        // `non-mobile`.
        let mut r = repo();
        let mut mobile = resource("rover", &["C1"]);
        mobile.properties.mobile = true;
        let mut fixed = resource("anchor", &["C1"]);
        fixed.properties.mobile = false;
        fixed.properties.cloneable = true;
        r.advertise(mobile).unwrap();
        r.advertise(fixed).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_mobility(true);
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "rover");
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_mobility(false);
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "anchor");
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_cloneability(true);
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "anchor");
    }

    /// The result row is read off the content record that carried the
    /// match, not off the first record of the same ontology. The indexed
    /// and the linear path share `score_candidate`, so no parity suite can
    /// see this: both are asked.
    #[test]
    fn result_row_describes_the_record_that_matched() {
        let mut r = repo();
        let mut ad = resource("split", &["C1"]);
        ad.semantic.content[0].keys.insert("C1.id".into());
        ad.semantic
            .content
            .push(OntologyContent::new("paper-classes").with_classes(["C3"]).with_keys(["C3.id"]));
        r.advertise(ad).unwrap();
        let model = r.saturated();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C3"]);
        let mm = Matchmaker::default();
        for m in [decoded(mm.match_query(&r, &q)), mm.match_query_linear(&r, &model, &q)] {
            assert_eq!(m.len(), 1);
            assert_eq!(m[0].ontology.as_deref(), Some("paper-classes"));
            assert_eq!((&m[0].classes, &m[0].keys), (&vec!["C3".into()], &vec!["C3.id".into()]));
        }
        // Records that score alike: the one advertised first.
        let any = ServiceQuery::for_agent_type(AgentType::Resource).with_ontology("paper-classes");
        assert_eq!(decoded(mm.match_query(&r, &any))[0].classes, ["C1"]);
    }

    #[test]
    fn max_matches_truncates() {
        let mut r = repo();
        for i in 0..5 {
            r.advertise(resource(&format!("ra{i}"), &["C1"])).unwrap();
        }
        let q = ServiceQuery::for_agent_type(AgentType::Resource).one();
        assert_eq!(Matchmaker::default().match_query(&r, &q).len(), 1);
    }

    #[test]
    fn agent_name_lookup() {
        let mut r = repo();
        r.advertise(resource("ra1", &["C1"])).unwrap();
        r.advertise(resource("ra2", &["C1"])).unwrap();
        let mut q = ServiceQuery::for_agent_type(AgentType::Resource);
        q.agent_name = Some("ra2".into());
        let m = Matchmaker::default().match_query(&r, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "ra2");
    }
}
