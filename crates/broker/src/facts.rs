//! Compilation of advertisements into LDL facts, and the matchmaking rule
//! program the broker's reasoning engine runs over them.
//!
//! The fact schema:
//!
//! ```text
//! agent(Name, Type)           % agent name and type
//! lang(Name, "SQL 2.0")       % interface query language
//! comm(Name, "KQML")          % communication language
//! conv(Name, ask-all)         % supported conversation type
//! cap(Name, Cap)              % advertised capability
//! onto(Name, Onto)            % supported ontology
//! class(Name, Onto, Class)    % supported ontology class
//! slot(Name, Onto, Slot)      % supported ontology slot
//! isa_cap(Parent, Child)      % capability-taxonomy edge (Fig. 2)
//! isa_class(Onto, Sup, Sub)   % domain class-hierarchy edge
//! ```
//!
//! The derived predicates give the subsumption reasoning of §2.1:
//! `provides(Agent, Req)` holds when an advertised capability covers the
//! requested one, and `contributes_class(Agent, Onto, Req)` when the agent
//! holds the requested class, a superclass of it (full coverage), or a
//! subclass of it (partial contribution — the class-hierarchy query stream).

use infosleuth_ldl::{parse_rules, Const, Database, LdlParseError, Program, Rule};
use infosleuth_ontology::{Advertisement, Ontology, Taxonomy};

/// Compiles advertisements plus taxonomy knowledge into an extensional
/// database for the matchmaking program.
pub fn compile_facts<'a, A, O>(agents: A, capability_taxonomy: &Taxonomy, ontologies: O) -> Database
where
    A: IntoIterator<Item = &'a Advertisement>,
    O: IntoIterator<Item = &'a Ontology>,
{
    let mut db = compile_global_facts(capability_taxonomy, ontologies);
    for ad in agents {
        assert_agent_facts(&mut db, ad);
    }
    db
}

/// Compiles just one advertisement's facts — the delta that asserting or
/// retracting that advertisement applies to the extensional database.
/// Every tuple leads with the agent name, so two agents' fact sets are
/// disjoint and an agent's facts can be added or subtracted independently.
pub fn compile_agent_facts(ad: &Advertisement) -> Database {
    let mut db = Database::new();
    assert_agent_facts(&mut db, ad);
    db
}

fn assert_agent_facts(db: &mut Database, ad: &Advertisement) {
    let name = Const::sym(&ad.location.name);
    db.assert("agent", [name, Const::sym(ad.location.agent_type.to_string())]);
    for l in &ad.syntactic.query_languages {
        db.assert("lang", [name, Const::str(l)]);
    }
    for l in &ad.syntactic.communication_languages {
        db.assert("comm", [name, Const::str(l)]);
    }
    for c in &ad.semantic.conversations {
        db.assert("conv", [name, Const::sym(c.as_str())]);
    }
    for c in &ad.semantic.capabilities {
        db.assert("cap", [name, Const::sym(c.as_str())]);
    }
    for content in &ad.semantic.content {
        let onto = Const::sym(&content.ontology);
        db.assert("onto", [name, onto]);
        for class in &content.classes {
            db.assert("class", [name, onto, Const::sym(class)]);
        }
        for slot in &content.slots {
            db.assert("slot", [name, onto, Const::sym(slot)]);
        }
    }
}

/// Compiles the advertisement-independent facts: the capability taxonomy
/// and the domain class hierarchies.
pub fn compile_global_facts<'a, O>(capability_taxonomy: &Taxonomy, ontologies: O) -> Database
where
    O: IntoIterator<Item = &'a Ontology>,
{
    let mut db = Database::new();
    // Capability-taxonomy edges.
    for node in capability_taxonomy.nodes() {
        for child in capability_taxonomy.children_of(node) {
            db.assert("isa_cap", [Const::sym(node), Const::sym(child)]);
        }
    }
    // Domain class hierarchies.
    for o in ontologies {
        let onto = Const::sym(&o.name);
        for class in o.class_names() {
            for child in o.hierarchy().children_of(class) {
                db.assert("isa_class", [onto, Const::sym(class), Const::sym(child)]);
            }
        }
    }
    db
}

/// The standard matchmaking rule base extended with derived-concept rules
/// (§2.1: the broker "can reason over class-subclasses and derived
/// concepts relationships"). Fails if the combined base is not
/// stratifiable or a derived rule is unsafe.
pub fn matchmaking_program_with(derived: &[Rule]) -> Result<Program, LdlParseError> {
    let mut rules: Vec<Rule> = matchmaking_program().rules().to_vec();
    rules.extend(derived.iter().cloned());
    Program::new(rules).map_err(|e| LdlParseError { message: e.to_string(), position: 0 })
}

/// The textual source of the standard matchmaking rule base. Exposed so
/// tooling (`infosleuth-lint`) can analyze the shipped rules with source
/// spans instead of re-rendering the compiled program.
pub fn matchmaking_rules_text() -> &'static str {
    r#"
        % Transitive closure of the capability taxonomy (Fig. 2).
        cap_desc(P, C) :- isa_cap(P, C).
        cap_desc(P, C) :- isa_cap(P, B), cap_desc(B, C).

        % "if an agent does all query processing, then it certainly does
        % relational query processing and could process a simple select"
        provides(A, R) :- cap(A, R).
        provides(A, R) :- cap(A, Adv), cap_desc(Adv, R).

        % Transitive closure of each domain class hierarchy.
        class_desc(O, P, C) :- isa_class(O, P, C).
        class_desc(O, P, C) :- isa_class(O, P, B), class_desc(O, B, C).

        % Full coverage: the agent holds the class or an ancestor of it.
        serves_class(A, O, R) :- class(A, O, R).
        serves_class(A, O, R) :- class(A, O, Adv), class_desc(O, Adv, R).

        % Contribution: full coverage, or a subclass of the request (the
        % agent holds part of the requested class's extent).
        contributes_class(A, O, R) :- serves_class(A, O, R).
        contributes_class(A, O, R) :- class(A, O, Adv), class_desc(O, R, Adv).
        "#
}

/// The broker's matchmaking rule base.
pub fn matchmaking_program() -> Program {
    parse_rules(matchmaking_rules_text()).expect("rule base parses") // lint: allow-unwrap
}

/// The extensional fact schema the broker compiles advertisements into:
/// `(predicate, arity)` pairs, matching [`compile_facts`].
pub fn edb_schema() -> [(&'static str, usize); 10] {
    [
        ("agent", 2),
        ("lang", 2),
        ("comm", 2),
        ("conv", 2),
        ("cap", 2),
        ("onto", 2),
        ("class", 3),
        ("slot", 3),
        ("isa_cap", 2),
        ("isa_class", 3),
    ]
}

/// The derived predicates of the standard matchmaking base, with arities.
/// Derived-concept rule deltas may consume these as if they were given.
pub fn derived_schema() -> [(&'static str, usize); 5] {
    [
        ("cap_desc", 2),
        ("provides", 2),
        ("class_desc", 3),
        ("serves_class", 3),
        ("contributes_class", 3),
    ]
}

/// The agent-free predicates: the two hierarchies' edges and their
/// closures, the same for every advertisement. Only the standard base
/// defines them; a derived rule may not (IS016).
pub(crate) const HIERARCHY_PREDICATES: [&str; 4] =
    ["isa_cap", "isa_class", "cap_desc", "class_desc"];

/// The analysis environment for rule deltas registered against the
/// matchmaking base: the EDB schema plus the base's derived predicates
/// count as defined, and any of them is a root (the base consumes the EDB
/// predicates, so feeding one is useful work, not dead code). Every delta
/// rule must be agent-local (IS016): all but the four hierarchy
/// predicates lead with an agent name, and the hierarchy predicates are
/// the base's alone.
pub fn matchmaking_env() -> infosleuth_analysis::LdlEnv {
    let known = edb_schema().into_iter().chain(derived_schema());
    let agent_keyed = known.clone().map(|(name, _)| name);
    infosleuth_analysis::LdlEnv::permissive()
        .with_edb(known.clone().map(|(name, arity)| (name.to_string(), arity)))
        .with_roots(known.map(|(name, _)| name.to_string()))
        .with_agent_keyed(agent_keyed.filter(|name| !HIERARCHY_PREDICATES.contains(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_ldl::parse_query;
    use infosleuth_ontology::{
        paper_class_ontology, standard_capability_taxonomy, AgentLocation, AgentType, Capability,
        OntologyContent, SemanticInfo, SyntacticInfo,
    };

    fn resource(name: &str, classes: &[&str]) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    }

    #[test]
    fn capability_subsumption_via_rules() {
        let mut general = resource("g", &["C1"]);
        general.semantic.capabilities.clear();
        general.semantic.capabilities.insert(Capability::query_processing());
        let mut narrow = resource("n", &["C1"]);
        narrow.semantic.capabilities.clear();
        narrow.semantic.capabilities.insert(Capability::select());

        let tax = standard_capability_taxonomy();
        let onto = paper_class_ontology();
        let db = compile_facts([&general, &narrow], &tax, [&onto]);
        let model = matchmaking_program().saturate(db).unwrap();
        // The general agent provides select; the narrow one does not
        // provide full query processing.
        assert!(model.holds(&parse_query("provides(g, select)").unwrap()));
        assert!(model.holds(&parse_query("provides(g, join)").unwrap()));
        assert!(model.holds(&parse_query("provides(n, select)").unwrap()));
        assert!(!model.holds(&parse_query("provides(n, query-processing)").unwrap()));
        assert!(!model.holds(&parse_query("provides(n, join)").unwrap()));
    }

    #[test]
    fn class_hierarchy_contribution() {
        // db1 holds C2 (the whole class); db2 holds only subclass C2a.
        let db1 = resource("db1", &["C2"]);
        let db2 = resource("db2", &["C2a"]);
        let tax = standard_capability_taxonomy();
        let onto = paper_class_ontology();
        let db = compile_facts([&db1, &db2], &tax, [&onto]);
        let model = matchmaking_program().saturate(db).unwrap();
        // Request for C2a: db1 serves it fully (C2 is an ancestor); db2
        // serves it exactly.
        assert!(model.holds(&parse_query("serves_class(db1, paper-classes, 'C2a')").unwrap()));
        assert!(model.holds(&parse_query("serves_class(db2, paper-classes, 'C2a')").unwrap()));
        // Request for C2: db2 cannot serve all of it, but contributes.
        assert!(!model.holds(&parse_query("serves_class(db2, paper-classes, 'C2')").unwrap()));
        assert!(model.holds(&parse_query("contributes_class(db2, paper-classes, 'C2')").unwrap()));
        assert!(model.holds(&parse_query("serves_class(db1, paper-classes, 'C2')").unwrap()));
    }

    #[test]
    fn languages_and_conversations_become_facts() {
        let ad = resource("r", &["C1"]);
        let tax = standard_capability_taxonomy();
        let db = compile_facts([&ad], &tax, []);
        assert!(db.contains("lang", &[Const::sym("r"), Const::str("SQL 2.0")]));
        assert!(db.contains("comm", &[Const::sym("r"), Const::str("KQML")]));
        assert!(db.contains("agent", &[Const::sym("r"), Const::sym("resource")]));
    }
}
