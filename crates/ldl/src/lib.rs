//! An LDL-style deductive database.
//!
//! The paper's broker "uses a rule-based reasoning engine implemented in LDL
//! ⟨25⟩ to reason over the query and advertisements to determine which
//! agents have advertised services that match those requested". LDL — MCC's
//! Logical Data Language — integrated logic rules with database facts. This
//! crate reimplements the fragment the broker needs:
//!
//! * Datalog facts and rules with named predicates;
//! * bottom-up **semi-naive** fixpoint evaluation;
//! * **stratified negation** (`not p(X)`), with stratification checking;
//! * built-in comparison predicates (`X < Y`, `X != Y`, …) and an interval
//!   `overlaps` builtin used for constraint reasoning;
//! * conjunctive queries returning variable bindings;
//! * a textual rule syntax close to LDL/Datalog:
//!
//! ```
//! use infosleuth_ldl::{Database, parse_rules, parse_query};
//!
//! let program = parse_rules(r#"
//!     covers(A, C) :- isa(A, C).
//!     covers(A, C) :- isa(A, B), covers(B, C).
//! "#).unwrap();
//! let mut db = Database::new();
//! db.assert_str("isa(query-processing, relational).").unwrap();
//! db.assert_str("isa(relational, select).").unwrap();
//! let saturated = program.saturate(db).unwrap();
//! let goals = parse_query("covers(query-processing, X)").unwrap();
//! let answers = saturated.query(&goals);
//! assert_eq!(answers.len(), 2); // relational, select
//! ```

#![forbid(unsafe_code)]

mod builtins;
mod db;
mod eval;
mod parse;
mod program;
mod rule;
mod symbol;
mod term;

pub use builtins::CmpOp;
pub use db::Database;
pub use eval::Saturated;
pub use parse::{
    parse_atom, parse_query, parse_rule, parse_rules, parse_rules_spanned, LdlParseError,
    SpannedRule,
};
pub use program::{Program, ProgramError};
pub use rule::{Literal, Rule, RuleError};
pub use symbol::Sym;
pub use term::{Atom, Bindings, Const, Term};
