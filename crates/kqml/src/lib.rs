//! KQML — the Knowledge Query and Manipulation Language.
//!
//! InfoSleuth agents exchange KQML performatives: an advertisement is an
//! `advertise` message whose content describes the agent in the service
//! ontology; service lookups are `ask-all`/`ask-one` messages; answers come
//! back in `tell`/`reply`; a broker with no matches answers `sorry`.
//!
//! KQML messages are s-expressions:
//!
//! ```text
//! (ask-all :sender mhn-user-agent
//!          :receiver broker-1
//!          :language SQL
//!          :ontology paper-classes
//!          :reply-with q1
//!          :content "select * from C2")
//! ```
//!
//! This crate implements the s-expression reader/printer ([`SExpr`]), the
//! message model ([`Message`], [`Performative`]), and KQML-style **template
//! unification** ([`Template`]) — the purely *syntactic* matching that the
//! paper contrasts with InfoSleuth's semantic brokering: "A match between a
//! request and an agent takes place when the agent's advertisement unifies
//! with the performative specified in the broker or recruit message."

#![forbid(unsafe_code)]

mod message;
mod sexpr;
mod template;
mod text;

pub use message::{KqmlError, Message, Performative};
pub use sexpr::{SExpr, SExprError};
pub use template::{unify, Bindings, Template};
pub use text::Text;
