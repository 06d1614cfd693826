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
//! This crate implements the s-expression reader ([`Tokens`], which
//! [`SExpr::parse`] builds its tree from) and printer ([`SExpr`]), the
//! message model ([`Message`], [`Performative`]), the [`Text`] of atoms
//! and parameter keys, the [`Block`] of text printed once and carried by
//! many messages, and [`Fnv`], the workspace's one stable string hash.

#![forbid(unsafe_code)]

mod block;
mod fnv;
mod message;
mod sexpr;
mod text;

pub use block::{Block, BlockWriter, Digits};
pub use fnv::Fnv;
pub use message::{KqmlError, Message, Performative};
pub use sexpr::{SExpr, SExprError, Token, Tokens};
pub use text::Text;
