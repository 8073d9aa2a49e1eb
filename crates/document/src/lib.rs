//! # dce-document — the shared linear document model
//!
//! Collaborative editors in the tradition of Ellis & Gibbs manipulate shared
//! objects with a *linear structure*: a sequence of elements where an element
//! may be a character, a paragraph, a page or an XML node (paper §3.1). This
//! crate provides that abstraction for the whole `dce` stack:
//!
//! * [`Element`] — the element trait, implemented by [`Char`] and
//!   [`Paragraph`] out of the box, plus any `Clone + Eq + Debug` type;
//! * [`Document`] — the replicated document state, addressed from **position
//!   1** exactly as in the paper's examples;
//! * [`Op`] — the cooperative operations `Ins(p, e)`, `Del(p, e)` and
//!   `Up(p, e, e')` of Definition 1, extended with the identity operation
//!   [`Op::Nop`] that operational transformation produces when concurrent
//!   deletions collide.
//!
//! The crate is deliberately free of any concurrency or policy logic — those
//! live in `dce-ot` and `dce-policy`. Everything here is a pure, easily
//! testable state machine.
//!
//! ```
//! use dce_document::{CharDocument, Op};
//!
//! let mut doc = CharDocument::from_str("efecte");
//! Op::ins(2, 'f').apply(&mut doc).unwrap();
//! Op::del(7, 'e').apply(&mut doc).unwrap();
//! assert_eq!(doc.to_string(), "effect");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compound;
pub mod element;
pub mod error;
pub mod ops;
pub mod state;

pub use element::{Char, Element, Paragraph};
pub use error::ApplyError;
pub use ops::{Op, OpKind};
pub use state::{CharDocument, Document, Position};
