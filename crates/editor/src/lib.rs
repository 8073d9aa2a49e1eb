//! # dce-editor — collaborative editing sessions (the p2pEdit analog)
//!
//! The paper's prototype (§6, Fig. 6) is a Java/JXTA editor for shared
//! html pages: a user opens a group and becomes its administrator; others
//! join and leave freely; the administrator grants and revokes rights while
//! everyone edits in real time. This crate is that prototype's engine-room
//! as a library, on top of the simulated network:
//!
//! * [`text::TextSession`] — character-granularity editing with
//!   user-friendly string operations;
//! * [`page::PageSession`] — paragraph-granularity editing of html-like
//!   pages, the workload of the paper's screenshots;
//! * both expose the administrator console (grant/revoke/membership,
//!   groups, delegation); the text session adds heartbeat-gated log
//!   compaction (the garbage-collection extension) and clipboard
//!   compounds;
//! * `cargo run -p dce-editor --bin p2pedit` is the interactive REPL
//!   version of the same session (the Fig. 6 screenshot, textually).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod page;
pub mod text;

pub use page::PageSession;
pub use text::TextSession;
