//! # dce-core — optimistic access control for collaborative editors
//!
//! The paper's primary contribution (§5): a concurrency-control algorithm
//! that coordinates **cooperative requests** (document edits, checked
//! against a replicated policy) with **administrative requests** (policy
//! mutations issued by a single administrator), such that
//!
//! * local edits are granted or denied by the *local* policy copy alone —
//!   no server round-trip (high responsiveness);
//! * administrative requests are totally ordered by policy version;
//! * remote cooperative requests are re-checked against the administrative
//!   log `L` (`Check_Remote`), so concurrent revocations reach back across
//!   the network (paper Fig. 3);
//! * restrictive administrative requests retroactively **undo** tentative
//!   cooperative requests the new policy no longer grants (Fig. 2);
//! * the administrator **validates** each received legal request with a
//!   version-bumping `Validate` request, and user sites defer later
//!   administrative requests until the validated request has arrived —
//!   so legal operations are never lost to races (Fig. 4).
//!
//! The central type is [`Site`]: one per participant, wrapping a
//! [`dce_ot::Engine`] (document replica + OT log `H`), a
//! [`dce_policy::Policy`] copy and the administrative log `L`, plus the
//! reception queues `F` and `Q` of Algorithm 1.
//!
//! ```
//! use dce_core::{Site, Message};
//! use dce_document::{CharDocument, Op};
//! use dce_policy::Policy;
//!
//! let d0 = CharDocument::from_str("abc");
//! let policy = Policy::permissive([0, 1, 2]);
//! let mut adm = Site::new_admin(0, d0.clone(), policy.clone());
//! let mut s1 = Site::new_user(1, 0, d0.clone(), policy.clone());
//!
//! let q = s1.generate(Op::ins(1, 'x')).unwrap();
//! adm.receive(Message::Coop(q)).unwrap();
//! // The administrator validated the request:
//! assert_eq!(adm.drain_outbox().len(), 1);
//! assert_eq!(adm.document().to_string(), "xabc");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod error;
pub mod gc;
pub mod reference;
pub mod request;
mod scheduler;
pub mod shard;
pub mod site;

pub use audit::{audit, metrics, AuditRecord, SiteMetrics};
pub use engine::{Engine, ShardStore, COMPACT_WATERMARK};
pub use error::CoreError;
pub use reference::ScanSite;
pub use request::{AdminProposal, CoopRequest, Flag, Message};
pub use shard::{DocumentId, FlagTable};
pub use site::Site;
