//! # dce-check — a deterministic schedule-space explorer
//!
//! A mini model checker for the collaborative-editing stack: it drives a
//! set of in-process [`dce_core::Site`]s through **every** delivery
//! interleaving of a bounded scenario (N sites, K scripted operations,
//! optional duplicate deliveries) and checks invariant oracles at every
//! quiescent state:
//!
//! 1. **Convergence** — documents, policies, administrative logs and flag
//!    tables agree across sites (the paper's Thm. 5.1 obligation).
//! 2. **Security** — nothing the final policy forbids survives in any
//!    document, and nothing flagged `Invalid` has a document effect
//!    (§4.2).
//! 3. **Legality** — every request the administrator validated under the
//!    Fig. 4 protocol ends `Valid` at every site.
//! 4. **Determinism** — strictly replaying the schedule that reached a
//!    state reproduces every site bit for bit.
//!
//! The exploration is an explicit work-stack DFS (no recursion, bounded
//! only by the scenario) with sleep-set partial-order reduction and
//! behavioral-digest state dedupe — see [`explore`] and the docs of the
//! private `explore` module. The first violation is greedily
//! delta-debugged into a 1-minimal, replayable [`Schedule`] suitable for
//! pinning as a regression (see `crates/check/tests/regressions.rs`).
//!
//! ```
//! use dce_check::{explore, Scenario, Verdict};
//!
//! let scenario = Scenario::by_name("fig2", 2, 2).unwrap();
//! match explore(&scenario) {
//!     Verdict::Ok(stats) => assert!(stats.quiescent > 0),
//!     Verdict::Violation(cx) => panic!("{}\n{}", cx.violation, cx.schedule.to_rust_literal()),
//! }
//! ```
//!
//! The companion binary explores figure scenarios from the command line:
//!
//! ```text
//! cargo run -p dce-check --release -- --scenario fig2 --sites 3 --ops 4
//! ```

#![warn(missing_docs)]

mod explore;
mod oracle;
mod runner;
mod scenario;
mod schedule;
mod shrink;

pub use explore::{explore, explore_with, Config, Counterexample, Stats, Verdict};
pub use oracle::Violation;
pub use scenario::{LocalAction, Scenario};
pub use schedule::{Schedule, Step};
