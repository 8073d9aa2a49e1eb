//! # dce-benchmark — the repository's yardstick
//!
//! Four seeded workloads against an in-process `dce-server`, driven by
//! two member replicas over loopback TCP; end-to-end metrics from an
//! untraced run, per-layer metrics and spans from a traced one. See
//! `README.md` beside this crate for what each workload is for and
//! which layer it starves, and `/BENCHMARK.json` for the contract
//! (names, units, directions, bounds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod run;
pub mod schedule;
pub mod spec;
pub mod stats;
pub mod trace;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, 2 × 200 ops/s, no admin traffic, memory-only server.
    Typing,
    /// Closed loop, 8 unsettled ops per member, memory-only server.
    Saturate,
    /// Open loop, 2 × 150 ops/s plus 20 admin ops/s from member 1.
    Revoke,
    /// `saturate` against a WAL-backed server that is dropped mid-load.
    Durable,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Typing, Workload::Saturate, Workload::Revoke, Workload::Durable];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Typing => "typing",
            Workload::Saturate => "saturate",
            Workload::Revoke => "revoke",
            Workload::Durable => "durable",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mean gap between one member's cooperative ops in an open-loop
    /// workload; `None` for the closed-loop ones.
    pub fn coop_gap_ns(self) -> Option<u64> {
        match self {
            Workload::Typing => Some(5_000_000),
            Workload::Revoke => Some(6_666_667),
            Workload::Saturate | Workload::Durable => None,
        }
    }

    /// Whether the workload issues restrictive administrative requests —
    /// only then are `Invalid` settlements and `Check_Local` refusals
    /// legitimate outcomes rather than failures.
    pub fn restricts(self) -> bool {
        self == Workload::Revoke
    }
}
