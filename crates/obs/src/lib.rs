//! # dce-obs — observability for the replicated access-control stack
//!
//! The paper's three coordination mechanisms — retroactive undo,
//! admin-log re-checking and validation-deferred delivery (§4,
//! Figs. 2–4) — are invisible from final state alone: a run can converge
//! while having taken a forbidden intermediate path. This crate turns
//! every ordinary run into a checkable **trace**, the way
//! *Experiments in Model-Checking Optimistic Replication Algorithms*
//! (Boucheneb & Imine) treats executions as event sequences with
//! temporal invariants:
//!
//! * [`event`] — the typed event taxonomy ([`Event`], [`EventKind`]),
//!   each event carrying `(site, seq, version, lamport)` coordinates;
//! * [`record`] — the [`Recorder`] trait, its ring-buffer journal
//!   ([`RingRecorder`]) and the no-op default;
//! * [`handle`] — [`ObsHandle`], the zero-cost-when-disabled handle the
//!   stack threads through `Site`, `SimNet` and the editor sessions;
//! * [`metrics`] — counters, gauges and log-scale histograms with a
//!   [`MetricsReport`] snapshot (serialized by hand — no JSON dependency
//!   is available offline);
//! * [`oracle`] — trace invariants ([`assert_trace!`]) the integration
//!   tests assert against, not just final state.
//!
//! Journals reach disk in one format only: `dce-trace`'s JSON journal
//! (`dce_trace::json`), which flight dumps embed and the `dce-trace`
//! bin reads and writes.
//!
//! Instrumentation contract: with the handle disabled (the default),
//! every emission is a single branch on an empty `Option` — no
//! allocation, no atomics, no locks — so hot paths keep their PR 2
//! numbers. Recorder and metrics state is *never* part of replicated
//! state: site digests and snapshots exclude it, so
//! `dce-check`'s state-space dedupe is unaffected by recording.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod handle;
pub mod metrics;
pub mod oracle;
pub mod record;

pub use event::{DeferReason, DocId, Event, EventKind, ReqId, SiteId};
pub use handle::{FailureHook, ObsHandle};
pub use metrics::{
    json_escape, Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsReport, HIST_BUCKETS,
};
pub use oracle::{summarize, TraceSummary, TraceViolation};
pub use record::{NoopRecorder, Recorder, RingRecorder};
