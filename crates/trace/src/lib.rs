//! `dce-trace` — cross-site causal trace correlation for the
//! collaborative-editing stack.
//!
//! `dce-obs` gives every site a journal of typed events; this crate
//! turns those journals into explanations:
//!
//! * [`merge`] reconstructs the global **happens-before DAG** from
//!   per-site journals — program order plus cross-site delivery,
//!   validation and administrative edges, keyed by request identity,
//!   with lamport stamps kept aside as an independent cross-check;
//! * [`span`] rolls the DAG up into **request spans** (one root per
//!   cooperative request, one child per remote site) and derives
//!   latency metrics — convergence lag, defer-queue residency,
//!   validation round trip, retransmit amplification — back into a
//!   `dce-obs` metrics registry;
//! * [`flight`] is the **failure flight recorder**: armed on an
//!   `ObsHandle`, it dumps the merged trace, span report and metrics
//!   snapshot to `results/flight-<seed>.json` the moment an oracle
//!   reports divergence, so failed chaos runs leave replayable
//!   evidence behind;
//! * [`render`] draws span trees and per-site swimlanes as text or
//!   SVG; [`json`] is the journal's one on-disk format, written and read
//!   by hand (no JSON dependency is available offline) for the dumps and
//!   the `dce-trace` bin's `--save`/`--events`.
//!
//! Like `dce-obs`, this crate depends on nothing above it in the
//! stack — it consumes `Event`s and can therefore post-mortem any
//! runner: the simulated network, the socket server and its clients,
//! or dce-check's schedule explorer.

pub mod flight;
pub mod json;
pub mod merge;
pub mod render;
pub mod span;

pub use flight::{arm, flight_path, read_flight, write_flight, FlightDump};
pub use merge::{merge_events, merge_journals, Edge, EdgeKind, MergedTrace};
pub use span::{build_spans, publish, Moment, Outcome, RemoteSpan, RequestSpan, SpanReport};
