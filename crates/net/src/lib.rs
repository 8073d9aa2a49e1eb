//! # dce-net — deterministic simulated P2P broadcast network
//!
//! The paper deploys its prototype on the JXTA P2P platform (§6, Fig. 6).
//! For a reproducible laboratory we replace the live network with
//! simulated substrates that exercise the same code paths, next to the
//! codec a real socket deployment ships:
//!
//! * [`sim`] — a deterministic discrete-event simulator: seeded RNG,
//!   configurable per-message latency, optional reordering, dynamic
//!   membership (snapshot join, leave, crash and rejoin). Every leg is an
//!   encoded [`frame`] on a [`reliable`] stream, the transport
//!   `dce-server` runs. Every Fig. 2–5 race of the paper can be
//!   reproduced *exactly*, and randomized schedules explore far more
//!   interleavings than a LAN ever would.
//! * [`fault`] — the chaos transport: seeded fault plans injecting drops,
//!   duplication, reordering and scheduled partitions into [`sim`] runs.
//! * [`reliable`] — the acknowledged session layer (sequence numbers,
//!   cumulative acks, timeout-driven retransmission with capped
//!   exponential backoff) that restores eventual delivery over a lossy
//!   chaos transport; always on in [`sim`] and in `dce-server`.
//! * [`scripted`] — the driver-scripted transport: an external chooser
//!   (the `dce-check` explorer, a pinned regression schedule) delivers
//!   exactly one selected in-flight message per step. The substrate of
//!   exhaustive schedule-space exploration.
//! * [`wire`] — the binary wire codec a real deployment would ship
//!   messages with (length-explicit, versioned, zero-reflection).
//! * [`frame`] — length-prefixed framing over undelimited byte streams
//!   (TCP): the wire codec plus handshake/ack/control frames, with an
//!   incremental decoder that survives split and concatenated reads.
//! * [`snapshot`] — wire-encodable full-replica snapshots, the state
//!   transfer a joining participant bootstraps from.
//!
//! ```
//! use dce_net::sim::{Latency, SimNet};
//! use dce_document::{CharDocument, Op};
//! use dce_policy::Policy;
//!
//! let mut net = SimNet::group(3, CharDocument::from_str("abc"),
//!                             Policy::permissive([0, 1, 2]), 42, Latency::Uniform(5, 50));
//! net.submit_coop(1, Op::ins(1, 'x')).unwrap();
//! net.submit_coop(2, Op::del(3, 'c')).unwrap();
//! net.run_to_quiescence();
//! assert!(net.converged());
//! assert_eq!(net.site(0).document().to_string(), "xab");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod reliable;
pub mod scripted;
pub mod sim;
pub mod snapshot;
pub mod wire;

pub use fault::{FaultPlan, FaultStats, LegFate, Partition};
pub use frame::{encode_frame, Frame, FrameDecoder, MAX_FRAME_LEN};
pub use reliable::{Endpoint, Packet, ReliableConfig};
pub use scripted::{Flight, ScriptedNet};
pub use sim::{Latency, SimNet, SimStats};
pub use snapshot::{decode_snapshot, encode_snapshot, transfer};
pub use wire::{decode_message, encode_message, WireElement, WireError, MAX_DOC_ID};
