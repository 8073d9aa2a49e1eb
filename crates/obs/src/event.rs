//! The typed event taxonomy.
//!
//! Every event carries five coordinates:
//!
//! * `site` — the site observing the event (its user id, or the site
//!   index for network-layer events);
//! * `seq` — the per-site event sequence number, assigned at emission;
//! * `version` — the site's policy version at emission time (0 for
//!   network-layer events, which live below the policy);
//! * `lamport` — a process-wide logical timestamp: strictly increasing
//!   across every event a shared [`crate::ObsHandle`] records, so a
//!   journal merged from many sites still has a total order consistent
//!   with each site's local order;
//! * `at` — a timestamp from whatever time source the handle's owner
//!   installed: simulated-net milliseconds when a `SimNet` drives the
//!   clock, wall-clock nanoseconds since the handle's creation for the
//!   socket server and load generator, 0 when no source is installed. `dce-trace` uses it
//!   for per-phase latency attribution.
//!
//! The kinds mirror the protocol's observable transitions: the
//! cooperative-request lifecycle (generated → received → deferred? →
//! executed | denied | inert, possibly later undone), the administrative
//! total order (received → deferred? → applied), the validation
//! handshake (issued at the administrator, consumed at every site), and
//! the transport events the session layer repairs (retransmissions,
//! injected faults, partition heals, crash/rejoin).

use std::fmt;

/// Site identifier in an event (a `dce_policy::UserId`, or a site index
/// widened to `u32` for network-layer events).
pub type SiteId = u32;

/// Document (shard) identifier in an event. Mirrors
/// `dce_core::DocumentId` without depending on it — this crate sits
/// *below* the stack it instruments. `0` is the single-document default:
/// every handle not re-keyed with [`crate::ObsHandle::for_doc`] stamps it,
/// and journals written before events carried a document decode to it.
pub type DocId = u64;

/// A cooperative request identity: `(issuing site, per-site sequence)`.
/// Mirrors `dce_ot::RequestId` without depending on it — this crate sits
/// *below* the stack it instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId {
    /// Issuing site.
    pub site: u32,
    /// Position in the issuer's local generation order (1-based).
    pub seq: u64,
}

impl ReqId {
    /// Builds a request id.
    pub fn new(site: u32, seq: u64) -> Self {
        ReqId { site, seq }
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.site, self.seq)
    }
}

/// Why a request was parked instead of processed on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeferReason {
    /// Waiting for the local policy version to reach this value.
    MissingVersion(u64),
    /// Waiting for this request to be integrated first (a causal
    /// predecessor, or a validation's target).
    MissingRequest(ReqId),
}

impl fmt::Display for DeferReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeferReason::MissingVersion(v) => write!(f, "awaiting policy v{v}"),
            DeferReason::MissingRequest(id) => write!(f, "awaiting request {id}"),
        }
    }
}

/// What happened. See the module docs for the lifecycle each variant
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A cooperative request was generated (and executed) locally.
    ReqGenerated {
        /// The new request.
        id: ReqId,
    },
    /// A remote cooperative request was admitted into the reception
    /// queue (duplicates are reported as [`EventKind::ReqDuplicate`]).
    ReqReceived {
        /// The admitted request.
        id: ReqId,
    },
    /// A copy of an already-seen (processed or queued) request arrived.
    ReqDuplicate {
        /// The duplicated request.
        id: ReqId,
    },
    /// An admitted request was parked instead of processed.
    ReqDeferred {
        /// The parked request.
        id: ReqId,
        /// What it waits for.
        reason: DeferReason,
    },
    /// A cooperative request took effect on the local document.
    ReqExecuted {
        /// The executed request.
        id: ReqId,
    },
    /// A cooperative request integrated with no document effect (an
    /// ancestor was inert here); stored `Invalid`.
    ReqInert {
        /// The inert request.
        id: ReqId,
    },
    /// `Check_Remote` rejected a cooperative request against the
    /// administrative log.
    ReqDenied {
        /// The rejected request.
        id: ReqId,
    },
    /// Retroactive enforcement undid a tentative request.
    ReqUndone {
        /// The undone request.
        id: ReqId,
    },
    /// `Check_Local` refused to generate an operation (no request was
    /// created, so there is no id to carry).
    CheckLocalDenied {
        /// The refused user.
        user: u32,
    },
    /// A remote administrative request was admitted into the queue.
    AdminReceived {
        /// Its position in the version total order.
        version: u64,
    },
    /// An admitted administrative request was parked.
    AdminDeferred {
        /// Its version.
        version: u64,
        /// What it waits for.
        reason: DeferReason,
    },
    /// An administrative request was applied to the local policy copy
    /// (version bump + admin-log append). Emitted *before* any
    /// retroactive enforcement it triggers, so every
    /// [`EventKind::ReqUndone`] is preceded by its restrictive cause.
    AdminApplied {
        /// The version the local copy reached.
        version: u64,
        /// `true` when the operation narrows someone's rights.
        restrictive: bool,
    },
    /// The administrator issued a `Validate` request for a legal
    /// cooperative request.
    ValidationIssued {
        /// The validated cooperative request.
        id: ReqId,
        /// The version the validation occupies.
        version: u64,
    },
    /// A site applied a `Validate` request (version bump; a tentative
    /// target is promoted to valid). The administrator consumes its own
    /// validation at issue time, so at quiescence every surviving site
    /// counts as many consumptions as there were issues.
    ValidationConsumed {
        /// The validated cooperative request.
        id: ReqId,
        /// The validation's version.
        version: u64,
    },
    /// A request settled below the group-wide stability horizon and its
    /// log entry was reclaimed by compaction — the end of the request's
    /// lifecycle, and the root span's closing edge in `dce-trace`.
    ReqStable {
        /// The reclaimed request.
        id: ReqId,
    },
    /// The session layer retransmitted a data packet.
    StreamRetransmit {
        /// Sending site index.
        src: u32,
        /// Receiving site index.
        dest: u32,
        /// Stream sequence number of the resent packet.
        stream_seq: u64,
        /// The cooperative request the resent payload carries, when it
        /// carries one — correlates transport repairs to protocol spans.
        req: Option<ReqId>,
    },
    /// The fault plan dropped a payload leg.
    LegDropped {
        /// Sending site index.
        src: u32,
        /// Receiving site index.
        dest: u32,
    },
    /// The fault plan duplicated a payload leg.
    LegDuplicated {
        /// Sending site index.
        src: u32,
        /// Receiving site index.
        dest: u32,
    },
    /// A scheduled partition window ended.
    PartitionHealed {
        /// Simulated time (ms) the window closed.
        at_ms: u64,
    },
    /// A site crashed (process gone, local state lost).
    SiteCrashed {
        /// The crashed site index.
        site: u32,
    },
    /// A crashed site rejoined from a snapshot.
    SiteRejoined {
        /// The rejoined site index.
        site: u32,
    },
}

impl EventKind {
    /// The request id this event is about, if any.
    pub fn req_id(&self) -> Option<ReqId> {
        match self {
            EventKind::ReqGenerated { id }
            | EventKind::ReqReceived { id }
            | EventKind::ReqDuplicate { id }
            | EventKind::ReqDeferred { id, .. }
            | EventKind::ReqExecuted { id }
            | EventKind::ReqInert { id }
            | EventKind::ReqDenied { id }
            | EventKind::ReqUndone { id }
            | EventKind::ValidationIssued { id, .. }
            | EventKind::ValidationConsumed { id, .. }
            | EventKind::ReqStable { id } => Some(*id),
            EventKind::StreamRetransmit { req, .. } => *req,
            _ => None,
        }
    }

    /// Whether this event belongs to the transport layer (emitted by the
    /// network simulation, below the policy). Transport events don't make
    /// their observer a protocol participant — the validation-balance
    /// oracle skips sites that only ever appear here.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            EventKind::StreamRetransmit { .. }
                | EventKind::LegDropped { .. }
                | EventKind::LegDuplicated { .. }
                | EventKind::PartitionHealed { .. }
                | EventKind::SiteCrashed { .. }
                | EventKind::SiteRejoined { .. }
        )
    }

    /// Short stable name, used as the derived-counter key in the metrics
    /// registry and in the timeline output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ReqGenerated { .. } => "req_generated",
            EventKind::ReqReceived { .. } => "req_received",
            EventKind::ReqDuplicate { .. } => "req_duplicate",
            EventKind::ReqDeferred { .. } => "req_deferred",
            EventKind::ReqExecuted { .. } => "req_executed",
            EventKind::ReqInert { .. } => "req_inert",
            EventKind::ReqDenied { .. } => "req_denied",
            EventKind::ReqUndone { .. } => "req_undone",
            EventKind::CheckLocalDenied { .. } => "check_local_denied",
            EventKind::AdminReceived { .. } => "admin_received",
            EventKind::AdminDeferred { .. } => "admin_deferred",
            EventKind::AdminApplied { .. } => "admin_applied",
            EventKind::ValidationIssued { .. } => "validation_issued",
            EventKind::ValidationConsumed { .. } => "validation_consumed",
            EventKind::ReqStable { .. } => "req_stable",
            EventKind::StreamRetransmit { .. } => "stream_retransmit",
            EventKind::LegDropped { .. } => "leg_dropped",
            EventKind::LegDuplicated { .. } => "leg_duplicated",
            EventKind::PartitionHealed { .. } => "partition_healed",
            EventKind::SiteCrashed { .. } => "site_crashed",
            EventKind::SiteRejoined { .. } => "site_rejoined",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::ReqGenerated { id } => write!(f, "generated {id}"),
            EventKind::ReqReceived { id } => write!(f, "received {id}"),
            EventKind::ReqDuplicate { id } => write!(f, "duplicate of {id}"),
            EventKind::ReqDeferred { id, reason } => write!(f, "deferred {id} ({reason})"),
            EventKind::ReqExecuted { id } => write!(f, "executed {id}"),
            EventKind::ReqInert { id } => write!(f, "stored {id} inert"),
            EventKind::ReqDenied { id } => write!(f, "denied {id} (Check_Remote)"),
            EventKind::ReqUndone { id } => write!(f, "undone {id} (retroactive enforcement)"),
            EventKind::CheckLocalDenied { user } => write!(f, "Check_Local denied user {user}"),
            EventKind::AdminReceived { version } => write!(f, "received admin v{version}"),
            EventKind::AdminDeferred { version, reason } => {
                write!(f, "deferred admin v{version} ({reason})")
            }
            EventKind::AdminApplied { version, restrictive } => {
                write!(
                    f,
                    "applied admin v{version}{}",
                    if *restrictive { " (restrictive)" } else { "" }
                )
            }
            EventKind::ValidationIssued { id, version } => {
                write!(f, "issued validation of {id} as v{version}")
            }
            EventKind::ValidationConsumed { id, version } => {
                write!(f, "consumed validation of {id} (v{version})")
            }
            EventKind::ReqStable { id } => write!(f, "compacted {id} (stable)"),
            EventKind::StreamRetransmit { src, dest, stream_seq, req } => {
                write!(f, "retransmit {src}→{dest} seq {stream_seq}")?;
                match req {
                    Some(id) => write!(f, " (carrying {id})"),
                    None => Ok(()),
                }
            }
            EventKind::LegDropped { src, dest } => write!(f, "leg dropped {src}→{dest}"),
            EventKind::LegDuplicated { src, dest } => write!(f, "leg duplicated {src}→{dest}"),
            EventKind::PartitionHealed { at_ms } => write!(f, "partition healed at {at_ms}ms"),
            EventKind::SiteCrashed { site } => write!(f, "site {site} crashed"),
            EventKind::SiteRejoined { site } => write!(f, "site {site} rejoined"),
        }
    }
}

/// One journal entry: an [`EventKind`] stamped with its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Observing site.
    pub site: SiteId,
    /// The document (shard) the event belongs to (`0` = the
    /// single-document default; see [`DocId`]).
    pub doc: DocId,
    /// Per-site emission sequence number (1-based).
    pub seq: u64,
    /// The site's policy version when the event was emitted.
    pub version: u64,
    /// Process-wide logical timestamp (total order over the journal).
    pub lamport: u64,
    /// Timestamp from the handle's installed time source (simulated-net
    /// ms, or wall-clock ns for threaded runs; 0 when none is installed).
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.doc != 0 {
            write!(
                f,
                "[{:>6}] doc{} site {} (v{}) {}",
                self.lamport, self.doc, self.site, self.version, self.kind
            )
        } else {
            write!(f, "[{:>6}] site {} (v{}) {}", self.lamport, self.site, self.version, self.kind)
        }
    }
}
