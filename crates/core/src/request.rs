//! Cooperative requests, flags and wire messages (paper §5.1).

use dce_ot::engine::BroadcastRequest;
use dce_ot::ids::Clock;
use dce_policy::{AdminOp, AdminRequest, PolicyVersion, UserId};
use std::fmt;

/// The lifecycle flag `q.f` of a cooperative request (paper §5.1):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flag {
    /// Locally accepted, awaiting the administrator's validation. Only
    /// tentative requests can be retroactively undone.
    Tentative,
    /// Confirmed — issued by the administrator, or validated by a
    /// `Validate` administrative request.
    Valid,
    /// Rejected by `Check_Remote`: stored in the log with no document
    /// effect (like `q3*` in the paper's Fig. 5).
    Invalid,
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flag::Tentative => "tentative",
            Flag::Valid => "valid",
            Flag::Invalid => "invalid",
        })
    }
}

/// A cooperative request on the wire: the tuple `(c, r, a, o, v, f)` of
/// §5.1 — identity, dependency and operation live in the embedded OT
/// [`BroadcastRequest`]; `v` is the policy version the issuing site checked
/// the operation against; the initial flag is implied by the issuer (valid
/// for the administrator, tentative otherwise).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoopRequest<E> {
    /// The OT-layer request (identity `c`+`r`, dependency `a`, operation
    /// `o`, causal context).
    pub ot: BroadcastRequest<E>,
    /// Policy version at generation (`q.v`).
    pub v: PolicyVersion,
}

impl<E> CoopRequest<E> {
    /// The issuing user (= issuing site, one user per site).
    pub fn user(&self) -> UserId {
        self.ot.id.site
    }
}

/// A delegated administrative proposal: a user holding a delegation asks
/// the administrator to issue `op` on their behalf. The administrator
/// re-checks the delegation and sequences the operation, preserving the
/// total order on administrative requests (§7 future work, realised).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdminProposal {
    /// The proposing user.
    pub from: UserId,
    /// The proposed administrative operation.
    pub op: AdminOp,
}

/// A message on the group channel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Message<E> {
    /// A cooperative request (document edit).
    Coop(CoopRequest<E>),
    /// An administrative request (policy mutation or validation).
    Admin(AdminRequest),
    /// A delegated administrative proposal, addressed to the administrator
    /// (other sites ignore it).
    Proposal(AdminProposal),
    /// A gossip heartbeat: the sender's causal clock. Drives the
    /// garbage-collection stability horizon (every site learns how far the
    /// whole group has acknowledged, and compacts the settled log prefix).
    Heartbeat {
        /// The reporting user.
        from: UserId,
        /// Their clock at send time.
        clock: Clock,
    },
}

impl<E> Message<E> {
    /// Short human-readable tag for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Coop(_) => "coop",
            Message::Admin(_) => "admin",
            Message::Proposal(_) => "proposal",
            Message::Heartbeat { .. } => "heartbeat",
        }
    }

    /// The observability coordinates of the cooperative request this
    /// message carries, if it carries one. Lets the transport layer
    /// correlate retransmissions (and other per-packet events) with the
    /// protocol-level spans `dce-trace` builds.
    pub fn coop_req_id(&self) -> Option<dce_obs::ReqId> {
        match self {
            Message::Coop(q) => Some(dce_obs::ReqId::new(q.ot.id.site, q.ot.id.seq)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_displays() {
        assert_eq!(Flag::Tentative.to_string(), "tentative");
        assert_eq!(Flag::Valid.to_string(), "valid");
        assert_eq!(Flag::Invalid.to_string(), "invalid");
    }
}
