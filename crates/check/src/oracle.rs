//! Invariant oracles, evaluated at every quiescent state the explorer
//! reaches (and at the end of every replayed schedule).

use crate::runner::Runner;
use dce_core::{Flag, Site};
use dce_document::Char;
use dce_ot::RequestId;
use dce_policy::{Action, AdminOp};
use std::collections::HashMap;
use std::fmt;

/// A property violation — the payload of a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two sites disagree on a piece of replicated state at quiescence.
    Divergence {
        /// First site index.
        left: usize,
        /// Second site index.
        right: usize,
        /// Which component diverged, with both values.
        what: String,
    },
    /// A request flagged `Invalid` still has a document effect.
    InvalidEffect {
        /// The offending site.
        site: usize,
        /// The request.
        id: RequestId,
    },
    /// A request the final policy forbids — and that was never validated —
    /// still has a document effect (the §4.2 security property).
    SecurityLeak {
        /// The offending site.
        site: usize,
        /// The request.
        id: RequestId,
        /// The denied action and the flag the request ended with.
        detail: String,
    },
    /// A request the administrator validated did not end `Valid`
    /// everywhere (the Fig. 4 legality property).
    ValidationLost {
        /// The offending site.
        site: usize,
        /// The validated request.
        id: RequestId,
        /// The flag it actually holds there.
        flag: Option<Flag>,
    },
    /// Strictly replaying the schedule did not reproduce a site's state
    /// bit for bit.
    Nondeterminism {
        /// The site whose digest changed.
        site: usize,
    },
    /// A transition returned a protocol error the explorer considers
    /// impossible under correct operation.
    ProtocolError {
        /// The error text.
        detail: String,
    },
    /// A transition panicked.
    Panic {
        /// The panic message.
        detail: String,
    },
}

impl Violation {
    /// Coarse class of the violation — the shrink loop only keeps a
    /// reduction when the reduced schedule fails in the *same* class.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Divergence { .. } => "divergence",
            Violation::InvalidEffect { .. } => "invalid-effect",
            Violation::SecurityLeak { .. } => "security-leak",
            Violation::ValidationLost { .. } => "validation-lost",
            Violation::Nondeterminism { .. } => "nondeterminism",
            Violation::ProtocolError { .. } => "protocol-error",
            Violation::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Divergence { left, right, what } => {
                write!(f, "divergence between sites {left} and {right}: {what}")
            }
            Violation::InvalidEffect { site, id } => {
                write!(f, "invalid request {id} still has a document effect at site {site}")
            }
            Violation::SecurityLeak { site, id, detail } => {
                write!(f, "forbidden request {id} survives at site {site}: {detail}")
            }
            Violation::ValidationLost { site, id, flag } => {
                write!(f, "validated request {id} ended {flag:?} at site {site}")
            }
            Violation::Nondeterminism { site } => {
                write!(f, "replaying the schedule did not reproduce site {site}")
            }
            Violation::ProtocolError { detail } => write!(f, "protocol error: {detail}"),
            Violation::Panic { detail } => write!(f, "panic: {detail}"),
        }
    }
}

/// Runs every quiescent-state oracle. `None` = all properties hold.
pub(crate) fn check_quiescent(runner: &Runner) -> Option<Violation> {
    debug_assert!(runner.is_quiescent());
    let sites = runner.net.sites();
    convergence(sites, runner.scenario.compact)
        .or_else(|| per_site(sites))
        .or_else(|| legality(sites))
}

/// Oracle 1 — convergence: documents, policies, administrative logs and
/// flag tables must be identical across sites. Without compaction full
/// flag-table equality is required; a compacting scenario prunes settled
/// rows at different moments per site, so there the flag tables must
/// agree on their behavioural digest (settled fold plus tentative rows).
fn convergence(sites: &[Site<Char>], compact: bool) -> Option<Violation> {
    let diverged =
        |right: usize, what: String| Some(Violation::Divergence { left: 0, right, what });
    for (i, s) in sites.iter().enumerate().skip(1) {
        let (a, b) = (&sites[0], s);
        if a.document() != b.document() {
            return diverged(
                i,
                format!(
                    "document {:?} vs {:?}",
                    a.document().to_string(),
                    b.document().to_string()
                ),
            );
        }
        if a.version() != b.version() {
            return diverged(i, format!("policy version {} vs {}", a.version(), b.version()));
        }
        if a.policy() != b.policy() {
            return diverged(i, format!("policy {} vs {}", a.policy(), b.policy()));
        }
        if a.admin_log() != b.admin_log() {
            return diverged(
                i,
                format!("admin log {} vs {} entries", a.admin_log().len(), b.admin_log().len()),
            );
        }
        let fa: HashMap<RequestId, Flag> = a.flags().collect();
        let fb: HashMap<RequestId, Flag> = b.flags().collect();
        let differ = if compact {
            a.replica_digest_parts()[3] != b.replica_digest_parts()[3]
        } else {
            fa != fb
        };
        if differ {
            return diverged(i, format!("flags {fa:?} vs {fb:?}"));
        }
    }
    None
}

/// Oracles 2 and 3 — per-site security: nothing `Invalid` has a document
/// effect, and no request the *final* policy forbids (and that the
/// administrator never validated) has one either.
fn per_site(sites: &[Site<Char>]) -> Option<Violation> {
    for (i, site) in sites.iter().enumerate() {
        let admin: dce_policy::UserId = 0;
        for entry in site.engine().log().iter() {
            let flag = site.flag_of(entry.id);
            if flag == Some(Flag::Invalid) && !entry.inert {
                return Some(Violation::InvalidEffect { site: i, id: entry.id });
            }
            let user = entry.id.site;
            if user == admin || flag == Some(Flag::Valid) {
                continue;
            }
            if let Some(action) = Action::for_op(&entry.base) {
                if !site.policy().check(user, &action).granted() && !entry.inert {
                    return Some(Violation::SecurityLeak {
                        site: i,
                        id: entry.id,
                        detail: format!("final policy denies {action}, flag {flag:?}"),
                    });
                }
            }
        }
    }
    None
}

/// Oracle 4 — legality (Fig. 4): every request the administrator
/// validated ends `Valid` at every site. At quiescence the administrative
/// logs agree (convergence runs first), so site 0's log lists every
/// validation ever issued (those compaction kept: it drops
/// non-restrictive entries). A compacted request's fate is judged by
/// [`Site::fate`].
fn legality(sites: &[Site<Char>]) -> Option<Violation> {
    for r in sites[0].admin_log().iter() {
        if let AdminOp::Validate { site, seq } = r.op {
            let id = RequestId::new(site, seq);
            for (i, s) in sites.iter().enumerate() {
                let flag = s.fate(id);
                if flag != Some(Flag::Valid) {
                    return Some(Violation::ValidationLost { site: i, id, flag });
                }
            }
        }
    }
    None
}
