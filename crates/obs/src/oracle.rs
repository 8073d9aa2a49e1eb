//! Trace oracles: temporal invariants over a recorded journal.
//!
//! Final-state assertions can pass while a run takes a forbidden
//! intermediate path; these checks inspect the path itself, in the
//! spirit of model-checking executions as event sequences:
//!
//! 1. **No execute after deny** — once a site's `Check_Remote` denies a
//!    request, that site never executes it (denial is final; a denied
//!    request is integrated inert).
//! 2. **Undo follows restriction** — retroactive undo only ever happens
//!    as a consequence of applying a *restrictive* administrative
//!    operation, so every `ReqUndone` at a site must be preceded (in
//!    that site's local order) by a restrictive `AdminApplied`.
//! 3. **Validation balance** — at quiescence, every surviving site has
//!    consumed exactly the validations the administrator issued (sites
//!    that crashed or rejoined mid-run are exempt: their journal has a
//!    hole where the snapshot transfer stands in for replay).
//!
//! Use [`check_all`] (or the [`assert_trace!`](crate::assert_trace) macro) after driving a
//! scenario to quiescence.

use crate::event::{Event, EventKind, ReqId, SiteId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One violated invariant, with enough context to debug from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceViolation {
    /// Which check failed (stable name).
    pub check: &'static str,
    /// The site whose local order violated it.
    pub site: SiteId,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] site {}: {}", self.check, self.site, self.detail)
    }
}

/// Oracle 1: no `ReqExecuted` after `ReqDenied` for the same id at the
/// same site.
pub fn no_execute_after_deny(events: &[Event]) -> Vec<TraceViolation> {
    let mut denied: HashSet<(SiteId, ReqId)> = HashSet::new();
    let mut out = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::ReqDenied { id } => {
                denied.insert((ev.site, id));
            }
            EventKind::ReqExecuted { id } if denied.contains(&(ev.site, id)) => {
                out.push(TraceViolation {
                    check: "no_execute_after_deny",
                    site: ev.site,
                    detail: format!("executed {id} after denying it (lamport {})", ev.lamport),
                });
            }
            _ => {}
        }
    }
    out
}

/// Oracle 2: every `ReqUndone` at a site is preceded, in that site's
/// local order, by a restrictive `AdminApplied`.
pub fn undo_follows_restriction(events: &[Event]) -> Vec<TraceViolation> {
    let mut restricted: HashSet<SiteId> = HashSet::new();
    let mut out = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::AdminApplied { restrictive: true, .. } => {
                restricted.insert(ev.site);
            }
            EventKind::ReqUndone { id } if !restricted.contains(&ev.site) => {
                out.push(TraceViolation {
                    check: "undo_follows_restriction",
                    site: ev.site,
                    detail: format!(
                        "undid {id} with no prior restrictive admin (lamport {})",
                        ev.lamport
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Oracle 3: at quiescence, `ValidationConsumed` count at every
/// surviving site equals the total `ValidationIssued` count. Sites with
/// a `SiteCrashed`/`SiteRejoined` event are exempt (snapshot transfer
/// replaces replay for them); runs whose journal overflowed should not
/// use this check.
pub fn validation_balance(events: &[Event]) -> Vec<TraceViolation> {
    let mut issued = 0u64;
    let mut consumed: HashMap<SiteId, u64> = HashMap::new();
    let mut sites: HashSet<SiteId> = HashSet::new();
    let mut exempt: HashSet<SiteId> = HashSet::new();
    for ev in events {
        if !ev.kind.is_transport() {
            sites.insert(ev.site);
        }
        match ev.kind {
            EventKind::ValidationIssued { .. } => issued += 1,
            EventKind::ValidationConsumed { .. } => *consumed.entry(ev.site).or_insert(0) += 1,
            EventKind::SiteCrashed { site } | EventKind::SiteRejoined { site } => {
                exempt.insert(site);
            }
            _ => {}
        }
    }
    if issued == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &site in &sites {
        if exempt.contains(&site) {
            continue;
        }
        let got = consumed.get(&site).copied().unwrap_or(0);
        if got != issued {
            out.push(TraceViolation {
                check: "validation_balance",
                site,
                detail: format!("consumed {got} validations, administrator issued {issued}"),
            });
        }
    }
    out
}

/// Runs every oracle and returns all violations.
pub fn check_all(events: &[Event]) -> Vec<TraceViolation> {
    let mut out = no_execute_after_deny(events);
    out.extend(undo_follows_restriction(events));
    out.extend(validation_balance(events));
    out
}

/// Per-site event counts, for conservation-style ledger checks
/// (`executed == generated_total − denied − inert`, etc.).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-site count of each event kind, keyed by site then
    /// [`EventKind::name`].
    pub per_site: BTreeMap<SiteId, BTreeMap<&'static str, u64>>,
}

impl TraceSummary {
    /// Count of `kind` events at `site` (0 when absent).
    pub fn count(&self, site: SiteId, kind: &str) -> u64 {
        self.per_site.get(&site).and_then(|m| m.get(kind)).copied().unwrap_or(0)
    }

    /// Total count of `kind` events across all sites.
    pub fn total(&self, kind: &str) -> u64 {
        self.per_site.values().filter_map(|m| m.get(kind)).sum()
    }

    /// All sites that emitted at least one event.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.per_site.keys().copied()
    }
}

/// Tallies a journal into per-site, per-kind counts.
pub fn summarize(events: &[Event]) -> TraceSummary {
    let mut per_site: BTreeMap<SiteId, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for ev in events {
        *per_site.entry(ev.site).or_default().entry(ev.kind.name()).or_insert(0) += 1;
    }
    TraceSummary { per_site }
}

/// Asserts trace invariants over a journal, panicking with every
/// violation (and the trailing journal) on failure.
///
/// * `assert_trace!(events)` runs all oracles;
/// * `assert_trace!(events, check)` runs one (any
///   `fn(&[Event]) -> Vec<TraceViolation>`, e.g.
///   [`no_execute_after_deny`]).
#[macro_export]
macro_rules! assert_trace {
    ($events:expr) => {
        $crate::assert_trace!($events, $crate::oracle::check_all)
    };
    ($events:expr, $check:expr) => {{
        let events: &[$crate::Event] = &$events;
        let violations = $check(events);
        if !violations.is_empty() {
            let mut msg = String::from("trace oracle violated:\n");
            for v in &violations {
                msg.push_str(&format!("  {v}\n"));
            }
            msg.push_str("trailing journal:\n");
            for ev in events.iter().rev().take(20).collect::<Vec<_>>().into_iter().rev() {
                msg.push_str(&format!("  {ev}\n"));
            }
            panic!("{msg}");
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReqId;

    fn ev(site: SiteId, lamport: u64, kind: EventKind) -> Event {
        Event { site, doc: 0, seq: lamport, version: 0, lamport, at: 0, kind }
    }

    #[test]
    fn deny_then_execute_flagged() {
        let id = ReqId::new(1, 1);
        let trace =
            vec![ev(2, 1, EventKind::ReqDenied { id }), ev(2, 2, EventKind::ReqExecuted { id })];
        let v = no_execute_after_deny(&trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "no_execute_after_deny");
        // Other sites executing the same id is fine.
        let ok =
            vec![ev(2, 1, EventKind::ReqDenied { id }), ev(3, 2, EventKind::ReqExecuted { id })];
        assert!(no_execute_after_deny(&ok).is_empty());
    }

    #[test]
    fn bare_undo_flagged() {
        let id = ReqId::new(1, 1);
        let bad = vec![ev(2, 1, EventKind::ReqUndone { id })];
        assert_eq!(undo_follows_restriction(&bad).len(), 1);
        let good = vec![
            ev(2, 1, EventKind::AdminApplied { version: 1, restrictive: true }),
            ev(2, 2, EventKind::ReqUndone { id }),
        ];
        assert!(undo_follows_restriction(&good).is_empty());
        // A restriction at a *different* site does not excuse the undo.
        let other_site = vec![
            ev(3, 1, EventKind::AdminApplied { version: 1, restrictive: true }),
            ev(2, 2, EventKind::ReqUndone { id }),
        ];
        assert_eq!(undo_follows_restriction(&other_site).len(), 1);
    }

    #[test]
    fn validation_imbalance_flagged() {
        let id = ReqId::new(1, 1);
        let trace = vec![
            ev(0, 1, EventKind::ValidationIssued { id, version: 1 }),
            ev(0, 2, EventKind::ValidationConsumed { id, version: 1 }),
            ev(1, 3, EventKind::ValidationConsumed { id, version: 1 }),
            ev(2, 4, EventKind::ReqReceived { id }),
        ];
        let v = validation_balance(&trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].site, 2);
    }

    #[test]
    fn crashed_site_exempt_from_balance() {
        let id = ReqId::new(1, 1);
        let trace = vec![
            ev(0, 1, EventKind::ValidationIssued { id, version: 1 }),
            ev(0, 2, EventKind::ValidationConsumed { id, version: 1 }),
            ev(9, 3, EventKind::SiteCrashed { site: 2 }),
            ev(2, 4, EventKind::ReqReceived { id }),
        ];
        assert!(validation_balance(&trace).is_empty());
    }

    #[test]
    fn summary_counts() {
        let id = ReqId::new(1, 1);
        let trace = vec![
            ev(1, 1, EventKind::ReqGenerated { id }),
            ev(2, 2, EventKind::ReqExecuted { id }),
            ev(2, 3, EventKind::ReqExecuted { id: ReqId::new(1, 2) }),
        ];
        let s = summarize(&trace);
        assert_eq!(s.count(1, "req_generated"), 1);
        assert_eq!(s.count(2, "req_executed"), 2);
        assert_eq!(s.count(2, "req_denied"), 0);
        assert_eq!(s.total("req_executed"), 2);
        assert_eq!(s.sites().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn assert_trace_passes_clean_run() {
        let id = ReqId::new(1, 1);
        let trace =
            vec![ev(1, 1, EventKind::ReqGenerated { id }), ev(2, 2, EventKind::ReqExecuted { id })];
        crate::assert_trace!(trace);
        crate::assert_trace!(trace, no_execute_after_deny);
    }

    #[test]
    #[should_panic(expected = "trace oracle violated")]
    fn assert_trace_panics_on_violation() {
        let id = ReqId::new(1, 1);
        let trace = vec![ev(2, 1, EventKind::ReqUndone { id })];
        crate::assert_trace!(trace);
    }
}
