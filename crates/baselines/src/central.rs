//! Central-server access control — the latency strawman of §1.
//!
//! "The major problem of latency in access control-based collaborative
//! editors is due to using one shared data-structure containing access
//! rights that is stored on a central server. So controlling access
//! consists in locking this data-structure and verifying whether this
//! access is valid."
//!
//! [`CentralServer`] is exactly that: the single policy copy behind a
//! mutex. [`CentralClient`] models a user whose every edit must first be
//! authorized by the server, paying `rtt_ms` of network latency per check
//! (simulated time, accumulated — the benchmark compares it against the
//! paper's replicated checks, which cost zero round trips).

use dce_document::{Document, Element, Op};
use dce_policy::{Action, Decision, Policy, UserId};
use std::sync::{Arc, Mutex};

/// The central authorization server: one policy, one lock.
#[derive(Debug)]
pub struct CentralServer {
    policy: Mutex<Policy>,
    checks: Mutex<u64>,
}

impl CentralServer {
    /// Creates the server around an initial policy.
    pub fn new(policy: Policy) -> Arc<Self> {
        Arc::new(CentralServer { policy: Mutex::new(policy), checks: Mutex::new(0) })
    }

    /// Serialized authorization check (the lock is the bottleneck the
    /// paper describes).
    pub fn authorize(&self, user: UserId, action: &Action) -> Decision {
        let guard = self.policy.lock().expect("policy lock");
        *self.checks.lock().expect("checks lock") += 1;
        guard.check(user, action)
    }

    /// Mutates the central policy (the administrator's console).
    pub fn update_policy(&self, f: impl FnOnce(&mut Policy)) {
        f(&mut self.policy.lock().expect("policy lock"));
    }

    /// Number of authorization checks served.
    pub fn checks_served(&self) -> u64 {
        *self.checks.lock().expect("checks lock")
    }
}

/// A client editing through the central server.
#[derive(Debug, Clone)]
pub struct CentralClient<E> {
    user: UserId,
    doc: Document<E>,
    server: Arc<CentralServer>,
    rtt_ms: u64,
    /// Accumulated simulated latency spent waiting on authorization.
    pub waited_ms: u64,
    /// Edits denied by the server.
    pub denied: u64,
}

impl<E: Element> CentralClient<E> {
    /// Creates a client for `user` with the given round-trip time to the
    /// server.
    pub fn new(user: UserId, d0: Document<E>, server: Arc<CentralServer>, rtt_ms: u64) -> Self {
        CentralClient { user, doc: d0, server, rtt_ms, waited_ms: 0, denied: 0 }
    }

    /// The local replica.
    pub fn document(&self) -> &Document<E> {
        &self.doc
    }

    /// Attempts an edit: pays one round trip, then applies locally if the
    /// server granted it. Returns whether it was applied.
    pub fn edit(&mut self, op: Op<E>) -> bool {
        if let Some(action) = Action::for_op(&op) {
            self.waited_ms += self.rtt_ms;
            if !self.server.authorize(self.user, &action).granted() {
                self.denied += 1;
                return false;
            }
        }
        op.apply(&mut self.doc).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};
    use dce_policy::{Authorization, DocObject, Right, Sign, Subject};

    #[test]
    fn every_edit_pays_a_round_trip() {
        let server = CentralServer::new(Policy::permissive([1]));
        let mut c: CentralClient<Char> =
            CentralClient::new(1, CharDocument::from_str("abc"), server.clone(), 50);
        assert!(c.edit(Op::ins(1, 'x')));
        assert!(c.edit(Op::del(2, 'a')));
        assert_eq!(c.waited_ms, 100);
        assert_eq!(server.checks_served(), 2);
        assert_eq!(c.document().to_string(), "xbc");
    }

    #[test]
    fn server_side_revocation_applies_immediately() {
        let server = CentralServer::new(Policy::permissive([1]));
        let mut c: CentralClient<Char> =
            CentralClient::new(1, CharDocument::from_str("abc"), server.clone(), 10);
        server.update_policy(|p| {
            p.add_auth_at(
                0,
                Authorization::new(
                    Subject::User(1),
                    DocObject::Document,
                    [Right::Insert],
                    Sign::Minus,
                ),
            )
            .unwrap();
        });
        assert!(!c.edit(Op::ins(1, 'x')));
        assert_eq!(c.denied, 1);
        assert_eq!(c.document().to_string(), "abc");
    }
}
