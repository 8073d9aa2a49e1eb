//! Security auditing: what happened to every request at this site.
//!
//! An access-control system is only administrable if the administrator can
//! answer "who tried what, and what did we do about it?". This module
//! derives that answer from the state a [`Site`] already
//! keeps — the cooperative log, the flags, and the denial/undo records —
//! without any additional bookkeeping on the hot path.

use crate::request::Flag;
use crate::site::Site;
use dce_document::{Element, OpKind};
use dce_ot::{EngineMetrics, RequestId};
use dce_policy::UserId;
use std::fmt;

/// The audited fate of one cooperative request at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Request identity.
    pub id: RequestId,
    /// The user who issued it.
    pub user: UserId,
    /// The kind of operation it carried (from its broadcast form).
    pub kind: OpKind,
    /// Its current flag at this site.
    pub flag: Flag,
    /// `true` when the request currently has no document effect here.
    pub inert: bool,
    /// `true` when this site rejected it on arrival (`Check_Remote`).
    pub denied_here: bool,
    /// `true` when this site retroactively undid it.
    pub undone_here: bool,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by s{}: {} — {}", self.id, self.user, self.kind, self.flag)?;
        if self.denied_here {
            write!(f, " (denied on arrival)")?;
        }
        if self.undone_here {
            write!(f, " (retroactively undone)")?;
        }
        Ok(())
    }
}

/// Aggregate counters for one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteMetrics {
    /// Requests recorded in the cooperative log (live + inert), plus any
    /// compacted away.
    pub total_requests: usize,
    /// Requests currently valid.
    pub valid: usize,
    /// Requests still awaiting validation.
    pub tentative: usize,
    /// Requests invalid (rejected or undone).
    pub invalid: usize,
    /// Requests this site rejected on arrival.
    pub denied_here: usize,
    /// Requests this site retroactively undid.
    pub undone_here: usize,
    /// Log entries reclaimed by compaction.
    pub compacted: usize,
    /// OT-layer work counters.
    pub engine: EngineMetrics,
}

/// Builds the audit trail of `site`, one record per request still in the
/// log, in log order.
pub fn audit<E: Element>(site: &Site<E>) -> Vec<AuditRecord> {
    site.engine()
        .log()
        .iter()
        .map(|entry| AuditRecord {
            id: entry.id,
            user: entry.id.site,
            kind: entry.base.kind(),
            flag: site.flag_of(entry.id).unwrap_or(Flag::Tentative),
            inert: entry.inert,
            denied_here: site.denials().contains(&entry.id),
            undone_here: site.undone().contains(&entry.id),
        })
        .collect()
}

/// Aggregates `site`'s counters.
pub fn metrics<E: Element>(site: &Site<E>) -> SiteMetrics {
    let records = audit(site);
    SiteMetrics {
        total_requests: records.len() + site.engine().pruned_count(),
        valid: records.iter().filter(|r| r.flag == Flag::Valid).count(),
        tentative: records.iter().filter(|r| r.flag == Flag::Tentative).count(),
        invalid: records.iter().filter(|r| r.flag == Flag::Invalid).count(),
        denied_here: site.denials().len(),
        undone_here: site.undone().len(),
        compacted: site.engine().pruned_count(),
        engine: site.engine().metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Message;
    use dce_document::{Char, CharDocument, Op};
    use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};

    fn revoke_insert(user: u32) -> AdminOp {
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(user),
                DocObject::Document,
                [Right::Insert],
                Sign::Minus,
            ),
        }
    }

    #[test]
    fn audit_reports_the_fate_of_every_request() {
        let p = Policy::permissive([0, 1, 2]);
        let d0 = CharDocument::from_str("abc");
        let mut adm: Site<Char> = Site::new_admin(0, d0.clone(), p.clone());
        let mut s1: Site<Char> = Site::new_user(1, 0, d0.clone(), p.clone());
        let mut s2: Site<Char> = Site::new_user(2, 0, d0, p);

        // A legal, validated edit.
        let good = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(good.clone())).unwrap();
        let validations = adm.drain_outbox();
        for m in validations {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }
        s2.receive(Message::Coop(good.clone())).unwrap();

        // An edit rejected at s2 (concurrent revocation ordered first).
        let r = adm.admin_generate(revoke_insert(1)).unwrap();
        let bad = s1.generate(Op::ins(1, 'y')).unwrap();
        s2.receive(Message::Admin(r.clone())).unwrap();
        s2.receive(Message::Coop(bad.clone())).unwrap();
        // …and undone at its own site.
        s1.receive(Message::Admin(r)).unwrap();

        let at_s2 = audit(&s2);
        assert_eq!(at_s2.len(), 2);
        let rec_good = at_s2.iter().find(|r| r.id == good.ot.id).unwrap();
        assert_eq!(rec_good.flag, Flag::Valid);
        assert!(!rec_good.inert);
        assert!(!rec_good.denied_here);
        let rec_bad = at_s2.iter().find(|r| r.id == bad.ot.id).unwrap();
        assert_eq!(rec_bad.flag, Flag::Invalid);
        assert!(rec_bad.inert);
        assert!(rec_bad.denied_here);
        assert!(!rec_bad.undone_here);
        assert!(rec_bad.to_string().contains("denied on arrival"));

        let at_s1 = audit(&s1);
        let rec_bad = at_s1.iter().find(|r| r.id == bad.ot.id).unwrap();
        assert!(rec_bad.undone_here);
        assert!(rec_bad.to_string().contains("retroactively undone"));

        let m = metrics(&s2);
        assert_eq!(m.total_requests, 2);
        assert_eq!(m.valid, 1);
        assert_eq!(m.invalid, 1);
        assert_eq!(m.denied_here, 1);
        assert_eq!(m.engine.integrated, 2);
    }

    #[test]
    fn metrics_track_compaction() {
        use crate::gc;
        let p = Policy::permissive([0, 1]);
        let mut adm: Site<Char> = Site::new_admin(0, CharDocument::new(), p.clone());
        let mut s1: Site<Char> = Site::new_user(1, 0, CharDocument::new(), p);
        let q = s1.generate(Op::ins(1, 'a')).unwrap();
        adm.receive(Message::Coop(q)).unwrap();
        for m in adm.drain_outbox() {
            s1.receive(m).unwrap();
        }
        let horizon = gc::stability_horizon([s1.engine().clock(), adm.engine().clock()]);
        assert_eq!(s1.compact_stable(&horizon), 1);
        let m = metrics(&s1);
        assert_eq!(m.compacted, 1);
        assert_eq!(m.total_requests, 1);
        assert_eq!(m.valid, 0, "compacted entries leave the audit window");
    }
}
