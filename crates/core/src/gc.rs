//! Log compaction (garbage collection) — the paper's §7 future-work item.
//!
//! "As the length of local (administrative and cooperative) logs increases
//! rapidly during collaboration sessions, we plan to address the garbage
//! collection problem." The natural solution for the cooperative log `H`
//! (`Site::compact_stable`, reached only through the gated
//! [`crate::Site::auto_compact`]): an entry can be reclaimed, wherever it
//! sits in the log, once it is
//!
//! * *acknowledged everywhere*: contained in every participant's causal
//!   clock, so every future request's generation context includes it and
//!   every future partition puts it in the prefix; and
//! * *settled*: `Valid` or `Invalid`, never `Tentative` — tentative entries
//!   can still be retroactively undone, which requires their log forms.
//!
//! The group-wide acknowledgement clock (the pointwise minimum of all
//! sites' clocks) is computed from heartbeat clocks
//! ([`crate::Site::auto_compact`]); this module only computes the minimum.

use dce_ot::ids::Clock;

/// Pointwise minimum of a set of clocks: the requests every participant
/// has integrated. Sites absent from `clocks` contribute nothing, so an
/// empty input yields the empty clock (nothing stable).
pub fn stability_horizon<'a>(clocks: impl IntoIterator<Item = &'a Clock>) -> Clock {
    let mut iter = clocks.into_iter();
    let Some(first) = iter.next() else {
        return Clock::new();
    };
    let mut horizon = first.clone();
    for c in iter {
        let mut merged = Clock::new();
        for (site, n) in horizon.iter() {
            let other = c.get(site);
            let min = n.min(other);
            if min > 0 {
                merged.set(site, min);
            }
        }
        horizon = merged;
    }
    horizon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Flag, Message};
    use crate::site::Site;
    use dce_document::{Char, CharDocument, Op};
    use dce_policy::Policy;

    fn doc(s: &str) -> CharDocument {
        CharDocument::from_str(s)
    }

    #[test]
    fn horizon_is_pointwise_min() {
        let mut a = Clock::new();
        a.set(1, 3);
        a.set(2, 2);
        let mut b = Clock::new();
        b.set(1, 1);
        b.set(2, 5);
        b.set(3, 1);
        let h = stability_horizon([&a, &b]);
        assert_eq!(h.get(1), 1);
        assert_eq!(h.get(2), 2);
        assert_eq!(h.get(3), 0);
        assert_eq!(stability_horizon([]).total(), 0);
    }

    #[test]
    fn compaction_keeps_sessions_working() {
        let p = Policy::permissive([0, 1, 2]);
        let mut adm: Site<Char> = Site::new_admin(0, doc("abc"), p.clone());
        let mut s1: Site<Char> = Site::new_user(1, 0, doc("abc"), p.clone());
        let mut s2: Site<Char> = Site::new_user(2, 0, doc("abc"), p);

        // s1 edits; everyone applies; admin validates; everyone applies the
        // validations.
        let mut validations = Vec::new();
        let mut reqs = Vec::new();
        for (pos, c) in [(1, 'x'), (2, 'y')] {
            let q = s1.generate(Op::ins(pos, c)).unwrap();
            adm.receive(Message::Coop(q.clone())).unwrap();
            validations.extend(adm.drain_outbox());
            reqs.push(q);
        }
        for q in &reqs {
            s2.receive(Message::Coop(q.clone())).unwrap();
        }
        for m in validations {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }

        // Everyone has everything: the horizon covers both requests.
        let clocks = [
            adm.engine().clock().clone(),
            s1.engine().clock().clone(),
            s2.engine().clock().clone(),
        ];
        let horizon = stability_horizon(clocks.iter());
        assert_eq!(horizon.get(1), 2);

        assert_eq!(s1.compact_stable(&horizon), 2);
        assert_eq!(s1.engine().log().len(), 0);
        assert_eq!(s1.engine().pruned_count(), 2);
        assert_eq!(s2.compact_stable(&horizon), 2);

        // The session continues to work after compaction: concurrent edits
        // still converge.
        let q1 = s1.generate(Op::ins(1, 'a')).unwrap();
        let q2 = s2.generate(Op::del(1, 'x')).unwrap();
        s1.receive(Message::Coop(q2.clone())).unwrap();
        s2.receive(Message::Coop(q1.clone())).unwrap();
        adm.receive(Message::Coop(q1)).unwrap();
        adm.receive(Message::Coop(q2)).unwrap();
        assert_eq!(s1.document(), s2.document());
        assert_eq!(adm.document(), s1.document());
    }

    #[test]
    fn tentative_entries_block_compaction() {
        let p = Policy::permissive([0, 1]);
        let mut s1: Site<Char> = Site::new_user(1, 0, doc("abc"), p);
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        // Even a fully acknowledged clock cannot compact a tentative entry.
        let mut horizon = Clock::new();
        horizon.set(1, q.ot.id.seq);
        assert_eq!(s1.compact_stable(&horizon), 0);
        assert_eq!(s1.engine().log().len(), 1);
    }

    #[test]
    fn stable_entries_behind_a_tentative_one_are_reclaimed() {
        let p = Policy::permissive([0, 1, 2]);
        let mut adm: Site<Char> = Site::new_admin(0, doc("abc"), p.clone());
        let mut s1: Site<Char> = Site::new_user(1, 0, doc("abc"), p.clone());
        let mut s2: Site<Char> = Site::new_user(2, 0, doc("abc"), p);
        // s1's own insertion stays tentative (its validation is not back
        // yet); s2's deletion is validated and lands behind it in s1's
        // canonical log, where a settled-prefix rule could never reach it.
        let mine = s1.generate(Op::ins(1, 'x')).unwrap();
        let theirs = s2.generate(Op::del(1, 'a')).unwrap();
        adm.receive(Message::Coop(theirs.clone())).unwrap();
        s1.receive(Message::Coop(theirs.clone())).unwrap();
        for m in adm.drain_outbox() {
            s1.receive(m).unwrap();
        }
        assert_eq!(s1.engine().log().entry(1).id, theirs.ot.id);

        let mut horizon = Clock::new();
        horizon.set(2, 1);
        assert_eq!(s1.compact_stable(&horizon), 1);
        assert_eq!(s1.engine().log().len(), 1);
        assert_eq!(s1.document().to_string(), "xbc");
        assert_eq!(s1.flag_of(theirs.ot.id), None, "the settled row was reclaimed");
        assert_eq!(s1.fate(theirs.ot.id), Some(Flag::Valid));
        assert_eq!(s1.fate(mine.ot.id), Some(Flag::Tentative));
    }
}
