//! The engine's kept `ComputeFF` partition is a cache, not replicated
//! state: a member whose partition is warm and a copy of it that starts
//! cold have the same state digest, replica digest and snapshot bytes, and
//! stay identical through the next concurrent reception — which the warm
//! one integrates with fewer transpositions.

use dce_core::{Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_net::encode_snapshot;
use dce_policy::Policy;
use std::collections::VecDeque;

/// Edit `i` at `site`, mixed ins 60 / del 25 / up 15 like the closed-loop
/// workloads.
fn edit(site: &Site<Char>, i: usize) -> Op<Char> {
    let doc = site.document();
    let len = doc.len();
    let pos = 1 + (i * 7) % len.max(1);
    match i % 20 {
        _ if len == 0 => Op::ins(1, 'a'),
        0..=11 => Op::ins(1 + (i * 5) % (len + 1), char::from(b'a' + (i % 26) as u8)),
        12..=16 => Op::Del { pos, elem: *doc.get(pos).unwrap() },
        _ => Op::up(pos, *doc.get(pos).unwrap(), 'U'),
    }
}

/// Two members exchanging edits with `window` of each one's requests in
/// flight, so every reception is concurrent with the receiver's latest
/// edits. Returns member 2 (warm: it has received and generated since)
/// and the next request on its way to it.
fn warm_member(rounds: usize, window: usize) -> (Site<Char>, Message<Char>) {
    let policy = Policy::permissive([0, 1, 2]);
    let d0 = CharDocument::from_str("abcdefgh");
    let mut s1: Site<Char> = Site::new_user(1, 0, d0.clone(), policy.clone());
    let mut s2: Site<Char> = Site::new_user(2, 0, d0, policy);
    let (mut to_s1, mut to_s2) = (VecDeque::new(), VecDeque::new());
    for i in 0..rounds {
        to_s2.push_back(Message::Coop(s1.generate(edit(&s1, i)).unwrap()));
        to_s1.push_back(Message::Coop(s2.generate(edit(&s2, i + 3)).unwrap()));
        while to_s2.len() > window {
            s2.receive(to_s2.pop_front().unwrap()).unwrap();
        }
        while to_s1.len() > window {
            s1.receive(to_s1.pop_front().unwrap()).unwrap();
        }
    }
    (s2, to_s2.pop_front().unwrap())
}

fn transposes(site: &Site<Char>) -> u64 {
    site.engine().metrics().partition_transposes
}

#[test]
fn a_warm_partition_leaves_no_trace_in_digests_or_snapshots() {
    let (mut warm, next) = warm_member(150, 4);
    // A clone is a fork point: it carries state, not the cache.
    let mut cold = warm.clone();

    let same = |a: &Site<Char>, b: &Site<Char>, when: &str| {
        assert_eq!(a.state_digest(), b.state_digest(), "state digest {when}");
        assert_eq!(a.replica_digest(), b.replica_digest(), "replica digest {when}");
        assert_eq!(encode_snapshot(a), encode_snapshot(b), "snapshot bytes {when}");
    };
    same(&warm, &cold, "before the reception");

    let (warm_before, cold_before) = (transposes(&warm), transposes(&cold));
    warm.receive(next.clone()).unwrap();
    cold.receive(next).unwrap();
    let (warm_spent, cold_spent) =
        (transposes(&warm) - warm_before, transposes(&cold) - cold_before);
    assert!(
        warm_spent < cold_spent,
        "the warm member advanced its partition ({warm_spent} transpositions), the cold one \
         rebuilt it ({cold_spent})"
    );
    same(&warm, &cold, "after the reception");
}
