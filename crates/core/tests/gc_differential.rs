//! Differential testing of log compaction: a site that aggressively
//! `auto_compact`s after every delivery must remain observably identical
//! to an uncompacted clone receiving the same shuffled message stream.
//!
//! Compaction only drops log entries that are settled *and* acknowledged
//! by every group member, so it must never change the document, the
//! policy, the administrative log, how queued messages wake, or what the
//! site generates next. Any observable difference fails the property.
//!
//! The second property puts the compacting site where the socket
//! deployment does: a *writer* in a star, keeping a window of its own
//! tentative insertions in flight, compacting on the heartbeats the hub
//! relays. Its own tentative insertions sit in front of the whole
//! deletion/update block of the canonical log, so only a compactor that
//! reclaims stable entries *behind* them keeps its log bounded.

use dce_core::{gc, DocumentId, Engine, Message, Site, COMPACT_WATERMARK};
use dce_document::{Char, CharDocument, Op};
use dce_ot::ids::Clock;
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use proptest::prelude::*;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// stability_horizon edge cases
// ---------------------------------------------------------------------

#[test]
fn horizon_of_no_clocks_is_empty() {
    let h = gc::stability_horizon(std::iter::empty::<&Clock>());
    assert_eq!(h.total(), 0);
    assert_eq!(h.get(7), 0);
}

#[test]
fn horizon_of_disjoint_site_sets_is_empty() {
    // Site sets {1} and {2} share no member: the pointwise minimum is
    // zero everywhere, so nothing is stable.
    let mut a = Clock::new();
    a.set(1, 5);
    let mut b = Clock::new();
    b.set(2, 9);
    let h = gc::stability_horizon([&a, &b]);
    assert_eq!(h.total(), 0);
    assert_eq!(h.get(1), 0);
    assert_eq!(h.get(2), 0);
}

#[test]
fn horizon_with_partial_overlap_keeps_only_the_common_part() {
    let mut a = Clock::new();
    a.set(1, 5);
    a.set(2, 1);
    let mut b = Clock::new();
    b.set(1, 2);
    b.set(3, 4);
    let h = gc::stability_horizon([&a, &b]);
    assert_eq!(h.get(1), 2);
    assert_eq!(h.get(2), 0);
    assert_eq!(h.get(3), 0);
}

#[test]
fn horizon_of_a_single_clock_is_that_clock() {
    let mut a = Clock::new();
    a.set(1, 3);
    a.set(4, 2);
    assert_eq!(gc::stability_horizon([&a]), a);
}

// ---------------------------------------------------------------------
// auto_compact differential property
// ---------------------------------------------------------------------

/// One scripted producer action.
#[derive(Debug, Clone)]
enum Action {
    /// User site inserts at a derived position.
    Ins(usize, char),
    /// User site deletes at a derived position (skipped when empty).
    Del(usize),
    /// User site rewrites a cell (grows its provenance chain — the
    /// structure chain collapse must preserve the value of).
    Up(usize, char),
    /// The administrator toggles user 1's right `r` (the Fig. 2/3 shape).
    Auth(u8, bool),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        ((0usize..16), prop_oneof![Just('x'), Just('y'), Just('z')])
            .prop_map(|(i, c)| Action::Ins(i, c)),
        (0usize..16).prop_map(Action::Del),
        ((0usize..16), prop_oneof![Just('U'), Just('V')]).prop_map(|(i, c)| Action::Up(i, c)),
        ((0u8..4), any::<bool>()).prop_map(|(r, p)| Action::Auth(r, p)),
    ]
}

/// Deterministic splitmix-style generator for the replay shuffle.
fn next(state: &mut u64) -> usize {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn auto_compacted_site_matches_uncompacted_clone(
        script in proptest::collection::vec((0usize..3, arb_action(), any::<bool>()), 1..20),
        replay_seed in any::<u64>(),
    ) {
        let d0 = CharDocument::from_str("base");
        let policy = Policy::permissive([0, 1, 2, 3]);

        // ---- Producer session: full mesh, prompt delivery. ----
        let mut sites: Vec<Site<Char>> = vec![
            Site::new_admin(0, d0.clone(), policy.clone()),
            Site::new_user(1, 0, d0.clone(), policy.clone()),
            Site::new_user(2, 0, d0.clone(), policy.clone()),
        ];
        let mut inboxes: Vec<VecDeque<Message<Char>>> = vec![VecDeque::new(); 3];
        let mut pool: Vec<Message<Char>> = Vec::new();

        macro_rules! bcast {
            ($from:expr, $msg:expr) => {{
                let msg: Message<Char> = $msg;
                for (i, inbox) in inboxes.iter_mut().enumerate() {
                    if i != $from {
                        inbox.push_back(msg.clone());
                    }
                }
                pool.push(msg);
            }};
        }
        macro_rules! settle {
            () => {
                loop {
                    let mut quiet = true;
                    for i in 0..sites.len() {
                        while let Some(m) = inboxes[i].pop_front() {
                            quiet = false;
                            sites[i].receive(m).unwrap();
                            for out in sites[i].drain_outbox() {
                                bcast!(i, out);
                            }
                        }
                    }
                    if quiet {
                        break;
                    }
                }
            };
        }

        for (who, action, do_settle) in script {
            // Settling is part of the generated script: unsettled actions
            // produce genuinely concurrent requests, the case where a
            // pruned log entry's form might still be needed to transform
            // an in-flight op (the compactor must hold back until it has
            // delivered everything any heartbeat announced).
            if do_settle {
                settle!();
            }
            match action {
                Action::Ins(seed, c) => {
                    let len = sites[who].document().len();
                    let pos = 1 + seed % (len + 1);
                    if let Ok(q) = sites[who].generate(Op::ins(pos, c)) {
                        bcast!(who, Message::Coop(q));
                    }
                }
                Action::Del(seed) => {
                    let text = sites[who].document().to_string();
                    if text.is_empty() {
                        continue;
                    }
                    let pos = 1 + seed % text.chars().count();
                    let cur = text.chars().nth(pos - 1).unwrap();
                    if let Ok(q) = sites[who].generate(Op::del(pos, cur)) {
                        bcast!(who, Message::Coop(q));
                    }
                }
                Action::Up(seed, c) => {
                    let text = sites[who].document().to_string();
                    if text.is_empty() {
                        continue;
                    }
                    let pos = 1 + seed % text.chars().count();
                    let cur = text.chars().nth(pos - 1).unwrap();
                    if let Ok(q) = sites[who].generate(Op::up(pos, cur, c)) {
                        bcast!(who, Message::Coop(q));
                    }
                }
                Action::Auth(right_tag, plus) => {
                    let auth = Authorization::new(
                        Subject::User(1),
                        DocObject::Document,
                        [Right::ALL[right_tag as usize]],
                        if plus { Sign::Plus } else { Sign::Minus },
                    );
                    if let Ok(r) = sites[0].admin_generate(AdminOp::AddAuth { pos: 0, auth }) {
                        bcast!(0, Message::Admin(r));
                    }
                }
            }
            // Mid-session heartbeats ride the same shuffled pool, so the
            // observers see partial-clock announcements interleaved with
            // (and sometimes ahead of) the traffic they vouch for.
            for (i, site) in sites.iter().enumerate() {
                let hb = site.make_heartbeat();
                bcast!(i, hb);
            }
        }
        settle!();

        // Producers' final heartbeats: the acknowledgement state the
        // observers' auto_compact will derive its horizon from.
        let heartbeats: Vec<Message<Char>> =
            sites.iter().map(|s| s.make_heartbeat()).collect();

        // ---- Replay, shuffled, into both observers. ----
        let mut deliveries = pool;
        let mut lcg = replay_seed;
        for i in (1..deliveries.len()).rev() {
            let j = next(&mut lcg) % (i + 1);
            deliveries.swap(i, j);
        }

        let mut compacted: Site<Char> = Site::new_user(3, 0, d0.clone(), policy.clone());
        let mut plain: Site<Char> = Site::new_user(3, 0, d0, policy);
        let mut reclaimed = 0usize;
        for (n, msg) in deliveries.into_iter().enumerate() {
            compacted.receive(msg.clone()).unwrap();
            plain.receive(msg).unwrap();
            // Feed the group's heartbeats and compact after every delivery —
            // the most aggressive schedule auto_compact supports.
            for hb in &heartbeats {
                compacted.receive(hb.clone()).unwrap();
            }
            reclaimed += compacted.auto_compact();
            prop_assert_eq!(
                compacted.document(), plain.document(),
                "documents diverged after delivery {}", n
            );
            prop_assert_eq!(
                compacted.queued(), plain.queued(),
                "queue sizes diverged after delivery {}", n
            );
        }

        // End state: everything compaction promises to preserve. The
        // replica digest is behavioral over flags (settled fold) and the
        // admin log, so it must survive any pruning schedule.
        prop_assert_eq!(
            compacted.replica_digest(), plain.replica_digest(),
            "replica digests diverged: {:?} vs {:?}",
            compacted.replica_digest_parts(), plain.replica_digest_parts()
        );
        prop_assert_eq!(compacted.version(), plain.version());
        prop_assert_eq!(compacted.policy(), plain.policy());
        prop_assert_eq!(compacted.admin_log(), plain.admin_log());
        prop_assert_eq!(
            compacted.engine().log().len() + compacted.engine().pruned_count(),
            plain.engine().log().len() + plain.engine().pruned_count(),
            "compaction lost or invented log entries"
        );
        prop_assert_eq!(compacted.engine().pruned_count(), reclaimed);

        // The session continues identically after compaction: both
        // observers generate the same next request from the same state.
        let len = compacted.document().len();
        let qa = compacted.generate(Op::ins(1 + len, 'Q'));
        let qb = plain.generate(Op::ins(1 + len, 'Q'));
        match (qa, qb) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "post-compaction requests diverged"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "one observer denied the edit: {:?} vs {:?}", a, b),
        }
    }
}

// ---------------------------------------------------------------------
// A generating member in a star, compacting on relayed heartbeats
// ---------------------------------------------------------------------

/// A locally valid edit on `text`: ins 60 / del 25 / up 15, by `roll`.
fn star_edit(text: &str, roll: usize, letter: char) -> Op<Char> {
    let chars: Vec<char> = text.chars().collect();
    let len = chars.len();
    let pos = 1 + (roll / 100) % len.max(1);
    match roll % 100 {
        _ if len == 0 => Op::ins(1, letter),
        0..=59 => Op::ins(1 + (roll / 100) % (len + 1), letter),
        60..=84 => Op::del(pos, chars[pos - 1]),
        _ => Op::up(pos, chars[pos - 1], letter.to_ascii_uppercase()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Member 1 is a default [`Engine`] (always-on compactor) with an
    /// uncompacted [`Site`] twin fed the same stream. The hub is the
    /// administrator replica plus per-member FIFO queues, like the
    /// server: it relays every request, then its validations, and on each
    /// horizon pass vouches the administrator's clock for every member
    /// that has delivered everything and has nothing of its own still
    /// queued up (the cumulative-ack condition), and relays those
    /// heartbeats. Member 1 lags behind its queue and keeps up to 8
    /// unvalidated insertions of its own in flight.
    #[test]
    fn a_generating_member_compacts_behind_its_own_tentative_ops(
        seed in any::<u64>(),
        lag in 1usize..6,
    ) {
        const DOC: DocumentId = DocumentId::ROOT;
        const WINDOW: usize = 8;
        const ROUNDS: usize = 220;
        let d0 = CharDocument::from_str("the quick brown fox");
        let policy = Policy::permissive([0, 1, 2]);
        let mut admin: Site<Char> = Site::new_admin(0, d0.clone(), policy.clone());
        let member: Engine<Char> = Engine::new_user(1, 0);
        member.create_document(DOC, d0.clone(), policy.clone()).unwrap();
        let mut twin: Site<Char> = Site::new_user(1, 0, d0.clone(), policy.clone());
        let mut peer: Site<Char> = Site::new_user(2, 0, d0, policy);
        // up[u]: member u → hub; down[u]: hub → member u (index 0 unused).
        let mut up: Vec<VecDeque<Message<Char>>> = vec![VecDeque::new(); 3];
        let mut down: Vec<VecDeque<Message<Char>>> = vec![VecDeque::new(); 3];
        let mut rng = seed;
        let mut peak = 0usize;
        let combined = |e: &Engine<Char>| {
            e.with(DOC, |s| s.engine().log().len() + s.admin_log().len()).unwrap()
        };

        // Member 1 is a closed loop: every validation that frees a slot of
        // its window is refilled at once, so whenever a relayed heartbeat
        // lands, insertions of its own are still tentative in its log. The
        // twin must produce the very same requests.
        macro_rules! refill {
            ($round:expr) => {
                loop {
                    let tentative = member
                        .with(DOC, |s| {
                            s.engine()
                                .log()
                                .iter()
                                .filter(|e| {
                                    e.id.site == 1
                                        && s.flag_of(e.id) == Some(dce_core::Flag::Tentative)
                                })
                                .count()
                        })
                        .unwrap();
                    if tentative >= WINDOW {
                        break;
                    }
                    let letter = char::from(b'a' + (next(&mut rng) % 26) as u8);
                    let text = member.document(DOC).unwrap().to_string();
                    let op = star_edit(&text, next(&mut rng), letter);
                    let q = member.generate(DOC, op.clone()).unwrap();
                    let t = Message::Coop(twin.generate(op).unwrap());
                    prop_assert_eq!(&t, &q, "round {}", $round);
                    up[1].push_back(q);
                }
            };
        }

        for round in 0..ROUNDS {
            let letter = char::from(b'a' + (round % 26) as u8);
            refill!(round);
            if next(&mut rng).is_multiple_of(2) {
                let op = star_edit(&peer.document().to_string(), next(&mut rng), letter);
                up[2].push_back(Message::Coop(peer.generate(op).unwrap()));
            }
            // The hub processes everything queued up, relaying in order.
            for from in [1usize, 2] {
                while let Some(m) = up[from].pop_front() {
                    admin.receive(m.clone()).unwrap();
                    down[3 - from].push_back(m);
                    for out in admin.drain_outbox() {
                        down[1].push_back(out.clone());
                        down[2].push_back(out);
                    }
                }
            }
            // Member 2 keeps up; member 1 lags.
            while let Some(m) = down[2].pop_front() {
                peer.receive(m).unwrap();
            }
            // Horizon pass: vouch for caught-up members, relay.
            if round.is_multiple_of(4) {
                let clock = admin.engine().clock().clone();
                let acked: Vec<u32> =
                    (1..=2u32).filter(|&u| down[u as usize].is_empty() && up[u as usize].is_empty()).collect();
                for to in 1..=2u32 {
                    down[to as usize].push_back(Message::Heartbeat { from: 0, clock: clock.clone() });
                    for &v in acked.iter().filter(|&&v| v != to) {
                        down[to as usize].push_back(Message::Heartbeat { from: v, clock: clock.clone() });
                    }
                }
            }
            let deliveries = if round.is_multiple_of(lag) { down[1].len() } else { next(&mut rng) % 3 };
            for _ in 0..deliveries {
                let Some(m) = down[1].pop_front() else { break };
                member.receive(DOC, m.clone()).unwrap();
                twin.receive(m).unwrap();
                prop_assert_eq!(member.document(DOC).unwrap(), twin.document(), "round {}", round);
                peak = peak.max(combined(&member));
                refill!(round);
            }
        }
        while let Some(m) = down[1].pop_front() {
            member.receive(DOC, m.clone()).unwrap();
            twin.receive(m).unwrap();
        }

        let reclaimed = member.with(DOC, |s| s.engine().pruned_count()).unwrap();
        prop_assert!(reclaimed > 0, "the member never compacted");
        prop_assert!(
            peak <= 2 * COMPACT_WATERMARK,
            "member log not bounded: peak combined length {} over {} rounds", peak, ROUNDS
        );
        let parts = member.with(DOC, |s| s.replica_digest_parts()).unwrap();
        prop_assert_eq!(parts, twin.replica_digest_parts());
        prop_assert_eq!(member.document(DOC).unwrap(), twin.document());
        let op = Op::ins(1, 'Q');
        prop_assert_eq!(member.generate(DOC, op.clone()).unwrap(), Message::Coop(twin.generate(op).unwrap()));
    }
}
