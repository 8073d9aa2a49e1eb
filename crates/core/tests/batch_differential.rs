//! Differential testing of the batched drain against the original
//! Algorithm-1 scan loop.
//!
//! When a missing link arrives and wakes a parked chain of K remote
//! requests, the drain integrates the whole causally-ready run in one
//! pass, and each integration advances the OT engine's kept `ComputeFF`
//! partition instead of rebuilding it. This suite manufactures exactly
//! those runs — bursts of causally-chained edits from one site, delivered
//! in reverse so the entire chain parks and then wakes in a single drain
//! — and replays them, shuffled and partially duplicated, into a plain
//! [`Site`] and a [`ScanSite`] (the preserved pre-refactor scan loop, one
//! integration per pass). After every delivery both must agree on the
//! document and on how many messages are still queued; at the end, on the
//! replica digest and every piece of replicated state. Any divergence — a
//! partition advanced past a stale context, a revocation's undo that
//! should have dropped it but didn't — fails the property.

use dce_core::{Message, ScanSite, Site};
use dce_document::{Char, CharDocument, Op};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// One edit inside a burst, positions derived from a seed.
#[derive(Debug, Clone)]
enum Edit {
    Ins(usize, char),
    Del(usize),
    Up(usize, char),
}

/// One scripted action in the producer session.
#[derive(Debug, Clone)]
enum Step {
    /// A causally-chained run of edits from one site: generated
    /// back-to-back with no intervening deliveries, so each op's context
    /// includes its predecessor — the shape a kept partition advances along.
    Burst(usize, Vec<Edit>),
    /// The administrator prepends a signed document-wide authorization
    /// (`false` = revocation: the retroactive-undo races that must
    /// drop the kept partition mid-run).
    Auth(u32, u8, bool),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        ((0usize..32), prop_oneof![Just('x'), Just('y'), Just('z')])
            .prop_map(|(i, c)| Edit::Ins(i, c)),
        (0usize..32).prop_map(Edit::Del),
        ((0usize..32), Just('W')).prop_map(|(i, c)| Edit::Up(i, c)),
    ]
}

fn arb_burst() -> impl Strategy<Value = Step> {
    ((0usize..3), proptest::collection::vec(arb_edit(), 1..8))
        .prop_map(|(who, edits)| Step::Burst(who, edits))
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Bursts dominate 3:1 (the vendored proptest has no weighted
    // `prop_oneof!`); admin steps stay frequent enough to interleave
    // revocations with parked chains.
    prop_oneof![
        arb_burst(),
        arb_burst(),
        arb_burst(),
        ((1u32..3), (0u8..4), any::<bool>()).prop_map(|(u, r, p)| Step::Auth(u, r, p)),
    ]
}

/// Deterministic splitmix-style generator for the replay schedule.
fn next(state: &mut u64) -> usize {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_drain_matches_scan_drain(
        script in proptest::collection::vec(arb_step(), 1..12),
        replay_seed in any::<u64>(),
    ) {
        let d0 = CharDocument::from_str("base");
        let policy = Policy::permissive([0, 1, 2, 3]);

        // ---- Producer session: full mesh, prompt delivery between
        // steps, none *within* a burst. ----
        let mut sites: Vec<Site<Char>> = vec![
            Site::new_admin(0, d0.clone(), policy.clone()),
            Site::new_user(1, 0, d0.clone(), policy.clone()),
            Site::new_user(2, 0, d0.clone(), policy.clone()),
        ];
        let mut inboxes: Vec<VecDeque<Message<Char>>> = vec![VecDeque::new(); 3];
        // The pool the observers replay, grouped into blocks: one block
        // per burst (its chained coops, in generation order), one block
        // per administrative message or validation.
        let mut blocks: Vec<Vec<Message<Char>>> = Vec::new();

        macro_rules! bcast {
            ($from:expr, $msg:expr, $block:expr) => {{
                let msg: Message<Char> = $msg;
                for (i, inbox) in inboxes.iter_mut().enumerate() {
                    if i != $from {
                        inbox.push_back(msg.clone());
                    }
                }
                $block.push(msg);
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
                                let mut block = Vec::new();
                                bcast!(i, out, block);
                                blocks.push(block);
                            }
                        }
                    }
                    if quiet {
                        break;
                    }
                }
            };
        }

        for step in script {
            settle!();
            match step {
                Step::Burst(who, edits) => {
                    let mut block = Vec::new();
                    for edit in edits {
                        let text = sites[who].document().to_string();
                        let len = text.chars().count();
                        let q = match edit {
                            Edit::Ins(seed, c) => {
                                sites[who].generate(Op::ins(1 + seed % (len + 1), c))
                            }
                            Edit::Del(seed) => {
                                if len == 0 {
                                    continue;
                                }
                                let pos = 1 + seed % len;
                                let cur = text.chars().nth(pos - 1).unwrap();
                                sites[who].generate(Op::del(pos, cur))
                            }
                            Edit::Up(seed, c) => {
                                if len == 0 {
                                    continue;
                                }
                                let pos = 1 + seed % len;
                                let cur = text.chars().nth(pos - 1).unwrap();
                                sites[who].generate(Op::up(pos, cur, c))
                            }
                        };
                        if let Ok(q) = q {
                            bcast!(who, Message::Coop(q), block);
                        }
                    }
                    if !block.is_empty() {
                        blocks.push(block);
                    }
                }
                Step::Auth(user, right_tag, plus) => {
                    let auth = Authorization::new(
                        Subject::User(user),
                        DocObject::Document,
                        [Right::ALL[right_tag as usize]],
                        if plus { Sign::Plus } else { Sign::Minus },
                    );
                    if let Ok(r) = sites[0].admin_generate(AdminOp::AddAuth { pos: 0, auth }) {
                        let mut block = Vec::new();
                        bcast!(0, Message::Admin(r), block);
                        blocks.push(block);
                    }
                }
            }
        }
        settle!();

        // ---- Replay schedule: reverse every burst (the whole chain
        // parks, then one arrival wakes it in one drain), shuffle
        // the block order, and append some duplicates. ----
        let mut lcg = replay_seed;
        for block in &mut blocks {
            if block.len() > 1 && !next(&mut lcg).is_multiple_of(4) {
                block.reverse();
            }
        }
        for i in (1..blocks.len()).rev() {
            let j = next(&mut lcg) % (i + 1);
            blocks.swap(i, j);
        }
        let mut deliveries: Vec<Message<Char>> = blocks.into_iter().flatten().collect();
        let dupes: Vec<Message<Char>> = deliveries
            .iter()
            .filter(|_| next(&mut lcg).is_multiple_of(4))
            .cloned()
            .collect();
        deliveries.extend(dupes);

        let mut fast: Site<Char> = Site::new_user(3, 0, d0.clone(), policy.clone());
        let mut scan: ScanSite<Char> = ScanSite::new(Site::new_user(3, 0, d0, policy));
        for (n, msg) in deliveries.into_iter().enumerate() {
            fast.receive(msg.clone()).unwrap();
            scan.receive(msg).unwrap();
            prop_assert_eq!(
                fast.queued(), scan.queued(),
                "queue sizes diverged after delivery {}", n
            );
            prop_assert_eq!(
                fast.document(), scan.site().document(),
                "documents diverged after delivery {}", n
            );
        }

        // End state: everything observable must be identical.
        prop_assert_eq!(fast.replica_digest(), scan.site().replica_digest());
        prop_assert_eq!(fast.version(), scan.site().version());
        prop_assert_eq!(fast.policy(), scan.site().policy());
        prop_assert_eq!(fast.admin_log(), scan.site().admin_log());
        let fa: HashMap<_, _> = fast.flags().collect();
        let fb: HashMap<_, _> = scan.site().flags().collect();
        prop_assert_eq!(fa, fb, "request flags diverged");
        prop_assert_eq!(fast.denials(), scan.site().denials());
        prop_assert_eq!(fast.undone(), scan.site().undone());
        prop_assert_eq!(
            fast.drain_outbox(),
            scan.site_mut().drain_outbox(),
            "emitted messages diverged"
        );
    }
}
