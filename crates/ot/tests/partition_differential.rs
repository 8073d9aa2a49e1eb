//! Differential test of the engine's kept `ComputeFF` partition.
//!
//! An engine keeps the partition of its log by the last reception's
//! context alive and advances it — on the next reception, on local
//! generation, after every integration — instead of rebuilding it; `undo`
//! and `prune_stable` must drop it. Three engines run a random
//! interleaving of local `generate`, causally-ready remote `integrate` (or
//! `integrate_inert`) from the two other origins, `undo` of a live entry
//! and `prune_stable` of a random subset of the stable entries, wherever
//! they sit in the log. Before every step the acting
//! engine gets a cold twin, reassembled with [`Engine::from_parts`] from
//! its state; both take the step, and the twin — which must rebuild the
//! partition from scratch — has to land on the same outcome, document,
//! log forms and clock. A partition advanced past a stale log (an `undo`
//! that kept it, a prune that kept it, a local request that joined the
//! suffix in the wrong place) fails the property. Each engine also has a
//! never-pruned shadow taking the same steps: a reclaimed entry whose
//! effect is missing from the kept forms shows up as a document or
//! outcome that differs from the shadow's.

use dce_document::{Char, Op};
use dce_ot::engine::{BroadcastRequest, Engine};
use dce_ot::ids::{Clock, RequestId};
use proptest::prelude::*;

/// One scripted step: `(kind, engine, seed)`; the seed picks the op,
/// the request or the entry.
type Step = (u8, usize, u32);

/// A cold copy of `e`: the same state, no partition.
fn cold(e: &Engine<Char>) -> Engine<Char> {
    Engine::from_parts(
        e.site(),
        e.buffer().clone(),
        e.log().clone(),
        e.clock().clone(),
        e.pruned_inert().clone(),
        e.pruned_count(),
    )
}

/// A locally valid edit at `e`, chosen by `seed`: ins 50 / del 25 / up 25.
fn edit(e: &Engine<Char>, seed: u32) -> Op<Char> {
    let doc = e.document();
    let len = doc.len();
    let letter = char::from(b'a' + (seed / 7 % 26) as u8);
    let pos = 1 + (seed / 4) as usize % len.max(1);
    match seed % 4 {
        _ if len == 0 => Op::ins(1, letter),
        0 | 1 => Op::ins(1 + (seed / 4) as usize % (len + 1), letter),
        2 => Op::Del { pos, elem: *doc.get(pos).unwrap() },
        _ => Op::up(pos, *doc.get(pos).unwrap(), letter.to_ascii_uppercase()),
    }
}

/// Whether `id` is stable at an engine whose inbox is `inbox`: in every
/// engine's clock and in the context of every request still on its way,
/// so every future partition there puts it in the prefix.
fn is_stable(id: RequestId, clocks: &[Clock], inbox: &[BroadcastRequest<Char>]) -> bool {
    clocks.iter().all(|c| c.contains(id)) && inbox.iter().all(|q| q.ctx.contains(id))
}

fn arb_step() -> impl Strategy<Value = Step> {
    // generate 3 : receive 3 : undo 1 : prune 1.
    ((0u8..8), (0usize..3), any::<u32>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_kept_partition_matches_a_cold_rebuild(
        script in proptest::collection::vec(arb_step(), 1..120),
    ) {
        let d0 = dce_document::CharDocument::from_str("abcd");
        let mut engines: Vec<Engine<Char>> = (1..=3).map(|s| Engine::new(s, d0.clone())).collect();
        let mut shadows: Vec<Engine<Char>> = engines.iter().map(cold).collect();
        let mut inboxes: Vec<Vec<BroadcastRequest<Char>>> = vec![Vec::new(); 3];

        for (n, (kind, at, seed)) in script.into_iter().enumerate() {
            let mut twin = cold(&engines[at]);
            let warm = &mut engines[at];
            match kind {
                0..=2 => {
                    let op = edit(warm, seed);
                    let q = warm.generate(op.clone()).expect("locally valid edit");
                    prop_assert_eq!(&twin.generate(op.clone()).expect("locally valid edit"), &q);
                    prop_assert_eq!(&shadows[at].generate(op).expect("locally valid edit"), &q);
                    for (i, inbox) in inboxes.iter_mut().enumerate() {
                        if i != at {
                            inbox.push(q.clone());
                        }
                    }
                }
                3..=5 => {
                    let ready: Vec<usize> = (0..inboxes[at].len())
                        .filter(|&i| warm.is_ready(&inboxes[at][i]))
                        .collect();
                    if ready.is_empty() {
                        continue;
                    }
                    let q = inboxes[at].remove(ready[seed as usize % ready.len()]);
                    if seed % 5 == 0 {
                        let out = warm.integrate_inert(&q);
                        prop_assert_eq!(&out, &twin.integrate_inert(&q));
                        prop_assert_eq!(&out, &shadows[at].integrate_inert(&q));
                    } else {
                        let out = warm.integrate(&q);
                        prop_assert_eq!(&out, &twin.integrate(&q));
                        prop_assert_eq!(&out, &shadows[at].integrate(&q));
                    }
                }
                6 => {
                    let live: Vec<_> =
                        warm.log().iter().filter(|e| !e.inert).map(|e| e.id).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live[seed as usize % live.len()];
                    let out = warm.undo(victim);
                    prop_assert_eq!(&out, &twin.undo(victim));
                    prop_assert_eq!(&out, &shadows[at].undo(victim));
                }
                _ => {
                    let clocks: Vec<Clock> = engines.iter().map(|e| e.clock().clone()).collect();
                    let warm = &mut engines[at];
                    // A random half of the stable entries, chosen by id so
                    // both engines pick the same set.
                    let pick = |id: RequestId| {
                        is_stable(id, &clocks, &inboxes[at])
                            && (id.seq as u32 ^ id.site.wrapping_mul(seed)).is_multiple_of(2)
                    };
                    let pruned = warm.prune_stable(|e| pick(e.id));
                    prop_assert_eq!(twin.prune_stable(|e| pick(e.id)), pruned);
                }
            }
            let warm = &engines[at];
            prop_assert_eq!(warm.document(), twin.document(), "document after step {}", n);
            prop_assert_eq!(warm.log(), twin.log(), "log forms after step {}", n);
            prop_assert_eq!(warm.clock(), twin.clock(), "clock after step {}", n);
            prop_assert_eq!(warm.document(), shadows[at].document(), "shadow document after step {}", n);
            prop_assert!(warm.log().is_canonical());
        }
    }
}
