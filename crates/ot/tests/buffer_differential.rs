//! Differential test of the chunked tombstone buffer against a flat `Vec`.
//!
//! [`Buffer`] keeps its cells in chunks under a Fenwick tree of cell and
//! visible counts. `VecBuffer` below is the flat layout it replaced, kept
//! here as the oracle: one cell per slot, every lookup a scan. A seeded
//! proptest drives both through the same random script of insertions
//! (appends at `len + 1` included), ghosts, stacked kills, long tombstone
//! runs, updates, undo-style withdrawals and out-of-range positions, long
//! enough to split many chunks, and after every step compares the cells,
//! the lookups and the hash. A second test pins the `digest_into` value of
//! one seeded engine session to the value the flat layout produced.

use dce_document::{ApplyError, Char, CharDocument, Op, Position};
use dce_ot::buffer::{Buffer, Cell, ChainLink};
use dce_ot::engine::{BroadcastRequest, Engine};
use dce_ot::ids::RequestId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// The flat reference: the buffer as a plain vector of cells.
#[derive(Hash)]
struct VecBuffer(Vec<Cell<Char>>);

impl VecBuffer {
    fn cell(elem: Char, creator: Option<RequestId>, ghost: bool) -> Cell<Char> {
        let (killers, anon_kills, chain) = (Vec::new(), 0, Vec::new());
        Cell { elem, original: elem, creator, ghost, killers, anon_kills, chain }
    }
    fn visible_len(&self) -> usize {
        self.0.iter().filter(|c| c.is_visible()).count()
    }
    fn internal_target_pos(&self, v: Position) -> Option<Position> {
        let mut seen = (1..).zip(&self.0).filter(|(_, c)| c.is_visible());
        seen.nth(v.checked_sub(1)?).map(|(p, _)| p)
    }
    fn internal_ins_pos(&self, v: Position) -> Option<Position> {
        match v {
            0 => None,
            1 => Some(1),
            _ => self.internal_target_pos(v - 1).map(|p| p + 1),
        }
    }
    fn visible_pos(&self, p: Position) -> Option<Position> {
        let cell = self.0.get(p.checked_sub(1)?)?;
        cell.is_visible().then(|| self.0[..p - 1].iter().filter(|c| c.is_visible()).count() + 1)
    }
    fn insert(&mut self, p: Position, cell: Cell<Char>) -> Result<(), ApplyError> {
        let len = self.0.len();
        if p == 0 || p > len + 1 {
            return Err(ApplyError::OutOfBounds { pos: p, len, max: len + 1 });
        }
        self.0.insert(p - 1, cell);
        Ok(())
    }
    fn apply(&mut self, op: &Op<Char>, by: Option<RequestId>) -> Result<(), ApplyError> {
        let len = self.0.len();
        let pos = op.pos().unwrap_or(0);
        if let Op::Ins { elem, .. } = op {
            return self.insert(pos, Self::cell(*elem, by, false));
        }
        let Some(cell) = pos.checked_sub(1).and_then(|i| self.0.get_mut(i)) else {
            return Err(ApplyError::OutOfBounds { pos, len, max: len });
        };
        match (op, by) {
            (Op::Del { .. }, Some(id)) => cell.killers.push(id),
            (Op::Del { .. }, None) => cell.anon_kills += 1,
            (Op::Up { new, .. }, by) => {
                cell.elem = *new;
                if let Some(id) = by {
                    let saw = cell.chain.iter().map(|l| l.id).collect();
                    cell.chain.push(ChainLink { id, value: *new, saw });
                }
            }
            _ => unreachable!("only Del and Up reach here"),
        }
        Ok(())
    }
    fn position(&self, pred: impl Fn(&Cell<Char>) -> bool) -> Option<Position> {
        self.0.iter().position(pred).map(|i| i + 1)
    }
    fn ghost_created_by(&mut self, id: RequestId) -> Option<Position> {
        let p = self.position(|c| c.creator == Some(id))?;
        self.0[p - 1].ghost = true;
        Some(p)
    }
    fn withdraw_kill(&mut self, id: RequestId) -> Option<Position> {
        let p = self.position(|c| c.killers.contains(&id))?;
        self.0[p - 1].killers.retain(|k| *k != id);
        Some(p)
    }
    fn unkill(&mut self, p: Position) -> bool {
        match p.checked_sub(1).and_then(|i| self.0.get_mut(i)) {
            Some(c) if c.anon_kills > 0 => {
                c.anon_kills -= 1;
                c.is_visible()
            }
            _ => false,
        }
    }
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Asserts that `b` and the reference agree on the cells, the hash and
/// the lookups at `probes` (visible and internal positions alike).
fn agree(
    b: &Buffer<Char>,
    r: &VecBuffer,
    probes: impl IntoIterator<Item = Position>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(b.len(), r.0.len());
    prop_assert_eq!(b.visible_len(), r.visible_len());
    prop_assert!(b.cells().eq(r.0.iter()), "cells differ");
    prop_assert_eq!(hash_of(b), hash_of(r));
    for p in probes {
        prop_assert_eq!(b.internal_ins_pos(p), r.internal_ins_pos(p), "ins pos {}", p);
        prop_assert_eq!(b.internal_target_pos(p), r.internal_target_pos(p), "target {}", p);
        prop_assert_eq!(b.visible_pos(p), r.visible_pos(p), "visible pos {}", p);
        prop_assert_eq!(b.cell(p), p.checked_sub(1).and_then(|i| r.0.get(i)), "cell {}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunked_buffer_matches_flat_vec(
        d0 in 0usize..200,
        // Steps are `(kind, position seed, value seed)`.
        script in proptest::collection::vec((0u8..16, any::<u32>(), any::<u32>()), 400..1200),
    ) {
        let text: String = (0..d0).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let mut b = Buffer::from_document(&CharDocument::from_str(&text));
        let mut r = VecBuffer(b.cells().cloned().collect());
        let (mut inserted, mut killed, mut updated) = (Vec::new(), Vec::new(), Vec::new());
        for (n, (kind, at, val)) in script.into_iter().enumerate() {
            let (len, at) = (b.len(), at as usize);
            // Mostly in range, sometimes one or two past either end.
            let pos = if at % 23 == 0 { [0, len + 1, len + 2][at % 3] } else { 1 + at % len.max(1) };
            let id = RequestId::new(1 + val % 3, n as u64 + 1);
            let by = (val % 5 != 0).then_some(id);
            let letter = Char(char::from(b'a' + (val % 26) as u8));
            match kind {
                0..=3 => {
                    let op = Op::Ins { pos, elem: letter };
                    prop_assert_eq!(b.apply(&op, by, None), r.apply(&op, by));
                    inserted.extend(by);
                }
                4 => {
                    let op = Op::Ins { pos: len + 1, elem: letter };
                    prop_assert_eq!(b.apply(&op, by, None), r.apply(&op, by));
                    inserted.extend(by);
                }
                5 => {
                    prop_assert_eq!(b.insert_ghost(pos, letter, id), r.insert(pos, VecBuffer::cell(letter, Some(id), true)));
                    inserted.push(id);
                }
                6 | 7 => {
                    // Stacked kills: the same cell is picked again often.
                    let op = Op::Del { pos, elem: letter };
                    prop_assert_eq!(b.apply(&op, by, None), r.apply(&op, by));
                    killed.extend(by);
                }
                8 => {
                    // A tombstone run of up to three chunks, from `pos`.
                    for p in pos..(pos + val as usize % 200).min(len + 1) {
                        let op = Op::Del { pos: p, elem: letter };
                        let kid = RequestId::new(4, (n * 1000 + p) as u64);
                        prop_assert_eq!(b.apply(&op, Some(kid), None), r.apply(&op, Some(kid)));
                        killed.push(kid);
                    }
                }
                9 => {
                    let op = Op::Up { pos, old: letter, new: letter };
                    prop_assert_eq!(b.apply(&op, by, None), r.apply(&op, by));
                    updated.extend(by);
                }
                10 if !inserted.is_empty() => {
                    let id = inserted[val as usize % inserted.len()];
                    prop_assert_eq!(b.ghost_created_by(id), r.ghost_created_by(id));
                }
                11 | 12 if !killed.is_empty() => {
                    let id = killed[val as usize % killed.len()];
                    prop_assert_eq!(b.withdraw_kill(id), r.withdraw_kill(id));
                }
                13 => prop_assert_eq!(b.unkill(pos), r.unkill(pos)),
                14 if !updated.is_empty() => {
                    let id = updated[val as usize % updated.len()];
                    let found = b.find_in_chain(id);
                    prop_assert_eq!(found, r.position(|c| c.chain.iter().any(|l| l.id == id)));
                    prop_assert_eq!(b.find_in_chain(RequestId::new(9, 1)), None);
                }
                _ => {}
            }
            let (len, vis) = (b.len(), b.visible_len());
            if n % 100 == 99 {
                agree(&b, &r, 0..=len + 2)?;
            } else {
                let probes = [0, 1, pos, pos + 1, vis, vis + 1, vis + 2, len, len + 1];
                agree(&b, &r, probes.into_iter().chain([1 + (at * 7 + n) % (len + 2)]))?;
            }
        }
        prop_assert_eq!(b.clone(), Buffer::from_cells(r.0.clone()));
        prop_assert_eq!(hash_of(&Buffer::from_cells(r.0.clone())), hash_of(&r));
    }
}
/// A locally valid edit at `e` in the benchmark's 60/25/15 mix.
fn mixed_edit(e: &Engine<Char>, rng: &mut StdRng) -> Op<Char> {
    let buf = e.buffer();
    let len = buf.visible_len();
    let letter = char::from(b'a' + rng.gen_range(0..26u8));
    let roll = rng.gen_range(0..100u32);
    if len == 0 || roll < 60 {
        return Op::ins(rng.gen_range(1..=len + 1), letter);
    }
    let pos = rng.gen_range(1..=len);
    let elem = buf.cell(buf.internal_target_pos(pos).unwrap()).unwrap().elem;
    if roll < 85 {
        Op::del(pos, elem)
    } else {
        Op::up(pos, elem, letter.to_ascii_uppercase())
    }
}

/// A seeded two-engine session: concurrent generation with batched
/// delivery, denials (integrated inert at the receiver, undone at the
/// origin), retroactive undo of settled entries, and compaction every
/// 192 steps. Returns both engines' `digest_into` values folded into
/// one hasher, and whether the documents converged.
fn pinned_session() -> (u64, bool) {
    let mut rng = StdRng::seed_from_u64(0x7B0F_F3E5);
    let d0 = CharDocument::from_str("tombstones");
    let mut eng = [Engine::new(1, d0.clone()), Engine::new(2, d0)];
    let mut inbox: [Vec<BroadcastRequest<Char>>; 2] = [Vec::new(), Vec::new()];
    for step in 1..=2_400u32 {
        let at = rng.gen_range(0..2usize);
        let op = mixed_edit(&eng[at], &mut rng);
        let req = eng[at].generate(op).unwrap();
        inbox[1 - at].push(req);
        if rng.gen_bool(0.3) {
            for to in 0..2 {
                for req in std::mem::take(&mut inbox[to]) {
                    if rng.gen_bool(0.04) {
                        eng[to].integrate_inert(&req).unwrap();
                        let _ = eng[1 - to].undo(req.id);
                    } else {
                        eng[to].integrate(&req).unwrap();
                    }
                }
            }
            if rng.gen_bool(0.1) {
                let live: Vec<_> = eng[0].log().iter().filter(|e| !e.inert).map(|e| e.id).collect();
                if !live.is_empty() {
                    let id = live[rng.gen_range(0..live.len())];
                    for e in &mut eng {
                        let _ = e.undo(id);
                    }
                }
            }
        }
        if step % 192 == 0 {
            for to in 0..2 {
                for req in std::mem::take(&mut inbox[to]) {
                    eng[to].integrate(&req).unwrap();
                }
            }
            for e in &mut eng {
                e.prune_stable(|_| true);
            }
        }
    }
    for to in 0..2 {
        for req in std::mem::take(&mut inbox[to]) {
            eng[to].integrate(&req).unwrap();
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for e in &eng {
        e.digest_into(&mut h);
    }
    (h.finish(), eng[0].document() == eng[1].document())
}

/// The pinned session's digest, computed when the buffer was a flat
/// `Vec<Cell>`: the chunked layout must hash and evolve identically.
#[test]
fn a_seeded_session_digest_is_pinned() {
    let (digest, converged) = pinned_session();
    assert!(converged, "the session's two replicas converge");
    assert_eq!(digest, 0xe0a9_5d1f_a504_557c);
}
