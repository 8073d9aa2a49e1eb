//! Inclusion (`IT`) and exclusion (`ET`) transformation functions over
//! tombstone (internal) coordinates.
//!
//! Positions refer to cells of the internal [`crate::buffer::Buffer`], where
//! deletions leave tombstones and therefore **never shift positions**. Only
//! insertions shift. This is the tombstone-transformation-function (TTF)
//! discipline: with it,
//!
//! * `IT` satisfies both convergence conditions TP1 and TP2 (deletions
//!   commute with everything positionally, and concurrent insertions are
//!   ordered by the deterministic site tie-break), and
//! * `IT` is injective, so `ET` recovers exactly the original form —
//!   which makes the paper's base-form broadcast (`ComputeBF`) and
//!   forward replay (`ComputeFF`) exact.
//!
//! The functions operate on [`TOp`], an operation tagged with its issuing
//! site (the insertion tie-break) and its base-form *origin* position (kept
//! for diagnostics and log inspection).

use crate::error::ExcludeError;
use crate::ids::SiteId;
use dce_document::{Element, Op, Position};
use std::fmt;

/// An operation together with the metadata used by the transformation
/// functions (`T` for "transformable").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TOp<E> {
    /// The positional operation in its current context (internal coords).
    pub op: Op<E>,
    /// Position of the operation in its broadcast base form. Stable across
    /// transformations; informational.
    pub origin: Position,
    /// The issuing site; tie-break for concurrent same-position insertions.
    pub site: SiteId,
}

impl<E: Element> TOp<E> {
    /// Wraps `op`, recording its current position as origin.
    pub fn new(op: Op<E>, site: SiteId) -> Self {
        let origin = op.pos().unwrap_or(0);
        TOp { op, origin, site }
    }

    /// Rebuilds the `TOp` with a different positional form, keeping metadata.
    pub fn with_op(&self, op: Op<E>) -> Self {
        TOp { op, origin: self.origin, site: self.site }
    }
}

impl<E: Element> fmt::Display for TOp<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@s{}(o{})", self.op, self.site, self.origin)
    }
}

/// Inclusion transformation `IT(o1, o2)`: the form of `o1` with the same
/// effect on a buffer where `o2` (concurrent, same generation context) has
/// already been executed.
pub fn include<E: Element>(o1: &TOp<E>, o2: &TOp<E>) -> TOp<E> {
    use Op::*;
    let out = match (&o1.op, &o2.op) {
        (Nop, _) | (_, Nop) => o1.op.clone(),

        (Ins { pos: p1, elem }, Ins { pos: p2, .. }) => {
            // Same position: the insertion from the smaller site keeps the
            // spot, the other shifts right (sites are unique, so this is a
            // total, globally consistent order).
            let shift = *p1 > *p2 || (*p1 == *p2 && o1.site > o2.site);
            Ins { pos: if shift { p1 + 1 } else { *p1 }, elem: elem.clone() }
        }
        // Deletions are tombstones: they shift nothing.
        (Ins { .. }, Del { .. }) | (Ins { .. }, Up { .. }) => o1.op.clone(),

        (Del { pos: p1, elem }, Ins { pos: p2, .. }) => {
            Del { pos: if *p1 >= *p2 { p1 + 1 } else { *p1 }, elem: elem.clone() }
        }
        // Deleting an already-deleted cell is a harmless no-op at apply
        // time; the position is unaffected either way.
        (Del { .. }, Del { .. }) => o1.op.clone(),
        (Del { pos: p1, .. }, Up { pos: p2, new, .. }) => {
            if p1 == p2 {
                // Carry the value the concurrent update wrote (metadata
                // accuracy; tombstone apply ignores the carried element).
                Del { pos: *p1, elem: new.clone() }
            } else {
                o1.op.clone()
            }
        }

        (Up { pos: p1, old, new }, Ins { pos: p2, .. }) => {
            Up { pos: if *p1 >= *p2 { p1 + 1 } else { *p1 }, old: old.clone(), new: new.clone() }
        }
        // Updates write through tombstones, so a concurrent deletion does
        // not disturb them.
        (Up { .. }, Del { .. }) => o1.op.clone(),
        (Up { pos: p1, new, .. }, Up { pos: p2, new: n2, .. }) => {
            if p1 == p2 {
                // Concurrent updates of the same cell: the larger site wins
                // deterministically. The loser becomes an *identity update*
                // (writes the winner's value back) rather than a `Nop`, so
                // that it still registers on the cell's provenance chain —
                // undoing the winner later must be able to fall back to the
                // loser's value at every site.
                if o1.site > o2.site {
                    Up { pos: *p1, old: n2.clone(), new: new.clone() }
                } else {
                    Up { pos: *p1, old: n2.clone(), new: n2.clone() }
                }
            } else {
                o1.op.clone()
            }
        }
    };
    o1.with_op(out)
}

/// Exclusion transformation `ET(o1, o2)`: given `o1` defined on a buffer
/// where `o2` has been executed, the form of `o1` on the buffer *before*
/// `o2`. Exact (inverse of [`include()`](fn@include)) thanks to tombstone coordinates.
///
/// Fails with [`ExcludeError`] when `o1` semantically depends on `o2`: it
/// operates on the cell `o2` inserted, or chains on a value `o2` did not
/// write.
pub fn exclude<E: Element>(o1: &TOp<E>, o2: &TOp<E>) -> Result<TOp<E>, ExcludeError> {
    use Op::*;
    let out = match (&o1.op, &o2.op) {
        (Nop, _) | (_, Nop) => o1.op.clone(),

        (Ins { pos: p1, elem }, Ins { pos: p2, .. }) => {
            Ins { pos: if *p1 > *p2 { p1 - 1 } else { *p1 }, elem: elem.clone() }
        }
        (Ins { .. }, Del { .. }) | (Ins { .. }, Up { .. }) => o1.op.clone(),

        (Del { pos: p1, elem }, Ins { pos: p2, .. }) => match p1.cmp(p2) {
            std::cmp::Ordering::Less => o1.op.clone(),
            std::cmp::Ordering::Greater => Del { pos: p1 - 1, elem: elem.clone() },
            std::cmp::Ordering::Equal => {
                return Err(ExcludeError {
                    reason: format!(
                        "Del at {p1} targets the cell inserted by the excluded operation"
                    ),
                })
            }
        },
        (Del { .. }, Del { .. }) => o1.op.clone(),
        (Del { pos: p1, elem }, Up { pos: p2, old, new }) => {
            if p1 == p2 {
                if elem != new {
                    return Err(ExcludeError {
                        reason: format!(
                            "Del at {p1} carries an element that does not match the excluded update"
                        ),
                    });
                }
                Del { pos: *p1, elem: old.clone() }
            } else {
                o1.op.clone()
            }
        }

        (Up { pos: p1, old, new }, Ins { pos: p2, .. }) => match p1.cmp(p2) {
            std::cmp::Ordering::Less => o1.op.clone(),
            std::cmp::Ordering::Greater => Up { pos: p1 - 1, old: old.clone(), new: new.clone() },
            std::cmp::Ordering::Equal => {
                return Err(ExcludeError {
                    reason: format!(
                        "Up at {p1} targets the cell inserted by the excluded operation"
                    ),
                })
            }
        },
        (Up { .. }, Del { .. }) => o1.op.clone(),
        (Up { pos: p1, old, new }, Up { pos: p2, old: prev_old, new: prev_new }) => {
            if p1 == p2 {
                if old != prev_new {
                    return Err(ExcludeError {
                        reason: format!(
                            "Up at {p1} reads a value that does not match the excluded update"
                        ),
                    });
                }
                Up { pos: *p1, old: prev_old.clone(), new: new.clone() }
            } else {
                o1.op.clone()
            }
        }
    };
    Ok(o1.with_op(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use dce_document::{Char, CharDocument};

    fn t(op: Op<Char>, site: SiteId) -> TOp<Char> {
        TOp::new(op, site)
    }

    fn buf(s: &str) -> Buffer<Char> {
        Buffer::from_document(&CharDocument::from_str(s))
    }

    /// Checks TP1 for a pair of concurrent operations on `state`, comparing
    /// the *internal* buffers (stronger than visible-state equality).
    fn assert_tp1(state: &str, o1: TOp<Char>, o2: TOp<Char>) {
        let base = buf(state);

        let mut b1 = base.clone();
        b1.apply(&o1.op, None, None).expect("o1 applies to base");
        b1.apply(&include(&o2, &o1).op, None, None).expect("IT(o2,o1) applies");

        let mut b2 = base;
        b2.apply(&o2.op, None, None).expect("o2 applies to base");
        b2.apply(&include(&o1, &o2).op, None, None).expect("IT(o1,o2) applies");

        assert_eq!(b1, b2, "TP1 violated for {o1} / {o2} on {state:?}");
    }

    /// Checks TP2: for three pairwise-concurrent operations,
    /// transforming `o3` along `o1;IT(o2,o1)` equals transforming it along
    /// `o2;IT(o1,o2)`.
    fn assert_tp2(o1: &TOp<Char>, o2: &TOp<Char>, o3: &TOp<Char>) {
        let path_a = include(&include(o3, o1), &include(o2, o1));
        let path_b = include(&include(o3, o2), &include(o1, o2));
        assert_eq!(path_a.op, path_b.op, "TP2 violated for {o1} / {o2} / {o3}");
    }

    fn all_ops(site: SiteId, len: usize) -> Vec<TOp<Char>> {
        let mut v = Vec::new();
        for p in 1..=len {
            let e = (b'a' + (p - 1) as u8) as char;
            v.push(t(Op::ins(p, (b'0' + site as u8) as char), site));
            v.push(t(Op::del(p, e), site));
            v.push(t(Op::up(p, e, (b'A' + site as u8) as char), site));
        }
        v.push(t(Op::ins(len + 1, (b'0' + site as u8) as char), site));
        v.push(t(Op::Nop, site));
        v
    }

    #[test]
    fn tp1_exhaustive_pairs() {
        for o1 in all_ops(1, 3) {
            for o2 in all_ops(2, 3) {
                assert_tp1("abc", o1.clone(), o2);
            }
        }
    }

    #[test]
    fn tp2_exhaustive_triples() {
        // ~17^3 ≈ 5k triples — cheap, and this is the property whose
        // violation sank a generation of published OT function sets.
        let ops1 = all_ops(1, 3);
        let ops2 = all_ops(2, 3);
        let ops3 = all_ops(3, 3);
        for o1 in &ops1 {
            for o2 in &ops2 {
                for o3 in &ops3 {
                    assert_tp2(o1, o2, o3);
                }
            }
        }
    }

    #[test]
    fn deletions_do_not_shift() {
        let ins = t(Op::ins(5, 'x'), 1);
        let del = t(Op::del(2, 'b'), 2);
        assert_eq!(include(&ins, &del).op.pos(), Some(5));
        let del2 = t(Op::del(4, 'd'), 1);
        assert_eq!(include(&del2, &del).op.pos(), Some(4));
    }

    #[test]
    fn insertions_shift_later_positions() {
        let ins = t(Op::ins(2, 'x'), 2);
        assert_eq!(include(&t(Op::del(4, 'd'), 1), &ins).op.pos(), Some(5));
        assert_eq!(include(&t(Op::del(1, 'a'), 1), &ins).op.pos(), Some(1));
        assert_eq!(include(&t(Op::up(2, 'b', 'B'), 1), &ins).op.pos(), Some(3));
        assert_eq!(include(&t(Op::ins(2, 'y'), 1), &ins).op.pos(), Some(2)); // site 1 wins tie
        assert_eq!(include(&t(Op::ins(2, 'y'), 3), &ins).op.pos(), Some(3)); // site 3 loses
    }

    #[test]
    fn del_over_concurrent_update_carries_new_element() {
        let del = t(Op::del(2, 'b'), 1);
        let up = t(Op::up(2, 'b', 'z'), 2);
        assert_eq!(include(&del, &up).op, Op::del(2, 'z'));
        // The update survives the delete (writes through the tombstone).
        assert_eq!(include(&up, &del).op, Op::up(2, 'b', 'z'));
    }

    #[test]
    fn concurrent_updates_same_cell_deterministic_winner() {
        let u1 = t(Op::up(2, 'b', 'x'), 1);
        let u2 = t(Op::up(2, 'b', 'y'), 2);
        assert_tp1("abc", u1.clone(), u2.clone());
        assert_eq!(include(&u2, &u1).op, Op::up(2, 'x', 'y'));
        // The loser becomes an identity update carrying the winner's value.
        assert_eq!(include(&u1, &u2).op, Op::up(2, 'y', 'y'));
    }

    #[test]
    fn exclude_inverts_include_for_independent_ops() {
        for o1 in all_ops(1, 3) {
            for o2 in all_ops(2, 3) {
                let included = include(&o1, &o2);
                let absorbed = matches!(
                    (&included.op, &o1.op),
                    (Op::Up { old, new, .. }, Op::Up { old: o, new: n, .. })
                        if old == new && (o, n) != (old, new)
                );
                if absorbed {
                    // o1 lost a same-cell update conflict and became an
                    // identity update: its own value cannot round-trip.
                    continue;
                }
                match exclude(&included, &o2) {
                    Ok(back) => {
                        assert_eq!(back.op, o1.op, "ET(IT({o1},{o2}),{o2}) did not round-trip")
                    }
                    Err(e) => panic!("exclusion of independent pair failed: {o1} / {o2}: {e}"),
                }
            }
        }
    }

    #[test]
    fn exclude_detects_semantic_dependency() {
        let ins = t(Op::ins(2, 'x'), 2);
        assert!(exclude(&t(Op::del(2, 'x'), 1), &ins).is_err());
        assert!(exclude(&t(Op::up(2, 'x', 'y'), 1), &ins).is_err());
        // Chained update on a pre-existing element: defined, rewrites value.
        let up1 = t(Op::up(2, 'x', 'y'), 2);
        assert_eq!(exclude(&t(Op::up(2, 'y', 'z'), 1), &up1).unwrap().op, Op::up(2, 'x', 'z'));
        // Mismatching value chain is an error.
        assert!(exclude(&t(Op::up(2, 'q', 'z'), 1), &up1).is_err());
        assert!(exclude(&t(Op::del(2, 'q'), 1), &up1).is_err());
    }

    #[test]
    fn exclude_del_after_update_recovers_old_element() {
        let del = t(Op::del(2, 'y'), 1);
        let up = t(Op::up(2, 'x', 'y'), 2);
        assert_eq!(exclude(&del, &up).unwrap().op, Op::del(2, 'x'));
    }

    #[test]
    fn nop_is_neutral_for_both_directions() {
        let op = t(Op::ins(2, 'x'), 1);
        let nop = t(Op::Nop, 2);
        assert_eq!(include(&op, &nop).op, op.op);
        assert_eq!(include(&nop, &op).op, Op::Nop);
        assert_eq!(exclude(&op, &nop).unwrap().op, op.op);
        assert_eq!(exclude(&nop, &op).unwrap().op, Op::Nop);
    }

    #[test]
    fn include_preserves_origin_and_site() {
        let mut a = t(Op::ins(2, 'x'), 7);
        a.origin = 9;
        let b = t(Op::ins(1, 'y'), 3);
        let out = include(&a, &b);
        assert_eq!(out.origin, 9);
        assert_eq!(out.site, 7);
        assert_eq!(out.op.pos(), Some(3));
    }
}
