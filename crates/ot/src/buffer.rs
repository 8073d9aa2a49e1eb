//! Internal tombstone buffer: the engine's private document representation.
//!
//! Deleted elements are kept as *tombstones* (dead cells) instead of being
//! removed, so an element's internal position is never shifted by a
//! deletion. This makes the transformation functions of [`crate::transform`]
//! injective and order-stable — the well-known TP1 + TP2 guarantees of
//! tombstone transformation functions.
//!
//! Stronger still, **cells are never removed**: once an insertion has
//! claimed an internal position, that position exists at every site
//! forever. An insertion that is denied by the access-control layer, or
//! retroactively undone, becomes a *ghost* — an invisible cell that still
//! occupies its coordinate — so sites that transiently disagree about a
//! request's validity (the optimistic-security window of §4.2) still agree
//! about every operation's target position.
//!
//! The buffer is invisible outside the engine: users address documents with
//! the paper's 1-based *visible* positions, and the engine translates.

use crate::ids::{Clock, RequestId};
use dce_document::{ApplyError, Document, Element, Op, Position};

/// One link of a cell's provenance chain: a request that wrote this cell
/// (the insertion that created it, or an update), with everything undo
/// needs to re-decide the cell's value *without consulting the log* —
/// chains must survive log compaction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainLink<E> {
    /// The writing request.
    pub id: RequestId,
    /// The value it wrote.
    pub value: E,
    /// Which *earlier links of this same cell* were in the writer's causal
    /// context — the data that orders updates deterministically (causally
    /// later wins; concurrent ties break on site id). Absolute: derived
    /// from the request's broadcast context, identical at every site.
    pub saw: Vec<RequestId>,
}

/// One internal cell: an element that is visible unless deleted or ghosted,
/// plus the provenance bookkeeping undo needs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell<E> {
    /// The element value (the last value written, even if invisible).
    pub elem: E,
    /// The value the cell was created with (`D0` content or the inserted
    /// element) — the fallback when every update on the cell is undone.
    pub original: E,
    /// The insertion that created this cell (`None` for `D0` elements).
    pub creator: Option<RequestId>,
    /// `true` once the cell's insertion was invalidated or undone: the
    /// cell keeps its coordinate but can never become visible again.
    pub ghost: bool,
    /// Requests whose deletion of this cell is currently in force. The
    /// cell is invisible while any remain; undoing one deletion removes
    /// only that entry.
    pub killers: Vec<RequestId>,
    /// Deletions applied without a request identity (test/baseline use).
    pub anon_kills: u32,
    /// The *updates* applied to this cell, in local application order.
    pub chain: Vec<ChainLink<E>>,
}

impl<E> Cell<E> {
    /// `true` when the cell is visible.
    pub fn is_visible(&self) -> bool {
        !self.ghost && self.killers.is_empty() && self.anon_kills == 0
    }

    /// The last request that wrote this cell's value: the latest update,
    /// falling back to the creating insertion.
    pub fn last_writer(&self) -> Option<RequestId> {
        self.chain.last().map(|l| l.id).or(self.creator)
    }
}

/// The tombstone document buffer. Internal positions are 1-based over *all*
/// cells, visible or not.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Buffer<E> {
    cells: Vec<Cell<E>>,
}

impl<E: Element> Buffer<E> {
    /// Rebuilds a buffer from raw cells (snapshot restore).
    pub fn from_cells(cells: Vec<Cell<E>>) -> Self {
        Buffer { cells }
    }

    /// The raw cells, in internal order (snapshot capture).
    pub fn cells(&self) -> &[Cell<E>] {
        &self.cells
    }

    /// Builds a buffer from an initial visible document (all cells visible,
    /// empty provenance — they are `D0` elements).
    pub fn from_document(doc: &Document<E>) -> Self {
        Buffer {
            cells: doc
                .iter()
                .map(|e| Cell {
                    elem: e.clone(),
                    original: e.clone(),
                    creator: None,
                    ghost: false,
                    killers: Vec::new(),
                    anon_kills: 0,
                    chain: Vec::new(),
                })
                .collect(),
        }
    }

    /// Total number of cells, tombstones and ghosts included.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the buffer holds no cells at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of visible cells.
    pub fn visible_len(&self) -> usize {
        self.cells.iter().filter(|c| c.is_visible()).count()
    }

    /// The cell at internal position `p` (1-based).
    pub fn cell(&self, p: Position) -> Option<&Cell<E>> {
        if p == 0 {
            return None;
        }
        self.cells.get(p - 1)
    }

    /// Mutable cell access.
    pub fn cell_mut(&mut self, p: Position) -> Option<&mut Cell<E>> {
        if p == 0 {
            return None;
        }
        self.cells.get_mut(p - 1)
    }

    /// Materializes the visible document (visible cells in order).
    pub fn visible(&self) -> Document<E> {
        self.cells.iter().filter(|c| c.is_visible()).map(|c| c.elem.clone()).collect()
    }

    /// Internal position for *inserting* at visible position `v`: right
    /// after the `(v-1)`-th visible cell (before any tombstones separating
    /// it from the next visible element). `v` ranges over
    /// `1..=visible_len+1`.
    pub fn internal_ins_pos(&self, v: Position) -> Option<Position> {
        if v == 0 || v > self.visible_len() + 1 {
            return None;
        }
        if v == 1 {
            return Some(1);
        }
        let mut seen = 0usize;
        for (i, c) in self.cells.iter().enumerate() {
            if c.is_visible() {
                seen += 1;
                if seen == v - 1 {
                    return Some(i + 2);
                }
            }
        }
        None
    }

    /// Internal position of the `v`-th visible cell (target of `Del`/`Up`).
    pub fn internal_target_pos(&self, v: Position) -> Option<Position> {
        if v == 0 {
            return None;
        }
        let mut seen = 0usize;
        for (i, c) in self.cells.iter().enumerate() {
            if c.is_visible() {
                seen += 1;
                if seen == v {
                    return Some(i + 1);
                }
            }
        }
        None
    }

    /// Visible position of the visible cell at internal position `p`.
    pub fn visible_pos(&self, p: Position) -> Option<Position> {
        let cell = self.cell(p)?;
        if !cell.is_visible() {
            return None;
        }
        Some(self.cells[..p - 1].iter().filter(|c| c.is_visible()).count() + 1)
    }

    /// Applies an *internal-coordinate* operation with tombstone semantics:
    ///
    /// * `Ins(p, e)` — a new visible cell appears at internal position `p`;
    /// * `Del(p, _)` — one more deletion takes force on the cell at `p`
    ///   (stacking: two concurrent deletions must *both* be undone before
    ///   the element returns);
    /// * `Up(p, _, new)` — the cell's value becomes `new`, visible or not
    ///   (writing through tombstones keeps replicas convergent when an
    ///   update races a deletion);
    /// * `Nop` — nothing.
    ///
    /// `by` is recorded in the cell's provenance (`chain` for `Ins`/`Up`,
    /// `killers` for `Del`).
    /// `ctx` is the writing request's broadcast causal context; it
    /// determines which earlier writers of the cell the update *saw*
    /// (`None` means "all of them" — correct for locally generated
    /// operations and for sequential test use).
    pub fn apply(
        &mut self,
        op: &Op<E>,
        by: Option<RequestId>,
        ctx: Option<&Clock>,
    ) -> Result<(), ApplyError> {
        match op {
            Op::Nop => Ok(()),
            Op::Ins { pos, elem } => {
                if *pos == 0 || *pos > self.cells.len() + 1 {
                    return Err(ApplyError::OutOfBounds {
                        pos: *pos,
                        len: self.cells.len(),
                        max: self.cells.len() + 1,
                    });
                }
                self.cells.insert(
                    pos - 1,
                    Cell {
                        elem: elem.clone(),
                        original: elem.clone(),
                        creator: by,
                        ghost: false,
                        killers: Vec::new(),
                        anon_kills: 0,
                        chain: Vec::new(),
                    },
                );
                Ok(())
            }
            Op::Del { pos, .. } => {
                let len = self.cells.len();
                let cell = self.cell_mut(*pos).ok_or(ApplyError::OutOfBounds {
                    pos: *pos,
                    len,
                    max: len,
                })?;
                match by {
                    Some(id) => cell.killers.push(id),
                    None => cell.anon_kills += 1,
                }
                Ok(())
            }
            Op::Up { pos, new, .. } => {
                let len = self.cells.len();
                let cell = self.cell_mut(*pos).ok_or(ApplyError::OutOfBounds {
                    pos: *pos,
                    len,
                    max: len,
                })?;
                cell.elem = new.clone();
                if let Some(id) = by {
                    let saw = cell
                        .chain
                        .iter()
                        .filter(|l| ctx.map(|c| c.contains(l.id)).unwrap_or(true))
                        .map(|l| l.id)
                        .collect();
                    cell.chain.push(ChainLink { id, value: new.clone(), saw });
                }
                Ok(())
            }
        }
    }

    /// Inserts a *ghost* cell at internal position `p`: it occupies the
    /// coordinate but is never visible. Used when an insertion is
    /// integrated invalid.
    pub fn insert_ghost(&mut self, p: Position, elem: E, by: RequestId) -> Result<(), ApplyError> {
        if p == 0 || p > self.cells.len() + 1 {
            return Err(ApplyError::OutOfBounds {
                pos: p,
                len: self.cells.len(),
                max: self.cells.len() + 1,
            });
        }
        self.cells.insert(
            p - 1,
            Cell {
                elem: elem.clone(),
                original: elem,
                creator: Some(by),
                ghost: true,
                killers: Vec::new(),
                anon_kills: 0,
                chain: Vec::new(),
            },
        );
        Ok(())
    }

    /// Turns the cell created by `id` into a ghost (undo of an insertion).
    /// Returns its internal position.
    pub fn ghost_created_by(&mut self, id: RequestId) -> Option<Position> {
        let idx = self.cells.iter().position(|c| c.creator == Some(id))?;
        self.cells[idx].ghost = true;
        Some(idx + 1)
    }

    /// Withdraws `id`'s deletion (undo of a deletion). Returns the cell's
    /// internal position, or `None` when no cell records that killer.
    pub fn withdraw_kill(&mut self, id: RequestId) -> Option<Position> {
        let idx = self.cells.iter().position(|c| c.killers.contains(&id))?;
        self.cells[idx].killers.retain(|k| *k != id);
        Some(idx + 1)
    }

    /// Withdraws one anonymous deletion at `p` (test/baseline helper).
    /// Returns `true` if the cell became visible.
    pub fn unkill(&mut self, p: Position) -> bool {
        match self.cell_mut(p) {
            Some(c) if c.anon_kills > 0 => {
                c.anon_kills -= 1;
                c.is_visible()
            }
            _ => false,
        }
    }

    /// Internal position of the cell whose provenance chain contains `id`
    /// (used by update-undo).
    pub fn find_in_chain(&self, id: RequestId) -> Option<Position> {
        self.cells.iter().position(|c| c.chain.iter().any(|l| l.id == id)).map(|i| i + 1)
    }
}

impl Buffer<dce_document::Char> {
    /// Renders the visible text (test/debug helper for character buffers).
    pub fn visible_string(&self) -> String {
        self.cells.iter().filter(|c| c.is_visible()).map(|c| c.elem.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};

    fn buf(s: &str) -> Buffer<Char> {
        Buffer::from_document(&CharDocument::from_str(s))
    }

    fn rid(seq: u64) -> RequestId {
        RequestId::new(1, seq)
    }

    #[test]
    fn deletion_keeps_tombstone_and_stacks() {
        let mut b = buf("abc");
        b.apply(&Op::del(2, 'b'), Some(rid(1)), None).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.visible_len(), 2);
        assert_eq!(b.visible_string(), "ac");
        assert!(!b.cell(2).unwrap().is_visible());
        // A concurrent deletion stacks a second killer.
        b.apply(&Op::del(2, 'b'), Some(rid(2)), None).unwrap();
        assert_eq!(b.cell(2).unwrap().killers.len(), 2);
        // Both must be withdrawn before the element returns.
        assert_eq!(b.withdraw_kill(rid(1)), Some(2));
        assert_eq!(b.visible_string(), "ac");
        assert_eq!(b.withdraw_kill(rid(2)), Some(2));
        assert_eq!(b.visible_string(), "abc");
        assert_eq!(b.withdraw_kill(rid(9)), None);
    }

    #[test]
    fn insert_lands_between_cells() {
        let mut b = buf("abc");
        b.apply(&Op::ins(2, 'x'), Some(rid(1)), None).unwrap();
        assert_eq!(b.visible_string(), "axbc");
        assert_eq!(b.len(), 4);
        assert_eq!(b.cell(2).unwrap().creator, Some(rid(1)));
    }

    #[test]
    fn update_writes_through_tombstones() {
        let mut b = buf("abc");
        b.apply(&Op::del(2, 'b'), None, None).unwrap();
        b.apply(&Op::up(2, 'b', 'z'), Some(rid(1)), None).unwrap();
        assert_eq!(b.visible_string(), "ac");
        assert_eq!(b.cell(2).unwrap().elem, Char('z'));
        assert_eq!(b.cell(2).unwrap().chain.len(), 1);
        assert_eq!(b.cell(2).unwrap().chain[0].value, Char('z'));
        assert!(b.unkill(2));
        assert_eq!(b.visible_string(), "azc");
        assert_eq!(b.find_in_chain(rid(1)), Some(2));
        assert_eq!(b.find_in_chain(rid(7)), None);
    }

    #[test]
    fn visible_internal_mapping_skips_tombstones() {
        let mut b = buf("abcd");
        b.apply(&Op::del(2, 'b'), None, None).unwrap(); // cells a †b c d
        assert_eq!(b.visible_string(), "acd");
        assert_eq!(b.internal_target_pos(2), Some(3));
        assert_eq!(b.internal_ins_pos(2), Some(2));
        assert_eq!(b.internal_ins_pos(1), Some(1));
        assert_eq!(b.internal_ins_pos(4), Some(5));
        assert_eq!(b.internal_ins_pos(9), None);
        assert_eq!(b.internal_target_pos(9), None);
        assert_eq!(b.visible_pos(3), Some(2));
        assert_eq!(b.visible_pos(2), None); // tombstone has no visible pos
    }

    #[test]
    fn ghost_cells_hold_coordinates_invisibly() {
        let mut b = buf("abc");
        b.insert_ghost(2, Char('x'), rid(1)).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.visible_string(), "abc");
        // A later insertion addressed past the ghost lands consistently.
        b.apply(&Op::ins(3, 'y'), Some(rid(2)), None).unwrap();
        assert_eq!(b.visible_string(), "aybc");
        assert!(b.insert_ghost(99, Char('z'), rid(3)).is_err());
    }

    #[test]
    fn ghosting_an_insertion_hides_it_forever() {
        let mut b = buf("abc");
        b.apply(&Op::ins(2, 'x'), Some(rid(1)), None).unwrap();
        assert_eq!(b.visible_string(), "axbc");
        assert_eq!(b.ghost_created_by(rid(1)), Some(2));
        assert_eq!(b.visible_string(), "abc");
        assert_eq!(b.len(), 4);
        // Withdrawing a (nonexistent) kill cannot revive a ghost.
        assert_eq!(b.withdraw_kill(rid(1)), None);
        assert_eq!(b.ghost_created_by(rid(9)), None);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut b = buf("ab");
        assert!(b.apply(&Op::ins(9, 'x'), None, None).is_err());
        assert!(b.apply(&Op::del(3, 'x'), None, None).is_err());
        assert!(b.apply(&Op::up(0, 'a', 'b'), None, None).is_err());
    }

    #[test]
    fn visible_materializes_document() {
        let mut b = buf("abc");
        b.apply(&Op::del(2, 'b'), None, None).unwrap();
        let doc = b.visible();
        assert_eq!(doc.to_string(), "ac");
        assert_eq!(doc.len(), 2);
        assert!(!b.is_empty());
    }
}
