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
//!
//! # Layout
//!
//! Since cells are never removed, a session's buffer only grows, and a
//! flat vector would make every visible↔internal translation a scan of the
//! whole session and every insertion a move of its tail. The cells are
//! kept instead in *chunks* of at most a constant number of consecutive
//! cells; each chunk caches how many of its cells are visible, and a
//! Fenwick tree over the chunks holds the running cell and visible
//! totals. So:
//!
//! * `visible_len` reads a cached total;
//! * `cell`, `internal_ins_pos`, `internal_target_pos` and `visible_pos`
//!   descend the tree to one chunk (O(log cells)) and scan that chunk only;
//! * an insertion shifts the cells of one chunk; a chunk that overflows
//!   splits in two, and the tree is rebuilt in O(chunks), once per half a
//!   chunk of insertions into it.
//!
//! The visible counts stay exact because every write to a cell goes
//! through the buffer: `apply`, `insert_ghost`, `ghost_created_by`,
//! `withdraw_kill` and `unkill` here, and the engine through a
//! crate-private guard that recounts the cell's visibility when dropped.
//! Engine compaction rewrites provenance chains through an iterator that
//! hands out chains only, never the visibility fields.

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

impl<E: Clone> Cell<E> {
    /// A cell with no deletions and no updates yet.
    fn new(elem: E, creator: Option<RequestId>, ghost: bool) -> Self {
        Cell {
            original: elem.clone(),
            elem,
            creator,
            ghost,
            killers: Vec::new(),
            anon_kills: 0,
            chain: Vec::new(),
        }
    }
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

/// Most cells one chunk holds; an insertion into a full chunk splits it in
/// two halves.
const CHUNK: usize = 64;

/// A run of consecutive cells and the number of them that are visible.
#[derive(Clone)]
struct Chunk<E> {
    cells: Vec<Cell<E>>,
    visible: usize,
}

impl<E> Chunk<E> {
    fn with_cells(cells: Vec<Cell<E>>) -> Self {
        let visible = cells.iter().filter(|c| c.is_visible()).count();
        Chunk { cells, visible }
    }
}

/// Cell and visible-cell totals of a range of chunks.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    cells: usize,
    visible: usize,
}

/// The tombstone document buffer. Internal positions are 1-based over *all*
/// cells, visible or not.
///
/// Equality, `Debug` and `Hash` see only the cell sequence, never the chunk
/// layout: `Hash` feeds the length, then every cell in order, exactly as
/// the hash of a `Vec<Cell<E>>` does, so engine digests do not depend on
/// how the cells happen to be chunked.
#[derive(Clone)]
pub struct Buffer<E> {
    chunks: Vec<Chunk<E>>,
    /// Fenwick tree over `chunks`: node `i` (1-based) sums the chunks
    /// `(i - lowbit(i), i]`.
    tree: Vec<Counts>,
    len: usize,
    visible: usize,
}

impl<E> Default for Buffer<E> {
    fn default() -> Self {
        Buffer { chunks: Vec::new(), tree: Vec::new(), len: 0, visible: 0 }
    }
}

impl<E> Buffer<E> {
    /// The cells, in internal order (snapshot capture).
    pub fn cells(&self) -> impl Iterator<Item = &Cell<E>> + '_ {
        self.chunks.iter().flat_map(|c| c.cells.iter())
    }

    /// Every cell's provenance chain, in internal order. Only chains are
    /// handed out, so the caller cannot change a cell's visibility behind
    /// the cached counts.
    pub(crate) fn chains_mut(&mut self) -> impl Iterator<Item = &mut Vec<ChainLink<E>>> + '_ {
        self.chunks.iter_mut().flat_map(|c| c.cells.iter_mut().map(|cell| &mut cell.chain))
    }

    /// Rebuilds the Fenwick tree from the chunks' own counts, in O(chunks).
    fn rebuild(&mut self) {
        self.tree = self
            .chunks
            .iter()
            .map(|c| Counts { cells: c.cells.len(), visible: c.visible })
            .collect();
        for i in 1..=self.tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent <= self.tree.len() {
                let Counts { cells, visible } = self.tree[i - 1];
                self.tree[parent - 1].cells += cells;
                self.tree[parent - 1].visible += visible;
            }
        }
    }

    /// Adds `cells` cells and `visible` visible cells to chunk `ci`'s
    /// entries in the tree.
    fn bump(&mut self, ci: usize, cells: usize, visible: isize) {
        let mut i = ci + 1;
        while i <= self.tree.len() {
            let node = &mut self.tree[i - 1];
            node.cells += cells;
            node.visible = node.visible.wrapping_add_signed(visible);
            i += i & i.wrapping_neg();
        }
    }

    /// The first chunk whose running total of `key` reaches `k`, with the
    /// totals of the chunks before it. `k` must lie between 1 and the
    /// buffer-wide total of `key`.
    fn seek(&self, k: usize, key: impl Fn(&Counts) -> usize) -> (usize, Counts) {
        let mut ci = 0;
        let mut before = Counts::default();
        let mut step = if self.tree.is_empty() { 0 } else { 1 << self.tree.len().ilog2() };
        while step > 0 {
            if let Some(node) = self.tree.get(ci + step - 1) {
                if key(&before) + key(node) < k {
                    ci += step;
                    before.cells += node.cells;
                    before.visible += node.visible;
                }
            }
            step >>= 1;
        }
        (ci, before)
    }

    /// Chunk, offset in it, and the totals of the chunks before it, of the
    /// cell at internal position `p`.
    fn locate(&self, p: Position) -> Option<(usize, usize, Counts)> {
        if p == 0 || p > self.len {
            return None;
        }
        let (ci, before) = self.seek(p, |c| c.cells);
        Some((ci, p - 1 - before.cells, before))
    }
}

/// Mutable access to one cell. Dropping it brings the visible counts up to
/// date if the edit changed the cell's visibility, so the counts stay exact
/// whichever field the caller wrote.
pub(crate) struct CellMut<'a, E> {
    buf: &'a mut Buffer<E>,
    chunk: usize,
    off: usize,
    was_visible: bool,
}

impl<E> std::ops::Deref for CellMut<'_, E> {
    type Target = Cell<E>;
    fn deref(&self) -> &Cell<E> {
        &self.buf.chunks[self.chunk].cells[self.off]
    }
}

impl<E> std::ops::DerefMut for CellMut<'_, E> {
    fn deref_mut(&mut self) -> &mut Cell<E> {
        &mut self.buf.chunks[self.chunk].cells[self.off]
    }
}

impl<E> Drop for CellMut<'_, E> {
    fn drop(&mut self) {
        let delta = match (self.was_visible, self.is_visible()) {
            (false, true) => 1,
            (true, false) => -1,
            _ => return,
        };
        let chunk = &mut self.buf.chunks[self.chunk];
        chunk.visible = chunk.visible.wrapping_add_signed(delta);
        self.buf.visible = self.buf.visible.wrapping_add_signed(delta);
        self.buf.bump(self.chunk, 0, delta);
    }
}

impl<E: Element> Buffer<E> {
    /// Rebuilds a buffer from raw cells (snapshot restore).
    pub fn from_cells(cells: Vec<Cell<E>>) -> Self {
        let mut buf = Buffer { len: cells.len(), ..Buffer::default() };
        let mut cells = cells.into_iter().peekable();
        while cells.peek().is_some() {
            let mut run = Vec::with_capacity(CHUNK + 1);
            run.extend(cells.by_ref().take(CHUNK));
            buf.chunks.push(Chunk::with_cells(run));
        }
        buf.visible = buf.chunks.iter().map(|c| c.visible).sum();
        buf.rebuild();
        buf
    }

    /// Builds a buffer from an initial visible document (all cells visible,
    /// empty provenance — they are `D0` elements).
    pub fn from_document(doc: &Document<E>) -> Self {
        Buffer::from_cells(doc.iter().map(|e| Cell::new(e.clone(), None, false)).collect())
    }

    /// Total number of cells, tombstones and ghosts included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of visible cells.
    pub fn visible_len(&self) -> usize {
        self.visible
    }

    /// The cell at internal position `p` (1-based).
    pub fn cell(&self, p: Position) -> Option<&Cell<E>> {
        let (ci, off, _) = self.locate(p)?;
        Some(&self.chunks[ci].cells[off])
    }

    /// Mutable cell access.
    pub(crate) fn cell_mut(&mut self, p: Position) -> Option<CellMut<'_, E>> {
        let (ci, off, _) = self.locate(p)?;
        Some(self.at_mut(ci, off))
    }

    fn at_mut(&mut self, chunk: usize, off: usize) -> CellMut<'_, E> {
        let was_visible = self.chunks[chunk].cells[off].is_visible();
        CellMut { buf: self, chunk, off, was_visible }
    }

    /// Materializes the visible document (visible cells in order).
    pub fn visible(&self) -> Document<E> {
        self.cells().filter(|c| c.is_visible()).map(|c| c.elem.clone()).collect()
    }

    /// Internal position for *inserting* at visible position `v`: right
    /// after the `(v-1)`-th visible cell (before any tombstones separating
    /// it from the next visible element). `v` ranges over
    /// `1..=visible_len+1`.
    pub fn internal_ins_pos(&self, v: Position) -> Option<Position> {
        match v {
            0 => None,
            1 => Some(1),
            _ => self.internal_target_pos(v - 1).map(|p| p + 1),
        }
    }

    /// Internal position of the `v`-th visible cell (target of `Del`/`Up`).
    pub fn internal_target_pos(&self, v: Position) -> Option<Position> {
        if v == 0 || v > self.visible {
            return None;
        }
        let (ci, before) = self.seek(v, |c| c.visible);
        let nth = v - before.visible - 1;
        let (off, _) =
            self.chunks[ci].cells.iter().enumerate().filter(|(_, c)| c.is_visible()).nth(nth)?;
        Some(before.cells + off + 1)
    }

    /// Visible position of the visible cell at internal position `p`.
    pub fn visible_pos(&self, p: Position) -> Option<Position> {
        let (ci, off, before) = self.locate(p)?;
        let cells = &self.chunks[ci].cells;
        if !cells[off].is_visible() {
            return None;
        }
        Some(before.visible + cells[..off].iter().filter(|c| c.is_visible()).count() + 1)
    }

    /// Inserts `cell` at internal position `p`.
    fn insert(&mut self, p: Position, cell: Cell<E>) -> Result<(), ApplyError> {
        if p == 0 || p > self.len + 1 {
            return Err(ApplyError::OutOfBounds { pos: p, len: self.len, max: self.len + 1 });
        }
        let (ci, off) = match self.locate(p) {
            Some((ci, off, _)) => (ci, off),
            // Appending: fill the last chunk, then open a new one, so runs
            // typed at the end pack densely.
            None => match self.chunks.last() {
                Some(last) if last.cells.len() < CHUNK => (self.chunks.len() - 1, last.cells.len()),
                _ => {
                    self.chunks.push(Chunk { cells: Vec::with_capacity(CHUNK + 1), visible: 0 });
                    self.rebuild();
                    (self.chunks.len() - 1, 0)
                }
            },
        };
        let visible = usize::from(cell.is_visible());
        self.len += 1;
        self.visible += visible;
        let chunk = &mut self.chunks[ci];
        chunk.cells.insert(off, cell);
        chunk.visible += visible;
        if chunk.cells.len() > CHUNK {
            let mut tail = Vec::with_capacity(CHUNK + 1);
            tail.extend(chunk.cells.drain(chunk.cells.len() / 2..));
            let tail = Chunk::with_cells(tail);
            chunk.visible -= tail.visible;
            self.chunks.insert(ci + 1, tail);
            self.rebuild();
        } else {
            self.bump(ci, 1, visible as isize);
        }
        Ok(())
    }

    /// The first cell satisfying `pred`: its chunk, offset and internal
    /// position.
    fn find(&self, mut pred: impl FnMut(&Cell<E>) -> bool) -> Option<(usize, usize, Position)> {
        let mut before = 0;
        for (ci, chunk) in self.chunks.iter().enumerate() {
            if let Some(off) = chunk.cells.iter().position(&mut pred) {
                return Some((ci, off, before + off + 1));
            }
            before += chunk.cells.len();
        }
        None
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
        let len = self.len;
        let missing = |pos: Position| ApplyError::OutOfBounds { pos, len, max: len };
        match op {
            Op::Nop => Ok(()),
            Op::Ins { pos, elem } => self.insert(*pos, Cell::new(elem.clone(), by, false)),
            Op::Del { pos, .. } => {
                let mut cell = self.cell_mut(*pos).ok_or_else(|| missing(*pos))?;
                match by {
                    Some(id) => cell.killers.push(id),
                    None => cell.anon_kills += 1,
                }
                Ok(())
            }
            Op::Up { pos, new, .. } => {
                let mut cell = self.cell_mut(*pos).ok_or_else(|| missing(*pos))?;
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
        self.insert(p, Cell::new(elem, Some(by), true))
    }

    /// Turns the cell created by `id` into a ghost (undo of an insertion).
    /// Returns its internal position.
    pub fn ghost_created_by(&mut self, id: RequestId) -> Option<Position> {
        let (ci, off, p) = self.find(|c| c.creator == Some(id))?;
        self.at_mut(ci, off).ghost = true;
        Some(p)
    }

    /// Withdraws `id`'s deletion (undo of a deletion). Returns the cell's
    /// internal position, or `None` when no cell records that killer.
    pub fn withdraw_kill(&mut self, id: RequestId) -> Option<Position> {
        let (ci, off, p) = self.find(|c| c.killers.contains(&id))?;
        self.at_mut(ci, off).killers.retain(|k| *k != id);
        Some(p)
    }

    /// Withdraws one anonymous deletion at `p` (test/baseline helper).
    /// Returns `true` if the cell became visible.
    pub fn unkill(&mut self, p: Position) -> bool {
        match self.cell_mut(p) {
            Some(mut c) if c.anon_kills > 0 => {
                c.anon_kills -= 1;
                c.is_visible()
            }
            _ => false,
        }
    }

    /// Internal position of the cell whose provenance chain contains `id`
    /// (used by update-undo).
    pub fn find_in_chain(&self, id: RequestId) -> Option<Position> {
        self.find(|c| c.chain.iter().any(|l| l.id == id)).map(|(_, _, p)| p)
    }
}

impl<E: PartialEq> PartialEq for Buffer<E> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.cells().eq(other.cells())
    }
}

impl<E: Eq> Eq for Buffer<E> {}

impl<E: std::hash::Hash> std::hash::Hash for Buffer<E> {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.len.hash(h);
        for c in self.cells() {
            c.hash(h);
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for Buffer<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.cells()).finish()
    }
}

impl Buffer<dce_document::Char> {
    /// Renders the visible text (test/debug helper for character buffers).
    pub fn visible_string(&self) -> String {
        self.cells().filter(|c| c.is_visible()).map(|c| c.elem.0).collect()
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
