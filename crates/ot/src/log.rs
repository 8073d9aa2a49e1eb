//! The cooperative-request log `H`, kept in canonical form.
//!
//! §5 of the paper relies on a particular class of logs, called *canonical*,
//! "where insertion requests are stored before deletion requests in order to
//! ensure data convergence". [`Log`] stores [`LogEntry`] values in execution
//! order and restores canonicity after every append with the `Canonize`
//! procedure: the appended insertion is bubbled left past every
//! deletion/update entry by [`transpose()`](crate::transpose::transpose),
//! an `O(|Hdu|)` pass exactly as the paper's complexity analysis states.

use crate::ids::{Clock, RequestId};
use crate::transform::TOp;
use crate::transpose::transpose;
use dce_document::{Element, Op, OpKind};
use serde::{Deserialize, Serialize};

/// One request stored in the log.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogEntry<E> {
    /// Request identity.
    pub id: RequestId,
    /// Direct semantic dependency (`q.a` in the paper): the last request
    /// that touched the element this request operates on.
    pub dep: Option<RequestId>,
    /// Current, context-specific form. Rewritten by transposition. Inert
    /// entries (invalid or undone) hold [`Op::Nop`] here.
    pub top: TOp<E>,
    /// The broadcast base form, immutable — kept for replay/debugging and
    /// for re-checking against later policy versions.
    pub base: Op<E>,
    /// `true` once the entry has no document effect (stored invalid, or
    /// retroactively undone).
    pub inert: bool,
    /// The request's causal generation context (used to order concurrent
    /// updates deterministically when one of them is undone).
    pub ctx: Clock,
}

impl<E: Element> LogEntry<E> {
    /// `true` when the current form is an insertion (the canonical class
    /// that must precede everything else).
    fn is_ins(&self) -> bool {
        self.top.op.kind() == OpKind::Ins
    }

    /// Marks the entry inert, replacing its current form with `Nop`
    /// (deletions and updates — no positional influence under tombstone
    /// coordinates).
    pub fn make_inert(&mut self) {
        self.top.op = Op::Nop;
        self.inert = true;
    }

    /// Marks the entry inert while keeping its positional form (insertions:
    /// the ghost cell still occupies its coordinate, so the form must keep
    /// shifting later transformations).
    pub fn make_inert_keep_form(&mut self) {
        self.inert = true;
    }
}

/// The cooperative log `H`: entries in execution order, canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Log<E> {
    entries: Vec<LogEntry<E>>,
}

impl<E: Element> Log<E> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Log { entries: Vec::new() }
    }

    /// Number of entries, including inert ones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no request has been integrated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry<E>> {
        self.entries.iter()
    }

    /// Entries as a slice.
    pub fn as_slice(&self) -> &[LogEntry<E>] {
        &self.entries
    }

    /// Index of the entry with identity `id`.
    pub fn index_of(&self, id: RequestId) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// Looks up an entry by identity.
    pub fn get(&self, id: RequestId) -> Option<&LogEntry<E>> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable lookup by identity.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut LogEntry<E>> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Entry at a given index.
    pub fn entry(&self, idx: usize) -> &LogEntry<E> {
        &self.entries[idx]
    }

    /// Number of insertion entries (by current form).
    pub fn ins_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_ins()).count()
    }

    /// `true` when every insertion precedes every non-insertion.
    pub fn is_canonical(&self) -> bool {
        let mut seen_non_ins = false;
        for e in &self.entries {
            if e.is_ins() {
                if seen_non_ins {
                    return false;
                }
            } else {
                seen_non_ins = true;
            }
        }
        true
    }

    /// Walks the semantic-dependency chain starting at `dep`, returning the
    /// chain oldest-first (the insertion that created the element, then each
    /// update). Returns `None` if a link is missing from the log.
    pub fn chain_of(&self, dep: Option<RequestId>) -> Option<Vec<RequestId>> {
        let mut chain = Vec::new();
        let mut cursor = dep;
        while let Some(id) = cursor {
            let entry = self.get(id)?;
            chain.push(id);
            cursor = entry.dep;
        }
        chain.reverse();
        Some(chain)
    }

    /// Appends `entry` and restores canonicity (`Canonize([H; q])`): if the
    /// new entry is an insertion it is bubbled left past every
    /// deletion/update/inert entry — `O(|Hdu|)` transpositions.
    ///
    /// # Panics
    ///
    /// Panics if a transposition is undefined, which would indicate a
    /// dependency between an insertion and an earlier entry — impossible by
    /// construction (insertions depend on nothing).
    pub fn push_canonical(&mut self, entry: LogEntry<E>) -> u64 {
        self.entries.push(entry);
        canonize_last(&mut self.entries, |e| &mut e.top)
    }

    /// Appends `entry` without canonizing (used when rebuilding a log from
    /// an already-canonical sequence).
    pub fn push_raw(&mut self, entry: LogEntry<E>) {
        self.entries.push(entry);
    }

    /// Replaces the whole entry sequence (used by tests and snapshots).
    pub fn replace_entries(&mut self, entries: Vec<LogEntry<E>>) {
        self.entries = entries;
    }

    /// Removes and returns the first `n` entries (log compaction — see
    /// `Engine::prune_prefix`).
    pub fn drain_prefix(&mut self, n: usize) -> Vec<LogEntry<E>> {
        self.entries.drain(..n.min(self.entries.len())).collect()
    }
}

/// `Canonize` on any sequence of forms whose last item was just appended:
/// if it is an insertion, bubbles it left past every non-insertion,
/// transposing the two forms and swapping the items in place. Returns the
/// transpositions spent. Panics as [`Log::push_canonical`] does.
pub(crate) fn canonize_last<T, E: Element>(
    items: &mut [T],
    form: fn(&mut T) -> &mut TOp<E>,
) -> u64 {
    let is_ins = |item: &mut T| form(item).op.kind() == OpKind::Ins;
    let Some(mut i) = items.len().checked_sub(1) else { return 0 };
    if !is_ins(&mut items[i]) {
        return 0;
    }
    while i > 0 && !is_ins(&mut items[i - 1]) {
        let (left, right) = items.split_at_mut(i);
        let (left, right) = (form(&mut left[i - 1]), form(&mut right[0]));
        let (moved, stayed) = transpose(left, right)
            .expect("canonize transposition is always defined for insertions");
        (*left, *right) = (stayed, moved);
        items.swap(i - 1, i);
        i -= 1;
    }
    (items.len() - 1 - i) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};

    fn entry(id: u64, op: Op<Char>) -> LogEntry<Char> {
        LogEntry {
            id: RequestId::new(1, id),
            dep: None,
            top: TOp::new(op, 1),
            base: Op::Nop,
            inert: false,
            ctx: Clock::new(),
        }
    }

    fn replay(log: &Log<Char>, initial: &str) -> String {
        let mut b = crate::buffer::Buffer::from_document(&CharDocument::from_str(initial));
        for e in log.iter() {
            b.apply(&e.top.op, None, None).expect("log entry applies in order");
        }
        b.visible_string()
    }

    #[test]
    fn push_canonical_moves_insertion_before_deletions() {
        // "abc" (internal coords): Del(1,'a') leaves a tombstone, then
        // Ins(2,'x') lands right after it -> visible "xbc".
        let mut log = Log::new();
        log.push_canonical(entry(1, Op::del(1, 'a')));
        log.push_canonical(entry(2, Op::ins(2, 'x')));
        assert!(log.is_canonical());
        assert_eq!(log.entry(0).top.op.kind(), OpKind::Ins);
        // Effect preserved.
        assert_eq!(replay(&log, "abc"), "xbc");
    }

    #[test]
    fn canonical_flag_detects_violations() {
        let mut log = Log::new();
        log.push_raw(entry(1, Op::del(1, 'a')));
        log.push_raw(entry(2, Op::ins(1, 'x')));
        assert!(!log.is_canonical());
    }

    #[test]
    fn push_canonical_preserves_effect_for_longer_logs() {
        // "abcdef" (internal coords, tombstones): Del(2,'b'), Del(4,'d'),
        // then Ins(2,'x').
        let mut log = Log::new();
        log.push_canonical(entry(1, Op::del(2, 'b')));
        log.push_canonical(entry(2, Op::del(4, 'd')));
        assert_eq!(replay(&log, "abcdef"), "acef");
        log.push_canonical(entry(3, Op::ins(2, 'x')));
        assert!(log.is_canonical());
        assert_eq!(replay(&log, "abcdef"), "axcef");
        assert_eq!(log.ins_count(), 1);
    }

    #[test]
    fn chain_walks_dependencies_oldest_first() {
        let mut log = Log::new();
        let mut e1 = entry(1, Op::ins(1, 'x'));
        e1.dep = None;
        let mut e2 = entry(2, Op::up(1, 'x', 'y'));
        e2.dep = Some(RequestId::new(1, 1));
        log.push_raw(e1);
        log.push_raw(e2);
        let chain = log.chain_of(Some(RequestId::new(1, 2))).unwrap();
        assert_eq!(chain, vec![RequestId::new(1, 1), RequestId::new(1, 2)]);
        assert!(log.chain_of(Some(RequestId::new(9, 9))).is_none());
        assert_eq!(log.chain_of(None).unwrap(), Vec::<RequestId>::new());
    }

    #[test]
    fn make_inert_nops_the_entry() {
        let mut e = entry(1, Op::ins(1, 'x'));
        e.make_inert();
        assert!(e.inert);
        assert!(e.top.op.is_nop());
    }

    #[test]
    fn index_and_get_by_id() {
        let mut log = Log::new();
        log.push_raw(entry(1, Op::ins(1, 'x')));
        log.push_raw(entry(2, Op::ins(2, 'y')));
        assert_eq!(log.index_of(RequestId::new(1, 2)), Some(1));
        assert!(log.get(RequestId::new(1, 1)).is_some());
        assert!(log.get(RequestId::new(2, 1)).is_none());
        assert!(log.get_mut(RequestId::new(1, 2)).is_some());
    }
}
