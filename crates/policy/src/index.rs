//! The policy decision index: compiled first-match buckets plus a bounded
//! decision memo, rebuilt lazily after every policy mutation.
//!
//! `Policy::check` is the hottest path in the whole system — every locally
//! generated operation, every `Check_Remote` fallback and every retroactive
//! enforcement sweep runs it. The naive implementation
//! ([`crate::Policy::check_naive`]) walks the full ordered authorization
//! list and re-resolves groups and named objects per entry. This module
//! compiles, per `(user, right)`, the *outcome* of that walk:
//!
//! * entries are filtered down to the ones whose subject covers the user
//!   and whose right set contains the right, with groups and named objects
//!   resolved **once** at build time (safe: any mutation invalidates the
//!   whole index, so the resolution can never go stale);
//! * positional coverage is coordinate-compressed into elementary segments
//!   — for each segment the *first matching entry's sign* is precomputed —
//!   so a positional check is one binary search instead of a list walk;
//! * the first `Document`-level entry is recorded separately: it answers
//!   document-level actions (`pos = None`) and, under first-match
//!   semantics, shadows every later entry for positional actions too (the
//!   segment compiler truncates there);
//! * full decisions are additionally memoized in a bounded
//!   `(user, right, pos) → Decision` table.
//!
//! First-match semantics are preserved by construction: every segment
//! winner is computed by scanning the *ordered* entry list, exactly like
//! the naive walk — the index only caches the answer. The differential
//! proptest `indexed_policy_matches_naive_first_match` pins this.

use crate::auth::{Authorization, Sign};
use crate::object::DocObject;
use crate::policy::Decision;
use crate::right::Right;
use crate::subject::{Subject, UserId};
use dce_document::Position;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

/// Decision-memo capacity: past this the memo is recycled wholesale (the
/// buckets stay, so refills are cheap binary searches).
const DECISION_CACHE_CAP: usize = 4096;

/// Interior-mutable index state attached to a [`crate::Policy`]. Uses a
/// `std::sync::Mutex` (never held across any call that could re-enter)
/// so `Policy` stays `Send + Sync` with `check(&self)` unchanged.
#[derive(Default)]
pub(crate) struct PolicyIndex {
    inner: Mutex<IndexState>,
}

#[derive(Default)]
struct IndexState {
    buckets: HashMap<(UserId, Right), Bucket>,
    decisions: HashMap<(UserId, Right, Option<Position>), Decision>,
    /// Decision-memo hits/misses since this index was created. Counted
    /// inside the already-held lock, so tracking adds no synchronization;
    /// cleared neither by `invalidate` nor by memo recycling (they
    /// describe the workload, not the cache contents). A cloned policy
    /// starts a fresh index, hence fresh counts.
    memo_hits: u64,
    memo_misses: u64,
}

/// Positional coverage of one authorization entry, with groups and named
/// objects resolved away.
enum Cover {
    /// Covers every position and document-level actions.
    All,
    /// Covers the inclusive position interval `[lo, hi]`.
    Interval(Position, Position),
}

/// The compiled first-match outcome for one `(user, right)` pair.
struct Bucket {
    /// Winning sign for document-level actions (`pos = None`): only
    /// `Document`-level entries can match those.
    doc: Option<Sign>,
    /// Elementary segment starts, sorted, always beginning at 0:
    /// `winners[i]` decides every position in `starts[i] .. starts[i+1]`.
    starts: Vec<Position>,
    /// First-match winner per segment (`None` = no entry matches there).
    winners: Vec<Option<Sign>>,
}

impl Bucket {
    fn build(
        user: UserId,
        right: Right,
        auths: &[Authorization],
        groups: &BTreeMap<String, BTreeSet<UserId>>,
        objects: &BTreeMap<String, DocObject>,
    ) -> Self {
        // The entries of the ordered list that can match (user, right) at
        // *some* position, in original first-match order.
        let mut entries: Vec<(Cover, Sign)> = Vec::new();
        let mut doc = None;
        for auth in auths {
            if !auth.rights.contains(&right) {
                continue;
            }
            let covered = match &auth.subject {
                Subject::All => true,
                Subject::User(u) => *u == user,
                Subject::Users(set) => set.contains(&user),
                Subject::Group(name) => groups.get(name).is_some_and(|m| m.contains(&user)),
            };
            if !covered {
                continue;
            }
            let Some(cover) = resolve_object(&auth.object, objects) else {
                continue;
            };
            let is_all = matches!(cover, Cover::All);
            if is_all && doc.is_none() {
                doc = Some(auth.sign);
            }
            entries.push((cover, auth.sign));
            if is_all {
                // Under first-match semantics a document-level entry
                // shadows everything after it, at every position.
                break;
            }
        }

        // Coordinate compression: interval endpoints cut the position axis
        // into elementary segments on which the covering entry set — hence
        // the first match — is constant.
        let mut starts: Vec<Position> = vec![0];
        for (cover, _) in &entries {
            if let Cover::Interval(lo, hi) = cover {
                starts.push(*lo);
                starts.push(hi.saturating_add(1));
            }
        }
        starts.sort_unstable();
        starts.dedup();
        let winners = starts
            .iter()
            .map(|&s| {
                entries.iter().find_map(|(cover, sign)| match cover {
                    Cover::All => Some(*sign),
                    Cover::Interval(lo, hi) if s >= *lo && s <= *hi => Some(*sign),
                    Cover::Interval(..) => None,
                })
            })
            .collect();
        Bucket { doc, starts, winners }
    }

    fn query(&self, pos: Option<Position>) -> Decision {
        let winner = match pos {
            None => self.doc,
            Some(p) => {
                // `starts[0] == 0`, so the partition point is never 0.
                let seg = self.starts.partition_point(|&s| s <= p) - 1;
                self.winners[seg]
            }
        };
        match winner {
            Some(Sign::Plus) => Decision::Granted,
            Some(Sign::Minus) => Decision::DeniedByAuth,
            None => Decision::DeniedByDefault,
        }
    }
}

/// Resolves an authorization object to its positional coverage, resolving
/// a name through the object table exactly once (mirroring
/// [`DocObject::covers`]: no recursion, unknown names cover nothing).
fn resolve_object(object: &DocObject, objects: &BTreeMap<String, DocObject>) -> Option<Cover> {
    let direct = |object: &DocObject| match object {
        DocObject::Document => Some(Cover::All),
        DocObject::Element(p) => Some(Cover::Interval(*p, *p)),
        DocObject::Range { from, to } if from <= to => Some(Cover::Interval(*from, *to)),
        // An inverted range covers nothing, like the naive matcher.
        DocObject::Range { .. } => None,
        DocObject::Named(_) => None,
    };
    match object {
        DocObject::Named(name) => objects.get(name).and_then(direct),
        other => direct(other),
    }
}

impl PolicyIndex {
    /// Drops every compiled bucket and memoized decision. Called by every
    /// `Policy` mutation of what a decision reads — authorizations, users,
    /// groups, named objects — without asking which entry changed. Version
    /// bumps do not call it: no decision reads the version, so a
    /// `Validate` (a bump and nothing else) keeps the index warm.
    pub(crate) fn invalidate(&self) {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.buckets.clear();
        st.decisions.clear();
    }

    /// Indexed first-match decision for a known user. The caller
    /// ([`crate::Policy::check`]) has already handled the unknown-user
    /// case, which is membership of the live `users` set, not a property
    /// of the authorization list.
    pub(crate) fn decide(
        &self,
        user: UserId,
        right: Right,
        pos: Option<Position>,
        auths: &[Authorization],
        groups: &BTreeMap<String, BTreeSet<UserId>>,
        objects: &BTreeMap<String, DocObject>,
    ) -> Decision {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let key = (user, right, pos);
        if let Some(d) = st.decisions.get(&key).copied() {
            st.memo_hits += 1;
            return d;
        }
        st.memo_misses += 1;
        let decision = st
            .buckets
            .entry((user, right))
            .or_insert_with(|| Bucket::build(user, right, auths, groups, objects))
            .query(pos);
        if st.decisions.len() >= DECISION_CACHE_CAP {
            st.decisions.clear();
        }
        st.decisions.insert(key, decision);
        decision
    }

    /// `(hits, misses)` of the decision memo since this index was created.
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (st.memo_hits, st.memo_misses)
    }
}

/// Cloning a policy clones its *semantic* state; the clone starts with an
/// empty index and recompiles on first use.
impl Clone for PolicyIndex {
    fn clone(&self) -> Self {
        PolicyIndex::default()
    }
}

impl fmt::Debug for PolicyIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("PolicyIndex")
            .field("buckets", &st.buckets.len())
            .field("decisions", &st.decisions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_compilation_respects_entry_order() {
        // ⟨s1, [2..=5], iR, −⟩ then ⟨s1, [4..=9], iR, +⟩: positions 2–5
        // deny, 6–9 grant, elsewhere default.
        let auths = vec![
            Authorization::revoke(
                Subject::User(1),
                DocObject::Range { from: 2, to: 5 },
                [Right::Insert],
            ),
            Authorization::grant(
                Subject::User(1),
                DocObject::Range { from: 4, to: 9 },
                [Right::Insert],
            ),
        ];
        let groups = BTreeMap::new();
        let objects = BTreeMap::new();
        let b = Bucket::build(1, Right::Insert, &auths, &groups, &objects);
        assert_eq!(b.query(Some(1)), Decision::DeniedByDefault);
        assert_eq!(b.query(Some(2)), Decision::DeniedByAuth);
        assert_eq!(b.query(Some(5)), Decision::DeniedByAuth);
        assert_eq!(b.query(Some(6)), Decision::Granted);
        assert_eq!(b.query(Some(9)), Decision::Granted);
        assert_eq!(b.query(Some(10)), Decision::DeniedByDefault);
        assert_eq!(b.query(None), Decision::DeniedByDefault);
    }

    #[test]
    fn document_entry_truncates_the_bucket() {
        let auths = vec![
            Authorization::grant(Subject::All, DocObject::Document, [Right::Insert]),
            Authorization::revoke(Subject::User(1), DocObject::Element(3), [Right::Insert]),
        ];
        let b = Bucket::build(1, Right::Insert, &auths, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(b.query(Some(3)), Decision::Granted, "shadowed by the earlier catch-all");
        assert_eq!(b.query(None), Decision::Granted);
    }

    #[test]
    fn named_objects_resolve_once_at_build() {
        let mut objects = BTreeMap::new();
        objects.insert("title".to_owned(), DocObject::Range { from: 1, to: 3 });
        objects.insert("alias".to_owned(), DocObject::Named("title".into()));
        let auths = vec![
            Authorization::grant(Subject::All, DocObject::Named("alias".into()), [Right::Update]),
            Authorization::grant(Subject::All, DocObject::Named("title".into()), [Right::Update]),
        ];
        let b = Bucket::build(7, Right::Update, &auths, &BTreeMap::new(), &objects);
        // "alias" resolves to another name → covers nothing (no recursion);
        // "title" resolves to the range.
        assert_eq!(b.query(Some(2)), Decision::Granted);
        assert_eq!(b.query(Some(9)), Decision::DeniedByDefault);
    }
}
