//! Per-document shard state: [`DocumentId`] and the [`FlagTable`].
//!
//! The paper specifies its model per document — one shared object, one
//! policy object, one administrator. A production process serves thousands
//! of documents at once, so everything that is *per document* must be
//! addressable by an explicit key instead of being implied by "the one
//! `Site` in this process". This module holds the two pieces that
//! [`crate::site::Site`] keeps per document besides the OT engine and the
//! scheduler:
//!
//! * [`DocumentId`] — the shard key, threaded through the wire codec,
//!   snapshots, observability events and the multi-document
//!   [`crate::engine::Engine`];
//! * [`FlagTable`] — the per-request flag table together with the
//!   tentative-generation-version side table that retroactive enforcement
//!   replays `Check_Remote` against.

use crate::request::Flag;
use dce_ot::RequestId;
use dce_policy::PolicyVersion;
use std::collections::HashMap;
use std::fmt;

/// Identifies one shared document (one shard) within a process.
///
/// `0` is reserved: it names "the document" in single-document contexts —
/// every pre-sharding call site, every v2 wire frame — so legacy state
/// decodes onto the root shard unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocumentId(pub u64);

impl DocumentId {
    /// The reserved single-document id (`0`).
    pub const ROOT: DocumentId = DocumentId(0);

    /// Builds a document id.
    pub const fn new(id: u64) -> Self {
        DocumentId(id)
    }

    /// The raw id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` for the reserved root/default id.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DocumentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

impl From<u64> for DocumentId {
    fn from(id: u64) -> Self {
        DocumentId(id)
    }
}

/// The per-request flag table of one shard.
///
/// Pairs every known request with its validation flag (`Tentative` /
/// `Valid` / `Invalid`) and keeps, for requests still tentative, the policy
/// version they were generated under (`q.v` on the wire). Retroactive
/// enforcement replays the receivers' `Check_Remote` — "does a restrictive
/// administrative request *concurrent* with `q` revoke its access?" — and
/// that question needs `q.v` long after the request itself was integrated.
/// The version entry is dropped the moment a request settles `Valid` or
/// `Invalid`.
///
/// Left alone the table grows one entry per request for the life of the
/// session — the one per-request structure log compaction would otherwise
/// leave unbounded. [`FlagTable::prune_settled`] drops an entry once its
/// request is settled *and* stable group-wide (its log form was just
/// compacted away), folding the entry's hash into an order-independent
/// XOR accumulator. Digests are computed over that accumulator plus the
/// live settled entries, so replicas that prune at different moments —
/// or never prune at all — still digest-converge, the same behavioral
/// trick [`dce_policy::AdminLog`] uses for non-restrictive entries.
#[derive(Debug, Clone, Default)]
pub struct FlagTable {
    flags: HashMap<RequestId, Flag>,
    tentative_v: HashMap<RequestId, PolicyVersion>,
    /// XOR of [`FlagTable::entry_hash`] over every pruned settled entry.
    pruned_fold: u64,
}

impl FlagTable {
    /// An empty table.
    pub fn new() -> Self {
        FlagTable::default()
    }

    /// Rebuilds a table from snapshot parts.
    pub fn from_parts(
        flags: Vec<(RequestId, Flag)>,
        tentative_v: Vec<(RequestId, PolicyVersion)>,
        pruned_fold: u64,
    ) -> Self {
        FlagTable {
            flags: flags.into_iter().collect(),
            tentative_v: tentative_v.into_iter().collect(),
            pruned_fold,
        }
    }

    /// Replica-stable hash of one settled entry (both sides of the fold:
    /// accumulation on prune, enumeration on digest).
    fn entry_hash(id: RequestId, flag: Flag) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        flag.hash(&mut h);
        h.finish()
    }

    /// Drops the entry of `id` if it is settled, folding its hash into
    /// the pruned accumulator; tentative (or unknown) entries are left in
    /// place. Returns whether an entry was dropped.
    ///
    /// Only safe for requests that are stable group-wide: every replica
    /// has integrated them (so duplicates are deduplicated before they
    /// could re-insert the id) and their flags can never transition again.
    pub fn prune_settled(&mut self, id: RequestId) -> bool {
        match self.flags.get(&id) {
            Some(&f) if f != Flag::Tentative => {
                self.flags.remove(&id);
                self.tentative_v.remove(&id);
                self.pruned_fold ^= Self::entry_hash(id, f);
                true
            }
            _ => false,
        }
    }

    /// The pruned-entry accumulator (persisted by snapshots so a restored
    /// replica digests identically to its donor).
    pub fn pruned_fold(&self) -> u64 {
        self.pruned_fold
    }

    /// Order-independent fold over *all* settled entries this table has
    /// ever recorded — pruned or still present. Equal across replicas
    /// whenever their settled-flag histories are, regardless of who
    /// compacted when.
    pub fn settled_fold(&self) -> u64 {
        self.flags
            .iter()
            .filter(|(_, f)| **f != Flag::Tentative)
            .fold(self.pruned_fold, |acc, (id, f)| acc ^ Self::entry_hash(*id, *f))
    }

    /// The still-tentative request ids, sorted (tentative entries are
    /// never pruned, so these are content-hashed directly).
    pub fn tentative_flags_sorted(&self) -> Vec<RequestId> {
        let mut v: Vec<_> =
            self.flags.iter().filter(|(_, f)| **f == Flag::Tentative).map(|(id, _)| *id).collect();
        v.sort_unstable();
        v
    }

    /// Flag of `id`, if known.
    pub fn flag_of(&self, id: RequestId) -> Option<Flag> {
        self.flags.get(&id).copied()
    }

    /// Sets the flag of `id` (inserting it if new).
    pub fn set_flag(&mut self, id: RequestId, flag: Flag) {
        self.flags.insert(id, flag);
    }

    /// Records `id` as tentative, generated under policy version `v`.
    pub fn mark_tentative(&mut self, id: RequestId, v: PolicyVersion) {
        self.flags.insert(id, Flag::Tentative);
        self.tentative_v.insert(id, v);
    }

    /// Settles `id` with a final flag, dropping its tentative version.
    pub fn settle(&mut self, id: RequestId, flag: Flag) {
        debug_assert_ne!(flag, Flag::Tentative, "settling must finalize the flag");
        self.flags.insert(id, flag);
        self.tentative_v.remove(&id);
    }

    /// Drops the tentative version of `id` without touching its flag (a
    /// validation for a request this site stored invalid).
    pub fn clear_tentative(&mut self, id: RequestId) {
        self.tentative_v.remove(&id);
    }

    /// The generation version of a still-tentative request (`0` if
    /// unknown, matching the wire default).
    pub fn tentative_version(&self, id: RequestId) -> PolicyVersion {
        self.tentative_v.get(&id).copied().unwrap_or(0)
    }

    /// All known flags (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, Flag)> + '_ {
        self.flags.iter().map(|(id, f)| (*id, *f))
    }

    /// The flag entries sorted by request id (digests, snapshots).
    pub fn flags_sorted(&self) -> Vec<(RequestId, Flag)> {
        let mut v: Vec<_> = self.flags.iter().map(|(k, f)| (*k, *f)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// The tentative-version entries sorted by request id.
    pub fn tentative_sorted(&self) -> Vec<(RequestId, PolicyVersion)> {
        let mut v: Vec<_> = self.tentative_v.iter().map(|(k, ver)| (*k, *ver)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Number of known requests.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// `true` when no request is known.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Feeds the table into `h` in a replica-stable, pruning-invariant
    /// form: the settled fold (covering pruned and live settled entries
    /// alike), then the sorted tentative ids, then their generation
    /// versions.
    pub fn digest_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.settled_fold().hash(h);
        self.tentative_flags_sorted().hash(h);
        self.tentative_sorted().hash(h);
    }

    /// The table's behavioral digest (see [`FlagTable::digest_into`]).
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.digest_into(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(site: u32, seq: u64) -> RequestId {
        RequestId::new(site, seq)
    }

    #[test]
    fn document_id_defaults_to_root() {
        assert_eq!(DocumentId::default(), DocumentId::ROOT);
        assert!(DocumentId::ROOT.is_root());
        assert!(!DocumentId::new(7).is_root());
        assert_eq!(DocumentId::new(7).to_string(), "doc7");
        assert_eq!(DocumentId::from(3u64).as_u64(), 3);
    }

    #[test]
    fn settling_drops_the_tentative_version() {
        let mut t = FlagTable::new();
        t.mark_tentative(id(1, 1), 4);
        assert_eq!(t.flag_of(id(1, 1)), Some(Flag::Tentative));
        assert_eq!(t.tentative_version(id(1, 1)), 4);
        t.settle(id(1, 1), Flag::Valid);
        assert_eq!(t.flag_of(id(1, 1)), Some(Flag::Valid));
        assert_eq!(t.tentative_version(id(1, 1)), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn digest_is_order_independent() {
        let mut a = FlagTable::new();
        a.mark_tentative(id(1, 1), 2);
        a.set_flag(id(2, 1), Flag::Valid);
        let mut b = FlagTable::new();
        b.set_flag(id(2, 1), Flag::Valid);
        b.mark_tentative(id(1, 1), 2);
        let digest = |t: &FlagTable| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.digest_into(&mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn parts_roundtrip() {
        let mut t = FlagTable::new();
        t.mark_tentative(id(1, 1), 2);
        t.set_flag(id(2, 3), Flag::Invalid);
        t.set_flag(id(2, 4), Flag::Valid);
        assert!(t.prune_settled(id(2, 4)));
        let u = FlagTable::from_parts(t.flags_sorted(), t.tentative_sorted(), t.pruned_fold());
        assert_eq!(u.flags_sorted(), t.flags_sorted());
        assert_eq!(u.tentative_sorted(), t.tentative_sorted());
        assert_eq!(u.digest(), t.digest());
    }

    #[test]
    fn pruning_preserves_the_digest() {
        let mut full = FlagTable::new();
        full.set_flag(id(1, 1), Flag::Valid);
        full.set_flag(id(2, 1), Flag::Invalid);
        full.mark_tentative(id(1, 2), 3);
        let mut pruned = full.clone();
        assert!(pruned.prune_settled(id(1, 1)));
        assert!(pruned.prune_settled(id(2, 1)));
        assert_eq!(pruned.len(), 1, "only the tentative entry survives");
        // A replica that pruned and one that never did stay comparable.
        assert_eq!(pruned.digest(), full.digest());
        assert_eq!(pruned.settled_fold(), full.settled_fold());
        // Pruning order does not matter either.
        let mut other = full.clone();
        assert!(other.prune_settled(id(2, 1)));
        assert_eq!(other.digest(), full.digest());
    }

    #[test]
    fn tentative_entries_refuse_to_prune() {
        let mut t = FlagTable::new();
        t.mark_tentative(id(1, 1), 2);
        assert!(!t.prune_settled(id(1, 1)), "tentative entries can still transition");
        assert!(!t.prune_settled(id(9, 9)), "unknown ids are a no-op");
        assert_eq!(t.len(), 1);
        assert_eq!(t.pruned_fold(), 0);
    }
}
