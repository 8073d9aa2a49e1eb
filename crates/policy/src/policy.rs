//! The versioned policy state `⟨P, S, O⟩` with first-match checking.

use crate::auth::{Authorization, Sign};
use crate::error::PolicyError;
use crate::index::PolicyIndex;
use crate::object::DocObject;
use crate::right::Right;
use crate::subject::{Subject, UserId};
use dce_document::Position;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Monotonically increasing policy version: incremented by every
/// administrative operation performed on the copy (paper §4.2, second
/// scenario — "every local policy copy maintains a monotonically increasing
/// counter").
pub type PolicyVersion = u64;

/// A concrete access attempt to check: the required right and the visible
/// position it targets (`None` for document-level actions such as reading
/// the document on join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action {
    /// Required right.
    pub right: Right,
    /// Target visible position, if positional.
    pub pos: Option<Position>,
}

impl Action {
    /// Builds an action.
    pub fn new(right: Right, pos: Option<Position>) -> Self {
        Action { right, pos }
    }

    /// The action a cooperative operation requires, if any (`Nop` → `None`).
    pub fn for_op<E: dce_document::Element>(op: &dce_document::Op<E>) -> Option<Action> {
        Right::for_op_kind(op.kind()).map(|right| Action { right, pos: op.pos() })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{}@{p}", self.right),
            None => write!(f, "{}@doc", self.right),
        }
    }
}

/// Outcome of a policy check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A positive authorization matched first.
    Granted,
    /// A negative authorization matched first.
    DeniedByAuth,
    /// No authorization matched (default deny, paper §3.2: "if no matching
    /// authorizations are found, o is rejected").
    DeniedByDefault,
    /// The user is not a member of the subject set `S`.
    DeniedUnknownUser,
}

impl Decision {
    /// `true` when access is granted.
    pub fn granted(&self) -> bool {
        matches!(self, Decision::Granted)
    }
}

/// The policy state: the ordered authorization list `P`, the subject set
/// `S` (with optional named groups), the object table `O`, and the version
/// counter.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    auths: Vec<Authorization>,
    users: BTreeSet<UserId>,
    groups: BTreeMap<String, BTreeSet<UserId>>,
    objects: BTreeMap<String, DocObject>,
    delegates: BTreeSet<UserId>,
    version: PolicyVersion,
    /// Compiled decision index (derived state — rebuilt lazily, dropped by
    /// every mutation, excluded from equality and cloned empty).
    index: PolicyIndex,
}

impl PartialEq for Policy {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state: two policies are equal iff their
        // semantic fields are.
        self.auths == other.auths
            && self.users == other.users
            && self.groups == other.groups
            && self.objects == other.objects
            && self.delegates == other.delegates
            && self.version == other.version
    }
}

impl Eq for Policy {}

impl std::hash::Hash for Policy {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Mirrors `PartialEq`: the compiled index is derived state, so two
        // equal policies must hash identically whatever their index holds.
        self.auths.hash(state);
        self.users.hash(state);
        self.groups.hash(state);
        self.objects.hash(state);
        self.delegates.hash(state);
        self.version.hash(state);
    }
}

impl Policy {
    /// Structural digest of the semantic policy state (never the derived
    /// index): the dedupe key used by state-space exploration layers such
    /// as `dce-check`, where two policies reached along different
    /// administrative schedules must collide iff they are equal.
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(self, &mut h);
        std::hash::Hasher::finish(&h)
    }
}

impl Policy {
    /// Creates an empty policy (version 0, no users, no authorizations).
    pub fn new() -> Self {
        Policy::default()
    }

    /// Creates the permissive policy the paper's Fig. 5 starts from:
    /// `⟨All, Doc, {iR, dR, rR, uR}, +⟩` with the given users.
    pub fn permissive(users: impl IntoIterator<Item = UserId>) -> Self {
        let mut p = Policy::new();
        for u in users {
            p.users.insert(u);
        }
        p.auths.push(Authorization::grant(Subject::All, DocObject::Document, Right::ALL));
        p
    }

    /// Current version.
    pub fn version(&self) -> PolicyVersion {
        self.version
    }

    /// Bumps the version (every administrative request does this, including
    /// `Validate` which changes nothing else). The decision index is kept:
    /// `check` never reads the version.
    pub fn bump_version(&mut self) -> PolicyVersion {
        self.version += 1;
        self.version
    }

    /// Restores a version counter (snapshot restore only — normal
    /// operation always goes through [`Policy::bump_version`]).
    pub fn set_version(&mut self, version: PolicyVersion) {
        self.version = version;
    }

    /// The ordered authorization list.
    pub fn authorizations(&self) -> &[Authorization] {
        &self.auths
    }

    /// The subject set `S`.
    pub fn users(&self) -> &BTreeSet<UserId> {
        &self.users
    }

    /// `true` when `user` is in `S`.
    pub fn has_user(&self, user: UserId) -> bool {
        self.users.contains(&user)
    }

    /// The ordered authorization list (first match decides).
    pub fn auths(&self) -> &[Authorization] {
        &self.auths
    }

    /// Registered named objects.
    pub fn objects(&self) -> &BTreeMap<String, DocObject> {
        &self.objects
    }

    /// Named groups.
    pub fn groups(&self) -> &BTreeMap<String, BTreeSet<UserId>> {
        &self.groups
    }

    /// Users holding an administrative delegation.
    pub fn delegates(&self) -> &BTreeSet<UserId> {
        &self.delegates
    }

    /// `true` when `user` may propose administrative operations.
    pub fn is_delegate(&self, user: UserId) -> bool {
        self.delegates.contains(&user)
    }

    /// Grants an administrative delegation.
    pub fn add_delegate(&mut self, user: UserId) -> bool {
        self.delegates.insert(user)
    }

    /// Withdraws an administrative delegation.
    pub fn remove_delegate(&mut self, user: UserId) -> bool {
        self.delegates.remove(&user)
    }

    // ---- membership & object management (no version bump here: the admin
    // request layer bumps once per administrative request) ----

    /// Adds a user to `S`.
    pub fn add_user(&mut self, user: UserId) -> bool {
        self.index.invalidate();
        self.users.insert(user)
    }

    /// Removes a user from `S`, from every group, and from the delegation
    /// set.
    pub fn del_user(&mut self, user: UserId) -> bool {
        self.index.invalidate();
        for members in self.groups.values_mut() {
            members.remove(&user);
        }
        self.delegates.remove(&user);
        self.users.remove(&user)
    }

    /// Creates or replaces a named group.
    pub fn set_group(
        &mut self,
        name: impl Into<String>,
        members: impl IntoIterator<Item = UserId>,
    ) {
        self.index.invalidate();
        self.groups.insert(name.into(), members.into_iter().collect());
    }

    /// Registers a named object.
    pub fn add_object(
        &mut self,
        name: impl Into<String>,
        object: DocObject,
    ) -> Result<(), PolicyError> {
        let name = name.into();
        if self.objects.contains_key(&name) {
            return Err(PolicyError::DuplicateObject(name));
        }
        self.index.invalidate();
        self.objects.insert(name, object);
        Ok(())
    }

    /// Unregisters a named object.
    pub fn del_object(&mut self, name: &str) -> Result<DocObject, PolicyError> {
        self.index.invalidate();
        self.objects.remove(name).ok_or_else(|| PolicyError::UnknownObject(name.to_owned()))
    }

    /// Inserts authorization `l` at position `p` (0-based; the paper's
    /// `AddAuth(p, l)`).
    pub fn add_auth_at(&mut self, p: usize, auth: Authorization) -> Result<(), PolicyError> {
        if p > self.auths.len() {
            return Err(PolicyError::AuthIndexOutOfRange { index: p, len: self.auths.len() });
        }
        self.index.invalidate();
        self.auths.insert(p, auth);
        Ok(())
    }

    /// Removes the authorization at position `p`, verifying it equals `l`
    /// (the paper's `DelAuth(p, l)` carries both).
    pub fn del_auth_at(&mut self, p: usize, auth: &Authorization) -> Result<(), PolicyError> {
        match self.auths.get(p) {
            None => Err(PolicyError::AuthIndexOutOfRange { index: p, len: self.auths.len() }),
            Some(found) if found != auth => Err(PolicyError::AuthMismatch { index: p }),
            Some(_) => {
                self.index.invalidate();
                self.auths.remove(p);
                Ok(())
            }
        }
    }

    /// First-match check (the paper's `Check_Local`): the sign of the
    /// first authorization matching `(user, action)` decides; no match →
    /// deny. Resolved through the compiled `PolicyIndex` — O(log n) per
    /// `(user, right)` bucket plus a decision memo — and observably
    /// identical to the reference scan [`Policy::check_naive`] (pinned by
    /// the `indexed_policy_matches_naive_first_match` proptest).
    pub fn check(&self, user: UserId, action: &Action) -> Decision {
        if !self.users.contains(&user) {
            return Decision::DeniedUnknownUser;
        }
        self.index.decide(user, action.right, action.pos, &self.auths, &self.groups, &self.objects)
    }

    /// `(hits, misses)` of the decision memo behind [`Policy::check`]
    /// since this policy value was created (clones start from zero — the
    /// index is per-value). Observability scrapes this into its
    /// `policy.memo_*` gauges; the counts are not part of policy equality,
    /// hashing or digests.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.index.memo_stats()
    }

    /// The unindexed reference implementation of [`Policy::check`]: a
    /// literal transcription of the paper's first-match walk, kept as the
    /// differential-test oracle and the bench baseline. Not used on any
    /// hot path.
    pub fn check_naive(&self, user: UserId, action: &Action) -> Decision {
        if !self.users.contains(&user) {
            return Decision::DeniedUnknownUser;
        }
        for auth in &self.auths {
            if !auth.rights.contains(&action.right) {
                continue;
            }
            if !auth.subject.covers(user, |g| self.groups.get(g).cloned().unwrap_or_default()) {
                continue;
            }
            if !auth.object.covers(action.pos, &|n| self.objects.get(n).cloned()) {
                continue;
            }
            return match auth.sign {
                Sign::Plus => Decision::Granted,
                Sign::Minus => Decision::DeniedByAuth,
            };
        }
        Decision::DeniedByDefault
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P(v{}) = <", self.version)?;
        for (i, a) in self.auths.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_at(p: Option<Position>) -> Action {
        Action::new(Right::Insert, p)
    }

    #[test]
    fn empty_policy_denies_by_default() {
        let mut p = Policy::new();
        p.add_user(1);
        assert_eq!(p.check(1, &insert_at(Some(1))), Decision::DeniedByDefault);
    }

    #[test]
    fn unknown_user_denied() {
        let p = Policy::permissive([1, 2]);
        assert_eq!(p.check(9, &insert_at(Some(1))), Decision::DeniedUnknownUser);
        assert!(p.check(1, &insert_at(Some(1))).granted());
    }

    #[test]
    fn first_match_wins() {
        let mut p = Policy::permissive([1]);
        // Prepend a negative authorization: it must shadow the grant.
        p.add_auth_at(
            0,
            Authorization::revoke(Subject::User(1), DocObject::Document, [Right::Insert]),
        )
        .unwrap();
        assert_eq!(p.check(1, &insert_at(Some(2))), Decision::DeniedByAuth);
        // Deletion is still granted by the later catch-all.
        assert!(p.check(1, &Action::new(Right::Delete, Some(2))).granted());
    }

    #[test]
    fn negative_after_positive_is_shadowed() {
        let mut p = Policy::permissive([1]);
        p.add_auth_at(
            1,
            Authorization::revoke(Subject::User(1), DocObject::Document, [Right::Insert]),
        )
        .unwrap();
        assert!(p.check(1, &insert_at(Some(2))).granted());
    }

    #[test]
    fn positional_objects_scope_rights() {
        let mut p = Policy::new();
        p.add_user(1);
        p.add_auth_at(
            0,
            Authorization::grant(
                Subject::User(1),
                DocObject::Range { from: 1, to: 3 },
                [Right::Update],
            ),
        )
        .unwrap();
        assert!(p.check(1, &Action::new(Right::Update, Some(2))).granted());
        assert_eq!(p.check(1, &Action::new(Right::Update, Some(7))), Decision::DeniedByDefault);
    }

    #[test]
    fn named_objects_and_groups() {
        let mut p = Policy::new();
        p.add_user(4);
        p.add_user(5);
        p.set_group("editors", [4]);
        p.add_object("title", DocObject::Range { from: 1, to: 3 }).unwrap();
        p.add_auth_at(
            0,
            Authorization::grant(
                Subject::Group("editors".into()),
                DocObject::Named("title".into()),
                [Right::Update],
            ),
        )
        .unwrap();
        assert!(p.check(4, &Action::new(Right::Update, Some(2))).granted());
        assert!(!p.check(5, &Action::new(Right::Update, Some(2))).granted());
        assert!(!p.check(4, &Action::new(Right::Update, Some(9))).granted());
    }

    #[test]
    fn auth_index_validation() {
        let mut p = Policy::new();
        let a = Authorization::grant(Subject::All, DocObject::Document, [Right::Read]);
        assert!(matches!(
            p.add_auth_at(1, a.clone()),
            Err(PolicyError::AuthIndexOutOfRange { .. })
        ));
        p.add_auth_at(0, a.clone()).unwrap();
        let other = Authorization::grant(Subject::All, DocObject::Document, [Right::Insert]);
        assert!(matches!(p.del_auth_at(0, &other), Err(PolicyError::AuthMismatch { .. })));
        assert!(matches!(p.del_auth_at(5, &a), Err(PolicyError::AuthIndexOutOfRange { .. })));
        p.del_auth_at(0, &a).unwrap();
        assert!(p.authorizations().is_empty());
    }

    #[test]
    fn del_user_purges_groups() {
        let mut p = Policy::new();
        p.add_user(1);
        p.add_user(2);
        p.set_group("g", [1, 2]);
        assert!(p.del_user(1));
        assert!(!p.groups()["g"].contains(&1));
        assert!(!p.del_user(1));
    }

    #[test]
    fn duplicate_object_rejected() {
        let mut p = Policy::new();
        p.add_object("s", DocObject::Document).unwrap();
        assert!(matches!(
            p.add_object("s", DocObject::Document),
            Err(PolicyError::DuplicateObject(_))
        ));
        p.del_object("s").unwrap();
        assert!(matches!(p.del_object("s"), Err(PolicyError::UnknownObject(_))));
    }

    #[test]
    fn version_bumps_monotonically() {
        let mut p = Policy::new();
        assert_eq!(p.version(), 0);
        assert_eq!(p.bump_version(), 1);
        assert_eq!(p.bump_version(), 2);
    }

    #[test]
    fn action_for_op() {
        use dce_document::{Char, Op};
        let a = Action::for_op(&Op::<Char>::ins(2, 'x')).unwrap();
        assert_eq!(a, Action::new(Right::Insert, Some(2)));
        assert!(Action::for_op(&Op::<Char>::Nop).is_none());
        assert_eq!(a.to_string(), "iR@2");
        assert_eq!(Action::new(Right::Read, None).to_string(), "rR@doc");
    }

    #[test]
    fn display_renders_policy() {
        let p = Policy::permissive([1]);
        let s = p.to_string();
        assert!(s.contains("All"));
        assert!(s.starts_with("P(v0)"));
    }
}
