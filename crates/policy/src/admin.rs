//! Administrative operations, requests and the administrative log `L`.

use crate::auth::Authorization;
use crate::error::PolicyError;
use crate::object::DocObject;
use crate::policy::{Action, Policy, PolicyVersion};
use crate::subject::UserId;
use std::fmt;

/// An administrative operation (paper Definition 3), extended with the
/// `Validate` operation of §4.2 (third scenario): "an additional
/// administrative operation that doesn't modify the policy object but
/// increments the local counter", confirming one cooperative request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AdminOp {
    /// Add a user to the subject set `S`.
    AddUser(UserId),
    /// Remove a user from `S` (and from every group).
    DelUser(UserId),
    /// Register a named object in `O`.
    AddObj {
        /// Object name.
        name: String,
        /// Definition.
        object: DocObject,
    },
    /// Unregister a named object.
    DelObj {
        /// Object name.
        name: String,
    },
    /// Insert authorization `auth` at position `pos` of the policy list.
    AddAuth {
        /// 0-based insertion position.
        pos: usize,
        /// The authorization.
        auth: Authorization,
    },
    /// Remove authorization `auth` from position `pos`.
    DelAuth {
        /// 0-based position.
        pos: usize,
        /// The authorization expected there.
        auth: Authorization,
    },
    /// Validate the cooperative request `site#seq`: no policy change, just
    /// a version bump that serializes the request before any later
    /// administrative operation.
    Validate {
        /// Issuing site of the validated request.
        site: UserId,
        /// Serial number of the validated request.
        seq: u64,
    },
    /// Create or replace a named user group (extension: the paper names
    /// groups as subjects but manages membership out of band; we make it
    /// an administrative operation so it is replicated and versioned).
    SetGroup {
        /// Group name.
        name: String,
        /// Member set (replaces any previous definition).
        members: std::collections::BTreeSet<UserId>,
    },
    /// Grant a user the right to *propose* administrative operations,
    /// which the administrator sequences on their behalf — the §7
    /// future-work delegation, realised without giving up the total order
    /// on administrative requests.
    Delegate(UserId),
    /// Withdraw a delegation.
    RevokeDelegation(UserId),
}

impl AdminOp {
    /// `true` for a *restrictive* operation (paper Definition 3: `AddAuth`
    /// of a negative authorization, or any `DelAuth`). We additionally
    /// treat `DelUser` as restrictive — removing a user silently revokes
    /// all their rights, so tentative requests must be re-examined exactly
    /// as for an explicit revocation.
    pub fn is_restrictive(&self) -> bool {
        match self {
            AdminOp::AddAuth { auth, .. } => !auth.is_positive(),
            AdminOp::DelAuth { .. } | AdminOp::DelUser(_) => true,
            _ => false,
        }
    }

    /// `true` for operations a *delegate* (non-administrator holding a
    /// delegation) may propose. Membership of the delegation set itself
    /// stays with the administrator.
    pub fn delegable(&self) -> bool {
        !matches!(
            self,
            AdminOp::Delegate(_) | AdminOp::RevokeDelegation(_) | AdminOp::Validate { .. }
        )
    }

    /// Applies the operation to a policy (no version bump — the request
    /// layer bumps exactly once per administrative request).
    pub fn apply_to(&self, policy: &mut Policy) -> Result<(), PolicyError> {
        match self {
            AdminOp::AddUser(u) => {
                if !policy.add_user(*u) {
                    return Err(PolicyError::DuplicateUser(*u));
                }
                Ok(())
            }
            AdminOp::DelUser(u) => {
                if !policy.del_user(*u) {
                    return Err(PolicyError::UnknownUser(*u));
                }
                Ok(())
            }
            AdminOp::AddObj { name, object } => policy.add_object(name.clone(), object.clone()),
            AdminOp::DelObj { name } => policy.del_object(name).map(|_| ()),
            AdminOp::AddAuth { pos, auth } => policy.add_auth_at(*pos, auth.clone()),
            AdminOp::DelAuth { pos, auth } => policy.del_auth_at(*pos, auth),
            AdminOp::Validate { .. } => Ok(()),
            AdminOp::SetGroup { name, members } => {
                policy.set_group(name.clone(), members.iter().copied());
                Ok(())
            }
            AdminOp::Delegate(u) => {
                policy.add_delegate(*u);
                Ok(())
            }
            AdminOp::RevokeDelegation(u) => {
                policy.remove_delegate(*u);
                Ok(())
            }
        }
    }

    /// `true` when a restrictive operation revokes something `(user,
    /// action)` may rely on — the matching rule `Check_Remote` uses to
    /// reject remote requests against concurrent revocations (paper §4.2,
    /// second scenario). `policy` provides group/object resolution.
    pub fn matches_access(&self, user: UserId, action: &Action, policy: &Policy) -> bool {
        let auth = match self {
            AdminOp::AddAuth { auth, .. } if !auth.is_positive() => auth,
            AdminOp::DelAuth { auth, .. } if auth.is_positive() => auth,
            AdminOp::DelUser(u) => return *u == user,
            _ => return false,
        };
        auth.rights.contains(&action.right)
            && auth.subject.covers(user, |g| policy.groups().get(g).cloned().unwrap_or_default())
            && auth.object.covers(action.pos, &|n| policy.objects().get(n).cloned())
    }
}

impl fmt::Display for AdminOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminOp::AddUser(u) => write!(f, "AddUser(s{u})"),
            AdminOp::DelUser(u) => write!(f, "DelUser(s{u})"),
            AdminOp::AddObj { name, object } => write!(f, "AddObj(#{name}, {object})"),
            AdminOp::DelObj { name } => write!(f, "DelObj(#{name})"),
            AdminOp::AddAuth { pos, auth } => write!(f, "AddAuth({pos}, {auth})"),
            AdminOp::DelAuth { pos, auth } => write!(f, "DelAuth({pos}, {auth})"),
            AdminOp::Validate { site, seq } => write!(f, "Validate({site}#{seq})"),
            AdminOp::SetGroup { name, members } => {
                write!(f, "SetGroup(@{name}, {} members)", members.len())
            }
            AdminOp::Delegate(u) => write!(f, "Delegate(s{u})"),
            AdminOp::RevokeDelegation(u) => write!(f, "RevokeDelegation(s{u})"),
        }
    }
}

/// An administrative request `r = (id, o, v)` (paper §5.1): issued by the
/// administrator, totally ordered by the policy version it produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdminRequest {
    /// Identity of the administrator issuing the request.
    pub admin: UserId,
    /// The version of the policy copy *after* applying this request: the
    /// requests of a session carry versions `1, 2, 3, …`.
    pub version: PolicyVersion,
    /// The administrative operation.
    pub op: AdminOp,
}

impl AdminRequest {
    /// `true` for restrictive requests.
    pub fn is_restrictive(&self) -> bool {
        self.op.is_restrictive()
    }
}

impl fmt::Display for AdminRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}:{}", self.version, self.op)
    }
}

/// The administrative log `L`: every administrative request applied to the
/// local policy copy, in version order. §4.2 (second scenario): "we propose
/// in our model to store administrative operations in a log at every site
/// in order to validate the remote cooperative requests at appropriate
/// context".
#[derive(Debug, Clone, Default)]
pub struct AdminLog {
    entries: Vec<AdminRequest>,
    /// Positions of the *restrictive* entries, in version order — the only
    /// entries `Check_Remote` can ever return, so its suffix walk skips
    /// everything else. Derived deterministically from `entries` (push
    /// maintains it, `from_entries` rebuilds it).
    restrictive: Vec<usize>,
}

/// Equality and hashing are *behavioral*, not structural: two logs are
/// equal when they agree on the last applied version and on every
/// retained restrictive entry. Administrative requests are totally
/// ordered by the single administrator, so within a session the version
/// number alone identifies the full pushed history; non-restrictive
/// entries (the overwhelming majority: every `Validate`) are never read
/// back by the protocol after application and may legitimately be
/// dropped by [`AdminLog::compact_non_restrictive`] at different times
/// on different replicas. Pruning skew must not read as divergence.
impl PartialEq for AdminLog {
    fn eq(&self, other: &Self) -> bool {
        self.last_version() == other.last_version()
            && self.restrictive_entries().eq(other.restrictive_entries())
    }
}

impl Eq for AdminLog {}

impl std::hash::Hash for AdminLog {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.last_version().hash(state);
        for r in self.restrictive_entries() {
            r.hash(state);
        }
    }
}

impl AdminLog {
    /// Empty log.
    pub fn new() -> Self {
        AdminLog::default()
    }

    /// Behavioral digest of the log (companion to [`Policy::digest`]):
    /// the dedupe key used by state-space exploration layers. Covers the
    /// last version and the restrictive entries — see the `Hash` impl for
    /// why pruning skew must not perturb it.
    ///
    /// [`Policy::digest`]: crate::Policy::digest
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(self, &mut h);
        std::hash::Hasher::finish(&h)
    }

    /// Number of stored requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no administrative request has been applied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates requests in version order.
    pub fn iter(&self) -> impl Iterator<Item = &AdminRequest> {
        self.entries.iter()
    }

    /// Number of *restrictive* entries (the only ones `check_remote`
    /// walks). O(1) — the restrictive index is maintained by `push`.
    /// Observability scrapes this into its `admin_log.restrictive` gauge.
    pub fn restrictive_count(&self) -> usize {
        self.restrictive.len()
    }

    /// Version of the last stored request (0 when empty).
    pub fn last_version(&self) -> PolicyVersion {
        self.entries.last().map(|r| r.version).unwrap_or(0)
    }

    /// Appends a request; versions must be contiguous (total order).
    ///
    /// # Panics
    ///
    /// Panics if `r.version != last_version() + 1` — administrative
    /// requests are totally ordered by construction, so a gap is a protocol
    /// bug, not a recoverable condition.
    pub fn push(&mut self, r: AdminRequest) {
        assert_eq!(
            r.version,
            self.last_version() + 1,
            "administrative requests must arrive in version order"
        );
        if r.is_restrictive() {
            self.restrictive.push(self.entries.len());
        }
        self.entries.push(r);
    }

    /// Rebuilds a log from entries (snapshot restore). Versions must be
    /// strictly ascending; gaps are legal — a snapshot taken after
    /// [`AdminLog::compact_non_restrictive`] ran omits the pruned
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the versions are not strictly ascending.
    pub fn from_entries(entries: Vec<AdminRequest>) -> Self {
        let mut log = AdminLog::new();
        for r in entries {
            assert!(
                r.version > log.last_version(),
                "administrative log entries must be version-ordered"
            );
            if r.is_restrictive() {
                log.restrictive.push(log.entries.len());
            }
            log.entries.push(r);
        }
        log
    }

    /// The retained requests with version strictly greater than `v` — the
    /// administrative operations *concurrent* to a cooperative request
    /// generated at policy version `v`. Versions ascend strictly (but may
    /// gap after compaction), so the suffix start is a binary search.
    pub fn since(&self, v: PolicyVersion) -> &[AdminRequest] {
        let start = self.entries.partition_point(|r| r.version <= v);
        &self.entries[start..]
    }

    /// The retained restrictive entries, in version order.
    fn restrictive_entries(&self) -> impl Iterator<Item = &AdminRequest> {
        self.restrictive.iter().map(|&i| &self.entries[i])
    }

    /// Drops every non-restrictive entry except the newest one, returning
    /// the number dropped. This is the admin-log half of log compaction:
    /// [`AdminLog::check_remote`] — the only protocol reader of the log —
    /// walks restrictive entries exclusively, at *any* remote context
    /// version, so a non-restrictive entry is never consulted again once
    /// applied to the policy. The newest entry survives unconditionally
    /// so [`AdminLog::last_version`] (and with it the [`AdminLog::push`]
    /// contiguity check) is unaffected by pruning. The retained length is
    /// therefore bounded by `restrictive_count() + 1` regardless of how
    /// many validations the session has issued.
    pub fn compact_non_restrictive(&mut self) -> usize {
        let before = self.entries.len();
        let last = self.last_version();
        self.entries.retain(|r| r.is_restrictive() || r.version == last);
        self.restrictive = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_restrictive().then_some(i))
            .collect();
        before - self.entries.len()
    }

    /// The paper's `Check_Remote(q, L)`: a remote cooperative request
    /// granted at its origin under policy version `v` stays granted unless
    /// some *concurrent restrictive* request (version > `v`) revokes the
    /// access it relies on. Returns the denying request, if any.
    ///
    /// Walks only the restrictive index entries past `v` — non-restrictive
    /// requests (the overwhelming majority: every `Validate`) are never
    /// touched.
    pub fn check_remote<'a>(
        &'a self,
        user: UserId,
        action: &Action,
        v: PolicyVersion,
        policy: &Policy,
    ) -> Option<&'a AdminRequest> {
        let lo = self.restrictive.partition_point(|&i| self.entries[i].version <= v);
        self.restrictive[lo..]
            .iter()
            .map(|&i| &self.entries[i])
            .find(|r| r.op.matches_access(user, action, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Sign;
    use crate::right::Right;
    use crate::subject::Subject;

    fn revoke_insert(user: UserId) -> AdminOp {
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(user),
                DocObject::Document,
                [Right::Insert],
                Sign::Minus,
            ),
        }
    }

    #[test]
    fn restrictive_classification_follows_definition_3() {
        assert!(revoke_insert(1).is_restrictive());
        let grant = AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::grant(Subject::All, DocObject::Document, [Right::Insert]),
        };
        assert!(!grant.is_restrictive());
        let del = AdminOp::DelAuth {
            pos: 0,
            auth: Authorization::grant(Subject::All, DocObject::Document, [Right::Insert]),
        };
        assert!(del.is_restrictive());
        assert!(AdminOp::DelUser(1).is_restrictive());
        assert!(!AdminOp::AddUser(1).is_restrictive());
        assert!(!AdminOp::Validate { site: 1, seq: 1 }.is_restrictive());
    }

    #[test]
    fn apply_membership_ops() {
        let mut p = Policy::new();
        AdminOp::AddUser(1).apply_to(&mut p).unwrap();
        assert!(p.has_user(1));
        assert!(matches!(AdminOp::AddUser(1).apply_to(&mut p), Err(PolicyError::DuplicateUser(1))));
        AdminOp::DelUser(1).apply_to(&mut p).unwrap();
        assert!(!p.has_user(1));
        assert!(matches!(AdminOp::DelUser(1).apply_to(&mut p), Err(PolicyError::UnknownUser(1))));
    }

    #[test]
    fn apply_object_and_auth_ops() {
        let mut p = Policy::new();
        AdminOp::AddObj { name: "title".into(), object: DocObject::Range { from: 1, to: 2 } }
            .apply_to(&mut p)
            .unwrap();
        assert!(p.objects().contains_key("title"));
        let auth =
            Authorization::grant(Subject::All, DocObject::Named("title".into()), [Right::Update]);
        AdminOp::AddAuth { pos: 0, auth: auth.clone() }.apply_to(&mut p).unwrap();
        assert_eq!(p.authorizations().len(), 1);
        AdminOp::DelAuth { pos: 0, auth }.apply_to(&mut p).unwrap();
        assert!(p.authorizations().is_empty());
        AdminOp::DelObj { name: "title".into() }.apply_to(&mut p).unwrap();
        assert!(p.objects().is_empty());
    }

    #[test]
    fn validate_changes_nothing() {
        let mut p = Policy::permissive([1]);
        let before = p.clone();
        AdminOp::Validate { site: 1, seq: 3 }.apply_to(&mut p).unwrap();
        assert_eq!(p, before);
    }

    #[test]
    fn log_orders_by_version_and_slices_since() {
        let mut log = AdminLog::new();
        assert_eq!(log.last_version(), 0);
        log.push(AdminRequest { admin: 0, version: 1, op: AdminOp::AddUser(1) });
        log.push(AdminRequest { admin: 0, version: 2, op: revoke_insert(1) });
        log.push(AdminRequest { admin: 0, version: 3, op: AdminOp::Validate { site: 1, seq: 1 } });
        assert_eq!(log.len(), 3);
        assert_eq!(log.since(0).len(), 3);
        assert_eq!(log.since(1).len(), 2);
        assert_eq!(log.since(3).len(), 0);
        assert_eq!(log.iter().count(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "version order")]
    fn log_rejects_version_gap() {
        let mut log = AdminLog::new();
        log.push(AdminRequest { admin: 0, version: 2, op: AdminOp::AddUser(1) });
    }

    /// A log of n entries with r restrictive ones compacts down to r + 1
    /// and keeps answering `since`/`check_remote`/`push` correctly.
    #[test]
    fn compaction_keeps_restrictive_entries_and_the_newest() {
        let mut log = AdminLog::new();
        log.push(AdminRequest { admin: 0, version: 1, op: AdminOp::AddUser(1) });
        log.push(AdminRequest { admin: 0, version: 2, op: revoke_insert(1) });
        for v in 3..=9 {
            log.push(AdminRequest {
                admin: 0,
                version: v,
                op: AdminOp::Validate { site: 1, seq: v },
            });
        }
        let full = log.clone();
        let dropped = log.compact_non_restrictive();
        assert_eq!(dropped, 7); // v1 and v3..=8 go; v2 (restrictive) and v9 (newest) stay
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_version(), 9);
        assert_eq!(log.restrictive_count(), 1);

        // Pruning skew is not divergence: behavioral eq/hash ignore it.
        assert_eq!(log, full);
        assert_eq!(log.digest(), full.digest());

        // check_remote still sees the concurrent revocation at any v.
        let policy = Policy::permissive([1, 2]);
        let ins = Action::new(Right::Insert, Some(2));
        assert!(log.check_remote(1, &ins, 0, &policy).is_some());
        assert!(log.check_remote(1, &ins, 2, &policy).is_none());

        // since() slices by version even across the gap.
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(2).len(), 1);
        assert_eq!(log.since(9).len(), 0);

        // push continues from the surviving last_version.
        log.push(AdminRequest { admin: 0, version: 10, op: AdminOp::AddUser(7) });
        assert_eq!(log.last_version(), 10);

        // A gapped log survives the snapshot round-trip.
        let rebuilt = AdminLog::from_entries(log.iter().cloned().collect());
        assert_eq!(rebuilt, log);
        assert_eq!(rebuilt.last_version(), 10);
        assert_eq!(rebuilt.restrictive_count(), 1);

        // An idempotent second pass drops the now-stale v9 Validate only.
        assert_eq!(log.compact_non_restrictive(), 1);
        assert_eq!(log.compact_non_restrictive(), 0);
    }

    #[test]
    #[should_panic(expected = "version-ordered")]
    fn from_entries_rejects_disorder() {
        AdminLog::from_entries(vec![
            AdminRequest { admin: 0, version: 2, op: AdminOp::AddUser(1) },
            AdminRequest { admin: 0, version: 1, op: AdminOp::AddUser(2) },
        ]);
    }

    #[test]
    fn check_remote_detects_concurrent_revocation() {
        let policy = Policy::permissive([1, 2]);
        let mut log = AdminLog::new();
        log.push(AdminRequest { admin: 0, version: 1, op: revoke_insert(1) });

        let ins = Action::new(Right::Insert, Some(2));
        // Request generated at version 0: the revocation is concurrent.
        assert!(log.check_remote(1, &ins, 0, &policy).is_some());
        // Other users and other rights are unaffected.
        assert!(log.check_remote(2, &ins, 0, &policy).is_none());
        let del = Action::new(Right::Delete, Some(2));
        assert!(log.check_remote(1, &del, 0, &policy).is_none());
        // Request generated after the revocation (v ≥ 1): not concurrent —
        // its origin already checked it against the new policy.
        assert!(log.check_remote(1, &ins, 1, &policy).is_none());
    }

    #[test]
    fn check_remote_detects_deleted_grant() {
        let policy = Policy::permissive([1]);
        let grant = Authorization::grant(Subject::All, DocObject::Document, [Right::Delete]);
        let mut log = AdminLog::new();
        log.push(AdminRequest {
            admin: 0,
            version: 1,
            op: AdminOp::DelAuth { pos: 0, auth: grant },
        });
        let del = Action::new(Right::Delete, Some(1));
        assert!(log.check_remote(1, &del, 0, &policy).is_some());
        let ins = Action::new(Right::Insert, Some(1));
        assert!(log.check_remote(1, &ins, 0, &policy).is_none());
    }

    #[test]
    fn check_remote_detects_user_removal() {
        let policy = Policy::permissive([1, 2]);
        let mut log = AdminLog::new();
        log.push(AdminRequest { admin: 0, version: 1, op: AdminOp::DelUser(2) });
        let ins = Action::new(Right::Insert, Some(1));
        assert!(log.check_remote(2, &ins, 0, &policy).is_some());
        assert!(log.check_remote(1, &ins, 0, &policy).is_none());
    }

    #[test]
    fn validations_never_deny() {
        let policy = Policy::permissive([1]);
        let mut log = AdminLog::new();
        log.push(AdminRequest { admin: 0, version: 1, op: AdminOp::Validate { site: 1, seq: 1 } });
        let ins = Action::new(Right::Insert, Some(1));
        assert!(log.check_remote(1, &ins, 0, &policy).is_none());
    }

    #[test]
    fn displays() {
        assert_eq!(AdminOp::AddUser(3).to_string(), "AddUser(s3)");
        assert_eq!(AdminOp::Validate { site: 2, seq: 9 }.to_string(), "Validate(2#9)");
        let r = AdminRequest { admin: 0, version: 4, op: AdminOp::DelUser(1) };
        assert_eq!(r.to_string(), "r4:DelUser(s1)");
        assert!(AdminOp::DelObj { name: "x".into() }.to_string().contains("#x"));
        let a = Authorization::grant(Subject::All, DocObject::Document, [Right::Read]);
        assert!(AdminOp::AddAuth { pos: 0, auth: a.clone() }.to_string().contains("AddAuth(0"));
        assert!(AdminOp::DelAuth { pos: 0, auth: a }.to_string().contains("DelAuth(0"));
        assert!(AdminOp::AddObj { name: "y".into(), object: DocObject::Document }
            .to_string()
            .contains("#y"));
    }
}
