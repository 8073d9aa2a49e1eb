//! Authorization subjects: a user, a set of users, a named group, or all.

use std::collections::BTreeSet;
use std::fmt;

/// A collaborating user's identity. One user per site (paper §3.3), so user
/// ids coincide with `dce_ot::SiteId` values at the `dce-core` layer.
pub type UserId = u32;

/// The subject part `S_i` of an authorization: which users it covers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subject {
    /// Every user in the group (the paper's `All`).
    All,
    /// A single user.
    User(UserId),
    /// An explicit set of users.
    Users(BTreeSet<UserId>),
    /// A named group, resolved against the policy's group table at check
    /// time (groups are managed with `AddObj`-style admin operations).
    Group(String),
}

impl Subject {
    /// Builds a [`Subject::Users`] from an iterator.
    pub fn users(ids: impl IntoIterator<Item = UserId>) -> Self {
        Subject::Users(ids.into_iter().collect())
    }

    /// `true` when the subject covers `user`. `resolve_group` maps group
    /// names to member sets (empty when unknown).
    pub fn covers(&self, user: UserId, resolve_group: impl Fn(&str) -> BTreeSet<UserId>) -> bool {
        match self {
            Subject::All => true,
            Subject::User(u) => *u == user,
            Subject::Users(set) => set.contains(&user),
            Subject::Group(name) => resolve_group(name).contains(&user),
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::All => write!(f, "All"),
            Subject::User(u) => write!(f, "s{u}"),
            Subject::Users(set) => {
                write!(f, "{{")?;
                for (i, u) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "s{u}")?;
                }
                write!(f, "}}")
            }
            Subject::Group(g) => write!(f, "@{g}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_groups(_: &str) -> BTreeSet<UserId> {
        BTreeSet::new()
    }

    #[test]
    fn all_covers_everyone() {
        assert!(Subject::All.covers(1, no_groups));
        assert!(Subject::All.covers(99, no_groups));
    }

    #[test]
    fn single_user_covers_only_itself() {
        assert!(Subject::User(2).covers(2, no_groups));
        assert!(!Subject::User(2).covers(3, no_groups));
    }

    #[test]
    fn user_set_covers_members() {
        let s = Subject::users([1, 3, 5]);
        assert!(s.covers(3, no_groups));
        assert!(!s.covers(2, no_groups));
    }

    #[test]
    fn group_resolution() {
        let s = Subject::Group("editors".into());
        let resolver = |name: &str| -> BTreeSet<UserId> {
            if name == "editors" {
                [4, 5].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        };
        assert!(s.covers(4, resolver));
        assert!(!s.covers(6, resolver));
        assert!(!Subject::Group("ghosts".into()).covers(4, no_groups));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Subject::All.to_string(), "All");
        assert_eq!(Subject::User(2).to_string(), "s2");
        assert_eq!(Subject::users([2, 1]).to_string(), "{s1,s2}");
        assert_eq!(Subject::Group("g".into()).to_string(), "@g");
    }
}
