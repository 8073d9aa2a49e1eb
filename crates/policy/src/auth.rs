//! Signed authorizations — the entries of the policy list.

use crate::object::DocObject;
use crate::right::Right;
use crate::subject::Subject;
use std::collections::BTreeSet;
use std::fmt;

/// Authorization sign: `+` grants, `−` revokes (paper Definition 2 —
/// "negative authorizations are just used to accelerate the checking
/// process" under first-match semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Right attribution.
    Plus,
    /// Right revocation.
    Minus,
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if matches!(self, Sign::Plus) { "+" } else { "-" })
    }
}

/// One policy entry: the quadruple `⟨S_i, O_i, R_i, ω_i⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Authorization {
    /// Covered users.
    pub subject: Subject,
    /// Covered document objects.
    pub object: DocObject,
    /// Covered rights.
    pub rights: BTreeSet<Right>,
    /// Grant or revoke.
    pub sign: Sign,
}

impl Authorization {
    /// Builds an authorization.
    pub fn new(
        subject: Subject,
        object: DocObject,
        rights: impl IntoIterator<Item = Right>,
        sign: Sign,
    ) -> Self {
        Authorization { subject, object, rights: rights.into_iter().collect(), sign }
    }

    /// Convenience: positive authorization.
    pub fn grant(
        subject: Subject,
        object: DocObject,
        rights: impl IntoIterator<Item = Right>,
    ) -> Self {
        Self::new(subject, object, rights, Sign::Plus)
    }

    /// Convenience: negative authorization.
    pub fn revoke(
        subject: Subject,
        object: DocObject,
        rights: impl IntoIterator<Item = Right>,
    ) -> Self {
        Self::new(subject, object, rights, Sign::Minus)
    }

    /// `true` for a positive authorization.
    pub fn is_positive(&self) -> bool {
        matches!(self.sign, Sign::Plus)
    }
}

impl fmt::Display for Authorization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {{", self.subject, self.object)?;
        for (i, r) in self.rights.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}, {}⟩", self.sign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_sign() {
        let g = Authorization::grant(Subject::All, DocObject::Document, [Right::Insert]);
        assert!(g.is_positive());
        let r = Authorization::revoke(Subject::User(1), DocObject::Document, [Right::Delete]);
        assert!(!r.is_positive());
    }

    #[test]
    fn display_matches_paper_notation() {
        let a =
            Authorization::grant(Subject::All, DocObject::Document, [Right::Insert, Right::Delete]);
        assert_eq!(a.to_string(), "⟨All, Doc, {iR,dR}, +⟩");
    }
}
