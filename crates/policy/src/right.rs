//! Access rights (paper §3.2: `rR`, `iR`, `dR`, `uR`).

use std::fmt;

/// One access right. Each right authorizes one kind of operation on the
/// shared document. The paper manages dynamic changes of `iR`, `dR` and
/// `uR`; the read right exists in the model (and is enforced for *joining*
/// a session here) but is outside the scope of dynamic change in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Right {
    /// `rR` — read an element.
    Read,
    /// `iR` — insert an element.
    Insert,
    /// `dR` — delete an element.
    Delete,
    /// `uR` — update an element.
    Update,
}

impl Right {
    /// All four rights, in display order.
    pub const ALL: [Right; 4] = [Right::Read, Right::Insert, Right::Delete, Right::Update];

    /// The three rights whose dynamic change the paper handles.
    pub const DYNAMIC: [Right; 3] = [Right::Insert, Right::Delete, Right::Update];

    /// The right required to perform a cooperative operation kind, if any
    /// (`Nop` needs no right).
    pub fn for_op_kind(kind: dce_document::OpKind) -> Option<Right> {
        match kind {
            dce_document::OpKind::Ins => Some(Right::Insert),
            dce_document::OpKind::Del => Some(Right::Delete),
            dce_document::OpKind::Up => Some(Right::Update),
            dce_document::OpKind::Nop => None,
        }
    }

    /// Paper-style short name.
    pub fn short(&self) -> &'static str {
        match self {
            Right::Read => "rR",
            Right::Insert => "iR",
            Right::Delete => "dR",
            Right::Update => "uR",
        }
    }
}

impl fmt::Display for Right {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::OpKind;

    #[test]
    fn op_kinds_map_to_rights() {
        assert_eq!(Right::for_op_kind(OpKind::Ins), Some(Right::Insert));
        assert_eq!(Right::for_op_kind(OpKind::Del), Some(Right::Delete));
        assert_eq!(Right::for_op_kind(OpKind::Up), Some(Right::Update));
        assert_eq!(Right::for_op_kind(OpKind::Nop), None);
    }

    #[test]
    fn short_names_match_paper() {
        assert_eq!(Right::Read.to_string(), "rR");
        assert_eq!(Right::Insert.to_string(), "iR");
        assert_eq!(Right::Delete.to_string(), "dR");
        assert_eq!(Right::Update.to_string(), "uR");
    }

    #[test]
    fn constants_cover_expected_sets() {
        assert_eq!(Right::ALL.len(), 4);
        assert_eq!(Right::DYNAMIC.len(), 3);
        assert!(!Right::DYNAMIC.contains(&Right::Read));
    }
}
