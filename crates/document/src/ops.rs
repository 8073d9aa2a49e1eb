//! Cooperative operations on the shared document (paper Definition 1).

use crate::element::Element;
use crate::error::ApplyError;
use crate::state::{Document, Position};
use std::fmt;

/// Coarse classification of an operation, used by the OT layer to keep logs
/// canonical (insertions before deletions/updates) and by the policy layer to
/// map operations onto access rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Ins(p, e)`
    Ins,
    /// `Del(p, e)`
    Del,
    /// `Up(p, e, e')`
    Up,
    /// Identity operation produced by transformation (e.g. two concurrent
    /// deletions of the same element).
    Nop,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Ins => "Ins",
            OpKind::Del => "Del",
            OpKind::Up => "Up",
            OpKind::Nop => "Nop",
        };
        f.write_str(s)
    }
}

/// A cooperative operation altering the shared document state.
///
/// The set matches the paper's Definition 1 — `Ins(p, e)`, `Del(p, e)`,
/// `Up(p, e, e')` — plus the identity [`Op::Nop`], which operational
/// transformation yields when an operation's effect has already been achieved
/// by a concurrent operation (e.g. both sites delete the same element).
///
/// `Del` and `Up` carry the element they affect; this makes operations
/// invertible (needed by the retroactive-undo mechanism of §4.2) and lets
/// [`Op::apply`] detect integration bugs as [`ApplyError::ElementMismatch`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op<E> {
    /// Insert `elem` so that it occupies position `pos`.
    Ins {
        /// Target position (1-based; `1..=len + 1`).
        pos: Position,
        /// Element to insert.
        elem: E,
    },
    /// Delete the element `elem` currently at position `pos`.
    Del {
        /// Target position (1-based; `1..=len`).
        pos: Position,
        /// Element expected at `pos`.
        elem: E,
    },
    /// Replace the element `old` at position `pos` with `new`.
    Up {
        /// Target position (1-based; `1..=len`).
        pos: Position,
        /// Element expected at `pos`.
        old: E,
        /// Replacement element.
        new: E,
    },
    /// The identity operation: applying it never changes the document.
    Nop,
}

impl<E: Element> Op<E> {
    /// Convenience constructor for an insertion.
    pub fn ins(pos: Position, elem: impl Into<E>) -> Self {
        Op::Ins { pos, elem: elem.into() }
    }

    /// Convenience constructor for a deletion.
    pub fn del(pos: Position, elem: impl Into<E>) -> Self {
        Op::Del { pos, elem: elem.into() }
    }

    /// Convenience constructor for an update.
    pub fn up(pos: Position, old: impl Into<E>, new: impl Into<E>) -> Self {
        Op::Up { pos, old: old.into(), new: new.into() }
    }

    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Ins { .. } => OpKind::Ins,
            Op::Del { .. } => OpKind::Del,
            Op::Up { .. } => OpKind::Up,
            Op::Nop => OpKind::Nop,
        }
    }

    /// `true` for the identity operation.
    pub fn is_nop(&self) -> bool {
        matches!(self, Op::Nop)
    }

    /// The position the operation targets, if it has one.
    pub fn pos(&self) -> Option<Position> {
        match self {
            Op::Ins { pos, .. } | Op::Del { pos, .. } | Op::Up { pos, .. } => Some(*pos),
            Op::Nop => None,
        }
    }

    /// Rewrites the target position (used by the transformation functions).
    pub fn with_pos(mut self, new_pos: Position) -> Self {
        match &mut self {
            Op::Ins { pos, .. } | Op::Del { pos, .. } | Op::Up { pos, .. } => *pos = new_pos,
            Op::Nop => {}
        }
        self
    }

    /// Applies the operation to `doc`, performing the paper's `Do(o, D)`.
    ///
    /// Fails without modifying the document if the position is out of range
    /// or a carried element does not match the document content.
    pub fn apply(&self, doc: &mut Document<E>) -> Result<(), ApplyError> {
        match self {
            Op::Nop => Ok(()),
            Op::Ins { pos, elem } => {
                if doc.insert(*pos, elem.clone()) {
                    Ok(())
                } else {
                    Err(ApplyError::OutOfBounds { pos: *pos, len: doc.len(), max: doc.len() + 1 })
                }
            }
            Op::Del { pos, elem } => match doc.get(*pos) {
                None => Err(ApplyError::OutOfBounds { pos: *pos, len: doc.len(), max: doc.len() }),
                Some(found) if found != elem => Err(ApplyError::ElementMismatch {
                    pos: *pos,
                    expected: format!("{elem:?}"),
                    found: format!("{found:?}"),
                }),
                Some(_) => {
                    doc.remove(*pos);
                    Ok(())
                }
            },
            Op::Up { pos, old, new } => match doc.get(*pos) {
                None => Err(ApplyError::OutOfBounds { pos: *pos, len: doc.len(), max: doc.len() }),
                Some(found) if found != old => Err(ApplyError::ElementMismatch {
                    pos: *pos,
                    expected: format!("{old:?}"),
                    found: format!("{found:?}"),
                }),
                Some(_) => {
                    doc.replace(*pos, new.clone());
                    Ok(())
                }
            },
        }
    }

    /// Like [`Op::apply`] but tolerant of element mismatches: the positional
    /// effect is applied regardless of the carried element. Used by baselines
    /// that integrate operations without transformation, to reproduce the
    /// *wrong* behaviour of Fig. 1(a) faithfully.
    pub fn apply_unchecked(&self, doc: &mut Document<E>) -> Result<(), ApplyError> {
        match self {
            Op::Nop => Ok(()),
            Op::Ins { pos, elem } => {
                if doc.insert(*pos, elem.clone()) {
                    Ok(())
                } else {
                    Err(ApplyError::OutOfBounds { pos: *pos, len: doc.len(), max: doc.len() + 1 })
                }
            }
            Op::Del { pos, .. } => doc.remove(*pos).map(|_| ()).ok_or(ApplyError::OutOfBounds {
                pos: *pos,
                len: doc.len(),
                max: doc.len(),
            }),
            Op::Up { pos, new, .. } => doc
                .replace(*pos, new.clone())
                .map(|_| ())
                .ok_or(ApplyError::OutOfBounds { pos: *pos, len: doc.len(), max: doc.len() }),
        }
    }

    /// Returns the inverse operation, such that applying `self` then
    /// `self.inverse()` leaves any document unchanged. This is the `q̄`
    /// construction used for retroactive undo (paper §5.3, step 3).
    pub fn inverse(&self) -> Self {
        match self {
            Op::Nop => Op::Nop,
            Op::Ins { pos, elem } => Op::Del { pos: *pos, elem: elem.clone() },
            Op::Del { pos, elem } => Op::Ins { pos: *pos, elem: elem.clone() },
            Op::Up { pos, old, new } => Op::Up { pos: *pos, old: new.clone(), new: old.clone() },
        }
    }
}

impl<E: Element + fmt::Debug> fmt::Display for Op<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Ins { pos, elem } => write!(f, "Ins({pos}, {elem:?})"),
            Op::Del { pos, elem } => write!(f, "Del({pos}, {elem:?})"),
            Op::Up { pos, old, new } => write!(f, "Up({pos}, {old:?}, {new:?})"),
            Op::Nop => write!(f, "Nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Char;
    use crate::state::CharDocument;

    fn doc(s: &str) -> CharDocument {
        CharDocument::from_str(s)
    }

    #[test]
    fn paper_example_fig1_correct_order() {
        // Site 2 in Fig. 1: Del(6, e) then transformed Ins(2, f).
        let mut d = doc("efecte");
        Op::<Char>::del(6, 'e').apply(&mut d).unwrap();
        assert_eq!(d.to_string(), "efect");
        Op::<Char>::ins(2, 'f').apply(&mut d).unwrap();
        assert_eq!(d.to_string(), "effect");
    }

    #[test]
    fn del_checks_element() {
        let mut d = doc("abc");
        let err = Op::<Char>::del(2, 'x').apply(&mut d).unwrap_err();
        assert!(matches!(err, ApplyError::ElementMismatch { pos: 2, .. }));
        assert_eq!(d.to_string(), "abc");
    }

    #[test]
    fn up_replaces_and_checks() {
        let mut d = doc("abc");
        Op::<Char>::up(2, 'b', 'z').apply(&mut d).unwrap();
        assert_eq!(d.to_string(), "azc");
        let err = Op::<Char>::up(2, 'b', 'q').apply(&mut d).unwrap_err();
        assert!(matches!(err, ApplyError::ElementMismatch { .. }));
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut d = doc("ab");
        assert!(matches!(
            Op::<Char>::ins(9, 'x').apply(&mut d),
            Err(ApplyError::OutOfBounds { pos: 9, .. })
        ));
        assert!(matches!(
            Op::<Char>::del(3, 'a').apply(&mut d),
            Err(ApplyError::OutOfBounds { .. })
        ));
        assert!(matches!(
            Op::<Char>::up(0, 'a', 'b').apply(&mut d),
            Err(ApplyError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn nop_is_identity() {
        let mut d = doc("abc");
        Op::<Char>::Nop.apply(&mut d).unwrap();
        assert_eq!(d.to_string(), "abc");
        assert!(Op::<Char>::Nop.is_nop());
        assert_eq!(Op::<Char>::Nop.pos(), None);
    }

    #[test]
    fn inverse_undoes_every_kind() {
        let base = doc("hello");
        for op in [
            Op::<Char>::ins(3, 'x'),
            Op::<Char>::del(2, 'e'),
            Op::<Char>::up(1, 'h', 'H'),
            Op::<Char>::Nop,
        ] {
            let mut d = base.clone();
            op.apply(&mut d).unwrap();
            op.inverse().apply(&mut d).unwrap();
            assert_eq!(d, base, "inverse failed for {op}");
        }
    }

    #[test]
    fn inverse_is_involutive() {
        let op = Op::<Char>::up(4, 'l', 'L');
        assert_eq!(op.inverse().inverse(), op);
    }

    #[test]
    fn apply_unchecked_ignores_element_mismatch() {
        let mut d = doc("abc");
        Op::<Char>::del(2, 'z').apply_unchecked(&mut d).unwrap();
        assert_eq!(d.to_string(), "ac");
    }

    #[test]
    fn with_pos_rewrites_position() {
        let op = Op::<Char>::del(6, 'e').with_pos(7);
        assert_eq!(op.pos(), Some(7));
        assert_eq!(op.kind(), OpKind::Del);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Op::<Char>::ins(2, 'f').to_string(), "Ins(2, Char('f'))");
        assert_eq!(format!("{}", OpKind::Del), "Del");
    }
}
