//! The replicated document state: a linear sequence of elements.

use crate::element::{Char, Element};
use std::fmt;

/// A 1-based position into a document, following the paper's convention
/// ("these characters are addressed from 1 to the end of the document").
///
/// For an insertion, valid positions range over `1..=len + 1`; for a
/// deletion or update, over `1..=len`.
pub type Position = usize;

/// The shared document: an ordered sequence of elements of type `E`.
///
/// `Document` is a plain value type — cloning it snapshots the state, and
/// equality is structural. All mutation goes through [`crate::Op::apply`] or
/// the checked primitives below.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Document<E> {
    elems: Vec<E>,
}

/// The character-granularity document used throughout the paper's examples.
pub type CharDocument = Document<Char>;

impl<E> Default for Document<E> {
    fn default() -> Self {
        Document { elems: Vec::new() }
    }
}

impl<E: Element> Document<E> {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a document from an existing element sequence.
    pub fn from_elements(elems: Vec<E>) -> Self {
        Document { elems }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// `true` when the document has no elements.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Returns the element at 1-based position `pos`, if any.
    pub fn get(&self, pos: Position) -> Option<&E> {
        if pos == 0 {
            return None;
        }
        self.elems.get(pos - 1)
    }

    /// Iterates over the elements in document order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.elems.iter()
    }

    /// Borrows the underlying element slice.
    pub fn as_slice(&self) -> &[E] {
        &self.elems
    }

    /// Inserts `elem` so that it ends up at 1-based position `pos`.
    ///
    /// Returns `false` (and leaves the document untouched) if `pos` is
    /// outside `1..=len + 1`.
    pub fn insert(&mut self, pos: Position, elem: E) -> bool {
        if pos == 0 || pos > self.elems.len() + 1 {
            return false;
        }
        self.elems.insert(pos - 1, elem);
        true
    }

    /// Removes and returns the element at 1-based position `pos`.
    pub fn remove(&mut self, pos: Position) -> Option<E> {
        if pos == 0 || pos > self.elems.len() {
            return None;
        }
        Some(self.elems.remove(pos - 1))
    }

    /// Replaces the element at 1-based position `pos`, returning the element
    /// previously stored there.
    pub fn replace(&mut self, pos: Position, elem: E) -> Option<E> {
        if pos == 0 || pos > self.elems.len() {
            return None;
        }
        Some(std::mem::replace(&mut self.elems[pos - 1], elem))
    }
}

impl Document<Char> {
    /// Builds a character document from a string, one element per `char`.
    /// (Infallible, hence not the `FromStr` trait.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Self {
        Document { elems: s.chars().map(Char).collect() }
    }
}

impl fmt::Display for Document<Char> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.elems {
            write!(f, "{}", c.0)?;
        }
        Ok(())
    }
}

impl<E: Element> FromIterator<E> for Document<E> {
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        Document { elems: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_and_display_roundtrip() {
        let d = CharDocument::from_str("efecte");
        assert_eq!(d.len(), 6);
        assert_eq!(d.to_string(), "efecte");
    }

    #[test]
    fn positions_are_one_based() {
        let mut d = CharDocument::from_str("abc");
        assert_eq!(d.get(1), Some(&Char('a')));
        assert_eq!(d.get(3), Some(&Char('c')));
        assert_eq!(d.get(0), None);
        assert_eq!(d.get(4), None);
        assert!(d.insert(1, Char('x')));
        assert_eq!(d.to_string(), "xabc");
    }

    #[test]
    fn insert_at_end_plus_one_is_append() {
        let mut d = CharDocument::from_str("ab");
        assert!(d.insert(3, Char('c')));
        assert_eq!(d.to_string(), "abc");
        assert!(!d.insert(5, Char('z')));
        assert_eq!(d.to_string(), "abc");
    }

    #[test]
    fn remove_shifts_left() {
        let mut d = CharDocument::from_str("abc");
        assert_eq!(d.remove(2), Some(Char('b')));
        assert_eq!(d.to_string(), "ac");
        assert_eq!(d.remove(0), None);
        assert_eq!(d.remove(3), None);
    }

    #[test]
    fn replace_returns_old_element() {
        let mut d = CharDocument::from_str("abc");
        assert_eq!(d.replace(2, Char('x')), Some(Char('b')));
        assert_eq!(d.to_string(), "axc");
        assert_eq!(d.replace(9, Char('y')), None);
    }

    #[test]
    fn insert_position_zero_rejected() {
        let mut d = CharDocument::from_str("ab");
        assert!(!d.insert(0, Char('z')));
        assert_eq!(d.to_string(), "ab");
    }

    #[test]
    fn generic_over_integers() {
        let mut d: Document<u32> = Document::new();
        assert!(d.is_empty());
        assert!(d.insert(1, 7));
        assert!(d.insert(2, 9));
        assert_eq!(d.as_slice(), &[7, 9]);
        let collected: Document<u32> = vec![1, 2, 3].into_iter().collect();
        assert_eq!(collected.len(), 3);
    }
}
