//! Authorization objects: which part of the shared document is protected.

use dce_document::Position;
use std::fmt;

/// The object part `O_i` of an authorization (paper §3.2: "an object can be
/// the whole shared document, an element or a group of elements").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DocObject {
    /// The whole shared document (`Doc` in the paper's examples).
    Document,
    /// A single element, addressed by its visible position at check time.
    Element(Position),
    /// A contiguous range of visible positions, inclusive on both ends.
    Range {
        /// First covered position.
        from: Position,
        /// Last covered position.
        to: Position,
    },
    /// A named object registered with `AddObj` (e.g. a section), resolved
    /// against the policy's object table at check time.
    Named(String),
}

impl DocObject {
    /// `true` when this object covers an operation targeting `pos`
    /// (`None` = document-level action such as joining the session).
    /// `resolve` maps named objects to their current definitions.
    pub fn covers(
        &self,
        pos: Option<Position>,
        resolve: &dyn Fn(&str) -> Option<DocObject>,
    ) -> bool {
        match self {
            DocObject::Document => true,
            DocObject::Element(p) => pos == Some(*p),
            DocObject::Range { from, to } => {
                matches!(pos, Some(p) if p >= *from && p <= *to)
            }
            DocObject::Named(name) => match resolve(name) {
                // A named object may not resolve to another name (no
                // recursion): resolve once and match structurally.
                Some(DocObject::Named(_)) | None => false,
                Some(inner) => inner.covers(pos, &|_| None),
            },
        }
    }
}

impl fmt::Display for DocObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocObject::Document => write!(f, "Doc"),
            DocObject::Element(p) => write!(f, "elem[{p}]"),
            DocObject::Range { from, to } => write!(f, "elems[{from}..={to}]"),
            DocObject::Named(n) => write!(f, "#{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_named(_: &str) -> Option<DocObject> {
        None
    }

    #[test]
    fn document_covers_everything() {
        assert!(DocObject::Document.covers(Some(5), &no_named));
        assert!(DocObject::Document.covers(None, &no_named));
    }

    #[test]
    fn element_and_range_cover_positions() {
        assert!(DocObject::Element(3).covers(Some(3), &no_named));
        assert!(!DocObject::Element(3).covers(Some(4), &no_named));
        assert!(!DocObject::Element(3).covers(None, &no_named));
        let r = DocObject::Range { from: 2, to: 4 };
        assert!(r.covers(Some(2), &no_named));
        assert!(r.covers(Some(4), &no_named));
        assert!(!r.covers(Some(5), &no_named));
        assert!(!r.covers(None, &no_named));
    }

    #[test]
    fn named_objects_resolve_once() {
        let resolver = |name: &str| -> Option<DocObject> {
            match name {
                "title" => Some(DocObject::Range { from: 1, to: 3 }),
                "alias" => Some(DocObject::Named("title".into())),
                _ => None,
            }
        };
        assert!(DocObject::Named("title".into()).covers(Some(2), &resolver));
        assert!(!DocObject::Named("title".into()).covers(Some(9), &resolver));
        // No recursive resolution, no unknown names.
        assert!(!DocObject::Named("alias".into()).covers(Some(2), &resolver));
        assert!(!DocObject::Named("ghost".into()).covers(Some(2), &resolver));
    }

    #[test]
    fn display_forms() {
        assert_eq!(DocObject::Document.to_string(), "Doc");
        assert_eq!(DocObject::Element(2).to_string(), "elem[2]");
        assert_eq!(DocObject::Range { from: 1, to: 4 }.to_string(), "elems[1..=4]");
        assert_eq!(DocObject::Named("s".into()).to_string(), "#s");
    }
}
