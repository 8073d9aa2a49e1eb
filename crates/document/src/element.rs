//! Element types that can populate a shared linear document.
//!
//! The paper (§3.1) parameterises the list abstract data type by the element
//! type: "an element may be regarded as a character, a paragraph, a page, an
//! XML node, etc.". We capture that with the [`Element`] marker trait and
//! ship the three concrete element kinds the paper names that make sense for
//! a library (characters, paragraphs, XML-ish nodes).

use std::fmt;

/// Marker trait for types that can be stored in a [`crate::Document`].
///
/// Any `Clone + Eq + Debug` type qualifies via the blanket implementation;
/// the trait exists to give the rest of the stack a single, nameable bound.
pub trait Element: Clone + Eq + fmt::Debug {}

impl<T: Clone + Eq + fmt::Debug> Element for T {}

/// A single character element — the granularity used in every example of the
/// paper ("efecte", "abc", …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Char(pub char);

impl fmt::Display for Char {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<char> for Char {
    fn from(c: char) -> Self {
        Char(c)
    }
}

/// A paragraph element: one logical block of text, the granularity used by
/// word-processor integrations (the paper cites MS Word / PowerPoint
/// adaptations of the same linear model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Paragraph {
    /// The paragraph text.
    pub text: String,
    /// Optional style tag (e.g. `"h1"`, `"p"`, `"li"`), matching the html
    /// pages edited by the paper's p2pEdit prototype.
    pub style: String,
}

impl Paragraph {
    /// Creates a body paragraph with the default `"p"` style.
    pub fn new(text: impl Into<String>) -> Self {
        Paragraph { text: text.into(), style: "p".to_owned() }
    }

    /// Creates a paragraph with an explicit style tag.
    pub fn styled(text: impl Into<String>, style: impl Into<String>) -> Self {
        Paragraph { text: text.into(), style: style.into() }
    }
}

impl fmt::Display for Paragraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{s}>{t}</{s}>", s = self.style, t = self.text)
    }
}

/// A minimal XML-like node element: tag, attributes and flattened text.
///
/// Children are represented positionally by neighbouring document elements
/// (a linearised tree), which is how OT-based editors commonly flatten
/// structured documents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Node {
    /// Element tag, e.g. `"title"`.
    pub tag: String,
    /// Attribute pairs in document order.
    pub attrs: Vec<(String, String)>,
    /// Text content.
    pub text: String,
    /// Nesting depth in the linearised tree (0 = root child).
    pub depth: u16,
}

impl Node {
    /// Creates a node with no attributes at depth 0.
    pub fn new(tag: impl Into<String>, text: impl Into<String>) -> Self {
        Node { tag: tag.into(), attrs: Vec::new(), text: text.into(), depth: 0 }
    }

    /// Returns a copy of this node at the given depth.
    pub fn at_depth(mut self, depth: u16) -> Self {
        self.depth = depth;
        self
    }

    /// Adds an attribute, returning the node for chaining.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:indent$}<{}", "", self.tag, indent = self.depth as usize * 2)?;
        for (k, v) in &self.attrs {
            write!(f, " {k}={v:?}")?;
        }
        write!(f, ">{}</{}>", self.text, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_display_roundtrip() {
        assert_eq!(Char('x').to_string(), "x");
        assert_eq!(Char::from('y'), Char('y'));
    }

    #[test]
    fn paragraph_renders_style_tag() {
        assert_eq!(Paragraph::new("hi").to_string(), "<p>hi</p>");
        assert_eq!(Paragraph::styled("Title", "h1").to_string(), "<h1>Title</h1>");
    }

    #[test]
    fn node_renders_attrs_and_depth() {
        let n = Node::new("a", "link").attr("href", "/x").at_depth(1);
        assert_eq!(n.to_string(), "  <a href=\"/x\">link</a>");
    }

    #[test]
    fn blanket_element_impl_covers_custom_types() {
        fn assert_element<E: Element>() {}
        assert_element::<Char>();
        assert_element::<Paragraph>();
        assert_element::<Node>();
        assert_element::<u64>();
        assert_element::<String>();
    }
}
