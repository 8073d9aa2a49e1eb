//! Element types that can populate a shared linear document.
//!
//! The paper (§3.1) parameterises the list abstract data type by the element
//! type: "an element may be regarded as a character, a paragraph, a page, an
//! XML node, etc.". We capture that with the [`Element`] marker trait and
//! ship two concrete element kinds (characters and paragraphs); any other
//! `Clone + Eq + Debug` type works too.

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
    fn blanket_element_impl_covers_custom_types() {
        fn assert_element<E: Element>() {}
        assert_element::<Char>();
        assert_element::<Paragraph>();
        assert_element::<u64>();
        assert_element::<String>();
    }
}
