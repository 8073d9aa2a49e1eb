//! Site and request identities.

use std::fmt;

/// Identity of a collaborating site (one user = one site, paper §3.3).
pub type SiteId = u32;

/// Globally unique identity of a cooperative request: the issuing site `c`
/// concatenated with the site-local serial number `r` (paper §5.1: "the
/// concatenation of `q.c` and `q.r` is defined as the request identity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// Issuing site (`q.c`).
    pub site: SiteId,
    /// Site-local serial number (`q.r`), starting at 1.
    pub seq: u64,
}

impl RequestId {
    /// Builds a request id.
    pub fn new(site: SiteId, seq: u64) -> Self {
        RequestId { site, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.site, self.seq)
    }
}

/// A causal-context clock: for each site, the number of its requests the
/// holder has integrated (contiguously, thanks to FIFO delivery).
///
/// Carried by every broadcast request to identify its generation context
/// exactly. Reference \[4\] of the paper advertises a dependency-tree
/// technique instead; our reproduction found that minimal-context
/// (dependency-only) broadcast loses one bit of placement information at
/// insertion boundaries between causally ordered same-site insertions, so we
/// follow the classical state-vector discipline for context detection while
/// keeping the dependency pointer for the access-control layer's causal
/// gating (see DESIGN.md, substitutions).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Clock(std::collections::BTreeMap<SiteId, u64>);

impl Clock {
    /// The empty clock (initial context).
    pub fn new() -> Self {
        Clock::default()
    }

    /// Number of requests from `site` in this context.
    pub fn get(&self, site: SiteId) -> u64 {
        self.0.get(&site).copied().unwrap_or(0)
    }

    /// Records that requests `1..=seq` of `site` are in the context.
    pub fn set(&mut self, site: SiteId, seq: u64) {
        if seq == 0 {
            self.0.remove(&site);
        } else {
            self.0.insert(site, seq);
        }
    }

    /// Advances `site` by one, returning the new sequence number.
    pub fn tick(&mut self, site: SiteId) -> u64 {
        let next = self.get(site) + 1;
        self.0.insert(site, next);
        next
    }

    /// `true` when `id` belongs to this context.
    pub fn contains(&self, id: RequestId) -> bool {
        id.seq <= self.get(id.site)
    }

    /// `true` when every request in `other` is also in `self`.
    pub fn dominates(&self, other: &Clock) -> bool {
        other.0.iter().all(|(site, seq)| self.get(*site) >= *seq)
    }

    /// First request present in `self` but missing from `other`, if any
    /// (used for diagnostics in not-ready errors).
    pub fn first_missing_from(&self, other: &Clock) -> Option<RequestId> {
        self.0.iter().find_map(|(site, seq)| {
            let have = other.get(*site);
            (have < *seq).then(|| RequestId::new(*site, have + 1))
        })
    }

    /// Iterates `(site, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.0.iter().map(|(s, n)| (*s, *n))
    }

    /// Total number of requests in the context.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, n)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}:{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic_site_then_seq() {
        assert!(RequestId::new(1, 9) < RequestId::new(2, 1));
        assert!(RequestId::new(1, 1) < RequestId::new(1, 2));
    }

    #[test]
    fn display_concatenates_site_and_seq() {
        assert_eq!(RequestId::new(3, 7).to_string(), "3#7");
    }

    #[test]
    fn clock_tick_and_contains() {
        let mut c = Clock::new();
        assert_eq!(c.get(1), 0);
        assert_eq!(c.tick(1), 1);
        assert_eq!(c.tick(1), 2);
        assert!(c.contains(RequestId::new(1, 2)));
        assert!(!c.contains(RequestId::new(1, 3)));
        assert!(!c.contains(RequestId::new(2, 1)));
    }

    #[test]
    fn clock_domination() {
        let mut a = Clock::new();
        a.set(1, 3);
        a.set(2, 1);
        let mut b = Clock::new();
        b.set(1, 2);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a.clone()));
        assert_eq!(a.first_missing_from(&b), Some(RequestId::new(1, 3)));
        assert_eq!(b.first_missing_from(&a), None);
    }

    #[test]
    fn clock_set_zero_clears() {
        let mut c = Clock::new();
        c.set(5, 2);
        c.set(5, 0);
        assert_eq!(c.get(5), 0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.to_string(), "{}");
        c.set(1, 2);
        c.set(3, 1);
        assert_eq!(c.to_string(), "{1:2,3:1}");
        assert_eq!(c.total(), 3);
        assert_eq!(c.iter().count(), 2);
    }
}
