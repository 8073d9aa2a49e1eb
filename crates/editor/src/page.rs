//! Paragraph-granularity collaborative editing of html-like pages —
//! the workload of the paper's p2pEdit prototype (Fig. 6).

use dce_core::{CoreError, Site};
use dce_document::{Document, Op, Paragraph, Position};
use dce_net::sim::{Latency, SimNet};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject, UserId};

/// A collaborative html-page session: the document is a sequence of styled
/// paragraphs; every block operation maps onto one cooperative operation,
/// so access rights apply at paragraph granularity.
pub struct PageSession {
    net: SimNet<Paragraph>,
}

impl PageSession {
    /// Opens a page session with `n_users` participants (user 0
    /// administrates) and a fully permissive starting policy.
    pub fn open(paragraphs: Vec<Paragraph>, n_users: u32, seed: u64, latency: Latency) -> Self {
        let users: Vec<UserId> = (0..n_users).collect();
        let policy = Policy::permissive(users);
        PageSession {
            net: SimNet::group(n_users, Document::from_elements(paragraphs), policy, seed, latency),
        }
    }

    /// A site by index.
    pub fn site(&self, idx: usize) -> &Site<Paragraph> {
        self.net.site(idx)
    }

    /// Mutable access to the underlying network — fault plans, session
    /// crashes, and other transport-level manipulation.
    pub fn net_mut(&mut self) -> &mut SimNet<Paragraph> {
        &mut self.net
    }

    /// Shares an observability handle with the whole session: every site
    /// journals protocol events and the network adds transport events.
    /// Call before editing to capture the run from the start.
    pub fn enable_observability(&mut self, obs: dce_obs::ObsHandle) {
        self.net.enable_observability(obs);
    }

    /// Inserts a paragraph so it becomes block number `pos` (1-based).
    pub fn insert_block(
        &mut self,
        site: usize,
        pos: Position,
        para: Paragraph,
    ) -> Result<(), CoreError> {
        self.net.submit_coop(site, Op::Ins { pos, elem: para })?;
        Ok(())
    }

    /// Removes block `pos`.
    pub fn remove_block(&mut self, site: usize, pos: Position) -> Result<(), CoreError> {
        let elem = self
            .net
            .site(site)
            .document()
            .get(pos)
            .cloned()
            .ok_or_else(|| CoreError::Protocol(format!("no block at {pos}")))?;
        self.net.submit_coop(site, Op::Del { pos, elem })?;
        Ok(())
    }

    /// Rewrites the text of block `pos`, keeping its style.
    pub fn edit_block(&mut self, site: usize, pos: Position, text: &str) -> Result<(), CoreError> {
        let old = self
            .net
            .site(site)
            .document()
            .get(pos)
            .cloned()
            .ok_or_else(|| CoreError::Protocol(format!("no block at {pos}")))?;
        let new = Paragraph { text: text.to_owned(), style: old.style.clone() };
        self.net.submit_coop(site, Op::Up { pos, old, new })?;
        Ok(())
    }

    /// Restyles block `pos` (e.g. promote to a heading).
    pub fn restyle_block(
        &mut self,
        site: usize,
        pos: Position,
        style: &str,
    ) -> Result<(), CoreError> {
        let old = self
            .net
            .site(site)
            .document()
            .get(pos)
            .cloned()
            .ok_or_else(|| CoreError::Protocol(format!("no block at {pos}")))?;
        let new = Paragraph { text: old.text.clone(), style: style.to_owned() };
        self.net.submit_coop(site, Op::Up { pos, old, new })?;
        Ok(())
    }

    /// Grants rights on a block range.
    pub fn grant(
        &mut self,
        subject: Subject,
        scope: DocObject,
        rights: impl IntoIterator<Item = Right>,
    ) -> Result<(), CoreError> {
        let auth = Authorization::new(subject, scope, rights, Sign::Plus);
        self.net.submit_admin(0, AdminOp::AddAuth { pos: 0, auth })?;
        Ok(())
    }

    /// Revokes rights on a block range.
    pub fn revoke(
        &mut self,
        subject: Subject,
        scope: DocObject,
        rights: impl IntoIterator<Item = Right>,
    ) -> Result<(), CoreError> {
        let auth = Authorization::new(subject, scope, rights, Sign::Minus);
        self.net.submit_admin(0, AdminOp::AddAuth { pos: 0, auth })?;
        Ok(())
    }

    /// Delivers all in-flight messages.
    pub fn sync(&mut self) {
        self.net.run_to_quiescence();
    }

    /// `true` when all active replicas agree.
    pub fn converged(&self) -> bool {
        self.net.converged()
    }

    /// Renders the page at `site` as html.
    pub fn render_html(&self, site: usize) -> String {
        let mut out = String::new();
        for p in self.net.site(site).document().iter() {
            out.push_str(&p.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> Vec<Paragraph> {
        vec![Paragraph::styled("Project Notes", "h1"), Paragraph::new("Introduction goes here.")]
    }

    #[test]
    fn block_editing_converges() {
        let mut s = PageSession::open(start(), 3, 2, Latency::Uniform(1, 60));
        s.insert_block(1, 3, Paragraph::new("Methods.")).unwrap();
        s.edit_block(2, 2, "A better introduction.").unwrap();
        s.sync();
        assert!(s.converged());
        let html = s.render_html(0);
        assert!(html.contains("<h1>Project Notes</h1>"));
        assert!(html.contains("A better introduction."));
        assert!(html.contains("Methods."));
    }

    #[test]
    fn restyle_and_remove() {
        let mut s = PageSession::open(start(), 2, 6, Latency::Fixed(5));
        s.restyle_block(1, 2, "blockquote").unwrap();
        s.sync();
        assert!(s.render_html(0).contains("<blockquote>"));
        s.remove_block(0, 2).unwrap();
        s.sync();
        assert!(!s.render_html(1).contains("blockquote"));
    }

    #[test]
    fn heading_lockdown() {
        let mut s = PageSession::open(start(), 2, 4, Latency::Fixed(3));
        // Nobody but the admin may touch block 1 (the title).
        s.revoke(Subject::User(1), DocObject::Element(1), [Right::Update, Right::Delete]).unwrap();
        s.sync();
        assert!(s.edit_block(1, 1, "Defaced").is_err());
        assert!(s.remove_block(1, 1).is_err());
        s.edit_block(1, 2, "Body edits are fine.").unwrap();
        s.sync();
        assert!(s.converged());
        assert!(s.render_html(0).contains("Body edits are fine."));
    }

    #[test]
    fn concurrent_block_ops_with_revocation() {
        let mut s = PageSession::open(start(), 3, 11, Latency::Uniform(1, 80));
        s.revoke(Subject::User(2), DocObject::Document, [Right::Insert]).unwrap();
        // User 2 inserts concurrently — retroactively removed.
        s.insert_block(2, 1, Paragraph::new("spam")).unwrap();
        s.insert_block(1, 3, Paragraph::new("legit")).unwrap();
        s.sync();
        assert!(s.converged());
        let html = s.render_html(0);
        assert!(!html.contains("spam"));
        assert!(html.contains("legit"));
    }
}
