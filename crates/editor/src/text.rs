//! Character-granularity collaborative text sessions.

use dce_core::{CoreError, Site};
use dce_document::{Char, CharDocument, Op, Position};
use dce_net::sim::{Latency, SimNet};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject, UserId};

/// A live collaborative text-editing session over the simulated network.
///
/// Site 0 is the administrator (the user who "opened the page"); the
/// remaining sites are ordinary participants. All edits go through the
/// full stack: local policy check, OT integration, broadcast, remote
/// re-check, validation, retroactive enforcement.
pub struct TextSession {
    net: SimNet<Char>,
}

impl TextSession {
    /// Opens a session for users `0..n_users`; user 0 is the
    /// administrator. The initial policy grants everyone every right
    /// (the paper's Fig. 5 starting point).
    pub fn open(initial: &str, n_users: u32, seed: u64, latency: Latency) -> Self {
        let users: Vec<UserId> = (0..n_users).collect();
        let policy = Policy::permissive(users);
        TextSession {
            net: SimNet::group(n_users, CharDocument::from_str(initial), policy, seed, latency),
        }
    }

    /// The underlying simulated network (advanced inspection).
    pub fn net(&self) -> &SimNet<Char> {
        &self.net
    }

    /// Mutable access to the underlying network — fault plans, session
    /// crashes, and other transport-level manipulation.
    pub fn net_mut(&mut self) -> &mut SimNet<Char> {
        &mut self.net
    }

    /// Shares an observability handle with the whole session: every site
    /// journals protocol events and the network adds transport events.
    /// Call before editing to capture the run from the start.
    pub fn enable_observability(&mut self, obs: dce_obs::ObsHandle) {
        self.net.enable_observability(obs);
    }

    /// A site by index.
    pub fn site(&self, idx: usize) -> &Site<Char> {
        self.net.site(idx)
    }

    /// The text at a given site.
    pub fn text(&self, site: usize) -> String {
        self.net.site(site).document().to_string()
    }

    /// Inserts a string at `pos` (1-based), one element per character.
    pub fn insert_str(&mut self, site: usize, pos: Position, s: &str) -> Result<(), CoreError> {
        for (i, c) in s.chars().enumerate() {
            self.net.submit_coop(site, Op::ins(pos + i, c))?;
        }
        Ok(())
    }

    /// Deletes `len` characters starting at `pos` (1-based).
    pub fn delete_range(
        &mut self,
        site: usize,
        pos: Position,
        len: usize,
    ) -> Result<(), CoreError> {
        for _ in 0..len {
            let elem = *self
                .net
                .site(site)
                .document()
                .get(pos)
                .ok_or_else(|| CoreError::Protocol(format!("no character at {pos}")))?;
            self.net.submit_coop(site, Op::Del { pos, elem })?;
        }
        Ok(())
    }

    /// Cuts `len` characters at `pos` into a clipboard, removing them from
    /// the document (each deletion goes through the access-control layer).
    pub fn cut(&mut self, site: usize, pos: Position, len: usize) -> Result<Vec<Char>, CoreError> {
        let snapshot = self.net.site(site).document();
        let (clip, ops) = dce_document::compound::cut(&snapshot, pos, len)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        for op in ops {
            self.net.submit_coop(site, op)?;
        }
        Ok(clip)
    }

    /// Copies `len` characters at `pos` (read-only).
    pub fn copy(&self, site: usize, pos: Position, len: usize) -> Result<Vec<Char>, CoreError> {
        dce_document::compound::copy(&self.net.site(site).document(), pos, len)
            .map_err(|e| CoreError::Protocol(e.to_string()))
    }

    /// Pastes a clipboard at `pos`.
    pub fn paste(
        &mut self,
        site: usize,
        pos: Position,
        clipboard: &[Char],
    ) -> Result<(), CoreError> {
        let snapshot = self.net.site(site).document();
        let ops = dce_document::compound::paste(&snapshot, pos, clipboard)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        for op in ops {
            self.net.submit_coop(site, op)?;
        }
        Ok(())
    }

    /// Moves `len` characters from `from` to `to` (pre-move coordinates).
    pub fn move_range(
        &mut self,
        site: usize,
        from: Position,
        len: usize,
        to: Position,
    ) -> Result<(), CoreError> {
        let snapshot = self.net.site(site).document();
        let ops = dce_document::compound::move_range(&snapshot, from, len, to)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        for op in ops {
            self.net.submit_coop(site, op)?;
        }
        Ok(())
    }

    /// Replaces the character at `pos`.
    pub fn replace_char(&mut self, site: usize, pos: Position, new: char) -> Result<(), CoreError> {
        let old = *self
            .net
            .site(site)
            .document()
            .get(pos)
            .ok_or_else(|| CoreError::Protocol(format!("no character at {pos}")))?;
        self.net.submit_coop(site, Op::up(pos, old, new))?;
        Ok(())
    }

    // ---- administrator console ----

    /// Grants `rights` on `scope` to `subject` (prepended, so it wins
    /// first-match against older entries).
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

    /// Revokes `rights` on `scope` from `subject` (prepended negative
    /// authorization — retroactive for unvalidated edits).
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

    /// Registers a named document region usable in grants.
    pub fn define_region(&mut self, name: &str, object: DocObject) -> Result<(), CoreError> {
        self.net.submit_admin(0, AdminOp::AddObj { name: name.to_owned(), object })?;
        Ok(())
    }

    /// Delegates administrative proposing to `user`.
    pub fn delegate(&mut self, user: UserId) -> Result<(), CoreError> {
        self.net.submit_admin(0, AdminOp::Delegate(user))?;
        Ok(())
    }

    /// Withdraws a delegation.
    pub fn revoke_delegation(&mut self, user: UserId) -> Result<(), CoreError> {
        self.net.submit_admin(0, AdminOp::RevokeDelegation(user))?;
        Ok(())
    }

    /// A delegate at `site` proposes an administrative operation; the
    /// administrator sequences it if the delegation checks out.
    pub fn propose(&mut self, site: usize, op: AdminOp) -> Result<(), CoreError> {
        self.net.submit_proposal(site, 0, op)
    }

    /// Defines a named user group (administrator action).
    pub fn set_group(
        &mut self,
        name: &str,
        members: impl IntoIterator<Item = UserId>,
    ) -> Result<(), CoreError> {
        self.net.submit_admin(
            0,
            AdminOp::SetGroup { name: name.to_owned(), members: members.into_iter().collect() },
        )?;
        Ok(())
    }

    /// A new user joins, bootstrapping from the administrator's replica.
    /// Returns their site index.
    pub fn join(&mut self, user: UserId) -> Result<usize, CoreError> {
        self.net.join(user, 0)
    }

    /// A participant leaves the session. Returns `false` for an unknown
    /// site index.
    pub fn leave(&mut self, site: usize) -> bool {
        self.net.leave(site)
    }

    /// Removes a user from the group policy (administrator action).
    pub fn expel(&mut self, user: UserId) -> Result<(), CoreError> {
        self.net.submit_admin(0, AdminOp::DelUser(user))?;
        Ok(())
    }

    /// Delivers every in-flight message.
    pub fn sync(&mut self) {
        self.net.run_to_quiescence();
    }

    /// `true` when all active replicas are identical.
    pub fn converged(&self) -> bool {
        self.net.converged()
    }

    /// Compacts the logs in protocol: every active site broadcasts a
    /// heartbeat, everything in flight is delivered, and each site runs
    /// the gated [`Site::auto_compact`] on what it heard. Returns the total
    /// number of entries reclaimed group-wide.
    ///
    /// Each site prunes only what it knows is stable: a member that left
    /// without being expelled never heartbeats again and pins the horizon
    /// (expel it first), and a site still missing a request some heartbeat
    /// announced keeps every form that request may transform against.
    pub fn compact(&mut self) -> usize {
        self.net.gossip_heartbeats();
        self.net.run_to_quiescence();
        self.net.auto_compact_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_and_syncing() {
        let mut s = TextSession::open("", 3, 1, Latency::Uniform(1, 40));
        s.insert_str(1, 1, "hello").unwrap();
        s.sync();
        s.insert_str(2, 6, " world").unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), "hello world");
    }

    #[test]
    fn concurrent_typing_converges() {
        let mut s = TextSession::open("__", 3, 7, Latency::Uniform(1, 100));
        s.insert_str(1, 2, "abc").unwrap();
        s.insert_str(2, 2, "xyz").unwrap();
        s.delete_range(0, 1, 1).unwrap();
        s.sync();
        assert!(s.converged());
        let t = s.text(0);
        assert!(t.contains("abc") && t.contains("xyz"), "{t}");
    }

    #[test]
    fn revocation_console_is_retroactive() {
        let mut s = TextSession::open("doc", 2, 3, Latency::Fixed(10));
        s.revoke(Subject::User(1), DocObject::Document, [Right::Insert]).unwrap();
        // Concurrent insert by user 1 (not yet aware of the revocation).
        s.insert_str(1, 1, "X").unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), "doc");
        // Local attempts now fail outright.
        assert!(s.insert_str(1, 1, "Y").is_err());
        // Deletion is still allowed.
        s.delete_range(1, 1, 1).unwrap();
        s.sync();
        assert_eq!(s.text(0), "oc");
    }

    #[test]
    fn join_edit_leave_lifecycle() {
        let mut s = TextSession::open("base", 2, 9, Latency::Fixed(5));
        s.insert_str(1, 5, "line").unwrap();
        s.sync();
        let idx = s.join(5).unwrap();
        s.sync();
        assert_eq!(s.text(idx), "baseline");
        s.insert_str(idx, 1, ">").unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), ">baseline");
        s.leave(idx);
        s.insert_str(1, 1, "!").unwrap();
        s.sync();
        assert_eq!(s.text(0), "!>baseline");
        assert_eq!(s.text(idx), ">baseline");
    }

    #[test]
    fn region_scoped_rights() {
        let mut s = TextSession::open("title body", 2, 4, Latency::Fixed(2));
        s.define_region("title", DocObject::Range { from: 1, to: 5 }).unwrap();
        // Deny user 1 updates on the title region (prepended).
        s.revoke(Subject::User(1), DocObject::Named("title".into()), [Right::Update]).unwrap();
        s.sync();
        assert!(s.replace_char(1, 2, 'X').is_err());
        s.replace_char(1, 7, 'B').unwrap();
        s.sync();
        assert_eq!(s.text(0), "title Body");
    }

    #[test]
    fn compaction_reclaims_settled_history() {
        let mut s = TextSession::open("", 3, 5, Latency::Fixed(3));
        s.insert_str(1, 1, "abcdef").unwrap();
        s.sync();
        let reclaimed = s.compact();
        assert!(reclaimed > 0, "validated history should compact");
        // Editing continues normally.
        s.insert_str(2, 1, "!").unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), "!abcdef");
    }

    #[test]
    fn clipboard_operations() {
        let mut s = TextSession::open("hello world", 3, 31, Latency::Uniform(1, 30));
        // Cut "world", paste it at the front.
        let clip = s.cut(1, 7, 5).unwrap();
        s.sync();
        assert_eq!(s.text(0), "hello ");
        s.paste(1, 1, &clip).unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(2), "worldhello ");
        // Copy does not edit.
        let copied = s.copy(2, 1, 5).unwrap();
        assert_eq!(copied.iter().map(|c| c.0).collect::<String>(), "world");
        assert_eq!(s.text(2), "worldhello ");
        // Move a range.
        s.move_range(2, 1, 5, 12).unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), "hello world");
    }

    #[test]
    fn cut_respects_the_policy() {
        let mut s = TextSession::open("abcdef", 2, 17, Latency::Fixed(1));
        s.revoke(Subject::User(1), DocObject::Document, [Right::Delete]).unwrap();
        s.sync();
        assert!(s.cut(1, 1, 2).is_err());
        assert_eq!(s.text(1), "abcdef");
    }

    #[test]
    fn group_scoped_rights_and_delegation() {
        let mut s = TextSession::open("doc", 4, 21, Latency::Fixed(2));
        // Put users 2 and 3 in a "reviewers" group and revoke their inserts.
        s.set_group("reviewers", [2, 3]).unwrap();
        s.revoke(Subject::Group("reviewers".into()), DocObject::Document, [Right::Insert]).unwrap();
        s.sync();
        assert!(s.insert_str(2, 1, "no").is_err());
        assert!(s.insert_str(3, 1, "no").is_err());
        s.insert_str(1, 1, "yes ").unwrap();
        s.sync();
        assert_eq!(s.text(0), "yes doc");

        // Delegate policy administration to user 1, who re-opens inserts
        // for the reviewers via a proposal.
        s.delegate(1).unwrap();
        s.sync();
        s.propose(
            1,
            AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::grant(
                    Subject::Group("reviewers".into()),
                    DocObject::Document,
                    [Right::Insert],
                ),
            },
        )
        .unwrap();
        s.sync();
        assert!(s.converged());
        s.insert_str(2, 1, "ok ").unwrap();
        s.sync();
        assert_eq!(s.text(0), "ok yes doc");

        // Revoking the delegation closes the side door.
        s.revoke_delegation(1).unwrap();
        s.sync();
        assert!(s.propose(1, AdminOp::AddUser(50)).is_err());
    }

    #[test]
    fn expelled_user_loses_all_rights() {
        let mut s = TextSession::open("abc", 3, 8, Latency::Fixed(4));
        s.expel(2).unwrap();
        s.sync();
        assert!(s.insert_str(2, 1, "x").is_err());
        // Everyone else continues.
        s.insert_str(1, 1, "y").unwrap();
        s.sync();
        assert!(s.converged());
        assert_eq!(s.text(0), "yabc");
    }
}
