//! Multi-document sharded engine: thousands of documents per process.
//!
//! The paper scopes every mechanism — policy copy, administrative log,
//! OT log `H`, queues `F`/`Q` — to *one* document. A deployment hosts
//! many. [`Engine`] keeps that per-document math intact by owning one
//! [`Site`] **shard** per [`DocumentId`] and routing everything by
//! document:
//!
//! * the route table is a copy-on-write `Arc`-shared map: readers take a
//!   read lock only long enough to clone the `Arc`, so routing never
//!   contends with shard creation;
//! * each shard pairs its `Site` (behind its own mutex — documents never
//!   block each other) with a [`PolicyCell`] snapshot of the shard's
//!   policy, refreshed after every mutation that bumped it;
//! * [`Engine::check_local`] answers the hot-path admission question
//!   from the `PolicyCell` alone — no shard lock, no policy clone — so
//!   its cost is flat in the number of hosted documents;
//! * observability handles are scoped per shard via
//!   [`ObsHandle::for_doc`], so events, histograms and flight dumps name
//!   the document they belong to.
//!
//! Faults are isolated by construction: a shard's queues, flags and
//! digests live in its own `Site`, so drops or partitions affecting one
//! document cannot perturb another's replica digest (asserted by the
//! cross-shard chaos test in `tests/chaos.rs`).

use crate::error::CoreError;
use crate::request::{CoopRequest, Message};
use crate::shard::DocumentId;
use crate::site::Site;
use dce_document::{Document, Element, Op};
use dce_obs::ObsHandle;
use dce_policy::{Action, AdminOp, AdminRequest, Decision, Policy, PolicyCell, UserId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// Combined (canonical + admin) log length that arms the always-on
/// stability-horizon compactor of every [`Engine`] shard
/// ([`Site::maybe_compact`], run after every protocol mutation).
pub const COMPACT_WATERMARK: usize = 192;

/// Journal hooks a durable store implements to ride along the engine's
/// protocol operations (`dce-store` is the one real implementation; the
/// trait lives here so `dce-core` stays free of I/O). The contract is
/// write-ahead for receptions and write-behind for local generations:
///
/// * [`ShardStore::journal_remote`] runs *before* the message is applied,
///   so a crash mid-apply replays it (application is deterministic —
///   including its errors — so replay converges on the same state);
/// * [`ShardStore::journal_local_coop`] / [`journal_local_admin`]
///   (`journal_local_admin`: [`ShardStore::journal_local_admin`]) run
///   *after* a successful generation, recording the visible-coordinate
///   input plus the identity the generation produced, so recovery can
///   re-execute it and assert the replay did not diverge;
/// * [`ShardStore::journal_compact`] records that the stability-horizon
///   compactor ran, so replay prunes at the same point;
/// * [`ShardStore::snapshot`] is the snapshot opportunity: the store may
///   persist a full snapshot if the site is quiescent (no queued messages,
///   empty outbox) and enough records accumulated; `force` marks the
///   explicit [`Engine::auto_compact`] call, where servers gate snapshots
///   on group-wide delivery stability. The always-on compactor compacts in
///   memory and journals `Compact`, but never forces a snapshot.
///
/// Every hook takes `&self`: the engine invokes them under the shard
/// lock, so a store needs interior mutability but no cross-document
/// coordination.
pub trait ShardStore<E: Element>: Send + Sync {
    /// Journals a remote message about to be applied to `doc`'s site.
    fn journal_remote(&self, doc: DocumentId, msg: &Message<E>);
    /// Journals a successful local cooperative generation: the
    /// visible-coordinate `op` that was executed and the broadcast
    /// request it produced.
    fn journal_local_coop(&self, doc: DocumentId, op: &Op<E>, q: &CoopRequest<E>);
    /// Journals a successful local administrative generation.
    fn journal_local_admin(&self, doc: DocumentId, r: &AdminRequest);
    /// Journals that [`Site::auto_compact`] ran on `doc`.
    fn journal_compact(&self, doc: DocumentId);
    /// Offers the store a chance to persist a snapshot of `doc`'s site.
    fn snapshot(&self, doc: DocumentId, site: &Site<E>, force: bool);
}

/// One document's slice of the process: the paper's per-document state
/// (`Site`) plus the lock-free-read policy snapshot.
struct Shard<E: Element> {
    site: Mutex<Site<E>>,
    policy: PolicyCell,
}

type RouteMap<E> = HashMap<DocumentId, Arc<Shard<E>>>;

/// A multi-tenant engine hosting one participant's replicas for many
/// documents. See the module docs for the sharding contract.
pub struct Engine<E: Element> {
    user: UserId,
    admin_id: UserId,
    route: RwLock<Arc<RouteMap<E>>>,
    obs: ObsHandle,
    /// Durable journal hooks (none by default — engines are in-memory
    /// unless [`Engine::with_store`] attaches a store).
    store: Option<Arc<dyn ShardStore<E>>>,
}

impl<E: Element> Engine<E> {
    /// An engine whose shards are administrator replicas.
    pub fn new_admin(user: UserId) -> Self {
        Engine::new(user, user)
    }

    /// An engine whose shards are user replicas of `admin_id`'s group.
    pub fn new_user(user: UserId, admin_id: UserId) -> Self {
        Engine::new(user, admin_id)
    }

    fn new(user: UserId, admin_id: UserId) -> Self {
        Engine {
            user,
            admin_id,
            route: RwLock::new(Arc::new(HashMap::new())),
            obs: ObsHandle::default(),
            store: None,
        }
    }

    /// Attaches a process-wide observability handle; each shard created
    /// afterwards records under its own document scope.
    pub fn with_observability(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a durable store: every subsequent
    /// [`Engine::generate`] / [`Engine::admin_generate`] /
    /// [`Engine::receive`] / [`Engine::auto_compact`] is journaled
    /// through the [`ShardStore`] hooks. Callers that reach a site
    /// directly through [`Engine::with`] bypass journaling — the escape
    /// hatch is for reads and diagnostics, not protocol mutations.
    pub fn with_store(mut self, store: Arc<dyn ShardStore<E>>) -> Self {
        self.store = Some(store);
        self
    }

    /// The participant this engine replicates for.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Whether this engine's shards are administrator replicas.
    pub fn is_admin(&self) -> bool {
        self.user == self.admin_id
    }

    // ------------------------------------------------------------------
    // Shard management (rare path: takes the route write lock).
    // ------------------------------------------------------------------

    /// Creates one document shard. Errors if the document already exists.
    pub fn create_document(
        &self,
        doc: DocumentId,
        d0: Document<E>,
        policy: Policy,
    ) -> Result<(), CoreError> {
        self.create_documents(std::iter::once((doc, d0, policy)))
    }

    /// Bulk shard creation: one route-map copy for the whole batch.
    pub fn create_documents(
        &self,
        docs: impl IntoIterator<Item = (DocumentId, Document<E>, Policy)>,
    ) -> Result<(), CoreError> {
        let mut slot = self.route.write().expect("engine route poisoned");
        let mut next = RouteMap::clone(&slot);
        for (doc, d0, policy) in docs {
            if next.contains_key(&doc) {
                return Err(CoreError::Protocol(format!("{doc} already hosted")));
            }
            let site = if self.is_admin() {
                Site::new_admin(self.user, d0, policy)
            } else {
                Site::new_user(self.user, self.admin_id, d0, policy)
            };
            next.insert(doc, self.wrap(doc, site));
        }
        *slot = Arc::new(next);
        Ok(())
    }

    /// Adopts an already-built site (e.g. restored from a snapshot) as
    /// the shard for `doc`. The site's document id and observability
    /// scope are rewritten to match.
    pub fn adopt_site(&self, doc: DocumentId, site: Site<E>) -> Result<(), CoreError> {
        let mut slot = self.route.write().expect("engine route poisoned");
        if slot.contains_key(&doc) {
            return Err(CoreError::Protocol(format!("{doc} already hosted")));
        }
        let mut next = RouteMap::clone(&slot);
        next.insert(doc, self.wrap(doc, site));
        *slot = Arc::new(next);
        Ok(())
    }

    fn wrap(&self, doc: DocumentId, mut site: Site<E>) -> Arc<Shard<E>> {
        site.set_document(doc);
        site.set_observability(self.obs.for_doc(doc.as_u64()));
        let policy = PolicyCell::from_shared(site.policy_snapshot());
        Arc::new(Shard { site: Mutex::new(site), policy })
    }

    // ------------------------------------------------------------------
    // Routing (hot path: read lock held only to clone the map Arc).
    // ------------------------------------------------------------------

    fn shard(&self, doc: DocumentId) -> Option<Arc<Shard<E>>> {
        let map = Arc::clone(&self.route.read().expect("engine route poisoned"));
        map.get(&doc).cloned()
    }

    /// Whether `doc` is hosted here.
    pub fn contains(&self, doc: DocumentId) -> bool {
        self.route.read().expect("engine route poisoned").contains_key(&doc)
    }

    /// Number of hosted documents.
    pub fn len(&self) -> usize {
        self.route.read().expect("engine route poisoned").len()
    }

    /// Whether no documents are hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All hosted document ids, ascending.
    pub fn docs(&self) -> Vec<DocumentId> {
        let map = Arc::clone(&self.route.read().expect("engine route poisoned"));
        let mut docs: Vec<DocumentId> = map.keys().copied().collect();
        docs.sort_unstable();
        docs
    }

    /// Runs `f` against `doc`'s site under that shard's lock, then
    /// refreshes the shard's policy snapshot if the mutation swapped it.
    /// `None` when the document is not hosted.
    pub fn with<R>(&self, doc: DocumentId, f: impl FnOnce(&mut Site<E>) -> R) -> Option<R> {
        let shard = self.shard(doc)?;
        let mut site = shard.site.lock().expect("shard poisoned");
        let out = f(&mut site);
        let now = site.policy_snapshot();
        if !Arc::ptr_eq(&now, &shard.policy.load()) {
            shard.policy.store(now);
        }
        Some(out)
    }

    /// Runs `compact` on `doc`'s site and, when it ran, records it: the
    /// `engine.compact_*` histograms and, with a store attached, the
    /// journaled `Compact` point replay prunes at. `None` when `compact`
    /// declined (the watermark trigger did not fire).
    fn compact_with(
        &self,
        doc: DocumentId,
        site: &mut Site<E>,
        compact: impl FnOnce(&mut Site<E>) -> Option<usize>,
    ) -> Option<usize> {
        let before = site.logs_len();
        let t = std::time::Instant::now();
        let reclaimed = compact(site)?;
        let obs = self.obs.for_doc(doc.0);
        obs.observe_hist("engine.compact_ns", t.elapsed().as_nanos() as u64);
        obs.observe_hist("engine.compact_log_before", before as u64);
        obs.observe_hist("engine.compact_log_after", site.logs_len() as u64);
        if let Some(store) = &self.store {
            store.journal_compact(doc);
        }
        Some(reclaimed)
    }

    /// The always-on compactor, run under the shard lock after every
    /// protocol mutation: [`Site::maybe_compact`] at [`COMPACT_WATERMARK`],
    /// `heartbeat` when the mutation delivered one. Each attempt is
    /// journaled when a store is attached, so replay prunes at the same
    /// point; it never forces a snapshot (see [`Engine::auto_compact`]).
    fn maybe_compact(&self, doc: DocumentId, site: &mut Site<E>, heartbeat: bool) {
        if self
            .compact_with(doc, site, |site| site.maybe_compact(COMPACT_WATERMARK, heartbeat))
            .is_some()
        {
            self.obs.for_doc(doc.0).add_counter("engine.auto_compactions", 1);
        }
    }

    // ------------------------------------------------------------------
    // Per-document protocol operations.
    // ------------------------------------------------------------------

    /// The paper's `Check_Local` against `doc`'s policy snapshot —
    /// lock-free with respect to the shard: concurrent `receive` calls
    /// on the same document never block this. `None` when `doc` is not
    /// hosted. (Administrator shards bypass the check at generation
    /// time; this still reports what the policy itself says.)
    pub fn check_local(&self, doc: DocumentId, action: &Action) -> Option<Decision> {
        let shard = self.shard(doc)?;
        Some(shard.policy.check(self.user, action))
    }

    /// Generates a cooperative operation in `doc`, journaling it (input
    /// op + produced identity) when a store is attached.
    pub fn generate(&self, doc: DocumentId, op: Op<E>) -> Result<Message<E>, CoreError> {
        self.with(doc, |site| {
            let input = self.store.as_ref().map(|_| op.clone());
            let q = site.generate(op)?;
            if let Some(store) = &self.store {
                store.journal_local_coop(doc, &input.expect("cloned with store"), &q);
            }
            self.maybe_compact(doc, site, false);
            if let Some(store) = &self.store {
                store.snapshot(doc, site, false);
            }
            Ok(Message::Coop(q))
        })
        .ok_or_else(|| unknown(doc))?
    }

    /// Issues an administrative operation in `doc` (administrator only),
    /// journaling it when a store is attached.
    pub fn admin_generate(&self, doc: DocumentId, op: AdminOp) -> Result<AdminRequest, CoreError> {
        self.with(doc, |site| {
            let r = site.admin_generate(op)?;
            if let Some(store) = &self.store {
                store.journal_local_admin(doc, &r);
            }
            self.maybe_compact(doc, site, false);
            if let Some(store) = &self.store {
                store.snapshot(doc, site, false);
            }
            Ok(r)
        })
        .ok_or_else(|| unknown(doc))?
    }

    /// Delivers a remote message to `doc`'s shard. With a store attached
    /// the message is journaled *before* application (write-ahead): a
    /// crash mid-apply replays it, and application — errors included —
    /// is deterministic. A delivered heartbeat may move the stability
    /// horizon, so past [`COMPACT_WATERMARK`] it also runs the compactor
    /// (see `maybe_compact`): members compact on the heartbeats a server
    /// relays, without opting in.
    pub fn receive(&self, doc: DocumentId, msg: Message<E>) -> Result<(), CoreError> {
        self.with(doc, |site| {
            if let Some(store) = &self.store {
                store.journal_remote(doc, &msg);
            }
            let heartbeat = matches!(msg, Message::Heartbeat { .. });
            let out = site.receive(msg);
            self.maybe_compact(doc, site, heartbeat);
            if let Some(store) = &self.store {
                store.snapshot(doc, site, false);
            }
            out
        })
        .ok_or_else(|| unknown(doc))?
    }

    /// Runs the stability-horizon compactor on `doc`'s site, journaling
    /// the compaction point and offering the store a forced snapshot
    /// opportunity — the call a durable server makes once every member has
    /// acknowledged everything, so a snapshot never swallows a record some
    /// member still needs redelivered. Returns the number of log entries
    /// reclaimed, `None` when `doc` is not hosted.
    pub fn auto_compact(&self, doc: DocumentId) -> Option<usize> {
        self.with(doc, |site| {
            let reclaimed = self.compact_with(doc, site, |site| Some(site.auto_compact()));
            if let Some(store) = &self.store {
                store.snapshot(doc, site, true);
            }
            reclaimed
        })
        .flatten()
    }

    /// Drains `doc`'s outbox (empty when the document is not hosted).
    pub fn drain_outbox(&self, doc: DocumentId) -> Vec<Message<E>> {
        self.with(doc, |site| site.drain_outbox()).unwrap_or_default()
    }

    /// `doc`'s current document content, `None` when not hosted.
    pub fn document(&self, doc: DocumentId) -> Option<Document<E>> {
        self.with(doc, |site| site.document())
    }
}

impl<E: Element + std::hash::Hash> Engine<E> {
    /// `doc`'s convergence digest, `None` when not hosted.
    pub fn replica_digest(&self, doc: DocumentId) -> Option<u64> {
        self.with(doc, |site| site.replica_digest())
    }
}

fn unknown(doc: DocumentId) -> CoreError {
    CoreError::Protocol(format!("{doc} is not hosted by this engine"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};
    use dce_policy::{Authorization, DocObject, Right, Sign, Subject};

    fn doc(n: u64) -> DocumentId {
        DocumentId::new(n)
    }

    fn engines(n: u64) -> (Engine<Char>, Engine<Char>) {
        let adm = Engine::new_admin(0);
        let usr = Engine::new_user(1, 0);
        for d in 1..=n {
            let d0 = CharDocument::from_str("ab");
            let policy = Policy::permissive([0, 1]);
            adm.create_document(doc(d), d0.clone(), policy.clone()).unwrap();
            usr.create_document(doc(d), d0, policy).unwrap();
        }
        (adm, usr)
    }

    /// Pumps every queued message between the two engines until quiet.
    fn settle(a: &Engine<Char>, b: &Engine<Char>) {
        loop {
            let mut moved = false;
            for d in a.docs() {
                for m in a.drain_outbox(d) {
                    moved = true;
                    b.receive(d, m).unwrap();
                }
            }
            for d in b.docs() {
                for m in b.drain_outbox(d) {
                    moved = true;
                    a.receive(d, m).unwrap();
                }
            }
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn routes_operations_to_independent_documents() {
        let (adm, usr) = engines(3);
        let m1 = usr.generate(doc(1), Op::ins(1, 'x')).unwrap();
        let m3 = usr.generate(doc(3), Op::ins(1, 'y')).unwrap();
        adm.receive(doc(1), m1).unwrap();
        adm.receive(doc(3), m3).unwrap();
        settle(&adm, &usr);
        assert_eq!(adm.document(doc(1)).unwrap().to_string(), "xab");
        assert_eq!(adm.document(doc(2)).unwrap().to_string(), "ab");
        assert_eq!(adm.document(doc(3)).unwrap().to_string(), "yab");
        for d in adm.docs() {
            assert_eq!(adm.replica_digest(d), usr.replica_digest(d), "{d} diverged");
        }
    }

    #[test]
    fn unknown_documents_are_protocol_errors() {
        let (adm, _) = engines(1);
        assert!(adm.generate(doc(9), Op::ins(1, 'x')).is_err());
        assert!(adm.replica_digest(doc(9)).is_none());
        assert!(adm.check_local(doc(9), &Action::new(Right::Insert, None)).is_none());
        assert!(adm.drain_outbox(doc(9)).is_empty());
    }

    #[test]
    fn duplicate_creation_is_rejected() {
        let (adm, _) = engines(1);
        let err = adm.create_document(doc(1), CharDocument::from_str(""), Policy::permissive([0]));
        assert!(err.is_err());
        assert_eq!(adm.len(), 1);
    }

    #[test]
    fn check_local_tracks_per_document_policy() {
        let (adm, usr) = engines(2);
        let act = Action::new(Right::Insert, None);
        assert!(usr.check_local(doc(1), &act).unwrap().granted());
        // Revoke insert for user 1 in document 1 only.
        let revoke = AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(1),
                DocObject::Document,
                [Right::Insert],
                Sign::Minus,
            ),
        };
        let req = adm.admin_generate(doc(1), revoke).unwrap();
        usr.receive(doc(1), Message::Admin(req)).unwrap();
        assert!(!usr.check_local(doc(1), &act).unwrap().granted(), "doc1 revoked");
        assert!(usr.check_local(doc(2), &act).unwrap().granted(), "doc2 untouched");
    }

    #[test]
    fn faults_in_one_shard_leave_bystanders_untouched() {
        let (adm, usr) = engines(2);
        let before_adm = adm.replica_digest(doc(2)).unwrap();
        let before_usr = usr.replica_digest(doc(2)).unwrap();
        // Doc 1 takes traffic whose messages are dropped on the floor —
        // a permanently faulty shard.
        for i in 0..5 {
            let _ = usr.generate(doc(1), Op::ins(1, (b'a' + i) as char)).unwrap();
            usr.drain_outbox(doc(1)); // dropped
        }
        assert_eq!(adm.replica_digest(doc(2)).unwrap(), before_adm);
        assert_eq!(usr.replica_digest(doc(2)).unwrap(), before_usr);
        assert_eq!(adm.document(doc(2)).unwrap().to_string(), "ab");
    }

    /// The always-on compactor keeps both logs bounded near the watermark
    /// across a long session, without perturbing convergence.
    #[test]
    fn watermark_compaction_keeps_logs_bounded() {
        const WM: usize = COMPACT_WATERMARK;
        let adm = Engine::new_admin(0);
        let usr = Engine::new_user(1, 0);
        let d0 = CharDocument::from_str("ab");
        let policy = Policy::permissive([0, 1]);
        adm.create_document(doc(1), d0.clone(), policy.clone()).unwrap();
        usr.create_document(doc(1), d0, policy).unwrap();

        let mut peak = 0usize;
        let mut first_prune = None;
        for round in 0..6 * WM {
            let m = usr.generate(doc(1), Op::ins(1, (b'a' + (round % 26) as u8) as char)).unwrap();
            adm.receive(doc(1), m).unwrap();
            settle(&adm, &usr);
            // Heartbeats advance the horizon; the watermark does the rest.
            let hu = usr.with(doc(1), |s| s.make_heartbeat()).unwrap();
            let ha = adm.with(doc(1), |s| s.make_heartbeat()).unwrap();
            adm.receive(doc(1), hu).unwrap();
            usr.receive(doc(1), ha).unwrap();
            for e in [&adm, &usr] {
                let len = e.with(doc(1), |s| s.engine().log().len() + s.admin_log().len()).unwrap();
                peak = peak.max(len);
            }
            if first_prune.is_none() && usr.with(doc(1), |s| s.engine().pruned_count()) > Some(0) {
                first_prune = Some(round);
            }
        }
        // Combined length never exceeds one watermark past the trigger
        // point (the trigger is `post-compaction length + WM`, and the
        // post-compaction residue under prompt heartbeats is small).
        assert!(peak <= 3 * WM, "logs not bounded: peak combined length {peak}");
        // Each round adds two entries (the op and its validation): the
        // first compaction waits for the watermark.
        let first = first_prune.expect("the compactor never fired");
        assert!(2 * (first + 1) >= WM, "compactor fired before the watermark: round {first}");
        assert_eq!(adm.replica_digest(doc(1)), usr.replica_digest(doc(1)));
        assert_eq!(adm.document(doc(1)).unwrap(), usr.document(doc(1)).unwrap());
    }

    #[test]
    fn shards_tag_their_observability_scope() {
        let obs =
            dce_obs::ObsHandle::with_recorder(std::sync::Arc::new(dce_obs::RingRecorder::new(64)));
        let adm = Engine::new_admin(0).with_observability(obs.clone());
        adm.create_document(doc(5), CharDocument::from_str(""), Policy::permissive([0])).unwrap();
        adm.generate(doc(5), Op::ins(1, 'x')).unwrap();
        let events = obs.events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.doc == 5), "events scoped to doc5: {events:?}");
    }
}
