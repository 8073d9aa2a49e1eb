//! The per-participant site: Algorithms 1–4 of the paper.

use crate::error::CoreError;
use crate::request::{AdminProposal, CoopRequest, Flag, Message};
use crate::scheduler::{Pending, Scheduler, Slot};
use crate::shard::{DocumentId, FlagTable};
use dce_document::{Document, Element, Op};
use dce_obs::{DeferReason, EventKind, ObsHandle, ReqId};
use dce_ot::engine::{Engine, Integration};
use dce_ot::ids::Clock;
use dce_ot::{Buffer, Cell, Log, RequestId};
use dce_policy::{Action, AdminLog, AdminOp, AdminRequest, Policy, PolicyVersion, UserId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One collaborating site: a user (or the administrator), their document
/// replica with its OT log `H`, their policy copy with its administrative
/// log `L`, the reception queues `F` (cooperative) and `Q` (administrative)
/// of Algorithm 1 — held by the causal-readiness [`Scheduler`] — and the
/// per-request flags.
#[derive(Debug, Clone)]
pub struct Site<E> {
    user: UserId,
    admin_id: UserId,
    /// The shard key: which shared document this site replicates. `ROOT`
    /// (`0`) for single-document sessions; the multi-document
    /// [`crate::engine::Engine`] assigns real ids.
    doc: DocumentId,
    engine: Engine<E>,
    /// The policy copy, shared copy-on-write: `check` reads go through the
    /// `Arc` with no clone or lock, administrative mutations go through
    /// `Arc::make_mut` — cloning only while an external snapshot (taken
    /// via [`Site::policy_snapshot`]) is still alive, then publishing the
    /// new version with a pointer swap. `PolicyIndex::clone` yields an
    /// empty index, so a copied policy starts with a private memo table
    /// and invalidation stays per-shard.
    policy: Arc<Policy>,
    admin_log: AdminLog,
    /// Per-request flags plus the tentative-generation-version side table
    /// (see [`FlagTable`]).
    flags: FlagTable,
    /// The reception queues `F` (cooperative) and `Q` (administrative),
    /// indexed by what each queued request is waiting for.
    sched: Scheduler<E>,
    /// Messages this site produced while *receiving* (the administrator's
    /// validation requests). The driver must broadcast these.
    outbox: Vec<Message<E>>,
    /// Requests denied by `Check_Remote`, for inspection and experiments.
    denials: Vec<RequestId>,
    /// Requests retroactively undone by policy enforcement.
    undone: Vec<RequestId>,
    /// Delegated proposals the administrator refused (proposer lacked a
    /// delegation, or the operation failed against the policy).
    rejected_proposals: Vec<AdminProposal>,
    /// Last heartbeat clock received per peer (GC stability tracking).
    peer_clocks: HashMap<UserId, Clock>,
    /// Combined (canonical + admin) log length at which
    /// [`Site::maybe_compact`] fires next; `0` until the first attempt,
    /// meaning "at the watermark". Trigger state, not replicated state:
    /// excluded from [`Site::digest_into`] and snapshots; a durable engine
    /// journals every compaction that actually runs, so recovery replays
    /// the decisions, not the heuristic that made them.
    compact_at: usize,
    /// Observability capability (disabled by default). Deliberately *not*
    /// part of replicated state: excluded from [`Site::digest_into`] and
    /// snapshots, so instrumentation never perturbs `dce-check`'s
    /// state-space dedupe.
    obs: ObsHandle,
}

/// The [`dce_obs::ReqId`] coordinates of an OT request id.
fn obs_id(id: RequestId) -> ReqId {
    ReqId::new(id.site, id.seq)
}

/// What a parked slot is waiting for, in event terms (`None` for ready).
fn defer_reason(slot: &Slot) -> Option<DeferReason> {
    match slot {
        Slot::Ready => None,
        Slot::WaitVersion(v) => Some(DeferReason::MissingVersion(*v)),
        Slot::WaitClock(id) => Some(DeferReason::MissingRequest(obs_id(*id))),
    }
}

impl<E: Element> Site<E> {
    /// Creates the administrator site (site id = user id).
    pub fn new_admin(user: UserId, d0: Document<E>, policy: Policy) -> Self {
        Self::build(user, user, d0, policy)
    }

    /// Creates a regular user site that recognises `admin_id` as the group
    /// administrator.
    pub fn new_user(user: UserId, admin_id: UserId, d0: Document<E>, policy: Policy) -> Self {
        Self::build(user, admin_id, d0, policy)
    }

    fn build(user: UserId, admin_id: UserId, d0: Document<E>, policy: Policy) -> Self {
        Site {
            user,
            admin_id,
            doc: DocumentId::ROOT,
            engine: Engine::new(user, d0),
            policy: Arc::new(policy),
            admin_log: AdminLog::new(),
            flags: FlagTable::new(),
            sched: Scheduler::new(),
            outbox: Vec::new(),
            denials: Vec::new(),
            undone: Vec::new(),
            rejected_proposals: Vec::new(),
            peer_clocks: HashMap::new(),
            compact_at: 0,
            obs: ObsHandle::default(),
        }
    }

    /// Re-keys this site onto document `doc` (builder-style). Constructors
    /// default to [`DocumentId::ROOT`]; the multi-document engine and the
    /// socket stack assign real shard keys.
    pub fn with_document(mut self, doc: DocumentId) -> Self {
        self.doc = doc;
        self
    }

    /// Re-keys this site onto document `doc` in place.
    pub fn set_document(&mut self, doc: DocumentId) {
        self.doc = doc;
    }

    /// The document (shard) this site replicates.
    pub fn doc(&self) -> DocumentId {
        self.doc
    }

    /// Attaches an observability handle (builder-style). All sites of a
    /// group typically share one handle, merging their events into a
    /// single lamport-ordered journal.
    pub fn with_observability(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches (or replaces) the observability handle in place.
    pub fn set_observability(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn observability(&self) -> &ObsHandle {
        &self.obs
    }

    /// Emits one protocol event stamped with this site's identity and
    /// current policy version. A single branch when observability is off.
    #[inline]
    fn emit(&self, kind: EventKind) {
        self.obs.emit(self.user, self.policy.version(), kind);
    }

    /// This site's user identity.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// `true` for the administrator site.
    pub fn is_admin(&self) -> bool {
        self.user == self.admin_id
    }

    /// The current visible document.
    pub fn document(&self) -> Document<E> {
        self.engine.document()
    }

    /// The local policy copy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// A copy-on-write snapshot of the policy copy: one refcount bump, no
    /// clone, no lock. Checks against the snapshot stay consistent while
    /// administrative mutations publish new versions concurrently — the
    /// read-mostly `Check_Local` path of the multi-document engine.
    pub fn policy_snapshot(&self) -> dce_policy::SharedPolicy {
        self.policy.clone()
    }

    /// Current policy version of this copy.
    pub fn version(&self) -> PolicyVersion {
        self.policy.version()
    }

    /// The administrative log `L`.
    pub fn admin_log(&self) -> &AdminLog {
        &self.admin_log
    }

    /// The OT engine (document log `H`, clocks, buffer).
    pub fn engine(&self) -> &Engine<E> {
        &self.engine
    }

    /// Flag of a cooperative request, if known at this site. Compaction
    /// drops the rows of settled requests; [`Site::fate`] still answers
    /// for those.
    pub fn flag_of(&self, id: RequestId) -> Option<Flag> {
        self.flags.flag_of(id)
    }

    /// How a request integrated here ended up: its flag, or — once
    /// compaction reclaimed it, which only settled requests are —
    /// `Valid` when it was reclaimed live and `Invalid` when inert.
    /// `None` for a request never integrated here.
    pub fn fate(&self, id: RequestId) -> Option<Flag> {
        self.flags.flag_of(id).or_else(|| {
            let reclaimed = self.engine.has_seen(id) && self.engine.log().get(id).is_none();
            reclaimed.then(|| {
                if self.engine.pruned_inert().contains(&id) {
                    Flag::Invalid
                } else {
                    Flag::Valid
                }
            })
        })
    }

    /// All request flags known at this site (order unspecified). Used by
    /// the convergence oracle to compare flag tables across replicas.
    pub fn flags(&self) -> impl Iterator<Item = (RequestId, Flag)> + '_ {
        self.flags.iter()
    }

    /// Requests rejected by `Check_Remote` at this site.
    pub fn denials(&self) -> &[RequestId] {
        &self.denials
    }

    /// Requests retroactively undone at this site.
    pub fn undone(&self) -> &[RequestId] {
        &self.undone
    }

    /// Proposals this administrator refused (diagnostics).
    pub fn rejected_proposals(&self) -> &[AdminProposal] {
        &self.rejected_proposals
    }

    /// Takes (and clears) the accumulated `Check_Remote` denials. The
    /// diagnostics vectors grow for the whole session otherwise; callers
    /// that consume them incrementally should prefer these `drain_*`
    /// accessors over the borrowing ones.
    pub fn drain_denials(&mut self) -> Vec<RequestId> {
        std::mem::take(&mut self.denials)
    }

    /// Takes (and clears) the accumulated retroactive-undo records.
    pub fn drain_undone(&mut self) -> Vec<RequestId> {
        std::mem::take(&mut self.undone)
    }

    /// Number of queued (not yet causally ready) messages.
    pub fn queued(&self) -> usize {
        self.sched.len()
    }

    /// Number of un-drained outbox messages. A site is *quiescent* — and
    /// therefore snapshottable without losing in-flight obligations —
    /// only when both this and [`Site::queued`] are zero.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Restores the transient-but-behavioral state a wire snapshot
    /// deliberately omits: heartbeat-derived peer clocks and the
    /// diagnostics vectors. All of these feed [`Site::digest_into`], so a
    /// durable store that wants a recovered site to be *digest-identical*
    /// to the never-crashed one must persist and restore them alongside
    /// the replicated state (`dce-store` snapshots carry them as a
    /// supplement next to the `dce-net` snapshot body).
    pub fn restore_transients(
        &mut self,
        peer_clocks: HashMap<UserId, Clock>,
        denials: Vec<RequestId>,
        undone: Vec<RequestId>,
        rejected_proposals: Vec<AdminProposal>,
    ) {
        self.peer_clocks = peer_clocks;
        self.denials = denials;
        self.undone = undone;
        self.rejected_proposals = rejected_proposals;
    }

    /// Captures the replicated state for transfer to a joining site:
    /// `(buffer cells, log, clock, pruned-inert set, pruned count, policy,
    /// admin log, flags, tentative generation versions, pruned-flag
    /// fold)`. Queues, outbox and local diagnostics are deliberately not
    /// part of a snapshot.
    #[allow(clippy::type_complexity)]
    pub fn snapshot_parts(
        &self,
    ) -> (
        Vec<Cell<E>>,
        Log<E>,
        Clock,
        HashSet<RequestId>,
        usize,
        Policy,
        AdminLog,
        Vec<(RequestId, Flag)>,
        Vec<(RequestId, PolicyVersion)>,
        u64,
    ) {
        (
            self.engine.buffer().cells().to_vec(),
            self.engine.log().clone(),
            self.engine.clock().clone(),
            self.engine.pruned_inert().clone(),
            self.engine.pruned_count(),
            Policy::clone(&self.policy),
            self.admin_log.clone(),
            self.flags.flags_sorted(),
            self.flags.tentative_sorted(),
            self.flags.pruned_fold(),
        )
    }

    /// Reconstructs a site for `user` from snapshot parts (the receiving
    /// half of a state transfer).
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn from_snapshot_parts(
        user: UserId,
        admin_id: UserId,
        cells: Vec<Cell<E>>,
        log: Log<E>,
        clock: Clock,
        pruned_inert: HashSet<RequestId>,
        pruned_count: usize,
        policy: Policy,
        admin_log: AdminLog,
        flags: Vec<(RequestId, Flag)>,
        tentative_v: Vec<(RequestId, PolicyVersion)>,
        flags_pruned_fold: u64,
    ) -> Self {
        Site {
            user,
            admin_id,
            doc: DocumentId::ROOT,
            engine: Engine::from_parts(
                user,
                Buffer::from_cells(cells),
                log,
                clock,
                pruned_inert,
                pruned_count,
            ),
            policy: Arc::new(policy),
            admin_log,
            flags: FlagTable::from_parts(flags, tentative_v, flags_pruned_fold),
            sched: Scheduler::new(),
            outbox: Vec::new(),
            denials: Vec::new(),
            undone: Vec::new(),
            rejected_proposals: Vec::new(),
            peer_clocks: HashMap::new(),
            compact_at: 0,
            obs: ObsHandle::default(),
        }
    }

    /// Feeds every behavioral component of the site into `h`: identity,
    /// engine (buffer, log, clock), policy, administrative log, flags,
    /// queued messages, outboxes, diagnostics and peer clocks. Work
    /// counters and absolute arrival stamps are excluded (they record the
    /// path taken, not the state reached), so two delivery orders joining
    /// on the same state collide — the dedupe key of `dce-check`.
    pub fn digest_into<H: std::hash::Hasher>(&self, h: &mut H)
    where
        E: std::hash::Hash,
    {
        use std::hash::Hash;
        self.user.hash(h);
        self.admin_id.hash(h);
        self.doc.hash(h);
        self.engine.digest_into(h);
        self.policy.hash(h);
        self.admin_log.hash(h);
        self.flags.digest_into(h);
        self.sched.digest_into(h);
        self.outbox.hash(h);
        self.denials.hash(h);
        self.undone.hash(h);
        self.rejected_proposals.hash(h);
        let mut peers: Vec<(UserId, &Clock)> =
            self.peer_clocks.iter().map(|(u, c)| (*u, c)).collect();
        peers.sort_unstable_by_key(|(u, _)| *u);
        peers.hash(h);
    }

    /// The site's behavioral state digest (see [`Site::digest_into`]).
    pub fn state_digest(&self) -> u64
    where
        E: std::hash::Hash,
    {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.digest_into(&mut h);
        std::hash::Hasher::finish(&h)
    }

    /// Digest of the *replicated* state only: document content, policy,
    /// policy version, administrative log and the behavioral flag-table
    /// digest (settled-entry fold plus tentative entries, so replicas
    /// that pruned stable flags at different moments still agree).
    /// Unlike [`Site::state_digest`] it excludes everything that
    /// legitimately differs between replicas — identity, outbox, defer
    /// queue, diagnostics, peer clocks, OT log order — so two *different
    /// sites* of one converged session produce the *same* value. This is
    /// the cross-process convergence check of the socket deployment:
    /// `DefaultHasher` is keyed with constants, so server and load
    /// generator compute comparable digests in separate processes.
    pub fn replica_digest(&self) -> u64
    where
        E: std::hash::Hash,
    {
        use std::hash::Hash;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.replica_digest_parts().hash(&mut h);
        std::hash::Hasher::finish(&h)
    }

    /// The component hashes behind [`Site::replica_digest`]: document,
    /// policy, administrative log, flag table — in that order. When two
    /// replicas disagree, comparing parts pinpoints *which* layer
    /// diverged; the load generator prints these in its divergence
    /// report.
    pub fn replica_digest_parts(&self) -> [u64; 4]
    where
        E: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        fn part<T: Hash + ?Sized>(value: &T) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            value.hash(&mut h);
            h.finish()
        }
        let doc = self.engine.document();
        [part(doc.as_slice()), part(&*self.policy), part(&self.admin_log), self.flags.digest()]
    }

    /// Takes the messages this site emitted while processing receptions
    /// (the administrator's `Validate` requests). The caller must
    /// broadcast them to the group.
    pub fn drain_outbox(&mut self) -> Vec<Message<E>> {
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // Algorithm 2: local generation.
    // ------------------------------------------------------------------

    /// Generates a local cooperative operation: checks it against the
    /// *local* policy copy (`Check_Local`), executes it, and returns the
    /// request to broadcast. The administrator's own edits bypass the check
    /// (§3.3: the administrator "can also modify directly the shared
    /// documents") and are born `Valid`; everyone else's are `Tentative`.
    pub fn generate(&mut self, op: Op<E>) -> Result<CoopRequest<E>, CoreError> {
        if !self.is_admin() {
            if let Some(action) = Action::for_op(&op) {
                let decision = self.policy.check(self.user, &action);
                if !decision.granted() {
                    self.emit(EventKind::CheckLocalDenied { user: self.user });
                    return Err(CoreError::AccessDenied { user: self.user, action, decision });
                }
            }
        }
        let ot = self.engine.generate(op)?;
        if self.is_admin() {
            self.flags.set_flag(ot.id, Flag::Valid);
        } else {
            self.flags.mark_tentative(ot.id, self.policy.version());
        }
        self.emit(EventKind::ReqGenerated { id: obs_id(ot.id) });
        self.emit(EventKind::ReqExecuted { id: obs_id(ot.id) });
        // A queued remote request can, after a snapshot rejoin, be parked
        // on one of this site's own sequence numbers; the local generation
        // satisfies it. (Re-parking only — processing happens at the next
        // reception, like the scan loop.)
        self.wake_clock_reached(ot.id);
        Ok(CoopRequest { ot, v: self.policy.version() })
    }

    // ------------------------------------------------------------------
    // Administrative generation (administrator only).
    // ------------------------------------------------------------------

    /// Issues an administrative operation: applies it to the local policy
    /// copy, bumps the version, records it in `L`, enforces it
    /// retroactively, and returns the request to broadcast.
    pub fn admin_generate(&mut self, op: AdminOp) -> Result<AdminRequest, CoreError> {
        if !self.is_admin() {
            return Err(CoreError::NotAdministrator { user: self.user });
        }
        // Copy-on-write: clones the policy only if an external snapshot is
        // still alive, then publishes the mutated version in place.
        let policy = Arc::make_mut(&mut self.policy);
        op.apply_to(policy)?;
        let version = policy.bump_version();
        let request = AdminRequest { admin: self.user, version, op };
        self.admin_log.push(request.clone());
        let restrictive = request.is_restrictive();
        if let AdminOp::Validate { site, seq } = &request.op {
            let id = ReqId::new(*site, *seq);
            self.emit(EventKind::ValidationIssued { id, version });
            // The administrator applies its own validation at issue time.
            self.emit(EventKind::ValidationConsumed { id, version });
        }
        // Emitted before enforcement so every ReqUndone is preceded by
        // its restrictive cause (the undo-follows-restriction oracle).
        self.emit(EventKind::AdminApplied { version, restrictive });
        if restrictive {
            self.enforce_policy();
        }
        Ok(request)
    }

    /// Builds this site's heartbeat for the group (send periodically).
    pub fn make_heartbeat(&self) -> Message<E> {
        Message::Heartbeat { from: self.user, clock: self.engine.clock().clone() }
    }

    /// The heartbeat clocks received so far, per peer.
    pub fn peer_clocks(&self) -> &std::collections::HashMap<UserId, Clock> {
        &self.peer_clocks
    }

    /// Combined (canonical + admin) log length, the quantity the
    /// compaction watermark bounds.
    pub(crate) fn logs_len(&self) -> usize {
        self.engine.log().len() + self.admin_log.len()
    }

    /// The one compaction trigger — the always-on stability-horizon
    /// compactor every `dce_core::Engine` shard runs at
    /// [`crate::COMPACT_WATERMARK`] after each protocol mutation, and the
    /// simulator at its configured watermark after each delivery. It runs
    /// [`Site::auto_compact`] when a horizon is computable at all (a
    /// heartbeat from every other member is on file) and either
    ///
    /// * the combined log length reached the trigger point — `watermark`
    ///   at first, then the post-compaction length plus `watermark`: when
    ///   the horizon advances normally the logs oscillate around the
    ///   watermark, and when a silent member pins it the logs grow as they
    ///   must, but each further attempt costs a watermark of new entries;
    ///   or
    /// * `heartbeat` — the caller just delivered one, which is what moves
    ///   the horizon — and the logs are at or past the watermark.
    ///
    /// Returns the entries reclaimed, or `None` when the trigger did not
    /// fire (a caller journaling compactions records only `Some`).
    pub fn maybe_compact(&mut self, watermark: usize, heartbeat: bool) -> Option<usize> {
        let combined = self.logs_len();
        let due =
            combined >= self.compact_at.max(watermark) || (heartbeat && combined >= watermark);
        if !due || !self.horizon_ready() {
            return None;
        }
        let reclaimed = self.auto_compact();
        self.compact_at = self.logs_len() + watermark;
        Some(reclaimed)
    }

    /// `true` once a stability horizon is computable at all: a heartbeat
    /// clock is on file for every *other* member of the policy's user set.
    /// [`Site::maybe_compact`] gates on this before attempting — and so
    /// before its caller journals the attempt.
    fn horizon_ready(&self) -> bool {
        self.policy
            .users()
            .iter()
            .all(|user| *user == self.user || self.peer_clocks.contains_key(user))
    }

    /// Compacts the log using the heartbeat-derived stability horizon: an
    /// entry may be dropped only once every *other* member of the subject
    /// set `S` has acknowledged it (and it is no longer tentative),
    /// wherever it sits in the canonical log. Members that have never sent
    /// a heartbeat hold compaction back — safe by construction. Returns the
    /// number of log entries reclaimed.
    ///
    /// This is the only way to prune from outside `dce-core`: explicit
    /// passes (a server's all-acked snapshot, the editor's `compact`, the
    /// model checker) and the watermark trigger [`Site::maybe_compact`]
    /// all come through here, so every compaction passes the
    /// delivered-everything-announced gate below.
    ///
    /// The diagnostics vectors ([`Site::denials`], [`Site::undone`],
    /// [`Site::rejected_proposals`]) are trimmed along the way: entries
    /// below the stability horizon can never change flag again, so keeping
    /// them only grows memory over a long session. Callers wanting the
    /// full record should [`Site::drain_denials`] (etc.) before compacting.
    ///
    /// The admin log is compacted too: non-restrictive entries (every
    /// `Validate`, grants, membership additions) are never consulted by
    /// `Check_Remote` at any remote context version, so
    /// [`AdminLog::compact_non_restrictive`] bounds the retained log by
    /// `restrictive_count() + 1`. Admin-log equality and hashing are
    /// behavioral (last version + restrictive entries), so replicas that
    /// prune at different times still digest-converge.
    pub fn auto_compact(&mut self) -> usize {
        let mut clocks: Vec<Clock> = vec![self.engine.clock().clone()];
        for user in self.policy.users() {
            if *user == self.user {
                continue;
            }
            match self.peer_clocks.get(user) {
                Some(c) => clocks.push(c.clone()),
                // A member we have not heard from: nothing is stable.
                None => return 0,
            }
        }
        let horizon = crate::gc::stability_horizon(clocks.iter());
        self.admin_log.compact_non_restrictive();
        self.denials.retain(|id| !horizon.contains(*id));
        self.undone.retain(|id| !horizon.contains(*id));
        // Refused proposals never entered the causal order at all; once the
        // group has a horizon they are settled history.
        self.rejected_proposals.clear();
        // The form-dropping prunes below (log entries, flag rows, chain
        // links) additionally require that this site has *delivered*
        // everything any heartbeat announced — every peer clock pointwise
        // within our own. A heartbeat can outrun the traffic it vouches
        // for: a peer may announce ops we have not yet received, and an
        // op generated before that peer's heartbeat can be concurrent
        // with entries below the horizon — integrating it still needs
        // their forms for transformation (and their chain links for the
        // update tournament). Once every announced op has landed, any
        // request still in flight was generated after its site's
        // heartbeat, so its context covers the whole horizon and the
        // pruned forms can never be consulted again.
        let clock = self.engine.clock();
        let delivered_all_announced =
            self.peer_clocks.values().all(|c| c.iter().all(|(site, n)| clock.get(site) >= n));
        if !delivered_all_announced {
            self.obs.set_gauge("site.log_len", self.engine.log().len() as u64);
            self.obs.set_gauge("site.admin_log_len", self.admin_log.len() as u64);
            return 0;
        }
        let reclaimed = self.compact_stable(&horizon);
        // Provenance chains are the other per-update structure; the
        // delivered-everything gate above is exactly the caller guarantee
        // `dce_ot::Engine::prune_chains` requires for its collapse.
        self.engine.prune_chains(&horizon);
        // Compaction is exactly when the log-length gauges move most;
        // left to the next drain they would overstate until new traffic
        // arrives (which, at quiescence, never comes).
        self.obs.set_gauge("site.log_len", self.engine.log().len() as u64);
        self.obs.set_gauge("site.admin_log_len", self.admin_log.len() as u64);
        reclaimed
    }

    /// Reclaims every cooperative-log entry that is below `horizon` and
    /// settled (`Valid` or `Invalid`), wherever it sits in the canonical
    /// log — behind this site's own tentative requests included (see
    /// `dce_ot::Engine::prune_stable` and [`crate::gc`]). Returns the number
    /// of entries reclaimed. `horizon` must be stable group-wide: below
    /// every participant's clock and inside the context of every request
    /// still on its way here. [`Site::auto_compact`] derives one from
    /// heartbeats and checks the second half, and is the only caller
    /// outside this crate's unit tests: pruning without that gate lets a
    /// late concurrent request integrate untransformed and diverge.
    ///
    /// The reclaimed entries' flags are settled and stable group-wide: no
    /// transition, duplicate or retroactive check can touch them again, so
    /// the flag table sheds them too (folding their hashes into its pruned
    /// accumulator keeps digests comparable with replicas that compacted at
    /// other moments, or never). Without this the flag table is the one
    /// structure that still grows with session length rather than with the
    /// live log.
    pub(crate) fn compact_stable(&mut self, horizon: &Clock) -> usize {
        let flags = &self.flags;
        let stable = self.engine.prune_stable(|e| {
            horizon.contains(e.id)
                && matches!(flags.flag_of(e.id), Some(Flag::Valid | Flag::Invalid))
        });
        for id in &stable {
            // The span-closing edge: the request is stable group-wide.
            self.emit(EventKind::ReqStable { id: obs_id(*id) });
            self.flags.prune_settled(*id);
        }
        stable.len()
    }

    /// Proposes an administrative operation as a *delegate*: checked
    /// optimistically against the local policy's delegation set, then sent
    /// to the administrator, who re-checks and sequences it. The local
    /// check keeps obviously unauthorized proposals off the network; the
    /// administrator's check is authoritative.
    pub fn propose_admin(&self, op: AdminOp) -> Result<AdminProposal, CoreError> {
        if self.is_admin() {
            return Err(CoreError::Protocol("the administrator issues operations directly".into()));
        }
        if !self.policy.is_delegate(self.user) {
            return Err(CoreError::NotAdministrator { user: self.user });
        }
        if !op.delegable() {
            return Err(CoreError::Protocol(format!("operation {op} cannot be delegated")));
        }
        Ok(AdminProposal { from: self.user, op })
    }

    // ------------------------------------------------------------------
    // Algorithm 1: reception.
    // ------------------------------------------------------------------

    /// Receives a message from the network: enqueues it and processes every
    /// request that became causally ready (Algorithms 3 and 4).
    pub fn receive(&mut self, msg: Message<E>) -> Result<(), CoreError> {
        match msg {
            Message::Coop(q) => {
                // Dedup against both the processed history *and* the queue:
                // a duplicate arriving before its original has been
                // processed (not yet causally ready) would otherwise be
                // admitted twice.
                if !self.engine.has_seen(q.ot.id) && !self.sched.holds_coop(q.ot.id) {
                    let slot = self.classify_coop(&q);
                    if self.obs.enabled() {
                        let id = obs_id(q.ot.id);
                        self.emit(EventKind::ReqReceived { id });
                        if let Some(reason) = defer_reason(&slot) {
                            self.emit(EventKind::ReqDeferred { id, reason });
                        }
                    }
                    self.sched.admit_coop(q, slot);
                } else if self.obs.enabled() {
                    self.emit(EventKind::ReqDuplicate { id: obs_id(q.ot.id) });
                }
            }
            Message::Admin(r) => {
                // Administrative requests are totally ordered by policy
                // version, so an equal version already queued is the same
                // request replayed.
                if r.version > self.policy.version() && !self.sched.holds_admin(r.version) {
                    let slot = self.classify_admin(&r);
                    if self.obs.enabled() {
                        self.emit(EventKind::AdminReceived { version: r.version });
                        if let Some(reason) = defer_reason(&slot) {
                            self.emit(EventKind::AdminDeferred { version: r.version, reason });
                        }
                    }
                    self.sched.admit_admin(r, slot);
                }
            }
            Message::Heartbeat { from, clock } => {
                // Keep the pointwise maximum per peer (heartbeats may be
                // reordered in flight).
                let entry = self.peer_clocks.entry(from).or_default();
                let mut merged = Clock::new();
                for (site, n) in entry.iter() {
                    merged.set(site, n.max(clock.get(site)));
                }
                for (site, n) in clock.iter() {
                    merged.set(site, n.max(merged.get(site)));
                }
                *entry = merged;
            }
            Message::Proposal(p) => {
                // Only the administrator acts on proposals.
                if self.is_admin() {
                    if self.policy.is_delegate(p.from) && p.op.delegable() {
                        match self.admin_generate(p.op.clone()) {
                            Ok(r) => self.outbox.push(Message::Admin(r)),
                            Err(_) => self.rejected_proposals.push(p),
                        }
                    } else {
                        self.rejected_proposals.push(p);
                    }
                }
            }
        }
        self.drain()
    }

    /// Fixpoint over the scheduler's ready lane: keep processing ready
    /// requests until nothing changes. Preserves the scan loop's
    /// processing order — per iteration at most one administrative request
    /// (version order is total, so at most one is ever ready), then the
    /// earliest-arrived ready cooperative request — but each delivered
    /// message wakes exactly its dependents instead of re-scanning `F`/`Q`.
    fn drain(&mut self) -> Result<(), CoreError> {
        let timer = self.obs.enabled().then(std::time::Instant::now);
        let result = self.drain_inner();
        if let Some(start) = timer {
            self.obs.observe_hist("site.drain_ns", start.elapsed().as_nanos() as u64);
            self.obs.set_gauge("site.queue_depth_ready", self.sched.ready_len() as u64);
            self.obs.set_gauge("site.queue_depth_parked", self.sched.parked_len() as u64);
            self.obs.set_gauge("site.log_len", self.engine.log().len() as u64);
            self.obs.set_gauge("site.admin_log_len", self.admin_log.len() as u64);
        }
        result
    }

    fn drain_inner(&mut self) -> Result<(), CoreError> {
        loop {
            // Version parking is keyed on the *local* counter, which can
            // also advance outside reception (local `admin_generate`), so
            // re-check the prefix every iteration instead of hooking every
            // bump site.
            self.wake_version_reached();
            let mut progressed = false;

            if let Some(r) = self.sched.pop_ready_admin() {
                // Re-verify at pop: the counter may have advanced past a
                // parked request since classification.
                if r.version == self.policy.version() + 1 {
                    self.process_admin(r)?;
                }
                progressed = true;
            }

            if let Some(q) = self.sched.pop_ready_coop() {
                if !self.engine.has_seen(q.ot.id) {
                    let id = q.ot.id;
                    self.process_coop(q)?;
                    self.wake_clock_reached(id);
                }
                progressed = true;
            }

            if !progressed {
                return Ok(());
            }
        }
    }

    /// Classifies a cooperative request (Algorithm 3 readiness): ready
    /// when its OT context is satisfied *and* the policy copy has reached
    /// the version it was checked under (`q.v ≤ version`); otherwise
    /// parked on the missing version or the first missing causal
    /// predecessor. Both conditions are monotone, so parking on one
    /// blocker at a time is sound.
    fn classify_coop(&self, q: &CoopRequest<E>) -> Slot {
        if q.v > self.policy.version() {
            return Slot::WaitVersion(q.v);
        }
        if self.engine.is_ready(&q.ot) {
            return Slot::Ready;
        }
        let clock = self.engine.clock();
        let site = q.ot.id.site;
        if q.ot.id.seq > clock.get(site) + 1 {
            // Missing site-FIFO predecessor. Park on the *immediate*
            // predecessor, not the next id the clock expects: per-site
            // integration is sequential, so integrating `seq - 1` is the
            // exact event that makes this request's site-FIFO condition
            // hold — one targeted wake instead of waking (and re-parking)
            // the whole chain on every integration.
            return Slot::WaitClock(RequestId::new(site, q.ot.id.seq - 1));
        }
        // Context gap: park on the *last* request needed from the first
        // lagging site. Sequential per-site integration again makes its
        // arrival the exact unblocking event for that component; at most
        // one re-park per distinct lagging site.
        let missing =
            q.ot.ctx
                .iter()
                .find_map(|(s, need)| (clock.get(s) < need).then(|| RequestId::new(s, need)));
        match missing {
            Some(id) => Slot::WaitClock(id),
            // Unreachable (is_ready would have been true), but classify
            // conservatively rather than panic.
            None => Slot::Ready,
        }
    }

    /// Classifies an administrative request with `version >` the local
    /// counter (Algorithm 4 readiness): ready when it is the next version
    /// in the total order and — for a validation — its target has been
    /// integrated (a validation must not overtake the request it
    /// validates).
    fn classify_admin(&self, r: &AdminRequest) -> Slot {
        if r.version > self.policy.version() + 1 {
            return Slot::WaitVersion(r.version - 1);
        }
        if let AdminOp::Validate { site, seq } = &r.op {
            let target = RequestId::new(*site, *seq);
            if !self.engine.has_seen(target) {
                return Slot::WaitClock(target);
            }
        }
        Slot::Ready
    }

    /// Unparks everything waiting for a policy version the local counter
    /// has reached, re-classifying each waiter.
    fn wake_version_reached(&mut self) {
        let reached = self.policy.version();
        for pending in self.sched.take_version_waiters(reached) {
            self.requeue(pending);
        }
    }

    /// Unparks everything waiting for `id`, re-classifying each waiter.
    fn wake_clock_reached(&mut self, id: RequestId) {
        for pending in self.sched.take_clock_waiters(id) {
            self.requeue(pending);
        }
    }

    /// Re-files a woken message: dropped when it became stale while parked
    /// (the queue-hygiene `retain` of the scan loop), re-parked otherwise.
    fn requeue(&mut self, pending: Pending<E>) {
        match pending {
            Pending::Coop { arrival, q } => {
                if self.engine.has_seen(q.ot.id) {
                    self.sched.release_coop(q.ot.id);
                } else {
                    let slot = self.classify_coop(&q);
                    self.sched.park(Pending::Coop { arrival, q }, slot);
                }
            }
            Pending::Admin(r) => {
                if r.version <= self.policy.version() {
                    self.sched.release_admin(r.version);
                } else {
                    let slot = self.classify_admin(&r);
                    self.sched.park(Pending::Admin(r), slot);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 3: reception of a cooperative request.
    // ------------------------------------------------------------------

    fn process_coop(&mut self, q: CoopRequest<E>) -> Result<(), CoreError> {
        let id = q.ot.id;
        let action = Action::for_op(&q.ot.top.op);

        // Check_Remote: the request was granted at its origin under policy
        // version q.v; it stays granted unless a concurrent restrictive
        // administrative request revokes the access it relied on.
        let denied = match &action {
            Some(action) => {
                self.admin_log.check_remote(q.user(), action, q.v, &self.policy).is_some()
            }
            None => false,
        };

        if denied {
            self.engine.integrate_inert(&q.ot).map_err(|e| CoreError::Protocol(e.to_string()))?;
            self.flags.settle(id, Flag::Invalid);
            self.denials.push(id);
            self.emit(EventKind::ReqDenied { id: obs_id(id) });
            return Ok(());
        }

        let outcome =
            self.engine.integrate(&q.ot).map_err(|e| CoreError::Protocol(e.to_string()))?;

        match outcome {
            Integration::Inert => {
                // An ancestor of the request is inert here: the element it
                // operates on does not exist, so the request is stored
                // invalid.
                self.flags.settle(id, Flag::Invalid);
                self.emit(EventKind::ReqInert { id: obs_id(id) });
            }
            Integration::Executed(_) => {
                self.emit(EventKind::ReqExecuted { id: obs_id(id) });
                if q.user() == self.admin_id {
                    // The administrator's own edits are valid everywhere.
                    self.flags.settle(id, Flag::Valid);
                } else if self.is_admin() {
                    // Algorithm 3, administrator side: validate the request
                    // and broadcast the validation.
                    self.flags.settle(id, Flag::Valid);
                    let validation =
                        self.admin_generate(AdminOp::Validate { site: id.site, seq: id.seq })?;
                    self.outbox.push(Message::Admin(validation));
                } else {
                    self.flags.mark_tentative(id, q.v);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Algorithm 4: reception of an administrative request.
    // ------------------------------------------------------------------

    fn process_admin(&mut self, r: AdminRequest) -> Result<(), CoreError> {
        match &r.op {
            AdminOp::Validate { site, seq } => {
                let target = RequestId::new(*site, *seq);
                // The admissibility rule guarantees the target is here.
                // Only tentative requests get promoted: a request this site
                // stored invalid stays invalid (the validation was issued
                // before the restriction that killed it — impossible by
                // version ordering — or the target depends on an element
                // that never existed here).
                if self.flag_of(target) == Some(Flag::Tentative) {
                    self.flags.settle(target, Flag::Valid);
                } else {
                    self.flags.clear_tentative(target);
                }
                let version = Arc::make_mut(&mut self.policy).bump_version();
                self.admin_log.push(r);
                self.emit(EventKind::ValidationConsumed { id: obs_id(target), version });
                self.emit(EventKind::AdminApplied { version, restrictive: false });
            }
            _ => {
                let policy = Arc::make_mut(&mut self.policy);
                r.op.apply_to(policy)?;
                let version = policy.bump_version();
                debug_assert_eq!(version, r.version);
                let restrictive = r.is_restrictive();
                self.admin_log.push(r);
                // Before enforcement: the undo oracle requires the
                // restrictive AdminApplied to precede every ReqUndone.
                self.emit(EventKind::AdminApplied { version, restrictive });
                if restrictive {
                    self.enforce_policy();
                }
            }
        }
        Ok(())
    }

    /// Retroactive enforcement (§4.2, first scenario): every *tentative*
    /// request the new policy no longer grants is undone — together with
    /// the requests that semantically depend on it, whose target element
    /// disappears with it.
    ///
    /// The verdict for each tentative request is computed with the *same*
    /// canonical decision every receiver uses in `Check_Remote`: "is there
    /// a restrictive administrative request concurrent with `q` (version
    /// `> q.v`) whose scope covers `q`'s access?" — answered by
    /// [`AdminLog::check_remote`] against the generation version recorded
    /// in `tentative_v`. Re-checking against the full *current* policy
    /// would be wrong: non-restrictive drift (e.g. a `SetGroup` shrinking
    /// a group whose grant shadowed an old revoke) can flip a first-match
    /// walk of the authorization list without any restrictive entry
    /// targeting the request, making the origin undo an operation that
    /// every other site — and the administrator, who decides validation —
    /// still grants. Because administrative requests apply in version
    /// order everywhere, the log-window decision is identical at every
    /// site, so a request is undone either everywhere or nowhere.
    fn enforce_policy(&mut self) {
        let victims: Vec<RequestId> = self
            .engine
            .log()
            .iter()
            .filter(|e| !e.inert)
            .filter(|e| self.flag_of(e.id) == Some(Flag::Tentative))
            .filter(|e| match Action::for_op(&e.base) {
                Some(action) => {
                    let v = self.flags.tentative_version(e.id);
                    self.admin_log.check_remote(e.id.site, &action, v, &self.policy).is_some()
                }
                None => false,
            })
            .map(|e| e.id)
            .collect();

        for victim in victims {
            // A victim may already have been undone as a dependent of an
            // earlier one.
            if self.engine.log().get(victim).map(|e| e.inert).unwrap_or(true) {
                continue;
            }
            let cascade = self.engine.undo(victim).expect("tentative live request is undoable");
            for id in cascade {
                self.flags.settle(id, Flag::Invalid);
                self.undone.push(id);
                self.emit(EventKind::ReqUndone { id: obs_id(id) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};
    use dce_policy::{Authorization, DocObject, Right, Sign, Subject};

    #[test]
    fn delegation_lifecycle() {
        let (mut adm, mut s1, mut s2) = group("abc");
        // Without a delegation, proposing fails locally.
        assert!(matches!(
            s1.propose_admin(AdminOp::AddUser(9)),
            Err(CoreError::NotAdministrator { user: 1 })
        ));
        // The admin delegates to s1.
        let d = adm.admin_generate(AdminOp::Delegate(1)).unwrap();
        s1.receive(Message::Admin(d.clone())).unwrap();
        s2.receive(Message::Admin(d)).unwrap();
        assert!(s1.policy().is_delegate(1));

        // s1 proposes adding a user; the admin sequences it.
        let p = s1.propose_admin(AdminOp::AddUser(9)).unwrap();
        adm.receive(Message::Proposal(p)).unwrap();
        let out = adm.drain_outbox();
        assert_eq!(out.len(), 1);
        assert!(adm.policy().has_user(9));
        for m in out {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }
        assert!(s1.policy().has_user(9));
        assert!(s2.policy().has_user(9));

        // Delegations themselves cannot be delegated.
        assert!(matches!(s1.propose_admin(AdminOp::Delegate(2)), Err(CoreError::Protocol(_))));

        // Revocation of the delegation propagates; stale proposals are
        // refused at the administrator.
        let stale = s1.propose_admin(AdminOp::AddUser(10)).unwrap();
        let r = adm.admin_generate(AdminOp::RevokeDelegation(1)).unwrap();
        adm.receive(Message::Proposal(stale.clone())).unwrap();
        assert!(adm.drain_outbox().is_empty());
        assert_eq!(adm.rejected_proposals(), &[stale]);
        s1.receive(Message::Admin(r)).unwrap();
        assert!(matches!(
            s1.propose_admin(AdminOp::AddUser(11)),
            Err(CoreError::NotAdministrator { .. })
        ));
    }

    #[test]
    fn proposals_are_ignored_by_non_admin_sites() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let d = adm.admin_generate(AdminOp::Delegate(1)).unwrap();
        s1.receive(Message::Admin(d)).unwrap();
        let p = s1.propose_admin(AdminOp::AddUser(9)).unwrap();
        s2.receive(Message::Proposal(p)).unwrap();
        assert!(s2.drain_outbox().is_empty());
        assert!(!s2.policy().has_user(9));
    }

    #[test]
    fn duplicate_messages_do_not_linger_in_queues() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        // Two copies delivered back to back: the second must not stay
        // queued once the first is processed.
        s2.receive(Message::Coop(q.clone())).unwrap();
        s2.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(s2.queued(), 0);
        // Same for a duplicate queued *before* its original is ready:
        // deliver a dependent request twice, then the dependency.
        let q2 = s1.generate(Op::up(1, 'x', 'z')).unwrap();
        let mut s3 = Site::new_user(3, 0, doc("abc"), Policy::permissive([0, 1, 2]));
        s3.receive(Message::Coop(q2.clone())).unwrap();
        s3.receive(Message::Coop(q2)).unwrap();
        assert_eq!(s3.queued(), 1, "the duplicate is rejected at the queue door");
        s3.receive(Message::Coop(q)).unwrap();
        assert_eq!(s3.queued(), 0, "original processed, duplicate dropped");
        assert_eq!(s3.document().to_string(), "zabc");
        // Administrative duplicates too.
        let r = adm.admin_generate(AdminOp::AddUser(9)).unwrap();
        s2.receive(Message::Admin(r.clone())).unwrap();
        s2.receive(Message::Admin(r)).unwrap();
        assert_eq!(s2.queued(), 0);
    }

    #[test]
    fn heartbeats_drive_auto_compaction() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        s2.receive(Message::Coop(q)).unwrap();
        for m in adm.drain_outbox() {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }
        // Before hearing from everyone, nothing compacts.
        assert_eq!(s1.auto_compact(), 0);
        let hb_adm = adm.make_heartbeat();
        let hb_s2 = s2.make_heartbeat();
        s1.receive(hb_adm).unwrap();
        assert_eq!(s1.auto_compact(), 0, "still missing s2's heartbeat");
        s1.receive(hb_s2).unwrap();
        assert_eq!(s1.auto_compact(), 1);
        assert_eq!(s1.engine().log().len(), 0);
        // Stale duplicate heartbeats are merged, not regressed.
        let hb_old = Message::Heartbeat { from: 0, clock: Clock::new() };
        s1.receive(hb_old).unwrap();
        assert_eq!(s1.peer_clocks()[&0].get(1), 1);
    }

    #[test]
    fn set_group_via_admin_request() {
        let (mut adm, mut s1, _) = group("abc");
        let r = adm
            .admin_generate(AdminOp::SetGroup {
                name: "editors".into(),
                members: [1, 2].into_iter().collect(),
            })
            .unwrap();
        s1.receive(Message::Admin(r)).unwrap();
        assert_eq!(s1.policy().groups()["editors"].len(), 2);
    }

    type S = Site<Char>;

    fn doc(s: &str) -> CharDocument {
        CharDocument::from_str(s)
    }

    fn group(initial: &str) -> (S, S, S) {
        let p = Policy::permissive([0, 1, 2]);
        (
            Site::new_admin(0, doc(initial), p.clone()),
            Site::new_user(1, 0, doc(initial), p.clone()),
            Site::new_user(2, 0, doc(initial), p),
        )
    }

    #[test]
    fn replica_digest_agrees_across_converged_sites() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let q1 = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q1.clone())).unwrap();
        s2.receive(Message::Coop(q1)).unwrap();
        // Mid-flight: s2 has not seen the validation yet, so the flag
        // tables (and hence the replica digests) disagree.
        let validations = adm.drain_outbox();
        assert!(!validations.is_empty());
        assert_ne!(adm.replica_digest(), s2.replica_digest());
        for m in validations {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }
        // Converged: the *replicated* state digests collide across all
        // three sites even though their behavioral digests cannot (each
        // hashes its own identity, outbox and diagnostics).
        assert_eq!(adm.replica_digest(), s1.replica_digest());
        assert_eq!(s1.replica_digest(), s2.replica_digest());
        assert_ne!(s1.state_digest(), s2.state_digest());
    }

    #[test]
    fn duplicate_before_original_is_processed_enqueues_once() {
        let (mut adm, mut s1, mut s2) = group("abc");
        // s1 issues two causally chained edits; s2 only ever sees the
        // *second*, which is therefore not ready and must sit queued.
        let q1 = s1.generate(Op::ins(1, 'x')).unwrap();
        let q2 = s1.generate(Op::ins(1, 'y')).unwrap();
        s2.receive(Message::Coop(q2.clone())).unwrap();
        assert_eq!(s2.queued(), 1);
        // The network replays the same message back-to-back: the duplicate
        // must not be enqueued a second time.
        s2.receive(Message::Coop(q2)).unwrap();
        assert_eq!(s2.queued(), 1, "duplicate of a queued coop request stacked up");
        // Same story for administrative requests: version 2 cannot apply
        // before version 1 arrives. (The revocations target user 2, who
        // edited nothing, so no retroactive undo disturbs the document.)
        let r1 = adm.admin_generate(revoke(Right::Insert, 2)).unwrap();
        let r2 = adm.admin_generate(revoke(Right::Delete, 2)).unwrap();
        assert_eq!(r2.version, 2);
        s2.receive(Message::Admin(r2.clone())).unwrap();
        s2.receive(Message::Admin(r2)).unwrap();
        assert_eq!(s2.queued(), 2, "duplicate of a queued admin request stacked up");
        // Delivering the missing predecessors unblocks everything exactly
        // once.
        s2.receive(Message::Coop(q1)).unwrap();
        s2.receive(Message::Admin(r1)).unwrap();
        assert_eq!(s2.queued(), 0);
        assert_eq!(s2.document().to_string(), "yxabc");
        assert_eq!(s2.version(), 2);
    }

    fn revoke(right: Right, user: UserId) -> AdminOp {
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(user),
                DocObject::Document,
                [right],
                Sign::Minus,
            ),
        }
    }

    #[test]
    fn local_generation_checks_policy() {
        let (_, mut s1, _) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(s1.flag_of(q.ot.id), Some(Flag::Tentative));
        assert_eq!(q.v, 0);
        assert_eq!(s1.document().to_string(), "xabc");
    }

    #[test]
    fn local_generation_denied_without_right() {
        let mut p = Policy::new();
        p.add_user(1);
        let mut s1: S = Site::new_user(1, 0, doc("abc"), p);
        let err = s1.generate(Op::ins(1, 'x')).unwrap_err();
        assert!(matches!(err, CoreError::AccessDenied { user: 1, .. }));
        assert_eq!(s1.document().to_string(), "abc");
    }

    #[test]
    fn admin_edits_bypass_check_and_are_valid() {
        let mut p = Policy::new();
        p.add_user(0);
        let mut adm: S = Site::new_admin(0, doc("abc"), p);
        let q = adm.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(adm.flag_of(q.ot.id), Some(Flag::Valid));
    }

    #[test]
    fn admin_validates_received_requests() {
        let (mut adm, mut s1, _) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(adm.flag_of(q.ot.id), Some(Flag::Valid));
        let out = adm.drain_outbox();
        assert_eq!(out.len(), 1);
        match &out[0] {
            Message::Admin(r) => {
                assert!(matches!(r.op, AdminOp::Validate { site: 1, seq: 1 }));
                assert_eq!(r.version, 1);
            }
            _ => panic!("expected validation"),
        }
        assert_eq!(adm.version(), 1);
    }

    #[test]
    fn validation_promotes_tentative_to_valid() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        let validation = adm.drain_outbox();

        s2.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(s2.flag_of(q.ot.id), Some(Flag::Tentative));
        for m in validation.clone() {
            s2.receive(m).unwrap();
        }
        assert_eq!(s2.flag_of(q.ot.id), Some(Flag::Valid));

        // The issuer learns validity too.
        for m in validation {
            s1.receive(m).unwrap();
        }
        assert_eq!(s1.flag_of(q.ot.id), Some(Flag::Valid));
    }

    #[test]
    fn validation_waits_for_its_target() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        let validation = adm.drain_outbox();

        // Validation arrives before the request: it must wait in Q.
        for m in validation {
            s2.receive(m).unwrap();
        }
        assert_eq!(s2.version(), 0);
        assert_eq!(s2.queued(), 1);
        s2.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(s2.version(), 1);
        assert_eq!(s2.queued(), 0);
        assert_eq!(s2.flag_of(q.ot.id), Some(Flag::Valid));
    }

    #[test]
    fn fig2_concurrent_revocation_undoes_tentative_insert() {
        let (mut adm, mut s1, mut s2) = group("abc");

        // adm revokes s1's insertion right; concurrently s1 inserts.
        let r = adm.admin_generate(revoke(Right::Insert, 1)).unwrap();
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(s1.document().to_string(), "xabc");

        // At adm, the insert arrives after the revocation: Check_Remote
        // rejects it (Fig. 2's "Ignored").
        adm.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(adm.document().to_string(), "abc");
        assert_eq!(adm.flag_of(q.ot.id), Some(Flag::Invalid));
        assert!(adm.drain_outbox().is_empty(), "rejected requests are not validated");

        // s2 receives the insert first (accepted), then the revocation:
        // retroactive undo restores "abc".
        s2.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(s2.document().to_string(), "xabc");
        s2.receive(Message::Admin(r.clone())).unwrap();
        assert_eq!(s2.document().to_string(), "abc");
        assert_eq!(s2.flag_of(q.ot.id), Some(Flag::Invalid));
        assert_eq!(s2.undone(), &[q.ot.id]);

        // s1 receives its own revocation: undoes its tentative insert.
        s1.receive(Message::Admin(r)).unwrap();
        assert_eq!(s1.document().to_string(), "abc");

        // All three sites converge.
        assert_eq!(adm.document(), s1.document());
        assert_eq!(s1.document(), s2.document());
    }

    #[test]
    fn group_drift_does_not_undo_what_the_admin_validates() {
        // Regression: retroactive enforcement must replay Check_Remote —
        // "does a restrictive request concurrent with `q` revoke its
        // access?" — not re-check the full current policy. Otherwise
        // non-restrictive drift (here a SetGroup shrinking a group whose
        // grant shadowed an old revoke) makes the origin undo a tentative
        // operation that the administrator still grants and validates:
        // permanent flag and document divergence.
        let (mut adm, mut s1, mut s2) = group("abc");

        // v1: an old revoke of s1's insert right on a narrow range (s1
        // has nothing tentative yet, so nothing is undone anywhere).
        let r1 = adm
            .admin_generate(AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::new(
                    Subject::User(1),
                    DocObject::Range { from: 1, to: 1 },
                    [Right::Insert],
                    Sign::Minus,
                ),
            })
            .unwrap();
        // v2: a group containing s1; v3: a grant to that group, inserted
        // above the revoke — shadowing it in the first-match walk.
        let r2 = adm
            .admin_generate(AdminOp::SetGroup {
                name: "eds".into(),
                members: [1].into_iter().collect(),
            })
            .unwrap();
        let r3 = adm
            .admin_generate(AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::new(
                    Subject::Group("eds".into()),
                    DocObject::Document,
                    [Right::Insert],
                    Sign::Plus,
                ),
            })
            .unwrap();
        for m in [&r1, &r2, &r3] {
            s1.receive(Message::Admin(m.clone())).unwrap();
            s2.receive(Message::Admin(m.clone())).unwrap();
        }

        // s1 inserts under v3 — granted via the group grant.
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(q.v, 3);
        assert_eq!(s1.document().to_string(), "xabc");

        // v4 (non-restrictive) empties the group, unshadowing the old
        // revoke. v5, restrictive but aimed at a *different* user,
        // reaches s1 before s1's own edit reaches the administrator —
        // triggering retroactive enforcement at the origin.
        let r4 = adm
            .admin_generate(AdminOp::SetGroup { name: "eds".into(), members: Default::default() })
            .unwrap();
        let r5 = adm.admin_generate(revoke(Right::Delete, 2)).unwrap();
        for m in [&r4, &r5] {
            s1.receive(Message::Admin(m.clone())).unwrap();
            s2.receive(Message::Admin(m.clone())).unwrap();
        }

        // No restrictive request concurrent with q covers its access, so
        // the insert must stay tentative. (The buggy full-policy re-check
        // found the unshadowed v1 revoke and undid it here — and only
        // here, since every receiver decides via Check_Remote.)
        assert_eq!(s1.flag_of(q.ot.id), Some(Flag::Tentative));
        assert_eq!(s1.document().to_string(), "xabc");
        assert!(s1.undone().is_empty());

        // The administrator receives the edit, grants it by the same
        // decision, and validates it.
        adm.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(adm.flag_of(q.ot.id), Some(Flag::Valid));
        let validations = adm.drain_outbox();
        assert_eq!(validations.len(), 1);
        s2.receive(Message::Coop(q.clone())).unwrap();
        for m in validations {
            s1.receive(m.clone()).unwrap();
            s2.receive(m).unwrap();
        }

        // Everyone settles on the same verdict and the same document.
        for site in [&adm, &s1, &s2] {
            assert_eq!(site.flag_of(q.ot.id), Some(Flag::Valid));
            assert_eq!(site.document().to_string(), "xabc");
        }
        assert_eq!(adm.replica_digest(), s1.replica_digest());
        assert_eq!(adm.replica_digest(), s2.replica_digest());
    }

    #[test]
    fn revocation_does_not_undo_validated_requests() {
        let (mut adm, mut s1, _) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q)).unwrap();
        let validation = adm.drain_outbox();
        for m in validation {
            s1.receive(m).unwrap();
        }
        // Now revoke: the validated insert must survive.
        let r = adm.admin_generate(revoke(Right::Insert, 1)).unwrap();
        s1.receive(Message::Admin(r)).unwrap();
        assert_eq!(s1.document().to_string(), "xabc");
        assert_eq!(adm.document().to_string(), "xabc");
        // But new inserts are now denied locally.
        assert!(s1.generate(Op::ins(1, 'y')).is_err());
    }

    #[test]
    fn coop_request_waits_for_policy_version() {
        let (mut adm, _, mut s2) = group("abc");
        // adm makes two administrative changes, then edits.
        let r1 = adm.admin_generate(AdminOp::AddUser(9)).unwrap();
        let q = adm.generate(Op::ins(1, 'z')).unwrap();
        assert_eq!(q.v, 1);
        // s2 receives the edit first: its v (=1) is ahead of s2's policy
        // version (0), so it must wait.
        s2.receive(Message::Coop(q)).unwrap();
        assert_eq!(s2.document().to_string(), "abc");
        assert_eq!(s2.queued(), 1);
        s2.receive(Message::Admin(r1)).unwrap();
        assert_eq!(s2.document().to_string(), "zabc");
        assert_eq!(s2.queued(), 0);
    }

    #[test]
    fn non_admin_cannot_administrate() {
        let (_, mut s1, _) = group("abc");
        assert!(matches!(
            s1.admin_generate(AdminOp::AddUser(9)),
            Err(CoreError::NotAdministrator { user: 1 })
        ));
    }

    #[test]
    fn admin_requests_apply_in_version_order() {
        let (mut adm, mut s1, _) = group("abc");
        let r1 = adm.admin_generate(AdminOp::AddUser(8)).unwrap();
        let r2 = adm.admin_generate(AdminOp::AddUser(9)).unwrap();
        // Deliver out of order: r2 waits for r1.
        s1.receive(Message::Admin(r2)).unwrap();
        assert_eq!(s1.version(), 0);
        s1.receive(Message::Admin(r1)).unwrap();
        assert_eq!(s1.version(), 2);
        assert!(s1.policy().has_user(8));
        assert!(s1.policy().has_user(9));
    }

    #[test]
    fn undo_cascades_mark_dependents_invalid() {
        let (mut adm, mut s1, _) = group("abc");
        let q_ins = s1.generate(Op::ins(1, 'x')).unwrap();
        let q_up = s1.generate(Op::up(1, 'x', 'z')).unwrap();
        assert_eq!(s1.document().to_string(), "zabc");
        // Revoke insertion: the tentative insert is undone, dragging the
        // (also tentative) update with it.
        let r = adm.admin_generate(revoke(Right::Insert, 1)).unwrap();
        s1.receive(Message::Admin(r)).unwrap();
        assert_eq!(s1.document().to_string(), "abc");
        assert_eq!(s1.flag_of(q_ins.ot.id), Some(Flag::Invalid));
        assert_eq!(s1.flag_of(q_up.ot.id), Some(Flag::Invalid));
    }

    #[test]
    fn duplicate_coop_message_is_ignored() {
        let (mut adm, mut s1, _) = group("abc");
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        adm.drain_outbox();
        adm.receive(Message::Coop(q)).unwrap();
        assert_eq!(adm.document().to_string(), "xabc");
        assert!(adm.drain_outbox().is_empty());
    }

    #[test]
    fn stale_admin_message_is_ignored() {
        let (mut adm, mut s1, _) = group("abc");
        let r = adm.admin_generate(AdminOp::AddUser(9)).unwrap();
        s1.receive(Message::Admin(r.clone())).unwrap();
        assert_eq!(s1.version(), 1);
        s1.receive(Message::Admin(r)).unwrap();
        assert_eq!(s1.version(), 1);
        assert_eq!(s1.queued(), 0);
    }

    #[test]
    fn invalid_request_stays_invalid_after_validation_of_others() {
        let (mut adm, mut s1, mut s2) = group("abc");
        let r = adm.admin_generate(revoke(Right::Delete, 2)).unwrap();
        // s2 deletes concurrently with the revocation.
        let q = s2.generate(Op::del(1, 'a')).unwrap();
        // s1 applies the revocation first, then receives the delete.
        s1.receive(Message::Admin(r)).unwrap();
        s1.receive(Message::Coop(q.clone())).unwrap();
        assert_eq!(s1.flag_of(q.ot.id), Some(Flag::Invalid));
        assert_eq!(s1.document().to_string(), "abc");
        assert_eq!(s1.denials(), &[q.ot.id]);
    }
}
