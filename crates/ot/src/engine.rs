//! Per-site OT integration engine: `ComputeBF`, `ComputeFF`, `Canonize`
//! and retroactive `Undo`, over a canonical log (paper §5 / reference \[4\]).
//!
//! The engine speaks the paper's *visible* coordinates at its API (`Ins(p,e)`
//! means "insert so the element becomes the p-th visible element") and keeps
//! a tombstone [`Buffer`] internally — see that module for why tombstones
//! make the base-form machinery exact.

use crate::buffer::Buffer;
use crate::error::{ExcludeError, IntegrateError, OtError};
use crate::ids::{Clock, RequestId, SiteId};
use crate::log::{canonize_last, hoist_left, Log, LogEntry};
use crate::transform::{include, TOp};
use dce_document::{ApplyError, Document, Element, Op};

/// A cooperative request in broadcast form: the operation exactly as
/// executed at its generation site (internal coordinates), its causal
/// context, and the identity of its direct semantic dependency (`q.a`,
/// the paper's dependency-tree pointer — used by the access-control layer
/// and by the inert-ancestor rule).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BroadcastRequest<E> {
    /// Request identity (`q.c` + `q.r`).
    pub id: RequestId,
    /// Direct semantic dependency (`q.a`); `None` when the request operates
    /// on an initial element or inserts a fresh one.
    pub dep: Option<RequestId>,
    /// The operation in its generation-context form, with metadata.
    pub top: TOp<E>,
    /// The request's causal context: everything its site had integrated
    /// when it was generated.
    pub ctx: Clock,
}

/// Outcome of integrating a remote request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Integration<E> {
    /// The request was transformed to `op` (internal coordinates) and
    /// executed on the replica.
    Executed(Op<E>),
    /// The request was stored inert (no document effect): either the caller
    /// asked for it (policy denied the request) or an ancestor of the
    /// request is inert at this site.
    Inert,
}

/// The canonical log split by one generation context — `ComputeFF`'s
/// precondition: the entries of `ctx` moved to a prefix by exact,
/// effect-preserving transpositions, the concurrent rest after them in log
/// order. Only that concurrent suffix is kept, as `(id, form)` pairs in
/// the forms the entries take after the prefix; the prefix forms are never
/// read, so a partition costs O(window), not O(|H|).
///
/// The engine keeps one partition alive across receptions and advances it
/// instead of rebuilding it: a request whose context contains the cached
/// one moves the newly-contained suffix entries into the prefix
/// ([`Partition::sift`]), an integrated request is moved past the suffix
/// ([`Partition::hoist`]), a local request joins the suffix. That rests on
/// the exactness property the cold rebuild (`Engine::partition_context`)
/// already relies on: the form an entry takes depends only on *which*
/// entries precede it, not on the order they were moved in — checked
/// against the cold rebuild on every reception in debug builds.
#[derive(Debug)]
struct Partition<E> {
    /// The context the prefix holds.
    ctx: Clock,
    /// The log entries outside `ctx`, in log order, in their post-prefix forms.
    suffix: Vec<(RequestId, TOp<E>)>,
}

impl<E: Element> Partition<E> {
    /// Moves `form` — a context entry in the form it holds right after the
    /// suffix — left past the whole suffix, rewriting the suffix forms, and
    /// drops it into the prefix. Returns the transpositions spent.
    fn hoist(&mut self, form: TOp<E>) -> Result<u64, ExcludeError> {
        hoist_left(&mut self.suffix, |(_, w)| w, form)
    }

    /// Appends `entries` (log order, each in the form it holds after
    /// everything before it) to the partition: entries of `ctx` are hoisted
    /// into the prefix, the others join the suffix. Returns the number of
    /// entries hoisted and the transpositions spent.
    fn sift(
        &mut self,
        entries: impl IntoIterator<Item = (RequestId, TOp<E>)>,
    ) -> Result<(u64, u64), ExcludeError> {
        let (mut hoisted, mut moves) = (0, 0);
        for (id, form) in entries {
            if self.ctx.contains(id) {
                moves += self.hoist(form)?;
                hoisted += 1;
            } else {
                self.suffix.push((id, form));
            }
        }
        Ok((hoisted, moves))
    }

    /// Advances the partition to `ctx`, which must contain the cached
    /// context, by sifting the suffix. Returns the transpositions spent, or
    /// `None` when the partition cannot describe `ctx` — a transposition
    /// failed, or the suffix did not hold every request `ctx` gained — and
    /// the caller must rebuild.
    fn advance(&mut self, ctx: &Clock) -> Option<u64> {
        let gained = ctx.total() - self.ctx.total();
        self.ctx = ctx.clone();
        let suffix = std::mem::take(&mut self.suffix);
        let (hoisted, moves) = self.sift(suffix).ok()?;
        (hoisted == gained).then_some(moves)
    }

    /// Adds a local request, executed at the end of the log, to the suffix
    /// and canonizes the suffix the way the log canonizes itself, so the
    /// suffix stays in log order.
    fn push_local(&mut self, id: RequestId, form: TOp<E>) -> u64 {
        self.suffix.push((id, form));
        canonize_last(&mut self.suffix, |(_, form)| form)
    }
}

/// Work counters for one engine: how many primitive transformation steps
/// the algorithms have executed. The evaluation harness reports these
/// alongside wall-clock times, making the complexity claims of §5.2
/// machine-checkable rather than inferred from noisy timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// `IT` applications (ComputeFF folds).
    pub includes: u64,
    /// `ET` applications / transpositions during context partitioning.
    pub partition_transposes: u64,
    /// Transpositions spent keeping the log canonical.
    pub canonize_transposes: u64,
    /// Requests integrated from remote sites.
    pub integrated: u64,
    /// Requests undone (including cascades).
    pub undone: u64,
}

/// The per-site OT engine.
///
/// Owns the replica (a tombstone [`Buffer`]), the canonical log `H`, the
/// causal clock, and the provenance chains linking each cell to the requests
/// that produced it (the paper's dependency tree, stored positionally).
#[derive(Debug)]
pub struct Engine<E> {
    site: SiteId,
    buf: Buffer<E>,
    log: Log<E>,
    /// Requests integrated so far, per site (contiguous thanks to FIFO).
    clock: Clock,
    metrics: EngineMetrics,
    /// Identities of *inert* entries that were pruned from the log by
    /// compaction: still needed to propagate inertness to late dependents.
    pruned_inert: std::collections::HashSet<RequestId>,
    /// Number of entries compacted away so far (diagnostics).
    pruned_count: usize,
    /// `ComputeFF`'s context partition, kept warm across receptions. A
    /// cache of the log, not state: never digested or snapshotted, dropped
    /// by `undo` and `prune_stable`, and absent from new engines and clones.
    partition: Option<Partition<E>>,
}

/// A clone starts cold, like a restored snapshot: the partition is
/// rebuilt by the first reception that needs it.
impl<E: Clone> Clone for Engine<E> {
    fn clone(&self) -> Self {
        Engine {
            site: self.site,
            buf: self.buf.clone(),
            log: self.log.clone(),
            clock: self.clock.clone(),
            metrics: self.metrics,
            pruned_inert: self.pruned_inert.clone(),
            pruned_count: self.pruned_count,
            partition: None,
        }
    }
}

impl<E: Element> Engine<E> {
    /// Creates an engine for `site` over the initial document `d0`.
    pub fn new(site: SiteId, d0: Document<E>) -> Self {
        Self::from_parts(
            site,
            Buffer::from_document(&d0),
            Log::new(),
            Clock::new(),
            std::collections::HashSet::new(),
            0,
        )
    }

    /// Work counters accumulated so far.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Feeds the engine's *replicated* state into `h`: buffer, canonical
    /// log, clock and compaction memory. The work counters are excluded —
    /// they measure the integration path taken, not the state reached, so
    /// including them would stop converged states from colliding in
    /// state-space dedupe.
    pub fn digest_into<H: std::hash::Hasher>(&self, h: &mut H)
    where
        E: std::hash::Hash,
    {
        use std::hash::Hash;
        self.site.hash(h);
        self.buf.hash(h);
        self.log.hash(h);
        self.clock.hash(h);
        let mut pruned: Vec<RequestId> = self.pruned_inert.iter().copied().collect();
        pruned.sort_unstable();
        pruned.hash(h);
        self.pruned_count.hash(h);
    }

    /// Reassembles an engine from snapshot parts (state transfer for a
    /// joining site). Metrics restart at zero; the pruned-inert set and
    /// prune counter carry over so late dependents of compacted invalid
    /// requests still become inert.
    pub fn from_parts(
        site: SiteId,
        buf: Buffer<E>,
        log: Log<E>,
        clock: Clock,
        pruned_inert: std::collections::HashSet<RequestId>,
        pruned_count: usize,
    ) -> Self {
        Engine {
            site,
            buf,
            log,
            clock,
            metrics: EngineMetrics::default(),
            pruned_inert,
            pruned_count,
            partition: None,
        }
    }

    /// Snapshot accessors: the pruned-inert identity set.
    pub fn pruned_inert(&self) -> &std::collections::HashSet<RequestId> {
        &self.pruned_inert
    }

    /// Number of log entries removed by compaction so far.
    pub fn pruned_count(&self) -> usize {
        self.pruned_count
    }

    /// Compacts the log: reclaims every entry `stable` selects, wherever it
    /// sits, and returns the reclaimed identities in log order.
    ///
    /// The caller must guarantee a selected entry is *stable* — in every
    /// participant's clock and in the context of every request still on its
    /// way here, so every future partition puts it in the prefix — and
    /// never undoable (validated or definitively invalid). Each selected
    /// entry is hoisted left past the kept entries before it (the
    /// partition's own transposition), so the kept entries take their
    /// post-prefix forms — exactly the forms every future partition would
    /// compute for them — and is then dropped. A selected entry stays when
    /// its dependency is a kept entry (so every ancestor of a reclaimed
    /// entry is reclaimed too, and the dependency walks of `integrate` and
    /// `undo` never step from a reclaimed entry back into the log), or when
    /// a hoist fails (it depends on a kept entry; no form is touched). A
    /// stable settled prefix is the special case that needs no
    /// transposition at all. Inert reclaimed identities are remembered so
    /// late requests depending on them still become inert.
    pub fn prune_stable(&mut self, mut stable: impl FnMut(&LogEntry<E>) -> bool) -> Vec<RequestId> {
        self.partition = None;
        let mut kept: Vec<LogEntry<E>> = Vec::new();
        let mut kept_ids = std::collections::HashSet::new();
        let mut pruned = Vec::new();
        for e in self.log.take_entries() {
            let movable = stable(&e) && !e.dep.is_some_and(|d| kept_ids.contains(&d));
            if movable {
                if let Ok(moves) = hoist_left(&mut kept, |k| &mut k.top, e.top.clone()) {
                    self.metrics.partition_transposes += moves;
                    if e.inert {
                        self.pruned_inert.insert(e.id);
                    }
                    self.pruned_count += 1;
                    pruned.push(e.id);
                    continue;
                }
            }
            kept_ids.insert(e.id);
            kept.push(e);
        }
        self.log.replace_entries(kept);
        debug_assert!(self.log.is_canonical(), "hoisting broke the canonical order");
        pruned
    }

    /// Prunes cell provenance chains of links that are stable group-wide.
    /// Returns the number of links dropped.
    ///
    /// Without this, a cell's chain grows one link per update *and* each
    /// link's `saw` set lists its predecessors, so an update-heavy session
    /// costs memory quadratic in its own length. Two prunes apply:
    ///
    /// * dead links (inert in the log, or compacted away as inert) below
    ///   `horizon` are dropped unconditionally — the tournament filters
    ///   them out at every replica and, settled, they can never revive;
    /// * the live links below `horizon` collapse to their tournament
    ///   winner — whose `saw` set is cleared (a stable link's generation
    ///   context is itself stable, so the set can only name other dropped
    ///   links) — provided **every live link above the horizon
    ///   `saw`-dominates every live link below it**.
    ///
    /// Soundness of the collapse. The below-horizon live set is complete
    /// and identical at every replica (below the horizon means delivered
    /// and settled group-wide), so every replica that collapses elects
    /// the same winner. A dropped loser can then never decide a future
    /// tournament anywhere, because every other candidate it could ever
    /// battle beats it by `saw`-dominance, and a dominated link never
    /// displaces the running best in the scan — so removing it cannot
    /// flip the outcome (the site-id tie-break among *concurrent* links
    /// is not transitive, which is exactly why dominance is required):
    ///
    /// * links already above the horizon are checked directly, pairwise;
    /// * future arrivals dominate by the caller's guarantee (see
    ///   `dce_core`'s `auto_compact`: it only passes a horizon derived
    ///   from heartbeat clocks this engine's own clock contains, so any
    ///   request not yet delivered was generated after its site's
    ///   heartbeat and its context covers the horizon);
    /// * a below-horizon link never sees an above-horizon one (any clock
    ///   covering the later-delivered link covers its whole context), so
    ///   the winner's cleared `saw` set is never consulted against
    ///   survivors.
    pub fn prune_chains(&mut self, horizon: &Clock) -> usize {
        let mut dropped = 0usize;
        let Engine { buf, log, pruned_inert, .. } = self;
        // Every cell an update ever wrote keeps its winning link, so the
        // links consulted grow with the session: look each one up in a map
        // built once, not by a scan of the log.
        let inert: std::collections::HashMap<RequestId, bool> =
            log.iter().map(|e| (e.id, e.inert)).collect();
        let is_live = |id: RequestId| match inert.get(&id) {
            Some(inert) => !inert,
            None => !pruned_inert.contains(&id),
        };
        for chain in buf.chains_mut() {
            let keep = {
                if !chain.iter().any(|l| horizon.contains(l.id)) {
                    continue;
                }
                let live: Vec<&crate::buffer::ChainLink<E>> =
                    chain.iter().filter(|l| is_live(l.id)).collect();
                let (below, above): (
                    Vec<&crate::buffer::ChainLink<E>>,
                    Vec<&crate::buffer::ChainLink<E>>,
                ) = live.into_iter().partition(|l| horizon.contains(l.id));
                if above.iter().any(|a| below.iter().any(|b| !a.saw.contains(&b.id))) {
                    // A live above-horizon link concurrent with a stable
                    // one: the tie-break between them is still in play,
                    // so only the dead stable links go.
                    None
                } else {
                    Some(Self::tournament(below).map(|l| l.id))
                }
            };
            let before = chain.len();
            match keep {
                None => chain.retain(|l| !horizon.contains(l.id) || is_live(l.id)),
                Some(winner) => {
                    chain.retain(|l| !horizon.contains(l.id) || Some(l.id) == winner);
                    if let Some(w) = winner {
                        for l in chain.iter_mut().filter(|l| l.id == w) {
                            l.saw.clear();
                        }
                    }
                }
            }
            dropped += before - chain.len();
        }
        dropped
    }

    /// This engine's site identity.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Materializes the current visible document.
    pub fn document(&self) -> Document<E> {
        self.buf.visible()
    }

    /// The internal tombstone buffer (inspection/debugging).
    pub fn buffer(&self) -> &Buffer<E> {
        &self.buf
    }

    /// The cooperative log `H`.
    pub fn log(&self) -> &Log<E> {
        &self.log
    }

    /// Number of locally generated requests so far.
    pub fn local_seq(&self) -> u64 {
        self.clock.get(self.site)
    }

    /// This site's causal clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// `true` once the request id has been integrated (locally generated or
    /// received).
    pub fn has_seen(&self, id: RequestId) -> bool {
        self.clock.contains(id)
    }

    /// `true` when `req` is causally ready: every request of its generation
    /// context — including its site-FIFO predecessor — has been integrated.
    pub fn is_ready(&self, req: &BroadcastRequest<E>) -> bool {
        req.id.seq == self.clock.get(req.id.site) + 1 && self.clock.dominates(&req.ctx)
    }

    /// Translates a visible-coordinate operation into internal coordinates,
    /// validating it against the current replica.
    fn to_internal(&self, op: &Op<E>) -> Result<Op<E>, ApplyError> {
        let out_of_bounds = |pos: dce_document::Position, slack: usize| {
            let len = self.buf.visible_len();
            ApplyError::OutOfBounds { pos, len, max: len + slack }
        };
        match op {
            Op::Nop => Ok(Op::Nop),
            Op::Ins { pos, elem } => self
                .buf
                .internal_ins_pos(*pos)
                .map(|p| Op::Ins { pos: p, elem: elem.clone() })
                .ok_or_else(|| out_of_bounds(*pos, 1)),
            Op::Del { pos, elem } => {
                let p = self.buf.internal_target_pos(*pos).ok_or_else(|| out_of_bounds(*pos, 0))?;
                let found = &self.buf.cell(p).expect("mapped cell exists").elem;
                if found != elem {
                    return Err(ApplyError::ElementMismatch {
                        pos: *pos,
                        expected: format!("{elem:?}"),
                        found: format!("{found:?}"),
                    });
                }
                Ok(Op::Del { pos: p, elem: elem.clone() })
            }
            Op::Up { pos, old, new } => {
                let p = self.buf.internal_target_pos(*pos).ok_or_else(|| out_of_bounds(*pos, 0))?;
                let found = &self.buf.cell(p).expect("mapped cell exists").elem;
                if found != old {
                    return Err(ApplyError::ElementMismatch {
                        pos: *pos,
                        expected: format!("{old:?}"),
                        found: format!("{found:?}"),
                    });
                }
                Ok(Op::Up { pos: p, old: old.clone(), new: new.clone() })
            }
        }
    }

    /// Generates a local cooperative request (paper Algorithm 2, OT part):
    /// executes `op` (visible coordinates) on the local replica, appends it
    /// to the log, canonizes, and returns the [`BroadcastRequest`] — the
    /// operation in its generation-context form plus that context — to
    /// propagate to the other sites.
    pub fn generate(&mut self, op: Op<E>) -> Result<BroadcastRequest<E>, OtError> {
        let internal = self.to_internal(&op).map_err(OtError::InvalidLocalOp)?;

        // Identify the semantic dependency before mutating the state.
        let dep = match (&internal, internal.pos()) {
            (Op::Del { .. } | Op::Up { .. }, Some(p)) => {
                self.buf.cell(p).and_then(|c| c.last_writer())
            }
            _ => None,
        };

        let ctx = self.clock.clone();
        let seq = self.clock.tick(self.site);
        let id = RequestId::new(self.site, seq);

        self.buf
            .apply(&internal, Some(id), None)
            .expect("internal translation produced a valid operation");

        let top = TOp::new(internal, self.site);
        let swaps = self.log.push_canonical(LogEntry {
            id,
            dep,
            top: top.clone(),
            base: top.op.clone(),
            inert: false,
            ctx: ctx.clone(),
        });
        self.metrics.canonize_transposes += swaps;
        // A request generated just now is concurrent with every context the
        // kept partition can describe: it joins the suffix.
        if let Some(p) = &mut self.partition {
            self.metrics.partition_transposes += p.push_local(id, top.clone());
        }
        Ok(BroadcastRequest { id, dep, top, ctx })
    }

    /// Integrates a remote request (paper Algorithm 3, OT part): `ComputeFF`
    /// transforms the base form against every log entry outside the
    /// request's dependency chain, the result is executed, appended and the
    /// log canonized.
    pub fn integrate(
        &mut self,
        req: &BroadcastRequest<E>,
    ) -> Result<Integration<E>, IntegrateError> {
        self.integrate_with(req, true)
    }

    /// Integrates a remote request while suppressing its document effect —
    /// the request is stored *invalid* (inert), exactly like `q3*` in the
    /// paper's Fig. 5 walkthrough. Later requests transform against it as a
    /// no-op but its identity stays resolvable.
    pub fn integrate_inert(&mut self, req: &BroadcastRequest<E>) -> Result<(), IntegrateError> {
        self.integrate_with(req, false).map(|_| ())
    }

    fn integrate_with(
        &mut self,
        req: &BroadcastRequest<E>,
        effective: bool,
    ) -> Result<Integration<E>, IntegrateError> {
        if self.clock.contains(req.id) {
            return Err(IntegrateError::Duplicate(req.id));
        }
        if !self.is_ready(req) {
            let missing = req
                .ctx
                .first_missing_from(&self.clock)
                .unwrap_or_else(|| RequestId::new(req.id.site, self.clock.get(req.id.site) + 1));
            return Err(IntegrateError::NotReady { missing });
        }

        // Walk the dependency chain; an ancestor missing from the log was
        // pruned by compaction (it is in our clock by causal readiness).
        // If any ancestor is inert here (stored invalid or undone), the
        // element this request operates on does not exist at this site: the
        // request must be stored inert as well.
        let mut ancestor_inert = false;
        let mut cursor = req.dep;
        while let Some(id) = cursor {
            match self.log.get(id) {
                Some(entry) => {
                    if entry.inert {
                        ancestor_inert = true;
                        break;
                    }
                    cursor = entry.dep;
                }
                None => {
                    debug_assert!(
                        self.clock.contains(id),
                        "unseen ancestor slipped past readiness"
                    );
                    if self.pruned_inert.contains(&id) {
                        ancestor_inert = true;
                    }
                    // Pruned-live ancestors are stable: chain ends here.
                    break;
                }
            }
        }

        // Integration proper (the paper's ComputeFF step): partition the
        // log so the entries of `req`'s generation context form a prefix
        // (exact, transposition-based), then fold the request forward
        // through the concurrent suffix with `IT`.
        let warm = match self.partition.take() {
            // The request causally follows everything integrated here: no
            // log entry is concurrent with it, the suffix is empty.
            _ if req.ctx.dominates(&self.clock) => {
                Some((Partition { ctx: req.ctx.clone(), suffix: Vec::new() }, 0))
            }
            // The usual case: the request's context contains the cached
            // one, so only the suffix entries it newly contains move.
            Some(mut p) if req.ctx.dominates(&p.ctx) => p.advance(&req.ctx).map(|moves| (p, moves)),
            // Cold, or a context that left part of the cached one out.
            _ => None,
        };
        let (partition, moves) = warm.unwrap_or_else(|| self.partition_context(&req.ctx));
        self.metrics.partition_transposes += moves;
        debug_assert_eq!(
            partition.suffix,
            self.partition_context(&req.ctx).0.suffix,
            "the kept partition drifted from a cold rebuild for {}",
            req.id
        );
        let mut top = req.top.clone();
        for (_, w) in &partition.suffix {
            top = include(&top, w);
        }
        self.metrics.includes += partition.suffix.len() as u64;
        self.metrics.integrated += 1;
        self.partition = Some(partition);

        if !effective || ancestor_inert {
            // Stored invalid. An invalid *insertion* still claims its cell —
            // as a ghost (born dead) — so that every site keeps the same
            // internal coordinate space even while sites transiently
            // disagree about validity; its log form keeps the insertion so
            // later transformations account for the cell. Invalid deletions
            // and updates have no positional influence under tombstone
            // coordinates and are stored as `Nop`.
            let stored_top = match &top.op {
                Op::Ins { pos, elem } => {
                    self.buf
                        .insert_ghost(*pos, elem.clone(), req.id)
                        .map_err(IntegrateError::Apply)?;
                    top.clone()
                }
                _ => TOp { op: Op::Nop, origin: req.top.origin, site: req.top.site },
            };
            let swaps = self.log.push_canonical(LogEntry {
                id: req.id,
                dep: req.dep,
                top: stored_top.clone(),
                base: req.top.op.clone(),
                inert: true,
                ctx: req.ctx.clone(),
            });
            self.metrics.canonize_transposes += swaps;
            self.clock.set(req.id.site, req.id.seq);
            self.absorb(stored_top, req.id);
            return Ok(Integration::Inert);
        }

        self.buf.apply(&top.op, Some(req.id), Some(&req.ctx)).map_err(IntegrateError::Apply)?;
        // The chain link must record the value the *generator* wrote (the
        // base form), not the folded form: an update absorbed by a
        // concurrent winner applies as an identity write of the winner's
        // value, but undo's recompute needs the loser's own value — the
        // same at every site.
        if let (Op::Up { new: base_new, .. }, Some(pos)) = (&req.top.op, top.op.pos()) {
            if let Some(mut cell) = self.buf.cell_mut(pos) {
                if let Some(link) = cell.chain.last_mut() {
                    if link.id == req.id {
                        link.value = base_new.clone();
                    }
                }
            }
            // The folded form's written value can be stale: a concurrent
            // loser absorbed into an identity update keeps the winner's
            // value in its stored log form, and if that winner has since
            // been *undone* at this site, applying the identity form just
            // resurrected the undone value. The provenance chain — whose
            // content is the same at every site — is the authority on the
            // cell's value, so recompute it from the live links.
            let value = self.chain_winner_value(pos, None);
            self.buf.cell_mut(pos).expect("updated cell exists").elem = value;
        }
        let swaps = self.log.push_canonical(LogEntry {
            id: req.id,
            dep: req.dep,
            top: top.clone(),
            base: req.top.op.clone(),
            inert: false,
            ctx: req.ctx.clone(),
        });
        self.metrics.canonize_transposes += swaps;
        self.clock.set(req.id.site, req.id.seq);
        self.absorb(top.clone(), req.id);
        Ok(Integration::Executed(top.op))
    }

    /// Moves a just-integrated request, whose form after the suffix is
    /// `form`, into the kept partition's prefix, so the partition describes
    /// a context that also holds `id` — as the next request from the same
    /// origin's does. A failed transposition drops the partition (the next
    /// reception rebuilds it: the partition is an accelerator, never
    /// load-bearing for correctness).
    fn absorb(&mut self, form: TOp<E>, id: RequestId) {
        if let Some(p) = &mut self.partition {
            match p.hoist(form) {
                Ok(moves) => {
                    p.ctx.set(id.site, id.seq);
                    self.metrics.partition_transposes += moves;
                }
                Err(_) => self.partition = None,
            }
        }
    }

    /// Retroactively undoes the request `id` (and, transitively, every live
    /// request that semantically depends on it — their target element
    /// disappears with it). Returns the identities actually undone, the
    /// target last.
    ///
    /// This is the paper's `Undo(q, H)`. The paper realises it by
    /// transposing the request to the end of the log (`O(|H|²)` worst
    /// case); thanks to the never-removed-cell invariant of the tombstone
    /// buffer we can revert the effect *in place* instead — ghost the
    /// inserted cell, withdraw the deletion, or recompute the updated
    /// value — and simply flag the entry inert. Finding the request's cell
    /// is a scan of the buffer (`O(cells)`: the buffer indexes positions,
    /// not request identities). An undone insertion keeps its positional
    /// form in the log (its ghost cell still occupies the coordinate);
    /// undone deletions/updates become `Nop`.
    pub fn undo(&mut self, id: RequestId) -> Result<Vec<RequestId>, OtError> {
        if self.log.index_of(id).is_none() {
            return Err(OtError::UnknownRequest(id));
        }
        if self.log.get(id).map(|e| e.inert).unwrap_or(false) {
            return Err(OtError::AlreadyInert(id));
        }
        // Undo rewrites log forms in place: the kept partition no longer
        // mirrors the log.
        self.partition = None;

        let mut undone = Vec::new();
        // Cascade: undo live dependents first (repeatedly pick one with no
        // live dependents of its own).
        loop {
            let next_dependent = self
                .log
                .iter()
                .filter(|e| !e.inert && e.id != id)
                .find(|e| self.depends_on(e, id) && !self.has_live_dependent(e.id))
                .map(|e| e.id);
            match next_dependent {
                Some(dep_id) => {
                    self.undo_single(dep_id)?;
                    undone.push(dep_id);
                }
                None => break,
            }
        }
        self.undo_single(id)?;
        undone.push(id);
        self.metrics.undone += undone.len() as u64;
        Ok(undone)
    }

    /// Removes `undone` from the provenance chain of the cell at `pos` and
    /// recomputes the cell's value from the remaining *live* updates: the
    /// winner is the update no other one causally follows, with the site id
    /// breaking ties among concurrent maxima — the same order the
    /// transformation functions enforce, so every site recomputes the same
    /// value. Falls back to the cell's original element when no live update
    /// remains.
    fn recompute_cell_value(&mut self, pos: dce_document::Position, undone: RequestId) {
        let value = self.chain_winner_value(pos, Some(undone));
        let mut cell = self.buf.cell_mut(pos).expect("undone update cell exists");
        cell.elem = value;
        cell.chain.retain(|l| l.id != undone);
    }

    /// The cell's value as decided by its provenance chain: collect the
    /// *live* writers (excluding `exclude`, if given, and the creating
    /// insertion) from the chain links themselves — the links carry values
    /// and causal visibility, so this works even when the corresponding
    /// log entries have been compacted away — and run the deterministic
    /// tournament (causal visibility first, site id among concurrent
    /// maxima, in sorted id order so every site scans identically). Falls
    /// back to the cell's original element when no live update remains.
    fn chain_winner_value(&self, pos: dce_document::Position, exclude: Option<RequestId>) -> E {
        let cell = self.buf.cell(pos).expect("chained cell exists");
        let candidates: Vec<&crate::buffer::ChainLink<E>> = cell
            .chain
            .iter()
            .filter(|l| Some(l.id) != exclude)
            .filter(|l| match self.log.get(l.id) {
                Some(e) => !e.inert,
                // Pruned by compaction: settled. Invalid pruned ids are
                // remembered; everything else pruned is live-valid. (A
                // link not in the log at all is the request being
                // integrated right now — live by definition.)
                None => !self.pruned_inert.contains(&l.id),
            })
            .collect();
        Self::tournament(candidates)
            .map(|l| l.value.clone())
            .unwrap_or_else(|| cell.original.clone())
    }

    /// The deterministic update tournament over a set of chain links:
    /// causal visibility first (`saw`), site id among concurrent maxima,
    /// scanned in sorted id order so every site elects the same winner.
    fn tournament(
        mut candidates: Vec<&crate::buffer::ChainLink<E>>,
    ) -> Option<&crate::buffer::ChainLink<E>> {
        candidates.sort_by_key(|l| l.id);
        let mut best: Option<&crate::buffer::ChainLink<E>> = None;
        for l in candidates {
            best = Some(match best {
                None => l,
                Some(b) => {
                    if l.saw.contains(&b.id) {
                        l
                    } else if b.saw.contains(&l.id) {
                        b
                    } else if l.id.site > b.id.site {
                        l
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// `true` if `entry`'s dependency chain passes through `target`.
    fn depends_on(&self, entry: &LogEntry<E>, target: RequestId) -> bool {
        let mut cursor = entry.dep;
        while let Some(dep_id) = cursor {
            if dep_id == target {
                return true;
            }
            cursor = self.log.get(dep_id).and_then(|e| e.dep);
        }
        false
    }

    /// `true` if some live entry depends on `id`.
    fn has_live_dependent(&self, id: RequestId) -> bool {
        self.log.iter().any(|e| !e.inert && e.id != id && self.depends_on(e, id))
    }

    fn undo_single(&mut self, id: RequestId) -> Result<(), OtError> {
        let base_kind = self.log.get(id).ok_or(OtError::UnknownRequest(id))?.base.kind();
        match base_kind {
            dce_document::OpKind::Ins => {
                self.buf
                    .ghost_created_by(id)
                    .expect("undone insertion created a cell at this site");
                // The ghost cell still occupies its coordinate: keep the
                // entry's positional form.
                self.log.get_mut(id).expect("entry exists").make_inert_keep_form();
            }
            dce_document::OpKind::Del => {
                self.buf.withdraw_kill(id);
                self.log.get_mut(id).expect("entry exists").make_inert();
            }
            dce_document::OpKind::Up => {
                if let Some(pos) = self.buf.find_in_chain(id) {
                    self.recompute_cell_value(pos, id);
                }
                self.log.get_mut(id).expect("entry exists").make_inert();
            }
            dce_document::OpKind::Nop => {
                self.log.get_mut(id).expect("entry exists").make_inert();
            }
        }
        Ok(())
    }

    /// Builds the partition of the log for `ctx` (the remote request's
    /// generation context) from scratch — the cold path, and the oracle the
    /// kept partition is checked against. Entries before the first
    /// concurrent one are already in place; from there each context entry
    /// is hoisted left past the concurrent entries seen so far. Returns the
    /// partition and the transpositions spent: one per (concurrent,
    /// context) inversion.
    fn partition_context(&self, ctx: &Clock) -> (Partition<E>, u64) {
        let log = self.log.as_slice();
        let first = log.iter().position(|e| !ctx.contains(e.id)).unwrap_or(log.len());
        let mut p = Partition { ctx: ctx.clone(), suffix: Vec::new() };
        let (_, moves) = p
            .sift(log[first..].iter().map(|e| (e.id, e.top.clone())))
            .expect("a context entry never semantically depends on a concurrent one");
        (p, moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};

    fn doc(s: &str) -> CharDocument {
        CharDocument::from_str(s)
    }

    #[test]
    fn fig1_two_site_convergence() {
        let mut s1 = Engine::new(1, doc("efecte"));
        let mut s2 = Engine::new(2, doc("efecte"));
        let q1 = s1.generate(Op::ins(2, 'f')).unwrap();
        let q2 = s2.generate(Op::del(6, 'e')).unwrap();
        assert_eq!(s1.document().to_string(), "effecte");
        assert_eq!(s2.document().to_string(), "efect");
        s1.integrate(&q2).unwrap();
        s2.integrate(&q1).unwrap();
        assert_eq!(s1.document().to_string(), "effect");
        assert_eq!(s2.document().to_string(), "effect");
        assert!(s1.log().is_canonical());
        assert!(s2.log().is_canonical());
    }

    #[test]
    fn generate_rejects_invalid_local_op() {
        let mut s1 = Engine::new(1, doc("ab"));
        let err = s1.generate(Op::del(9, 'z')).unwrap_err();
        assert!(matches!(err, OtError::InvalidLocalOp(_)));
        // Serial number not consumed.
        assert_eq!(s1.local_seq(), 0);
        s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(s1.local_seq(), 1);
    }

    #[test]
    fn generate_checks_carried_element() {
        let mut s1 = Engine::new(1, doc("ab"));
        let err = s1.generate(Op::del(1, 'z')).unwrap_err();
        assert!(matches!(err, OtError::InvalidLocalOp(ApplyError::ElementMismatch { .. })));
        let err = s1.generate(Op::up(2, 'z', 'q')).unwrap_err();
        assert!(matches!(err, OtError::InvalidLocalOp(ApplyError::ElementMismatch { .. })));
    }

    #[test]
    fn duplicate_integration_rejected() {
        let mut s1 = Engine::new(1, doc("ab"));
        let mut s2 = Engine::new(2, doc("ab"));
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        s2.integrate(&q).unwrap();
        assert!(matches!(s2.integrate(&q), Err(IntegrateError::Duplicate(_))));
    }

    #[test]
    fn dependency_makes_request_not_ready() {
        let mut s1 = Engine::new(1, doc("ab"));
        let q_ins = s1.generate(Op::ins(1, 'x')).unwrap();
        let q_del = s1.generate(Op::del(1, 'x')).unwrap();
        assert_eq!(q_del.dep, Some(q_ins.id));

        let mut s2 = Engine::new(2, doc("ab"));
        assert!(!s2.is_ready(&q_del));
        assert!(matches!(s2.integrate(&q_del), Err(IntegrateError::NotReady { .. })));
        s2.integrate(&q_ins).unwrap();
        assert!(s2.is_ready(&q_del));
        s2.integrate(&q_del).unwrap();
        assert_eq!(s2.document().to_string(), "ab");
    }

    #[test]
    fn three_sites_converge_pairwise_orders() {
        // Fig. 5's cooperative skeleton: q0 = Ins(2,'y'), q1 = Del(2,'b'),
        // q2 = Ins(3,'x') on "abc", integrated in different orders.
        let mut adm = Engine::new(0, doc("abc"));
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q0 = adm.generate(Op::ins(2, 'y')).unwrap();
        let q1 = s1.generate(Op::del(2, 'b')).unwrap();
        let q2 = s2.generate(Op::ins(3, 'x')).unwrap();

        adm.integrate(&q2).unwrap();
        adm.integrate(&q1).unwrap();
        s1.integrate(&q2).unwrap();
        s1.integrate(&q0).unwrap();
        s2.integrate(&q1).unwrap();
        s2.integrate(&q0).unwrap();

        assert_eq!(adm.document().to_string(), s1.document().to_string());
        assert_eq!(s1.document().to_string(), s2.document().to_string());
        // Paper walkthrough reaches "ayxc" after this step.
        assert_eq!(adm.document().to_string(), "ayxc");
    }

    #[test]
    fn inert_integration_has_no_effect_but_resolves() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q = s1.generate(Op::del(1, 'a')).unwrap();
        s2.integrate_inert(&q).unwrap();
        assert_eq!(s2.document().to_string(), "abc");
        assert!(s2.has_seen(q.id));
        assert!(s2.log().get(q.id).unwrap().inert);
    }

    #[test]
    fn request_depending_on_inert_ancestor_is_inert() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q_ins = s1.generate(Op::ins(1, 'x')).unwrap();
        let q_up = s1.generate(Op::up(1, 'x', 'z')).unwrap();
        s2.integrate_inert(&q_ins).unwrap();
        let out = s2.integrate(&q_up).unwrap();
        assert_eq!(out, Integration::Inert);
        assert_eq!(s2.document().to_string(), "abc");
    }

    #[test]
    fn undo_insertion_restores_state() {
        let mut s1 = Engine::new(1, doc("abc"));
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(s1.document().to_string(), "xabc");
        let undone = s1.undo(q.id).unwrap();
        assert_eq!(undone, vec![q.id]);
        assert_eq!(s1.document().to_string(), "abc");
        assert!(s1.log().get(q.id).unwrap().inert);
        assert!(matches!(s1.undo(q.id), Err(OtError::AlreadyInert(_))));
    }

    #[test]
    fn undo_deletion_restores_element_and_provenance() {
        let mut s1 = Engine::new(1, doc("abc"));
        let q = s1.generate(Op::del(2, 'b')).unwrap();
        assert_eq!(s1.document().to_string(), "ac");
        s1.undo(q.id).unwrap();
        assert_eq!(s1.document().to_string(), "abc");
        // The restored element is a D0 element again: operating on it must
        // produce a request with no dependency.
        let q2 = s1.generate(Op::del(2, 'b')).unwrap();
        assert_eq!(q2.dep, None);
    }

    #[test]
    fn undo_one_of_two_concurrent_deletions_keeps_element_dead() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q1 = s1.generate(Op::del(2, 'b')).unwrap();
        let q2 = s2.generate(Op::del(2, 'b')).unwrap();
        s1.integrate(&q2).unwrap();
        s2.integrate(&q1).unwrap();
        assert_eq!(s1.document().to_string(), "ac");
        // Undoing only q1 leaves q2's deletion in force.
        s1.undo(q1.id).unwrap();
        s2.undo(q1.id).unwrap();
        assert_eq!(s1.document().to_string(), "ac");
        assert_eq!(s2.document().to_string(), "ac");
        // Undoing q2 as well revives the element.
        s1.undo(q2.id).unwrap();
        s2.undo(q2.id).unwrap();
        assert_eq!(s1.document().to_string(), "abc");
        assert_eq!(s2.document().to_string(), "abc");
    }

    #[test]
    fn undo_with_interleaved_requests_preserves_others() {
        let mut s1 = Engine::new(1, doc("abc"));
        let q_x = s1.generate(Op::ins(1, 'x')).unwrap(); // "xabc"
        let _q_y = s1.generate(Op::ins(5, 'y')).unwrap(); // "xabcy"
        let _q_d = s1.generate(Op::del(3, 'b')).unwrap(); // "xacy"
        assert_eq!(s1.document().to_string(), "xacy");
        s1.undo(q_x.id).unwrap();
        assert_eq!(s1.document().to_string(), "acy");
    }

    #[test]
    fn undo_cascades_to_dependents() {
        let mut s1 = Engine::new(1, doc("abc"));
        let q_ins = s1.generate(Op::ins(1, 'x')).unwrap();
        let q_up = s1.generate(Op::up(1, 'x', 'z')).unwrap();
        assert_eq!(s1.document().to_string(), "zabc");
        let undone = s1.undo(q_ins.id).unwrap();
        assert_eq!(undone, vec![q_up.id, q_ins.id]);
        assert_eq!(s1.document().to_string(), "abc");
        assert!(s1.log().get(q_up.id).unwrap().inert);
    }

    #[test]
    fn undo_unknown_request_errors() {
        let mut s1 = Engine::<Char>::new(1, doc("abc"));
        assert!(matches!(s1.undo(RequestId::new(9, 9)), Err(OtError::UnknownRequest(_))));
    }

    #[test]
    fn remote_sites_converge_after_symmetric_undo() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q = s1.generate(Op::ins(2, 'x')).unwrap();
        s2.integrate(&q).unwrap();
        let q2 = s2.generate(Op::del(4, 'c')).unwrap();
        s1.integrate(&q2).unwrap();
        assert_eq!(s1.document().to_string(), s2.document().to_string());
        s1.undo(q.id).unwrap();
        s2.undo(q.id).unwrap();
        assert_eq!(s1.document().to_string(), "ab");
        assert_eq!(s2.document().to_string(), "ab");
    }

    #[test]
    fn broadcast_carries_generation_context() {
        // Local log: Ins(1,'x') then Del of the initial 'b'.
        let mut s1 = Engine::new(1, doc("abc"));
        let q_ins = s1.generate(Op::ins(1, 'x')).unwrap(); // "xabc"
        assert_eq!(q_ins.ctx.total(), 0);
        let q = s1.generate(Op::del(3, 'b')).unwrap(); // deletes D0 'b'
                                                       // The broadcast form is the executed form ("xabc": position 3)
                                                       // together with the context that gives it meaning.
        assert_eq!(q.top.op, Op::del(3, 'b'));
        assert_eq!(q.dep, None);
        assert!(q.ctx.contains(q_ins.id));
        assert_eq!(q.ctx.total(), 1);
    }

    #[test]
    fn metrics_count_transformation_work() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        assert_eq!(s1.metrics(), EngineMetrics::default());
        // One deletion then a local insertion: canonize bubbles once.
        s1.generate(Op::del(1, 'a')).unwrap();
        s1.generate(Op::ins(1, 'x')).unwrap();
        assert_eq!(s1.metrics().canonize_transposes, 1);
        // Remote integration folds over the two live entries.
        let q = s2.generate(Op::ins(3, 'q')).unwrap();
        s1.integrate(&q).unwrap();
        assert_eq!(s1.metrics().integrated, 1);
        assert_eq!(s1.metrics().includes, 2);
        // Undo counts.
        let target = s1.log().iter().next().unwrap().id;
        s1.undo(target).unwrap();
        assert_eq!(s1.metrics().undone, 1);
    }

    #[test]
    fn update_dependency_chain_tracks_element_history() {
        let mut s1 = Engine::new(1, doc("abc"));
        let q_ins = s1.generate(Op::ins(2, 'x')).unwrap();
        let q_up1 = s1.generate(Op::up(2, 'x', 'y')).unwrap();
        let q_up2 = s1.generate(Op::up(2, 'y', 'z')).unwrap();
        assert_eq!(q_up1.dep, Some(q_ins.id));
        assert_eq!(q_up2.dep, Some(q_up1.id));
        let chain = s1.log().chain_of(q_up2.dep).unwrap();
        assert_eq!(chain, vec![q_ins.id, q_up1.id]);
    }

    #[test]
    fn chain_collapse_bounds_update_provenance() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        // A long ping-pong of updates to one cell: the chain (and each
        // link's saw set) grows with every write.
        for i in 0..8u8 {
            let (from, to) = if i % 2 == 0 { (&mut s1, &mut s2) } else { (&mut s2, &mut s1) };
            let cur = from.document().get(2).copied().unwrap();
            let q = from.generate(Op::up(2, cur, (b'a' + i) as char)).unwrap();
            to.integrate(&q).unwrap();
        }
        let chain_len = |e: &Engine<Char>| e.buffer().cell(2).unwrap().chain.len();
        let saw_total = |e: &Engine<Char>| {
            e.buffer().cell(2).unwrap().chain.iter().map(|l| l.saw.len()).sum::<usize>()
        };
        assert_eq!(chain_len(&s1), 8);
        assert!(saw_total(&s1) > 8, "saw sets accumulate predecessors");

        // Everything is delivered everywhere: the full clock is a valid
        // horizon, and the whole chain collapses to its winner.
        let horizon = s1.clock().clone();
        let plain = s1.clone();
        let dropped = s1.prune_chains(&horizon);
        assert_eq!(dropped, 7);
        assert_eq!(chain_len(&s1), 1);
        assert_eq!(saw_total(&s1), 0, "the kept winner's saw set is cleared");
        assert_eq!(s1.document(), plain.document());

        // The collapsed and uncollapsed replicas keep resolving update
        // conflicts identically: a fresh concurrent pair lands on both...
        let qa = s1.generate(Op::up(2, s1.document().get(2).copied().unwrap(), 'X')).unwrap();
        let mut plain2 = plain.clone();
        plain2.integrate(&qa).unwrap();
        assert_eq!(s1.document(), plain2.document());
        // ...and undoing it falls back to the collapsed winner's value.
        s1.undo(qa.id).unwrap();
        plain2.undo(qa.id).unwrap();
        assert_eq!(s1.document(), plain2.document());
        assert_eq!(s1.document().to_string(), plain.document().to_string());
    }

    #[test]
    fn a_concurrent_link_above_the_horizon_blocks_the_collapse() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        let q1 = s1.generate(Op::up(2, 'b', 'p')).unwrap();
        let horizon = s1.clock().clone();
        // s2 writes *concurrently* (it never saw q1): the site-id
        // tie-break between the two links is still in play, so the
        // stable link must survive.
        let q2 = s2.generate(Op::up(2, 'b', 'q')).unwrap();
        s1.integrate(&q2).unwrap();
        s2.integrate(&q1).unwrap();
        assert_eq!(s1.prune_chains(&horizon), 0, "a concurrent live link blocks the collapse");
        assert_eq!(s1.buffer().cell(2).unwrap().chain.len(), 2);
    }

    #[test]
    fn a_dominating_link_above_the_horizon_permits_a_partial_collapse() {
        let mut s1 = Engine::new(1, doc("abc"));
        let mut s2 = Engine::new(2, doc("abc"));
        // Four settled ping-pong updates...
        for i in 0..4u8 {
            let (from, to) = if i % 2 == 0 { (&mut s1, &mut s2) } else { (&mut s2, &mut s1) };
            let cur = from.document().get(2).copied().unwrap();
            let q = from.generate(Op::up(2, cur, (b'a' + i) as char)).unwrap();
            to.integrate(&q).unwrap();
        }
        let horizon = s1.clock().clone();
        // ...then one more write that saw all of them: it dominates every
        // stable link, so the stable run collapses to its winner even
        // though the chain itself is still hot.
        let q5 = s2.generate(Op::up(2, 'd', 'z')).unwrap();
        s1.integrate(&q5).unwrap();
        let mut plain = s1.clone();
        assert_eq!(s1.prune_chains(&horizon), 3, "four stable links collapse to one");
        assert_eq!(s1.buffer().cell(2).unwrap().chain.len(), 2);
        assert_eq!(s1.document(), plain.document());
        // Undoing the hot link falls back to the collapsed winner's value
        // on both the pruned and the unpruned replica.
        s1.undo(q5.id).unwrap();
        plain.undo(q5.id).unwrap();
        assert_eq!(s1.document(), plain.document());
    }
}
