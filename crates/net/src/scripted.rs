//! `ScriptedNet`: the transport behind exhaustive schedule exploration.
//!
//! Where [`crate::sim`] advances a seeded discrete-event clock, a scripted
//! net does nothing on its own: every broadcast leg is parked as an
//! in-flight [`Flight`] and an external driver (`dce-check`'s explorer, a
//! regression test replaying a pinned schedule) chooses which single
//! message is delivered next — or delivered *again*, within a bounded
//! duplication budget. Each delivery round-trips through the binary wire
//! codec, so exploration exercises the same encode/decode path a
//! deployment would.
//!
//! The whole net is `Clone`: a driver forks the state at a branch point
//! instead of replaying the prefix (each site's `Clone` is a full copy,
//! reception queues included).

use crate::wire::{decode_message, encode_message, WireElement};
use dce_core::{CoopRequest, CoreError, Message, Site};
use dce_document::Op;
use dce_policy::{AdminOp, AdminRequest};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One undelivered broadcast leg.
#[derive(Debug, Clone)]
pub struct Flight<E> {
    /// Monotonic send identifier — the driver's handle for choosing this
    /// delivery. Path-dependent (it counts prior broadcasts), so it is
    /// *not* part of the state digest.
    pub id: u64,
    /// Destination site index.
    pub dest: usize,
    /// The parked message.
    pub msg: Message<E>,
    /// How many *duplicate* deliveries the driver may still schedule on
    /// top of the final one (bounded at-least-once semantics).
    pub dups_left: u8,
}

/// A deterministic, driver-scripted broadcast network over in-process
/// [`Site`]s. See the module docs.
#[derive(Debug, Clone)]
pub struct ScriptedNet<E> {
    sites: Vec<Site<E>>,
    inflight: Vec<Flight<E>>,
    next_id: u64,
    dup_budget: u8,
    deliveries: u64,
}

impl<E: WireElement> ScriptedNet<E> {
    /// Wraps already-constructed sites (index = site position, as in
    /// [`crate::sim::SimNet`]). `dup_budget` is the per-message duplicate
    /// allowance (0 = exactly-once delivery choices only).
    pub fn from_sites(sites: Vec<Site<E>>, dup_budget: u8) -> Self {
        ScriptedNet { sites, inflight: Vec::new(), next_id: 0, dup_budget, deliveries: 0 }
    }

    /// The sites, in index order.
    pub fn sites(&self) -> &[Site<E>] {
        &self.sites
    }

    /// One site by index.
    pub fn site(&self, idx: usize) -> &Site<E> {
        &self.sites[idx]
    }

    /// Mutable site access (drivers drain diagnostics through this).
    pub fn site_mut(&mut self, idx: usize) -> &mut Site<E> {
        &mut self.sites[idx]
    }

    /// The undelivered messages, in send order.
    pub fn inflight(&self) -> &[Flight<E>] {
        &self.inflight
    }

    /// `true` when no message is awaiting delivery.
    pub fn is_quiescent(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Deliveries performed so far (duplicates included).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Generates a cooperative request at `site` and parks one broadcast
    /// leg per peer. The local error (e.g. the site's own policy denies
    /// the operation) is returned untouched — nothing is broadcast.
    pub fn generate(&mut self, site: usize, op: Op<E>) -> Result<CoopRequest<E>, CoreError> {
        let q = self.sites[site].generate(op)?;
        self.broadcast(site, Message::Coop(q.clone()));
        self.flush_outbox(site);
        Ok(q)
    }

    /// Generates an administrative request at `site` (which must be the
    /// administrator) and parks its broadcast legs.
    pub fn admin_generate(&mut self, site: usize, op: AdminOp) -> Result<AdminRequest, CoreError> {
        let r = self.sites[site].admin_generate(op)?;
        self.broadcast(site, Message::Admin(r.clone()));
        self.flush_outbox(site);
        Ok(r)
    }

    /// Parks one leg per peer of `site`'s heartbeat (its current clock).
    pub fn heartbeat(&mut self, site: usize) {
        let hb = self.sites[site].make_heartbeat();
        self.broadcast(site, hb);
    }

    /// Delivers in-flight message `id` to its destination, consuming it.
    /// Messages the destination emits while receiving (the administrator's
    /// validations) are parked as new flights.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight — a driver bug, not a protocol
    /// outcome.
    pub fn deliver(&mut self, id: u64) -> Result<(), CoreError> {
        let idx =
            self.inflight.iter().position(|f| f.id == id).expect("delivered message is in flight");
        let flight = self.inflight.remove(idx);
        self.deliver_msg(flight.dest, &flight.msg)
    }

    /// Delivers a *duplicate* of in-flight message `id`, keeping the
    /// original in flight and decrementing its duplication allowance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight or its allowance is exhausted.
    pub fn deliver_duplicate(&mut self, id: u64) -> Result<(), CoreError> {
        let idx =
            self.inflight.iter().position(|f| f.id == id).expect("duplicated message is in flight");
        assert!(self.inflight[idx].dups_left > 0, "duplication budget exhausted");
        self.inflight[idx].dups_left -= 1;
        let (dest, msg) = (self.inflight[idx].dest, self.inflight[idx].msg.clone());
        self.deliver_msg(dest, &msg)
    }

    fn deliver_msg(&mut self, dest: usize, msg: &Message<E>) -> Result<(), CoreError> {
        self.deliveries += 1;
        let msg = decode_message(encode_message(msg)).expect("wire codec round-trips");
        self.sites[dest].receive(msg)?;
        self.flush_outbox(dest);
        Ok(())
    }

    fn flush_outbox(&mut self, from: usize) {
        for msg in self.sites[from].drain_outbox() {
            self.broadcast(from, msg);
        }
    }

    fn broadcast(&mut self, from: usize, msg: Message<E>) {
        for dest in 0..self.sites.len() {
            if dest == from {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.inflight.push(Flight { id, dest, msg: msg.clone(), dups_left: self.dup_budget });
        }
    }

    /// Behavioral digest of the whole network state: every site's
    /// [`Site::digest_into`] plus the in-flight *multiset* of
    /// `(destination, message, duplicates-left)`. Send identifiers and the
    /// delivery counter are excluded (they record the path, not the
    /// state), so two schedules joining on the same global state collide.
    pub fn digest(&self) -> u64
    where
        E: Hash,
    {
        let mut h = DefaultHasher::new();
        self.sites.len().hash(&mut h);
        for s in &self.sites {
            s.digest_into(&mut h);
        }
        let mut flights: Vec<(usize, u64, u8)> = self
            .inflight
            .iter()
            .map(|f| {
                let mut mh = DefaultHasher::new();
                f.msg.hash(&mut mh);
                (f.dest, mh.finish(), f.dups_left)
            })
            .collect();
        flights.sort_unstable();
        flights.hash(&mut h);
        h.finish()
    }
}
