//! Deterministic discrete-event network simulation.
//!
//! The simulator runs the transport `dce-server` runs. Every site owns a
//! [`reliable::Endpoint`](crate::reliable::Endpoint); every leg is the
//! byte string [`encode_frame`] makes of a [`Frame::Data`] packet or a
//! standalone [`Frame::Ack`], and the receiving side parses it with a
//! [`FrameDecoder`] before the endpoint or the [`Site`] sees it. Each leg
//! passes through a [`FaultPlan`] (drops, duplication, reordering,
//! scheduled partitions); lost data is retransmitted on timers, so a
//! chaotic run still delivers everything exactly once, in per-sender
//! order, to every surviving site. Sites can additionally
//! [`crash`](SimNet::crash_site) and later
//! [rejoin from a snapshot](SimNet::rejoin); a newcomer
//! [`join`](SimNet::join)s from a snapshot too.
//!
//! The [`check_converged`](SimNet::check_converged) oracle compares
//! document buffers, policy copies, administrative logs and request flags
//! across all live sites and reports the *first* divergence it finds —
//! paired with the run's seed, a failing chaos schedule is exactly
//! replayable.

use crate::fault::{FaultPlan, FaultStats, LegFate};
use crate::frame::{encode_frame, Frame, FrameDecoder};
use crate::reliable::{Endpoint, ReliableConfig};
use crate::wire::WireElement;
use bytes::Bytes;
use dce_core::{CoopRequest, CoreError, Message, Site};
use dce_document::{Document, Element, Op};
use dce_obs::{EventKind, ObsHandle};
use dce_policy::{Action, AdminOp, AdminRequest, Policy, Right, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Message latency model (milliseconds of simulated time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Every message takes exactly this long.
    Fixed(u64),
    /// Uniformly random in `[min, max]` — different messages overtake each
    /// other, which is exactly the out-of-order delivery §4 worries about.
    Uniform(u64, u64),
}

impl Latency {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            Latency::Fixed(ms) => *ms,
            Latency::Uniform(lo, hi) => rng.gen_range(*lo..=*hi),
        }
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered so far.
    pub delivered: u64,
    /// Payload legs put on the wire so far (one count per destination,
    /// including duplicated copies, retransmissions, and legs lost to
    /// faults).
    pub sent: u64,
    /// Simulated milliseconds elapsed.
    pub now: u64,
}

/// The always-on conservation ledger: per-destination counts of what
/// happened to every **payload** leg (the `Data` frames; acks and timers
/// are control traffic and excluded). At
/// quiescence every leg put on the wire toward a destination must be
/// accounted for exactly once:
///
/// ```text
/// sent == delivered + dropped + partitioned + dead + suppressed + held
/// ```
///
/// with `held == 0` for every active site (an out-of-order packet still
/// parked at quiescence means the gap before it will never fill).
/// [`SimNet::assert_ledger_conserved`] checks this, seed-replayably.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetLedger {
    /// Payload legs put on the wire toward each destination (duplicated
    /// copies and retransmissions each count).
    pub sent: Vec<u64>,
    /// Messages actually handed to each site's protocol layer.
    pub delivered: Vec<u64>,
    /// Legs lost to the random drop draw.
    pub dropped: Vec<u64>,
    /// Legs lost to partition windows.
    pub partitioned: Vec<u64>,
    /// Legs that arrived at a crashed or departed site and evaporated.
    pub dead: Vec<u64>,
    /// Legs the session layer swallowed: duplicates of delivered data,
    /// concurrent copies of held data, and held packets discarded when a
    /// stream moved to a newer epoch.
    pub suppressed: Vec<u64>,
    /// Legs currently parked out-of-order in a hold queue (a flow
    /// balance, not a total: released packets move to `delivered`).
    pub held: Vec<u64>,
}

impl NetLedger {
    fn with_sites(n: usize) -> Self {
        NetLedger {
            sent: vec![0; n],
            delivered: vec![0; n],
            dropped: vec![0; n],
            partitioned: vec![0; n],
            dead: vec![0; n],
            suppressed: vec![0; n],
            held: vec![0; n],
        }
    }

    fn grow(&mut self) {
        self.sent.push(0);
        self.delivered.push(0);
        self.dropped.push(0);
        self.partitioned.push(0);
        self.dead.push(0);
        self.suppressed.push(0);
        self.held.push(0);
    }
}

/// What travels on one scheduled wire event.
#[derive(Debug)]
enum Wire {
    /// One encoded frame on its way to the event's destination: a data
    /// packet or a standalone cumulative ack (data and heartbeats
    /// piggyback acks too; the standalone ack lets a one-directional flow
    /// complete). Duplicate copies share the bytes.
    Leg(Bytes),
    /// `src`'s retransmission timer.
    Retry { src: usize },
}

/// The simulated broadcast network over a group of [`Site`]s.
pub struct SimNet<E: Element> {
    sites: Vec<Site<E>>,
    /// `false` once a site has left the group or crashed (no deliveries).
    active: Vec<bool>,
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    payloads: HashMap<(u64, u64, usize), Wire>,
    next_seq: u64,
    rng: StdRng,
    latency: Latency,
    stats: SimStats,
    /// The chaos schedule applied to every payload leg.
    fault_plan: FaultPlan,
    fault_stats: FaultStats,
    /// Per-site session-layer endpoints, one per site ever created.
    endpoints: Vec<Endpoint<E>>,
    /// `true` while a `Wire::Retry` event is in flight for that site.
    retry_pending: Vec<bool>,
    /// Observability handle shared with every site; disabled by default.
    /// Deliberately *not* part of replicated or compared state.
    obs: ObsHandle,
    /// Per-destination payload-leg accounting (always on — plain counter
    /// bumps on paths that already branch on the fault plan).
    ledger: NetLedger,
    /// One flag per `fault_plan.partitions` entry: a `PartitionHealed`
    /// event has been emitted for that window.
    healed: Vec<bool>,
    /// Always-on compactor watermark (`None` = explicit
    /// [`SimNet::auto_compact_all`] calls only), handed to
    /// [`Site::maybe_compact`] after every delivery.
    compact_watermark: Option<usize>,
    /// Total log entries reclaimed by the always-on compactor.
    compactions_reclaimed: usize,
}

impl<E: WireElement> SimNet<E> {
    /// Builds a group of `n` sites (site 0 is the administrator) sharing
    /// `d0` and `policy`.
    pub fn group(n: u32, d0: Document<E>, policy: Policy, seed: u64, latency: Latency) -> Self {
        let sites: Vec<Site<E>> = (0..n)
            .map(|u| {
                if u == 0 {
                    Site::new_admin(0, d0.clone(), policy.clone())
                } else {
                    Site::new_user(u, 0, d0.clone(), policy.clone())
                }
            })
            .collect();
        Self::from_sites(sites, seed, latency)
    }

    /// Wraps pre-built sites (custom policies, admin id, …).
    pub fn from_sites(sites: Vec<Site<E>>, seed: u64, latency: Latency) -> Self {
        let n = sites.len();
        SimNet {
            sites,
            active: vec![true; n],
            events: BinaryHeap::new(),
            payloads: HashMap::new(),
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            latency,
            stats: SimStats::default(),
            fault_plan: FaultPlan::none(),
            fault_stats: FaultStats::default(),
            endpoints: (0..n).map(|i| Endpoint::new(i, ReliableConfig::default())).collect(),
            retry_pending: vec![false; n],
            obs: ObsHandle::default(),
            ledger: NetLedger::with_sites(n),
            healed: Vec::new(),
            compact_watermark: None,
            compactions_reclaimed: 0,
        }
    }

    /// Arms the always-on stability-horizon compactor: after every
    /// delivery the destination runs [`Site::maybe_compact`] at
    /// `watermark` — the trigger every `dce_core::Engine` shard runs at
    /// `COMPACT_WATERMARK`, so chaos suites exercise the compactor the
    /// deployed engine runs.
    pub fn enable_compaction(&mut self, watermark: usize) {
        self.compact_watermark = Some(watermark.max(1));
    }

    /// Log entries reclaimed by the always-on compactor so far.
    pub fn compactions_reclaimed(&self) -> usize {
        self.compactions_reclaimed
    }

    /// Shares `obs` with the network and every site: sites emit protocol
    /// events (generation, scheduling, execution, undo), the network adds
    /// transport events (retransmissions, dropped/duplicated legs,
    /// partition heals, crashes, rejoins). Sites added later inherit the
    /// handle. The simulation clock becomes the handle's time source, so
    /// every event is stamped with the simulated-net millisecond it
    /// happened at.
    pub fn enable_observability(&mut self, obs: ObsHandle) {
        obs.use_sim_time();
        obs.set_now(self.stats.now);
        for site in &mut self.sites {
            site.set_observability(obs.clone());
        }
        self.obs = obs;
    }

    /// The observability handle installed by
    /// [`SimNet::enable_observability`] (disabled by default).
    pub fn observability(&self) -> &ObsHandle {
        &self.obs
    }

    /// The per-destination payload conservation ledger.
    pub fn ledger(&self) -> &NetLedger {
        &self.ledger
    }

    /// Installs a chaos schedule: every subsequent leg samples its fate
    /// (drop / duplicate / reorder / partition) from `plan`. The session
    /// layer repairs drops and partitions and suppresses duplicates.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.healed = vec![false; plan.partitions.len()];
        self.fault_plan = plan;
    }

    /// The active chaos schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Counters of injected faults and session-layer repairs.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Current simulated time (ms).
    pub fn now(&self) -> u64 {
        self.stats.now
    }

    /// Delivery statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Number of sites ever created (including departed ones).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when the group is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Immutable access to a site.
    pub fn site(&self, idx: usize) -> &Site<E> {
        &self.sites[idx]
    }

    /// Mutable access to a site (inspection or direct manipulation in
    /// tests).
    pub fn site_mut(&mut self, idx: usize) -> &mut Site<E> {
        &mut self.sites[idx]
    }

    /// `true` while site `idx` participates in deliveries.
    pub fn is_active(&self, idx: usize) -> bool {
        self.active.get(idx).copied().unwrap_or(false)
    }

    /// Schedules a wire event for `dest` at absolute time `at`.
    fn schedule(&mut self, dest: usize, at: u64, wire: Wire) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse((at, seq, dest)));
        self.payloads.insert((at, seq, dest), wire);
    }

    /// Puts one frame on the wire toward `dest`, letting the fault plan
    /// decide its fate. A leg that survives is encoded once; every copy
    /// carries the same bytes.
    fn transmit(&mut self, src: usize, dest: usize, frame: Frame<E>) {
        let is_payload = matches!(frame, Frame::Data { .. });
        match self.fault_plan.sample(src, dest, self.stats.now, &mut self.rng) {
            LegFate::Partitioned => {
                self.fault_stats.partitioned += 1;
                if is_payload {
                    self.stats.sent += 1;
                    self.ledger.sent[dest] += 1;
                    self.ledger.partitioned[dest] += 1;
                }
            }
            LegFate::Dropped => {
                self.fault_stats.dropped += 1;
                if is_payload {
                    self.stats.sent += 1;
                    self.ledger.sent[dest] += 1;
                    self.ledger.dropped[dest] += 1;
                    let kind = EventKind::LegDropped { src: src as u32, dest: dest as u32 };
                    self.obs.emit(src as u32, 0, kind);
                }
            }
            LegFate::Delivered { copies, extra_delay } => {
                if copies > 1 {
                    self.fault_stats.duplicated += u64::from(copies - 1);
                    if is_payload {
                        let kind = EventKind::LegDuplicated { src: src as u32, dest: dest as u32 };
                        self.obs.emit(src as u32, 0, kind);
                    }
                }
                if extra_delay > 0 {
                    self.fault_stats.reordered += 1;
                }
                let bytes = encode_frame(&frame);
                for _ in 0..copies {
                    let delay = self.latency.sample(&mut self.rng) + extra_delay;
                    let at = self.stats.now + delay;
                    self.schedule(dest, at, Wire::Leg(bytes.clone()));
                    if is_payload {
                        self.stats.sent += 1;
                        self.ledger.sent[dest] += 1;
                    }
                }
            }
        }
    }

    /// Ensures a retransmission-timer event is pending for `src`'s
    /// earliest stream deadline. Timer events are local to the site: they
    /// bypass latency and the fault plan.
    fn schedule_retry(&mut self, src: usize) {
        if self.retry_pending[src] {
            return;
        }
        if let Some(d) = self.endpoints[src].next_deadline() {
            let at = d.max(self.stats.now);
            self.schedule(src, at, Wire::Retry { src });
            self.retry_pending[src] = true;
        }
    }

    /// Sends `msg` from `from` to one destination through the session
    /// layer. Takes the shared allocation — every send buffer entry of one
    /// broadcast holds the same `Arc`.
    fn unicast(&mut self, from: usize, dest: usize, msg: Arc<Message<E>>) {
        let pkt = self.endpoints[from].send(dest, msg, self.stats.now);
        if self.active[dest] {
            self.transmit(from, dest, Frame::from_packet(self.sites[from].doc(), pkt));
            self.schedule_retry(from);
        } else {
            // Buffered for a possible rejoin; no timer while the
            // destination cannot make progress.
            self.endpoints[from].pause_stream_to(dest);
        }
    }

    /// Broadcasts `msg`: allocates the shared payload once and fans the
    /// `Arc` out to every peer's send buffer.
    fn broadcast(&mut self, from: usize, msg: Message<E>) {
        self.broadcast_shared(from, Arc::new(msg));
    }

    fn broadcast_shared(&mut self, from: usize, msg: Arc<Message<E>>) {
        for dest in 0..self.sites.len() {
            if dest == from {
                continue;
            }
            self.unicast(from, dest, Arc::clone(&msg));
        }
    }

    fn check_site(&self, site: usize) -> Result<(), CoreError> {
        if site >= self.sites.len() {
            return Err(CoreError::Protocol(format!(
                "no such site {site} (group has {})",
                self.sites.len()
            )));
        }
        if !self.active[site] {
            return Err(CoreError::Protocol(format!("site {site} has left the group")));
        }
        Ok(())
    }

    /// A user edits their replica: `Check_Local`, local execution, and
    /// broadcast of the resulting request.
    pub fn submit_coop(&mut self, site: usize, op: Op<E>) -> Result<CoopRequest<E>, CoreError> {
        self.check_site(site)?;
        let q = self.sites[site].generate(op)?;
        self.broadcast(site, Message::Coop(q.clone()));
        Ok(q)
    }

    /// The administrator issues an administrative operation.
    pub fn submit_admin(&mut self, site: usize, op: AdminOp) -> Result<AdminRequest, CoreError> {
        self.check_site(site)?;
        let r = self.sites[site].admin_generate(op)?;
        self.broadcast(site, Message::Admin(r.clone()));
        Ok(r)
    }

    /// A delegate proposes an administrative operation; the proposal is
    /// routed to the administrator (site 0 by convention in `group`), who
    /// sequences and broadcasts it if the delegation checks out.
    pub fn submit_proposal(
        &mut self,
        site: usize,
        admin_site: usize,
        op: AdminOp,
    ) -> Result<(), CoreError> {
        self.check_site(site)?;
        self.check_site(admin_site)?;
        let p = self.sites[site].propose_admin(op)?;
        self.unicast(site, admin_site, Arc::new(Message::Proposal(p)));
        Ok(())
    }

    /// A new user joins: bootstraps from a binary snapshot of `donor`'s
    /// replica (document, logs, policy), and the administrator registers
    /// them. Returns the new site index.
    ///
    /// Admission control: joining means *reading* the whole document, so
    /// the newcomer must hold the read right under the policy as it will
    /// stand once they are registered (the paper keeps dynamic read-right
    /// changes out of scope but the static check belongs to membership).
    pub fn join(&mut self, user: UserId, donor: usize) -> Result<usize, CoreError> {
        self.check_site(donor)?;
        let mut prospective = self.sites[0].policy().clone();
        prospective.add_user(user);
        let read = Action::new(Right::Read, None);
        let decision = prospective.check(user, &read);
        if !decision.granted() {
            return Err(CoreError::AccessDenied { user, action: read, decision });
        }
        let site = self.transfer(donor, user)?;
        self.push_site(site);
        let idx = self.sites.len() - 1;
        // Register the newcomer (idempotent if already present).
        if !self.sites[0].policy().has_user(user) {
            self.submit_admin(0, AdminOp::AddUser(user))?;
        }
        Ok(idx)
    }

    /// Rebuilds `donor`'s replica for `user` through the snapshot codec.
    fn transfer(&self, donor: usize, user: UserId) -> Result<Site<E>, CoreError> {
        let admin_id = self.sites[0].user();
        crate::snapshot::transfer(&self.sites[donor], user, admin_id)
            .map_err(|e| CoreError::Protocol(format!("snapshot transfer failed: {e}")))
    }

    /// Appends a site plus its per-site bookkeeping (active flag, session
    /// endpoint, retry slot).
    fn push_site(&mut self, mut site: Site<E>) {
        site.set_observability(self.obs.clone());
        self.sites.push(site);
        self.active.push(true);
        self.retry_pending.push(false);
        self.ledger.grow();
        self.endpoints.push(Endpoint::new(self.sites.len() - 1, ReliableConfig::default()));
    }

    /// A site leaves the group: no further messages are delivered to it.
    /// (Its already-broadcast requests remain in flight, as on a real P2P
    /// network.) Returns `false` for an unknown site index.
    pub fn leave(&mut self, idx: usize) -> bool {
        if idx >= self.sites.len() {
            return false;
        }
        self.active[idx] = false;
        self.pause_streams_to(idx);
        true
    }

    /// Crashes a site: the process is gone — no further deliveries, no
    /// local state. Messages the site handed to its session layer before
    /// dying stay in the per-peer send buffers and keep being
    /// retransmitted (the network does not forget them), and acks
    /// addressed to the dead site still settle those buffers. Rejoin with
    /// [`SimNet::rejoin`].
    pub fn crash_site(&mut self, idx: usize) -> Result<(), CoreError> {
        self.check_site(idx)?;
        self.active[idx] = false;
        self.fault_stats.crashes += 1;
        self.pause_streams_to(idx);
        self.obs.emit(idx as u32, 0, EventKind::SiteCrashed { site: idx as u32 });
        Ok(())
    }

    /// Stops every peer's retransmission timer toward `idx` (outstanding
    /// data stays buffered).
    fn pause_streams_to(&mut self, idx: usize) {
        for (i, ep) in self.endpoints.iter_mut().enumerate() {
            if i != idx {
                ep.pause_stream_to(idx);
            }
        }
    }

    /// Every active site broadcasts a heartbeat (GC gossip round).
    pub fn gossip_heartbeats(&mut self) {
        for i in 0..self.sites.len() {
            if self.active[i] {
                let hb = self.sites[i].make_heartbeat();
                self.broadcast(i, hb);
            }
        }
    }

    /// Runs `auto_compact` on every active site, returning the total
    /// number of log entries reclaimed group-wide.
    pub fn auto_compact_all(&mut self) -> usize {
        let mut total = 0;
        for i in 0..self.sites.len() {
            if self.active[i] {
                total += self.sites[i].auto_compact();
            }
        }
        total
    }

    /// Hands one decoded message to a live site and broadcasts whatever
    /// the site emits in response.
    fn deliver(&mut self, dest: usize, msg: Arc<Message<E>>) {
        // Freshly decoded, so normally the only reference: no deep copy.
        let msg = Arc::unwrap_or_clone(msg);
        let heartbeat = matches!(msg, Message::Heartbeat { .. });
        self.sites[dest].receive(msg).expect("protocol errors are bugs in the simulation");
        self.stats.delivered += 1;
        self.ledger.delivered[dest] += 1;
        for out in self.sites[dest].drain_outbox() {
            self.broadcast(dest, out);
        }
        if let Some(wm) = self.compact_watermark {
            self.compactions_reclaimed +=
                self.sites[dest].maybe_compact(wm, heartbeat).unwrap_or(0);
        }
    }

    /// Delivers the next scheduled event. Returns `false` when the
    /// network is quiet.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((at, seq, dest))) = self.events.pop() else {
            return false;
        };
        let wire = self.payloads.remove(&(at, seq, dest)).expect("payload stored");
        self.stats.now = self.stats.now.max(at);
        let now = self.stats.now;
        self.obs.set_now(now);
        self.note_healed_partitions();
        match wire {
            Wire::Leg(bytes) => self.receive_leg(dest, &bytes, now),
            Wire::Retry { src } => {
                self.retry_pending[src] = false;
                let doc = self.sites[src].doc();
                for (peer, pkt) in self.endpoints[src].due_retransmissions(now) {
                    if self.active[peer] {
                        self.fault_stats.retransmitted += 1;
                        let kind = EventKind::StreamRetransmit {
                            src: src as u32,
                            dest: peer as u32,
                            stream_seq: pkt.seq,
                            req: pkt.msg.coop_req_id(),
                        };
                        self.obs.emit(src as u32, 0, kind);
                        self.transmit(src, peer, Frame::from_packet(doc, pkt));
                    }
                }
                self.schedule_retry(src);
            }
        }
        true
    }

    /// Parses one leg at `dest` and hands it to the session layer: a data
    /// packet's piggybacked ack, then the packet itself (answered with a
    /// standalone ack), or a standalone ack.
    fn receive_leg(&mut self, dest: usize, bytes: &[u8], now: u64) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(bytes);
        let frame =
            decoder.next::<E>().expect("every leg decodes").expect("every leg is one whole frame");
        match frame {
            Frame::Data { src, epoch, seq, ack_epoch, ack, msg, .. } => {
                let src = src as usize;
                // The piggybacked ack settles `dest`'s send buffer toward
                // `src` even when `dest` is down: a ghost endpoint's
                // outbox drains so the run can quiesce.
                self.endpoints[dest].on_ack(src, ack_epoch, ack, now);
                if !self.active[dest] {
                    self.ledger.dead[dest] += 1;
                    return;
                }
                let out = self.endpoints[dest].on_data(src, epoch, seq, msg);
                // Ledger: a newer epoch voids held packets; the leg itself
                // is suppressed, parked, or delivered (releasing `len - 1`
                // held ones).
                self.ledger.held[dest] -= out.discarded;
                self.ledger.suppressed[dest] += out.discarded;
                if out.duplicate || out.displaced {
                    self.ledger.suppressed[dest] += 1;
                } else if out.deliverable.is_empty() {
                    self.ledger.held[dest] += 1;
                } else {
                    self.ledger.held[dest] -= out.deliverable.len() as u64 - 1;
                }
                for m in out.deliverable {
                    self.deliver(dest, m);
                }
                let (epoch, cum) = self.endpoints[dest].ack_for(src);
                let doc = self.sites[dest].doc();
                self.transmit(dest, src, Frame::Ack { doc, from: dest as u32, epoch, cum });
            }
            Frame::Ack { from, epoch, cum, .. } => {
                self.endpoints[dest].on_ack(from as usize, epoch, cum, now);
            }
            other => unreachable!("the simulator sends only data and ack frames: {other:?}"),
        }
    }

    /// Runs until no messages remain in flight.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// `true` when every active site agrees on all replicated state.
    pub fn converged(&self) -> bool {
        self.check_converged().is_ok()
    }

    /// The convergence oracle: compares document buffers, policy copies,
    /// policy versions, administrative logs and request flags pairwise
    /// across all active sites. Returns the first divergence found, as a
    /// human-readable description naming both sites.
    ///
    /// Flags are compared on the ids both sites still hold — compaction
    /// legitimately forgets settled requests at different times on
    /// different sites, so a one-sided entry is not divergence.
    pub fn check_converged(&self) -> Result<(), String> {
        let live: Vec<usize> = (0..self.sites.len()).filter(|&i| self.active[i]).collect();
        let Some((&first, rest)) = live.split_first() else {
            return Ok(());
        };
        let a = &self.sites[first];
        for &i in rest {
            let b = &self.sites[i];
            if a.document() != b.document() {
                return Err(format!(
                    "document divergence: site {first} has {:?}, site {i} has {:?}",
                    a.document(),
                    b.document()
                ));
            }
            if a.version() != b.version() {
                return Err(format!(
                    "policy version divergence: site {first} at v{}, site {i} at v{}",
                    a.version(),
                    b.version()
                ));
            }
            if a.policy() != b.policy() {
                return Err(format!(
                    "policy divergence between site {first} and site {i} (both at v{})",
                    a.version()
                ));
            }
            if a.admin_log() != b.admin_log() {
                return Err(format!(
                    "admin log divergence: site {first} holds {} entries, site {i} holds {}",
                    a.admin_log().len(),
                    b.admin_log().len()
                ));
            }
            let fa: HashMap<_, _> = a.flags().collect();
            for (id, fb) in b.flags() {
                if let Some(&f) = fa.get(&id) {
                    if f != fb {
                        return Err(format!(
                            "flag divergence on request {id:?}: site {first} says {f}, site {i} says {fb}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Panics with the first divergence and the seed that replays it. An
    /// armed flight recorder (see `dce-trace`) dumps the journal first.
    ///
    /// # Panics
    ///
    /// Panics when [`SimNet::check_converged`] reports a divergence.
    pub fn assert_converged(&self, seed: u64) {
        if let Err(why) = self.check_converged() {
            let msg = format!("sites diverged: {why}; replay with seed {seed}");
            self.obs.failure(&msg);
            panic!("{msg}");
        }
    }

    /// Emits one `PartitionHealed` event per partition window whose
    /// healing time the simulation clock has passed.
    fn note_healed_partitions(&mut self) {
        if !self.obs.enabled() || self.healed.iter().all(|&h| h) {
            return;
        }
        let now = self.stats.now;
        for (i, p) in self.fault_plan.partitions.iter().enumerate() {
            if !self.healed[i] && now >= p.until_ms {
                self.healed[i] = true;
                self.obs.emit(0, 0, EventKind::PartitionHealed { at_ms: p.until_ms });
            }
        }
    }

    /// The ledger conservation oracle: must be called at quiescence (no
    /// events in flight). Per destination,
    /// `sent == delivered + dropped + partitioned + dead + suppressed +
    /// held`, `held == 0` for every active site, and the ledger totals
    /// must agree with [`SimNet::stats`]. Returns the first imbalance,
    /// naming the seed that replays it.
    pub fn check_ledger_conserved(&self, seed: u64) -> Result<(), String> {
        if !self.events.is_empty() {
            return Err(format!(
                "ledger checked before quiescence ({} events in flight); replay with seed {seed}",
                self.events.len()
            ));
        }
        let l = &self.ledger;
        for dest in 0..self.sites.len() {
            let accounted = l.delivered[dest]
                + l.dropped[dest]
                + l.partitioned[dest]
                + l.dead[dest]
                + l.suppressed[dest]
                + l.held[dest];
            if l.sent[dest] != accounted {
                return Err(format!(
                    "payload ledger imbalance toward site {dest}: sent {} vs delivered {} + \
                     dropped {} + partitioned {} + dead {} + suppressed {} + held {}; \
                     replay with seed {seed}",
                    l.sent[dest],
                    l.delivered[dest],
                    l.dropped[dest],
                    l.partitioned[dest],
                    l.dead[dest],
                    l.suppressed[dest],
                    l.held[dest]
                ));
            }
            if self.active[dest] && l.held[dest] != 0 {
                return Err(format!(
                    "site {dest} still holds {} out-of-order packets at quiescence; \
                     replay with seed {seed}",
                    l.held[dest]
                ));
            }
        }
        if l.sent.iter().sum::<u64>() != self.stats.sent {
            return Err(format!(
                "ledger sent total disagrees with SimStats; replay with seed {seed}"
            ));
        }
        if l.delivered.iter().sum::<u64>() != self.stats.delivered {
            return Err(format!(
                "ledger delivered total disagrees with SimStats; replay with seed {seed}"
            ));
        }
        Ok(())
    }

    /// Panics unless the payload ledger balances (see
    /// [`SimNet::check_ledger_conserved`]). An armed flight recorder
    /// dumps the journal first.
    ///
    /// # Panics
    ///
    /// Panics on any imbalance, or when called with events still queued.
    pub fn assert_ledger_conserved(&self, seed: u64) {
        if let Err(why) = self.check_ledger_conserved(seed) {
            self.obs.failure(&why);
            panic!("{why}");
        }
    }

    /// Brings a crashed site back under its original identity, bootstrapped
    /// from a binary snapshot of `donor`'s replica.
    ///
    /// Session-layer recovery:
    /// * every peer restarts its stream toward the rebuilt site — the data
    ///   buffered while it was down is renumbered from 1 and resent
    ///   immediately (the snapshot covers whatever was acknowledged before
    ///   the crash; the dedup guards absorb any overlap);
    /// * messages the crashed site itself broadcast before dying and that
    ///   are still unacknowledged are replayed: into the rebuilt replica
    ///   (so its engine clock moves past its own pre-crash requests and
    ///   fresh edits cannot reuse a request id) and to every peer;
    /// * the rebuilt site starts with a fresh endpoint, and peers forget
    ///   their receive state for it, so both directions renumber cleanly.
    pub fn rejoin(&mut self, idx: usize, donor: usize) -> Result<(), CoreError> {
        self.check_site(donor)?;
        if idx >= self.sites.len() {
            return Err(CoreError::Protocol(format!("no such site {idx}")));
        }
        if self.active[idx] {
            return Err(CoreError::Protocol(format!("site {idx} has not crashed")));
        }
        self.sites[idx] = self.transfer(donor, self.sites[idx].user())?;
        self.sites[idx].set_observability(self.obs.clone());
        self.active[idx] = true;
        self.obs.emit(idx as u32, 0, EventKind::SiteRejoined { site: idx as u32 });

        let ghost_backlog = self.endpoints[idx].unacked_messages();
        // A fresh `Endpoint::new` would restart every epoch at 0 and
        // collide with stale pre-crash traffic still in flight;
        // `reset_after_rejoin` bumps the epochs past it instead. Held
        // packets thrown away with the receiver state move from `held` to
        // `suppressed` in the ledger.
        let discarded = self.endpoints[idx].reset_after_rejoin();
        self.ledger.held[idx] -= discarded;
        self.ledger.suppressed[idx] += discarded;
        let now = self.stats.now;
        for (i, ep) in self.endpoints.iter_mut().enumerate() {
            if i != idx {
                ep.restart_stream_to(idx, now);
                let discarded = ep.reset_rx_from(idx);
                self.ledger.held[i] -= discarded;
                self.ledger.suppressed[i] += discarded;
            }
        }
        for i in 0..self.sites.len() {
            if i != idx && self.active[i] {
                self.schedule_retry(i);
            }
        }
        for msg in ghost_backlog {
            // A local replay into the site's own replica, not a network
            // leg; the re-broadcast below travels as frames like any send.
            self.sites[idx]
                .receive((*msg).clone())
                .expect("replaying own pre-crash traffic is safe");
            for out in self.sites[idx].drain_outbox() {
                self.broadcast(idx, out);
            }
            // Re-broadcast the surviving allocation itself.
            self.broadcast_shared(idx, msg);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_core::Flag;
    use dce_document::{Char, CharDocument};
    use dce_policy::{Authorization, DocObject, Sign, Subject};

    fn net(n: u32, s: &str, seed: u64, lat: Latency) -> SimNet<Char> {
        let users: Vec<u32> = (0..n).collect();
        SimNet::group(n, CharDocument::from_str(s), Policy::permissive(users), seed, lat)
    }

    #[test]
    fn concurrent_edits_converge_under_random_latency() {
        for seed in 0..20 {
            let mut sim = net(4, "abcdef", seed, Latency::Uniform(1, 200));
            sim.submit_coop(1, Op::ins(2, 'x')).unwrap();
            sim.submit_coop(2, Op::del(4, 'd')).unwrap();
            sim.submit_coop(3, Op::up(1, 'a', 'A')).unwrap();
            sim.submit_coop(0, Op::ins(7, 'z')).unwrap();
            sim.run_to_quiescence();
            assert!(sim.converged(), "seed {seed}");
            assert!(sim.stats().delivered > 0);
        }
    }

    #[test]
    fn fixed_latency_is_deterministic() {
        let run = |seed| {
            let mut sim = net(3, "abc", seed, Latency::Fixed(10));
            sim.submit_coop(1, Op::ins(1, 'p')).unwrap();
            sim.submit_coop(2, Op::ins(1, 'q')).unwrap();
            sim.run_to_quiescence();
            sim.site(0).document().to_string()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn revocation_race_plays_out_over_the_network() {
        let mut sim = net(3, "abc", 11, Latency::Uniform(1, 100));
        sim.submit_admin(
            0,
            AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::new(
                    Subject::User(1),
                    DocObject::Document,
                    [Right::Insert],
                    Sign::Minus,
                ),
            },
        )
        .unwrap();
        let q = sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        assert!(sim.converged());
        assert_eq!(sim.site(0).document().to_string(), "abc");
        assert_eq!(sim.site(1).flag_of(q.ot.id), Some(Flag::Invalid));
    }

    #[test]
    fn join_replicates_state_and_participates() {
        let mut sim = net(2, "abc", 3, Latency::Fixed(5));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        let idx = sim.join(7, 1).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.site(idx).document().to_string(), "xabc");
        // The newcomer can edit.
        sim.submit_coop(idx, Op::ins(5, 'w')).unwrap();
        sim.run_to_quiescence();
        assert!(sim.converged());
        assert_eq!(sim.site(0).document().to_string(), "xabcw");
    }

    #[test]
    fn leave_stops_deliveries_without_breaking_others() {
        let mut sim = net(3, "abc", 5, Latency::Fixed(5));
        sim.leave(2);
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.site(0).document().to_string(), "xabc");
        // The departed site never saw the edit.
        assert_eq!(sim.site(2).document().to_string(), "abc");
        assert!(sim.converged(), "departed sites are excluded from convergence");
    }

    #[test]
    fn join_requires_the_read_right() {
        use dce_policy::{Authorization, Sign, Subject};
        // A policy that grants writes but not reads to newcomers.
        let mut p = Policy::new();
        for u in [0u32, 1] {
            p.add_user(u);
        }
        p.add_auth_at(
            0,
            Authorization::new(
                Subject::Users([0, 1].into_iter().collect()),
                DocObject::Document,
                Right::ALL,
                Sign::Plus,
            ),
        )
        .unwrap();
        let mut sim: SimNet<Char> = SimNet::from_sites(
            vec![
                dce_core::Site::new_admin(0, CharDocument::from_str("secret"), p.clone()),
                dce_core::Site::new_user(1, 0, CharDocument::from_str("secret"), p),
            ],
            1,
            Latency::Fixed(1),
        );
        let err = sim.join(9, 0).unwrap_err();
        assert!(matches!(err, CoreError::AccessDenied { user: 9, .. }));
        assert_eq!(sim.len(), 2);
        // Grant read to all, and the join goes through.
        sim.submit_admin(
            0,
            AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::new(
                    Subject::All,
                    DocObject::Document,
                    [Right::Read],
                    Sign::Plus,
                ),
            },
        )
        .unwrap();
        sim.run_to_quiescence();
        let idx = sim.join(9, 0).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.site(idx).document().to_string(), "secret");
    }

    #[test]
    fn delegated_proposals_flow_through_the_network() {
        let mut sim = net(3, "abc", 13, Latency::Fixed(7));
        sim.submit_admin(0, AdminOp::Delegate(1)).unwrap();
        sim.run_to_quiescence();
        assert!(sim.site(1).policy().is_delegate(1));
        sim.submit_proposal(1, 0, AdminOp::AddUser(42)).unwrap();
        sim.run_to_quiescence();
        assert!(sim.converged());
        for i in 0..3 {
            assert!(sim.site(i).policy().has_user(42), "site {i}");
        }
    }

    #[test]
    fn heartbeat_gossip_enables_group_wide_compaction() {
        let mut sim = net(3, "", 61, Latency::Fixed(3));
        sim.submit_coop(1, Op::ins(1, 'a')).unwrap();
        sim.submit_coop(2, Op::ins(1, 'b')).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.auto_compact_all(), 0, "no heartbeats yet");
        sim.gossip_heartbeats();
        sim.run_to_quiescence();
        let reclaimed = sim.auto_compact_all();
        assert_eq!(reclaimed, 6, "two settled entries at each of three sites");
        // The session keeps working.
        sim.submit_coop(1, Op::ins(1, 'c')).unwrap();
        sim.run_to_quiescence();
        assert!(sim.converged());
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        let mut sim = net(3, "abc", 41, Latency::Uniform(1, 50));
        sim.set_fault_plan(FaultPlan::none().with_duplicates(0.9));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.submit_coop(2, Op::ins(4, 'y')).unwrap();
        sim.run_to_quiescence();
        assert!(sim.converged());
        assert_eq!(sim.site(0).document().to_string(), "xabcy");
        // More messages were sent than a clean run would send.
        assert!(sim.stats().sent > 8, "duplicates were injected: {:?}", sim.stats());
        assert!(sim.fault_stats().duplicated > 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = net(3, "ab", 1, Latency::Fixed(8));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        let st = sim.stats();
        // 2 destinations for the edit + 2 for the admin validation.
        assert_eq!(st.sent, 4);
        assert_eq!(st.delivered, 4);
        assert!(st.now >= 8);
        assert_eq!(sim.len(), 3);
        assert!(!sim.is_empty());
    }

    #[test]
    fn dropped_legs_are_retransmitted() {
        let mut sim = net(3, "abc", 97, Latency::Fixed(5));
        sim.set_fault_plan(FaultPlan::none().with_drops(0.5));
        for i in 0..6 {
            sim.submit_coop(1, Op::ins(1, char::from(b'a' + i))).unwrap();
        }
        sim.run_to_quiescence();
        sim.assert_converged(97);
        assert!(sim.fault_stats().dropped > 0, "the plan did fire");
        assert!(sim.fault_stats().retransmitted > 0, "losses were repaired");
        assert_eq!(sim.site(0).document().len(), 9);
    }

    #[test]
    fn partition_heals_through_retransmission() {
        let mut sim = net(4, "abc", 31, Latency::Fixed(10));
        sim.set_fault_plan(FaultPlan::none().with_partition([3], 0, 5_000));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.submit_coop(3, Op::ins(4, 'y')).unwrap();
        sim.run_to_quiescence();
        sim.assert_converged(31);
        assert!(sim.fault_stats().partitioned > 0);
        assert!(sim.now() >= 5_000, "quiescence had to outlast the partition");
        assert_eq!(sim.site(0).document().to_string(), "xabcy");
    }

    #[test]
    fn crash_and_snapshot_rejoin_catches_up() {
        let mut sim = net(3, "abc", 53, Latency::Fixed(5));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        sim.crash_site(2).unwrap();
        // The group keeps editing while site 2 is down.
        sim.submit_coop(0, Op::ins(1, 'y')).unwrap();
        sim.submit_coop(1, Op::del(4, 'c')).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.site(2).document().to_string(), "xabc", "dead replica is stale");
        sim.rejoin(2, 0).unwrap();
        sim.run_to_quiescence();
        sim.assert_converged(53);
        assert_eq!(sim.site(2).document().to_string(), "yxab");
        assert_eq!(sim.fault_stats().crashes, 1);
        // The rejoined site edits again without request-id collisions.
        sim.submit_coop(2, Op::ins(1, 'z')).unwrap();
        sim.run_to_quiescence();
        sim.assert_converged(53);
    }

    #[test]
    fn crashed_sites_in_flight_requests_survive_the_crash() {
        let mut sim = net(3, "abc", 71, Latency::Fixed(20));
        // Site 2 edits, then dies before anyone acknowledges.
        sim.submit_coop(2, Op::ins(1, 'q')).unwrap();
        sim.crash_site(2).unwrap();
        sim.run_to_quiescence();
        // The session layer delivered the orphan broadcast anyway.
        assert_eq!(sim.site(0).document().to_string(), "qabc");
        assert_eq!(sim.site(1).document().to_string(), "qabc");
        // And the rejoined site recovers its own pre-crash edit.
        sim.rejoin(2, 1).unwrap();
        sim.run_to_quiescence();
        sim.assert_converged(71);
        assert_eq!(sim.site(2).document().to_string(), "qabc");
    }

    #[test]
    fn ledger_balances_under_chaos() {
        let mut sim = net(3, "abc", 97, Latency::Fixed(5));
        sim.set_fault_plan(FaultPlan::none().with_drops(0.4).with_duplicates(0.3));
        for i in 0..5 {
            sim.submit_coop(1, Op::ins(1, char::from(b'a' + i))).unwrap();
        }
        sim.run_to_quiescence();
        sim.assert_converged(97);
        sim.assert_ledger_conserved(97);
        let l = sim.ledger();
        assert!(l.dropped.iter().sum::<u64>() > 0, "the plan did fire");
        assert_eq!(l.held.iter().sum::<u64>(), 0, "nothing parked at quiescence");
    }

    #[test]
    fn transport_events_reach_the_journal() {
        let obs = dce_obs::ObsHandle::recording(4096);
        let mut sim = net(3, "abc", 13, Latency::Fixed(5));
        sim.enable_observability(obs.clone());
        sim.set_fault_plan(FaultPlan::none().with_drops(0.5));
        sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
        sim.run_to_quiescence();
        sim.assert_converged(13);
        let summary = dce_obs::summarize(&obs.events());
        assert!(summary.total("leg_dropped") > 0, "drops were observed");
        assert!(summary.total("stream_retransmit") > 0, "repairs were observed");
        assert!(summary.total("req_generated") >= 1, "sites share the handle");
        assert!(summary.total("req_executed") >= 2, "peers executed the edit");
    }

    #[test]
    fn oracle_reports_document_divergence() {
        let mut sim = net(2, "abc", 3, Latency::Fixed(1));
        // Forge a divergence: a local edit that is never broadcast.
        sim.site_mut(1).generate(Op::ins(1, 'z')).unwrap();
        let err = sim.check_converged().unwrap_err();
        assert!(err.contains("document divergence"), "{err}");
        assert!(!sim.converged());
    }
}
