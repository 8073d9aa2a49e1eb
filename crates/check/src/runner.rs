//! The execution substrate shared by the explorer, schedule replay and
//! shrinking: one [`ScriptedNet`] plus per-site program counters, driven
//! one [`Choice`] at a time.

use crate::oracle::Violation;
use crate::scenario::{LocalAction, Scenario};
use crate::schedule::Step;
use dce_core::{CoreError, Site};
use dce_document::{Char, CharDocument, Op};
use dce_net::ScriptedNet;
use dce_policy::UserId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One enabled transition of the global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    /// Site `site` executes its next program action.
    Gen {
        /// The acting site.
        site: usize,
    },
    /// In-flight message `id` is delivered to `dest` — consuming it, or
    /// (with `dup`) delivering an extra copy that keeps it in flight.
    Deliver {
        /// The flight's send identifier.
        id: u64,
        /// Its destination site.
        dest: usize,
        /// Duplicate delivery instead of the consuming one.
        dup: bool,
    },
}

/// Path-stable identity of a transition, used by sleep sets and visited
/// bookkeeping. Send identifiers are path-dependent (they count prior
/// broadcasts), so deliveries are keyed by *content*: destination plus
/// message hash. Two transitions with different `site` fields target
/// disjoint state (one site each, plus appends to the unordered in-flight
/// multiset): they commute and neither can disable the other — the
/// independence relation of the partial-order reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct EventKey {
    /// The one site whose state the transition reads and writes.
    pub site: usize,
    /// 0 = generate, 1 = deliver, 2 = duplicate.
    pub kind: u8,
    /// Program counter (generate) or message content hash (deliveries).
    pub payload: u64,
}

/// The explorable global state: net + program counters.
#[derive(Clone)]
pub(crate) struct Runner {
    pub scenario: Arc<Scenario>,
    pub net: ScriptedNet<Char>,
    pub pcs: Vec<usize>,
}

impl Runner {
    pub fn new(scenario: Arc<Scenario>) -> Runner {
        let d0 = CharDocument::from_str(&scenario.initial);
        let n = scenario.sites();
        let mut sites = Vec::with_capacity(n);
        sites.push(Site::new_admin(0, d0.clone(), scenario.policy.clone()));
        for i in 1..n {
            sites.push(Site::new_user(i as UserId, 0, d0.clone(), scenario.policy.clone()));
        }
        let net = ScriptedNet::from_sites(sites, scenario.max_dups);
        Runner { scenario, net, pcs: vec![0; n] }
    }

    /// Behavioral digest of the global state (sites, in-flight multiset,
    /// program counters) — the visited-set key.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.net.digest().hash(&mut h);
        self.pcs.hash(&mut h);
        h.finish()
    }

    /// `true` when nothing can happen any more: all programs finished and
    /// no message in flight.
    pub fn is_quiescent(&self) -> bool {
        self.net.is_quiescent()
            && self.pcs.iter().zip(&self.scenario.programs).all(|(pc, prog)| *pc >= prog.len())
    }

    /// Every enabled transition, in canonical order (generates by site,
    /// then consuming deliveries by send id, then duplicates by send id),
    /// with content-identical delivery choices deduplicated: delivering
    /// either of two equal copies addressed to the same site leads to the
    /// same state, so only the oldest is offered.
    pub fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (site, pc) in self.pcs.iter().enumerate() {
            if *pc < self.scenario.programs[site].len() {
                out.push(Choice::Gen { site });
            }
        }
        let mut seen = Vec::new();
        for f in self.net.inflight() {
            let key = (f.dest, hash_msg(&f.msg));
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            out.push(Choice::Deliver { id: f.id, dest: f.dest, dup: false });
        }
        let mut seen_dup = Vec::new();
        for f in self.net.inflight() {
            if f.dups_left == 0 {
                continue;
            }
            let key = (f.dest, hash_msg(&f.msg));
            if seen_dup.contains(&key) {
                continue;
            }
            seen_dup.push(key);
            out.push(Choice::Deliver { id: f.id, dest: f.dest, dup: true });
        }
        out
    }

    /// The path-stable key of an enabled choice.
    pub fn key_of(&self, c: Choice) -> EventKey {
        match c {
            Choice::Gen { site } => EventKey { site, kind: 0, payload: self.pcs[site] as u64 },
            Choice::Deliver { id, dest, dup } => {
                let f = self
                    .net
                    .inflight()
                    .iter()
                    .find(|f| f.id == id)
                    .expect("keyed choice is in flight");
                EventKey { site: dest, kind: if dup { 2 } else { 1 }, payload: hash_msg(&f.msg) }
            }
        }
    }

    /// The replayable [`Step`] form of an enabled choice: deliveries are
    /// addressed by `(dest, slot)` where `slot` counts the destination's
    /// in-flight messages in send order — stable under replay, unlike raw
    /// send identifiers.
    pub fn step_of(&self, c: Choice) -> Step {
        match c {
            Choice::Gen { site } => Step::Gen { site },
            Choice::Deliver { id, dest, dup } => {
                let slot = self
                    .net
                    .inflight()
                    .iter()
                    .filter(|f| f.dest == dest)
                    .position(|f| f.id == id)
                    .expect("stepped choice is in flight");
                if dup {
                    Step::Dup { dest, slot }
                } else {
                    Step::Deliver { dest, slot }
                }
            }
        }
    }

    /// Resolves a [`Step`] back to an enabled choice, if it still denotes
    /// one (lenient replay drops steps that no longer apply — the shrink
    /// loop relies on that).
    pub fn choice_of(&self, step: Step) -> Option<Choice> {
        match step {
            Step::Gen { site } => {
                let prog = self.scenario.programs.get(site)?;
                (self.pcs.get(site).copied()? < prog.len()).then_some(Choice::Gen { site })
            }
            Step::Deliver { dest, slot } | Step::Dup { dest, slot } => {
                let dup = matches!(step, Step::Dup { .. });
                let f = self.net.inflight().iter().filter(|f| f.dest == dest).nth(slot)?;
                if dup && f.dups_left == 0 {
                    return None;
                }
                Some(Choice::Deliver { id: f.id, dest, dup })
            }
        }
    }

    /// Applies one choice, converting protocol errors and panics into
    /// counterexample material.
    pub fn apply(&mut self, c: Choice) -> Result<(), Violation> {
        match catch_unwind(AssertUnwindSafe(|| self.apply_inner(c))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(Violation::ProtocolError { detail: e.to_string() }),
            Err(payload) => Err(Violation::Panic { detail: panic_text(payload) }),
        }
    }

    fn apply_inner(&mut self, c: Choice) -> Result<(), CoreError> {
        match c {
            Choice::Gen { site } => {
                let action = self.scenario.programs[site][self.pcs[site]].clone();
                self.pcs[site] += 1;
                match action {
                    LocalAction::Admin(op) => {
                        self.net.admin_generate(site, op)?;
                    }
                    LocalAction::Heartbeat => self.net.heartbeat(site),
                    coop => {
                        if let Some(op) = self.fold(site, &coop) {
                            match self.net.generate(site, op) {
                                // A local denial is a legitimate protocol
                                // outcome (Check_Local fails, nothing is
                                // executed or broadcast), not an error.
                                Ok(_) | Err(CoreError::AccessDenied { .. }) => {}
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
            }
            Choice::Deliver { id, dest, dup } => {
                if dup {
                    self.net.deliver_duplicate(id)?;
                } else {
                    self.net.deliver(id)?;
                }
                if self.scenario.compact {
                    self.net.site_mut(dest).auto_compact();
                }
            }
        }
        Ok(())
    }

    /// Folds a cooperative action intent into the acting site's current
    /// document (see the scenario module docs). `None` = the action
    /// degenerates to a no-op on this branch.
    fn fold(&self, site: usize, action: &LocalAction) -> Option<Op<Char>> {
        let doc = self.net.site(site).document();
        let len = doc.len();
        match action {
            LocalAction::Insert { pos, ch } => Some(Op::ins(1 + (pos - 1) % (len + 1), *ch)),
            LocalAction::Delete { pos } => {
                if len == 0 {
                    return None;
                }
                let p = 1 + (pos - 1) % len;
                Some(Op::del(p, *doc.get(p).expect("folded position is in range")))
            }
            LocalAction::Update { pos, ch } => {
                if len == 0 {
                    return None;
                }
                let p = 1 + (pos - 1) % len;
                Some(Op::up(p, *doc.get(p).expect("folded position is in range"), *ch))
            }
            LocalAction::Admin(_) | LocalAction::Heartbeat => {
                unreachable!("only cooperative actions are folded")
            }
        }
    }
}

pub(crate) fn hash_msg(msg: &dce_core::Message<Char>) -> u64 {
    let mut h = DefaultHasher::new();
    msg.hash(&mut h);
    h.finish()
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
