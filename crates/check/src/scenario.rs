//! Bounded scenarios: the paper's figures as explorable programs.
//!
//! A scenario fixes the group (one administrator at site 0 plus users),
//! the initial document and policy, and one scripted *program* of local
//! actions per site. The explorer then drives every interleaving of
//! program steps and message deliveries.
//!
//! Program actions carry position/character *intents*, not concrete
//! operations: by the time a site executes its next action, concurrent
//! deliveries may have reshaped its replica, so the runner folds the
//! intent into the current document (positions wrap modulo the visible
//! length, deletions of an empty document become no-ops). Every
//! interleaving therefore yields applicable operations, and the schedule
//! space stays uniform across branches.

use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject, UserId};

/// One scripted local action (see the module docs for intent folding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalAction {
    /// Insert `ch` at the folded position.
    Insert {
        /// Position intent (folded modulo `len + 1`).
        pos: usize,
        /// The character to insert.
        ch: char,
    },
    /// Delete the element at the folded position (no-op when empty).
    Delete {
        /// Position intent (folded modulo `len`).
        pos: usize,
    },
    /// Overwrite the element at the folded position with `ch` (no-op when
    /// empty).
    Update {
        /// Position intent (folded modulo `len`).
        pos: usize,
        /// The replacement character.
        ch: char,
    },
    /// An administrative operation — the acting site must be the
    /// administrator.
    Admin(AdminOp),
    /// Broadcast a heartbeat carrying the site's clock (it drives the
    /// peers' stability horizons).
    Heartbeat,
}

/// A bounded exploration scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (`fig2`, …).
    pub name: String,
    /// Initial document content, shared by every site.
    pub initial: String,
    /// Initial policy, shared by every site.
    pub policy: Policy,
    /// Per-site programs; index 0 is the administrator.
    pub programs: Vec<Vec<LocalAction>>,
    /// Per-message duplicate-delivery allowance explored on top of the
    /// final delivery (0 = exactly-once choices only).
    pub max_dups: u8,
    /// Run the stability-horizon compactor (`Site::auto_compact`) at the
    /// destination after every delivery.
    pub compact: bool,
}

impl Scenario {
    /// Number of sites (administrator included).
    pub fn sites(&self) -> usize {
        self.programs.len()
    }

    /// Builds a figure scenario by name (`fig1` … `fig5`, or `gc`) with
    /// `sites` sites and `ops` cooperative operations. Returns `None` for an
    /// unknown name or fewer than two sites.
    pub fn by_name(name: &str, sites: usize, ops: usize) -> Option<Scenario> {
        if sites < 2 {
            return None;
        }
        match name {
            "fig1" => Some(Self::fig1(sites, ops)),
            "fig2" => Some(Self::fig2(sites, ops)),
            "fig3" => Some(Self::fig3(sites, ops)),
            "fig4" => Some(Self::fig4(sites, ops)),
            "fig5" => Some(Self::fig5(sites, ops)),
            "gc" => Some(Self::gc(sites, ops)),
            _ => None,
        }
    }

    fn base(name: &str, sites: usize) -> Scenario {
        Scenario {
            name: name.to_owned(),
            initial: "abc".to_owned(),
            policy: Policy::permissive(0..sites as UserId),
            programs: vec![Vec::new(); sites],
            max_dups: 0,
            compact: false,
        }
    }

    /// A document-wide revocation of `right` for `user` (prepended, so it
    /// shadows the permissive grant — the Fig. 2/3 shape).
    pub fn revoke(right: Right, user: UserId) -> AdminOp {
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

    /// A document-wide grant of `right` for `user`, prepended.
    pub fn grant(right: Right, user: UserId) -> AdminOp {
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(Subject::User(user), DocObject::Document, [right], Sign::Plus),
        }
    }

    /// Distributes `ops` mixed cooperative edits round-robin over the user
    /// sites `1..sites`, cycling insert/delete/update intents.
    fn spread_coop(programs: &mut [Vec<LocalAction>], ops: usize) {
        let users = programs.len() - 1;
        const CHARS: [char; 4] = ['x', 'y', 'z', 'w'];
        for i in 0..ops {
            let site = 1 + i % users;
            let action = match i % 3 {
                0 => LocalAction::Insert { pos: i + 1, ch: CHARS[i % CHARS.len()] },
                1 => LocalAction::Delete { pos: i + 1 },
                _ => LocalAction::Update { pos: i + 1, ch: CHARS[(i + 1) % CHARS.len()] },
            };
            programs[site].push(action);
        }
    }

    /// Fig. 1: pure OT convergence — concurrent edits, no administrative
    /// traffic.
    pub fn fig1(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("fig1", sites);
        Self::spread_coop(&mut s.programs, ops);
        s
    }

    /// Fig. 2: the revocation race — the administrator revokes user 1's
    /// insert right concurrently with the users' inserts; tentative
    /// inserts overtaken by the revocation must be retroactively undone.
    pub fn fig2(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("fig2", sites);
        s.programs[0].push(LocalAction::Admin(Self::revoke(Right::Insert, 1)));
        let users = sites - 1;
        const CHARS: [char; 4] = ['x', 'y', 'z', 'w'];
        for i in 0..ops {
            let site = 1 + i % users;
            s.programs[site].push(LocalAction::Insert { pos: i + 1, ch: CHARS[i % CHARS.len()] });
        }
        s
    }

    /// Fig. 3: why the administrative log is necessary — a revocation of
    /// user 1's delete right followed by a re-grant, concurrent with user
    /// 1 deleting; the deletion's fate depends on which policy version it
    /// is checked against.
    pub fn fig3(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("fig3", sites);
        s.programs[0].push(LocalAction::Admin(Self::revoke(Right::Delete, 1)));
        s.programs[0].push(LocalAction::Admin(Self::grant(Right::Delete, 1)));
        s.programs[1].push(LocalAction::Delete { pos: 1 });
        Self::spread_coop(&mut s.programs, ops.saturating_sub(1));
        s
    }

    /// Fig. 4: the validation protocol — user 1 issues a causal chain of
    /// inserts, the administrator validates each one it receives and
    /// (concurrently) revokes user 1's insert right; validated requests
    /// must survive the revocation at every site.
    pub fn fig4(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("fig4", sites);
        s.programs[0].push(LocalAction::Admin(Self::revoke(Right::Insert, 1)));
        const CHARS: [char; 4] = ['x', 'y', 'z', 'w'];
        for i in 0..ops {
            s.programs[1].push(LocalAction::Insert { pos: i + 1, ch: CHARS[i % CHARS.len()] });
        }
        s
    }

    /// Fig. 5: the paper's illustrative session — an administrator edit,
    /// concurrent user edits including deletions, and a revocation of
    /// user 1's delete right.
    pub fn fig5(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("fig5", sites);
        s.programs[0].push(LocalAction::Insert { pos: 2, ch: 'y' });
        s.programs[0].push(LocalAction::Admin(Self::revoke(Right::Delete, 1)));
        let users = sites - 1;
        for i in 0..ops.saturating_sub(1) {
            let site = 1 + i % users;
            let action = if site == 1 {
                LocalAction::Delete { pos: i + 1 }
            } else {
                LocalAction::Insert { pos: i + 2, ch: 'x' }
            };
            s.programs[site].push(action);
        }
        s
    }

    /// Compaction under a racing horizon: the users' mixed edits, each
    /// user's program ending in one heartbeat, with every destination
    /// compacting after every delivery (the administrator, who hears from
    /// every other member, is the one that can form a horizon). A user's
    /// heartbeat can overtake its own edit, which is concurrent with the
    /// other user's, so a compactor that reclaimed an entry some pending
    /// request still transforms against diverges on some interleaving.
    pub fn gc(sites: usize, ops: usize) -> Scenario {
        let mut s = Self::base("gc", sites);
        Self::spread_coop(&mut s.programs, ops);
        for program in s.programs.iter_mut().skip(1) {
            program.push(LocalAction::Heartbeat);
        }
        s.compact = true;
        s
    }
}
