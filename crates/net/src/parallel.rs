//! Thread-per-site runner: each site lives on its own OS thread, messages
//! travel over crossbeam channels — the closest laboratory analog of the
//! paper's JXTA deployment, exercising the stack under real parallelism.
//!
//! [`run_parallel_session_chaotic`] additionally injects duplication and
//! reordering at the sender (channels never lose messages, so the two
//! faults a lossless transport can exhibit are exactly these); the
//! protocol's dedup guards and OT integration must absorb both under true
//! parallelism.

use crossbeam::channel::{unbounded, Receiver, Sender};
use dce_core::{Message, Site};
use dce_document::{Document, Element, Op};
use dce_obs::ObsHandle;
use dce_policy::{AdminOp, Policy};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

/// A scripted action for one site in a parallel run.
#[derive(Debug, Clone)]
pub enum ScriptStep<E> {
    /// Generate a cooperative operation (ignored if the policy denies it).
    Edit(Op<E>),
    /// Issue an administrative operation (admin site only).
    Admin(AdminOp),
}

/// Sender-side chaos for the parallel runner.
struct SenderChaos {
    rng: StdRng,
    dup_prob: f64,
    reorder_prob: f64,
}

/// One thread's view of the wire: its peers, the global in-flight
/// counter, and optional sender-side chaos (a held-back stash realises
/// reordering; duplicate sends realise duplication).
///
/// Channels carry `Arc<Message>` — one allocation per broadcast, shared
/// across every peer's inbox (and any duplicate/stashed copies).
struct Courier<E> {
    peers: Vec<Sender<Arc<Message<E>>>>,
    in_flight: Arc<AtomicI64>,
    chaos: Option<SenderChaos>,
    stash: Vec<Arc<Message<E>>>,
}

impl<E: Element> Courier<E> {
    fn send_raw(&self, msg: &Arc<Message<E>>) {
        for p in &self.peers {
            let _ = p.send(Arc::clone(msg));
        }
    }

    /// Broadcasts `msg`, possibly holding it back past later messages
    /// (reorder) or sending it twice (duplicate). Every copy — held or
    /// not — is counted in flight immediately, so no thread can conclude
    /// the network is quiet while a stash is pending.
    fn broadcast(&mut self, msg: Message<E>) {
        let msg = Arc::new(msg);
        self.in_flight.fetch_add(self.peers.len() as i64, Ordering::SeqCst);
        let (dup, hold) = match &mut self.chaos {
            Some(c) => (c.rng.gen_bool(c.dup_prob), c.rng.gen_bool(c.reorder_prob)),
            None => (false, false),
        };
        if hold {
            self.stash.push(Arc::clone(&msg));
        } else {
            self.send_raw(&msg);
            self.flush();
        }
        if dup {
            self.in_flight.fetch_add(self.peers.len() as i64, Ordering::SeqCst);
            self.send_raw(&msg);
        }
    }

    /// Releases held-back messages (after newer traffic — the reorder).
    fn flush(&mut self) {
        for held in std::mem::take(&mut self.stash) {
            self.send_raw(&held);
        }
    }
}

/// Runs a group of sites in parallel: site `i` executes `scripts[i]` in
/// order, broadcasting over channels; every site then drains its inbox
/// until the whole group is quiet, and the final sites are returned.
///
/// Termination: each site counts the messages it has received; the run
/// finishes when every channel is empty and all threads agree no message
/// is in flight (tracked with an atomic in-flight counter).
pub fn run_parallel_session<E: Element + Send + Sync + 'static>(
    d0: Document<E>,
    policy: Policy,
    scripts: Vec<Vec<ScriptStep<E>>>,
) -> Vec<Site<E>> {
    run_session_inner(d0, policy, scripts, None, ObsHandle::disabled())
}

/// [`run_parallel_session`] with a shared observability handle attached
/// to every site. No simulated clock exists here, so the handle switches
/// to wall-clock time: each event's `at` stamp is nanoseconds since the
/// handle's creation, and span latencies built over the journal by
/// `dce-trace` attribute real elapsed time under true parallelism.
pub fn run_parallel_session_observed<E: Element + Send + Sync + 'static>(
    d0: Document<E>,
    policy: Policy,
    scripts: Vec<Vec<ScriptStep<E>>>,
    obs: ObsHandle,
) -> Vec<Site<E>> {
    obs.use_wall_time();
    run_session_inner(d0, policy, scripts, None, obs)
}

/// [`run_parallel_session`] with sender-side chaos: each site duplicates
/// a broadcast with probability `dup_prob` and holds it back past later
/// traffic with probability `reorder_prob` (draws seeded per site from
/// `seed`). Channels never drop, so delivery stays reliable — the
/// protocol must merely survive the double and shuffled arrivals.
pub fn run_parallel_session_chaotic<E: Element + Send + Sync + 'static>(
    d0: Document<E>,
    policy: Policy,
    scripts: Vec<Vec<ScriptStep<E>>>,
    seed: u64,
    dup_prob: f64,
    reorder_prob: f64,
) -> Vec<Site<E>> {
    run_session_inner(
        d0,
        policy,
        scripts,
        Some((seed, dup_prob, reorder_prob)),
        ObsHandle::disabled(),
    )
}

fn run_session_inner<E: Element + Send + Sync + 'static>(
    d0: Document<E>,
    policy: Policy,
    scripts: Vec<Vec<ScriptStep<E>>>,
    chaos: Option<(u64, f64, f64)>,
    obs: ObsHandle,
) -> Vec<Site<E>> {
    let n = scripts.len();
    assert!(n > 0, "need at least the administrator");

    let mut senders: Vec<Sender<Arc<Message<E>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Arc<Message<E>>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    // Messages in flight (sent but not yet processed).
    let in_flight = Arc::new(AtomicI64::new(0));
    let results: Arc<Mutex<Vec<Option<Site<E>>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));

    let scripts_done = Arc::new(std::sync::Barrier::new(n));

    let mut handles = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let my_rx = receivers[i].clone();
        let peers: Vec<Sender<Arc<Message<E>>>> =
            senders.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, s)| s.clone()).collect();
        let d0 = d0.clone();
        let policy = policy.clone();
        let in_flight = in_flight.clone();
        let results = results.clone();
        let site_chaos = chaos.map(|(seed, dup_prob, reorder_prob)| SenderChaos {
            rng: StdRng::seed_from_u64(seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9))),
            dup_prob,
            reorder_prob,
        });
        let obs = obs.clone();
        let scripts_done = scripts_done.clone();

        handles.push(thread::spawn(move || {
            let mut site: Site<E> = if i == 0 {
                Site::new_admin(0, d0, policy)
            } else {
                Site::new_user(i as u32, 0, d0, policy)
            };
            site.set_observability(obs);
            let mut courier = Courier {
                peers,
                in_flight: in_flight.clone(),
                chaos: site_chaos,
                stash: Vec::new(),
            };

            let drain_inbox = |site: &mut Site<E>, courier: &mut Courier<E>| {
                while let Ok(msg) = my_rx.try_recv() {
                    // The site takes ownership: deep-clone once per actual
                    // reception, not once per peer at send time.
                    site.receive((*msg).clone()).expect("protocol error");
                    // Count what this reception emits before retiring it,
                    // so the in-flight total never dips to zero early.
                    for out in site.drain_outbox() {
                        courier.broadcast(out);
                    }
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            };

            for step in script {
                drain_inbox(&mut site, &mut courier);
                match step {
                    ScriptStep::Edit(op) => {
                        if let Ok(q) = site.generate(op) {
                            courier.broadcast(Message::Coop(q));
                        }
                    }
                    ScriptStep::Admin(op) => {
                        let r = site.admin_generate(op).expect("script admin op");
                        courier.broadcast(Message::Admin(r));
                    }
                }
                thread::yield_now();
            }
            // No site may judge the group quiet before every script's
            // broadcasts are counted in flight.
            scripts_done.wait();

            // Cooperative quiescence: keep draining until nothing is in
            // flight anywhere and our inbox is empty.
            loop {
                courier.flush();
                drain_inbox(&mut site, &mut courier);
                if courier.stash.is_empty()
                    && in_flight.load(Ordering::SeqCst) == 0
                    && my_rx.is_empty()
                {
                    break;
                }
                thread::yield_now();
            }

            results.lock()[i] = Some(site);
        }));
    }

    for h in handles {
        h.join().expect("site thread panicked");
    }
    Arc::try_unwrap(results)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone())
        .into_iter()
        .map(|s| s.expect("every site reported"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::{Char, CharDocument};

    #[test]
    fn parallel_session_converges() {
        let d0 = CharDocument::from_str("shared");
        let policy = Policy::permissive([0, 1, 2, 3]);
        let scripts: Vec<Vec<ScriptStep<Char>>> = vec![
            vec![ScriptStep::Edit(Op::ins(1, 'A'))],
            vec![ScriptStep::Edit(Op::ins(1, 'b')), ScriptStep::Edit(Op::del(1, 'b'))],
            vec![ScriptStep::Edit(Op::up(1, 's', 'S'))],
            vec![ScriptStep::Edit(Op::ins(7, 'z'))],
        ];
        let sites = run_parallel_session(d0, policy, scripts);
        let doc0 = sites[0].document().to_string();
        for s in &sites {
            assert_eq!(s.document().to_string(), doc0, "site {} diverged", s.user());
        }
    }

    #[test]
    fn observed_parallel_session_records_wall_clock_trace() {
        let d0 = CharDocument::from_str("shared");
        let policy = Policy::permissive([0, 1, 2]);
        let scripts: Vec<Vec<ScriptStep<Char>>> = vec![
            vec![ScriptStep::Edit(Op::ins(1, 'A'))],
            vec![ScriptStep::Edit(Op::ins(1, 'b'))],
            vec![ScriptStep::Edit(Op::ins(2, 'c'))],
        ];
        let obs = ObsHandle::recording(4096);
        let sites = run_parallel_session_observed(d0, policy, scripts, obs.clone());
        let doc0 = sites[0].document().to_string();
        for s in &sites {
            assert_eq!(s.document().to_string(), doc0);
        }
        let events = obs.events();
        let s = dce_obs::summarize(&events);
        assert_eq!(s.total("req_generated"), 3);
        assert_eq!(s.total("req_executed"), 9, "each request executes at every site");
        assert!(events.iter().any(|e| e.at > 0), "wall-clock time source stamps the journal");
    }

    #[test]
    fn parallel_session_with_admin_churn_converges() {
        use dce_policy::{Authorization, DocObject, Right, Sign, Subject};
        let d0 = CharDocument::from_str("abc");
        let policy = Policy::permissive([0, 1, 2]);
        let revoke = AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(2),
                DocObject::Document,
                [Right::Insert],
                Sign::Minus,
            ),
        };
        let scripts: Vec<Vec<ScriptStep<Char>>> = vec![
            vec![ScriptStep::Admin(revoke)],
            vec![ScriptStep::Edit(Op::ins(1, 'x'))],
            vec![ScriptStep::Edit(Op::ins(2, 'y'))],
        ];
        for _ in 0..10 {
            let sites = run_parallel_session(d0.clone(), policy.clone(), scripts.clone());
            let doc0 = sites[0].document().to_string();
            for s in &sites {
                assert_eq!(s.document().to_string(), doc0);
            }
        }
    }

    #[test]
    fn chaotic_parallel_session_converges() {
        let d0 = CharDocument::from_str("abc");
        let policy = Policy::permissive([0, 1, 2, 3]);
        let scripts: Vec<Vec<ScriptStep<Char>>> = vec![
            vec![ScriptStep::Edit(Op::ins(1, 'A')), ScriptStep::Edit(Op::ins(1, 'B'))],
            vec![ScriptStep::Edit(Op::ins(2, 'x')), ScriptStep::Edit(Op::del(1, 'a'))],
            vec![ScriptStep::Edit(Op::up(1, 'a', 'Z'))],
            vec![ScriptStep::Edit(Op::ins(4, 'w'))],
        ];
        for seed in 0..6 {
            let sites = run_parallel_session_chaotic(
                d0.clone(),
                policy.clone(),
                scripts.clone(),
                seed,
                0.5,
                0.5,
            );
            let doc0 = sites[0].document().to_string();
            for s in &sites {
                assert_eq!(
                    s.document().to_string(),
                    doc0,
                    "seed {seed}: site {} diverged",
                    s.user()
                );
            }
        }
    }
}
