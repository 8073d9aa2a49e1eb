//! Chaos-transport acceptance tests: the full protocol stack under
//! drops, duplication, reordering, a partition/heal cycle, and a site
//! crash with snapshot rejoin — repaired by the acknowledged session
//! layer and judged by the convergence oracle. Every run prints its
//! seed; a failure replays exactly from that seed.

use dce::document::{Char, CharDocument, Op};
use dce::net::sim::{Latency, SimNet};
use dce::net::wire::{decode_message, encode_message};
use dce::net::FaultPlan;
use dce::policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SITES: u32 = 5;
const CRASHED: usize = 3;

/// One full chaos session: returns (final document, coop ops submitted,
/// site 0's replica digest, log entries reclaimed by the compactor).
/// `compaction` arms the always-on stability-horizon compactor with the
/// given watermark; `None` is the control run.
fn chaos_session(seed: u64, compaction: Option<usize>) -> (String, usize, u64, usize) {
    let users: Vec<u32> = (0..N_SITES).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        N_SITES,
        CharDocument::from_str("the quick brown fox"),
        Policy::permissive(users),
        seed,
        Latency::Uniform(1, 120),
    );
    sim.set_fault_plan(
        FaultPlan::none()
            .with_drops(0.20)
            .with_duplicates(0.10)
            .with_reordering(0.10, 300)
            .with_partition([4], 2_000, 7_000),
    );
    if let Some(wm) = compaction {
        sim.enable_compaction(wm);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);

    let mut coop_ops = 0usize;
    let mut crashed = false;
    let mut rejoined = false;
    for round in 0..30 {
        // The crash lands mid-run; the rejoin a few rounds later, while
        // traffic is still flowing.
        if round == 8 {
            sim.crash_site(CRASHED).unwrap();
            crashed = true;
        }
        if round == 16 {
            sim.rejoin(CRASHED, 0).unwrap();
            rejoined = true;
        }

        for site in 0..N_SITES as usize {
            if !sim.is_active(site) {
                continue;
            }
            for _ in 0..2 {
                let len = sim.site(site).document().len();
                let op = if len == 0 || rng.gen_bool(0.55) {
                    Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char)
                } else if rng.gen_bool(0.6) {
                    let p = rng.gen_range(1..=len);
                    Op::Del { pos: p, elem: *sim.site(site).document().get(p).unwrap() }
                } else {
                    let p = rng.gen_range(1..=len);
                    let old = *sim.site(site).document().get(p).unwrap();
                    Op::up(p, old, (b'A' + (round % 26) as u8) as char)
                };
                if sim.submit_coop(site, op).is_ok() {
                    coop_ops += 1;
                }
            }
        }
        // Policy churn keeps the admin log and validation path busy.
        if rng.gen_bool(0.3) {
            let user = rng.gen_range(1..N_SITES);
            let right = [Right::Insert, Right::Delete, Right::Update][rng.gen_range(0..3)];
            let sign = if rng.gen_bool(0.5) { Sign::Minus } else { Sign::Plus };
            let _ = sim.submit_admin(
                0,
                AdminOp::AddAuth {
                    pos: 0,
                    auth: Authorization::new(
                        Subject::User(user),
                        DocObject::Document,
                        [right],
                        sign,
                    ),
                },
            );
        }
        // Heartbeats double as the piggybacked-ack carrier.
        if round % 5 == 4 {
            sim.gossip_heartbeats();
        }
        // Let part of the traffic land while more is generated, so
        // retransmissions, duplicates and reordered legs overlap edits.
        for _ in 0..60 {
            sim.step();
        }
    }
    assert!(crashed && rejoined, "the schedule exercised crash + rejoin");
    sim.run_to_quiescence();

    let fs = sim.fault_stats();
    assert!(fs.dropped > 0, "drops fired: {fs:?}");
    assert!(fs.duplicated > 0, "duplication fired: {fs:?}");
    assert!(fs.reordered > 0, "reordering fired: {fs:?}");
    assert!(fs.partitioned > 0, "the partition window cut traffic: {fs:?}");
    assert!(fs.retransmitted > 0, "the session layer repaired losses: {fs:?}");
    assert_eq!(fs.crashes, 1);
    sim.assert_converged(seed);
    // Every payload leg must be accounted for: delivered, lost to a
    // fault, dead at a downed site, suppressed as a duplicate, or (for
    // inactive sites only) still held — nothing simply vanishes.
    sim.assert_ledger_conserved(seed);
    // Quiescence means the scheduler has woken and processed everything —
    // a request parked forever (a wake list the refactor forgot to fire)
    // would show up here as a non-empty queue.
    for site in 0..N_SITES as usize {
        if sim.is_active(site) {
            assert_eq!(sim.site(site).queued(), 0, "site {site} still holds parked requests");
        }
    }
    (
        sim.site(0).document().to_string(),
        coop_ops,
        sim.site(0).replica_digest(),
        sim.compactions_reclaimed(),
    )
}

#[test]
fn chaos_session_converges() {
    let seed = 0x0D0C_5EED;
    println!("chaos session seed: {seed:#x}");
    let (doc, coop_ops, _, _) = chaos_session(seed, None);
    assert!(coop_ops >= 200, "only {coop_ops} cooperative ops were submitted");
    assert!(!doc.is_empty());
}

#[test]
fn chaos_session_is_replayable_from_its_seed() {
    let seed = 0xBEE5;
    println!("chaos session seed: {seed:#x}");
    assert_eq!(chaos_session(seed, None), chaos_session(seed, None));
}

/// The always-on compactor under full chaos: the same seeded session
/// runs once with the watermark compactor armed and once without, and
/// everything observable — the final document, the submitted-op count,
/// and the behavioral replica digest — must be identical. Compaction
/// may only reclaim memory, never change a replica's story.
#[test]
fn chaos_session_with_always_on_compaction_matches_the_control() {
    let seed = 0x0D0C_5EED;
    println!("chaos compaction seed: {seed:#x}");
    let (doc_on, ops_on, digest_on, reclaimed) = chaos_session(seed, Some(24));
    let (doc_off, ops_off, digest_off, none) = chaos_session(seed, None);
    assert!(reclaimed > 0, "the compactor never fired under chaos");
    assert_eq!(none, 0, "the control run must not compact");
    assert_eq!(doc_on, doc_off, "compaction changed the document");
    assert_eq!(ops_on, ops_off, "compaction perturbed the workload");
    assert_eq!(digest_on, digest_off, "compaction changed the replica digest");
}

/// A chaos run with the journal recording: after quiescence the *trace*
/// must balance, not just the final state. Every request generated
/// anywhere resolves at every site (executed, inert, or denied); the
/// surviving count agrees across sites; the metrics registry agrees with
/// the journal; and the network's payload ledger is conserved.
#[test]
fn chaos_event_ledger_balances() {
    let seed = 0x1ED6_E55E;
    println!("chaos ledger seed: {seed:#x}");
    let users: Vec<u32> = (0..4).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        4,
        CharDocument::from_str("ledger"),
        Policy::permissive(users),
        seed,
        Latency::Uniform(1, 90),
    );
    let obs = dce::obs::ObsHandle::recording(1 << 16);
    sim.enable_observability(obs.clone());
    sim.set_fault_plan(
        FaultPlan::none().with_drops(0.20).with_duplicates(0.10).with_reordering(0.10, 200),
    );
    let mut rng = StdRng::seed_from_u64(seed);

    for round in 0..10u32 {
        for site in 0..4usize {
            for _ in 0..2 {
                let len = sim.site(site).document().len();
                let op = if len == 0 || rng.gen_bool(0.5) {
                    Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char)
                } else {
                    let p = rng.gen_range(1..=len);
                    Op::Del { pos: p, elem: *sim.site(site).document().get(p).unwrap() }
                };
                let _ = sim.submit_coop(site, op);
            }
        }
        if rng.gen_bool(0.4) {
            let user = rng.gen_range(1..4u32);
            let right = [Right::Insert, Right::Delete, Right::Update][rng.gen_range(0..3)];
            let sign = if rng.gen_bool(0.5) { Sign::Minus } else { Sign::Plus };
            let _ = sim.submit_admin(
                0,
                AdminOp::AddAuth {
                    pos: 0,
                    auth: Authorization::new(
                        Subject::User(user),
                        DocObject::Document,
                        [right],
                        sign,
                    ),
                },
            );
        }
        if round % 3 == 2 {
            sim.gossip_heartbeats();
        }
        for _ in 0..50 {
            sim.step();
        }
    }
    sim.run_to_quiescence();
    sim.assert_converged(seed);
    sim.assert_ledger_conserved(seed);

    let events = obs.events();
    assert_eq!(obs.overflowed(), 0, "ring sized for the whole run");
    dce::obs::assert_trace!(events);
    let s = dce::obs::summarize(&events);

    // Request conservation: every site resolves every request exactly
    // once — its own generations execute locally, remote arrivals land
    // executed, inert, or denied.
    let generated = s.total("req_generated");
    assert!(generated > 0, "the workload produced requests");
    for site in 0..4u32 {
        let resolved = s.count(site, "req_executed")
            + s.count(site, "req_inert")
            + s.count(site, "req_denied");
        assert_eq!(
            resolved, generated,
            "site {site} resolved {resolved} of {generated} requests; \
             replay with seed {seed:#x}"
        );
    }
    // Survivor conservation: executed − undone agrees across sites (the
    // flags converged, so the set of surviving requests did too).
    let live0 = s.count(0, "req_executed") - s.count(0, "req_undone");
    for site in 1..4u32 {
        let live = s.count(site, "req_executed") - s.count(site, "req_undone");
        assert_eq!(live, live0, "site {site} survivor count; replay with seed {seed:#x}");
    }
    // The metrics registry tallies the same journal it rode along with.
    let report = obs.snapshot();
    for kind in ["req_generated", "req_executed", "req_denied", "req_undone"] {
        let counter = report.counters.get(&format!("event.{kind}")).copied().unwrap_or(0);
        assert_eq!(counter, s.total(kind), "registry vs journal on {kind}");
    }
}

/// Under the chaotic transport, where every leg rides as an encoded
/// frame (encode → bytes → decode per delivery), all four `Message`
/// kinds cross the network: cooperative requests and
/// validations (admin), a delegated proposal, and heartbeats. On top of
/// the in-band exercise, each kind is round-tripped explicitly.
fn codec_chaos_session(seed: u64) {
    let users: Vec<u32> = (0..4).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        4,
        CharDocument::from_str("abcdef"),
        Policy::permissive(users),
        seed,
        Latency::Uniform(1, 80),
    );
    sim.set_fault_plan(
        FaultPlan::none().with_drops(0.25).with_duplicates(0.15).with_reordering(0.15, 200),
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // A delegation so a Proposal message crosses the wire too.
    sim.submit_admin(0, AdminOp::Delegate(1)).unwrap();
    sim.run_to_quiescence();
    sim.submit_proposal(1, 0, AdminOp::AddUser(77)).unwrap();

    for round in 0..8 {
        for site in 0..4usize {
            let len = sim.site(site).document().len();
            let op = if len == 0 || rng.gen_bool(0.5) {
                Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char)
            } else {
                let p = rng.gen_range(1..=len);
                Op::Del { pos: p, elem: *sim.site(site).document().get(p).unwrap() }
            };
            // Codec fidelity for the exact coop request that ships.
            if let Ok(q) = sim.submit_coop(site, op) {
                let msg = dce::core::Message::Coop(q);
                let back = decode_message::<Char>(encode_message(&msg)).unwrap();
                assert_eq!(back, msg, "coop request round-trips");
            }
        }
        sim.gossip_heartbeats();
        for _ in 0..40 {
            sim.step();
        }
    }
    sim.run_to_quiescence();
    sim.assert_converged(seed);
    sim.assert_ledger_conserved(seed);
    assert!(sim.site(0).policy().has_user(77), "the proposal landed");
    for site in 0..4usize {
        assert_eq!(sim.site(site).queued(), 0, "site {site} still holds parked requests");
    }

    // Explicit fidelity for the remaining kinds.
    let hb = sim.site(2).make_heartbeat();
    assert_eq!(decode_message::<Char>(encode_message(&hb)).unwrap(), hb);
    for r in sim.site(0).admin_log().iter() {
        let msg = dce::core::Message::<Char>::Admin(r.clone());
        assert_eq!(decode_message::<Char>(encode_message(&msg)).unwrap(), msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_message_kind_survives_codec_and_chaos(seed in any::<u64>()) {
        codec_chaos_session(seed);
    }
}

// ---------------------------------------------------------------------
// Cross-shard isolation: faults on one document leave a sibling
// document in the *same* engines byte-for-byte untouched.
// ---------------------------------------------------------------------

mod shard_isolation {
    use super::*;
    use dce::core::{DocumentId, Engine, Message};

    const PARTICIPANTS: usize = 3;
    /// The participant cut off by the partition window (doc A only).
    const CUT: usize = 2;
    const ROUNDS: u64 = 20;
    const PARTITION: std::ops::Range<u64> = 5..12;

    const DOC_A: DocumentId = DocumentId::new(1);
    const DOC_B: DocumentId = DocumentId::new(2);

    /// A faulty per-document mail queue: drops become delayed
    /// redeliveries (retransmission semantics), every leg takes reorder
    /// jitter, and the partition window holds anything to or from the
    /// cut participant until it heals.
    struct ChaosMail {
        inflight: Vec<(u64, usize, Message<Char>)>,
        rng: StdRng,
        dropped: u64,
        partitioned: u64,
    }

    impl ChaosMail {
        fn new(seed: u64) -> Self {
            ChaosMail {
                inflight: Vec::new(),
                rng: StdRng::seed_from_u64(seed ^ 0x5AAD_FA17),
                dropped: 0,
                partitioned: 0,
            }
        }

        fn post(&mut self, now: u64, from: usize, to: usize, msg: Message<Char>) {
            let mut at = now + self.rng.gen_range(0..3u64);
            if self.rng.gen_bool(0.20) {
                // A drop: the session layer would retransmit, so the
                // leg lands anyway — later.
                self.dropped += 1;
                at += 4;
            }
            if PARTITION.contains(&now) && (from == CUT || to == CUT) {
                self.partitioned += 1;
                at = at.max(PARTITION.end + self.rng.gen_range(0..2u64));
            }
            self.inflight.push((at, to, msg));
        }

        /// Messages due at `now`, in posting order (jitter already
        /// scrambled the rounds).
        fn due(&mut self, now: u64) -> Vec<(usize, Message<Char>)> {
            let mut out = Vec::new();
            self.inflight.retain(|(at, to, msg)| {
                if *at <= now {
                    out.push((*to, msg.clone()));
                    false
                } else {
                    true
                }
            });
            out
        }
    }

    /// Clean FIFO fanout on doc B: deliver `msg` everywhere, then keep
    /// draining per-engine outboxes (validations) until quiescent.
    fn deliver_b(engines: &[Engine<Char>], from: usize, msg: &Message<Char>) {
        for (i, e) in engines.iter().enumerate() {
            if i != from {
                e.receive(DOC_B, msg.clone()).unwrap();
            }
        }
        loop {
            let mut moved = false;
            for (i, e) in engines.iter().enumerate() {
                for m in e.drain_outbox(DOC_B) {
                    moved = true;
                    for (j, peer) in engines.iter().enumerate() {
                        if j != i {
                            peer.receive(DOC_B, m.clone()).unwrap();
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }

    fn random_op(rng: &mut StdRng, doc: &CharDocument, round: u64) -> Op<Char> {
        let len = doc.len();
        if len == 0 || rng.gen_bool(0.6) {
            Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char)
        } else {
            let p = rng.gen_range(1..=len);
            Op::Del { pos: p, elem: *doc.get(p).unwrap() }
        }
    }

    /// One session: every participant is a two-document `Engine` (doc A
    /// chaotic, doc B clean) unless `with_doc_a` is false (the baseline
    /// hosts doc B alone). Returns doc B's per-round digest history
    /// `[round][participant]` plus the fault counters.
    fn session(seed: u64, with_doc_a: bool) -> (Vec<[u64; PARTICIPANTS]>, u64, u64) {
        let d0 = CharDocument::from_str("two tenants, one process");
        let policy = Policy::permissive([0, 1, 2]);
        let engines: Vec<Engine<Char>> = (0..PARTICIPANTS as u32)
            .map(|u| if u == 0 { Engine::new_admin(0) } else { Engine::new_user(u, 0) })
            .collect();
        for e in &engines {
            if with_doc_a {
                e.create_document(DOC_A, d0.clone(), policy.clone()).unwrap();
            }
            e.create_document(DOC_B, d0.clone(), policy.clone()).unwrap();
        }

        // Independent RNG streams: doc A's chaos and workload never
        // advance doc B's generator, so the baseline sees the exact
        // same B schedule.
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xAAAA);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xBBBB);
        let mut mail = ChaosMail::new(seed);
        let mut history = Vec::new();

        for round in 0..ROUNDS {
            for (i, e) in engines.iter().enumerate() {
                if with_doc_a {
                    let doc = e.document(DOC_A).unwrap();
                    let msg = e.generate(DOC_A, random_op(&mut rng_a, &doc, round)).unwrap();
                    for to in 0..PARTICIPANTS {
                        if to != i {
                            mail.post(round, i, to, msg.clone());
                        }
                    }
                }
                let doc = e.document(DOC_B).unwrap();
                let msg = e.generate(DOC_B, random_op(&mut rng_b, &doc, round)).unwrap();
                deliver_b(&engines, i, &msg);
            }
            if with_doc_a {
                for (to, msg) in mail.due(round) {
                    engines[to].receive(DOC_A, msg).unwrap();
                }
                for (i, e) in engines.iter().enumerate() {
                    for m in e.drain_outbox(DOC_A) {
                        for to in 0..PARTICIPANTS {
                            if to != i {
                                mail.post(round, i, to, m.clone());
                            }
                        }
                    }
                }
            }
            history.push([
                engines[0].replica_digest(DOC_B).unwrap(),
                engines[1].replica_digest(DOC_B).unwrap(),
                engines[2].replica_digest(DOC_B).unwrap(),
            ]);
        }

        // Heal and flush doc A: keep the clock ticking until the mail
        // queue and every outbox are empty.
        if with_doc_a {
            let mut now = ROUNDS;
            loop {
                let mut moved = false;
                for (to, msg) in mail.due(now) {
                    moved = true;
                    engines[to].receive(DOC_A, msg).unwrap();
                }
                for (i, e) in engines.iter().enumerate() {
                    for m in e.drain_outbox(DOC_A) {
                        moved = true;
                        for to in 0..PARTICIPANTS {
                            if to != i {
                                mail.post(now, i, to, m.clone());
                            }
                        }
                    }
                }
                if !moved && mail.inflight.is_empty() {
                    break;
                }
                now += 1;
                assert!(now < 10_000, "doc A never drained; replay with seed {seed:#x}");
            }
            // The tortured document itself converged once healed.
            let a0 = engines[0].replica_digest(DOC_A).unwrap();
            for (i, e) in engines.iter().enumerate() {
                assert_eq!(e.replica_digest(DOC_A), Some(a0), "doc A diverged at participant {i}");
                assert_eq!(e.with(DOC_A, |s| s.queued()), Some(0), "doc A parked requests at {i}");
            }
        }
        (history, mail.dropped, mail.partitioned)
    }

    /// The satellite gate: doc A absorbs 20% drops plus a partition
    /// window while doc B — in the same three engines — must evolve
    /// *identically* to a baseline run where doc A does not exist:
    /// same per-participant digest at every round, same
    /// rounds-to-converge.
    #[test]
    fn faults_on_one_document_leave_the_sibling_untouched() {
        let seed = 0x1501_A7ED_5EED;
        println!("shard isolation seed: {seed:#x}");
        let (chaotic, dropped, partitioned) = session(seed, true);
        let (baseline, base_dropped, _) = session(seed, false);

        assert!(dropped > 0, "the fault plan dropped doc A legs");
        assert!(partitioned > 0, "the partition window cut doc A legs");
        assert_eq!(base_dropped, 0, "the baseline posts no chaotic mail");

        assert_eq!(chaotic.len(), baseline.len());
        for (round, (c, b)) in chaotic.iter().zip(&baseline).enumerate() {
            assert_eq!(
                c, b,
                "doc B digests diverged from the A-free baseline at round {round}; \
                 replay with seed {seed:#x}"
            );
        }
        let converge_round = |h: &[[u64; PARTICIPANTS]]| {
            h.iter().position(|d| d[0] == d[1] && d[1] == d[2]).expect("doc B converged")
        };
        assert_eq!(
            converge_round(&chaotic),
            converge_round(&baseline),
            "doc A's faults changed doc B's rounds-to-converge"
        );
    }
}
