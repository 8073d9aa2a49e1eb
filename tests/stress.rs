//! Long-running randomized stress: many sites, heavy churn, heartbeat
//! compaction mid-flight, duplicated legs over the framed session layer —
//! the whole stack at once.
//! Kept bounded (a few seconds) so it runs in every `cargo test`.

use dce::document::{CharDocument, Op};
use dce::net::sim::{Latency, SimNet};
use dce::net::FaultPlan;
use dce::policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mixed_stress_with_compaction_and_wire_codec() {
    for seed in 0..3u64 {
        let users: Vec<u32> = (0..6).collect();
        let mut sim: SimNet<dce::document::Char> = SimNet::group(
            6,
            CharDocument::from_str("the quick brown fox jumps over the lazy dog"),
            Policy::permissive(users),
            seed,
            Latency::Uniform(1, 400),
        );
        sim.set_fault_plan(FaultPlan::none().with_duplicates(0.1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);

        for round in 0..30 {
            // Edits from random sites.
            for site in 0..6usize {
                if !rng.gen_bool(0.5) {
                    continue;
                }
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
                let _ = sim.submit_coop(site, op);
            }
            // Policy churn.
            if rng.gen_bool(0.4) {
                let user = rng.gen_range(1..6u32);
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
            // Partial delivery.
            for _ in 0..rng.gen_range(0..60) {
                if !sim.step() {
                    break;
                }
            }
            // Periodic heartbeat + compaction while traffic is in flight.
            if round % 10 == 9 {
                sim.gossip_heartbeats();
                sim.run_to_quiescence();
                sim.auto_compact_all();
            }
        }
        sim.run_to_quiescence();
        for i in 0..6 {
            assert_eq!(
                sim.site(i).queued(),
                0,
                "duplicates must not linger at site {i} (seed {seed})"
            );
        }
        if !sim.converged() && std::env::var("DEBUG_STRESS").is_ok() {
            for i in 0..6 {
                let site = sim.site(i);
                eprintln!(
                    "site {} doc={:?} ver={} loglen={} pruned={} queued={}",
                    i,
                    site.document().to_string(),
                    site.version(),
                    site.engine().log().len(),
                    site.engine().pruned_count(),
                    site.queued()
                );
            }
            for i in 0..6 {
                let site = sim.site(i);
                let inert: Vec<String> = site
                    .engine()
                    .log()
                    .iter()
                    .filter(|e| e.inert)
                    .map(|e| e.id.to_string())
                    .collect();
                eprintln!("site {} inert: {:?}", i, inert);
            }
        }
        assert!(sim.converged(), "seed {seed}");

        // Audit agreement: flags agree on every entry two sites both
        // retain (compaction windows may differ per site, so totals of
        // *retained* entries may not).
        for i in 1..6 {
            for e0 in sim.site(0).engine().log().iter() {
                if sim.site(i).engine().log().get(e0.id).is_some() {
                    assert_eq!(
                        sim.site(i).flag_of(e0.id),
                        sim.site(0).flag_of(e0.id),
                        "flag disagreement on {} at site {i} (seed {seed})",
                        e0.id
                    );
                }
            }
            // And the total universe of requests each site has integrated
            // is identical (clock agreement).
            assert_eq!(
                sim.site(i).engine().clock(),
                sim.site(0).engine().clock(),
                "clock divergence at site {i} (seed {seed})"
            );
        }
    }
}

#[test]
fn snapshot_joins_during_churn() {
    let users: Vec<u32> = (0..3).collect();
    let mut sim: SimNet<dce::document::Char> = SimNet::group(
        3,
        CharDocument::from_str("seed"),
        Policy::permissive(users),
        5,
        Latency::Uniform(1, 120),
    );
    let mut rng = StdRng::seed_from_u64(99);
    let mut next_user = 10u32;
    for round in 0..12 {
        for site in 0..sim.len() {
            let len = sim.site(site).document().len();
            if rng.gen_bool(0.6) {
                let _ = sim.submit_coop(
                    site,
                    Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char),
                );
            }
        }
        if round % 4 == 3 {
            // A newcomer joins from a snapshot of a random member while
            // messages are still in flight.
            sim.run_to_quiescence(); // settle so the snapshot is coherent
            let donor = rng.gen_range(0..sim.len());
            let idx = sim.join(next_user, donor).unwrap();
            next_user += 1;
            let _ = sim.submit_coop(idx, Op::ins(1, '#'));
        }
        for _ in 0..rng.gen_range(0..40) {
            if !sim.step() {
                break;
            }
        }
    }
    sim.run_to_quiescence();
    assert!(sim.converged());
    assert!(sim.len() >= 5, "newcomers joined: {}", sim.len());
}
