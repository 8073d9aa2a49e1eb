//! Operations-side tour: the audit trail, work metrics, heartbeat-driven
//! log compaction, and snapshot-based state transfer — everything an
//! operator of a deployment would touch.
//!
//! Run with `cargo run --example audit_and_ops`.

use dce::core::{audit, metrics};
use dce::document::{CharDocument, Op};
use dce::net::sim::{Latency, SimNet};
use dce::net::snapshot;
use dce::policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};

fn main() {
    let users: Vec<u32> = (0..3).collect();
    let mut sim: SimNet<dce::document::Char> = SimNet::group(
        3,
        CharDocument::from_str("audit me"),
        Policy::permissive(users),
        7,
        Latency::Uniform(2, 80),
    );
    // Normal work plus one rogue edit under a concurrent revocation.
    sim.submit_coop(1, Op::ins(1, '>')).unwrap();
    sim.submit_admin(
        0,
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(2),
                DocObject::Document,
                [Right::Delete],
                Sign::Minus,
            ),
        },
    )
    .unwrap();
    sim.submit_coop(2, Op::del(1, 'a')).unwrap(); // concurrent with the revocation
    sim.run_to_quiescence();
    assert!(sim.converged());

    println!("== audit trail at the administrator ==");
    for record in audit(sim.site(0)) {
        println!("   {record}");
    }

    println!();
    println!("== per-site metrics ==");
    for i in 0..3 {
        let m = metrics(sim.site(i));
        println!(
            "   s{}: {} requests ({} valid, {} invalid), {} denied here, {} undone here, \
             OT work: {} includes / {} transposes",
            sim.site(i).user(),
            m.total_requests,
            m.valid,
            m.invalid,
            m.denied_here,
            m.undone_here,
            m.engine.includes,
            m.engine.partition_transposes + m.engine.canonize_transposes,
        );
    }

    // Heartbeat gossip → group-wide compaction.
    println!();
    sim.gossip_heartbeats();
    sim.run_to_quiescence();
    let reclaimed = sim.auto_compact_all();
    println!("== heartbeat gossip compacted {reclaimed} log entries group-wide ==");

    // Snapshot-based state transfer: a newcomer joins from raw bytes.
    let bytes = snapshot::encode_snapshot(sim.site(0));
    println!();
    println!("== snapshot transfer: {} bytes for the full replica ==", bytes.len());
    let idx = sim.join(9, 0).unwrap();
    sim.run_to_quiescence();
    println!("   newcomer (user 9) sees {:?}", sim.site(idx).document().to_string());
    sim.submit_coop(idx, Op::ins(1, '#')).unwrap();
    sim.run_to_quiescence();
    assert!(sim.converged());
    println!("   after their first edit, every site sees {:?}", sim.site(0).document().to_string());
}
