//! Scratch chaos debugger: replays a scaled-down chaos session with
//! progress tracing. Usage: `cargo run -p dce-net --example chaosdbg`.

use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::FaultPlan;
use dce_policy::Policy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let seed = 0x0D0C_5EEDu64;
    let users: Vec<u32> = (0..5).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        5,
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
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);

    let rounds: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    for round in 0..rounds {
        if round == 4 {
            sim.crash_site(3).unwrap();
            println!("[r{round}] crash site 3");
        }
        if round == 7 {
            sim.rejoin(3, 0).unwrap();
            println!("[r{round}] rejoin site 3");
        }
        for site in 0..5usize {
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
                let _ = sim.submit_coop(site, op);
            }
        }
        if round % 5 == 4 {
            sim.gossip_heartbeats();
        }
        for _ in 0..60 {
            sim.step();
        }
        println!(
            "[r{round}] now={} stats={:?} faults={:?}",
            sim.now(),
            sim.stats(),
            sim.fault_stats()
        );
    }
    println!("--- quiescence ---");
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(100_000) {
            println!(
                "steps={steps} now={} stats={:?} faults={:?}",
                sim.now(),
                sim.stats(),
                sim.fault_stats()
            );
        }
        if steps > 2_000_000 {
            println!("BAILING: not quiescing");
            break;
        }
    }
    println!(
        "done after {steps} steps: now={} stats={:?} faults={:?}",
        sim.now(),
        sim.stats(),
        sim.fault_stats()
    );
    match sim.check_converged() {
        Ok(()) => println!("converged"),
        Err(e) => println!("DIVERGED: {e}"),
    }
}
