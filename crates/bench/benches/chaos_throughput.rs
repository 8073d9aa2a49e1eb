//! Throughput of the full protocol stack over the chaos transport:
//! delivered-operation rate for a 4-site session at increasing loss
//! levels, with the acknowledged session layer repairing the losses.
//! Quantifies what reliability costs on a clean network (0% loss) and
//! how retransmission overhead scales as the transport degrades.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::FaultPlan;
use dce_policy::Policy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SITES: u32 = 4;
const OPS_PER_SITE: usize = 25;

/// Runs one seeded session to quiescence and returns delivered messages.
fn chaos_run(seed: u64, drop_prob: f64) -> u64 {
    let users: Vec<u32> = (0..N_SITES).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        N_SITES,
        CharDocument::from_str("abcdef"),
        Policy::permissive(users),
        seed,
        Latency::Uniform(1, 40),
    );
    if drop_prob > 0.0 {
        sim.set_fault_plan(FaultPlan::none().with_drops(drop_prob));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..OPS_PER_SITE {
        for site in 0..N_SITES as usize {
            let len = sim.site(site).document().len();
            let op = if len == 0 || rng.gen_bool(0.6) {
                Op::ins(rng.gen_range(1..=len + 1), 'x')
            } else {
                let p = rng.gen_range(1..=len);
                Op::Del { pos: p, elem: *sim.site(site).document().get(p).unwrap() }
            };
            sim.submit_coop(site, op).unwrap();
        }
        for _ in 0..20 {
            sim.step();
        }
    }
    sim.run_to_quiescence();
    assert!(sim.converged(), "bench session diverged");
    sim.stats().delivered
}

fn bench_chaos_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("chaos_throughput");
    for loss_pct in [0u32, 10, 30] {
        let drop_prob = loss_pct as f64 / 100.0;
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{loss_pct}pct_loss")),
            &drop_prob,
            |b, &p| {
                let mut seed = 1u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    chaos_run(seed, p)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_chaos_throughput);
criterion_main!(benches);
