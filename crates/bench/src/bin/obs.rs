//! Observability overhead ablation, emitted as JSON.
//!
//! Three measurements on one deterministic chaos session:
//!
//! * **session overhead** — the same seeded `SimNet` workload run with
//!   the handle disabled and then recording into a ring journal; the
//!   final documents must match (recording never changes behavior) and
//!   the wall-clock delta is the cost of full tracing;
//! * **per-emit cost** — a microbench of `ObsHandle::emit` disabled
//!   (one branch on an empty `Option`) vs recording (ring write +
//!   derived counter bump);
//! * **registry snapshot** — the recording run's full metrics report:
//!   `event.*` counters, drain-latency histogram, queue-depth and
//!   policy-memo gauges.
//!
//! Run with `cargo run --release -p dce-bench --bin obs`; writes
//! `results/BENCH_obs.json` at the repository root.

use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::FaultPlan;
use dce_obs::{EventKind, ObsHandle, ReqId};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0B5E_7EED;

/// One seeded chaos session; returns wall-clock time and the converged
/// document so the caller can pin that recording is behavior-neutral.
fn run_session(obs: &ObsHandle) -> (Duration, String) {
    let users: Vec<u32> = (0..4).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        4,
        CharDocument::from_str("observability"),
        Policy::permissive(users),
        SEED,
        Latency::Uniform(1, 60),
    );
    sim.enable_observability(obs.clone());
    sim.set_fault_plan(
        FaultPlan::none().with_drops(0.10).with_duplicates(0.05).with_reordering(0.05, 150),
    );
    let mut rng = StdRng::seed_from_u64(SEED);

    let start = Instant::now();
    for round in 0..12u32 {
        for site in 0..4usize {
            for _ in 0..3 {
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
        for _ in 0..40 {
            sim.step();
        }
    }
    sim.run_to_quiescence();
    let elapsed = start.elapsed();
    sim.assert_converged(SEED);

    let (mut hits, mut misses) = (0, 0);
    for site in 0..4usize {
        let (h, m) = sim.site(site).policy().memo_stats();
        hits += h;
        misses += m;
    }
    obs.set_gauge("policy.memo_hits", hits);
    obs.set_gauge("policy.memo_misses", misses);
    (elapsed, sim.site(0).document().to_string())
}

/// Best-of-`n` wall-clock for the seeded session (after one warmup).
fn session_ns(obs: &ObsHandle, n: u32) -> (u64, String) {
    let (_, doc) = run_session(obs);
    let mut best = u64::MAX;
    for _ in 0..n {
        let (t, d) = run_session(obs);
        assert_eq!(d, doc, "the seeded session is deterministic");
        best = best.min(t.as_nanos() as u64);
    }
    (best, doc)
}

/// Mean ns per call of `f`, with a warmup pass.
fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    for _ in 0..iters.min(1024) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    // Session overhead: identical seed, handle off vs recording.
    let off = ObsHandle::disabled();
    let (off_ns, doc_off) = session_ns(&off, 3);
    let rec = ObsHandle::recording(1 << 17);
    let (rec_ns, doc_rec) = session_ns(&rec, 3);
    assert_eq!(doc_off, doc_rec, "recording is behavior-neutral");
    assert_eq!(rec.overflowed(), 0, "ring sized for the whole session");
    let overhead_pct = (rec_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0;

    // Per-emit cost, disabled vs recording.
    let id = ReqId::new(1, 1);
    let emit_off = ObsHandle::disabled();
    let emit_off_ns = time_ns(20_000_000, || emit_off.emit(1, 0, EventKind::ReqExecuted { id }));
    let emit_rec = ObsHandle::recording(1 << 12);
    let emit_rec_ns = time_ns(2_000_000, || emit_rec.emit(1, 0, EventKind::ReqExecuted { id }));

    // Fold the ablation numbers into the recording run's registry so the
    // report is one self-contained JSON document.
    rec.set_gauge("bench.session_ns_disabled", off_ns);
    rec.set_gauge("bench.session_ns_recording", rec_ns);
    rec.set_gauge("bench.session_overhead_bp", (overhead_pct * 100.0).round().max(0.0) as u64);
    rec.set_gauge("bench.emit_ps_disabled", (emit_off_ns * 1000.0).round() as u64);
    rec.set_gauge("bench.emit_ps_recording", (emit_rec_ns * 1000.0).round() as u64);

    let report = rec.snapshot();
    let json = report.to_json();
    println!(
        "session: {:.2} ms disabled, {:.2} ms recording ({overhead_pct:+.1}% overhead)",
        off_ns as f64 / 1e6,
        rec_ns as f64 / 1e6,
    );
    println!("emit: {emit_off_ns:.2} ns disabled, {emit_rec_ns:.2} ns recording");
    println!("journal: {} events recorded across the timed sessions", rec.events().len());

    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("results");
    std::fs::create_dir_all(&out).expect("create results dir");
    out.push("BENCH_obs.json");
    std::fs::write(&out, json).expect("write BENCH_obs.json");
    eprintln!("wrote {}", out.display());
}
