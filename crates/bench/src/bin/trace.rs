//! Trace-correlation cost, emitted as JSON.
//!
//! Three measurements, mirroring the `obs` bin's ablation style:
//!
//! * **merge throughput** — events/second through the journal merger,
//!   on the real journal of a seeded chaos session and on a large
//!   synthetic multi-site journal (the acceptance floor is 100k
//!   events/s);
//! * **span-build cost** — ns/event to roll a merged trace up into
//!   request spans and publish the derived metrics;
//! * **flight-recorder overhead** — the same seeded session with plain
//!   recording vs recording plus an armed flight recorder and the sim
//!   time source; arming must stay within 5% of plain recording (the
//!   hook is only touched on failure).
//!
//! Run with `cargo run --release -p dce-bench --bin trace`; writes
//! `results/BENCH_trace.json` at the repository root.

use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::FaultPlan;
use dce_obs::{Event, EventKind, ObsHandle, ReqId};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use dce_trace::{build_spans, merge_events, merge_journals, publish};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0x7A_CE5EED;

/// One seeded chaos session (same workload shape as the `obs` bin).
/// Returns wall-clock time and the converged document.
fn run_session(obs: &ObsHandle) -> (Duration, String) {
    let users: Vec<u32> = (0..4).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        4,
        CharDocument::from_str("correlation"),
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

/// A large synthetic multi-site journal: `requests` full lifecycles
/// (generate + execute at the origin, receive + execute at every other
/// of `sites` sites), interleaved round-robin like a real broadcast.
fn synthetic_journal(sites: u32, requests: u64) -> Vec<Event> {
    let mut events = Vec::new();
    let mut seqs = vec![0u64; sites as usize];
    let mut lamport = 0u64;
    let mut push = |seqs: &mut Vec<u64>, lamport: &mut u64, site: u32, kind: EventKind| {
        seqs[site as usize] += 1;
        *lamport += 1;
        events.push(Event {
            site,
            doc: 0,
            seq: seqs[site as usize],
            version: 0,
            lamport: *lamport,
            at: *lamport,
            kind,
        });
    };
    for n in 1..=requests {
        let origin = (n % u64::from(sites)) as u32;
        let id = ReqId::new(origin, n / u64::from(sites) + 1);
        push(&mut seqs, &mut lamport, origin, EventKind::ReqGenerated { id });
        push(&mut seqs, &mut lamport, origin, EventKind::ReqExecuted { id });
        for remote in 0..sites {
            if remote == origin {
                continue;
            }
            push(&mut seqs, &mut lamport, remote, EventKind::ReqReceived { id });
            push(&mut seqs, &mut lamport, remote, EventKind::ReqExecuted { id });
        }
    }
    events
}

/// Best-of-`n` merge wall-clock over `journals`, with a warmup.
fn merge_ns(journals: &[Vec<Event>], n: u32) -> u64 {
    let warm = merge_journals(journals);
    assert!(warm.is_acyclic());
    let mut best = u64::MAX;
    for _ in 0..n {
        let start = Instant::now();
        let t = merge_journals(journals);
        best = best.min(start.elapsed().as_nanos() as u64);
        std::hint::black_box(t);
    }
    best
}

fn main() {
    // A real chaos journal for merge + span measurements — captured from
    // ONE session on a dedicated handle: reusing a handle across repeats
    // would collide request ids across runs and poison the merge.
    let cap = ObsHandle::recording(1 << 17);
    let (_, _) = run_session(&cap);
    let journal = cap.events();
    assert!(!journal.is_empty());
    assert_eq!(cap.overflowed(), 0, "ring sized for the whole session");

    // Plain-recording session timing (journal contents unused).
    let rec = ObsHandle::recording(1 << 17);
    let (plain_ns, doc_plain) = session_ns(&rec, 3);

    // Merge throughput: the real journal, and a 200k-event synthetic one.
    let real_merge_ns = merge_ns(std::slice::from_ref(&journal), 5);
    let real_eps = journal.len() as f64 / (real_merge_ns as f64 / 1e9);
    let synth = synthetic_journal(8, 25_000);
    let synth_len = synth.len(); // 16 events per request lifecycle = 400k
    let synth_merge_ns = merge_ns(std::slice::from_ref(&synth), 3);
    let synth_eps = synth_len as f64 / (synth_merge_ns as f64 / 1e9);
    assert!(
        real_eps >= 100_000.0 && synth_eps >= 100_000.0,
        "merge throughput below the 100k events/s floor: real {real_eps:.0}, synthetic {synth_eps:.0}"
    );

    // Span-build + publish cost per event.
    let trace = merge_events(&journal);
    let spans_start = Instant::now();
    let mut span_count = 0usize;
    const SPAN_ITERS: u32 = 20;
    for _ in 0..SPAN_ITERS {
        let report = build_spans(&trace);
        span_count = report.spans.len();
        std::hint::black_box(report);
    }
    let span_ns_per_event =
        spans_start.elapsed().as_nanos() as f64 / f64::from(SPAN_ITERS) / journal.len() as f64;

    // Flight-recorder overhead: plain recording vs recording + armed
    // recorder. The session converges, so the hook never fires; the cost
    // is the arm itself (one mutex store) — it must be noise.
    let armed = ObsHandle::recording(1 << 17);
    dce_trace::arm(&armed, SEED, std::env::temp_dir().join("dce-bench-flight"));
    let (armed_ns, doc_armed) = session_ns(&armed, 3);
    assert_eq!(doc_plain, doc_armed, "arming the recorder is behavior-neutral");
    let overhead_pct = (armed_ns as f64 - plain_ns as f64) / plain_ns as f64 * 100.0;
    assert!(
        overhead_pct <= 5.0,
        "armed flight recorder costs {overhead_pct:.1}% over plain recording (budget 5%)"
    );

    // Fold everything into one registry, including the trace.* derived
    // metrics from the real session's spans.
    let out_obs = ObsHandle::metrics_only();
    publish(&build_spans(&trace), &out_obs);
    out_obs.set_gauge("bench.journal_events", journal.len() as u64);
    out_obs.set_gauge("bench.spans", span_count as u64);
    out_obs.set_gauge("bench.merge_eps_real", real_eps.round() as u64);
    out_obs.set_gauge("bench.merge_eps_synthetic", synth_eps.round() as u64);
    out_obs.set_gauge("bench.synthetic_events", synth_len as u64);
    out_obs.set_gauge("bench.span_build_ps_per_event", (span_ns_per_event * 1000.0).round() as u64);
    out_obs.set_gauge("bench.session_ns_recording", plain_ns);
    out_obs.set_gauge("bench.session_ns_armed", armed_ns);
    out_obs.set_gauge("bench.flight_overhead_bp", (overhead_pct * 100.0).round().max(0.0) as u64);

    println!(
        "merge: {:.0} events/s real ({} events), {:.0} events/s synthetic ({} events)",
        real_eps,
        journal.len(),
        synth_eps,
        synth_len
    );
    println!("spans: {span_count} requests, {span_ns_per_event:.1} ns/event to build");
    println!(
        "flight: {:.2} ms plain, {:.2} ms armed ({overhead_pct:+.1}% overhead)",
        plain_ns as f64 / 1e6,
        armed_ns as f64 / 1e6,
    );

    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("results");
    std::fs::create_dir_all(&out).expect("create results dir");
    out.push("BENCH_trace.json");
    std::fs::write(&out, out_obs.snapshot().to_json()).expect("write BENCH_trace.json");
    eprintln!("wrote {}", out.display());
}
