//! Before/after numbers for the indexed hot paths, emitted as JSON.
//!
//! Two ablations, each pitting the preserved pre-refactor implementation
//! against the indexed one on the same workload, and the tombstone
//! buffer's per-operation costs as a session grows:
//!
//! * **policy_check** — `Check_Local` on a policy with 1 000 + 1 ordered
//!   authorizations: [`Policy::check_naive`] (the linear first-match
//!   scan) vs [`Policy::check`] (positional index + decision memo);
//! * **drain** — reception of a 1 000-request causal chain delivered in
//!   reverse order: [`ScanSite`] (the Algorithm-1 fixpoint scan) vs
//!   [`Site`] (the causal-readiness scheduler);
//! * **buffer** — at 6 k, 36 k and 100 k cells: local `generate`, remote
//!   `integrate`, and the lookups a client makes to build an edit
//!   (`visible_len`, `internal_target_pos`, `cell`), each the mean of 500
//!   operations, beside the same figures for the flat `Vec` buffer the
//!   chunked one replaced (`FLAT_US`). Reported only; nothing is asserted.
//!
//! Run with `cargo run --release -p dce-bench --bin hotpaths`; writes
//! `results/BENCH_hotpaths.json` at the repository root.

use dce_core::{Message, ScanSite, Site};
use dce_document::{Char, CharDocument, Op};
use dce_ot::Engine;
use dce_policy::{Action, Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Buffer sizes (cells) the buffer rows are taken at.
const BUFFER_CELLS: [usize; 3] = [6_000, 36_000, 100_000];

/// The buffer rows of this binary when the buffer was a flat `Vec<Cell>`
/// (µs per op of `generate`, `integrate` and the lookups, one row per
/// entry of `BUFFER_CELLS`), measured on the same 2-core x86-64 container
/// as the committed `results/BENCH_hotpaths.json`.
const FLAT_US: [[f64; 3]; 3] =
    [[46.81, 5.13, 26.264], [519.17, 55.91, 271.149], [1395.99, 156.01, 741.623]];

/// The `check_local` worst case from `benches/policy_check.rs`: `n`
/// irrelevant range entries ahead of the permissive catch-all.
fn policy_with(n: usize) -> Policy {
    let mut p = Policy::permissive([1, 2, 3]);
    for i in 0..n {
        let auth = Authorization::new(
            Subject::User(2),
            DocObject::Range { from: i + 10, to: i + 20 },
            [Right::Update],
            Sign::Plus,
        );
        p.add_auth_at(0, auth).unwrap();
    }
    p
}

/// Mean ns per call of `f`, with a warmup pass.
fn time_ns<F: FnMut() -> u64>(iters: u32, mut f: F) -> (f64, u64) {
    let mut sink = 0u64;
    for _ in 0..iters.min(16) {
        sink = sink.wrapping_add(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    (start.elapsed().as_nanos() as f64 / f64::from(iters), sink)
}

fn bench_policy_check(n: usize) -> (f64, f64) {
    let p = policy_with(n);
    let action = Action::new(Right::Insert, Some(2));
    assert_eq!(p.check_naive(1, &action), p.check(1, &action), "paths agree on the workload");
    let (naive_ns, s1) = time_ns(2_000, || u64::from(p.check_naive(1, &action).granted()));
    let (indexed_ns, s2) = time_ns(200_000, || u64::from(p.check(1, &action).granted()));
    std::hint::black_box((s1, s2));
    (naive_ns, indexed_ns)
}

fn bench_drain(n: usize) -> (f64, f64) {
    let d0 = CharDocument::from_str("");
    let policy = Policy::permissive([0, 1, 2]);
    let mut producer: Site<Char> = Site::new_user(1, 0, d0.clone(), policy.clone());
    let mut msgs: Vec<Message<Char>> =
        (0..n).map(|i| Message::Coop(producer.generate(Op::ins(i + 1, 'x')).unwrap())).collect();
    msgs.reverse();
    let observer: Site<Char> = Site::new_user(2, 0, d0, policy);

    let (scan_ns, a) = time_ns(6, || {
        let mut site = ScanSite::new(observer.clone());
        for m in &msgs {
            site.receive(m.clone()).unwrap();
        }
        assert_eq!(site.queued(), 0);
        assert_eq!(site.site().document().len(), n, "scan integrated the full chain");
        n as u64
    });
    let (sched_ns, b) = time_ns(40, || {
        let mut site = observer.clone();
        for m in &msgs {
            site.receive(m.clone()).unwrap();
        }
        assert_eq!(site.queued(), 0);
        assert_eq!(site.document().len(), n, "scheduler integrated the full chain");
        n as u64
    });
    std::hint::black_box((a, b));
    (scan_ns, sched_ns)
}

/// An edit valid at `e`, in the benchmark's 60/25/15 ins/del/up mix; the
/// lookups are the ones a client makes to build it.
fn mixed_edit(e: &Engine<Char>, rng: &mut StdRng) -> Op<Char> {
    let buf = e.buffer();
    let len = buf.visible_len();
    let letter = char::from(b'a' + rng.gen_range(0..26u8));
    let roll = rng.gen_range(0..100u32);
    if len == 0 || roll < 60 {
        return Op::ins(rng.gen_range(1..=len + 1), letter);
    }
    let pos = rng.gen_range(1..=len);
    let elem =
        buf.cell(buf.internal_target_pos(pos).expect("visible position")).expect("cell").elem;
    if roll < 85 {
        Op::del(pos, elem)
    } else {
        Op::up(pos, elem, letter)
    }
}

/// One engine generates the mix and a second integrates every request,
/// both compacting every 192 ops. At each size of `BUFFER_CELLS` the next
/// 500 ops are timed: mean µs of `generate`, `integrate` and the edit's
/// lookups.
fn bench_buffer() -> Vec<[f64; 3]> {
    const OPS: u32 = 500;
    let mut rng = StdRng::seed_from_u64(0xB0FF);
    let d0 = CharDocument::from_str("");
    let mut local = Engine::new(1, d0.clone());
    let mut remote = Engine::new(2, d0);
    let mut ops = 0u64;
    let mut step = |rng: &mut StdRng, t: Option<&mut [u128; 3]>| {
        let start = Instant::now();
        let op = mixed_edit(&local, rng);
        let built = Instant::now();
        let req = local.generate(op).expect("valid local edit");
        let generated = Instant::now();
        remote.integrate(&req).expect("ready remote request");
        let integrated = Instant::now();
        if let Some(t) = t {
            t[0] += (generated - built).as_nanos();
            t[1] += (integrated - generated).as_nanos();
            t[2] += (built - start).as_nanos();
        }
        ops += 1;
        if ops.is_multiple_of(192) {
            local.prune_stable(|_| true);
            remote.prune_stable(|_| true);
        }
        local.buffer().len()
    };
    BUFFER_CELLS
        .iter()
        .map(|&cells| {
            while step(&mut rng, None) < cells {}
            let mut t = [0u128; 3];
            for _ in 0..OPS {
                step(&mut rng, Some(&mut t));
            }
            t.map(|ns| ns as f64 / f64::from(OPS) / 1e3)
        })
        .collect()
}

fn main() {
    let auths = 1000usize;
    let (naive_ns, indexed_ns) = bench_policy_check(auths);
    let queued = 1000usize;
    let (scan_ns, sched_ns) = bench_drain(queued);
    let buffer_rows: Vec<String> = bench_buffer()
        .iter()
        .zip(BUFFER_CELLS.iter().zip(FLAT_US))
        .map(|(us, (cells, flat))| {
            format!(
                "    {{ \"cells\": {cells}, \"generate_us\": {:.2}, \"flat_generate_us\": {:.2}, \"integrate_us\": {:.2}, \"flat_integrate_us\": {:.2}, \"lookups_us\": {:.3}, \"flat_lookups_us\": {:.3} }}",
                us[0], flat[0], us[1], flat[1], us[2], flat[2]
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"policy_check\": {{\n    \"auths\": {auths},\n    \"naive_ns_per_check\": {naive_ns:.1},\n    \"indexed_ns_per_check\": {indexed_ns:.1},\n    \"speedup\": {:.1}\n  }},\n  \"drain_scaling\": {{\n    \"queued_requests\": {queued},\n    \"scan_ns_per_replay\": {scan_ns:.0},\n    \"scheduler_ns_per_replay\": {sched_ns:.0},\n    \"speedup\": {:.1}\n  }},\n  \"buffer\": [\n{}\n  ]\n}}\n",
        naive_ns / indexed_ns,
        scan_ns / sched_ns,
        buffer_rows.join(",\n"),
    );
    print!("{json}");

    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("results");
    std::fs::create_dir_all(&out).expect("create results dir");
    out.push("BENCH_hotpaths.json");
    std::fs::write(&out, json).expect("write BENCH_hotpaths.json");
    eprintln!("wrote {}", out.display());
}
