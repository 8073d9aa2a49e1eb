//! Cold vs warm `ComputeFF` partition at a member, as JSON.
//!
//! The workload is the closed-loop member shape: two members exchange
//! edits (ins 60 / del 25 / up 15) with a window of 8 of each one's
//! requests in flight, so every reception is concurrent with the
//! receiver's latest edits, and neither member compacts. At log lengths
//! `|H|` ∈ {1k, 4k, 8k} member 2 is timed two ways on the same arrivals:
//!
//! * **cold** — a clone of the member (clones carry no partition) takes
//!   the next arrival: a full partition rebuild from the first concurrent
//!   log entry, `O(|Hdu| · window)` transpositions, the paper's linear
//!   `Receive_Coop_Request`;
//! * **warm** — the live member takes that arrival and the next ones,
//!   advancing the partition it kept from the previous reception: only
//!   the suffix entries the new context contains move, `O(window)`.
//!
//! The cold and the warm member must land on the same replica digest
//! after the shared arrival — asserted before any number is reported
//! (the differential oracles live in `dce-ot/tests/partition_differential.rs`
//! and in every debug-build reception; this bin sizes the win they
//! license).
//!
//! Run with `cargo run --release -p dce-bench --bin batch`; writes
//! `results/BENCH_batch.json` at the repository root.

use dce_core::{Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_policy::Policy;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

const WINDOW: usize = 8;
const COLD_REPS: usize = 15;
const WARM_ARRIVALS: usize = 400;

/// Edit `i` at `site`: ins 60 / del 25 / up 15 (the benchmark's mix).
fn edit(site: &Site<Char>, i: usize) -> Op<Char> {
    let doc = site.document();
    let len = doc.len();
    let pos = 1 + (i * 7919) % len.max(1);
    match i % 20 {
        _ if len == 0 => Op::ins(1, 'a'),
        0..=11 => Op::ins(1 + (i * 104_729) % (len + 1), char::from(b'a' + (i % 26) as u8)),
        12..=16 => Op::Del { pos, elem: *doc.get(pos).unwrap() },
        _ => Op::up(pos, *doc.get(pos).unwrap(), char::from(b'A' + (i % 26) as u8)),
    }
}

/// Two members with `WINDOW` of each one's requests in flight.
struct Session {
    s1: Site<Char>,
    s2: Site<Char>,
    to_s1: VecDeque<Message<Char>>,
    to_s2: VecDeque<Message<Char>>,
    round: usize,
}

impl Session {
    fn new() -> Self {
        let policy = Policy::permissive([0, 1, 2]);
        let d0 = CharDocument::from_str("the quick brown fox");
        Session {
            s1: Site::new_user(1, 0, d0.clone(), policy.clone()),
            s2: Site::new_user(2, 0, d0, policy),
            to_s1: VecDeque::new(),
            to_s2: VecDeque::new(),
            round: 0,
        }
    }

    /// One edit per member, then each takes what left its window; the
    /// ns of member 2's receptions are pushed to `timed`.
    fn round(&mut self, timed: &mut Vec<u64>) {
        let i = self.round;
        self.round += 1;
        self.to_s2.push_back(Message::Coop(self.s1.generate(edit(&self.s1, i)).unwrap()));
        self.to_s1.push_back(Message::Coop(self.s2.generate(edit(&self.s2, i + 11)).unwrap()));
        while self.to_s1.len() > WINDOW {
            self.s1.receive(self.to_s1.pop_front().unwrap()).unwrap();
        }
        while self.to_s2.len() > WINDOW {
            let m = self.to_s2.pop_front().unwrap();
            let start = Instant::now();
            self.s2.receive(m).unwrap();
            timed.push(start.elapsed().as_nanos() as u64);
        }
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn transposes(site: &Site<Char>) -> u64 {
    site.engine().metrics().partition_transposes
}

struct Point {
    h: usize,
    cold_ns: u64,
    warm_ns: u64,
    cold_transposes: u64,
    warm_transposes: f64,
}

/// Grows the session to `h` entries in member 2's log, then times the
/// next arrival cold and the following `WARM_ARRIVALS` warm.
fn bench_point(session: &mut Session, h: usize) -> Point {
    let mut sink = Vec::new();
    while session.s2.engine().log().len() < h {
        session.round(&mut sink);
    }
    let next = session.to_s2.pop_front().expect("an arrival in flight");

    let mut cold_ns = Vec::new();
    let mut cold_transposes = 0;
    let mut cold_digest = 0;
    for _ in 0..COLD_REPS {
        let mut cold = session.s2.clone();
        let before = transposes(&cold);
        let start = Instant::now();
        cold.receive(next.clone()).unwrap();
        cold_ns.push(start.elapsed().as_nanos() as u64);
        cold_transposes = transposes(&cold) - before;
        cold_digest = cold.replica_digest();
    }

    let before = transposes(&session.s2);
    let start = Instant::now();
    session.s2.receive(next).unwrap();
    let mut warm_ns = vec![start.elapsed().as_nanos() as u64];
    assert_eq!(session.s2.replica_digest(), cold_digest, "cold and warm receptions diverged");
    while warm_ns.len() < WARM_ARRIVALS {
        session.round(&mut warm_ns);
    }
    let warm_transposes = (transposes(&session.s2) - before) as f64 / warm_ns.len() as f64;
    Point {
        h,
        cold_ns: median(cold_ns),
        warm_ns: median(warm_ns),
        cold_transposes,
        warm_transposes,
    }
}

fn main() {
    let mut session = Session::new();
    let points: Vec<Point> = [1000, 4000, 8000].map(|h| bench_point(&mut session, h)).into();
    let mut rows = Vec::new();
    for p in &points {
        let speedup = p.cold_ns as f64 / p.warm_ns as f64;
        eprintln!(
            "|H|={}: cold {} ns ({} transposes), warm {} ns ({:.1} transposes/arrival), {speedup:.1}x",
            p.h, p.cold_ns, p.cold_transposes, p.warm_ns, p.warm_transposes
        );
        rows.push(format!(
            "    {{\n      \"h\": {},\n      \"cold_ns\": {},\n      \"cold_transposes\": {},\n      \"warm_ns_p50\": {},\n      \"warm_transposes_per_arrival\": {:.1},\n      \"speedup\": {speedup:.1}\n    }}",
            p.h, p.cold_ns, p.cold_transposes, p.warm_ns, p.warm_transposes
        ));
    }
    let at_4k = points.iter().find(|p| p.h == 4000).expect("4k point");
    let headline = at_4k.cold_ns as f64 / at_4k.warm_ns as f64;

    let json = format!(
        "{{\n  \"workload\": {{\n    \"window\": {WINDOW},\n    \"mix\": \"ins 60 / del 25 / up 15\",\n    \"note\": \"member 2 of a two-member exchange with a window of requests in flight each way: cold = the next arrival at a clone (full partition rebuild, median of {COLD_REPS}), warm = the live member's kept partition (median of {WARM_ARRIVALS} arrivals)\"\n  }},\n  \"points\": [\n{}\n  ],\n  \"speedup_at_4k\": {headline:.1}\n}}\n",
        rows.join(",\n")
    );
    print!("{json}");

    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    out.push("results");
    std::fs::create_dir_all(&out).expect("create results dir");
    out.push("BENCH_batch.json");
    std::fs::write(&out, json).expect("write BENCH_batch.json");
    eprintln!("wrote {}", out.display());
    assert!(headline >= 5.0, "warm partition under 5x faster than cold at |H| = 4k: {headline:.1}");
}
