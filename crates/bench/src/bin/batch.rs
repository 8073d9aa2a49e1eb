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
//! A third column runs the same two members the way the socket server
//! does: as default [`Engine`]s behind an administrator hub that relays
//! every request and validation and, after each catch-up (both members
//! drained, so both are fully acknowledged), vouches the hub's clock for
//! them and relays the stability horizon as heartbeats. The members
//! compact on those heartbeats, so at the same session lengths (requests
//! integrated by member 2) their logs stay near [`COMPACT_WATERMARK`] and
//! the **relayed** reception p50 should be flat in session length, up to
//! the tombstone buffer's `O(cells)` position mapping (the document keeps
//! growing with the insertions).
//!
//! Run with `cargo run --release -p dce-bench --bin batch`; writes
//! `results/BENCH_batch.json` at the repository root.

use dce_core::{DocumentId, Engine, Message, Site, COMPACT_WATERMARK};
use dce_document::{Char, CharDocument, Op};
use dce_policy::Policy;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

const WINDOW: usize = 8;
const COLD_REPS: usize = 15;
const WARM_ARRIVALS: usize = 400;
/// Rounds between the relayed session's catch-ups (horizon passes).
const PASS_EVERY: usize = 32;

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

/// The same two members as default [`Engine`]s behind an administrator
/// hub that relays the stability horizon (see the module docs).
struct Relayed {
    hub: Site<Char>,
    members: [Engine<Char>; 2],
    down: [VecDeque<Message<Char>>; 2],
    round: usize,
}

impl Relayed {
    const DOC: DocumentId = DocumentId::ROOT;

    fn new() -> Self {
        let policy = Policy::permissive([0, 1, 2]);
        let d0 = CharDocument::from_str("the quick brown fox");
        let members = [1, 2].map(|u| {
            let e = Engine::new_user(u, 0);
            e.create_document(Self::DOC, d0.clone(), policy.clone()).unwrap();
            e
        });
        Relayed {
            hub: Site::new_admin(0, d0, policy),
            members,
            down: [VecDeque::new(), VecDeque::new()],
            round: 0,
        }
    }

    /// Member `m` (0 or 1) takes its next relayed message; member 2's
    /// receptions of cooperative requests — the `Session`'s only kind —
    /// are timed into `timed`, compactions they trigger included.
    fn take(&mut self, m: usize, timed: &mut Vec<u64>) {
        let msg = self.down[m].pop_front().expect("a relayed message");
        let coop = matches!(msg, Message::Coop(_));
        let start = Instant::now();
        self.members[m].receive(Self::DOC, msg).unwrap();
        if m == 1 && coop {
            timed.push(start.elapsed().as_nanos() as u64);
        }
    }

    /// One edit per member through the hub, the `Session` lag, and every
    /// `PASS_EVERY` rounds a catch-up plus a relayed horizon.
    fn round(&mut self, timed: &mut Vec<u64>) {
        let i = self.round;
        self.round += 1;
        for (m, salt) in [(0usize, 0usize), (1, 11)] {
            let op = self.members[m].with(Self::DOC, |s| edit(s, i + salt)).unwrap();
            let q = self.members[m].generate(Self::DOC, op).unwrap();
            self.hub.receive(q.clone()).unwrap();
            self.down[1 - m].push_back(q);
            for v in self.hub.drain_outbox() {
                self.down[0].push_back(v.clone());
                self.down[1].push_back(v);
            }
        }
        if self.round.is_multiple_of(PASS_EVERY) {
            for m in 0..2 {
                while !self.down[m].is_empty() {
                    self.take(m, timed);
                }
            }
            let clock = self.hub.engine().clock().clone();
            for u in [1, 2] {
                self.hub.receive(Message::Heartbeat { from: u, clock: clock.clone() }).unwrap();
            }
            self.hub.auto_compact();
            for (m, other) in [(0usize, 2u32), (1, 1)] {
                self.down[m].push_back(Message::Heartbeat { from: 0, clock: clock.clone() });
                self.down[m].push_back(Message::Heartbeat { from: other, clock: clock.clone() });
            }
        }
        for m in 0..2 {
            while self.down[m].len() > WINDOW {
                self.take(m, timed);
            }
        }
    }

    fn session_len(&self) -> usize {
        self.members[1].with(Self::DOC, |s| s.engine().clock().total() as usize).unwrap()
    }

    fn log_len(&self) -> usize {
        self.members[1].with(Self::DOC, |s| s.engine().log().len() + s.admin_log().len()).unwrap()
    }
}

/// Member 2's reception p50 over `WARM_ARRIVALS` arrivals once the relayed
/// session reached `len` requests, and its combined log length then.
fn relayed_point(session: &mut Relayed, len: usize) -> (u64, usize) {
    let mut sink = Vec::new();
    while session.session_len() < len {
        session.round(&mut sink);
    }
    let log_len = session.log_len();
    let mut timed = Vec::new();
    while timed.len() < WARM_ARRIVALS {
        session.round(&mut timed);
    }
    (median(timed), log_len)
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
    relayed_ns: u64,
    relayed_log_len: usize,
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
        relayed_ns: 0,
        relayed_log_len: 0,
    }
}

fn main() {
    let mut session = Session::new();
    let mut relayed = Relayed::new();
    let mut points: Vec<Point> = [1000, 4000, 8000].map(|h| bench_point(&mut session, h)).into();
    for p in &mut points {
        (p.relayed_ns, p.relayed_log_len) = relayed_point(&mut relayed, p.h);
    }
    let mut rows = Vec::new();
    for p in &points {
        let speedup = p.cold_ns as f64 / p.warm_ns as f64;
        eprintln!(
            "|H|={}: cold {} ns ({} transposes), warm {} ns ({:.1} transposes/arrival), {speedup:.1}x; relayed {} ns at log {}",
            p.h, p.cold_ns, p.cold_transposes, p.warm_ns, p.warm_transposes, p.relayed_ns, p.relayed_log_len
        );
        rows.push(format!(
            "    {{\n      \"h\": {},\n      \"cold_ns\": {},\n      \"cold_transposes\": {},\n      \"warm_ns_p50\": {},\n      \"warm_transposes_per_arrival\": {:.1},\n      \"speedup\": {speedup:.1},\n      \"relayed_ns_p50\": {},\n      \"relayed_log_len\": {}\n    }}",
            p.h, p.cold_ns, p.cold_transposes, p.warm_ns, p.warm_transposes, p.relayed_ns, p.relayed_log_len
        ));
    }
    let at_4k = points.iter().find(|p| p.h == 4000).expect("4k point");
    let headline = at_4k.cold_ns as f64 / at_4k.warm_ns as f64;
    let flatness = points[2].relayed_ns as f64 / points[0].relayed_ns as f64;

    let json = format!(
        "{{\n  \"workload\": {{\n    \"window\": {WINDOW},\n    \"mix\": \"ins 60 / del 25 / up 15\",\n    \"note\": \"member 2 of a two-member exchange with a window of requests in flight each way: cold = the next arrival at a clone (full partition rebuild, median of {COLD_REPS}), warm = the live member's kept partition (median of {WARM_ARRIVALS} arrivals), both uncompacted at |H| = h; relayed = the same members as default engines behind a hub relaying the stability horizon every {PASS_EVERY} rounds, at session length h (requests integrated), compacting at watermark {COMPACT_WATERMARK}\"\n  }},\n  \"points\": [\n{}\n  ],\n  \"speedup_at_4k\": {headline:.1},\n  \"relayed_8k_over_1k\": {flatness:.2}\n}}\n",
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
    for p in &points {
        assert!(
            p.relayed_log_len <= 4 * COMPACT_WATERMARK,
            "relayed member log not bounded at session length {}: {}",
            p.h,
            p.relayed_log_len
        );
    }
    // What growth remains is the tombstone buffer's O(cells) position
    // mapping (the document keeps growing), not |H|.
    assert!(flatness <= 3.0, "relayed reception not flat in session length: 8k/1k = {flatness:.2}");
}
