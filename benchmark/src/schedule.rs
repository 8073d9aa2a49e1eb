//! The seeded input schedule: everything the benchmark feeds the program
//! is decided here, up front, from `--seed` alone — intended-start
//! times, op kinds, positions (as a fraction of whatever the document's
//! length turns out to be) and letters. The program under test sees only
//! the resulting operations.
//!
//! Integer arithmetic only, and a PRNG of our own (SplitMix64) rather
//! than the vendored `rand` stand-in, so a seed's schedule is the same
//! bytes on every build; [`Schedule::hash`] is what the honesty test
//! pins.

use crate::Workload;

/// SplitMix64: tiny, seedable, and fixed forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (stream `stream` keeps the members'
    /// sequences independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias at these sizes is
    /// below anything the benchmark can resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What an edit does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Insert a letter.
    Ins,
    /// Delete the element at the position.
    Del,
    /// Overwrite the element at the position.
    Up,
}

/// One scheduled cooperative operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Intended start, nanoseconds after the measured window opens
    /// (0 for closed-loop workloads, which have no clock).
    pub at_ns: u64,
    /// Insert / delete / update.
    pub kind: EditKind,
    /// Position as a fraction of the document length at generation time,
    /// in units of 2⁻³².
    pub pos_frac: u32,
    /// The letter inserted or written (`b'a'..=b'z'`).
    pub letter: u8,
}

impl Edit {
    /// The 1-based position in a document of `len` elements that this
    /// edit addresses: `1..=len+1` for an insertion, `1..=len` otherwise.
    pub fn position(&self, len: usize) -> usize {
        let slots = if self.kind == EditKind::Ins { len + 1 } else { len.max(1) };
        1 + ((u64::from(self.pos_frac) * slots as u64) >> 32) as usize
    }
}

/// One scheduled administrative proposal of the `revoke` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminStep {
    /// Intended start, nanoseconds after the measured window opens.
    pub at_ns: u64,
    /// `true`: add the negative authorization; `false`: withdraw it.
    pub add: bool,
    /// Index into `Right::DYNAMIC` of the right being revoked.
    pub right: u8,
}

/// The op mix, percent: insert / delete / update.
const MIX: (u64, u64) = (60, 85);

/// Closed-loop ops prepared per member and second of run — several
/// times what the loop achieves, so the schedule never runs dry.
const CLOSED_OPS_PER_S: u64 = 4_000;

/// Warm-up ops per member (closed loop, unmeasured, part of set-up).
pub const WARMUP_OPS: usize = 300;

/// How long a `revoke` restriction stays in force before the `DelAuth`
/// that withdraws it. Shorter than the 100 ms between restrictions, so
/// at most one is active and position 0 always names it.
pub const REVOKE_HOLD_NS: u64 = 50_000_000;

/// Everything one run feeds the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Unmeasured warm-up edits, per member.
    pub warmup: [Vec<Edit>; 2],
    /// Measured edits, per member.
    pub edits: [Vec<Edit>; 2],
    /// Administrative proposals (member 1 proposes; empty outside
    /// `revoke`).
    pub admin: Vec<AdminStep>,
}

fn edit(rng: &mut Rng, at_ns: u64) -> Edit {
    let roll = rng.below(100);
    let kind = if roll < MIX.0 {
        EditKind::Ins
    } else if roll < MIX.1 {
        EditKind::Del
    } else {
        EditKind::Up
    };
    Edit { at_ns, kind, pos_frac: rng.next_u64() as u32, letter: b'a' + rng.below(26) as u8 }
}

/// An open-loop stream: gaps uniform in `mean/2 ..= 3·mean/2`, summed in
/// closed form (each intended start is fixed before the run begins).
fn open_stream(rng: &mut Rng, mean_gap_ns: u64, window_ns: u64) -> Vec<Edit> {
    let mut out = Vec::with_capacity((window_ns / mean_gap_ns) as usize + 16);
    let mut at = rng.below(mean_gap_ns);
    while at < window_ns {
        out.push(edit(rng, at));
        at += mean_gap_ns / 2 + rng.below(mean_gap_ns + 1);
    }
    out
}

fn closed_stream(rng: &mut Rng, n: usize) -> Vec<Edit> {
    (0..n).map(|_| edit(rng, 0)).collect()
}

impl Schedule {
    /// Builds the schedule of segment `segment` of `workload` for `seed`,
    /// over a measured window of `window_ns`.
    pub fn build(workload: Workload, seed: u64, segment: u64, window_ns: u64) -> Schedule {
        let stream = |k: u64| Rng::new(seed, segment * 16 + k);
        let mut rngs = [stream(1), stream(2)];
        let warmup = [
            closed_stream(&mut stream(11), WARMUP_OPS),
            closed_stream(&mut stream(12), WARMUP_OPS),
        ];
        let edits = match workload.coop_gap_ns() {
            Some(gap) => [
                open_stream(&mut rngs[0], gap, window_ns),
                open_stream(&mut rngs[1], gap, window_ns),
            ],
            None => {
                let n = (CLOSED_OPS_PER_S * window_ns / 1_000_000_000).max(1_000) as usize;
                [closed_stream(&mut rngs[0], n), closed_stream(&mut rngs[1], n)]
            }
        };
        let mut admin = Vec::new();
        if workload == Workload::Revoke {
            // 20 admin ops/s: a restriction every 100 ms (± 20 ms), each
            // withdrawn `REVOKE_HOLD_NS` later.
            let mut rng = stream(3);
            let mut at = rng.below(100_000_000);
            while at + REVOKE_HOLD_NS < window_ns {
                let right = rng.below(3) as u8;
                admin.push(AdminStep { at_ns: at, add: true, right });
                admin.push(AdminStep { at_ns: at + REVOKE_HOLD_NS, add: false, right });
                at += 80_000_000 + rng.below(40_000_001);
            }
        }
        Schedule { warmup, edits, admin }
    }

    /// FNV-1a over every field of the schedule: two builds of one seed
    /// must agree on this.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for stream in self.warmup.iter().chain(self.edits.iter()) {
            eat(stream.len() as u64);
            for e in stream {
                eat(e.at_ns);
                eat(e.kind as u64);
                eat(u64::from(e.pos_frac));
                eat(u64::from(e.letter));
            }
        }
        eat(self.admin.len() as u64);
        for a in &self.admin {
            eat(a.at_ns);
            eat(u64::from(a.add));
            eat(u64::from(a.right));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_stay_in_range() {
        let mut rng = Rng::new(7, 1);
        for len in [0usize, 1, 2, 19, 5_000] {
            for _ in 0..500 {
                let e = edit(&mut rng, 0);
                let pos = e.position(len);
                let max = if e.kind == EditKind::Ins { len + 1 } else { len.max(1) };
                assert!((1..=max).contains(&pos), "{e:?} on len {len} gave {pos}");
            }
        }
    }

    #[test]
    fn open_streams_hold_the_offered_rate() {
        let s = Schedule::build(Workload::Typing, 42, 0, 10_000_000_000);
        for stream in &s.edits {
            // 200 ops/s ± a few percent over 10 s.
            assert!((1_900..=2_100).contains(&stream.len()), "{} ops", stream.len());
            assert!(stream.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        }
        assert!(s.admin.is_empty());
    }

    #[test]
    fn revoke_alternates_one_restriction_at_a_time() {
        let s = Schedule::build(Workload::Revoke, 42, 0, 10_000_000_000);
        assert!(s.admin.len() >= 180, "{} admin steps", s.admin.len());
        for pair in s.admin.chunks(2) {
            assert!(pair[0].add && !pair[1].add);
            assert_eq!(pair[1].at_ns - pair[0].at_ns, REVOKE_HOLD_NS);
        }
        assert!(s.admin.windows(2).all(|w| w[0].at_ns < w[1].at_ns), "never two in force");
    }
}
