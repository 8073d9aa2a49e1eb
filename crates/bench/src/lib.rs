//! # dce-bench — workload builders for the evaluation harness
//!
//! Shared machinery for regenerating the paper's evaluation (§6): building
//! sites whose cooperative log `H` has a prescribed size and insertion
//! percentage, plus timing helpers. The binaries (`fig7`, `figures`,
//! `complexity`, `latency`) and the Criterion benches all build on this.

pub mod workload;

use dce_core::{CoopRequest, Site};
use dce_document::{Char, CharDocument, Op};
use dce_policy::{Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Users participating in benchmark groups.
pub const BENCH_USERS: [u32; 3] = [0, 1, 2];

/// Builds the permissive benchmark policy with `redundant` extra
/// (shadowed) authorizations — §6: "we suppose that the policy is not
/// optimized (i.e. it contains authorization redundancies)".
pub fn bench_policy(redundant: usize) -> Policy {
    let mut p = Policy::permissive(BENCH_USERS);
    for i in 0..redundant {
        let auth = Authorization::new(
            Subject::User(1),
            DocObject::Document,
            [Right::ALL[i % 4]],
            Sign::Plus,
        );
        // Appended after the catch-all grant: pure redundancy.
        p.add_auth_at(p.authorizations().len(), auth).expect("in range");
    }
    p
}

/// Builds a user site (user 1) whose log holds exactly `h` requests with
/// approximately `ins_pct` percent insertions, plus a second site whose
/// single pending request is concurrent to the whole log (the reception
/// workload). The initial document is sized so that a 0 % insertion mix
/// (deletions only) never runs dry.
pub fn build_loaded_site(
    h: usize,
    ins_pct: u32,
    redundant_auths: usize,
    seed: u64,
) -> (Site<Char>, CoopRequest<Char>) {
    let d0: String = ('a'..='z').cycle().take(h + 16).collect();
    let d0 = CharDocument::from_str(&d0);
    let policy = bench_policy(redundant_auths);

    let mut site: Site<Char> = Site::new_user(1, 0, d0.clone(), policy.clone());
    let mut remote: Site<Char> = Site::new_user(2, 0, d0, policy);
    // The remote request is generated first (empty context): when it is
    // delivered after the log is built, it is concurrent to everything —
    // the paper's stated worst case for `Receive_Coop_Request`.
    let pending = remote.generate(Op::ins(1, 'R')).expect("permissive policy");

    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..h {
        let len = site.document().len();
        let op = if rng.gen_range(0..100) < ins_pct || len == 0 {
            let pos = rng.gen_range(1..=len + 1);
            Op::ins(pos, char::from(b'a' + (i % 26) as u8))
        } else {
            let pos = rng.gen_range(1..=len);
            let elem = *site.document().get(pos).unwrap();
            Op::Del { pos, elem }
        };
        site.generate(op).expect("permissive policy");
    }
    debug_assert_eq!(site.engine().log().len(), h);
    (site, pending)
}

/// Times `f` on fresh clones of `site`, returning the median of `reps`
/// runs (cloning excluded from the measurement).
pub fn time_on_clones<T>(
    site: &Site<Char>,
    reps: usize,
    mut f: impl FnMut(&mut Site<Char>) -> T,
) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let mut clone = site.clone();
            let start = Instant::now();
            std::hint::black_box(f(&mut clone));
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Measures `t1` — the paper's `Generate_Coop_Request` time — on a site
/// with the given loaded log: one insertion at a random position.
pub fn measure_t1(site: &Site<Char>, reps: usize) -> Duration {
    time_on_clones(site, reps, |s| {
        let len = s.document().len();
        s.generate(Op::ins(len / 2 + 1, 'T')).expect("granted")
    })
}

/// Measures `t2` — the paper's `Receive_Coop_Request` time — delivering
/// the pending fully-concurrent remote request.
pub fn measure_t2(site: &Site<Char>, pending: &CoopRequest<Char>, reps: usize) -> Duration {
    time_on_clones(site, reps, |s| {
        s.receive(dce_core::Message::Coop(pending.clone())).expect("protocol ok")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_site_matches_requested_shape() {
        let (site, pending) = build_loaded_site(200, 100, 0, 1);
        assert_eq!(site.engine().log().len(), 200);
        assert_eq!(site.engine().log().ins_count(), 200);
        assert!(site.engine().log().is_canonical());
        // 0% insertions: all deletions.
        let (site, _) = build_loaded_site(150, 0, 0, 2);
        assert_eq!(site.engine().log().len(), 150);
        assert_eq!(site.engine().log().ins_count(), 0);
        // The pending request integrates cleanly.
        let (mut site, _) = build_loaded_site(50, 50, 0, 3);
        site.receive(dce_core::Message::Coop(pending)).unwrap();
        assert_eq!(site.engine().log().len(), 51);
    }

    #[test]
    fn redundant_policy_grows() {
        let p = bench_policy(25);
        assert_eq!(p.authorizations().len(), 26);
    }

    #[test]
    fn measurements_produce_nonzero_times() {
        let (site, pending) = build_loaded_site(300, 50, 10, 4);
        let t1 = measure_t1(&site, 3);
        let t2 = measure_t2(&site, &pending, 3);
        assert!(t1.as_nanos() > 0);
        assert!(t2.as_nanos() > 0);
    }
}
