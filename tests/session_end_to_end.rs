//! Cross-crate end-to-end sessions: the full stack (document → OT →
//! policy → core → net → editor) under randomized latency, with dynamic
//! membership, log compaction, and paragraph documents.

use dce::core::Message;
use dce::document::Paragraph;
use dce::document::{Char, CharDocument, Op};
use dce::editor::{PageSession, TextSession};
use dce::net::sim::{Latency, SimNet};
use dce::policy::{AdminOp, DocObject, Policy, Right, Subject};

#[test]
fn long_mixed_session_converges_across_seeds() {
    for seed in 0..12 {
        let mut s = TextSession::open("seed document", 4, seed, Latency::Uniform(1, 250));
        s.insert_str(1, 1, "one ").unwrap();
        s.insert_str(2, 1, "two ").unwrap();
        s.insert_str(3, 1, "three ").unwrap();
        s.delete_range(0, 1, 4).unwrap();
        s.sync();
        assert!(s.converged(), "seed {seed}");
        s.revoke(Subject::User(3), DocObject::Document, [Right::Insert]).unwrap();
        s.insert_str(1, 1, "more ").unwrap();
        s.sync();
        assert!(s.converged(), "seed {seed} after revocation");
        assert!(s.insert_str(3, 1, "blocked").is_err());
    }
}

#[test]
fn membership_churn_with_compaction() {
    let mut s = TextSession::open("", 2, 99, Latency::Uniform(1, 60));
    s.insert_str(1, 1, "alpha").unwrap();
    s.sync();
    let c = s.join(10).unwrap();
    s.sync();
    assert_eq!(s.text(c), "alpha");
    s.insert_str(c, 6, " beta").unwrap();
    s.sync();
    assert!(s.converged());
    let reclaimed = s.compact();
    assert!(reclaimed > 0);
    let d = s.join(11).unwrap();
    s.sync();
    assert_eq!(s.text(d), "alpha beta");
    s.insert_str(d, 1, "0 ").unwrap();
    s.leave(c);
    s.insert_str(1, 1, "* ").unwrap();
    s.sync();
    assert!(s.converged());
    assert!(s.text(0).contains("alpha beta"));
}

/// Hands `msg` straight to each site in `to`, bypassing the network, so
/// a test decides exactly which replica has seen what.
fn hand(s: &mut TextSession, to: &[usize], msg: &Message<Char>) {
    for &i in to {
        s.net_mut().site_mut(i).receive(msg.clone()).unwrap();
    }
}

/// `a1` (from `a_site`, inserting at 1) and its validation land
/// everywhere, while the concurrent `c1` (from `c_site`, inserting at
/// `c_pos`) is still in flight to site 3 when the session compacts.
/// Pruning `a1` at site 3 would leave `c1` nothing to transform against
/// there: it would integrate untransformed, and site 3 would read, say,
/// `"yxabc"` where everyone else reads `"xyabc"`.
fn late_concurrent_request_survives_compaction(a_site: usize, c_site: usize, c_pos: usize) {
    let mut s = TextSession::open("abc", 4, 7, Latency::Fixed(1));
    let a1 = Message::Coop(s.net_mut().site_mut(a_site).generate(Op::ins(1, 'x')).unwrap());
    let c1 = Message::Coop(s.net_mut().site_mut(c_site).generate(Op::ins(c_pos, 'y')).unwrap());
    hand(&mut s, &[0, c_site, 3], &a1);
    for v in s.net_mut().site_mut(0).drain_outbox() {
        hand(&mut s, &[a_site, c_site, 3], &v);
    }
    hand(&mut s, &[0, a_site], &c1);
    let c1_validation = s.net_mut().site_mut(0).drain_outbox();
    for v in &c1_validation {
        hand(&mut s, &[a_site, c_site], v);
    }

    assert!(s.compact() > 0, "the sites holding both requests still compact");

    hand(&mut s, &[3], &c1);
    for v in &c1_validation {
        hand(&mut s, &[3], v);
    }
    s.sync();
    let texts: Vec<String> = (0..4).map(|i| s.text(i)).collect();
    assert!(
        texts.iter().all(|t| *t == texts[0]),
        "a1 from {a_site}, c1 from {c_site} at {c_pos}: {texts:?}"
    );
    assert!(s.converged());
}

/// Both tie-break orders of two insertions at one position, and a `c1`
/// past `a1`'s position, where no tie-break can hide the missing
/// transformation whichever site wrote `a1`.
#[test]
fn compaction_waits_for_a_request_still_in_flight() {
    for (a_site, c_site) in [(1, 2), (2, 1)] {
        for c_pos in [1, 3] {
            late_concurrent_request_survives_compaction(a_site, c_site, c_pos);
        }
    }
}

#[test]
fn page_session_with_protected_sections() {
    let blocks = vec![Paragraph::styled("Spec", "h1"), Paragraph::new("Draft body.")];
    let mut s = PageSession::open(blocks, 3, 5, Latency::Uniform(1, 40));
    s.revoke(Subject::All, DocObject::Element(1), [Right::Update, Right::Delete]).unwrap();
    s.sync();
    assert!(s.edit_block(1, 1, "nope").is_err());
    s.edit_block(2, 2, "Reviewed body.").unwrap();
    s.insert_block(1, 3, Paragraph::new("Appendix.")).unwrap();
    s.sync();
    assert!(s.converged());
    let html = s.render_html(0);
    assert!(html.contains("<h1>Spec</h1>"));
    assert!(html.contains("Reviewed body."));
    assert!(html.contains("Appendix."));
}

#[test]
fn simnet_mass_random_workload() {
    for seed in 0..6 {
        let users: Vec<u32> = (0..5).collect();
        let mut sim: SimNet<dce::document::Char> = SimNet::group(
            5,
            CharDocument::from_str("abcdefgh"),
            Policy::permissive(users),
            seed,
            Latency::Uniform(1, 500),
        );
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for round in 0..10 {
            for site in 0..5usize {
                let len = sim.site(site).document().len();
                if rng.gen_bool(0.6) {
                    let op = if len == 0 || rng.gen_bool(0.6) {
                        Op::ins(rng.gen_range(1..=len + 1), (b'a' + round as u8) as char)
                    } else {
                        let p = rng.gen_range(1..=len);
                        let elem = *sim.site(site).document().get(p).unwrap();
                        Op::Del { pos: p, elem }
                    };
                    let _ = sim.submit_coop(site, op);
                }
            }
            if rng.gen_bool(0.3) {
                let _ = sim.submit_admin(0, AdminOp::AddUser(100 + round as u32));
            }
            // partial progress
            for _ in 0..rng.gen_range(0..30) {
                if !sim.step() {
                    break;
                }
            }
        }
        sim.run_to_quiescence();
        assert!(sim.converged(), "seed {seed}");
    }
}
