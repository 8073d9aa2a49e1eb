//! Observability is *not* replicated state: whether a site records or
//! not, its digests are identical, and the policy memo counters never
//! leak into state comparison.

use dce_core::{Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_obs::ObsHandle;
use dce_policy::{Action, Policy, Right};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

fn digest(site: &Site<Char>) -> u64 {
    let mut h = DefaultHasher::new();
    site.digest_into(&mut h);
    h.finish()
}

fn pair() -> (Site<Char>, Site<Char>) {
    let d0 = CharDocument::from_str("abc");
    let p = Policy::permissive([0, 1]);
    (Site::new_admin(0, d0.clone(), p.clone()), Site::new_user(1, 0, d0, p))
}

/// One edit, validated by the administrator and settled at the issuer.
fn drive(adm: &mut Site<Char>, s1: &mut Site<Char>) {
    let q = s1.generate(Op::ins(1, 'x')).unwrap();
    adm.receive(Message::Coop(q)).unwrap();
    for m in adm.drain_outbox() {
        s1.receive(m).unwrap();
    }
}

#[test]
fn digest_is_identical_recording_on_or_off() {
    let (mut adm_a, mut s1_a) = pair();
    let (mut adm_b, mut s1_b) = pair();
    let obs = ObsHandle::recording(256);
    adm_b.set_observability(obs.clone());
    s1_b.set_observability(obs.clone());
    drive(&mut adm_a, &mut s1_a);
    drive(&mut adm_b, &mut s1_b);
    assert!(!obs.events().is_empty(), "the traced run did record");
    assert_eq!(digest(&adm_a), digest(&adm_b), "admin digest is blind to recording");
    assert_eq!(digest(&s1_a), digest(&s1_b), "user digest is blind to recording");
}

#[test]
fn memo_stats_do_not_affect_digests() {
    let (adm_a, _) = pair();
    let (adm_b, _) = pair();
    // Warm adm_a's policy decision memo; adm_b's stays cold.
    for _ in 0..10 {
        let _ = adm_a.policy().check(1, &Action::new(Right::Insert, Some(1)));
    }
    assert_ne!(adm_a.policy().memo_stats(), adm_b.policy().memo_stats());
    assert_eq!(digest(&adm_a), digest(&adm_b), "memo traffic is not behavioral state");
}
