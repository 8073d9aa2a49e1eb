//! Never-panic sweep over the store's binary decoders: WAL records and
//! snapshot files. `dce-net`'s `decode_sweep` covers frames and bare
//! snapshots; this one goes through the on-disk envelopes.
//!
//! Seeded truncations and bit flips of real encodings are re-sealed with
//! a recomputed CRC, so every mutation reaches the body decoders instead
//! of stopping at the checksum. The contract: `Ok` or `Err`, never a
//! panic, and every accepted value re-encodes to exactly its input bytes.
//! One exemption: a snapshot body's 4-byte source-user field is read and
//! discarded (the receiver rebinds the replica to its own user), so it
//! may differ.

use bytes::BytesMut;
use dce_core::{AdminProposal, Message};
use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::{encode_snapshot, FaultPlan};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use dce_store::{
    crc32, decode_store_snapshot, encode_record, encode_store_snapshot, Record, RecordDecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

const SEED: u64 = 0x5702_E5EE;
/// Bit-flip mutations per WAL record.
const RECORD_FLIPS: usize = 512;
/// Bit-flip mutations per snapshot image.
const SNAPSHOT_FLIPS: usize = 3000;
/// Truncation points sampled per snapshot image.
const SNAPSHOT_CUTS: usize = 256;

fn revoke(user: u32, right: Right) -> AdminOp {
    AdminOp::AddAuth {
        pos: 0,
        auth: Authorization::new(Subject::User(user), DocObject::Document, [right], Sign::Minus),
    }
}

/// A lossy 3-site session with a revocation race (so some requests are
/// undone and go inert), delegation, heartbeats and a compaction pass.
/// Site 0 is the administrator.
fn busy_session() -> SimNet<Char> {
    let mut sim: SimNet<Char> = SimNet::group(
        3,
        CharDocument::from_str("durable state"),
        Policy::permissive([0, 1, 2]),
        SEED,
        Latency::Uniform(1, 40),
    );
    sim.set_fault_plan(FaultPlan::none().with_drops(0.2).with_duplicates(0.1));
    sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
    sim.submit_admin(0, revoke(2, Right::Insert)).unwrap();
    sim.submit_coop(2, Op::ins(2, 'y')).unwrap();
    sim.submit_coop(2, Op::del(3, 'u')).unwrap();
    sim.submit_admin(0, AdminOp::Delegate(1)).unwrap();
    sim.run_to_quiescence();
    sim.submit_proposal(1, 0, revoke(2, Right::Update)).unwrap();
    sim.submit_coop(1, Op::up(1, 'x', 'X')).unwrap();
    sim.run_to_quiescence();
    for _ in 0..2 {
        sim.gossip_heartbeats();
        sim.run_to_quiescence();
    }
    assert!(sim.auto_compact_all() > 0, "compaction reclaimed the settled log");
    // Fresh edits after the compaction keep flag rows in the snapshot.
    sim.submit_coop(1, Op::ins(1, 'a')).unwrap();
    let second = *sim.site(2).document().get(2).unwrap();
    sim.submit_coop(2, Op::del(2, second)).unwrap();
    sim.submit_coop(0, Op::ins(1, 'b')).unwrap();
    sim.run_to_quiescence();
    sim
}

/// Real records: every message kind a site journals as `Remote`, the
/// local generations exactly as live sites produced them, and a compact
/// marker.
fn record_pool() -> Vec<Record<Char>> {
    let mut sim = busy_session();
    let mut pool: Vec<Record<Char>> = Vec::new();
    let q = sim.submit_coop(1, Op::ins(1, 'é')).unwrap();
    pool.push(Record::LocalCoop { op: Op::ins(1, 'é'), id: q.ot.id, v: q.v });
    pool.push(Record::Remote(Message::Coop(q)));
    let r = sim.submit_admin(0, revoke(1, Right::Update)).unwrap();
    pool.push(Record::LocalAdmin { op: r.op.clone(), version: r.version });
    pool.push(Record::Remote(Message::Admin(r)));
    sim.run_to_quiescence();
    // The whole administrative log: validations, grants, delegation,
    // the sequenced proposal.
    pool.extend(sim.site(0).admin_log().iter().cloned().map(|r| Record::Remote(Message::Admin(r))));
    pool.push(Record::Remote(Message::Proposal(AdminProposal {
        from: 1,
        op: AdminOp::SetGroup { name: "eds".into(), members: [1, 2, 9].into_iter().collect() },
    })));
    for site in 0..3 {
        pool.push(Record::Remote(sim.site(site).make_heartbeat()));
    }
    pool.push(Record::Compact);
    pool
}

/// Flips one to three random bits of `bytes`.
fn flip(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let i = rng.gen_range(0..out.len());
        out[i] ^= 1 << rng.gen_range(0..8u32);
    }
    out
}

fn framed(rec: &Record<Char>) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_record(&rec.borrow(), &mut out);
    out.freeze().to_vec()
}

/// Frames `body` with its length and a recomputed CRC and decodes it.
/// Returns whether the record decoder accepted it; an accepted record
/// must re-encode to the very frame it was read from.
fn sweep_record_body(body: &[u8]) -> bool {
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    let mut dec = RecordDecoder::new();
    dec.extend(&frame);
    match dec.next::<Char>() {
        Ok(Some(rec)) => {
            assert_eq!(framed(&rec), frame, "{rec:?} re-encodes differently");
            true
        }
        Ok(None) => panic!("a whole frame reads as incomplete"),
        Err(_) => false,
    }
}

#[test]
fn mutated_wal_records_never_panic_and_accepted_records_re_encode_exactly() {
    let pool = record_pool();
    let kinds = |f: fn(&Record<Char>) -> bool| pool.iter().filter(|r| f(r)).count();
    assert!(kinds(|r| matches!(r, Record::LocalCoop { .. })) >= 1);
    assert!(kinds(|r| matches!(r, Record::LocalAdmin { .. })) >= 1);
    assert!(kinds(|r| matches!(r, Record::Remote(Message::Heartbeat { .. }))) >= 1);
    assert!(kinds(|r| matches!(r, Record::Remote(Message::Proposal(_)))) >= 1);
    assert!(kinds(|r| matches!(r, Record::Remote(Message::Admin(_)))) >= 5);

    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for rec in &pool {
        let body = framed(rec)[8..].to_vec();
        assert!(sweep_record_body(&body), "the unmutated {rec:?} decodes");
        let cuts = (0..body.len()).map(|cut| body[..cut].to_vec());
        let flips: Vec<Vec<u8>> = (0..RECORD_FLIPS).map(|_| flip(&body, &mut rng)).collect();
        for mutated in cuts.chain(flips) {
            if sweep_record_body(&mutated) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    println!("wal sweep: {} records, {accepted} accepted, {rejected} rejected", pool.len());
    assert!(accepted > 0 && rejected > 0, "the sweep reached both outcomes");
}

/// A snapshot image with its payload replaced and its CRC recomputed.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut image = payload.to_vec();
    image.extend_from_slice(&crc32(payload).to_le_bytes());
    image
}

/// Decodes `image`; an accepted one must re-encode to `image` except in
/// `exempt` (the body's source-user field) and the CRC trailer that
/// covers it.
fn sweep_snapshot(image: &[u8], exempt: std::ops::Range<usize>) -> bool {
    let Ok((site, covered)) = decode_store_snapshot::<Char>(image, Path::new("sweep.snap")) else {
        return false;
    };
    // The envelope's admin field (layout: magic, version, u32 user,
    // u32 admin); the decoded site keeps it privately.
    let admin = u32::from_le_bytes(image[6..10].try_into().unwrap());
    let again = encode_store_snapshot(&site, admin, covered);
    let trailer = image.len().saturating_sub(4)..image.len();
    let canonical = again.len() == image.len()
        && (0..image.len())
            .all(|i| again[i] == image[i] || exempt.contains(&i) || trailer.contains(&i));
    assert!(canonical, "an accepted snapshot re-encodes differently");
    true
}

#[test]
fn mutated_store_snapshots_never_panic_and_accepted_ones_re_encode_exactly() {
    let mut sim = busy_session();
    // A member holding a request nobody has validated yet, so the
    // tentative section is not empty.
    let first = *sim.site(2).document().get(1).unwrap();
    sim.submit_coop(2, Op::del(1, first)).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for site in [sim.site(0), sim.site(2)] {
        let (_, _, _, pruned, _, _, _, flags, tentative, _) = site.snapshot_parts();
        assert!(flags.len() >= 2, "the fixture holds several flag rows");
        assert!(!pruned.is_empty(), "the fixture holds pruned inert ids");
        let image = encode_store_snapshot(site, 0, 17);
        let body_len = encode_snapshot(site).len();
        // Body layout: magic, version, u32 source user, ...
        let user_at = image.len() - 4 - body_len + 2;
        let exempt = user_at..user_at + 4;
        assert!(sweep_snapshot(&image, exempt.clone()), "the unmutated snapshot decodes");
        let payload = &image[..image.len() - 4];
        let (mut accepted, mut rejected) = (0usize, 0usize);
        for _ in 0..SNAPSHOT_CUTS {
            let cut = rng.gen_range(0..payload.len());
            assert!(!sweep_snapshot(&reseal(&payload[..cut]), exempt.clone()), "cut at {cut}");
            rejected += 1;
        }
        for _ in 0..SNAPSHOT_FLIPS {
            if sweep_snapshot(&reseal(&flip(payload, &mut rng)), exempt.clone()) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        println!(
            "snapshot sweep (site {}, {} flags, {} tentative): {accepted} accepted, \
             {rejected} rejected",
            site.user(),
            flags.len(),
            tentative.len()
        );
        assert!(accepted > 0 && rejected > 0, "the sweep reached both outcomes");
    }
}
