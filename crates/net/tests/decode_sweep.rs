//! Never-panic sweep over the binary decoders that read outside input:
//! the TCP frame decoder and full-replica snapshots. The JSON journal
//! reader has its own sweep in `dce-trace`.
//!
//! Seeded truncations and bit flips of valid encodings must decode to
//! `Ok` or `Err`, never panic. Every frame the decoder accepts must
//! re-encode to exactly the bytes it was read from: the frame codec has
//! one encoding per value, so a mutation either lands on another valid
//! frame or is rejected.

use dce_core::{AdminProposal, DocumentId, Message};
use dce_document::{Char, CharDocument, Op};
use dce_net::sim::{Latency, SimNet};
use dce_net::{decode_snapshot, encode_frame, encode_snapshot, FaultPlan, Frame, FrameDecoder};
use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEED: u64 = 0x5EED_DEC0;
/// Mutations per frame encoding.
const FRAME_FLIPS: usize = 256;
/// Mutations of the snapshot.
const BLOB_FLIPS: usize = 2048;
/// Truncation points sampled from the snapshot.
const BLOB_CUTS: usize = 512;

/// A small session with admin churn and lossy delivery. Site 0 is the
/// administrator.
fn busy_session() -> SimNet<Char> {
    let mut sim: SimNet<Char> = SimNet::group(
        3,
        CharDocument::from_str("state transfer"),
        Policy::permissive([0, 1, 2]),
        SEED,
        Latency::Uniform(1, 40),
    );
    sim.set_fault_plan(FaultPlan::none().with_drops(0.2).with_duplicates(0.1));
    sim.submit_coop(1, Op::ins(1, 'x')).unwrap();
    sim.submit_coop(2, Op::del(3, 'a')).unwrap();
    sim.submit_admin(
        0,
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::new(
                Subject::User(2),
                DocObject::Range { from: 1, to: 4 },
                [Right::Insert, Right::Update],
                Sign::Minus,
            ),
        },
    )
    .unwrap();
    sim.submit_coop(2, Op::ins(2, 'y')).unwrap();
    sim.submit_coop(1, Op::up(2, 's', 'S')).unwrap();
    sim.run_to_quiescence();
    sim
}

/// One frame of every kind; `Data` frames carry every message kind.
fn frame_pool(sim: &mut SimNet<Char>) -> Vec<Frame<Char>> {
    let mut msgs: Vec<Message<Char>> = vec![
        Message::Coop(sim.submit_coop(1, Op::ins(1, 'é')).unwrap()),
        Message::Admin(sim.submit_admin(0, AdminOp::Validate { site: 1, seq: 1 }).unwrap()),
        Message::Admin(
            sim.submit_admin(
                0,
                AdminOp::SetGroup { name: "eds".into(), members: [1, 2, 9].into_iter().collect() },
            )
            .unwrap(),
        ),
        Message::Proposal(AdminProposal { from: 2, op: AdminOp::AddUser(11) }),
        sim.site(0).make_heartbeat(),
    ];
    msgs.extend(sim.site(0).admin_log().iter().cloned().map(Message::Admin));
    let doc = DocumentId::new(7);
    let mut frames = vec![
        Frame::Hello { session: 1, user: 2 },
        Frame::Welcome { session: 1, user: 2, peers: 3 },
        Frame::Ack { doc, from: 2, epoch: 1, cum: 9 },
        Frame::DigestRequest { session: 1, doc: DocumentId::ROOT },
        Frame::DigestReply { session: 1, doc, user: 0, digest: 0xD1_6E57, idle: true },
        Frame::Bye { user: 2 },
        Frame::MetricsRequest { session: 1 },
        Frame::MetricsReport { session: 1, report: Arc::new(sample_report()) },
    ];
    for (i, msg) in msgs.into_iter().enumerate() {
        frames.push(Frame::Data {
            doc: if i % 2 == 0 { DocumentId::ROOT } else { doc },
            src: 1,
            epoch: 2,
            seq: i as u64 + 1,
            ack_epoch: 1,
            ack: 3,
            msg: Arc::new(msg),
        });
    }
    frames
}

fn sample_report() -> dce_obs::MetricsReport {
    let m = dce_obs::Metrics::new();
    m.counter("server.delivered").add(42);
    m.gauge("site.queue_depth_ready.doc7").set(3);
    let h = m.histogram("store.fsync_ns");
    for v in [250u64, 1_000, 90_000] {
        h.observe(v);
    }
    m.snapshot()
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

/// Feeds `stream` to a fresh decoder one byte at a time until it ends or
/// the decoder fails. Checks that every decoded frame re-encodes to the
/// bytes it was read from, and returns how many frames decoded.
fn decode_byte_by_byte(stream: &[u8]) -> usize {
    let mut dec = FrameDecoder::new();
    let mut at = 0;
    let mut decoded = 0;
    for &b in stream {
        dec.extend(&[b]);
        loop {
            match dec.next::<Char>() {
                Ok(Some(frame)) => {
                    let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
                    let raw = &stream[at..at + 4 + len];
                    assert_eq!(&encode_frame(&frame)[..], raw, "{frame:?} re-encodes differently");
                    at += 4 + len;
                    decoded += 1;
                }
                Ok(None) => break,
                Err(_) => return decoded,
            }
        }
    }
    decoded
}

#[test]
fn mutated_frames_never_panic_and_decoded_frames_re_encode_exactly() {
    let mut sim = busy_session();
    let frames = frame_pool(&mut sim);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut stream = Vec::new();
    for frame in &frames {
        let enc = encode_frame(frame);
        stream.extend_from_slice(&enc);
        for cut in 0..enc.len() {
            // A strict prefix is a frame still in flight...
            assert_eq!(decode_byte_by_byte(&enc[..cut]), 0);
            // ...and a prefix whose length word agrees with it is a
            // complete but cut-short body.
            if cut >= 4 {
                let mut short = enc[..cut].to_vec();
                short[..4].copy_from_slice(&((cut - 4) as u32).to_le_bytes());
                decode_byte_by_byte(&short);
            }
        }
        for _ in 0..FRAME_FLIPS {
            decode_byte_by_byte(&flip(&enc, &mut rng));
        }
    }
    assert_eq!(decode_byte_by_byte(&stream), frames.len());
    for _ in 0..FRAME_FLIPS {
        decode_byte_by_byte(&flip(&stream, &mut rng));
    }
}

#[test]
fn mutated_snapshots_never_panic() {
    let sim = busy_session();
    let snap = encode_snapshot(sim.site(0)).to_vec();
    assert!(decode_snapshot::<Char>(snap.clone().into(), 9, 0).is_ok());
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for _ in 0..BLOB_CUTS {
        let cut = rng.gen_range(0..snap.len());
        assert!(decode_snapshot::<Char>(snap[..cut].to_vec().into(), 9, 0).is_err());
    }
    for _ in 0..BLOB_FLIPS {
        let _ = decode_snapshot::<Char>(flip(&snap, &mut rng).into(), 9, 0);
    }
}
