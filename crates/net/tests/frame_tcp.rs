//! The framing layer over a real loopback TCP socket.
//!
//! Property: any sequence of frames — covering every [`Message`] kind
//! in the `Data` payload plus every control frame — written to a TCP
//! connection in arbitrary chunk sizes comes back out of the
//! [`FrameDecoder`] on the far side intact, in order, with nothing left
//! over. TCP is exactly the adversary the decoder exists for: reads
//! return arbitrary prefixes and concatenations of what was written.
//!
//! Also covered: the decoder's rejection behaviour for truncated,
//! oversized and corrupt frames arriving over the same socket.

use dce_core::{AdminProposal, DocumentId, Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_net::wire::WireError;
use dce_net::{encode_frame, Frame, FrameDecoder, MAX_DOC_ID, MAX_FRAME_LEN};
use dce_obs::{HistogramSnapshot, MetricsReport, HIST_BUCKETS};
use dce_ot::ids::Clock;
use dce_policy::{AdminOp, AdminRequest, Authorization, DocObject, Policy, Right, Sign, Subject};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};

/// A shared echo server: every accepted connection gets its bytes
/// written straight back until the client shuts its write half down.
fn echo_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound");
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { continue };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if s.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        addr
    })
}

/// One message of every wire kind (and, within `Admin`, every
/// [`AdminOp`] variant), built the way production code builds them.
fn message_pool() -> &'static [Arc<Message<Char>>] {
    static POOL: OnceLock<Vec<Arc<Message<Char>>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let policy = Policy::permissive([0, 1]);
        let mut site: Site<Char> = Site::new_user(1, 0, CharDocument::from_str("abcdef"), policy);
        let mut pool: Vec<Message<Char>> = vec![
            Message::Coop(site.generate(Op::ins(2, 'é')).expect("ins")),
            Message::Coop(site.generate(Op::del(2, 'é')).expect("del")),
            Message::Coop(site.generate(Op::up(1, 'a', 'ß')).expect("up")),
        ];
        let auth = Authorization::new(
            Subject::Users([1, 4, 9].into_iter().collect()),
            DocObject::Range { from: 3, to: 17 },
            [Right::Insert, Right::Update],
            Sign::Minus,
        );
        for op in [
            AdminOp::AddUser(7),
            AdminOp::DelUser(7),
            AdminOp::AddObj { name: "title".into(), object: DocObject::Element(4) },
            AdminOp::DelObj { name: "title".into() },
            AdminOp::AddAuth { pos: 3, auth: auth.clone() },
            AdminOp::DelAuth { pos: 3, auth },
            AdminOp::Validate { site: 2, seq: 99 },
            AdminOp::SetGroup { name: "eds".into(), members: [1, 2].into_iter().collect() },
            AdminOp::Delegate(4),
            AdminOp::RevokeDelegation(4),
        ] {
            pool.push(Message::Admin(AdminRequest { admin: 0, version: 5, op }));
        }
        pool.push(Message::Proposal(AdminProposal { from: 4, op: AdminOp::AddUser(11) }));
        let mut clock = Clock::new();
        clock.set(1, 44);
        clock.set(7, 2);
        pool.push(Message::Heartbeat { from: 7, clock });
        pool.into_iter().map(Arc::new).collect()
    })
}

/// Maps one sampled tuple onto a frame. Kinds 6–21 become `Data` frames
/// carrying successive pool messages, so a generated sequence exercises
/// every message kind alongside the control frames.
fn frame_for(kind: u8, a: u32, b: u64) -> Frame<Char> {
    let pool = message_pool();
    // Cycle the document id so generated sequences interleave the root
    // document, ordinary documents and the extreme legal id.
    let doc = match b % 3 {
        0 => DocumentId::ROOT,
        1 => DocumentId::new(u64::from(a) + 1),
        _ => DocumentId::new(MAX_DOC_ID),
    };
    match kind {
        0 => Frame::Hello { session: a, user: a % 5 },
        1 => Frame::Welcome { session: a, user: a % 5, peers: 4 },
        2 => Frame::Ack { doc, from: a % 5, epoch: b % 7, cum: b },
        3 => Frame::DigestRequest { session: a, doc },
        4 => Frame::DigestReply { session: a, doc, user: 0, digest: b, idle: b.is_multiple_of(2) },
        5 => Frame::Bye { user: a % 5 },
        22 => Frame::MetricsRequest { session: a },
        23 => Frame::MetricsReport { session: a, report: Arc::new(report_for(a, b)) },
        k => Frame::Data {
            doc,
            src: a % 5,
            epoch: b % 3,
            seq: b,
            ack_epoch: b % 2,
            ack: b / 2,
            msg: Arc::clone(&pool[(k as usize + a as usize) % pool.len()]),
        },
    }
}

/// A deterministic small metrics report derived from `(a, b)`, with
/// per-document series and a histogram built through `from_buckets` so
/// quantiles are layout-consistent and the round trip compares equal.
fn report_for(a: u32, b: u64) -> MetricsReport {
    let mut counters = BTreeMap::new();
    counters.insert("server.delivered".to_string(), b + 1);
    counters.insert(format!("server.delivered.doc{a}"), b);
    let mut gauges = BTreeMap::new();
    gauges.insert(format!("site.queue_depth_ready.doc{a}"), b % 17);
    let lo = (b % 900) as u16;
    let buckets = vec![(lo, 1 + b % 5), (lo + 7, 2)];
    let count = buckets.iter().map(|&(_, c)| c).sum();
    let mut histograms = BTreeMap::new();
    histograms
        .insert("store.fsync_ns".to_string(), HistogramSnapshot::from_buckets(count, b, buckets));
    MetricsReport { at_ns: b, counters, gauges, histograms }
}

/// An arbitrary metric name, including characters JSON must escape.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec("[abcxyz._\"\\ ]", 1..16).prop_map(|parts| parts.concat())
}

/// An arbitrary histogram snapshot: sparse in-layout buckets, rebuilt
/// through `from_buckets` exactly like the decoder does.
fn arb_hist() -> impl Strategy<Value = HistogramSnapshot> {
    (proptest::collection::vec((0u16..HIST_BUCKETS as u16, 1u64..1_000_000), 0..10), any::<u64>())
        .prop_map(|(raw, sum)| {
            let mut merged: BTreeMap<u16, u64> = BTreeMap::new();
            for (i, c) in raw {
                *merged.entry(i).or_insert(0) += c;
            }
            let buckets: Vec<(u16, u64)> = merged.into_iter().collect();
            let count = buckets.iter().map(|&(_, c)| c).sum();
            HistogramSnapshot::from_buckets(count, sum, buckets)
        })
}

/// An arbitrary full registry snapshot.
fn arb_report() -> impl Strategy<Value = MetricsReport> {
    (
        any::<u64>(),
        proptest::collection::vec((arb_name(), any::<u64>()), 0..8),
        proptest::collection::vec((arb_name(), any::<u64>()), 0..8),
        proptest::collection::vec((arb_name(), arb_hist()), 0..6),
    )
        .prop_map(|(at_ns, counters, gauges, histograms)| MetricsReport {
            at_ns,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        })
}

/// Writes `bytes` to a fresh echo connection in `chunk`-sized pieces,
/// then reads the echo back to EOF through a [`FrameDecoder`].
fn round_trip_bytes(bytes: &[u8], chunk: usize) -> (Vec<Result<Frame<Char>, WireError>>, usize) {
    let mut conn = TcpStream::connect(echo_addr()).expect("connect echo");
    for piece in bytes.chunks(chunk.max(1)) {
        conn.write_all(piece).expect("write");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    let mut dead = false;
    loop {
        let n = conn.read(&mut buf).expect("read echo");
        if n == 0 {
            break;
        }
        decoder.extend(&buf[..n]);
        if dead {
            continue;
        }
        loop {
            match decoder.next::<Char>() {
                Ok(Some(frame)) => out.push(Ok(frame)),
                Ok(None) => break,
                Err(e) => {
                    // After an error the stream is beyond repair; a
                    // real reactor drops the connection here.
                    out.push(Err(e));
                    dead = true;
                    break;
                }
            }
        }
    }
    (out, decoder.buffered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_message_kind_survives_tcp_in_any_chunking(
        picks in proptest::collection::vec((0u8..24, 1u32..9, 1u64..1000), 1..12),
        chunk in 1usize..23,
    ) {
        let frames: Vec<Frame<Char>> =
            picks.into_iter().map(|(k, a, b)| frame_for(k, a, b)).collect();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&encode_frame(frame));
        }
        let (out, leftover) = round_trip_bytes(&bytes, chunk);
        prop_assert_eq!(out.len(), frames.len());
        for (got, want) in out.iter().zip(frames.iter()) {
            prop_assert_eq!(got.as_ref().expect("decodes"), want);
        }
        prop_assert_eq!(leftover, 0, "no stray bytes after the last frame");
    }

    #[test]
    fn a_truncated_tail_is_held_back_not_misparsed(
        kind in 0u8..24,
        a in 1u32..9,
        b in 1u64..1000,
        cut in 1usize..9,
        chunk in 1usize..23,
    ) {
        // One good frame followed by a strict prefix of another: the
        // good frame decodes, the prefix stays buffered, and no frame
        // is invented from partial bytes.
        let good = frame_for(kind, a, b);
        let second = encode_frame(&frame_for(kind.wrapping_add(1) % 24, a, b));
        let keep = second.len() - cut.min(second.len() - 1);
        let mut bytes = encode_frame(&good).to_vec();
        bytes.extend_from_slice(&second[..keep]);
        let (out, leftover) = round_trip_bytes(&bytes, chunk);
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].as_ref().expect("decodes"), &good);
        prop_assert_eq!(leftover, keep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn metrics_frames_survive_tcp_in_any_chunking(
        reports in proptest::collection::vec(arb_report(), 1..4),
        session in 0u32..9,
        chunk in 1usize..23,
    ) {
        // Scrape traffic interleaved with ordinary session frames through
        // one decoder, in arbitrary read chunkings.
        let mut frames: Vec<Frame<Char>> = vec![Frame::MetricsRequest { session }];
        for r in reports {
            frames.push(Frame::MetricsReport { session, report: Arc::new(r) });
        }
        frames.push(frame_for(9, session + 1, 3));
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&encode_frame(frame));
        }
        let (out, leftover) = round_trip_bytes(&bytes, chunk);
        prop_assert_eq!(out.len(), frames.len());
        for (got, want) in out.iter().zip(frames.iter()) {
            prop_assert_eq!(got.as_ref().expect("decodes"), want);
        }
        prop_assert_eq!(leftover, 0, "no stray bytes after the last frame");
    }

    #[test]
    fn a_truncated_metrics_report_is_rejected_over_tcp(
        a in 1u32..9,
        b in 1u64..1000,
        cut in 1usize..9,
    ) {
        // A report whose length prefix agrees with its (cut) body but
        // whose content stops mid-field: Truncated, never a bogus frame.
        let full = encode_frame(&Frame::<Char>::MetricsReport {
            session: a,
            report: Arc::new(report_for(a, b)),
        });
        let keep = full.len() - cut;
        let mut bytes = full[..keep].to_vec();
        bytes[..4].copy_from_slice(&((keep - 4) as u32).to_le_bytes());
        let (out, _) = round_trip_bytes(&bytes, 6);
        prop_assert_eq!(out.len(), 1);
        prop_assert!(out[0].is_err(), "cut report must not decode: {:?}", out[0]);
    }
}

#[test]
fn a_metrics_report_with_out_of_layout_buckets_is_rejected_over_tcp() {
    // Hand-assembled report: one histogram with a bucket index beyond
    // HIST_BUCKETS. The decoder must refuse it before trusting the index.
    let mut body = vec![16u8]; // TAG_METRICS_REPORT
    body.extend_from_slice(&1u32.to_le_bytes()); // session
    body.extend_from_slice(&0u64.to_le_bytes()); // at_ns
    body.extend_from_slice(&0u32.to_le_bytes()); // no counters
    body.extend_from_slice(&0u32.to_le_bytes()); // no gauges
    body.extend_from_slice(&1u32.to_le_bytes()); // one histogram
    body.extend_from_slice(&1u16.to_le_bytes()); // name len
    body.push(b'h');
    body.extend_from_slice(&1u64.to_le_bytes()); // count
    body.extend_from_slice(&1u64.to_le_bytes()); // sum
    body.extend_from_slice(&1u32.to_le_bytes()); // one bucket
    body.extend_from_slice(&(HIST_BUCKETS as u16).to_le_bytes()); // first bad index
    body.extend_from_slice(&1u64.to_le_bytes());
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    let (out, _) = round_trip_bytes(&bytes, 4);
    assert_eq!(out, vec![Err(WireError::BadHeader)]);
}

#[test]
fn a_root_document_ack_has_the_one_current_layout() {
    // Hand-assembled bytes: an Ack frame is
    // tag 3 ‖ u64 doc ‖ u32 from ‖ u64 epoch ‖ u64 cum, length-prefixed,
    // and the root document is doc 0.
    let mut body = vec![3u8];
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&7u32.to_le_bytes());
    body.extend_from_slice(&2u64.to_le_bytes());
    body.extend_from_slice(&99u64.to_le_bytes());
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    let (out, leftover) = round_trip_bytes(&bytes, 5);
    assert_eq!(out, vec![Ok(Frame::Ack { doc: DocumentId::ROOT, from: 7, epoch: 2, cum: 99 })]);
    assert_eq!(leftover, 0);

    // And the encoder emits exactly those bytes.
    let enc =
        encode_frame(&Frame::<Char>::Ack { doc: DocumentId::ROOT, from: 7, epoch: 2, cum: 99 });
    assert_eq!(enc.to_vec(), bytes);
}

#[test]
fn mixed_document_frames_share_one_decoder() {
    // One connection multiplexing three documents (plus root-document
    // traffic) through a single FrameDecoder, dribbled byte by byte.
    let frames: Vec<Frame<Char>> = vec![
        frame_for(9, 1, 3), // root doc
        frame_for(9, 1, 1), // doc 2
        Frame::Ack { doc: DocumentId::new(5), from: 1, epoch: 1, cum: 4 },
        Frame::DigestRequest { session: 1, doc: DocumentId::new(9) },
        frame_for(10, 2, 4), // doc 3
        Frame::Bye { user: 1 },
    ];
    let mut bytes = Vec::new();
    for f in &frames {
        bytes.extend_from_slice(&encode_frame(f));
    }
    let mut dec = FrameDecoder::new();
    let mut out: Vec<Frame<Char>> = Vec::new();
    for byte in bytes {
        dec.extend(&[byte]);
        while let Some(f) = dec.next().expect("clean stream") {
            out.push(f);
        }
    }
    assert_eq!(out, frames);
    let docs: Vec<u64> = out.iter().map(|f| f.doc().as_u64()).collect();
    assert_eq!(docs, vec![0, 2, 5, 9, 3, 0]);
}

#[test]
fn bad_document_ids_are_rejected_over_tcp() {
    // Ids above MAX_DOC_ID are corrupt, whatever the frame kind.
    let huge = MAX_DOC_ID + 1;
    let mut body = vec![4u8]; // DigestRequest
    body.extend_from_slice(&huge.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    let (out, _) = round_trip_bytes(&bytes, 4);
    assert_eq!(out, vec![Err(WireError::BadDocument(huge))]);

    // Tags 6, 7 and 9–14 are unassigned: a well-formed Ack body behind
    // any of them is an unknown tag.
    for tag in [6u8, 7].into_iter().chain(9..=14) {
        let mut body = vec![tag];
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&99u64.to_le_bytes());
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let (out, _) = round_trip_bytes(&bytes, 4);
        assert_eq!(out, vec![Err(WireError::BadTag(tag))]);
    }
}

#[test]
fn an_oversized_length_prefix_is_rejected_over_tcp() {
    let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 16]);
    let (out, _) = round_trip_bytes(&bytes, 5);
    assert_eq!(out, vec![Err(WireError::BadHeader)]);
}

#[test]
fn an_unknown_tag_is_rejected_over_tcp() {
    // length 5, tag 0xEE, four payload bytes.
    let mut bytes = 5u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xEE, 1, 2, 3, 4]);
    let (out, _) = round_trip_bytes(&bytes, 3);
    assert_eq!(out, vec![Err(WireError::BadTag(0xEE))]);
}

#[test]
fn a_length_and_body_disagreement_is_rejected_over_tcp() {
    // A valid Bye frame whose declared length smuggles two extra bytes.
    let inner = encode_frame(&Frame::<Char>::Bye { user: 3 });
    let body = &inner[4..];
    let mut bytes = ((body.len() + 2) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes.extend_from_slice(&[0, 0]);
    let (out, _) = round_trip_bytes(&bytes, 4);
    assert_eq!(out, vec![Err(WireError::BadHeader)]);
}

#[test]
fn garbage_inside_a_data_payload_is_rejected_over_tcp() {
    // A root-document Data frame whose embedded wire message has a
    // corrupt magic byte.
    let good = encode_frame(&frame_for(9, 1, 3));
    let mut bytes = good.to_vec();
    // Layout: u32 len ‖ tag ‖ u64 doc ‖ u32 src ‖ 4×u64 ‖ u32 payload len ‖ payload.
    let payload_at = 4 + 1 + 8 + 4 + 32 + 4;
    bytes[payload_at] ^= 0xFF; // wire MAGIC is checked first
    let (out, _) = round_trip_bytes(&bytes, 7);
    assert_eq!(out.len(), 1);
    assert!(out[0].is_err(), "corrupt embedded message must not decode");
}
