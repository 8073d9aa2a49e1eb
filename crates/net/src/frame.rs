//! Length-prefixed framing for shipping the wire codec over byte
//! streams.
//!
//! [`crate::wire`] encodes one [`Message`] as one self-contained byte
//! string, but a TCP connection is an undelimited byte pipe: reads
//! return arbitrary prefixes, concatenations and splits of whatever the
//! peer wrote. This module puts frame boundaries back:
//!
//! * every frame is `u32-le length ‖ body`, with the length covering
//!   the body only and capped at [`MAX_FRAME_LEN`] so a corrupted or
//!   hostile length prefix cannot drive an unbounded allocation;
//! * the body is `tag ‖ fields`, and every document-addressed frame
//!   (`Data`, `Ack`, `Digest*`) starts its fields with the `u64`
//!   document id ([`DocumentId::ROOT`] is `0`). There is one layout per
//!   tag and no version negotiation. The [`Frame`] enum covers the
//!   session handshake (`Hello`/`Welcome`), the reliable layer's traffic
//!   (`Data` wraps a [`Packet`], `Ack` is the standalone cumulative
//!   ack), the digest probe that load drivers use to detect quiescence
//!   (`Digest*`), and the telemetry scrape (`Metrics*`);
//! * [`FrameDecoder`] is an incremental parser: feed it whatever the
//!   socket produced, pull zero or more complete frames out. Split
//!   frames wait for more bytes; garbage fails loudly with a
//!   [`WireError`] so the connection can be dropped instead of
//!   desynchronizing.
//!
//! The `Data` body embeds a [`crate::wire::encode_message`] payload
//! with its own inner length, so the protocol message round-trips
//! through the exact codec the rest of the stack already tests.

use crate::reliable::Packet;
use crate::wire::{
    decode_message, encode_message, get_bool, get_doc, get_u16, get_u32, get_u64, get_u8,
    WireElement, WireError,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dce_core::{DocumentId, Message};
use dce_obs::{HistogramSnapshot, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hard ceiling on one frame's body length. Far above any legitimate
/// message (a full-document snapshot is shipped elsewhere), far below
/// anything that would hurt to allocate.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

type Result<T> = std::result::Result<T, WireError>;

/// One frame of the server protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<E> {
    /// Client → server: join `session` as `user`. Re-sent on reconnect;
    /// the server restarts its stream toward the user in response.
    Hello {
        /// Session identifier (one server hosts several).
        session: u32,
        /// The joining user/site id.
        user: u32,
    },
    /// Server → client: the join was accepted.
    Welcome {
        /// Echoed session id.
        session: u32,
        /// Echoed user id.
        user: u32,
        /// Collaborator sites the session is configured for.
        peers: u32,
    },
    /// A reliable-layer data packet: [`Packet`] flattened onto the wire
    /// with its protocol message in [`crate::wire`] encoding.
    Data {
        /// Document the packet's stream belongs to.
        doc: DocumentId,
        /// Sending site.
        src: u32,
        /// Stream restart epoch.
        epoch: u64,
        /// Sequence number within the epoch (1-based).
        seq: u64,
        /// Epoch of the reverse stream the piggybacked ack refers to.
        ack_epoch: u64,
        /// Cumulative ack for the reverse stream.
        ack: u64,
        /// The protocol message.
        msg: Arc<Message<E>>,
    },
    /// A standalone cumulative ack (sent on every data arrival so a
    /// one-directional flow still completes).
    Ack {
        /// Document whose stream is being acked.
        doc: DocumentId,
        /// Acking site.
        from: u32,
        /// Epoch of the acked stream.
        epoch: u64,
        /// Cumulative ack point.
        cum: u64,
    },
    /// Control: ask the server for its replica digest of one of
    /// `session`'s documents.
    DigestRequest {
        /// Queried session.
        session: u32,
        /// Queried document within the session.
        doc: DocumentId,
    },
    /// Control: a replica digest (server's answer, `user` = 0).
    DigestReply {
        /// Queried session.
        session: u32,
        /// Queried document within the session.
        doc: DocumentId,
        /// The site whose replica was digested.
        user: u32,
        /// [`dce_core::Site::replica_digest`] of that replica.
        digest: u64,
        /// `true` when the server's endpoint holds no unacked data for
        /// the session.
        idle: bool,
    },
    /// Either direction: orderly departure of `user`.
    Bye {
        /// The departing user.
        user: u32,
    },
    /// Control: ask the server for a full scrape of its `dce-obs`
    /// metrics registry (per-document series included). Answered without
    /// a `Hello`, like the other control queries, so monitoring tools
    /// (`dce-top`) need no session membership.
    MetricsRequest {
        /// Queried session (echoed back; the registry is process-wide).
        session: u32,
    },
    /// Control: the server's metrics-registry snapshot. Histograms ride
    /// as raw sub-bucket counts, so the receiver can diff two scrapes
    /// into interval rates and recompute exact-layout quantiles.
    MetricsReport {
        /// Echoed session id.
        session: u32,
        /// The scraped registry snapshot.
        report: Arc<dce_obs::MetricsReport>,
    },
}

impl<E> Frame<E> {
    /// Wraps a reliable-layer packet for the wire, tagged with the
    /// document whose stream carries it.
    pub fn from_packet(doc: DocumentId, p: Packet<E>) -> Self {
        Frame::Data {
            doc,
            src: p.src as u32,
            epoch: p.epoch,
            seq: p.seq,
            ack_epoch: p.ack_epoch,
            ack: p.ack,
            msg: p.msg,
        }
    }

    /// The document this frame addresses ([`DocumentId::ROOT`] for
    /// session-scoped frames such as `Hello`).
    pub fn doc(&self) -> DocumentId {
        match self {
            Frame::Data { doc, .. }
            | Frame::Ack { doc, .. }
            | Frame::DigestRequest { doc, .. }
            | Frame::DigestReply { doc, .. } => *doc,
            Frame::Hello { .. }
            | Frame::Welcome { .. }
            | Frame::Bye { .. }
            | Frame::MetricsRequest { .. }
            | Frame::MetricsReport { .. } => DocumentId::ROOT,
        }
    }
}

const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_DATA: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_DIGEST_REQUEST: u8 = 4;
const TAG_DIGEST_REPLY: u8 = 5;
const TAG_BYE: u8 = 8;
// Tags 6, 7 and 9–14 are unassigned. The telemetry scrape pair is
// session-scoped (the metrics registry is process-wide, with
// per-document series carried as `…·docN` names inside the report), so
// it carries no document id.
const TAG_METRICS_REQUEST: u8 = 15;
const TAG_METRICS_REPORT: u8 = 16;

/// Ceiling on one metric name's length on the wire. Real names are short
/// dotted paths (`store.fsync_ns.doc1234`); anything longer is corrupt.
const MAX_METRIC_NAME: usize = 512;

/// Encodes one frame, length prefix included.
pub fn encode_frame<E: WireElement>(frame: &Frame<E>) -> Bytes {
    let mut body = BytesMut::with_capacity(64);
    match frame {
        Frame::Hello { session, user } => {
            body.put_u8(TAG_HELLO);
            body.put_u32_le(*session);
            body.put_u32_le(*user);
        }
        Frame::Welcome { session, user, peers } => {
            body.put_u8(TAG_WELCOME);
            body.put_u32_le(*session);
            body.put_u32_le(*user);
            body.put_u32_le(*peers);
        }
        Frame::Data { doc, src, epoch, seq, ack_epoch, ack, msg } => {
            body.put_u8(TAG_DATA);
            body.put_u64_le(doc.as_u64());
            body.put_u32_le(*src);
            body.put_u64_le(*epoch);
            body.put_u64_le(*seq);
            body.put_u64_le(*ack_epoch);
            body.put_u64_le(*ack);
            let payload = encode_message(msg);
            body.put_u32_le(payload.len() as u32);
            body.put_slice(&payload);
        }
        Frame::Ack { doc, from, epoch, cum } => {
            body.put_u8(TAG_ACK);
            body.put_u64_le(doc.as_u64());
            body.put_u32_le(*from);
            body.put_u64_le(*epoch);
            body.put_u64_le(*cum);
        }
        Frame::DigestRequest { session, doc } => {
            body.put_u8(TAG_DIGEST_REQUEST);
            body.put_u64_le(doc.as_u64());
            body.put_u32_le(*session);
        }
        Frame::DigestReply { session, doc, user, digest, idle } => {
            body.put_u8(TAG_DIGEST_REPLY);
            body.put_u64_le(doc.as_u64());
            body.put_u32_le(*session);
            body.put_u32_le(*user);
            body.put_u64_le(*digest);
            body.put_u8(u8::from(*idle));
        }
        Frame::Bye { user } => {
            body.put_u8(TAG_BYE);
            body.put_u32_le(*user);
        }
        Frame::MetricsRequest { session } => {
            body.put_u8(TAG_METRICS_REQUEST);
            body.put_u32_le(*session);
        }
        Frame::MetricsReport { session, report } => {
            body.put_u8(TAG_METRICS_REPORT);
            body.put_u32_le(*session);
            body.put_u64_le(report.at_ns);
            body.put_u32_le(report.counters.len() as u32);
            for (name, v) in &report.counters {
                put_metric_name(&mut body, name);
                body.put_u64_le(*v);
            }
            body.put_u32_le(report.gauges.len() as u32);
            for (name, v) in &report.gauges {
                put_metric_name(&mut body, name);
                body.put_u64_le(*v);
            }
            body.put_u32_le(report.histograms.len() as u32);
            for (name, h) in &report.histograms {
                put_metric_name(&mut body, name);
                body.put_u64_le(h.count);
                body.put_u64_le(h.sum);
                // Quantiles are not shipped: the receiver recomputes them
                // from the raw sub-bucket counts, which also makes two
                // scrapes diffable into interval-exact quantiles.
                body.put_u32_le(h.buckets.len() as u32);
                for &(i, c) in &h.buckets {
                    body.put_u16_le(i);
                    body.put_u64_le(c);
                }
            }
        }
    }
    let mut out = BytesMut::with_capacity(body.len() + 4);
    out.put_u32_le(body.len() as u32);
    out.put_slice(&body.freeze());
    out.freeze()
}

fn decode_body<E: WireElement>(mut buf: Bytes) -> Result<Frame<E>> {
    let tag = get_u8(&mut buf)?;
    // Document-addressed frames carry the document id right after the tag.
    let doc = match tag {
        TAG_DATA | TAG_ACK | TAG_DIGEST_REQUEST | TAG_DIGEST_REPLY => get_doc(&mut buf)?,
        _ => DocumentId::ROOT,
    };
    let frame = match tag {
        TAG_HELLO => Frame::Hello { session: get_u32(&mut buf)?, user: get_u32(&mut buf)? },
        TAG_WELCOME => Frame::Welcome {
            session: get_u32(&mut buf)?,
            user: get_u32(&mut buf)?,
            peers: get_u32(&mut buf)?,
        },
        TAG_DATA => {
            let src = get_u32(&mut buf)?;
            let epoch = get_u64(&mut buf)?;
            let seq = get_u64(&mut buf)?;
            let ack_epoch = get_u64(&mut buf)?;
            let ack = get_u64(&mut buf)?;
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(WireError::Truncated);
            }
            let msg = decode_message(buf.split_to(len))?;
            Frame::Data { doc, src, epoch, seq, ack_epoch, ack, msg: Arc::new(msg) }
        }
        TAG_ACK => Frame::Ack {
            doc,
            from: get_u32(&mut buf)?,
            epoch: get_u64(&mut buf)?,
            cum: get_u64(&mut buf)?,
        },
        TAG_DIGEST_REQUEST => Frame::DigestRequest { session: get_u32(&mut buf)?, doc },
        TAG_DIGEST_REPLY => Frame::DigestReply {
            session: get_u32(&mut buf)?,
            doc,
            user: get_u32(&mut buf)?,
            digest: get_u64(&mut buf)?,
            idle: get_bool(&mut buf)?,
        },
        TAG_BYE => Frame::Bye { user: get_u32(&mut buf)? },
        TAG_METRICS_REQUEST => Frame::MetricsRequest { session: get_u32(&mut buf)? },
        TAG_METRICS_REPORT => {
            let session = get_u32(&mut buf)?;
            let at_ns = get_u64(&mut buf)?;
            let mut counters = BTreeMap::new();
            for _ in 0..get_u32(&mut buf)? {
                let name = get_metric_name(&mut buf)?;
                insert_ascending(&mut counters, name, get_u64(&mut buf)?)?;
            }
            let mut gauges = BTreeMap::new();
            for _ in 0..get_u32(&mut buf)? {
                let name = get_metric_name(&mut buf)?;
                insert_ascending(&mut gauges, name, get_u64(&mut buf)?)?;
            }
            let mut histograms = BTreeMap::new();
            for _ in 0..get_u32(&mut buf)? {
                let name = get_metric_name(&mut buf)?;
                let count = get_u64(&mut buf)?;
                let sum = get_u64(&mut buf)?;
                let mut buckets = Vec::new();
                let mut prev: Option<u16> = None;
                for _ in 0..get_u32(&mut buf)? {
                    let i = get_u16(&mut buf)?;
                    let c = get_u64(&mut buf)?;
                    // Indices must be in-layout, strictly ascending and
                    // non-empty — anything else is corrupt or hostile.
                    if (i as usize) >= HIST_BUCKETS || prev.is_some_and(|p| p >= i) || c == 0 {
                        return Err(WireError::BadHeader);
                    }
                    prev = Some(i);
                    buckets.push((i, c));
                }
                let snap = HistogramSnapshot::from_buckets(count, sum, buckets);
                insert_ascending(&mut histograms, name, snap)?;
            }
            Frame::MetricsReport {
                session,
                report: Arc::new(dce_obs::MetricsReport { at_ns, counters, gauges, histograms }),
            }
        }
        t => return Err(WireError::BadTag(t)),
    };
    // A frame body is exactly its fields: leftover bytes mean the length
    // prefix and the content disagree, i.e. the stream is desynchronized
    // or corrupt. Failing here drops the connection before the confusion
    // spreads.
    if buf.remaining() != 0 {
        return Err(WireError::BadHeader);
    }
    Ok(frame)
}

/// Emits a length-prefixed metric name. Names beyond [`MAX_METRIC_NAME`]
/// never occur in a real registry; the decoder rejects them.
fn put_metric_name(body: &mut BytesMut, name: &str) {
    debug_assert!(name.len() <= MAX_METRIC_NAME, "metric name too long for the wire");
    body.put_u16_le(name.len() as u16);
    body.put_slice(name.as_bytes());
}

/// Adds one series to a decoded report section. A section encodes in
/// name order, so an out-of-order or repeated name is corrupt.
fn insert_ascending<V>(section: &mut BTreeMap<String, V>, name: String, v: V) -> Result<()> {
    if section.last_key_value().is_some_and(|(last, _)| *last >= name) {
        return Err(WireError::BadHeader);
    }
    section.insert(name, v);
    Ok(())
}

fn get_metric_name(buf: &mut Bytes) -> Result<String> {
    let len = get_u16(buf)? as usize;
    if len > MAX_METRIC_NAME {
        return Err(WireError::BadHeader);
    }
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    String::from_utf8(buf.split_to(len).to_vec()).map_err(|_| WireError::BadHeader)
}

/// Incremental frame parser over an undelimited byte stream.
///
/// Decoding is batched: whenever a read completes several frames at
/// once (the common shape under load — the kernel hands back a whole
/// burst), the run of complete frames is frozen into **one** shared
/// buffer and each frame's body is a zero-copy [`Bytes`] view into it.
/// The old per-frame shape — copy the body out, then `drain` the
/// accumulation buffer — allocated once per frame and moved the whole
/// tail per frame, O(buffered²) across a burst.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes not yet part of a frozen run: at most one partial frame
    /// plus whatever arrived after a decode error.
    buf: Vec<u8>,
    /// The frozen run of complete frames, consumed front to back.
    ready: Bytes,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.ready.len()
    }

    /// Freezes the longest prefix of `buf` that holds only complete,
    /// plausibly-sized frames into `ready`. Stops (without erroring) at
    /// a partial frame or an oversized length prefix — errors surface in
    /// [`FrameDecoder::next`] once the frames before them are consumed.
    fn freeze_complete_run(&mut self) {
        let mut end = 0;
        while self.buf.len() - end >= 4 {
            let len =
                u32::from_le_bytes(self.buf[end..end + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN || self.buf.len() - end < 4 + len {
                break;
            }
            end += 4 + len;
        }
        if end == 0 {
            return;
        }
        let tail = self.buf.split_off(end);
        self.ready = Bytes::from(std::mem::replace(&mut self.buf, tail));
    }

    /// Pulls the next complete frame out, `Ok(None)` when more bytes are
    /// needed. After an `Err` the stream is beyond repair — the caller
    /// should drop the connection.
    ///
    /// Not an `Iterator`: the element type is chosen per call and errors
    /// are terminal rather than items.
    #[allow(clippy::should_implement_trait)]
    pub fn next<E: WireElement>(&mut self) -> Result<Option<Frame<E>>> {
        if self.ready.is_empty() {
            self.freeze_complete_run();
        }
        if !self.ready.is_empty() {
            // Length and completeness were validated when the run froze.
            let len = self.ready.get_u32_le() as usize;
            let body = self.ready.split_to(len);
            return decode_body(body).map(Some);
        }
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::BadHeader);
        }
        debug_assert!(self.buf.len() < 4 + len, "complete frame left unfrozen");
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_DOC_ID;
    use dce_document::Char;
    use dce_ot::ids::Clock;

    fn heartbeat(n: u64) -> Frame<Char> {
        let mut clock = Clock::new();
        clock.set(2, n);
        Frame::Data {
            doc: DocumentId::ROOT,
            src: 2,
            epoch: 1,
            seq: n,
            ack_epoch: 0,
            ack: 3,
            msg: Arc::new(Message::Heartbeat { from: 2, clock }),
        }
    }

    fn doc_heartbeat(doc: u64, n: u64) -> Frame<Char> {
        match heartbeat(n) {
            Frame::Data { src, epoch, seq, ack_epoch, ack, msg, .. } => {
                Frame::Data { doc: DocumentId::new(doc), src, epoch, seq, ack_epoch, ack, msg }
            }
            _ => unreachable!(),
        }
    }

    fn roundtrip(frame: &Frame<Char>) -> Frame<Char> {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(frame));
        let out = dec.next().expect("decodes").expect("complete");
        assert_eq!(dec.buffered(), 0);
        out
    }

    #[test]
    fn control_frames_roundtrip() {
        for frame in [
            Frame::<Char>::Hello { session: 7, user: 3 },
            Frame::Welcome { session: 7, user: 3, peers: 4 },
            Frame::Ack { doc: DocumentId::ROOT, from: 3, epoch: 2, cum: 99 },
            Frame::DigestRequest { session: 7, doc: DocumentId::ROOT },
            Frame::DigestReply {
                session: 7,
                doc: DocumentId::ROOT,
                user: 0,
                digest: u64::MAX,
                idle: true,
            },
            Frame::Bye { user: 3 },
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn data_frames_roundtrip_through_the_wire_codec() {
        let frame = heartbeat(5);
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn every_document_shares_one_tag_and_the_doc_word_follows_it() {
        for doc in [0, 1, 42, MAX_DOC_ID] {
            let frame = doc_heartbeat(doc, 5);
            let bytes = encode_frame(&frame);
            assert_eq!(bytes[4], TAG_DATA);
            assert_eq!(u64::from_le_bytes(bytes[5..13].try_into().unwrap()), doc);
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn split_and_concatenated_reads_reassemble() {
        let bytes: Vec<u8> = [encode_frame(&heartbeat(1)), encode_frame(&heartbeat(2))]
            .iter()
            .fold(Vec::new(), |mut acc, b| {
                acc.extend_from_slice(b);
                acc
            });
        let mut dec = FrameDecoder::new();
        let mut out: Vec<Frame<Char>> = Vec::new();
        // Dribble one byte at a time: every prefix is a legal partial read.
        for byte in bytes {
            dec.extend(&[byte]);
            while let Some(f) = dec.next().expect("clean stream") {
                out.push(f);
            }
        }
        assert_eq!(out, vec![heartbeat(1), heartbeat(2)]);
    }

    /// A kernel-sized burst: many complete frames plus a partial tail in
    /// one read. The complete run decodes frame by frame; the partial
    /// frame completes later and decodes too.
    #[test]
    fn a_burst_of_frames_decodes_from_one_frozen_run() {
        let mut bytes = Vec::new();
        for n in 1..=64u64 {
            bytes.extend_from_slice(&encode_frame(&heartbeat(n)));
        }
        let last = encode_frame(&heartbeat(65));
        let (head, tail) = last.split_at(last.len() - 3);
        bytes.extend_from_slice(head);

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let mut out: Vec<Frame<Char>> = Vec::new();
        while let Some(f) = dec.next().expect("clean stream") {
            out.push(f);
        }
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], heartbeat(1));
        assert_eq!(out[63], heartbeat(64));
        assert_eq!(dec.buffered(), head.len(), "partial tail stays buffered");

        dec.extend(tail);
        assert_eq!(dec.next().expect("clean stream"), Some(heartbeat(65)));
        assert_eq!(dec.buffered(), 0);
    }

    /// An error frame queued behind good ones surfaces only after the
    /// good frames are consumed, exactly like the one-at-a-time decoder.
    #[test]
    fn errors_surface_after_the_preceding_good_frames() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(&heartbeat(1)));
        dec.extend(&1u32.to_le_bytes());
        dec.extend(&[0xEE]);
        assert_eq!(dec.next::<Char>(), Ok(Some(heartbeat(1))));
        assert_eq!(dec.next::<Char>(), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert_eq!(dec.next::<Char>(), Err(WireError::BadHeader));
    }

    #[test]
    fn truncated_body_and_unknown_tag_are_rejected() {
        // Length says 9 bytes (tag and doc 1), tag says Ack (needs 29):
        // truncated.
        let mut dec = FrameDecoder::new();
        dec.extend(&9u32.to_le_bytes());
        dec.extend(&[TAG_ACK, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(dec.next::<Char>(), Err(WireError::Truncated));

        let mut dec = FrameDecoder::new();
        dec.extend(&1u32.to_le_bytes());
        dec.extend(&[0xEE]);
        assert_eq!(dec.next::<Char>(), Err(WireError::BadTag(0xEE)));
    }

    fn sample_report() -> dce_obs::MetricsReport {
        let m = dce_obs::Metrics::new();
        m.counter("server.delivered").add(42);
        m.counter("server.delivered.doc7").add(40);
        m.gauge("site.queue_depth_ready.doc7").set(3);
        let h = m.histogram("store.fsync_ns.doc7");
        for v in [250u64, 1_000, 90_000] {
            h.observe(v);
        }
        let mut report = m.snapshot();
        report.at_ns = 123_456_789;
        report
    }

    #[test]
    fn metrics_frames_roundtrip() {
        let req = Frame::<Char>::MetricsRequest { session: 7 };
        assert_eq!(roundtrip(&req), req);
        assert_eq!(encode_frame(&req)[4], TAG_METRICS_REQUEST);

        let reply = Frame::<Char>::MetricsReport { session: 7, report: Arc::new(sample_report()) };
        assert_eq!(encode_frame(&reply)[4], TAG_METRICS_REPORT);
        let decoded = roundtrip(&reply);
        assert_eq!(decoded, reply);
        // The quantiles recomputed on decode match the sender's: the raw
        // buckets are the single source of truth.
        if let Frame::MetricsReport { report, .. } = decoded {
            let h = &report.histograms["store.fsync_ns.doc7"];
            assert_eq!(h.count, 3);
            assert!(h.p99 >= 84_375, "p99 {} within 6.25% of 90000", h.p99);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn empty_metrics_report_roundtrips() {
        let reply = Frame::<Char>::MetricsReport {
            session: 0,
            report: Arc::new(dce_obs::MetricsReport::default()),
        };
        assert_eq!(roundtrip(&reply), reply);
    }

    #[test]
    fn metrics_report_rejects_corrupt_histogram_buckets() {
        let base = Frame::<Char>::MetricsReport { session: 1, report: Arc::new(sample_report()) };
        let good = encode_frame(&base).to_vec();
        // Out-of-range bucket index: patch the first histogram bucket's
        // u16 index (it sits right after count/sum/n_buckets fields; find
        // it by re-encoding with a sentinel-free scan instead — simplest
        // is to corrupt every u16-aligned pair and require that at least
        // the original decodes and a saturated index fails).
        let mut dec = FrameDecoder::new();
        dec.extend(&good);
        assert!(dec.next::<Char>().expect("clean").is_some());

        // A hand-built body with one histogram whose bucket index is out
        // of layout range must be rejected.
        let mut body = BytesMut::new();
        body.put_u8(TAG_METRICS_REPORT);
        body.put_u32_le(1); // session
        body.put_u64_le(0); // at_ns
        body.put_u32_le(0); // counters
        body.put_u32_le(0); // gauges
        body.put_u32_le(1); // one histogram
        body.put_u16_le(1); // name len
        body.put_slice(b"h");
        body.put_u64_le(1); // count
        body.put_u64_le(1); // sum
        body.put_u32_le(1); // one bucket
        body.put_u16_le(u16::MAX); // index far beyond HIST_BUCKETS
        body.put_u64_le(1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body.freeze());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next::<Char>(), Err(WireError::BadHeader));
    }

    #[test]
    fn metrics_report_rejects_unsorted_buckets_and_truncation() {
        // Two buckets out of order.
        let mut body = BytesMut::new();
        body.put_u8(TAG_METRICS_REPORT);
        body.put_u32_le(1);
        body.put_u64_le(0);
        body.put_u32_le(0);
        body.put_u32_le(0);
        body.put_u32_le(1);
        body.put_u16_le(1);
        body.put_slice(b"h");
        body.put_u64_le(2);
        body.put_u64_le(2);
        body.put_u32_le(2);
        body.put_u16_le(5);
        body.put_u64_le(1);
        body.put_u16_le(4); // descending: corrupt
        body.put_u64_le(1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body.freeze());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next::<Char>(), Err(WireError::BadHeader));

        // A report cut off mid-entry is Truncated, not garbage.
        let full = encode_frame(&Frame::<Char>::MetricsReport {
            session: 1,
            report: Arc::new(sample_report()),
        });
        let cut = full.len() - 5;
        let mut bytes = full[..cut].to_vec();
        bytes[..4].copy_from_slice(&((cut - 4) as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next::<Char>(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_garbage_inside_a_frame_is_rejected() {
        let mut bytes = encode_frame(&Frame::<Char>::Bye { user: 1 }).to_vec();
        // Grow the body by one byte and patch the length prefix to match:
        // the frame is self-consistent but longer than its content.
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next::<Char>(), Err(WireError::BadHeader));
    }
}
