//! Binary journal format, in the style of `dce-net`'s wire codec:
//! versioned, length-explicit, little-endian, tag bytes for enums.
//!
//! ```text
//! journal := u8 MAGIC (0xD1)  u8 VERSION (3)  u32 count  event*
//! event   := u32 site  u64 seq  u64 version  u64 lamport  u64 at  u64 doc  u8 tag  fields
//! ```
//!
//! [`decode_journal`] accepts only this format: any other version byte is
//! [`CodecError::BadHeader`].

use crate::event::{DeferReason, Event, EventKind, ReqId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u8 = 0xD1;
const VERSION: u8 = 3;

/// Errors raised while decoding a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the journal did.
    Truncated,
    /// Magic byte or format version mismatch.
    BadHeader,
    /// An enum tag byte had no meaning.
    BadTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "journal truncated"),
            CodecError::BadHeader => write!(f, "bad magic/version header"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn put_req_id(out: &mut BytesMut, id: ReqId) {
    out.put_u32_le(id.site);
    out.put_u64_le(id.seq);
}

fn get_req_id(buf: &mut Bytes) -> Result<ReqId> {
    Ok(ReqId { site: get_u32(buf)?, seq: get_u64(buf)? })
}

fn put_reason(out: &mut BytesMut, reason: DeferReason) {
    match reason {
        DeferReason::MissingVersion(v) => {
            out.put_u8(0);
            out.put_u64_le(v);
        }
        DeferReason::MissingRequest(id) => {
            out.put_u8(1);
            put_req_id(out, id);
        }
    }
}

fn get_reason(buf: &mut Bytes) -> Result<DeferReason> {
    match get_u8(buf)? {
        0 => Ok(DeferReason::MissingVersion(get_u64(buf)?)),
        1 => Ok(DeferReason::MissingRequest(get_req_id(buf)?)),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Appends one event's encoding in the current format version (no
/// header; see [`encode_journal`]).
pub fn encode_event(ev: &Event, out: &mut BytesMut) {
    out.put_u32_le(ev.site);
    out.put_u64_le(ev.seq);
    out.put_u64_le(ev.version);
    out.put_u64_le(ev.lamport);
    out.put_u64_le(ev.at);
    out.put_u64_le(ev.doc);
    match ev.kind {
        EventKind::ReqGenerated { id } => {
            out.put_u8(0);
            put_req_id(out, id);
        }
        EventKind::ReqReceived { id } => {
            out.put_u8(1);
            put_req_id(out, id);
        }
        EventKind::ReqDuplicate { id } => {
            out.put_u8(2);
            put_req_id(out, id);
        }
        EventKind::ReqDeferred { id, reason } => {
            out.put_u8(3);
            put_req_id(out, id);
            put_reason(out, reason);
        }
        EventKind::ReqExecuted { id } => {
            out.put_u8(4);
            put_req_id(out, id);
        }
        EventKind::ReqInert { id } => {
            out.put_u8(5);
            put_req_id(out, id);
        }
        EventKind::ReqDenied { id } => {
            out.put_u8(6);
            put_req_id(out, id);
        }
        EventKind::ReqUndone { id } => {
            out.put_u8(7);
            put_req_id(out, id);
        }
        EventKind::CheckLocalDenied { user } => {
            out.put_u8(8);
            out.put_u32_le(user);
        }
        EventKind::AdminReceived { version } => {
            out.put_u8(9);
            out.put_u64_le(version);
        }
        EventKind::AdminDeferred { version, reason } => {
            out.put_u8(10);
            out.put_u64_le(version);
            put_reason(out, reason);
        }
        EventKind::AdminApplied { version, restrictive } => {
            out.put_u8(11);
            out.put_u64_le(version);
            out.put_u8(u8::from(restrictive));
        }
        EventKind::ValidationIssued { id, version } => {
            out.put_u8(12);
            put_req_id(out, id);
            out.put_u64_le(version);
        }
        EventKind::ValidationConsumed { id, version } => {
            out.put_u8(13);
            put_req_id(out, id);
            out.put_u64_le(version);
        }
        EventKind::StreamRetransmit { src, dest, stream_seq, req } => {
            out.put_u8(14);
            out.put_u32_le(src);
            out.put_u32_le(dest);
            out.put_u64_le(stream_seq);
            match req {
                Some(id) => {
                    out.put_u8(1);
                    put_req_id(out, id);
                }
                None => out.put_u8(0),
            }
        }
        EventKind::LegDropped { src, dest } => {
            out.put_u8(15);
            out.put_u32_le(src);
            out.put_u32_le(dest);
        }
        EventKind::LegDuplicated { src, dest } => {
            out.put_u8(16);
            out.put_u32_le(src);
            out.put_u32_le(dest);
        }
        EventKind::PartitionHealed { at_ms } => {
            out.put_u8(17);
            out.put_u64_le(at_ms);
        }
        EventKind::SiteCrashed { site } => {
            out.put_u8(18);
            out.put_u32_le(site);
        }
        EventKind::SiteRejoined { site } => {
            out.put_u8(19);
            out.put_u32_le(site);
        }
        EventKind::ReqStable { id } => {
            out.put_u8(20);
            put_req_id(out, id);
        }
    }
}

/// Decodes one event (no header; see [`decode_journal`]).
pub fn decode_event(buf: &mut Bytes) -> Result<Event> {
    let site = get_u32(buf)?;
    let seq = get_u64(buf)?;
    let version = get_u64(buf)?;
    let lamport = get_u64(buf)?;
    let at = get_u64(buf)?;
    let doc = get_u64(buf)?;
    let kind = match get_u8(buf)? {
        0 => EventKind::ReqGenerated { id: get_req_id(buf)? },
        1 => EventKind::ReqReceived { id: get_req_id(buf)? },
        2 => EventKind::ReqDuplicate { id: get_req_id(buf)? },
        3 => EventKind::ReqDeferred { id: get_req_id(buf)?, reason: get_reason(buf)? },
        4 => EventKind::ReqExecuted { id: get_req_id(buf)? },
        5 => EventKind::ReqInert { id: get_req_id(buf)? },
        6 => EventKind::ReqDenied { id: get_req_id(buf)? },
        7 => EventKind::ReqUndone { id: get_req_id(buf)? },
        8 => EventKind::CheckLocalDenied { user: get_u32(buf)? },
        9 => EventKind::AdminReceived { version: get_u64(buf)? },
        10 => EventKind::AdminDeferred { version: get_u64(buf)?, reason: get_reason(buf)? },
        11 => EventKind::AdminApplied { version: get_u64(buf)?, restrictive: get_u8(buf)? != 0 },
        12 => EventKind::ValidationIssued { id: get_req_id(buf)?, version: get_u64(buf)? },
        13 => EventKind::ValidationConsumed { id: get_req_id(buf)?, version: get_u64(buf)? },
        14 => EventKind::StreamRetransmit {
            src: get_u32(buf)?,
            dest: get_u32(buf)?,
            stream_seq: get_u64(buf)?,
            req: match get_u8(buf)? {
                0 => None,
                1 => Some(get_req_id(buf)?),
                t => return Err(CodecError::BadTag(t)),
            },
        },
        15 => EventKind::LegDropped { src: get_u32(buf)?, dest: get_u32(buf)? },
        16 => EventKind::LegDuplicated { src: get_u32(buf)?, dest: get_u32(buf)? },
        17 => EventKind::PartitionHealed { at_ms: get_u64(buf)? },
        18 => EventKind::SiteCrashed { site: get_u32(buf)? },
        19 => EventKind::SiteRejoined { site: get_u32(buf)? },
        20 => EventKind::ReqStable { id: get_req_id(buf)? },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(Event { site, doc, seq, version, lamport, at, kind })
}

/// Encodes a whole journal (header + count + events).
pub fn encode_journal(events: &[Event]) -> Bytes {
    let mut out = BytesMut::with_capacity(2 + 4 + events.len() * 48);
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(events.len() as u32);
    for ev in events {
        encode_event(ev, &mut out);
    }
    out.freeze()
}

/// Decodes a whole journal produced by [`encode_journal`].
pub fn decode_journal(mut buf: Bytes) -> Result<Vec<Event>> {
    if get_u8(&mut buf)? != MAGIC || get_u8(&mut buf)? != VERSION {
        return Err(CodecError::BadHeader);
    }
    let count = get_u32(&mut buf)? as usize;
    let mut events = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        events.push(decode_event(&mut buf)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_round_trip() {
        let events = vec![
            Event {
                site: 1,
                doc: 0,
                seq: 1,
                version: 0,
                lamport: 1,
                at: 17,
                kind: EventKind::ReqGenerated { id: ReqId::new(1, 1) },
            },
            Event {
                site: 2,
                doc: 7,
                seq: 1,
                version: 3,
                lamport: 2,
                at: 0,
                kind: EventKind::ReqDeferred {
                    id: ReqId::new(1, 1),
                    reason: DeferReason::MissingVersion(3),
                },
            },
            Event {
                site: 0,
                doc: u64::MAX,
                seq: 9,
                version: 4,
                lamport: 3,
                at: 250,
                kind: EventKind::AdminApplied { version: 4, restrictive: true },
            },
            Event {
                site: 3,
                doc: 7,
                seq: 2,
                version: 4,
                lamport: 4,
                at: 300,
                kind: EventKind::StreamRetransmit {
                    src: 3,
                    dest: 1,
                    stream_seq: 8,
                    req: Some(ReqId::new(1, 1)),
                },
            },
            Event {
                site: 1,
                doc: 0,
                seq: 5,
                version: 4,
                lamport: 5,
                at: 900,
                kind: EventKind::ReqStable { id: ReqId::new(1, 1) },
            },
        ];
        let bytes = encode_journal(&events);
        assert_eq!(decode_journal(bytes).unwrap(), events);
    }

    #[test]
    fn bad_header_rejected() {
        let mut out = BytesMut::new();
        out.put_u8(0xAB);
        out.put_u8(VERSION);
        out.put_u32_le(0);
        assert_eq!(decode_journal(out.freeze()), Err(CodecError::BadHeader));
        // Only the current format decodes: formats 1 and 2, and any other
        // version byte, are rejected.
        for format in (0..=u8::MAX).filter(|&f| f != VERSION) {
            let mut out = BytesMut::new();
            out.put_u8(MAGIC);
            out.put_u8(format);
            out.put_u32_le(0);
            assert_eq!(decode_journal(out.freeze()), Err(CodecError::BadHeader), "format {format}");
        }
    }

    #[test]
    fn truncation_rejected() {
        let events = vec![Event {
            site: 1,
            doc: 0,
            seq: 1,
            version: 0,
            lamport: 1,
            at: 0,
            kind: EventKind::PartitionHealed { at_ms: 500 },
        }];
        let bytes = encode_journal(&events);
        let cut = bytes.slice(0..bytes.len() - 1);
        assert_eq!(decode_journal(cut), Err(CodecError::Truncated));
    }
}
