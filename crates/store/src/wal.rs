//! The write-ahead log: record framing, segment files, the incremental
//! decoder, and the torn-tail-tolerant segment scanner.
//!
//! A WAL segment file is
//!
//! ```text
//! segment header (30 bytes):
//!   u8  MAGIC (0xD7)      u8  VERSION (1)
//!   u64 document id       u32 user      u32 admin
//!   u64 base              -- global index of the first record
//!   u32 CRC-32            -- over the 26 preceding bytes
//! then zero or more record frames:
//!   u32 body length       u32 CRC-32 of body
//!   body: u8 kind, then kind-specific fields
//! ```
//!
//! Record kinds: `0` a remote message about to be applied (write-ahead),
//! `1` a successful local cooperative generation (the visible-coordinate
//! input op plus the identity it produced), `2` a successful local
//! administrative generation, `3` a stability-horizon compaction point.
//!
//! All integers are little-endian, matching the `dce-net` wire codec the
//! record bodies embed.

use crate::crc::crc32;
use crate::StoreError;
use bytes::{BufMut, Bytes, BytesMut};
use dce_core::shard::DocumentId;
use dce_core::Message;
use dce_document::Op;
use dce_net::wire::{self, WireElement};
use dce_ot::ids::RequestId;
use dce_policy::{AdminOp, PolicyVersion, UserId};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Segment file format version.
pub const WAL_VERSION: u8 = 1;

/// Magic byte opening every WAL segment file.
const MAGIC: u8 = 0xD7;

/// Encoded size of a [`SegmentHeader`].
pub const SEGMENT_HEADER_LEN: usize = 30;

/// Upper bound on a single record body. Far above any legitimate record
/// (a message embeds one operation, not a document), so a length above
/// this is corruption, not data.
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// When appends reach the platter: every append returns only after
/// `write(2)` (so a killed process loses nothing); fsync cadence governs
/// the power-failure window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: zero power-failure window, slowest.
    EveryRecord,
    /// `fsync` once every N records.
    EveryN(u32),
    /// `fsync` when at least this many milliseconds elapsed since the
    /// previous sync (checked at append time).
    EveryMs(u64),
}

/// The metadata opening a WAL segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// The document this segment journals.
    pub doc: DocumentId,
    /// The journaling participant.
    pub user: UserId,
    /// The group's administrator.
    pub admin: UserId,
    /// Global index of the first record in this segment.
    pub base: u64,
}

/// Encodes a segment header (fixed [`SEGMENT_HEADER_LEN`] bytes).
pub fn encode_segment_header(h: &SegmentHeader) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[0] = MAGIC;
    out[1] = WAL_VERSION;
    out[2..10].copy_from_slice(&h.doc.0.to_le_bytes());
    out[10..14].copy_from_slice(&h.user.to_le_bytes());
    out[14..18].copy_from_slice(&h.admin.to_le_bytes());
    out[18..26].copy_from_slice(&h.base.to_le_bytes());
    let crc = crc32(&out[..26]);
    out[26..30].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a segment header, rejecting bad magic, unknown versions and
/// checksum mismatches.
pub fn decode_segment_header(bytes: &[u8]) -> Result<SegmentHeader, StoreError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(StoreError::Codec("segment header truncated".into()));
    }
    if bytes[0] != MAGIC {
        return Err(StoreError::Codec(format!("bad segment magic {:#04x}", bytes[0])));
    }
    if bytes[1] != WAL_VERSION {
        return Err(StoreError::Codec(format!("unsupported segment version {}", bytes[1])));
    }
    let stored = u32::from_le_bytes(bytes[26..30].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..26]);
    if stored != computed {
        return Err(StoreError::BadCrc { expected: stored, found: computed });
    }
    Ok(SegmentHeader {
        doc: DocumentId(u64::from_le_bytes(bytes[2..10].try_into().expect("8 bytes"))),
        user: u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes")),
        admin: u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes")),
        base: u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes")),
    })
}

/// One journaled protocol step, owned (the decoder's output).
#[derive(Debug, Clone, PartialEq)]
pub enum Record<E> {
    /// A remote message, journaled *before* application.
    Remote(Message<E>),
    /// A successful local cooperative generation: the visible-coordinate
    /// input and the identity the generation produced (asserted on
    /// replay).
    LocalCoop {
        /// The visible-coordinate operation the user executed.
        op: Op<E>,
        /// The request id the generation produced.
        id: RequestId,
        /// The policy version the request was checked against.
        v: PolicyVersion,
    },
    /// A successful local administrative generation.
    LocalAdmin {
        /// The administrative operation.
        op: AdminOp,
        /// The policy version the request produced (asserted on replay).
        version: PolicyVersion,
    },
    /// The stability-horizon compactor ran here.
    Compact,
}

impl<E> Record<E> {
    /// A borrowed view for encoding.
    pub fn borrow(&self) -> RecordRef<'_, E> {
        match self {
            Record::Remote(msg) => RecordRef::Remote(msg),
            Record::LocalCoop { op, id, v } => RecordRef::LocalCoop { op, id: *id, v: *v },
            Record::LocalAdmin { op, version } => RecordRef::LocalAdmin { op, version: *version },
            Record::Compact => RecordRef::Compact,
        }
    }
}

/// A borrowed record, so the journal hooks encode straight from the
/// engine's references without cloning messages.
#[derive(Debug, Clone, Copy)]
pub enum RecordRef<'a, E> {
    /// See [`Record::Remote`].
    Remote(&'a Message<E>),
    /// See [`Record::LocalCoop`].
    LocalCoop {
        /// The visible-coordinate operation the user executed.
        op: &'a Op<E>,
        /// The request id the generation produced.
        id: RequestId,
        /// The policy version the request was checked against.
        v: PolicyVersion,
    },
    /// See [`Record::LocalAdmin`].
    LocalAdmin {
        /// The administrative operation.
        op: &'a AdminOp,
        /// The policy version the request produced.
        version: PolicyVersion,
    },
    /// See [`Record::Compact`].
    Compact,
}

fn encode_body<E: WireElement>(rec: &RecordRef<'_, E>, out: &mut BytesMut) {
    match rec {
        RecordRef::Remote(msg) => {
            out.put_u8(0);
            out.put_slice(&wire::encode_message(msg));
        }
        RecordRef::LocalCoop { op, id, v } => {
            out.put_u8(1);
            wire::encode_op(op, out);
            wire::encode_request_id(*id, out);
            out.put_u64_le(*v);
        }
        RecordRef::LocalAdmin { op, version } => {
            out.put_u8(2);
            wire::encode_admin_op(op, out);
            out.put_u64_le(*version);
        }
        RecordRef::Compact => out.put_u8(3),
    }
}

/// Encodes one framed record (length, CRC, body) onto `out`.
pub fn encode_record<E: WireElement>(rec: &RecordRef<'_, E>, out: &mut BytesMut) {
    let mut body = BytesMut::new();
    encode_body(rec, &mut body);
    let body = body.freeze();
    debug_assert!(body.len() <= MAX_RECORD_LEN, "record body exceeds the frame cap");
    out.put_u32_le(body.len() as u32);
    out.put_u32_le(crc32(&body));
    out.put_slice(&body);
}

fn decode_body<E: WireElement>(mut body: Bytes) -> Result<Record<E>, StoreError> {
    let kind = wire::get_u8(&mut body)?;
    let rec = match kind {
        // The message codec rejects its own trailing bytes.
        0 => return Ok(Record::Remote(wire::decode_message(body)?)),
        1 => Record::LocalCoop {
            op: wire::decode_op(&mut body)?,
            id: wire::decode_request_id(&mut body)?,
            v: wire::get_u64(&mut body)?,
        },
        2 => Record::LocalAdmin {
            op: wire::decode_admin_op(&mut body)?,
            version: wire::get_u64(&mut body)?,
        },
        3 => Record::Compact,
        k => return Err(StoreError::Codec(format!("unknown record kind {k}"))),
    };
    if !body.is_empty() {
        return Err(StoreError::Codec(format!("trailing bytes after a kind-{kind} record")));
    }
    Ok(rec)
}

/// Incremental record decoder: feed byte chunks of any size, pull
/// complete records out. `Ok(None)` means "need more bytes" — which, at
/// the end of a file, is exactly a torn write.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    buf: Vec<u8>,
    start: usize,
    consumed: u64,
}

impl RecordDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        RecordDecoder::default()
    }

    /// Feeds more bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed but not yet consumed by a completed record.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Total bytes consumed by successfully decoded records.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Decodes the next complete record, `Ok(None)` when the buffered
    /// bytes end mid-frame.
    #[allow(clippy::should_implement_trait)] // fallible + generic per call: not `Iterator`
    pub fn next<E: WireElement>(&mut self) -> Result<Option<Record<E>>, StoreError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN {
            return Err(StoreError::Oversize { len: len as u32 });
        }
        if avail.len() < 8 + len {
            return Ok(None);
        }
        let expected = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        let body = Bytes::from(avail[8..8 + len].to_vec());
        let found = crc32(&body);
        if found != expected {
            return Err(StoreError::BadCrc { expected, found });
        }
        let rec = decode_body(body)?;
        self.advance(8 + len);
        Ok(Some(rec))
    }

    /// Validates the next complete frame (length bound + CRC) without
    /// decoding its body, `Ok(None)` when the buffered bytes end
    /// mid-frame. Recovery uses this for records at or below a snapshot
    /// horizon: their content is already captured, but the frame walk
    /// must still locate the next record and surface damage.
    pub fn skip_next(&mut self) -> Result<Option<()>, StoreError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN {
            return Err(StoreError::Oversize { len: len as u32 });
        }
        if avail.len() < 8 + len {
            return Ok(None);
        }
        let expected = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        let found = crc32(&avail[8..8 + len]);
        if found != expected {
            return Err(StoreError::BadCrc { expected, found });
        }
        self.advance(8 + len);
        Ok(Some(()))
    }

    fn advance(&mut self, frame: usize) {
        self.start += frame;
        self.consumed += frame as u64;
        // Keep the retained buffer bounded across long scans.
        if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Result of appending one record to a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct Append {
    /// Frame size written (header + body).
    pub bytes: u64,
    /// Whether this append triggered an fsync.
    pub synced: bool,
    /// Records flushed by that fsync (0 when `synced` is false).
    pub batch: u32,
    /// Wall time the fsync took (0 when `synced` is false).
    pub sync_ns: u64,
}

/// An open, appendable WAL segment file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    header: SegmentHeader,
    records: u64,
    len: u64,
    synced_len: u64,
    pending: u32,
    last_sync: Instant,
    policy: FsyncPolicy,
}

impl Wal {
    /// Creates a fresh segment file at `path` (which must not exist),
    /// writing and fsyncing the header.
    pub fn create(path: &Path, header: SegmentHeader, policy: FsyncPolicy) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
        file.write_all(&encode_segment_header(&header))?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            header,
            records: 0,
            len: SEGMENT_HEADER_LEN as u64,
            synced_len: SEGMENT_HEADER_LEN as u64,
            pending: 0,
            last_sync: Instant::now(),
            policy,
        })
    }

    /// Re-opens a recovered segment for appending: truncates the file to
    /// `valid_len` (discarding a torn tail) and resumes after
    /// `records` already-journaled records.
    pub fn resume(
        path: &Path,
        header: SegmentHeader,
        valid_len: u64,
        records: u64,
        policy: FsyncPolicy,
    ) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            header,
            records,
            len: valid_len,
            synced_len: valid_len,
            pending: 0,
            last_sync: Instant::now(),
            policy,
        })
    }

    /// Appends one record (write-through; see [`FsyncPolicy`] for when
    /// the sync happens).
    pub fn append<E: WireElement>(&mut self, rec: &RecordRef<'_, E>) -> std::io::Result<Append> {
        let mut frame = BytesMut::new();
        encode_record(rec, &mut frame);
        let frame = frame.freeze();
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        self.pending += 1;
        let due = match self.policy {
            FsyncPolicy::EveryRecord => true,
            FsyncPolicy::EveryN(n) => self.pending >= n.max(1),
            FsyncPolicy::EveryMs(ms) => self.last_sync.elapsed() >= Duration::from_millis(ms),
        };
        let mut batch = 0;
        let mut sync_ns = 0;
        if due {
            batch = self.pending;
            let started = Instant::now();
            self.sync()?;
            sync_ns = started.elapsed().as_nanos() as u64;
        }
        Ok(Append { bytes: frame.len() as u64, synced: due, batch, sync_ns })
    }

    /// Forces an fsync of everything appended so far.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.synced_len = self.len;
        self.pending = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment header.
    pub fn header(&self) -> SegmentHeader {
        self.header
    }

    /// Records appended to this segment (journaled, not necessarily
    /// synced).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// File length in bytes, all of it written through to the kernel.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// File length known to be on stable storage (a power failure can
    /// only tear bytes in `synced_len()..len()`).
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }
}

/// A fully scanned segment.
#[derive(Debug)]
pub struct ScannedSegment<E> {
    /// The segment header.
    pub header: SegmentHeader,
    /// Leading records frame-validated but not decoded (at or below the
    /// caller's snapshot horizon).
    pub skipped: u64,
    /// Every intact record past the skip horizon, in append order.
    pub records: Vec<Record<E>>,
    /// File offset just past the last intact record — the resume point.
    pub valid_len: u64,
    /// Bytes of torn tail discarded (0 for a clean segment).
    pub torn_bytes: u64,
}

impl<E> ScannedSegment<E> {
    /// Total intact records in the segment (skipped + decoded).
    pub fn total(&self) -> u64 {
        self.skipped + self.records.len() as u64
    }
}

/// What scanning a segment file found.
#[derive(Debug)]
pub enum ScanOutcome<E> {
    /// The header itself was torn mid-write: the file holds no records.
    /// Only tolerated in the final segment.
    TornHeader,
    /// A decoded segment (possibly with a torn tail truncation point).
    Segment(ScannedSegment<E>),
}

/// Scans a segment file. `last` marks the final (actively appended)
/// segment: only there is a short read at the tail a *torn write* to
/// truncate rather than corruption to report. The first `skip` records
/// are frame-validated (length bound + CRC) but not decoded — recovery
/// passes the count already covered by its snapshot, so cold-start cost
/// does not scale with retained-but-covered history.
pub fn scan_segment<E: WireElement>(
    path: &Path,
    last: bool,
    skip: u64,
) -> Result<ScanOutcome<E>, StoreError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < SEGMENT_HEADER_LEN {
        if last {
            return Ok(ScanOutcome::TornHeader);
        }
        return Err(StoreError::Corrupt {
            file: path.to_path_buf(),
            index: 0,
            offset: 0,
            detail: "segment header truncated in a non-final segment".into(),
        });
    }
    let header = decode_segment_header(&bytes[..SEGMENT_HEADER_LEN]).map_err(|e| {
        StoreError::Corrupt { file: path.to_path_buf(), index: 0, offset: 0, detail: e.to_string() }
    })?;

    let mut dec = RecordDecoder::new();
    dec.extend(&bytes[SEGMENT_HEADER_LEN..]);
    let mut skipped = 0u64;
    let mut records = Vec::new();
    loop {
        let step = if skipped < skip {
            dec.skip_next().map(|ok| ok.map(|()| None))
        } else {
            dec.next::<E>().map(|rec| rec.map(Some))
        };
        match step {
            Ok(Some(Some(rec))) => records.push(rec),
            Ok(Some(None)) => skipped += 1,
            Ok(None) => break,
            Err(e) => {
                return Err(StoreError::Corrupt {
                    file: path.to_path_buf(),
                    index: header.base + skipped + records.len() as u64,
                    offset: SEGMENT_HEADER_LEN as u64 + dec.consumed(),
                    detail: e.to_string(),
                });
            }
        }
    }
    let valid_len = SEGMENT_HEADER_LEN as u64 + dec.consumed();
    let torn_bytes = bytes.len() as u64 - valid_len;
    if torn_bytes > 0 && !last {
        return Err(StoreError::Corrupt {
            file: path.to_path_buf(),
            index: header.base + skipped + records.len() as u64,
            offset: valid_len,
            detail: "record truncated inside a non-final segment".into(),
        });
    }
    Ok(ScanOutcome::Segment(ScannedSegment { header, skipped, records, valid_len, torn_bytes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_document::Char;
    use dce_ot::ids::Clock;

    fn header() -> SegmentHeader {
        SegmentHeader { doc: DocumentId(7), user: 3, admin: 0, base: 42 }
    }

    #[test]
    fn segment_header_round_trips() {
        let h = header();
        let bytes = encode_segment_header(&h);
        assert_eq!(decode_segment_header(&bytes).unwrap(), h);
    }

    #[test]
    fn segment_header_rejects_damage() {
        let mut bytes = encode_segment_header(&header());
        bytes[3] ^= 0x40;
        assert!(matches!(decode_segment_header(&bytes), Err(StoreError::BadCrc { .. })));
        let mut magic = encode_segment_header(&header());
        magic[0] = 0x00;
        assert!(matches!(decode_segment_header(&magic), Err(StoreError::Codec(_))));
        let mut version = encode_segment_header(&header());
        version[1] = 9;
        // The version byte participates in the CRC, so re-seal to prove
        // the version check fires on its own.
        let crc = crc32(&version[..26]);
        version[26..30].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_segment_header(&version), Err(StoreError::Codec(_))));
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records: Vec<Record<Char>> = vec![
            Record::Remote(Message::Heartbeat { from: 2, clock: Clock::new() }),
            Record::LocalCoop { op: Op::ins(0, 'x'), id: RequestId::new(3, 1), v: 4 },
            Record::LocalAdmin { op: AdminOp::Validate { site: 3, seq: 1 }, version: 5 },
            Record::Compact,
        ];
        let mut out = BytesMut::new();
        for rec in &records {
            encode_record(&rec.borrow(), &mut out);
        }
        let out = out.freeze();
        let mut dec = RecordDecoder::new();
        dec.extend(&out);
        for rec in &records {
            assert_eq!(&dec.next::<Char>().unwrap().unwrap(), rec);
        }
        assert!(dec.next::<Char>().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_waits_for_a_full_frame() {
        let rec: Record<Char> =
            Record::LocalCoop { op: Op::ins(0, 'q'), id: RequestId::new(1, 9), v: 0 };
        let mut out = BytesMut::new();
        encode_record(&rec.borrow(), &mut out);
        let out = out.freeze();
        let mut dec = RecordDecoder::new();
        for chunk in out.chunks(3) {
            dec.extend(chunk);
        }
        // All bytes fed: exactly one record comes out.
        assert_eq!(dec.next::<Char>().unwrap().unwrap(), rec);
    }

    #[test]
    fn wal_appends_and_scans_back() {
        let dir = std::env::temp_dir().join(format!("dce-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-42.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::create(&path, header(), FsyncPolicy::EveryN(2)).unwrap();
        let recs: Vec<Record<Char>> = vec![
            Record::Compact,
            Record::LocalCoop { op: Op::del(1, 'a'), id: RequestId::new(3, 7), v: 2 },
            Record::Remote(Message::Heartbeat { from: 1, clock: Clock::new() }),
        ];
        let mut synced = 0;
        for rec in &recs {
            let out = wal.append(&rec.borrow()).unwrap();
            if out.synced {
                synced += 1;
                assert!(out.batch > 0);
            }
        }
        assert_eq!(synced, 1, "EveryN(2) syncs once across three appends");
        assert!(wal.synced_len() < wal.len());
        wal.sync().unwrap();
        assert_eq!(wal.synced_len(), wal.len());
        assert_eq!(wal.records(), 3);

        match scan_segment::<Char>(&path, true, 0).unwrap() {
            ScanOutcome::Segment(seg) => {
                assert_eq!(seg.header, header());
                assert_eq!(seg.skipped, 0);
                assert_eq!(seg.records, recs);
                assert_eq!(seg.torn_bytes, 0);
                assert_eq!(seg.valid_len, wal.len());
            }
            ScanOutcome::TornHeader => panic!("scan lost the segment"),
        }
        // A horizon mid-segment frame-walks the covered prefix and
        // decodes only the suffix.
        match scan_segment::<Char>(&path, true, 2).unwrap() {
            ScanOutcome::Segment(seg) => {
                assert_eq!(seg.skipped, 2);
                assert_eq!(seg.records, recs[2..]);
                assert_eq!(seg.total(), 3);
                assert_eq!(seg.valid_len, wal.len());
            }
            ScanOutcome::TornHeader => panic!("scan lost the segment"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
