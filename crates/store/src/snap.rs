//! Durable full-replica snapshots: the `dce-net` state-transfer codec
//! wrapped in an on-disk envelope.
//!
//! The network snapshot (`dce_net::snapshot`, version 4) captures what a
//! *joining peer* needs — document cells, OT log, clock, policy,
//! administrative log, flags. A *recovering replica* needs more: the
//! transient per-site state that the digest covers but a transfer
//! deliberately resets (peer clocks driving the stability horizon,
//! denial/undo journals, rejected proposals). The envelope carries that
//! supplement, the global record count the snapshot covers, and a CRC
//! trailer over the whole file:
//!
//! ```text
//! u8  MAGIC (0xD8)   u8 VERSION (1)
//! u32 user           u32 admin          u64 document id
//! u64 covered        -- global record index this snapshot captures
//! supplement: peer clocks, denials, undone, rejected proposals
//! u64 body length    body = dce_net::encode_snapshot
//! u32 CRC-32 over every preceding byte
//! ```

use crate::crc::crc32;
use crate::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dce_core::{AdminProposal, Site};
use dce_document::Element;
use dce_net::wire::{
    decode_admin_op, decode_clock, decode_id_list, encode_admin_op, encode_clock, encode_id_list,
    get_doc, get_u32, get_u64, get_u8, WireElement,
};
use dce_ot::ids::Clock;
use dce_policy::UserId;
use std::collections::HashMap;
use std::path::Path;

const MAGIC: u8 = 0xD8;
const VERSION: u8 = 1;

/// Encodes `site` (which must be quiescent: empty queues and outbox —
/// the envelope does not capture them) into a snapshot file image
/// covering the first `covered` journal records.
pub fn encode_store_snapshot<E: Element + WireElement>(
    site: &Site<E>,
    admin: UserId,
    covered: u64,
) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(site.user());
    out.put_u32_le(admin);
    out.put_u64_le(site.doc().0);
    out.put_u64_le(covered);

    let mut clocks: Vec<(&UserId, &Clock)> = site.peer_clocks().iter().collect();
    clocks.sort_by_key(|(u, _)| **u);
    out.put_u32_le(clocks.len() as u32);
    for (u, c) in clocks {
        out.put_u32_le(*u);
        encode_clock(c, &mut out);
    }
    encode_id_list(site.denials(), &mut out);
    encode_id_list(site.undone(), &mut out);
    let rejected = site.rejected_proposals();
    out.put_u32_le(rejected.len() as u32);
    for p in rejected {
        out.put_u32_le(p.from);
        encode_admin_op(&p.op, &mut out);
    }

    let body = dce_net::encode_snapshot(site);
    out.put_u64_le(body.len() as u64);
    out.put_slice(&body);
    let mut image = out.freeze().to_vec();
    let crc = crc32(&image);
    image.extend_from_slice(&crc.to_le_bytes());
    image
}

fn parse<E: Element + WireElement>(mut buf: Bytes) -> Result<(Site<E>, u64), StoreError> {
    if get_u8(&mut buf)? != MAGIC {
        return Err(StoreError::Codec("bad snapshot magic".into()));
    }
    if get_u8(&mut buf)? != VERSION {
        return Err(StoreError::Codec("unsupported snapshot version".into()));
    }
    let user = get_u32(&mut buf)?;
    let admin = get_u32(&mut buf)?;
    let doc = get_doc(&mut buf)?;
    let covered = get_u64(&mut buf)?;

    let n_clocks = get_u32(&mut buf)? as usize;
    let mut peer_clocks: HashMap<UserId, Clock> = HashMap::with_capacity(n_clocks.min(1 << 16));
    let mut prev = None;
    for _ in 0..n_clocks {
        let u = get_u32(&mut buf)?;
        // Encoded in ascending user order; anything else is not ours.
        if prev.replace(u) >= Some(u) {
            return Err(StoreError::Codec("peer clocks out of user order".into()));
        }
        peer_clocks.insert(u, decode_clock(&mut buf)?);
    }
    let denials = decode_id_list(&mut buf)?;
    let undone = decode_id_list(&mut buf)?;
    let n_rejected = get_u32(&mut buf)? as usize;
    let mut rejected = Vec::with_capacity(n_rejected.min(1 << 16));
    for _ in 0..n_rejected {
        let from = get_u32(&mut buf)?;
        let op = decode_admin_op(&mut buf)?;
        rejected.push(AdminProposal { from, op });
    }

    let body_len = get_u64(&mut buf)? as usize;
    if buf.remaining() != body_len {
        return Err(StoreError::Codec(format!(
            "snapshot body length {body_len} does not match the {} remaining bytes",
            buf.remaining()
        )));
    }
    let mut site: Site<E> = dce_net::decode_snapshot(buf, user, admin)?;
    if site.doc() != doc {
        return Err(StoreError::Codec(format!(
            "envelope names {doc} but the body holds {}",
            site.doc()
        )));
    }
    site.restore_transients(peer_clocks, denials, undone, rejected);
    Ok((site, covered))
}

/// Decodes a snapshot file image, restoring the transient supplement.
/// Any damage — trailer mismatch, undecodable field, version drift —
/// surfaces as [`StoreError::CorruptSnapshot`] naming `file`.
pub fn decode_store_snapshot<E: Element + WireElement>(
    bytes: &[u8],
    file: &Path,
) -> Result<(Site<E>, u64), StoreError> {
    let corrupt = |detail: String| StoreError::CorruptSnapshot { file: file.to_path_buf(), detail };
    if bytes.len() < 4 {
        return Err(corrupt("shorter than its own crc trailer".into()));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(corrupt(format!(
            "crc trailer mismatch: trailer says {stored:#010x}, contents are {computed:#010x}"
        )));
    }
    parse(Bytes::from(payload.to_vec())).map_err(|e| corrupt(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_core::{DocumentId, Message};
    use dce_document::{Char, CharDocument, Op};
    use dce_net::MAX_DOC_ID;
    use dce_policy::Policy;
    use std::path::PathBuf;

    fn busy_site() -> Site<Char> {
        let policy = Policy::permissive([0, 1, 2]);
        let mut adm = Site::new_admin(0, CharDocument::from_str("paper"), policy.clone());
        let mut s1 = Site::new_user(1, 0, CharDocument::from_str("paper"), policy);
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        adm.receive(Message::Coop(q)).unwrap();
        for msg in adm.drain_outbox() {
            s1.receive(msg).unwrap();
        }
        adm.receive(s1.make_heartbeat()).unwrap();
        adm
    }

    #[test]
    fn snapshot_round_trips_state_and_transients() {
        let site = busy_site();
        let bytes = encode_store_snapshot(&site, 0, 17);
        let (back, covered) =
            decode_store_snapshot::<Char>(&bytes, &PathBuf::from("t.snap")).unwrap();
        assert_eq!(covered, 17);
        assert_eq!(back.state_digest(), site.state_digest());
        assert_eq!(back.peer_clocks(), site.peer_clocks());
    }

    #[test]
    fn a_flipped_byte_is_a_located_corrupt_snapshot() {
        let site = busy_site();
        let mut bytes = encode_store_snapshot(&site, 0, 3);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match decode_store_snapshot::<Char>(&bytes, &PathBuf::from("t.snap")) {
            Err(StoreError::CorruptSnapshot { file, .. }) => {
                assert_eq!(file, PathBuf::from("t.snap"));
            }
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
    }

    /// Re-seals `image` with a fresh CRC trailer after a patch, so only
    /// the patched field — not the checksum — can reject it.
    fn reseal(mut image: Vec<u8>) -> Vec<u8> {
        image.truncate(image.len() - 4);
        let crc = crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        image
    }

    /// Envelope layout: magic, version, u32 user, u32 admin, u64 document.
    const ENVELOPE_DOC: std::ops::Range<usize> = 10..18;

    #[test]
    fn an_envelope_naming_another_document_is_rejected() {
        let site = busy_site().with_document(DocumentId::new(5));
        let mut bytes = encode_store_snapshot(&site, 0, 3);
        bytes[ENVELOPE_DOC].copy_from_slice(&6u64.to_le_bytes());
        let err = decode_store_snapshot::<Char>(&reseal(bytes), &PathBuf::from("t.snap"));
        assert!(matches!(err, Err(StoreError::CorruptSnapshot { .. })), "{err:?}");
    }

    #[test]
    fn an_out_of_range_envelope_document_is_rejected() {
        let mut bytes = encode_store_snapshot(&busy_site(), 0, 3);
        bytes[ENVELOPE_DOC].copy_from_slice(&(MAX_DOC_ID + 1).to_le_bytes());
        let err = decode_store_snapshot::<Char>(&reseal(bytes), &PathBuf::from("t.snap"));
        assert!(matches!(err, Err(StoreError::CorruptSnapshot { .. })), "{err:?}");
    }

    #[test]
    fn a_corrupt_trailer_is_rejected() {
        let site = busy_site();
        let mut bytes = encode_store_snapshot(&site, 0, 3);
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_store_snapshot::<Char>(&bytes, &PathBuf::from("t.snap")),
            Err(StoreError::CorruptSnapshot { .. })
        ));
    }
}
