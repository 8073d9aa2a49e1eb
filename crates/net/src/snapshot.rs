//! Wire-encodable site snapshots: how a joining participant bootstraps.
//!
//! The paper's prototype lets users "join the group to participate in html
//! page editing" at any time (§6). Joining means receiving a full replica
//! — document buffer, cooperative log `H`, clock, policy copy,
//! administrative log `L`, request flags — from any existing member. This
//! module serializes that state with the same binary conventions as
//! [`crate::wire`], so state transfer can ride the same transport as
//! ordinary messages.

use crate::wire::{
    decode_admin_op, decode_clock, decode_id_list, decode_log_entry, decode_opt_request_id,
    decode_policy, decode_request_id, encode_admin_op, encode_clock, encode_id_list,
    encode_log_entry, encode_opt_request_id, encode_policy, encode_request_id, get_bool, get_doc,
    get_u32, get_u64, get_u8, WireElement, WireError,
};
use bytes::{BufMut, Bytes, BytesMut};
use dce_core::{Flag, Site};
use dce_document::Element;
use dce_ot::ids::RequestId;
use dce_ot::log::Log;
use dce_ot::Cell;
use dce_policy::{AdminLog, AdminRequest, UserId};
use std::collections::HashSet;

const MAGIC: u8 = 0xD5; // distinct from message frames
/// The only layout [`decode_snapshot`] accepts.
const VERSION: u8 = 4;

type Result<T> = std::result::Result<T, WireError>;

/// Encodes a full snapshot of `site`'s replicated state.
pub fn encode_snapshot<E: Element + WireElement>(site: &Site<E>) -> Bytes {
    let (
        cells,
        log,
        clock,
        pruned_inert,
        pruned_count,
        policy,
        admin_log,
        flags,
        tentative_v,
        flags_pruned_fold,
    ) = site.snapshot_parts();

    let mut out = BytesMut::with_capacity(1024);
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(site.user());
    out.put_u64_le(site.doc().as_u64());

    // Buffer cells.
    out.put_u64_le(cells.len() as u64);
    for c in &cells {
        c.elem.encode(&mut out);
        c.original.encode(&mut out);
        encode_opt_request_id(c.creator, &mut out);
        out.put_u8(c.ghost as u8);
        encode_id_list(&c.killers, &mut out);
        out.put_u32_le(c.anon_kills);
        out.put_u32_le(c.chain.len() as u32);
        for link in &c.chain {
            encode_request_id(link.id, &mut out);
            link.value.encode(&mut out);
            encode_id_list(&link.saw, &mut out);
        }
    }

    // Cooperative log.
    out.put_u64_le(log.len() as u64);
    for e in log.iter() {
        encode_log_entry(e, &mut out);
    }

    encode_clock(&clock, &mut out);

    // Pruned-inert identities + count.
    let mut pruned: Vec<RequestId> = pruned_inert.iter().copied().collect();
    pruned.sort();
    encode_id_list(&pruned, &mut out);
    out.put_u64_le(pruned_count as u64);

    encode_policy(&policy, &mut out);

    // Administrative log.
    out.put_u64_le(admin_log.len() as u64);
    for r in admin_log.iter() {
        out.put_u32_le(r.admin);
        out.put_u64_le(r.version);
        encode_admin_op(&r.op, &mut out);
    }

    // Flags.
    out.put_u64_le(flags.len() as u64);
    for (id, flag) in &flags {
        encode_request_id(*id, &mut out);
        out.put_u8(match flag {
            Flag::Tentative => 0,
            Flag::Valid => 1,
            Flag::Invalid => 2,
        });
    }

    // Generation versions of still-tentative requests (retroactive
    // enforcement replays Check_Remote against these).
    out.put_u64_le(tentative_v.len() as u64);
    for (id, v) in &tentative_v {
        encode_request_id(*id, &mut out);
        out.put_u64_le(*v);
    }

    // Pruned-flag fold: the XOR accumulator of settled flags compaction
    // already dropped, so the restored replica digests like the donor.
    out.put_u64_le(flags_pruned_fold);

    out.freeze()
}

/// Decodes a snapshot, rebinding the replica to `new_user` (who must know
/// the group's `admin_id`).
pub fn decode_snapshot<E: Element + WireElement>(
    mut buf: Bytes,
    new_user: UserId,
    admin_id: UserId,
) -> Result<Site<E>> {
    if get_u8(&mut buf)? != MAGIC || get_u8(&mut buf)? != VERSION {
        return Err(WireError::BadHeader);
    }
    let _source_user = get_u32(&mut buf)?;
    let doc = get_doc(&mut buf)?;

    let n_cells = get_u64(&mut buf)? as usize;
    let mut cells: Vec<Cell<E>> = Vec::with_capacity(n_cells.min(1 << 20));
    for _ in 0..n_cells {
        let elem = E::decode(&mut buf)?;
        let original = E::decode(&mut buf)?;
        let creator = decode_opt_request_id(&mut buf)?;
        let ghost = get_bool(&mut buf)?;
        let killers = decode_id_list(&mut buf)?;
        let anon_kills = get_u32(&mut buf)?;
        let n_links = get_u32(&mut buf)? as usize;
        let mut chain = Vec::with_capacity(n_links.min(1 << 20));
        for _ in 0..n_links {
            let id = decode_request_id(&mut buf)?;
            let value = E::decode(&mut buf)?;
            let saw = decode_id_list(&mut buf)?;
            chain.push(dce_ot::buffer::ChainLink { id, value, saw });
        }
        cells.push(Cell { elem, original, creator, ghost, killers, anon_kills, chain });
    }

    let n_entries = get_u64(&mut buf)? as usize;
    let mut log: Log<E> = Log::new();
    for _ in 0..n_entries {
        log.push_raw(decode_log_entry(&mut buf)?);
    }

    let clock = decode_clock(&mut buf)?;
    let pruned = decode_id_list(&mut buf)?;
    strictly_ascending(pruned.iter())?;
    let pruned: HashSet<RequestId> = pruned.into_iter().collect();
    let pruned_count = get_u64(&mut buf)? as usize;
    let policy = decode_policy(&mut buf)?;

    let n_admin = get_u64(&mut buf)? as usize;
    let mut admin_entries: Vec<AdminRequest> = Vec::with_capacity(n_admin.min(1 << 20));
    for _ in 0..n_admin {
        let admin = get_u32(&mut buf)?;
        let version = get_u64(&mut buf)?;
        // The log holds strictly ascending versions above 0.
        if version <= admin_entries.last().map_or(0, |r| r.version) {
            return Err(WireError::BadHeader);
        }
        let op = decode_admin_op(&mut buf)?;
        admin_entries.push(AdminRequest { admin, version, op });
    }
    let admin_log = AdminLog::from_entries(admin_entries);

    let n_flags = get_u64(&mut buf)? as usize;
    let mut flags = Vec::with_capacity(n_flags.min(1 << 20));
    for _ in 0..n_flags {
        let id = decode_request_id(&mut buf)?;
        let flag = match get_u8(&mut buf)? {
            0 => Flag::Tentative,
            1 => Flag::Valid,
            2 => Flag::Invalid,
            t => return Err(WireError::BadTag(t)),
        };
        flags.push((id, flag));
    }
    strictly_ascending(flags.iter().map(|(id, _)| id))?;

    let n_tentative = get_u64(&mut buf)? as usize;
    let mut tentative_v = Vec::with_capacity(n_tentative.min(1 << 20));
    for _ in 0..n_tentative {
        let id = decode_request_id(&mut buf)?;
        let v = get_u64(&mut buf)?;
        tentative_v.push((id, v));
    }
    strictly_ascending(tentative_v.iter().map(|(id, _)| id))?;

    let flags_pruned_fold = get_u64(&mut buf)?;
    if !buf.is_empty() {
        return Err(WireError::BadHeader);
    }

    Ok(Site::from_snapshot_parts(
        new_user,
        admin_id,
        cells,
        log,
        clock,
        pruned,
        pruned_count,
        policy,
        admin_log,
        flags,
        tentative_v,
        flags_pruned_fold,
    )
    .with_document(doc))
}

/// The encoder writes every id-keyed section sorted by id, so anything
/// out of order or repeated is not a snapshot it produced.
fn strictly_ascending<'a>(ids: impl Iterator<Item = &'a RequestId>) -> Result<()> {
    if ids.is_sorted_by(|a, b| a < b) {
        Ok(())
    } else {
        Err(WireError::BadHeader)
    }
}

/// Convenience: snapshot `donor` and rebuild it as a replica for
/// `new_user` through the byte encoding (exercising the full codec).
pub fn transfer<E: Element + WireElement>(
    donor: &Site<E>,
    new_user: UserId,
    admin_id: UserId,
) -> Result<Site<E>> {
    decode_snapshot(encode_snapshot(donor), new_user, admin_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_DOC_ID;
    use dce_core::{DocumentId, Message};
    use dce_document::{Char, CharDocument, Op};
    use dce_policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};

    fn busy_site() -> (Site<Char>, Site<Char>) {
        let p = Policy::permissive([0, 1, 2]);
        let d0 = CharDocument::from_str("state");
        let mut adm: Site<Char> = Site::new_admin(0, d0.clone(), p.clone());
        let mut s1: Site<Char> = Site::new_user(1, 0, d0, p);
        // Build a state with all the interesting artifacts: validated
        // requests, an invalid one, tombstones, ghosts, policy churn.
        let q1 = s1.generate(Op::ins(1, 'x')).unwrap();
        let q2 = s1.generate(Op::del(3, 't')).unwrap();
        adm.receive(Message::Coop(q1)).unwrap();
        adm.receive(Message::Coop(q2)).unwrap();
        let validations = adm.drain_outbox();
        for m in validations {
            s1.receive(m).unwrap();
        }
        let r = adm
            .admin_generate(AdminOp::AddAuth {
                pos: 0,
                auth: Authorization::new(
                    Subject::User(1),
                    DocObject::Document,
                    [Right::Insert],
                    Sign::Minus,
                ),
            })
            .unwrap();
        let rogue = s1.generate(Op::ins(1, 'z')).unwrap();
        adm.receive(Message::Coop(rogue)).unwrap();
        s1.receive(Message::Admin(r)).unwrap();
        (adm, s1)
    }

    #[test]
    fn snapshot_roundtrip_preserves_replicated_state() {
        let (adm, _) = busy_site();
        let restored = transfer(&adm, 9, 0).unwrap();
        assert_eq!(restored.user(), 9);
        assert!(!restored.is_admin());
        assert_eq!(restored.document(), adm.document());
        assert_eq!(restored.policy(), adm.policy());
        assert_eq!(restored.version(), adm.version());
        assert_eq!(restored.engine().log().len(), adm.engine().log().len());
        assert_eq!(restored.engine().clock(), adm.engine().clock());
        for e in adm.engine().log().iter() {
            assert_eq!(restored.flag_of(e.id), adm.flag_of(e.id), "{}", e.id);
        }
    }

    #[test]
    fn restored_site_participates_in_the_session() {
        let (mut adm, mut s1) = busy_site();
        // Register user 9, then transfer state.
        let add = adm.admin_generate(AdminOp::AddUser(9)).unwrap();
        s1.receive(Message::Admin(add)).unwrap();
        let mut s9 = transfer(&adm, 9, 0).unwrap();

        // The newcomer edits; everyone converges.
        let q = s9.generate(Op::del(1, 'x')).unwrap();
        adm.receive(Message::Coop(q.clone())).unwrap();
        s1.receive(Message::Coop(q)).unwrap();
        let validations = adm.drain_outbox();
        for m in validations {
            s1.receive(m.clone()).unwrap();
            s9.receive(m).unwrap();
        }
        assert_eq!(adm.document(), s9.document());
        assert_eq!(s1.document(), s9.document());

        // And old concurrent edits still integrate at the newcomer.
        let q_old = s1.generate(Op::up(1, 's', 'S')).unwrap();
        s9.receive(Message::Coop(q_old.clone())).unwrap();
        adm.receive(Message::Coop(q_old)).unwrap();
        assert_eq!(adm.document().to_string(), s9.document().to_string());
    }

    #[test]
    fn snapshot_carries_the_document_id() {
        let (adm, _) = busy_site();
        let tagged = adm.with_document(DocumentId::new(77));
        let restored = transfer(&tagged, 9, 0).unwrap();
        assert_eq!(restored.doc(), DocumentId::new(77));
        assert_eq!(restored.document(), tagged.document());
    }

    #[test]
    fn any_other_version_byte_is_a_bad_header() {
        let (adm, _) = busy_site();
        let bytes = encode_snapshot(&adm);
        assert_eq!(bytes[1], VERSION);
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut other = bytes.to_vec();
            other[1] = version;
            let err = decode_snapshot::<Char>(Bytes::from(other), 9, 0).unwrap_err();
            assert_eq!(err, WireError::BadHeader, "version {version}");
        }
    }

    #[test]
    fn an_out_of_range_document_id_is_rejected() {
        let (adm, _) = busy_site();
        // Layout: magic, version, u32 user, u64 document id.
        let mut bytes = encode_snapshot(&adm.with_document(DocumentId::new(MAX_DOC_ID))).to_vec();
        assert!(decode_snapshot::<Char>(Bytes::from(bytes.clone()), 9, 0).is_ok());
        bytes[6..14].copy_from_slice(&(MAX_DOC_ID + 1).to_le_bytes());
        let err = decode_snapshot::<Char>(Bytes::from(bytes), 9, 0).unwrap_err();
        assert_eq!(err, WireError::BadDocument(MAX_DOC_ID + 1));
    }

    #[test]
    fn trailing_bytes_after_the_fold_are_rejected() {
        let (adm, _) = busy_site();
        let mut bytes = encode_snapshot(&adm).to_vec();
        bytes.push(0);
        let err = decode_snapshot::<Char>(Bytes::from(bytes), 9, 0).unwrap_err();
        assert_eq!(err, WireError::BadHeader);
    }

    #[test]
    fn swapped_flag_rows_are_rejected() {
        let (adm, _) = busy_site();
        let (.., flags, tentative, _) = adm.snapshot_parts();
        assert!(flags.len() >= 2, "the fixture holds several flags");
        let bytes = encode_snapshot(&adm).to_vec();
        // Layout tail: flag rows (12-byte id + 1-byte flag), the tentative
        // section (u64 count, 20-byte rows), the u64 fold.
        const ROW: usize = 13;
        let rows_end = bytes.len() - 8 - (8 + 20 * tentative.len());
        let first = rows_end - ROW * flags.len();
        let mut swapped = bytes.clone();
        swapped[first..first + ROW].copy_from_slice(&bytes[first + ROW..first + 2 * ROW]);
        swapped[first + ROW..first + 2 * ROW].copy_from_slice(&bytes[first..first + ROW]);
        assert_ne!(swapped, bytes);
        let err = decode_snapshot::<Char>(Bytes::from(swapped), 9, 0).unwrap_err();
        assert_eq!(err, WireError::BadHeader);
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(decode_snapshot::<Char>(Bytes::new(), 1, 0).is_err());
        assert!(decode_snapshot::<Char>(Bytes::from_static(&[0xD5, 9]), 1, 0).is_err());
        let (adm, _) = busy_site();
        let full = encode_snapshot(&adm);
        let cut = full.slice(0..full.len() / 2);
        assert!(decode_snapshot::<Char>(cut, 1, 0).is_err());
    }
}
