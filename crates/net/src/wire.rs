//! Binary wire format for group messages.
//!
//! The simulator passes [`Message`] values by clone; a real deployment
//! (the paper's JXTA network) ships bytes. This module is the codec a
//! deployment would use: a compact, versioned, length-explicit binary
//! encoding over [`bytes`], with no reflection and no allocation surprises.
//! Elements encode through the [`WireElement`] trait, implemented here for
//! the stock element types.
//!
//! The format is self-contained per message:
//!
//! ```text
//! u8  MAGIC (0xDC)   u8 VERSION (1)
//! u8 kind (0 = coop, 1 = admin, 2 = proposal, 3 = heartbeat)
//! …kind-specific fields, integers little-endian, strings/lists
//! length-prefixed with u32…
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dce_core::{AdminProposal, CoopRequest, DocumentId, Message};
use dce_document::{Char, Element, Node, Op, Paragraph};
use dce_ot::engine::BroadcastRequest;
use dce_ot::ids::{Clock, RequestId};
use dce_ot::log::LogEntry;
use dce_ot::transform::TOp;
use dce_policy::{AdminOp, AdminRequest, Authorization, DocObject, Policy, Right, Sign, Subject};
use std::collections::BTreeSet;

const MAGIC: u8 = 0xDC;
const VERSION: u8 = 1;

/// Errors raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame did.
    Truncated,
    /// Magic byte or format version mismatch.
    BadHeader,
    /// An enum tag byte had no meaning.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A frame or snapshot named a document id above [`MAX_DOC_ID`].
    BadDocument(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadHeader => write!(f, "bad magic/version header"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadDocument(doc) => write!(f, "document id {doc} out of range"),
        }
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

/// Element types that know how to put themselves on the wire.
pub trait WireElement: Element + Sized {
    /// Appends the element's encoding.
    fn encode(&self, out: &mut BytesMut);
    /// Decodes one element.
    fn decode(buf: &mut Bytes) -> Result<Self>;
}

// ---- primitives ----
//
// The frame codec, the snapshot codec and `dce-store`'s journal and
// snapshot files all read through these, so every binary format shares
// one truncation discipline and one document-id bound.

/// Hard ceiling on an encoded document id. Larger ids are rejected as
/// [`WireError::BadDocument`]: no deployment hosts 2^48 documents, so a
/// larger value is a corrupted or hostile input, caught before it can
/// key unbounded state.
pub const MAX_DOC_ID: u64 = (1 << 48) - 1;

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn put_str(out: &mut BytesMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len)?;
    // split_to is a view — the only copy is the String's own allocation.
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Reads one byte.
pub fn get_u8(buf: &mut Bytes) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reads a little-endian `u16`.
pub(crate) fn get_u16(buf: &mut Bytes) -> Result<u16> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

/// Reads a little-endian `u32`.
pub fn get_u32(buf: &mut Bytes) -> Result<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`.
pub fn get_u64(buf: &mut Bytes) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

/// Reads a bool, which is exactly `0` or `1` on the wire.
pub(crate) fn get_bool(buf: &mut Bytes) -> Result<bool> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

/// Reads a `u32`-counted set of `u32`s. Sets encode in ascending order,
/// so an out-of-order or repeated member is corrupt.
fn get_u32_set(buf: &mut Bytes) -> Result<BTreeSet<u32>> {
    let n = get_u32(buf)?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        let v = get_u32(buf)?;
        if set.last().is_some_and(|&last| last >= v) {
            return Err(WireError::BadHeader);
        }
        set.insert(v);
    }
    Ok(set)
}

/// Reads a `u64` document id, rejecting ids above [`MAX_DOC_ID`].
pub fn get_doc(buf: &mut Bytes) -> Result<DocumentId> {
    let doc = get_u64(buf)?;
    if doc > MAX_DOC_ID {
        return Err(WireError::BadDocument(doc));
    }
    Ok(DocumentId::new(doc))
}

impl WireElement for Char {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.0 as u32);
    }
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let raw = get_u32(buf)?;
        char::from_u32(raw).map(Char).ok_or(WireError::BadTag(0xFF))
    }
}

impl WireElement for Paragraph {
    fn encode(&self, out: &mut BytesMut) {
        put_str(out, &self.text);
        put_str(out, &self.style);
    }
    fn decode(buf: &mut Bytes) -> Result<Self> {
        Ok(Paragraph { text: get_str(buf)?, style: get_str(buf)? })
    }
}

impl WireElement for Node {
    fn encode(&self, out: &mut BytesMut) {
        put_str(out, &self.tag);
        out.put_u32_le(self.attrs.len() as u32);
        for (k, v) in &self.attrs {
            put_str(out, k);
            put_str(out, v);
        }
        put_str(out, &self.text);
        out.put_u16_le(self.depth);
    }
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let tag = get_str(buf)?;
        let n = get_u32(buf)? as usize;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            attrs.push((get_str(buf)?, get_str(buf)?));
        }
        Ok(Node { tag, attrs, text: get_str(buf)?, depth: get_u16(buf)? })
    }
}

// ---- operations ----

/// Encodes one cooperative operation in visible coordinates (the form
/// [`dce_ot::engine::Engine::generate`] accepts).
pub fn encode_op<E: WireElement>(op: &Op<E>, out: &mut BytesMut) {
    match op {
        Op::Nop => out.put_u8(0),
        Op::Ins { pos, elem } => {
            out.put_u8(1);
            out.put_u64_le(*pos as u64);
            elem.encode(out);
        }
        Op::Del { pos, elem } => {
            out.put_u8(2);
            out.put_u64_le(*pos as u64);
            elem.encode(out);
        }
        Op::Up { pos, old, new } => {
            out.put_u8(3);
            out.put_u64_le(*pos as u64);
            old.encode(out);
            new.encode(out);
        }
    }
}

/// Decodes an operation written by [`encode_op`].
pub fn decode_op<E: WireElement>(buf: &mut Bytes) -> Result<Op<E>> {
    match get_u8(buf)? {
        0 => Ok(Op::Nop),
        1 => Ok(Op::Ins { pos: get_u64(buf)? as usize, elem: E::decode(buf)? }),
        2 => Ok(Op::Del { pos: get_u64(buf)? as usize, elem: E::decode(buf)? }),
        3 => Ok(Op::Up { pos: get_u64(buf)? as usize, old: E::decode(buf)?, new: E::decode(buf)? }),
        t => Err(WireError::BadTag(t)),
    }
}

/// Encodes a request identity (`site`, `seq`).
pub fn encode_request_id(id: RequestId, out: &mut BytesMut) {
    out.put_u32_le(id.site);
    out.put_u64_le(id.seq);
}

/// Decodes a request identity written by [`encode_request_id`].
pub fn decode_request_id(buf: &mut Bytes) -> Result<RequestId> {
    Ok(RequestId::new(get_u32(buf)?, get_u64(buf)?))
}

/// Encodes an optional request identity as `0`, or `1 ‖ id`.
pub(crate) fn encode_opt_request_id(id: Option<RequestId>, out: &mut BytesMut) {
    match id {
        None => out.put_u8(0),
        Some(id) => {
            out.put_u8(1);
            encode_request_id(id, out);
        }
    }
}

/// Decodes an identity written by [`encode_opt_request_id`].
pub(crate) fn decode_opt_request_id(buf: &mut Bytes) -> Result<Option<RequestId>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(decode_request_id(buf)?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// Encodes a length-prefixed list of request identities.
pub fn encode_id_list(ids: &[RequestId], out: &mut BytesMut) {
    out.put_u32_le(ids.len() as u32);
    for id in ids {
        encode_request_id(*id, out);
    }
}

/// Decodes a list written by [`encode_id_list`].
pub fn decode_id_list(buf: &mut Bytes) -> Result<Vec<RequestId>> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(decode_request_id(buf)?);
    }
    Ok(out)
}

/// Encodes a causal clock as `(site, count)` pairs.
pub fn encode_clock(clock: &Clock, out: &mut BytesMut) {
    let pairs: Vec<(u32, u64)> = clock.iter().collect();
    out.put_u32_le(pairs.len() as u32);
    for (site, n) in pairs {
        out.put_u32_le(site);
        out.put_u64_le(n);
    }
}

/// Decodes a clock written by [`encode_clock`]: sites strictly ascending,
/// counts nonzero, exactly as a [`Clock`] iterates.
pub fn decode_clock(buf: &mut Bytes) -> Result<Clock> {
    let n = get_u32(buf)? as usize;
    let mut clock = Clock::new();
    let mut prev = None;
    for _ in 0..n {
        let site = get_u32(buf)?;
        let count = get_u64(buf)?;
        if count == 0 || prev.is_some_and(|p| p >= site) {
            return Err(WireError::BadHeader);
        }
        prev = Some(site);
        clock.set(site, count);
    }
    Ok(clock)
}

// ---- policy structures ----

fn encode_subject(s: &Subject, out: &mut BytesMut) {
    match s {
        Subject::All => out.put_u8(0),
        Subject::User(u) => {
            out.put_u8(1);
            out.put_u32_le(*u);
        }
        Subject::Users(set) => {
            out.put_u8(2);
            out.put_u32_le(set.len() as u32);
            for u in set {
                out.put_u32_le(*u);
            }
        }
        Subject::Group(g) => {
            out.put_u8(3);
            put_str(out, g);
        }
    }
}

fn decode_subject(buf: &mut Bytes) -> Result<Subject> {
    match get_u8(buf)? {
        0 => Ok(Subject::All),
        1 => Ok(Subject::User(get_u32(buf)?)),
        2 => Ok(Subject::Users(get_u32_set(buf)?)),
        3 => Ok(Subject::Group(get_str(buf)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn encode_object(o: &DocObject, out: &mut BytesMut) {
    match o {
        DocObject::Document => out.put_u8(0),
        DocObject::Element(p) => {
            out.put_u8(1);
            out.put_u64_le(*p as u64);
        }
        DocObject::Range { from, to } => {
            out.put_u8(2);
            out.put_u64_le(*from as u64);
            out.put_u64_le(*to as u64);
        }
        DocObject::Named(n) => {
            out.put_u8(3);
            put_str(out, n);
        }
    }
}

fn decode_object(buf: &mut Bytes) -> Result<DocObject> {
    match get_u8(buf)? {
        0 => Ok(DocObject::Document),
        1 => Ok(DocObject::Element(get_u64(buf)? as usize)),
        2 => Ok(DocObject::Range { from: get_u64(buf)? as usize, to: get_u64(buf)? as usize }),
        3 => Ok(DocObject::Named(get_str(buf)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn right_tag(r: Right) -> u8 {
    match r {
        Right::Read => 0,
        Right::Insert => 1,
        Right::Delete => 2,
        Right::Update => 3,
    }
}

fn right_from(t: u8) -> Result<Right> {
    Ok(match t {
        0 => Right::Read,
        1 => Right::Insert,
        2 => Right::Delete,
        3 => Right::Update,
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_auth(a: &Authorization, out: &mut BytesMut) {
    encode_subject(&a.subject, out);
    encode_object(&a.object, out);
    out.put_u8(a.rights.len() as u8);
    for r in &a.rights {
        out.put_u8(right_tag(*r));
    }
    out.put_u8(u8::from(matches!(a.sign, Sign::Plus)));
}

fn decode_auth(buf: &mut Bytes) -> Result<Authorization> {
    let subject = decode_subject(buf)?;
    let object = decode_object(buf)?;
    let n = get_u8(buf)? as usize;
    let mut rights = BTreeSet::new();
    for _ in 0..n {
        let right = right_from(get_u8(buf)?)?;
        // A rights set encodes in ascending order.
        if rights.last().is_some_and(|&last| last >= right) {
            return Err(WireError::BadHeader);
        }
        rights.insert(right);
    }
    let sign = if get_bool(buf)? { Sign::Plus } else { Sign::Minus };
    Ok(Authorization::new(subject, object, rights, sign))
}

/// Encodes one administrative operation.
pub fn encode_admin_op(op: &AdminOp, out: &mut BytesMut) {
    match op {
        AdminOp::AddUser(u) => {
            out.put_u8(0);
            out.put_u32_le(*u);
        }
        AdminOp::DelUser(u) => {
            out.put_u8(1);
            out.put_u32_le(*u);
        }
        AdminOp::AddObj { name, object } => {
            out.put_u8(2);
            put_str(out, name);
            encode_object(object, out);
        }
        AdminOp::DelObj { name } => {
            out.put_u8(3);
            put_str(out, name);
        }
        AdminOp::AddAuth { pos, auth } => {
            out.put_u8(4);
            out.put_u64_le(*pos as u64);
            encode_auth(auth, out);
        }
        AdminOp::DelAuth { pos, auth } => {
            out.put_u8(5);
            out.put_u64_le(*pos as u64);
            encode_auth(auth, out);
        }
        AdminOp::Validate { site, seq } => {
            out.put_u8(6);
            out.put_u32_le(*site);
            out.put_u64_le(*seq);
        }
        AdminOp::SetGroup { name, members } => {
            out.put_u8(7);
            put_str(out, name);
            out.put_u32_le(members.len() as u32);
            for m in members {
                out.put_u32_le(*m);
            }
        }
        AdminOp::Delegate(u) => {
            out.put_u8(8);
            out.put_u32_le(*u);
        }
        AdminOp::RevokeDelegation(u) => {
            out.put_u8(9);
            out.put_u32_le(*u);
        }
    }
}

/// Decodes an operation written by [`encode_admin_op`].
pub fn decode_admin_op(buf: &mut Bytes) -> Result<AdminOp> {
    match get_u8(buf)? {
        0 => Ok(AdminOp::AddUser(get_u32(buf)?)),
        1 => Ok(AdminOp::DelUser(get_u32(buf)?)),
        2 => Ok(AdminOp::AddObj { name: get_str(buf)?, object: decode_object(buf)? }),
        3 => Ok(AdminOp::DelObj { name: get_str(buf)? }),
        4 => Ok(AdminOp::AddAuth { pos: get_u64(buf)? as usize, auth: decode_auth(buf)? }),
        5 => Ok(AdminOp::DelAuth { pos: get_u64(buf)? as usize, auth: decode_auth(buf)? }),
        6 => Ok(AdminOp::Validate { site: get_u32(buf)?, seq: get_u64(buf)? }),
        7 => Ok(AdminOp::SetGroup { name: get_str(buf)?, members: get_u32_set(buf)? }),
        8 => Ok(AdminOp::Delegate(get_u32(buf)?)),
        9 => Ok(AdminOp::RevokeDelegation(get_u32(buf)?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// Encodes a message into a standalone frame.
pub fn encode_message<E: WireElement>(msg: &Message<E>) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    match msg {
        Message::Coop(q) => {
            out.put_u8(0);
            encode_request_id(q.ot.id, &mut out);
            encode_opt_request_id(q.ot.dep, &mut out);
            encode_op(&q.ot.top.op, &mut out);
            out.put_u64_le(q.ot.top.origin as u64);
            out.put_u32_le(q.ot.top.site);
            encode_clock(&q.ot.ctx, &mut out);
            out.put_u64_le(q.v);
        }
        Message::Admin(r) => {
            out.put_u8(1);
            out.put_u32_le(r.admin);
            out.put_u64_le(r.version);
            encode_admin_op(&r.op, &mut out);
        }
        Message::Proposal(p) => {
            out.put_u8(2);
            out.put_u32_le(p.from);
            encode_admin_op(&p.op, &mut out);
        }
        Message::Heartbeat { from, clock } => {
            out.put_u8(3);
            out.put_u32_le(*from);
            encode_clock(clock, &mut out);
        }
    }
    out.freeze()
}

/// Decodes one frame produced by [`encode_message`]. The frame must hold
/// exactly one message: leftover bytes are [`WireError::BadHeader`].
pub fn decode_message<E: WireElement>(mut buf: Bytes) -> Result<Message<E>> {
    if get_u8(&mut buf)? != MAGIC || get_u8(&mut buf)? != VERSION {
        return Err(WireError::BadHeader);
    }
    let msg = match get_u8(&mut buf)? {
        0 => {
            let id = decode_request_id(&mut buf)?;
            let dep = decode_opt_request_id(&mut buf)?;
            let op = decode_op::<E>(&mut buf)?;
            let origin = get_u64(&mut buf)? as usize;
            let site = get_u32(&mut buf)?;
            let ctx = decode_clock(&mut buf)?;
            let v = get_u64(&mut buf)?;
            Message::Coop(CoopRequest {
                ot: BroadcastRequest { id, dep, top: TOp { op, origin, site }, ctx },
                v,
            })
        }
        1 => {
            let admin = get_u32(&mut buf)?;
            let version = get_u64(&mut buf)?;
            let op = decode_admin_op(&mut buf)?;
            Message::Admin(AdminRequest { admin, version, op })
        }
        2 => {
            let from = get_u32(&mut buf)?;
            let op = decode_admin_op(&mut buf)?;
            Message::Proposal(AdminProposal { from, op })
        }
        3 => {
            let from = get_u32(&mut buf)?;
            let clock = decode_clock(&mut buf)?;
            Message::Heartbeat { from, clock }
        }
        t => return Err(WireError::BadTag(t)),
    };
    if buf.remaining() != 0 {
        return Err(WireError::BadHeader);
    }
    Ok(msg)
}

// ---- snapshot structures ----

pub(crate) fn encode_log_entry<E: WireElement>(e: &LogEntry<E>, out: &mut BytesMut) {
    encode_request_id(e.id, out);
    encode_opt_request_id(e.dep, out);
    encode_op(&e.top.op, out);
    out.put_u64_le(e.top.origin as u64);
    out.put_u32_le(e.top.site);
    encode_op(&e.base, out);
    out.put_u8(e.inert as u8);
    encode_clock(&e.ctx, out);
}

pub(crate) fn decode_log_entry<E: WireElement>(buf: &mut Bytes) -> Result<LogEntry<E>> {
    let id = decode_request_id(buf)?;
    let dep = decode_opt_request_id(buf)?;
    let op = decode_op::<E>(buf)?;
    let origin = get_u64(buf)? as usize;
    let site = get_u32(buf)?;
    let base = decode_op::<E>(buf)?;
    let inert = get_bool(buf)?;
    let ctx = decode_clock(buf)?;
    Ok(LogEntry { id, dep, top: TOp { op, origin, site }, base, inert, ctx })
}

pub(crate) fn encode_policy(policy: &Policy, out: &mut BytesMut) {
    let auths = policy.authorizations();
    out.put_u32_le(auths.len() as u32);
    for a in auths {
        encode_auth(a, out);
    }
    out.put_u32_le(policy.users().len() as u32);
    for u in policy.users() {
        out.put_u32_le(*u);
    }
    out.put_u32_le(policy.groups().len() as u32);
    for (name, members) in policy.groups() {
        put_str(out, name);
        out.put_u32_le(members.len() as u32);
        for m in members {
            out.put_u32_le(*m);
        }
    }
    out.put_u32_le(policy.objects().len() as u32);
    for (name, object) in policy.objects() {
        put_str(out, name);
        encode_object(object, out);
    }
    out.put_u32_le(policy.delegates().len() as u32);
    for d in policy.delegates() {
        out.put_u32_le(*d);
    }
    out.put_u64_le(policy.version());
}

pub(crate) fn decode_policy(buf: &mut Bytes) -> Result<Policy> {
    let mut policy = Policy::new();
    let n_auths = get_u32(buf)? as usize;
    for i in 0..n_auths {
        let auth = decode_auth(buf)?;
        policy.add_auth_at(i, auth).map_err(|_| WireError::BadTag(0xEE))?;
    }
    for user in get_u32_set(buf)? {
        policy.add_user(user);
    }
    let n_groups = get_u32(buf)? as usize;
    for _ in 0..n_groups {
        let name = get_str(buf)?;
        policy.set_group(name, get_u32_set(buf)?);
    }
    let n_objects = get_u32(buf)? as usize;
    for _ in 0..n_objects {
        let name = get_str(buf)?;
        let object = decode_object(buf)?;
        policy.add_object(name, object).map_err(|_| WireError::BadTag(0xEF))?;
    }
    for delegate in get_u32_set(buf)? {
        policy.add_delegate(delegate);
    }
    policy.set_version(get_u64(buf)?);
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dce_core::Site;
    use dce_document::CharDocument;
    use dce_policy::Policy;
    use proptest::prelude::*;

    fn roundtrip<E: WireElement + PartialEq + std::fmt::Debug>(msg: &Message<E>) {
        let bytes = encode_message(msg);
        let back: Message<E> = decode_message(bytes).expect("decodes");
        assert_eq!(&back, msg);
    }

    #[test]
    fn coop_request_roundtrips() {
        let policy = Policy::permissive([0, 1]);
        let mut s1: Site<Char> = Site::new_user(1, 0, CharDocument::from_str("abc"), policy);
        let q = s1.generate(Op::ins(2, 'é')).unwrap();
        let q2 = s1.generate(Op::del(2, 'é')).unwrap();
        let q3 = s1.generate(Op::up(1, 'a', 'ß')).unwrap();
        roundtrip(&Message::Coop(q));
        roundtrip(&Message::Coop(q2));
        roundtrip(&Message::Coop(q3));
    }

    #[test]
    fn admin_ops_roundtrip() {
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
            roundtrip::<Char>(&Message::Admin(AdminRequest { admin: 0, version: 5, op }));
        }
    }

    #[test]
    fn paragraph_and_node_elements_roundtrip() {
        let p = Message::Coop(CoopRequest {
            ot: BroadcastRequest {
                id: RequestId::new(3, 1),
                dep: Some(RequestId::new(2, 9)),
                top: TOp {
                    op: Op::Ins { pos: 2, elem: Paragraph::styled("Heading", "h2") },
                    origin: 2,
                    site: 3,
                },
                ctx: Clock::new(),
            },
            v: 1,
        });
        roundtrip(&p);
        let n = Message::Coop(CoopRequest {
            ot: BroadcastRequest {
                id: RequestId::new(1, 1),
                dep: None,
                top: TOp {
                    op: Op::Up {
                        pos: 1,
                        old: Node::new("a", "x").attr("href", "/"),
                        new: Node::new("a", "y").at_depth(2),
                    },
                    origin: 1,
                    site: 1,
                },
                ctx: Clock::new(),
            },
            v: 0,
        });
        roundtrip(&n);
    }

    #[test]
    fn proposal_roundtrips() {
        roundtrip::<Char>(&Message::Proposal(AdminProposal { from: 4, op: AdminOp::AddUser(11) }));
    }

    #[test]
    fn heartbeat_roundtrips() {
        let mut clock = Clock::new();
        clock.set(1, 44);
        clock.set(7, 2);
        roundtrip::<Char>(&Message::Heartbeat { from: 7, clock });
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert_eq!(decode_message::<Char>(Bytes::new()).unwrap_err(), WireError::Truncated);
        assert_eq!(
            decode_message::<Char>(Bytes::from_static(&[0x00, 0x01, 0x00])).unwrap_err(),
            WireError::BadHeader
        );
        assert_eq!(
            decode_message::<Char>(Bytes::from_static(&[0xDC, 0x01, 0x07])).unwrap_err(),
            WireError::BadTag(0x07)
        );
        // Truncated mid-body.
        let policy = Policy::permissive([0, 1]);
        let mut s1: Site<Char> = Site::new_user(1, 0, CharDocument::from_str("abc"), policy);
        let q = s1.generate(Op::ins(1, 'x')).unwrap();
        let full = encode_message(&Message::Coop(q));
        let cut = full.slice(0..full.len() - 3);
        assert_eq!(decode_message::<Char>(cut).unwrap_err(), WireError::Truncated);
    }

    proptest! {
        #[test]
        fn random_clock_roundtrips(pairs in proptest::collection::vec((1u32..50, 1u64..1000), 0..8)) {
            let mut clock = Clock::new();
            for (s, n) in pairs {
                clock.set(s, n);
            }
            let mut out = BytesMut::new();
            encode_clock(&clock, &mut out);
            let back = decode_clock(&mut out.freeze()).unwrap();
            prop_assert_eq!(back, clock);
        }

        #[test]
        fn random_char_ops_roundtrip(pos in 1usize..10_000, c in any::<char>(), tag in 0u8..4) {
            let op: Op<Char> = match tag {
                0 => Op::Nop,
                1 => Op::ins(pos, c),
                2 => Op::del(pos, c),
                _ => Op::up(pos, c, 'z'),
            };
            let mut out = BytesMut::new();
            encode_op(&op, &mut out);
            let back: Op<Char> = decode_op(&mut out.freeze()).unwrap();
            prop_assert_eq!(back, op);
        }
    }
}
