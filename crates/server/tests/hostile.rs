//! A hostile member at the boundary: an authenticated connection that
//! sends a message it may not originate — a cooperative request or a
//! proposal naming another user, an administrative request, a heartbeat
//! — must be closed before the administrator replica applies anything,
//! while an honest request on the same path is accepted.

use dce_core::{AdminProposal, DocumentId, Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_net::frame::{encode_frame, Frame, FrameDecoder};
use dce_net::reliable::{Endpoint, ReliableConfig};
use dce_ot::ids::Clock;
use dce_policy::AdminOp;
use dce_server::{initial_policy, Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOC: &str = "guarded text";
const USERS: u32 = 2;

fn site(user: u32) -> Site<Char> {
    let d0 = CharDocument::from_str(DOC);
    if user == 0 {
        Site::new_admin(0, d0, initial_policy(USERS))
    } else {
        Site::new_user(user, 0, d0, initial_policy(USERS))
    }
}

/// Reads frames until the server closes the socket (`true`) or `wait`
/// passes with the connection still open (`false`).
fn closed_within(stream: &mut TcpStream, wait: Duration) -> bool {
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + wait;
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                decoder.extend(&buf[..n]);
                while let Ok(Some(_)) = decoder.next::<Char>() {}
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return true,
        }
    }
    false
}

/// The administrator replica's digest of `session`'s root document.
fn digest(addr: &str, session: u32) -> u64 {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&encode_frame(&Frame::<Char>::DigestRequest { session, doc: DocumentId::ROOT }))
        .expect("digest request");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = s.read(&mut buf).expect("digest reply");
        assert!(n > 0, "server hung up on a digest request");
        decoder.extend(&buf[..n]);
        if let Some(Frame::DigestReply { digest, .. }) = decoder.next::<Char>().expect("frame") {
            return digest;
        }
    }
}

/// Joins `session` as user 1, sends `msg` as its first data packet, and
/// reports whether the server hung up, plus the administrator digest
/// before and after.
fn send_as_member_1(addr: &str, session: u32, msg: Message<Char>) -> (bool, u64, u64) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&encode_frame(&Frame::<Char>::Hello { session, user: 1 })).expect("hello");
    // The Hello is handled before anything queued behind it; wait for the
    // session to exist so the "before" digest is the fresh replica's.
    assert!(!closed_within(&mut s, Duration::from_millis(100)), "hello refused");
    let before = digest(addr, session);
    let mut endpoint: Endpoint<Char> =
        Endpoint::new(1, ReliableConfig { initial_rto_ms: 1_000, max_rto_ms: 1_000 });
    let pkt = endpoint.send(0, Arc::new(msg), 0);
    s.write_all(&encode_frame(&Frame::from_packet(DocumentId::ROOT, pkt))).expect("data");
    let closed = closed_within(&mut s, Duration::from_millis(500));
    (closed, before, digest(addr, session))
}

#[test]
fn forged_or_server_only_messages_close_the_connection() {
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        users: USERS,
        doc: DOC.into(),
        journal: 0,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag).expect("reactor runs"));

    let mut clock = Clock::new();
    clock.set(2, 1_000);
    let forged = [
        (
            "a cooperative request naming user 2",
            Message::Coop(site(2).generate(Op::ins(1, 'x')).unwrap()),
        ),
        (
            "an administrative request",
            Message::Admin(site(0).admin_generate(AdminOp::AddUser(9)).unwrap()),
        ),
        (
            "a proposal naming user 2",
            Message::Proposal(AdminProposal { from: 2, op: AdminOp::AddUser(9) }),
        ),
        ("a heartbeat overstating user 2", Message::Heartbeat { from: 2, clock }),
    ];
    // Each forgery gets a session of its own, so every replica starts fresh.
    for (session, (what, msg)) in (1..).zip(forged) {
        let (closed, before, after) = send_as_member_1(&addr, session, msg);
        assert!(closed, "the server kept a connection open after {what}");
        assert_eq!(before, after, "the administrator replica applied {what}");
    }
    // The control: user 1's own request on the same path is accepted.
    let honest = Message::Coop(site(1).generate(Op::ins(1, 'y')).unwrap());
    let (closed, before, after) = send_as_member_1(&addr, 99, honest);
    assert!(!closed, "the server closed an honest member");
    assert_ne!(before, after, "the honest request never reached the administrator replica");

    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}
