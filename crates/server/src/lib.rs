//! # dce-server — real-socket session server
//!
//! The paper deploys its prototype on a live network (§6); until now
//! every "site" in this repository lived inside one process behind
//! `SimNet`. This crate puts the same stack on real TCP sockets: a
//! hand-rolled **non-blocking reactor** over `std::net::TcpListener`
//! (the build environment is offline — no tokio/mio) hosting one or
//! more editor **sessions** per process. Each session is the
//! administrator's sharded engine ([`dce_core::Engine`] for user 0,
//! one replica per hosted document) plus the
//! connection roster of its collaborator sites; clients connect with
//! [`dce_net::frame`] frames and the whole exchange runs through the
//! *same* [`dce_net::reliable::Endpoint`] session layer the simulator
//! chaos suites exercise — sequence numbers, cumulative acks and
//! timeout retransmission now driven by wall-clock milliseconds instead
//! of simulated time.
//!
//! Topology is a star: clients talk to the server only. The server
//! *re-originates* every relayed message on its own per-client streams,
//! so each client observes one FIFO stream whose order is the order the
//! administrator processed the group's traffic — a valid causal order
//! (anything a client's op depends on was relayed to it, and therefore
//! processed here, before the op came back). Messages for a member that
//! is currently disconnected are buffered on a **paused** stream
//! (timer off — see the pause/send fix in `reliable.rs`) and flow again
//! when the member re-`Hello`s and the stream restarts in a new epoch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dce_core::{DocumentId, Engine, Message, Site};
use dce_document::{Char, CharDocument};
use dce_net::frame::{encode_frame, Frame, FrameDecoder};
use dce_net::reliable::{Endpoint, ReliableConfig};
use dce_obs::ObsHandle;
use dce_policy::Policy;
use dce_store::{EngineStore, FsyncPolicy, StoreConfig};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Log-length watermark: when a document's canonical log plus admin log
/// reach this many entries, the server compacts (and, at quiescence,
/// snapshots), bounding both resident memory and the log suffix a
/// restart must replay.
const COMPACT_WATERMARK: usize = 192;

/// Cadence of the horizon pass (reactor-clock milliseconds): past the
/// watermark, the server manufactures heartbeats for members whose
/// streams hold nothing unacknowledged, then compacts. An idle member
/// never speaks — not even heartbeats — which would pin the stability
/// horizon at zero forever; its cumulative acks are proof of reception,
/// so the server advances the horizon on its behalf. Driven from the
/// timer path rather than per delivery: streams are rarely fully acked
/// in the middle of a burst, and at quiescence there are no deliveries
/// left to piggyback on.
const HORIZON_PASS_MS: u64 = 25;

/// Tuning knobs for a server process.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7461` (`:0` picks a free port).
    pub addr: String,
    /// Collaborator sites per session (users `1..=users`; user 0 is the
    /// administrator, hosted here).
    pub users: u32,
    /// Documents hosted per session (ids `0..docs`; document 0 is the
    /// root document, [`dce_core::DocumentId::ROOT`]).
    pub docs: u32,
    /// Initial document content, shared by every replica.
    pub doc: String,
    /// Initial retransmission timeout of the reliable layer (wall ms).
    pub rto_ms: u64,
    /// Observability journal capacity (ring entries); 0 disables.
    pub journal: usize,
    /// Durable storage root. When set, every session journals its
    /// traffic to `<data_dir>/session-<id>/` through `dce-store` and a
    /// restarted server rebuilds its sessions from disk at bind time.
    pub data_dir: Option<PathBuf>,
    /// Plain-text status listener, e.g. `127.0.0.1:7471` (`:0` picks a
    /// free port). Every accepted connection receives one JSON dump of
    /// the whole metrics registry and is closed — curl-able without
    /// speaking the frame protocol.
    pub status_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7461".into(),
            users: 4,
            docs: 1,
            doc: "the quick brown fox".into(),
            rto_ms: 100,
            journal: 1 << 16,
            data_dir: None,
            status_addr: None,
        }
    }
}

/// The deterministic initial policy of a session with `users`
/// collaborators: permissive over `{0, …, users}`, with every
/// collaborator holding an administrative delegation so the load
/// generator can exercise the proposal path. Server and clients build
/// this *identically* at version 0 — no bootstrap admin traffic needed.
pub fn initial_policy(users: u32) -> Policy {
    let mut p = Policy::permissive(0..=users);
    for u in 1..=users {
        p.add_delegate(u);
    }
    p
}

/// One connected socket.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    /// `(session, user)` once the `Hello` arrived.
    identity: Option<(u32, u32)>,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            identity: None,
            closed: false,
        }
    }
}

/// One hosted editor session: the administrator's sharded engine (one
/// replica per document) plus per-document session-layer endpoints and
/// the connection roster for its collaborators. One TCP connection per
/// member multiplexes every document.
struct Session {
    admin: Engine<Char>,
    /// Reliable streams are per document: each document's traffic is an
    /// independent FIFO with its own epochs, acks and retransmissions,
    /// so faults on one document never stall another.
    endpoints: HashMap<DocumentId, Endpoint<Char>>,
    /// user → connection slot, for currently connected members.
    conn_of: HashMap<u32, usize>,
    /// Every user that has connected at least once: disconnected members
    /// keep accumulating traffic on a paused stream until they return.
    seen: HashSet<u32>,
    /// Messages delivered to each document's administrator replica.
    delivered: HashMap<DocumentId, u64>,
    /// The session's durable store, when the server runs with a
    /// `data_dir`. The engine journals through it on every delivery.
    store: Option<Arc<EngineStore<Char>>>,
}

impl Session {
    fn has_unacked(&self) -> bool {
        self.endpoints.values().any(Endpoint::has_unacked)
    }
}

/// The server: a non-blocking accept/read/timer/write loop. Drive it
/// with [`Server::poll`] from your own loop, or hand it a shutdown flag
/// via [`Server::run`].
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    status_listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    sessions: HashMap<u32, Session>,
    origin: Instant,
    obs: ObsHandle,
    /// Reactor time of the last horizon pass (heartbeat synthesis +
    /// watermark compaction), rate-limiting it to `HORIZON_PASS_MS`.
    last_horizon: u64,
}

impl Server {
    /// Binds the listen socket (non-blocking) and prepares the reactor.
    /// With a `data_dir`, every session found on disk is rebuilt *now* —
    /// before any client can connect — so a killed server restarts from
    /// local storage alone.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let obs = if cfg.journal > 0 {
            let obs = ObsHandle::recording(cfg.journal);
            obs.use_wall_time();
            obs
        } else {
            ObsHandle::disabled()
        };
        let status_listener = match &cfg.status_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let mut server = Server {
            cfg,
            listener,
            status_listener,
            conns: Vec::new(),
            sessions: HashMap::new(),
            origin: Instant::now(),
            obs,
            last_horizon: 0,
        };
        if let Some(root) = server.cfg.data_dir.clone() {
            std::fs::create_dir_all(&root)?;
            let mut sids: Vec<u32> = std::fs::read_dir(&root)?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    e.file_name()
                        .to_str()
                        .and_then(|n| n.strip_prefix("session-"))
                        .and_then(|n| n.parse().ok())
                })
                .collect();
            sids.sort_unstable();
            for sid in sids {
                let sess = server.new_session(sid, 0)?;
                server.sessions.insert(sid, sess);
            }
        }
        Ok(server)
    }

    /// Builds session `sid`: a fresh engine when the server is
    /// memory-only, or — with a `data_dir` — one recovered from (and
    /// journaling to) `<data_dir>/session-<sid>/`.
    fn new_session(&self, sid: u32, now: u64) -> io::Result<Session> {
        let users = self.cfg.users;
        let docs = u64::from(self.cfg.docs.max(1));
        let rto = self.cfg.rto_ms;
        let mut endpoints: HashMap<DocumentId, Endpoint<Char>> = (0..docs)
            .map(|d| {
                (
                    DocumentId::new(d),
                    Endpoint::new(0, ReliableConfig { initial_rto_ms: rto, max_rto_ms: rto * 16 }),
                )
            })
            .collect();
        let Some(root) = &self.cfg.data_dir else {
            let admin = Engine::new_admin(0).with_observability(self.obs.clone());
            admin
                .create_documents((0..docs).map(|d| {
                    (
                        DocumentId::new(d),
                        CharDocument::from_str(&self.cfg.doc),
                        initial_policy(users),
                    )
                }))
                .expect("fresh engine hosts no documents yet");
            return Ok(Session {
                admin,
                endpoints,
                conn_of: HashMap::new(),
                seen: HashSet::new(),
                delivered: HashMap::new(),
                store: None,
            });
        };

        let oops = io::Error::other;
        let store_cfg = StoreConfig {
            fsync: FsyncPolicy::EveryN(32),
            snapshot_every: u64::MAX,
            // Snapshots are forced by the watermark compaction in
            // `deliver`, gated on the whole session being acked — a
            // snapshot must never cover a record some member still needs.
            auto_snapshot: false,
            retain_snapshots: 2,
        };
        let dir = root.join(format!("session-{sid}"));
        let store: Arc<EngineStore<Char>> =
            Arc::new(EngineStore::open(&dir, 0, 0, store_cfg, self.obs.clone())?);
        // Streams of this incarnation must outrank anything a dead
        // incarnation put on the wire.
        let floor = store.bump_incarnation()? << 32;
        for endpoint in endpoints.values_mut() {
            endpoint.set_epoch_floor(floor);
        }
        let admin =
            Engine::new_admin(0).with_observability(self.obs.clone()).with_store(store.clone());
        let mut recovered = false;
        let mut delivered = HashMap::new();
        for d in 0..docs {
            let doc = DocumentId::new(d);
            let rec = store
                .recover_doc(doc, || {
                    Site::new_admin(0, CharDocument::from_str(&self.cfg.doc), initial_policy(users))
                })
                .map_err(|e| oops(format!("session {sid}: recover {doc}: {e}")))?;
            recovered |= !rec.fresh;
            delivered.insert(doc, rec.records_total);
            admin
                .adopt_site(doc, rec.site)
                .map_err(|e| oops(format!("session {sid}: adopt {doc}: {e}")))?;
            // Re-enqueue the replayed suffix on (paused) member streams:
            // the dead incarnation may have relayed these without the
            // members ever acking them. Member replicas dedup whatever
            // they did receive.
            let endpoint = endpoints.get_mut(&doc).expect("endpoint per doc");
            for rr in rec.replayed {
                if let Some(msg) = rr.msg {
                    if !matches!(msg, Message::Proposal(_)) {
                        let msg = Arc::new(msg);
                        for u in 1..=users {
                            if u != rr.origin {
                                endpoint.send(u as usize, Arc::clone(&msg), now);
                                endpoint.pause_stream_to(u as usize);
                            }
                        }
                    }
                }
                for reaction in rr.reactions {
                    let reaction = Arc::new(reaction);
                    for u in 1..=users {
                        endpoint.send(u as usize, Arc::clone(&reaction), now);
                        endpoint.pause_stream_to(u as usize);
                    }
                }
            }
        }
        // A recovered session already has members mid-history: treat all
        // of them as seen so the buffered suffix reaches them when they
        // re-`Hello` (and new traffic keeps accumulating meanwhile).
        let seen = if recovered { (1..=users).collect() } else { HashSet::new() };
        Ok(Session {
            admin,
            endpoints,
            conn_of: HashMap::new(),
            seen,
            delivered,
            store: Some(store),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound status-dump address, when `status_addr` was configured.
    pub fn status_local_addr(&self) -> Option<SocketAddr> {
        self.status_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The server's observability handle (journal + metrics). Arm a
    /// flight recorder on it to capture protocol failures.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Milliseconds since the server started — the reliable layer's
    /// clock on this transport.
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// Runs the reactor until `shutdown` goes true. Sleeps briefly when
    /// a pass finds no work, so an idle server does not spin a core.
    pub fn run(&mut self, shutdown: Arc<AtomicBool>) -> io::Result<()> {
        while !shutdown.load(Ordering::Relaxed) {
            if !self.poll()? {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        }
        Ok(())
    }

    /// One reactor pass: accept, read/handle, fire retransmission
    /// timers, flush writes, reap dead connections. Returns `true` when
    /// any work happened.
    pub fn poll(&mut self) -> io::Result<bool> {
        let mut worked = false;
        // Phase residency: where a reactor pass spends its time. Timed
        // only when observability is on, so the disabled path does not
        // pay four clock reads per pass.
        let mut phase = self.obs.enabled().then(Instant::now);
        if let Some(listener) = &self.status_listener {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        worked = true;
                        self.serve_status(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let conn = Some(Conn::new(stream));
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = conn,
                        None => self.conns.push(conn),
                    }
                    worked = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        self.observe_phase(&mut phase, "server.accept_ns");

        let now = self.now_ms();
        let mut buf = [0u8; 64 * 1024];
        for ci in 0..self.conns.len() {
            let mut frames = Vec::new();
            {
                let Some(conn) = self.conns[ci].as_mut() else { continue };
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.decoder.extend(&buf[..n]);
                            worked = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
                loop {
                    match conn.decoder.next::<Char>() {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break,
                        Err(e) => {
                            // The byte stream is beyond repair: drop the
                            // connection rather than guess at framing.
                            eprintln!("dce-server: conn {ci}: bad frame: {e}");
                            conn.closed = true;
                            break;
                        }
                    }
                }
            }
            for frame in frames {
                self.handle_frame(ci, frame, now);
                worked = true;
            }
        }
        self.observe_phase(&mut phase, "server.read_ns");

        // Retransmission timers, driven by wall-clock time — one pass
        // per document stream.
        let session_ids: Vec<u32> = self.sessions.keys().copied().collect();
        for sid in session_ids {
            let sess = self.sessions.get_mut(&sid).expect("session exists");
            for (&doc, endpoint) in sess.endpoints.iter_mut() {
                if !matches!(endpoint.next_deadline(), Some(d) if d <= now) {
                    continue;
                }
                let mut retransmits = 0u64;
                for (peer, pkt) in endpoint.due_retransmissions(now) {
                    if let Some(&ci) = sess.conn_of.get(&(peer as u32)) {
                        push_out(&mut self.conns, ci, &encode_frame(&Frame::from_packet(doc, pkt)));
                        retransmits += 1;
                        worked = true;
                    }
                }
                if retransmits > 0 {
                    self.obs.for_doc(doc.0).add_counter("server.retransmits", retransmits);
                }
            }
        }
        if now >= self.last_horizon.saturating_add(HORIZON_PASS_MS) {
            self.last_horizon = now;
            self.advance_horizons();
        }
        self.observe_phase(&mut phase, "server.timer_ns");

        for conn in self.conns.iter_mut().flatten() {
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                        worked = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
        }

        for ci in 0..self.conns.len() {
            let closed = matches!(&self.conns[ci], Some(c) if c.closed);
            if !closed {
                continue;
            }
            if let Some((sid, user)) = self.conns[ci].as_ref().and_then(|c| c.identity) {
                if let Some(sess) = self.sessions.get_mut(&sid) {
                    sess.conn_of.remove(&user);
                    // The member is gone: keep buffering for it on every
                    // document stream, timers off.
                    for endpoint in sess.endpoints.values_mut() {
                        endpoint.pause_stream_to(user as usize);
                    }
                }
            }
            self.conns[ci] = None;
            worked = true;
        }
        if self.obs.enabled() {
            let mut backlog = 0u64;
            for conn in self.conns.iter().flatten() {
                backlog += conn.out.len() as u64;
                if let Some((sid, user)) = conn.identity {
                    self.obs.set_gauge(
                        &format!("server.backlog_bytes.s{sid}u{user}"),
                        conn.out.len() as u64,
                    );
                }
            }
            self.obs.set_gauge("server.backlog_bytes", backlog);
            self.obs.set_gauge("server.connections", self.conns.iter().flatten().count() as u64);
            self.obs.set_gauge("server.sessions", self.sessions.len() as u64);
        }
        self.observe_phase(&mut phase, "server.write_ns");
        Ok(worked)
    }

    /// Closes out one poll phase on the residency histograms and starts
    /// the next. A no-op (no clock read) when observability is off.
    fn observe_phase(&self, phase: &mut Option<Instant>, name: &str) {
        if let Some(t) = phase {
            self.obs.observe_hist(name, t.elapsed().as_nanos() as u64);
            *phase = Some(Instant::now());
        }
    }

    /// Answers one status-port connection: a single JSON dump of the
    /// whole metrics registry behind a minimal HTTP/1.0 header (so
    /// `curl` accepts it), then close. The request bytes are never
    /// read — whatever the client sent, the answer is the dump.
    fn serve_status(&self, stream: TcpStream) {
        let mut stream = stream;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(2)));
        let body = self.obs.snapshot().to_json();
        let header = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len() + 1
        );
        let _ = stream.write_all(header.as_bytes());
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.write_all(b"\n");
    }

    fn close_conn(&mut self, ci: usize, why: &str) {
        if let Some(conn) = self.conns[ci].as_mut() {
            eprintln!("dce-server: closing conn {ci}: {why}");
            conn.closed = true;
        }
    }

    fn handle_frame(&mut self, ci: usize, frame: Frame<Char>, now: u64) {
        match frame {
            Frame::Hello { session, user } => {
                if user == 0 || user > self.cfg.users {
                    self.close_conn(ci, "hello for an out-of-range user");
                    return;
                }
                if !self.sessions.contains_key(&session) {
                    match self.new_session(session, now) {
                        Ok(sess) => {
                            self.sessions.insert(session, sess);
                        }
                        Err(e) => {
                            let reason = format!("session {session}: store open failed: {e}");
                            eprintln!("dce-server: {reason}");
                            self.obs.failure(&reason);
                            self.close_conn(ci, "session store failure");
                            return;
                        }
                    }
                }
                let users = self.cfg.users;
                let sess = self.sessions.get_mut(&session).expect("just ensured");
                let rejoin = !sess.seen.insert(user);
                let old = sess.conn_of.insert(user, ci);
                if rejoin {
                    // The member returned: new epoch on every document
                    // stream, refill from the union of unacked buffers,
                    // timer due immediately.
                    for endpoint in sess.endpoints.values_mut() {
                        endpoint.restart_stream_to(user as usize, now);
                    }
                }
                if let Some(old) = old.filter(|&old| old != ci) {
                    if let Some(c) = self.conns[old].as_mut() {
                        c.closed = true;
                    }
                }
                if let Some(conn) = self.conns[ci].as_mut() {
                    conn.identity = Some((session, user));
                }
                push_out(
                    &mut self.conns,
                    ci,
                    &encode_frame(&Frame::<Char>::Welcome { session, user, peers: users }),
                );
            }
            Frame::Data { doc, src, epoch, seq, ack_epoch, ack, msg } => {
                let Some((sid, user)) = self.conns[ci].as_ref().and_then(|c| c.identity) else {
                    self.close_conn(ci, "data before hello");
                    return;
                };
                if src != user {
                    self.close_conn(ci, "data with a forged source");
                    return;
                }
                let sess = self.sessions.get_mut(&sid).expect("identity implies session");
                let Some(endpoint) = sess.endpoints.get_mut(&doc) else {
                    self.close_conn(ci, "data for a document this session does not host");
                    return;
                };
                endpoint.on_ack(user as usize, ack_epoch, ack, now);
                let outcome = endpoint.on_data(user as usize, epoch, seq, msg);
                for m in outcome.deliverable {
                    self.deliver(sid, doc, user, m, now);
                }
                let sess = self.sessions.get_mut(&sid).expect("session exists");
                let endpoint = sess.endpoints.get_mut(&doc).expect("checked above");
                let (ack_epoch, cum) = endpoint.ack_for(user as usize);
                push_out(
                    &mut self.conns,
                    ci,
                    &encode_frame(&Frame::<Char>::Ack { doc, from: 0, epoch: ack_epoch, cum }),
                );
            }
            Frame::Ack { doc, from: _, epoch, cum } => {
                let Some((sid, user)) = self.conns[ci].as_ref().and_then(|c| c.identity) else {
                    self.close_conn(ci, "ack before hello");
                    return;
                };
                let sess = self.sessions.get_mut(&sid).expect("identity implies session");
                let Some(endpoint) = sess.endpoints.get_mut(&doc) else {
                    self.close_conn(ci, "ack for a document this session does not host");
                    return;
                };
                endpoint.on_ack(user as usize, epoch, cum, now);
            }
            Frame::DigestRequest { session, doc } => {
                let reply = match self.sessions.get(&session) {
                    Some(sess) => Frame::<Char>::DigestReply {
                        session,
                        doc,
                        user: 0,
                        digest: sess.admin.replica_digest(doc).unwrap_or(0),
                        idle: !sess.has_unacked(),
                    },
                    None => Frame::DigestReply { session, doc, user: 0, digest: 0, idle: true },
                };
                push_out(&mut self.conns, ci, &encode_frame(&reply));
            }
            Frame::StatusRequest { session, doc } => {
                let reply = match self.sessions.get(&session) {
                    Some(sess) => Frame::<Char>::StatusReply {
                        session,
                        doc,
                        connected: sess.conn_of.len() as u32,
                        unacked: sess.has_unacked(),
                        delivered: sess.delivered.get(&doc).copied().unwrap_or(0),
                    },
                    None => Frame::StatusReply {
                        session,
                        doc,
                        connected: 0,
                        unacked: false,
                        delivered: 0,
                    },
                };
                push_out(&mut self.conns, ci, &encode_frame(&reply));
            }
            Frame::MetricsRequest { session } => {
                // Answered without a Hello, like digest and status
                // probes: monitors should not need an editor identity.
                let reply =
                    Frame::<Char>::MetricsReport { session, report: Arc::new(self.obs.snapshot()) };
                push_out(&mut self.conns, ci, &encode_frame(&reply));
            }
            Frame::Bye { .. } => {
                self.close_conn(ci, "bye");
            }
            Frame::Welcome { .. }
            | Frame::DigestReply { .. }
            | Frame::StatusReply { .. }
            | Frame::MetricsReport { .. } => {
                self.close_conn(ci, "client sent a server-only frame");
            }
        }
    }

    /// Hands one in-order message to the document's administrator
    /// replica and fans out on that document's streams: the message
    /// itself to every other member, then whatever the administrator
    /// emitted in response (validations, sequenced proposals). Members
    /// currently offline accumulate on paused streams; `Proposal`s are
    /// addressed to the administrator and are not relayed.
    fn deliver(
        &mut self,
        sid: u32,
        doc: DocumentId,
        from_user: u32,
        msg: Arc<Message<Char>>,
        now: u64,
    ) {
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        if let Err(e) = sess.admin.receive(doc, (*msg).clone()) {
            let reason = format!(
                "session {sid}: {doc}: admin rejected {} from {from_user}: {e}",
                msg.kind()
            );
            eprintln!("dce-server: {reason}");
            self.obs.failure(&reason);
            return;
        }
        *sess.delivered.entry(doc).or_insert(0) += 1;
        self.obs.for_doc(doc.0).add_counter("server.delivered", 1);
        let members: Vec<u32> = {
            let mut m: Vec<u32> = sess.seen.iter().copied().collect();
            m.sort_unstable();
            m
        };
        if !matches!(&*msg, Message::Proposal(_)) {
            for &u in members.iter().filter(|&&u| u != from_user) {
                Self::send_to(sess, &mut self.conns, doc, u, Arc::clone(&msg), now);
            }
        }
        for reaction in sess.admin.drain_outbox(doc) {
            let reaction = Arc::new(reaction);
            for &u in &members {
                Self::send_to(sess, &mut self.conns, doc, u, Arc::clone(&reaction), now);
            }
        }
    }

    /// The horizon pass: for every session document whose combined logs
    /// crossed the watermark, synthesize heartbeats for fully-acked
    /// members, then compact. When a member's stream holds nothing
    /// unacknowledged, everything the administrator ever processed was
    /// relayed to and received by it, so the member's replica clock
    /// dominates the administrator's — sending the administrator's clock
    /// on the member's behalf understates what it knows, and the
    /// stability horizon is a pointwise minimum, so understating is
    /// safe. Journaling the heartbeats through `receive` keeps replay
    /// deterministic. With a store attached, compaction forces a
    /// snapshot, so it additionally waits for every member to ack
    /// everything — a snapshot must never swallow a record some member
    /// still needs redelivered. (Memory-only sessions skip that wait:
    /// retransmission buffers hold their own copies, so compacting the
    /// replica's logs cannot lose in-flight traffic.)
    fn advance_horizons(&mut self) {
        for (&sid, sess) in self.sessions.iter_mut() {
            let docs: Vec<DocumentId> = sess.endpoints.keys().copied().collect();
            for doc in docs {
                let logs = sess
                    .admin
                    .with(doc, |s| s.engine().log().len() + s.admin_log().len())
                    .unwrap_or(0);
                if self.obs.enabled() {
                    let obs = self.obs.for_doc(doc.0);
                    obs.set_gauge("server.log_len", logs as u64);
                    if let Some(e) = sess.endpoints.get(&doc) {
                        obs.set_gauge("server.unacked_depth", e.unacked_depth() as u64);
                    }
                }
                if logs < COMPACT_WATERMARK {
                    continue;
                }
                let Some(clock) = sess.admin.with(doc, |s| s.engine().clock().clone()) else {
                    continue;
                };
                for &u in &sess.seen {
                    let acked =
                        sess.endpoints.get(&doc).is_some_and(|e| !e.has_unacked_to(u as usize));
                    if !acked {
                        continue;
                    }
                    let hb = Message::Heartbeat { from: u, clock: clock.clone() };
                    if let Err(e) = sess.admin.receive(doc, hb) {
                        let reason =
                            format!("session {sid}: {doc}: synthesized heartbeat rejected: {e}");
                        eprintln!("dce-server: {reason}");
                        self.obs.failure(&reason);
                    }
                }
                if (sess.store.is_none() || !sess.has_unacked())
                    && sess.admin.auto_compact(doc).unwrap_or(0) > 0
                {
                    self.obs.for_doc(doc.0).add_counter("server.compactions", 1);
                }
            }
        }
    }

    /// Queues `msg` on `doc`'s reliable stream toward `user` and, when
    /// the user is connected, writes the packet frame to its socket. For
    /// an offline member the packet only enters the (paused) send buffer
    /// — the restart on re-`Hello` will carry it over.
    fn send_to(
        sess: &mut Session,
        conns: &mut [Option<Conn>],
        doc: DocumentId,
        user: u32,
        msg: Arc<Message<Char>>,
        now: u64,
    ) {
        let endpoint = sess.endpoints.get_mut(&doc).expect("deliver implies hosted doc");
        let pkt = endpoint.send(user as usize, msg, now);
        match sess.conn_of.get(&user) {
            Some(&ci) => push_out(conns, ci, &encode_frame(&Frame::from_packet(doc, pkt))),
            None => endpoint.pause_stream_to(user as usize),
        }
    }
}

fn push_out(conns: &mut [Option<Conn>], ci: usize, bytes: &[u8]) {
    if let Some(conn) = conns.get_mut(ci).and_then(Option::as_mut) {
        conn.out.extend_from_slice(bytes);
    }
}
